"""Statement parsing. The grammar is deterministic: same text, same parse."""
import json
import re
from dataclasses import astuple
from importlib import resources
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgupdate.cli import main
from sgupdate.human import (
    Confidence,
    GrammarExtractor,
    Lexicon,
    ParseWasFailed,
    StatementParse,
    _alts,
    _clean,
    _strip_article,
    parse_statement,
    to_record,
)
from sgupdate.records import Provenance, UpdateAction


SCENARIO = resources.files("sgupdate.data").joinpath("scenario_house.json")

# the three canonical shapes the pipeline is built around
REMOVED_SENT = "I removed the towel from the bathroom because it was too old."
MOVED_SENT = "I moved the cup from the kitchen to the table in the living room."
ADDED_SENT = "I put the book on the table in the living room."


def test_removed_statement_parses_exact():
    p = parse_statement(REMOVED_SENT)
    assert p.confidence is Confidence.EXACT
    assert p.action is UpdateAction.REMOVED
    assert p.target_object == "towel"
    assert p.source_room == "bathroom"
    assert p.target_room is None


def test_moved_statement_parses_exact_with_support():
    p = parse_statement(MOVED_SENT)
    assert p.confidence is Confidence.EXACT
    assert p.action is UpdateAction.MOVED
    assert (p.target_object, p.source_room, p.target_room) == ("cup", "kitchen", "living room")
    assert p.support_object == "table"


def test_added_statement_parses_exact():
    p = parse_statement(ADDED_SENT)
    assert p.confidence is Confidence.EXACT
    assert p.action is UpdateAction.ADDED
    assert (p.target_object, p.target_room, p.support_object) == ("book", "living room", "table")


def test_moved_statement_direct_to_room():
    p = parse_statement("We carried the vase from the living room into the bedroom")
    assert p.confidence is Confidence.EXACT
    assert (p.action, p.target_object) == (UpdateAction.MOVED, "vase")
    assert (p.source_room, p.target_room, p.support_object) == ("living room", "bedroom", None)


def test_subordinate_clauses_and_politeness_are_stripped():
    p = parse_statement("I have just removed the banana from the kitchen since it went bad!")
    assert p.confidence is Confidence.EXACT
    assert (p.action, p.target_object, p.source_room) == (
        UpdateAction.REMOVED,
        "banana",
        "kitchen",
    )


def test_consumption_verbs_read_as_removal():
    p = parse_statement("I ate the banana in the kitchen")
    assert p.action is UpdateAction.REMOVED
    assert p.target_object == "banana"
    assert p.source_room == "kitchen"


def test_fallback_keyword_scan_has_lexicon_confidence():
    # word order the templates don't cover, but every keyword is present
    p = parse_statement("well the towel was tossed from the bathroom today")
    assert p.confidence is Confidence.LEXICON
    assert (p.action, p.target_object, p.source_room) == (
        UpdateAction.REMOVED,
        "towel",
        "bathroom",
    )


def test_unknown_object_fails_instead_of_guessing():
    p = parse_statement("I removed the gizmo from the kitchen")
    assert p.confidence is Confidence.FAILED


def test_unknown_room_fails(house2=None):
    p = parse_statement("I removed the towel from the garage")
    assert p.confidence is Confidence.FAILED


def test_gibberish_fails():
    p = parse_statement("purple monkey dishwasher")
    assert p.confidence is Confidence.FAILED
    assert p.text == "purple monkey dishwasher"


def test_empty_statement_fails():
    assert parse_statement("   ").confidence is Confidence.FAILED


def test_parse_is_deterministic():
    parses = [parse_statement(MOVED_SENT) for _ in range(5)]
    assert all(p == parses[0] for p in parses)


def test_custom_lexicon_swaps_vocabulary():
    lex = Lexicon(
        verbs_removed=["vaporized"],
        verbs_moved=[],
        verbs_added=[],
        rooms=["lab"],
        objects=["widget"],
        supports=[],
    )
    p = parse_statement("I vaporized the widget in the lab", lexicon=lex)
    assert p.confidence is Confidence.EXACT
    assert (p.action, p.target_object, p.source_room) == (
        UpdateAction.REMOVED,
        "widget",
        "lab",
    )
    # the default vocabulary no longer applies under the custom lexicon
    assert parse_statement(REMOVED_SENT, lexicon=lex).confidence is Confidence.FAILED


@pytest.mark.parametrize("blank", ["", "  ", "\t\n"])
def test_lexicon_refuses_a_blank_word(blank):
    with pytest.raises(ValueError, match=re.escape(f"rooms[1] must not be blank, got {blank!r}")):
        Lexicon.from_dict({"rooms": ["kitchen", blank]})


def test_a_scenario_with_a_blank_lexicon_word_exits_2(tmp_path, capsys):
    lexicon = json.loads(resources.files("sgupdate.data").joinpath("lexicon.json").read_text("utf-8"))
    lexicon["rooms"].append("  ")
    path = tmp_path / "lexicon.json"
    path.write_text(json.dumps(lexicon), "utf-8")
    assert main(["run", str(SCENARIO), "--set", f"lexicon={path}"]) == 2
    captured = capsys.readouterr()
    where = f"lexicon: rooms[{len(lexicon['rooms']) - 1}] must not be blank, got '  '"
    assert where in captured.err and captured.out == ""


def test_extractor_is_reusable_and_pluggable():
    extract = GrammarExtractor()
    assert extract(MOVED_SENT).confidence is Confidence.EXACT
    assert extract("???").confidence is Confidence.FAILED


def test_to_record_carries_topology_but_no_geometry():
    r = to_record(parse_statement(MOVED_SENT), now=12.0)
    assert r.action is UpdateAction.MOVED
    assert (r.target_object, r.source_room, r.target_room) == ("cup", "kitchen", "living room")
    assert r.support_object == "table"
    assert r.pose is None and r.bbox is None
    assert r.provenance is Provenance.HUMAN
    assert r.issued_at == 12.0


def test_to_record_refuses_failed_parse():
    with pytest.raises(ParseWasFailed):
        to_record(parse_statement("nonsense sentence here"), now=0.0)


# -- differential test against a grammar with one branch per action ----------


class BranchGrammar:
    """The grammar written with one template branch per action and a keyword
    scan with its own table of the rooms each action needs: the oracle that
    ``GrammarExtractor``, which asks ``records.validate`` instead, must match."""

    def __init__(self, lexicon: Optional[Lexicon] = None) -> None:
        self.lexicon = lexicon if lexicon is not None else Lexicon.default()
        lx = self.lexicon
        self._moved = re.compile(
            rf"^(?:{_alts(lx.verbs_moved)}) (?P<obj>.+?) from the (?P<sr>.+?) "
            rf"(?:to|into|onto) the (?P<dest>.+)$"
        )
        self._removed = re.compile(
            rf"^(?:{_alts(lx.verbs_removed)}) (?P<obj>.+?)"
            rf"(?: that (?:was|were))? (?:from|in) the (?P<sr>.+)$"
        )
        self._added = re.compile(
            rf"^(?:{_alts(lx.verbs_added)}) (?P<obj>.+?) (?:to|into|in|on|onto) the (?P<dest>.+)$"
        )

    def _room(self, phrase: str) -> Optional[str]:
        phrase = _strip_article(phrase)
        return phrase if phrase in self.lexicon.rooms else None

    def _object(self, phrase: str) -> Optional[str]:
        phrase = _strip_article(phrase)
        return phrase if phrase in self.lexicon.objects else None

    def _destination(self, phrase: str) -> tuple[Optional[str], Optional[str]]:
        room = self._room(phrase)
        if room is not None:
            return None, room
        m = re.match(r"^(?P<sup>.+?) in the (?P<room>.+)$", _strip_article(phrase))
        if m:
            room = self._room(m.group("room"))
            sup = _strip_article(m.group("sup"))
            if room is not None and (sup in self.lexicon.supports or sup in self.lexicon.objects):
                return sup, room
        return None, None

    def __call__(self, text: str) -> StatementParse:
        cleaned = _clean(text)
        if not cleaned:
            return StatementParse.failed(text)

        m = self._moved.match(cleaned)
        if m:
            obj = self._object(m.group("obj"))
            sr = self._room(m.group("sr"))
            sup, tr = self._destination(m.group("dest"))
            if obj and sr and tr:
                return StatementParse(
                    action=UpdateAction.MOVED,
                    target_object=obj,
                    source_room=sr,
                    target_room=tr,
                    support_object=sup,
                    confidence=Confidence.EXACT,
                    text=text,
                )

        m = self._removed.match(cleaned)
        if m:
            obj = self._object(m.group("obj"))
            sr = self._room(m.group("sr"))
            if obj and sr:
                return StatementParse(
                    action=UpdateAction.REMOVED,
                    target_object=obj,
                    source_room=sr,
                    confidence=Confidence.EXACT,
                    text=text,
                )

        m = self._added.match(cleaned)
        if m:
            obj = self._object(m.group("obj"))
            sup, tr = self._destination(m.group("dest"))
            if obj and tr:
                return StatementParse(
                    action=UpdateAction.ADDED,
                    target_object=obj,
                    target_room=tr,
                    support_object=sup,
                    confidence=Confidence.EXACT,
                    text=text,
                )

        return self._fallback(cleaned, text)

    def _fallback(self, cleaned: str, original: str) -> StatementParse:
        lx = self.lexicon
        padded = f" {cleaned} "

        def first_verb(verbs: list[str]) -> Optional[int]:
            hits = [padded.find(f" {v} ") for v in verbs]
            hits = [h for h in hits if h >= 0]
            return min(hits) if hits else None

        found = [
            (pos, action)
            for action, pos in (
                (UpdateAction.REMOVED, first_verb(lx.verbs_removed)),
                (UpdateAction.MOVED, first_verb(lx.verbs_moved)),
                (UpdateAction.ADDED, first_verb(lx.verbs_added)),
            )
            if pos is not None
        ]
        if not found:
            return StatementParse.failed(original)
        action = min(found)[1]

        obj = None
        obj_hits = [(padded.find(f" {o} "), o) for o in lx.objects]
        obj_hits = [(p, o) for p, o in obj_hits if p >= 0]
        if obj_hits:
            obj = min(obj_hits)[1]
        if obj is None:
            return StatementParse.failed(original)

        sr = tr = None
        for room in lx.rooms:
            if re.search(rf"(?:from|out of) the {re.escape(room)}\b", cleaned):
                sr = room
            elif re.search(rf"(?:to|into|in|on|onto|at) the {re.escape(room)}\b", cleaned):
                tr = room
        if action is UpdateAction.REMOVED and sr is None:
            sr = tr
            tr = None
        needs = {
            UpdateAction.REMOVED: sr is not None,
            UpdateAction.ADDED: tr is not None,
            UpdateAction.MOVED: sr is not None and tr is not None,
        }
        if not needs[action]:
            return StatementParse.failed(original)
        return StatementParse(
            action=action,
            target_object=obj,
            source_room=sr,
            target_room=tr if action is not UpdateAction.REMOVED else None,
            confidence=Confidence.LEXICON,
            text=original,
        )


GRAMMAR = GrammarExtractor()
ORACLE = BranchGrammar()
LEX = GRAMMAR.lexicon
VERBS = LEX.verbs_removed + LEX.verbs_moved + LEX.verbs_added
OBJECTS = LEX.objects + LEX.supports + ["gizmo"]
ROOMS = LEX.rooms + ["garage"]
CONNECTIVES = [
    "from", "out of", "to", "into", "in", "on", "onto", "at", "that was", "that were",
    "the", "a", "my", "i", "we", "have", "just", "someone", "was", "because", "since", "so", "as",
]


def same_parse(text: str) -> StatementParse:
    """The extractor's parse of ``text``, checked field by field against the oracle's."""
    got = GRAMMAR(text)
    assert astuple(got) == astuple(ORACLE(text)), text
    return got


PREPOSITIONS = ["from", "out of", "to", "into", "in", "on", "onto", "at"]
# Words and phrases a scrambled statement is strung from.
PHRASES = (
    VERBS
    + [f"the {thing}" for thing in OBJECTS]
    + [f"{prep} the {room}" for prep in PREPOSITIONS for room in ROOMS]
    + CONNECTIVES
)


@st.composite
def template_sentence(draw):
    """A sentence in one of six shapes: the three templates, two rooms after
    the object, the keyword order the templates miss, and no room at all."""

    def one(words):
        return draw(st.sampled_from(words))

    # a verb of the template's action half the time, of any action otherwise
    moved, removed, added, verb = (
        one([one(words), one(VERBS)])
        for words in (LEX.verbs_moved, LEX.verbs_removed, LEX.verbs_added, VERBS)
    )
    thing, room, prep = one(OBJECTS), one(ROOMS), one(PREPOSITIONS)
    dest = one([f"the {one(ROOMS)}", f"the {one(OBJECTS)} in the {one(ROOMS)}"])
    body = one([
        f"{moved} the {thing} from the {room} {one(['to', 'into', 'onto', prep])} {dest}",
        f"{removed} the {thing}{one(['', ' that was'])} {one(['from', 'in', prep])} the {room}",
        f"{added} the {thing} {one(['to', 'into', 'in', 'on', 'onto', prep])} {dest}",
        f"{verb} the {thing} {prep} the {room} {one(PREPOSITIONS)} the {one(ROOMS)}",
        f"the {thing} was {verb} {prep} the {room}",
        f"{verb} the {thing}",
    ])
    lead = one(["", "I ", "We have just ", "Someone ", "i also "])
    tail = one(["", ".", "!", " because it was old", " so that it dries"])
    return one([str, str.upper, str.title])(lead + body + tail)


@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(template_sentence())
def test_grammar_matches_the_branch_grammar_on_template_sentences(text):
    same_parse(text)


@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(st.lists(st.sampled_from(PHRASES), max_size=10).map(" ".join))
def test_grammar_matches_the_branch_grammar_on_scrambled_words(text):
    same_parse(text)


@pytest.mark.parametrize(
    "text, want",
    [
        # no template fits (the object phrase swallows "from the kitchen"),
        # so the keyword scan reads the add and keeps its source room
        ("I added the refrigerator from the kitchen to the living room",
         (UpdateAction.ADDED, "refrigerator", "kitchen", "living room", None, Confidence.LEXICON)),
        # "took" is also a verb of moving; the removal template reads "took away"
        ("I took away the cup from the kitchen",
         (UpdateAction.REMOVED, "cup", "kitchen", None, None, Confidence.EXACT)),
        ("I moved the tv remote from the living room to the bedroom",
         (UpdateAction.MOVED, "tv remote", "living room", "bedroom", None, Confidence.EXACT)),
        ("I moved the cup from the kitchen to the kitchen",
         (UpdateAction.MOVED, "cup", "kitchen", "kitchen", None, Confidence.EXACT)),
    ],
    ids=["added-with-source", "took-away", "two-word-object", "same-room-move"],
)
def test_pinned_parses_match_the_branch_grammar(text, want):
    assert astuple(same_parse(text))[:6] == want
