"""Turn human statements about the house into update records.

Parsing is a deterministic pattern grammar over a closed lexicon: no network
calls, no learned models, identical output for identical input. Anything the
grammar cannot account for is returned as a failed parse rather than a
guess.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from enum import Enum
from importlib import resources
from typing import Optional

from .graph import _norm_label
from .records import Provenance, UpdateAction, UpdateRecord, validate
from .values import obj, texts

__all__ = [
    "Lexicon",
    "Confidence",
    "StatementParse",
    "parse_statement",
    "to_record",
    "ParseWasFailed",
    "GrammarExtractor",
]


class ParseWasFailed(ValueError):
    """A failed parse cannot be converted into an update record."""


class Confidence(str, Enum):
    EXACT = "exact"  # a full sentence template matched
    LEXICON = "lexicon"  # recovered by keyword scanning only
    FAILED = "failed"


@dataclass
class Lexicon:
    """Closed vocabularies the grammar is allowed to recognize."""

    verbs_removed: list[str]
    verbs_moved: list[str]
    verbs_added: list[str]
    rooms: list[str]
    objects: list[str]
    supports: list[str]

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            words = texts(getattr(self, name), name)
            normed = [_norm_label(w) for w in words]
            if "" in normed:  # a blank word would match anywhere in a pattern
                i = normed.index("")
                raise ValueError(f"{name}[{i}] must not be blank, got {words[i]!r}")
            setattr(self, name, normed)

    @classmethod
    def from_dict(cls, data: dict) -> "Lexicon":
        """The word lists of a JSON document; errors name the bad list or word."""
        data = obj(data, "a lexicon")
        return cls(**{f.name: data.get(f.name, []) for f in fields(cls)})

    @classmethod
    def default(cls) -> "Lexicon":
        text = resources.files("sgupdate.data").joinpath("lexicon.json").read_text("utf-8")
        return cls.from_dict(json.loads(text))


@dataclass
class StatementParse:
    action: Optional[UpdateAction] = None
    target_object: Optional[str] = None
    source_room: Optional[str] = None
    target_room: Optional[str] = None
    support_object: Optional[str] = None
    confidence: Confidence = Confidence.FAILED
    text: str = ""

    @classmethod
    def failed(cls, text: str) -> "StatementParse":
        return cls(confidence=Confidence.FAILED, text=text)


_ARTICLES = ("the ", "a ", "an ", "my ", "our ", "that ", "this ")
# Trailing subordinate clauses carry rationale, not content; cut them off.
_SUBORDINATE = re.compile(r"\s+(?:because|since|so that|so|as)\s+.*$")
_LEADING = re.compile(r"^(?:i|we|someone|somebody)\s+(?:have\s+|just\s+|also\s+|already\s+)*")


def _strip_article(phrase: str) -> str:
    phrase = phrase.strip()
    for art in _ARTICLES:
        if phrase.startswith(art):
            return phrase[len(art):].strip()
    return phrase


def _clean(text: str) -> str:
    text = _norm_label(text)
    text = text.rstrip(".!?").strip()
    text = _SUBORDINATE.sub("", text)
    return _LEADING.sub("", text)


def _alts(verbs: list[str]) -> str:
    return "|".join(re.escape(v) for v in sorted(verbs, key=len, reverse=True))


class GrammarExtractor:
    """Sentence templates first, keyword scan fallback.

    Either way the parse is kept only when ``records.validate`` finds that it
    names everything its action needs; otherwise the next template is tried,
    and a keyword scan that falls short is a failed parse.
    """

    def __init__(self, lexicon: Optional[Lexicon] = None) -> None:
        self.lexicon = lexicon if lexicon is not None else Lexicon.default()
        lx = self.lexicon
        # The templates, tried in this order: ``src`` is a room, ``dest`` a
        # room or a support in one.
        shapes = (
            (UpdateAction.MOVED, lx.verbs_moved,
             " from the (?P<src>.+?) (?:to|into|onto) the (?P<dest>.+)"),
            (UpdateAction.REMOVED, lx.verbs_removed,
             "(?: that (?:was|were))? (?:from|in) the (?P<src>.+)"),
            (UpdateAction.ADDED, lx.verbs_added, " (?:to|into|in|on|onto) the (?P<dest>.+)"),
        )
        self._templates = [
            (action, re.compile(rf"^(?:{_alts(verbs)}) (?P<obj>.+?){rest}$"))
            for action, verbs, rest in shapes
        ]
        self._verbs = [(verb, action) for action, verbs, _ in shapes for verb in verbs]

    def _room(self, phrase: str) -> Optional[str]:
        phrase = _strip_article(phrase)
        return phrase if phrase in self.lexicon.rooms else None

    def _object(self, phrase: str) -> Optional[str]:
        phrase = _strip_article(phrase)
        return phrase if phrase in self.lexicon.objects else None

    def _destination(self, phrase: str) -> tuple[Optional[str], Optional[str]]:
        """Split 'table in the living room' into (support, room)."""
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
        for action, template in self._templates:
            m = template.match(cleaned)
            if m is None:
                continue
            found = m.groupdict()
            support, target = self._destination(found["dest"]) if "dest" in found else (None, None)
            parse = _complete(
                action=action,
                target_object=self._object(found["obj"]),
                source_room=self._room(found["src"]) if "src" in found else None,
                target_room=target,
                support_object=support,
                confidence=Confidence.EXACT,
                text=text,
            )
            if parse.confidence is not Confidence.FAILED:
                return parse
        return self._fallback(cleaned, text)

    def _fallback(self, cleaned: str, original: str) -> StatementParse:
        """Keyword scan when no template fits; lower confidence, same fields."""
        lx = self.lexicon
        padded = f" {cleaned} "
        action = _first(padded, self._verbs)
        if action is None:
            return StatementParse.failed(original)
        sr = tr = None
        for room in lx.rooms:
            if re.search(rf"(?:from|out of) the {re.escape(room)}\b", cleaned):
                sr = room
            elif re.search(rf"(?:to|into|in|on|onto|at) the {re.escape(room)}\b", cleaned):
                tr = room
        if action is UpdateAction.REMOVED:
            # "ate the banana in the kitchen" reads as a source room
            sr, tr = (tr if sr is None else sr), None
        return _complete(
            action=action,
            target_object=_first(padded, [(o, o) for o in lx.objects]),
            source_room=sr,
            target_room=tr,
            confidence=Confidence.LEXICON,
            text=original,
        )


def _first(padded: str, words: list[tuple[str, object]]):
    """The value paired with the earliest whole word of ``words`` in ``padded``
    (ties go to the smaller value), or None when none occurs."""
    hits = [(at, value) for w, value in words if (at := padded.find(f" {w} ")) >= 0]
    return min(hits)[1] if hits else None


def _complete(**fields) -> StatementParse:
    """The parse of ``fields`` when ``records.validate`` finds that it names
    everything its action needs, else a failed parse of the same text."""
    parse = StatementParse(**fields)
    return StatementParse.failed(parse.text) if validate(parse) else parse


def parse_statement(text: str, lexicon: Optional[Lexicon] = None) -> StatementParse:
    """Parse one statement with the default grammar. Total and deterministic."""
    return GrammarExtractor(lexicon)(text)


def to_record(parse: StatementParse, now: float) -> UpdateRecord:
    """Convert a successful parse into a human-provenance update record.

    Statements carry topology only — never a pose or box; geometry arrives
    later from perception.
    """
    if parse.confidence is Confidence.FAILED or parse.action is None:
        raise ParseWasFailed(f"cannot build a record from a failed parse: {parse.text!r}")
    return UpdateRecord(
        action=parse.action,
        target_object=parse.target_object or "",
        source_room=parse.source_room,
        target_room=parse.target_room,
        support_object=parse.support_object,
        provenance=Provenance.HUMAN,
        issued_at=float(now),
    )
