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
from .records import Provenance, UpdateAction, UpdateRecord
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
            setattr(self, name, [_norm_label(w) for w in texts(getattr(self, name), name)])

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
    """Sentence templates first, keyword scan fallback."""

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
        """Keyword scan when no template fits; lower confidence, same fields."""
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
            sr = tr  # "ate the banana in the kitchen" reads as a source room
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
