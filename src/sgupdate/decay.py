"""Short-term object permanence: decaying belief that an object stayed put.

Every dynamic object carries a decay rate; the probability that it is still
within a small radius of where it was last seen falls off as a scaled
logistic in elapsed time:

    p(elapsed) = 2 / (1 + exp(rate * elapsed))

A rate of zero models immovable objects (the probability stays pinned at 1),
and the probability crosses one half exactly at ``ln(3) / rate`` seconds.

The persistence model follows Toris & Azimi, "Temporal Persistence
Modeling for Object Search" (ICRA 2017). :func:`stale_targets` sweeps every
object of the graph once and computes a probability only when an object's
``(decay_rate, last_seen)`` differs from the one before it: a loaded graph
files its objects in id order, so the objects of one label sit next to each
other and, until they are seen again, share both. A run takes one report,
after its last frame.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from operator import attrgetter
from typing import NamedTuple

from .graph import SceneGraph, _norm_label
from .values import number, obj, text

__all__ = [
    "ClockSkew",
    "DecayTable",
    "persistence_probability",
    "lambda_for",
    "stale_targets",
    "StaleEntry",
    "StaleReport",
    "half_probability_time",
]

_UNIT_SCALES = {"1/hour": 1.0 / 3600.0, "1/second": 1.0}


class ClockSkew(ValueError):
    """``now`` precedes the object's last observation."""


def persistence_probability(decay_rate: float, now: float, last_seen: float) -> float:
    """Probability the object is still near its recorded pose.

    Strictly decreasing in elapsed time for positive rates, exactly 1 at
    zero elapsed time or zero rate. A non-finite ``now`` raises
    :class:`ValueError` (``-inf`` as :class:`ClockSkew`): a ``nan``
    probability would compare as never stale.
    """
    if decay_rate < 0.0:
        raise ValueError(f"decay_rate must be >= 0, got {decay_rate}")
    if now < last_seen:
        raise ClockSkew(f"now={now} precedes last_seen={last_seen}")
    x = decay_rate * (now - last_seen)
    if x <= 700.0:
        return 2.0 / (1.0 + math.exp(x))
    # x is nan or inf for a nan or infinite now; test it here, off the common path.
    if not math.isfinite(now):
        raise ValueError(f"now must be finite, got {now}")
    return 2.0 * math.exp(-x)  # exp overflow guard; the tail is numerically 2*exp(-x)


def half_probability_time(decay_rate: float) -> float:
    """Elapsed seconds at which the persistence probability reaches 1/2."""
    if decay_rate <= 0.0:
        raise ValueError("half-probability time is defined for positive rates only")
    return math.log(3.0) / decay_rate


@dataclass
class DecayTable:
    """Label-keyed decay rates (stored in 1/seconds) with a default."""

    default_rate: float
    anchors: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.anchors = {_norm_label(k): v for k, v in self.anchors.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "DecayTable":
        """The table a JSON document describes; errors name the bad key or label."""
        data = obj(data, "a decay table")
        # Shipped tables use per-hour numbers for readability; node fields
        # are per-second, so convert at load time.
        units = text(data.get("units", "1/second"), "units")
        scale = _UNIT_SCALES.get(units)
        if scale is None:
            raise ValueError(f"unsupported decay-table units {units!r}")
        anchors = obj(data.get("anchors", {}), "anchors")

        def rate(value, where: str) -> float:
            per_unit = number(value, where)
            if per_unit < 0.0:
                raise ValueError(f"{where} must be >= 0, got {value!r}")
            return per_unit * scale

        default_rate = rate(data.get("default"), "default")
        rates = {}
        for key, value in anchors.items():
            where, label = f"anchors[{key!r}]", _norm_label(key)
            if not label:
                raise ValueError(f"{where} must not be blank")
            if label in rates:
                raise ValueError(f"{where} repeats the label {label!r}")
            rates[label] = rate(value, where)
        return cls(default_rate=default_rate, anchors=rates)

    @classmethod
    def default(cls) -> "DecayTable":
        text = resources.files("sgupdate.data").joinpath("decay_table.json").read_text("utf-8")
        return cls.from_dict(json.loads(text))


def lambda_for(label: str, table: DecayTable) -> float:
    """Decay rate for a label: its anchor, else the table's default."""
    return table.anchors.get(_norm_label(label), table.default_rate)


class StaleEntry(NamedTuple):
    """One object below the threshold, with its node's own ``last_seen``."""

    object_id: str
    probability: float
    last_seen: float


@dataclass(frozen=True)
class StaleReport:
    """The attached dynamic objects below ``threshold`` at ``now``: ``entries``
    is a tuple of :class:`StaleEntry` sorted by ``(probability, object_id)``."""

    threshold: float
    now: float
    entries: tuple[StaleEntry, ...]

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "now": self.now,
            "entries": [
                {"object_id": e.object_id, "probability": e.probability, "last_seen": e.last_seen}
                for e in self.entries
            ],
        }


def stale_targets(graph: SceneGraph, now: float, threshold: float) -> StaleReport:
    """Attached dynamic objects whose persistence fell below ``threshold``.

    Entries come back sorted by ascending probability (ties by object id);
    immovable objects never qualify since their probability is exactly 1.
    A non-finite ``now`` raises :class:`ValueError`, even on a graph with no
    dynamic object, and the first attached dynamic object, in the graph's
    order, seen after ``now`` raises :class:`ClockSkew`.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie strictly between 0 and 1, got {threshold}")
    if not math.isfinite(now):
        raise ValueError(f"now must be finite, got {now}")
    entries = []
    rate_before = seen_before = p = None
    for oid, node in graph.objects.items():
        rate = node.decay_rate
        if rate > 0.0 and node.room is not None:
            seen = node.last_seen
            # Neighbours in id order often share a label's rate and last_seen.
            if seen != seen_before or rate != rate_before:
                p = persistence_probability(rate, now, seen)
                rate_before, seen_before = rate, seen
            if p < threshold:
                entries.append(StaleEntry(oid, p, seen))
    entries.sort(key=attrgetter("probability", "object_id"))
    return StaleReport(float(threshold), float(now), tuple(entries))
