"""Short-term object permanence: decaying belief that an object stayed put.

Every dynamic object carries a decay rate; the probability that it is still
within a small radius of where it was last seen falls off as a scaled
logistic in elapsed time:

    p(elapsed) = 2 / (1 + exp(rate * elapsed))

A rate of zero models immovable objects (the probability stays pinned at 1),
and the probability crosses one half exactly at ``ln(3) / rate`` seconds.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

from .graph import SceneGraph, _norm_label

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

_SECONDS_PER_HOUR = 3600.0


class ClockSkew(ValueError):
    """``now`` precedes the object's last observation."""


def persistence_probability(decay_rate: float, now: float, last_seen: float) -> float:
    """Probability the object is still near its recorded pose.

    Strictly decreasing in elapsed time for positive rates, exactly 1 at
    zero elapsed time or zero rate.
    """
    if decay_rate < 0.0:
        raise ValueError(f"decay_rate must be >= 0, got {decay_rate}")
    if now < last_seen:
        raise ClockSkew(f"now={now} precedes last_seen={last_seen}")
    x = decay_rate * (now - last_seen)
    if x > 700.0:  # exp overflow guard; the tail is numerically 2*exp(-x)
        return 2.0 * math.exp(-x)
    return 2.0 / (1.0 + math.exp(x))


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
        self.anchors = {_norm_label(k): float(v) for k, v in self.anchors.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "DecayTable":
        # Shipped tables use per-hour numbers for readability; node fields
        # are per-second, so convert at load time.
        units = data.get("units", "1/second")
        if units == "1/hour":
            scale = 1.0 / _SECONDS_PER_HOUR
        elif units == "1/second":
            scale = 1.0
        else:
            raise ValueError(f"unsupported decay-table units {units!r}")
        return cls(
            default_rate=float(data["default"]) * scale,
            anchors={k: float(v) * scale for k, v in data.get("anchors", {}).items()},
        )

    @classmethod
    def load(cls, path) -> "DecayTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def default(cls) -> "DecayTable":
        text = resources.files("sgupdate.data").joinpath("decay_table.json").read_text("utf-8")
        return cls.from_dict(json.loads(text))


def lambda_for(label: str, table: DecayTable) -> float:
    """Decay rate for a label: its anchor, else the table's default."""
    return table.anchors.get(_norm_label(label), table.default_rate)


@dataclass(frozen=True)
class StaleEntry:
    object_id: str
    probability: float
    last_seen: float


@dataclass(frozen=True)
class StaleReport:
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
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie strictly between 0 and 1, got {threshold}")
    entries = []
    for oid, node in graph.objects.items():
        if not node.attached or node.decay_rate <= 0.0:
            continue
        p = persistence_probability(node.decay_rate, now, node.last_seen)
        if p < threshold:
            entries.append(StaleEntry(object_id=oid, probability=p, last_seen=node.last_seen))
    entries.sort(key=lambda e: (e.probability, e.object_id))
    return StaleReport(threshold=float(threshold), now=float(now), entries=tuple(entries))
