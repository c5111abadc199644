"""Short-term object permanence: decaying belief that an object stayed put.

Every dynamic object carries a decay rate; the probability that it is still
within a small radius of where it was last seen falls off as a scaled
logistic in elapsed time:

    p(elapsed) = 2 / (1 + exp(rate * elapsed))

A rate of zero models immovable objects (the probability stays pinned at 1),
and the probability crosses one half exactly at ``ln(3) / rate`` seconds.

The probability depends only on the rate and on ``last_seen`` (after Toris
& Azimi, "Temporal Persistence Modeling for Object Search", ICRA 2017), so
:func:`stale_targets` answers from an index it keeps on the graph
(``SceneGraph.stale_index``): the attached dynamic objects grouped by
``(decay_rate, last_seen)`` and kept current from the ids the primitives
report. The objects of a freshly loaded house that share a rate form one
group, and so do a frame's touches that share one. A query computes one
probability per group, not per object, and gives the report a sweep over
every object would; the report holds each stale group's nodes as one run
and builds its per-object :class:`StaleEntry` tuple only when it is first
read. The groups do not depend on the threshold or on the query's time, so
one index serves every query. A graph in which every object has its own
``last_seen`` would cost one probability per object per query.
"""
from __future__ import annotations

import json
import math
from dataclasses import FrozenInstanceError, dataclass, field
from importlib import resources
from operator import attrgetter
from typing import NamedTuple

from .graph import ObjectNode, SceneGraph, _norm_label
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
        raise _clock_skew(now, last_seen)
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
    """One object below the threshold, with its node's own ``last_seen``. A
    named tuple: the cheapest immutable record to build, and a report builds
    one per stale object only when its ``entries`` are first read."""

    object_id: str
    probability: float
    last_seen: float


class StaleReport:
    """The attached dynamic objects below ``threshold`` at ``now``.

    ``entries`` is a tuple of :class:`StaleEntry` sorted by ``(probability,
    object_id)``. ``StaleReport(threshold, now, entries)`` holds the entries
    it is given. A report from :func:`stale_targets` holds one run per
    ``(decay_rate, last_seen)`` group instead, the group's probability and
    its nodes in id order, and builds ``entries`` from them the first time
    they are read, so a report that is kept and never read costs one run per
    group, not one entry per object. Either kind compares, hashes, prints and
    serializes as its ``(threshold, now, entries)``, and neither can be
    assigned to.
    """

    __slots__ = ("threshold", "now", "_entries", "_runs")

    def __init__(self, threshold: float, now: float, entries: tuple[StaleEntry, ...]) -> None:
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "now", now)
        object.__setattr__(self, "_entries", entries)

    @classmethod
    def _of_runs(cls, threshold: float, now: float, runs: list) -> "StaleReport":
        """The report of ``runs``, ``(probability, nodes in id order)`` pairs."""
        report = cls(threshold, now, None)
        object.__setattr__(report, "_runs", runs)
        return report

    @property
    def entries(self) -> tuple[StaleEntry, ...]:
        if self._entries is None:
            entries = [StaleEntry(n.id, p, n.last_seen) for p, nodes in self._runs for n in nodes]
            # Each run is sorted already; the sort merges runs of equal probability by id.
            entries.sort(key=attrgetter("probability", "object_id"))
            object.__setattr__(self, "_entries", tuple(entries))
            object.__delattr__(self, "_runs")
        return self._entries

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return (self.threshold, self.now, self.entries)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:  # copy and pickle as the eager report
        return (type(self), self._fields())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(threshold={self.threshold!r}, now={self.now!r},"
            f" entries={self.entries!r})"
        )

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
    dynamic object, and an attached dynamic object seen after ``now`` raises
    :class:`ClockSkew`.

    The answer comes from the graph's :class:`_StaleIndex`, built by the
    first query and serving every later one, whatever its threshold or time.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie strictly between 0 and 1, got {threshold}")
    if not math.isfinite(now):
        raise ValueError(f"now must be finite, got {now}")
    index = graph.stale_index
    if index is None:
        index = graph.stale_index = _StaleIndex(graph)
    return index.report(graph, now, threshold)


def _clock_skew(now: float, last_seen: float) -> ClockSkew:
    return ClockSkew(f"now={now} precedes last_seen={last_seen}")


class _StaleIndex:
    """What :func:`stale_targets` knows of one graph: its attached dynamic
    nodes grouped by ``(decay_rate, last_seen)``.

    ``groups`` maps each key to the nodes filed under it. ``written`` holds
    the ids the graph's primitives wrote since the last query: every
    primitive that files a new node under an id or drops the one filed there
    reports the id, and a query first files the new node. A group may still
    hold replaced nodes; a node counts only while the graph files that very
    node under its id. Once the groups hold more than twice the graph's
    objects plus 64 nodes, a query drops the replaced ones.

    A group's nodes share their probability, so a query computes it once per
    group, and a group seen after ``now`` that holds a live node makes it
    raise the sweep's :class:`ClockSkew`. From the first query that finds a
    group stale, ``members`` keeps the group's live nodes by id (``tracked``
    holds the nodes of every such group by id), and ``runs`` its run of the
    report, those nodes in id order, until a write changes them. Nodes are
    never edited in place, so a report that holds a run stays the snapshot
    of its query. Nothing here depends on the threshold or on ``now``, so one
    index serves every query.
    """

    __slots__ = ("groups", "members", "tracked", "runs", "written")

    def __init__(self, graph: SceneGraph) -> None:
        self.groups: dict[tuple[float, float], list[ObjectNode]] = {}
        self.members: dict[tuple[float, float], dict[str, ObjectNode]] = {}
        self.tracked: dict[str, ObjectNode] = {}
        self.runs: dict[tuple[float, float], tuple[ObjectNode, ...]] = {}
        self.written: set[str] = set()
        groups = self.groups
        for node in graph.objects.values():
            if node.decay_rate > 0.0 and node.attached:
                try:
                    groups[node.decay_rate, node.last_seen].append(node)
                except KeyError:
                    groups[node.decay_rate, node.last_seen] = [node]

    def _fold(self, objects: dict[str, ObjectNode]) -> None:
        """File the nodes the primitives wrote since the last query."""
        groups, members, tracked, runs = self.groups, self.members, self.tracked, self.runs
        for oid in self.written:
            node = tracked.pop(oid, None)
            if node is not None:  # the node it replaces is in a group's members
                key = (node.decay_rate, node.last_seen)
                del members[key][oid]
                runs.pop(key, None)
            node = objects.get(oid)
            if node is not None and node.decay_rate > 0.0 and node.attached:
                key = (node.decay_rate, node.last_seen)
                try:
                    groups[key].append(node)
                except KeyError:
                    groups[key] = [node]
                live = members.get(key)
                if live is not None:
                    live[oid] = tracked[oid] = node
                    runs.pop(key, None)
        self.written.clear()
        if sum(map(len, groups.values())) > 2 * len(objects) + 64:
            self._compact(objects)

    def _compact(self, objects: dict[str, ObjectNode]) -> None:
        """Drop the replaced nodes: they pile up when the same objects are
        written over and over."""
        groups = {}
        for key, group in self.groups.items():
            live = [node for node in group if objects.get(node.id) is node]
            if live:
                groups[key] = live
            else:
                self.members.pop(key, None)
                self.runs.pop(key, None)
        self.groups = groups

    def report(self, graph: SceneGraph, now: float, threshold: float) -> StaleReport:
        """The staleness report at ``now`` for ``threshold``."""
        objects, members, runs = graph.objects, self.members, self.runs
        if self.written:
            self._fold(objects)
        out = []
        for key, group in self.groups.items():
            rate, seen = key
            if seen > now:
                if any(objects.get(node.id) is node for node in group):
                    raise _first_skew(graph, now)
                continue
            p = persistence_probability(rate, now, seen)
            if p < threshold:
                run = runs.get(key)
                if run is None:
                    live = members.get(key)
                    if live is None:
                        live = members[key] = {n.id: n for n in group if objects.get(n.id) is n}
                        self.tracked.update(live)
                    run = runs[key] = tuple(live[oid] for oid in sorted(live))
                if run:
                    out.append((p, run))
        return StaleReport._of_runs(float(threshold), float(now), out)


def _first_skew(graph: SceneGraph, now: float) -> ClockSkew:
    """The sweep's error: the first attached dynamic object, in the graph's
    order, seen after ``now``."""
    for node in graph.objects.values():
        if node.attached and node.decay_rate > 0.0 and node.last_seen > now:
            return _clock_skew(now, node.last_seen)
