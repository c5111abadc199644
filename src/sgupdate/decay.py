"""Short-term object permanence: decaying belief that an object stayed put.

Every dynamic object carries a decay rate; the probability that it is still
within a small radius of where it was last seen falls off as a scaled
logistic in elapsed time:

    p(elapsed) = 2 / (1 + exp(rate * elapsed))

A rate of zero models immovable objects (the probability stays pinned at 1),
and the probability crosses one half exactly at ``ln(3) / rate`` seconds.

The probability falls below a threshold ``θ`` exactly when ``rate * elapsed >
ln(2/θ - 1)``, so each dynamic object has one crossing time, which moves only
when a primitive files a new node for it (after Toris & Azimi, "Temporal
Persistence Modeling for Object Search", ICRA 2017). :func:`stale_targets`
therefore answers from an index it keeps on the graph
(``SceneGraph.stale_index``): the objects already stale plus the others,
queued by crossing time and kept current from the ids the primitives report.
A query looks at the objects written or crossed since the last query and at
the groups already stale, not at every object, and gives the report a sweep
over every object would.

The probability depends only on the rate and on ``last_seen``, so the index
keeps the stale objects in groups that share both: a frame's touches, or a
whole label of a freshly loaded house. A report costs one probability per
group and holds each group's nodes as one run; it builds its per-object
:class:`StaleEntry` tuple only when it is first read.
"""
from __future__ import annotations

import heapq
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

        return cls(
            default_rate=rate(data.get("default"), "default"),
            anchors={k: rate(v, f"anchors[{k!r}]") for k, v in anchors.items()},
        )

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
    first query and rebuilt when the threshold changes or ``now`` goes back.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie strictly between 0 and 1, got {threshold}")
    if not math.isfinite(now):
        raise ValueError(f"now must be finite, got {now}")
    index = graph.stale_index
    if index is None or index.threshold != threshold or now < index.now or index.skewed(graph, now):
        # After a skewed write the build raises ClockSkew for the first
        # skewed object in the graph's order, as the sweep does.
        index = graph.stale_index = _StaleIndex(graph, now, threshold)
    return index.report(graph, now)


def _clock_skew(now: float, last_seen: float) -> ClockSkew:
    return ClockSkew(f"now={now} precedes last_seen={last_seen}")


# Absolute slack, in units of rate * elapsed, by which the index looks at a
# node ahead of its exact crossing. Rounding in the crossing time and in
# persistence_probability moves the crossing by a few 1e-16 of (1 + ln(2/θ-1)),
# so a node the index has not yet looked at is never below the threshold.
_SLACK = 1e-9


class _StaleIndex:
    """What :func:`stale_targets` knows of one graph, as of its last query.

    Every attached dynamic node is either stale, in ``stale`` (id to node)
    and in the group of ``groups`` under its ``(decay_rate, last_seen)``, or
    queued in ``due`` under ``last_seen + lead / decay_rate``, a little before
    the time its probability falls below ``threshold``; ``heap`` holds the
    keys of ``due``. A node with a nan ``last_seen`` is never stale and is in
    neither. ``written`` holds the ids the graph's primitives wrote since the
    last query: every primitive that files a new node under an id or drops
    the one filed there reports the id, so once a query has read ``written``,
    ``stale`` holds only nodes the graph still files, with no scan for it.
    ``due`` may still hold replaced nodes; one counts only while the graph
    files that very node under its id.

    The nodes of a group share their probability, so a report computes it
    once per group and keeps the group's nodes in id order (``ordered``, kept
    until the group changes) as one run. Nodes are never edited in place, so
    a report that holds them stays the snapshot of its query. The queue only
    schedules when to look at a node; membership is always
    ``persistence_probability(...) < threshold``, so the report is the
    sweep's exactly. Nodes not written since the last query were seen no
    later than it, and time only moves forward here, so the written ones are
    the only ones that can be skewed.
    """

    __slots__ = (
        "threshold", "now", "lead", "stale", "groups", "ordered", "due", "heap", "queued", "written"
    )

    def __init__(self, graph: SceneGraph, now: float, threshold: float) -> None:
        c = math.log(2.0 / threshold - 1.0)  # p < threshold iff rate * elapsed > c
        self.threshold, self.now = threshold, now
        self.lead = lead = max(c - _SLACK * (1.0 + c), 0.0)
        self.stale: dict[str, ObjectNode] = {}
        # (decay_rate, last_seen) -> id -> node, and the group's nodes in id order.
        self.groups: dict[tuple[float, float], dict[str, ObjectNode]] = {}
        self.ordered: dict[tuple[float, float], tuple[ObjectNode, ...]] = {}
        # Nodes that share last_seen and decay rate share a key: a frame's
        # touches, or a whole label of a freshly loaded house.
        self.due: dict[float, list[ObjectNode]] = {}
        self.written: set[str] = set()
        due = self.due
        # Each node is filed as report() files a written one, after the skew check.
        for node in graph.objects.values():
            rate = node.decay_rate
            if rate > 0.0 and node.attached:
                seen = node.last_seen
                if seen > now:
                    raise _clock_skew(now, seen)
                at = seen + lead / rate
                if at > now:
                    try:
                        due[at].append(node)
                    except KeyError:
                        due[at] = [node]
                elif at <= now:  # neither holds for a nan last_seen
                    self._file(node)
        self.heap = list(due)
        heapq.heapify(self.heap)
        self.queued = sum(map(len, due.values()))  # replaced nodes included, once queued

    def _compact(self, objects: dict[str, ObjectNode]) -> None:
        """Drop the replaced nodes from ``due``: they pile up when the same
        objects are written over and over long before their crossing."""
        due = {}
        for at, queue in self.due.items():
            live = [node for node in queue if objects.get(node.id) is node]
            if live:
                due[at] = live
        self.due, self.heap = due, list(due)
        heapq.heapify(self.heap)
        self.queued = sum(map(len, due.values()))

    def _queue(self, at: float, nodes: list[ObjectNode]) -> None:
        queue = self.due.get(at)
        if queue is None:
            self.due[at] = nodes
            heapq.heappush(self.heap, at)
        else:
            queue.extend(nodes)
        self.queued += len(nodes)

    def _file(self, node: ObjectNode) -> None:
        """Add a stale node to ``stale`` and to its group."""
        key = (node.decay_rate, node.last_seen)
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = {}
        else:
            self.ordered.pop(key, None)
        group[node.id] = node
        self.stale[node.id] = node

    def _unfile(self, oid: str) -> None:
        """Drop the stale node filed under ``oid``."""
        node = self.stale.pop(oid)
        key = (node.decay_rate, node.last_seen)
        group = self.groups[key]
        del group[oid]
        self.ordered.pop(key, None)
        if not group:
            del self.groups[key]

    def skewed(self, graph: SceneGraph, now: float) -> bool:
        """Whether a node written since the last query is attached, dynamic and seen after ``now``."""
        objects = graph.objects
        for oid in self.written:
            node = objects.get(oid)
            if node is not None and node.attached and node.decay_rate > 0.0 and node.last_seen > now:
                return True
        return False

    def report(self, graph: SceneGraph, now: float) -> StaleReport:
        """The staleness report at ``now``, no earlier than the last query."""
        objects, stale, due, heap, lead = graph.objects, self.stale, self.due, self.heap, self.lead
        for oid in self.written:
            if oid in stale:
                self._unfile(oid)
            node = objects.get(oid)
            if node is not None and node.attached and node.decay_rate > 0.0:
                at = node.last_seen + lead / node.decay_rate
                if at > now:
                    self._queue(at, [node])
                elif at <= now:
                    self._file(node)
        self.written.clear()
        while heap and heap[0] <= now:
            queue = due.pop(heapq.heappop(heap))
            self.queued -= len(queue)
            for node in queue:
                if objects.get(node.id) is node:
                    self._file(node)
        threshold, groups, ordered = self.threshold, self.groups, self.ordered
        runs, dropped = [], []
        for key, group in groups.items():
            rate, seen = key
            p = persistence_probability(rate, now, seen)
            if p < threshold:
                nodes = ordered.get(key)
                if nodes is None:
                    nodes = ordered[key] = tuple(group[oid] for oid in sorted(group))
                runs.append((p, nodes))
            else:  # looked at within the slack of its crossing: look again next time
                dropped.append(key)
        for key in dropped:
            group = groups.pop(key)
            ordered.pop(key, None)
            for oid in group:
                del stale[oid]
            self._queue(key[1] + lead / key[0], list(group.values()))
        self.now = now
        if self.queued > 2 * len(objects) + 64:
            self._compact(objects)
        return StaleReport._of_runs(float(threshold), float(now), runs)
