"""Span tracing from outside the program, for the benchmark's traced run.

:class:`Tracer` replaces exactly the module attributes and methods the
harness calls with wrappers that record one span per call (name, start,
end, parent span, episode) and a few counts taken from the call's arguments
and result. Nothing inside ``src/`` changes; :meth:`Tracer.uninstall` puts
the originals back. Per-object helpers (``point_in_frustum``,
``pose_distance``, ``semantic_match``) are deliberately left unwrapped: they
run thousands of times per frame, so wrapping them would swamp the
measurement, and their cost already shows in their callers' self time.
"""
from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    episode: int

    def to_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "episode": self.episode}


# Counts a span adds to its episode, from (args, kwargs, result).
Hook = Callable[[Counter, tuple, dict, object], None]


def _count_detect(c: Counter, args, kwargs, result) -> None:
    c["simworld.detections"] += len(result)
    c["simworld.detect_scanned"] += len(args[0].graph.objects)


def _count_visible(c: Counter, args, kwargs, result) -> None:
    c["perception.visible"] += len(result)
    c["perception.visible_scanned"] += len(args[0].objects)


def _count_associate(c: Counter, args, kwargs, result) -> None:
    c["perception.candidate_pairs"] += len(args[0]) * len(args[1])
    for bucket in ("static_pairs", "moved_pairs", "remove_candidates", "add_candidates"):
        c[f"perception.{bucket}"] += len(getattr(result, bucket))


def _count_confirm(c: Counter, args, kwargs, result) -> None:
    c["perception.records_emitted"] += len(result.records)
    c["perception.touches"] += len(result.touched)


def _count_apply(c: Counter, args, kwargs, result) -> None:
    c[f"records.{result.status.value}"] += 1


def _count_parse(c: Counter, args, kwargs, result) -> None:
    c["human.parse_failures"] += result.confidence.value == "failed"


def _count_stale(c: Counter, args, kwargs, result) -> None:
    c["decay.stale_entries"] += len(result.entries)


def _count_serialize(c: Counter, args, kwargs, result) -> None:
    c["graph.serialize_bytes"] += len(result)


def _targets():
    """(owner, attribute, span name, hook) for every wrapped call site."""
    from sgupdate import action, graph, harness, human, records, simworld

    return [
        (harness, "expected_visible", "perception.expected_visible", _count_visible),
        (harness, "associate", "perception.associate", _count_associate),
        (harness, "confirm", "perception.confirm", _count_confirm),
        (harness, "stale_targets", "decay.stale_targets", _count_stale),
        (harness, "deserialize", "graph.deserialize", None),
        (harness, "derive_ground_truth", "harness.derive_ground_truth", None),
        (harness, "score", "harness.score", None),
        (harness, "replay_runlog", "harness.replay_runlog", None),
        (records, "apply", "records.apply", _count_apply),
        (simworld.World, "step", "simworld.step", None),
        (simworld.World, "synthetic_detect", "simworld.synthetic_detect", _count_detect),
        (graph.SceneGraph, "copy", "graph.copy", None),
        (graph.SceneGraph, "find", "graph.find", None),
        (graph.SceneGraph, "assign_room", "graph.assign_room", None),
        (graph.SceneGraph, "room_by_label", "graph.room_by_label", None),
        (graph, "serialize", "graph.serialize", _count_serialize),
        (human.GrammarExtractor, "__call__", "human.parse", _count_parse),
        (action.PickPlaceTask, "pick", "action.pick", None),
        (action.PickPlaceTask, "place", "action.place", None),
    ]


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.episode = 0
        self._paused = False
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def span(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        """``fn`` wrapped so every call records a span named ``name``."""

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, 0.0, 0.0, parent, self.episode))
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index].start, self.spans[index].end = start, end
            if hook is not None:
                hook(self.counts[self.episode], args, kwargs, result)
            return result

        return traced

    def call(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        return self.span(name, fn)(*args)

    @contextmanager
    def paused(self):
        """Calls made inside the block record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def install(self) -> None:
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, hook))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(s.to_dict(i)) + "\n")

    # ------------------------------------------------------------------
    # analysis

    def self_times(self) -> dict[int, Counter]:
        """Per episode: (root span name, span name) -> duration minus child-covered time."""
        child = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, s in enumerate(self.spans):
            if s.parent is not None:  # parents precede their children
                child[s.parent] += s.end - s.start
                root[i] = root[s.parent]
        out: dict[int, Counter] = defaultdict(Counter)
        for i, s in enumerate(self.spans):
            out[s.episode][(self.spans[root[i]].name, s.name)] += s.end - s.start - child[i]
        return out

    def calls(self) -> dict[int, Counter]:
        out: dict[int, Counter] = defaultdict(Counter)
        for s in self.spans:
            out[s.episode][s.name] += 1
        return out

    def frame_ms(self) -> list[float]:
        """Each frame from its ``synthetic_detect`` start to its ``stale_targets`` end."""
        frames, start = [], None
        for s in self.spans:
            if s.name == "simworld.synthetic_detect":
                start = s.start
            elif s.name == "decay.stale_targets" and start is not None:
                frames.append((s.end - start) * 1e3)
                start = None
        return frames


def median_over(per_episode: dict[int, Counter], key) -> float:
    """Median over episodes of one counter entry (0 where an episode lacks it)."""
    return statistics.median(c[key] for c in per_episode.values())
