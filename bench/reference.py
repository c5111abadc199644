"""A fixed reference workload that tracks the host's speed during a run.

The benchmark's host is a shared two-CPU virtual machine. Its speed for one
process flips between about one and two times from millisecond to
millisecond, in proportions that drift from minute to minute, so two runs of
the same code minutes apart differ by far more than any regression worth
catching. :class:`HostClock` runs :class:`Reference`, a pure-Python workload
that never changes and never calls the program, between the timed phases of
a run, so that the reference takes a fixed share of the run's time and sees
the same mix of fast and slow moments as the phases do. A phase's
host-corrected time is its measured time times ``REFERENCE_S`` over the
reference's mean time in the same run: the time it would have taken on a
host where one reference pass takes ``REFERENCE_S``. No change to the
program moves the reference, so a slower program still reads slower.

The reference imitates the program's kind of work: a view-cone scan over
20,000 small dataclass objects, grouping the visible ones by room into
dicts, and a JSON round trip of the result.
"""
from __future__ import annotations

import gc
import json
import math
import random
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

# One reference pass in seconds on the quiet moments of a 2-vCPU Intel Xeon
# virtual machine (CPython 3.11): the unit host-corrected times are given in.
REFERENCE_S = 0.011
# The reference's share of the timed phases' time, interleaved between phases.
SHARE = 0.15


@dataclass
class _Thing:
    id: str
    label: str
    room: str
    position: tuple
    extent: tuple


class Reference:
    """The fixed workload; its inputs come from a constant seed."""

    def __init__(self, count: int = 20_000) -> None:
        rng = random.Random(0)
        labels = [f"label{i}" for i in range(60)]
        self.things = [
            _Thing(f"o{i}", rng.choice(labels), f"r{i // 50}",
                   (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 3)),
                   (rng.uniform(0.05, 1), rng.uniform(0.05, 1), rng.uniform(0.05, 1)))
            for i in range(count)
        ]
        self.by_id = {thing.id: thing for thing in self.things}

    def run(self) -> int:
        cx, cy, cz = 50.0, 50.0, 1.0
        seen = []
        for thing in self.things:
            x, y, z = thing.position[0] - cx, thing.position[1] - cy, thing.position[2] - cz
            d = math.sqrt(x * x + y * y + z * z)
            if 0.2 < d < 20.0 and abs(math.atan2(y, x)) < 1.1 and abs(math.atan2(z, d)) < 0.85:
                seen.append(thing.id)
        rooms: dict[str, list] = {}
        for thing_id in seen:
            thing = self.by_id[thing_id]
            rooms.setdefault(thing.room, []).append(
                {"id": thing.id, "label": thing.label, "t": [round(v, 3) for v in thing.position]})
        return len(json.loads(json.dumps(rooms, sort_keys=True)))

    def sample(self) -> float:
        """Seconds for one pass, with the collector off so the program's heap does not count."""
        gc.disable()
        try:
            t = perf_counter()
            self.run()
            return perf_counter() - t
        finally:
            gc.enable()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostClock:
    """Interleaves reference passes with timed phases and converts their times."""

    def __init__(self, samples: list[float]) -> None:
        before = peak_rss_mb()
        self.reference = Reference()
        self.reference.sample()  # warm-up
        # Memory the reference holds all run, left out of the program's peak. Built
        # first in a fresh process, it raises the peak by what it holds.
        self.resident_mb = peak_rss_mb() - before
        # Keep the reference's objects out of the program's garbage collections
        # (collecting first, so that no garbage is frozen with them).
        gc.collect()
        gc.freeze()
        self.samples = samples
        self.timed = 0.0
        self.spent = 0.0

    def after(self, elapsed: float) -> None:
        """Called after each timed phase: keep the reference at SHARE of the timed time."""
        self.timed += elapsed
        while self.spent < SHARE * self.timed:
            seconds = self.reference.sample()
            self.samples.append(seconds)
            self.spent += seconds


def scale(samples: list[float]) -> float:
    """Factor from measured to host-corrected seconds for one run's reference samples."""
    return REFERENCE_S / statistics.fmean(samples)
