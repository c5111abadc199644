"""Episode benchmark for sgupdate: end-to-end and per-layer numbers.

    python3 bench/run.py --workload {demo,house20k,clutter} --seed N --seconds S --trace {0,1}

A run generates its workload from the seed (``bench/generate.py``, in a
child process so the generator's memory is not counted), validates it with
``harness.load_scenario`` and then, single-threaded in a closed loop, for
``--seconds`` seconds (at least three times) repeats:

* ``load_scenario`` on the generated files (``setup_s``);
* ``run_scenario`` on the loaded scenario (``episode_s``);
* ``serialize`` plus ``deserialize`` of the final graph (``save_load_s``);
* ``replay_runlog`` of the run log, up to ten times (``replay_s``);

and checks every repetition's outputs, stopping with status 1 and printing
no numbers at the first miss.

Before timing, one repetition runs untimed (but checked) to warm caches.
Each timing is reported as its mean over every repetition of the run (the
closed loop's inverse throughput), corrected for the host's speed during
the run (``bench/reference.py``: a fixed reference workload runs between
the phases), with the measured mean, median, highest percentile that has
ten samples above it and sample count printed beside it. On the shared
two-CPU virtual machine the benchmark was written on, measured medians of
identical house20k runs a few minutes apart spread by a quarter
(interquartile range over median), host-corrected means over ten seeds by
0.02 to 0.1 on every workload. The host's speed is bimodal from one millisecond to the next, so
the median of a short phase jumps between the two modes while the mean
moves with the share of time spent in each, which the reference measures.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
repeats untraced episodes for half the time, then wraps the program's layer
boundaries (``bench/spans.py``) for the other half and prints each layer's
self time (median per repetition), its counts and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results, with every sample, the commit, Python version and
CPU count, and the traced run's spans go to ``bench/results/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from generate import ROOT, WORKLOADS, require_program
from reference import HostClock, peak_rss_mb, scale

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

MIN_REPS = 3
# The end-to-end run replays each repetition's log until the replays took
# REPLAY_S, at most MAX_REPLAYS times: one replay is a short phase (about
# 0.1 s on house20k, 12 ms on clutter), so a run needs more of them than
# repetitions to average over the host's changing speed.
REPLAY_S = 0.3
MAX_REPLAYS = 10

# (name, unit): the end-to-end metrics, as declared in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("episode_s", "s"),
    ("save_load_s", "s"),
    ("replay_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_applied_share", "ratio"),
    ("score_success_share", "ratio"),
]

# (name, unit, better, what it should move): the traced run's per-layer metrics.
PER_LAYER = [
    ("harness.frame_ms_p50", "ms", "lower", "episode_s on house20k and clutter"),
    ("harness.frame_ms_p99", "ms", "lower", "episode_s on house20k and clutter"),
    ("harness.derive_ground_truth_s", "s", "lower", "episode_s on demo"),
    ("harness.score_s", "s", "lower", "episode_s on demo"),
    ("harness.replay_runlog_s", "s", "lower", "replay_s on every workload"),
    ("harness.frames", "count", "higher", "(workload size)"),
    ("harness.events", "count", "higher", "(workload size)"),
    ("graph.copy_s", "s", "lower", "episode_s on demo and house20k; setup_s everywhere"),
    ("graph.copy_calls", "count", "lower", "episode_s on demo and house20k; setup_s everywhere"),
    ("graph.serialize_s", "s", "lower", "save_load_s and setup_s on house20k"),
    ("graph.serialize_bytes", "bytes", "lower", "save_load_s on house20k"),
    ("graph.deserialize_s", "s", "lower", "save_load_s and setup_s on house20k"),
    ("graph.find_s", "s", "lower", "episode_s on clutter"),
    ("graph.find_calls", "count", "lower", "episode_s on clutter"),
    ("graph.assign_room_s", "s", "lower", "episode_s on clutter"),
    ("graph.assign_room_calls", "count", "lower", "episode_s on clutter"),
    ("graph.room_by_label_s", "s", "lower", "episode_s on clutter"),
    ("graph.room_by_label_calls", "count", "lower", "episode_s on clutter"),
    ("simworld.step_s", "s", "lower", "episode_s on house20k"),
    ("simworld.synthetic_detect_s", "s", "lower", "episode_s on house20k"),
    ("simworld.detections", "count", "higher", "episode_s on house20k"),
    ("simworld.detect_yield", "ratio", "higher", "episode_s on house20k"),
    ("perception.expected_visible_s", "s", "lower", "episode_s on house20k"),
    ("perception.visible_yield", "ratio", "higher", "episode_s on house20k"),
    ("perception.associate_s", "s", "lower", "episode_s on clutter"),
    ("perception.candidate_pairs", "count", "lower", "episode_s on clutter"),
    ("perception.static_pairs", "count", "higher", "episode_s on clutter"),
    ("perception.moved_pairs", "count", "lower", "episode_s on clutter"),
    ("perception.remove_candidates", "count", "lower", "episode_s on clutter"),
    ("perception.add_candidates", "count", "lower", "episode_s on clutter"),
    ("perception.confirm_s", "s", "lower", "episode_s on clutter"),
    ("perception.records_emitted", "count", "lower", "episode_s on clutter"),
    ("perception.touches", "count", "higher", "episode_s on clutter"),
    ("records.apply_s", "s", "lower", "episode_s, ops_applied_share, score_success_share on clutter"),
    ("records.apply_calls", "count", "lower", "episode_s on clutter"),
    ("records.applied", "count", "higher", "ops_applied_share and score_success_share on clutter"),
    ("records.rejected", "count", "lower", "ops_applied_share on clutter"),
    ("records.deferred", "count", "lower", "ops_applied_share on clutter"),
    ("human.parse_s", "s", "lower", "episode_s on clutter"),
    ("human.parse_calls", "count", "lower", "episode_s on clutter"),
    ("human.parse_failures", "count", "lower", "score_success_share on clutter"),
    ("decay.stale_targets_s", "s", "lower", "episode_s on house20k"),
    ("decay.stale_entries", "count", "lower", "episode_s on house20k"),
    ("action.pick_s", "s", "lower", "episode_s on demo"),
    ("action.place_s", "s", "lower", "episode_s on demo"),
    ("trace.overhead_s", "s", "lower", "(traced minus untraced episode_s)"),
]

DEMO_SCOREBOARD = {"Add": (1, 1), "Remove": (2, 3), "Move": (2, 3)}  # success, denominator


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports no numbers."""


# ----------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}", ordered[math.ceil(p / 100.0 * n) - 1]
    return None


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# output checks


def check_outputs(workload: str, result, data: bytes, replayed) -> None:
    """Checks on one repetition: invariants, replay and the demo scoreboard."""
    from sgupdate import graph

    problems = graph.check_invariants(result.graph)
    if problems:
        raise CheckFailed(f"final graph violates invariants: {problems}")
    if graph.serialize(replayed) != data:
        raise CheckFailed("replaying the run log does not rebuild the final graph")
    if workload == "demo":
        check_demo(result)


def check_demo(result) -> None:
    """The degraded demo's scoreboard: Add 100%, Remove and Move 66.67%, all misses RGB-D."""
    for row_name, (success, denominator) in DEMO_SCOREBOARD.items():
        row = result.metrics.rows[row_name]
        misses = {"Text": 0, "RGB-D": denominator - success, "Action": 0}
        if (row.success, row.denominator, row.failures) != (success, denominator, misses):
            raise CheckFailed(
                f"demo scoreboard row {row_name}: {row.success}/{row.denominator} "
                f"failures {row.failures}, want {success}/{denominator} failures {misses}"
            )


def check_demo_clean(path: Path) -> None:
    """With an ideal detector the demo converges to the true graph."""
    from sgupdate import graph, harness

    result = harness.run_scenario(harness.load_scenario(path))
    if not graph.graphs_equal(result.graph, result.world.graph, ignore_last_seen=True):
        raise CheckFailed("clean-detector demo did not converge to ground truth")


# ----------------------------------------------------------------------
# the measured loop


@dataclass
class Outputs:
    """What every repetition of a workload must reproduce exactly."""

    final_sha: str
    log_sha: str
    applied: int
    reports: int
    success: int
    denominator: int


@dataclass
class Samples:
    setup_s: list[float] = field(default_factory=list)
    episode_s: list[float] = field(default_factory=list)
    save_load_s: list[float] = field(default_factory=list)
    replay_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)  # HostClock's passes


class Episode:
    """One workload's scenario plus the checks every repetition must pass."""

    def __init__(self, workload: str, path: Path) -> None:
        from sgupdate import harness

        self.workload = workload
        self.path = path
        try:
            harness.load_scenario(path)
        except harness.ScenarioError as exc:
            raise CheckFailed(f"generated scenario does not load: {exc}") from exc
        self.expected: Outputs | None = None
        if workload == "demo":
            check_demo_clean(path.with_name("scenario_clean.json"))

    def repeat(self, samples: Samples, tracer=None, host=None, replay_s: float = 0.0) -> None:
        """One load, episode, save/load and replays, timed and then checked.

        The log is replayed once, or until the replays took ``replay_s``
        (at most MAX_REPLAYS times); every replay must give the same graph.

        With a tracer, each phase is a root span and the checks run untraced.
        With a host clock, reference passes run between the phases.
        """
        from sgupdate import graph, harness

        call = tracer.call if tracer else _call

        def timed(name: str, root: str, fn, *args):
            t = perf_counter()
            out = call(root, fn, *args)
            elapsed = perf_counter() - t
            getattr(samples, name).append(elapsed)
            if host:
                host.after(elapsed)
            return out

        gc.collect()
        scenario = timed("setup_s", "bench.load", harness.load_scenario, self.path)
        result = timed("episode_s", "bench.episode", harness.run_scenario, scenario)
        data = timed("save_load_s", "bench.save_load", _save_load, result.graph)
        replayed, count, spent = None, 0, 0.0
        while count == 0 or (count < MAX_REPLAYS and spent < replay_s):
            gc.collect()  # every replay starts from the same collector state
            again = timed("replay_s", "bench.replay", harness.replay_runlog,
                          scenario.initial, result.log)
            count, spent = count + 1, spent + samples.replay_s[-1]
            if replayed is None:
                replayed = again
            elif not graph.graphs_equal(again, replayed, tol=0.0):
                raise CheckFailed("replaying one run log twice gave different graphs")
        with tracer.paused() if tracer else nullcontext():
            self._check(result, data, replayed)

    def _check(self, result, data: bytes, replayed) -> None:
        check_outputs(self.workload, result, data, replayed)
        rows = result.metrics.rows.values()
        outputs = Outputs(
            final_sha=hashlib.sha256(data).hexdigest(),
            log_sha=hashlib.sha256(result.log.to_jsonl().encode()).hexdigest(),
            applied=sum(e.report.status.value == "applied" for e in result.log.entries),
            reports=len(result.log.entries),
            success=sum(r.success for r in rows),
            denominator=sum(r.denominator for r in rows),
        )
        if self.expected is None:
            self.expected = outputs
        elif outputs != self.expected:
            raise CheckFailed("a repetition produced different final-graph bytes or run log")


def _call(name: str, fn, *args):
    return fn(*args)


def _save_load(final) -> bytes:
    """The ``run --out`` write path and the ``query``/``stale``/``repl`` read path."""
    from sgupdate import graph, harness

    data = graph.serialize(final)
    harness.deserialize(data)
    return data


def measure(episode: Episode, seconds: float, samples: Samples, tracer=None, host=None,
            replay_s: float = 0.0) -> None:
    """Repeat the episode for ``seconds`` (at least MIN_REPS times)."""
    deadline = perf_counter() + seconds
    while len(samples.episode_s) < MIN_REPS or perf_counter() < deadline:
        if tracer:
            tracer.episode = len(samples.episode_s)
        episode.repeat(samples, tracer, host, replay_s)


# ----------------------------------------------------------------------
# reporting


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"commit": commit, "python": platform.python_version(), "cpus": os.cpu_count()}


def end_to_end(samples: Samples, outputs: Outputs, host: HostClock) -> tuple[dict, list[str]]:
    """The end-to-end metrics plus one human-readable line per metric.

    Timings are host-corrected means per repetition (``bench/reference.py``);
    the measured mean, median and tail are printed beside them.
    """
    metrics, lines = {}, []
    k = scale(samples.reference_s)
    lines.append(f"host clock: {len(samples.reference_s)} reference passes, mean "
                 f"{statistics.fmean(samples.reference_s):.6f} s; measured times x {k:.4f}")
    for name in ("setup_s", "episode_s", "save_load_s", "replay_s"):
        values = getattr(samples, name)
        mean = statistics.fmean(values)
        metrics[name] = mean * k
        t = tail(values)
        spread = f"{t[0]} {t[1]:.6f}" if t else "no percentile has 10 samples above it"
        lines.append(f"{name:<20} {metrics[name]:.6f} s   measured mean {mean:.6f}, median "
                     f"{statistics.median(values):.6f}, {spread}; n={len(values)}")
    peak = peak_rss_mb()
    metrics["peak_rss_mb"] = peak - host.resident_mb
    lines.append(f"{'peak_rss_mb':<20} {metrics['peak_rss_mb']:.1f} MB   process peak {peak:.1f} MB "
                 f"less {host.resident_mb:.1f} MB held by the reference")
    metrics["ops_applied_share"] = outputs.applied / outputs.reports
    failed = outputs.reports - outputs.applied
    lines.append(
        f"{'ops_applied_share':<20} {metrics['ops_applied_share']:.6f} ratio   "
        f"{outputs.applied} of {outputs.reports} apply reports applied; "
        f"ops_failed_share {failed / outputs.reports:.6f} ({failed} rejected or deferred)"
    )
    metrics["score_success_share"] = outputs.success / outputs.denominator
    lines.append(
        f"{'score_success_share':<20} {metrics['score_success_share']:.6f} ratio   "
        f"{outputs.success} successes of {outputs.denominator} scored changes"
    )
    return metrics, lines


# The traced run's root spans, one per timed phase of a repetition.
PHASES = {"bench.load": "setup_s", "bench.episode": "episode_s",
          "bench.save_load": "save_load_s", "bench.replay": "replay_s"}


def per_layer(tracer, untraced: Samples, traced: Samples) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over traced repetitions) and the self-time tables."""
    from spans import median_over

    by_phase, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    selfs = {ep: Counter() for ep in by_phase}
    for ep, c in by_phase.items():
        for (_, name), t in c.items():
            selfs[ep][name] += t
    m: dict[str, float] = {}
    frames = tracer.frame_ms()
    m["harness.frame_ms_p50"] = percentile(frames, 50)
    m["harness.frame_ms_p99"] = percentile(frames, 99)
    for name, _, _, _ in PER_LAYER:
        layer = name.rsplit("_", 1)[0]
        if name.endswith("_s") and not name.startswith("trace."):
            m[name] = median_over(selfs, layer)
        elif name.endswith("_calls"):
            m[name] = median_over(calls, layer)
    m["harness.frames"] = median_over(calls, "simworld.synthetic_detect")
    m["harness.events"] = median_over(calls, "simworld.step")
    for name, unit, _, _ in PER_LAYER:
        if name not in m and unit in ("count", "bytes"):
            m[name] = median_over(counts, name)
    m["simworld.detect_yield"] = (
        median_over(counts, "simworld.detections") / median_over(counts, "simworld.detect_scanned")
    )
    m["perception.visible_yield"] = (
        median_over(counts, "perception.visible") / median_over(counts, "perception.visible_scanned")
    )
    episode_plain = statistics.median(untraced.episode_s)
    m["trace.overhead_s"] = statistics.median(traced.episode_s) - episode_plain

    lines = [f"self time per traced repetition, median of {len(traced.episode_s)}:"]
    keys = {key for c in by_phase.values() for key in c}
    for phase, field_name in PHASES.items():
        total = statistics.median(getattr(traced, field_name))
        inside = {name: median_over(by_phase, (root, name)) for root, name in keys if root == phase}
        lines.append(f"  {phase} {total:.6f} s")
        for name, t in sorted(inside.items(), key=lambda item: -item[1]):
            label = "(outside wrapped calls)" if name == phase else name
            lines.append(f"    {label:<30} {t:12.6f} s {100 * t / total:6.2f}%")
    episode = {name: median_over(by_phase, (root, name)) for root, name in keys
               if root == "bench.episode" and name != root}
    # The simulator and perception apply the same visibility rule: one layer here.
    episode["visibility (synthetic_detect + expected_visible)"] = episode.pop(
        "simworld.synthetic_detect", 0.0) + episode.pop("perception.expected_visible", 0.0)
    dominant = max(episode, key=episode.get)
    share = 100 * episode[dominant] / statistics.median(traced.episode_s)
    lines.append(f"dominant layer of the episode: {dominant} ({share:.2f}%)")
    lines.append(
        f"tracing overhead: median traced episode {statistics.median(traced.episode_s):.6f} s - untraced "
        f"{episode_plain:.6f} s = {m['trace.overhead_s']:+.6f} s "
        f"({100 * m['trace.overhead_s'] / episode_plain:+.2f}%)"
    )
    lines.append("per-layer metrics:")
    for name, unit, _, moves in PER_LAYER:
        lines.append(f"  {name:<32} {m[name]:>16.6f} {unit:<6} -> {moves}")
    return m, lines


# ----------------------------------------------------------------------


def generate_in_child(workload: str, seed: int, out: Path) -> Path:
    subprocess.run(
        [sys.executable, str(BENCH / "generate.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        check=True, timeout=170, stdout=subprocess.DEVNULL,
    )
    return out / "scenario.json"


@dataclass
class Report:
    metrics: dict
    attempted: int
    lines: list[str]
    samples: dict  # every timing taken, by phase


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        untraced = Samples()
        # Built before the program runs, so that its resident memory can be told apart.
        host = None if trace else HostClock(untraced.reference_s)
        episode = Episode(workload, generate_in_child(workload, seed, work))
        episode.repeat(Samples())  # warm-up: checked, not timed
        if not trace:
            measure(episode, seconds, untraced, host=host, replay_s=REPLAY_S)
            metrics, lines = end_to_end(untraced, episode.expected, host)
            return Report(metrics, len(untraced.episode_s), lines, vars(untraced))

        from spans import Tracer

        measure(episode, seconds / 2.0, untraced)
        tracer, traced = Tracer(), Samples()
        tracer.install()
        try:
            measure(episode, seconds / 2.0, traced, tracer)
        finally:
            tracer.uninstall()
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{workload}.spans.jsonl")  # the latest traced run only
        metrics, lines = per_layer(tracer, untraced, traced)
        attempted = len(untraced.episode_s) + len(traced.episode_s)
        return Report(metrics, attempted, lines, {"untraced": vars(untraced), "traced": vars(traced)})
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sgupdate episode benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()

    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"bench: output check failed on {args.workload} seed {args.seed}: {exc}",
              file=sys.stderr)
        return 1

    units = {name: unit for name, unit in END_TO_END}
    units.update({name: unit for name, unit, _, _ in PER_LAYER})
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  commit {env['commit']}  python {env['python']}  cpus {env['cpus']}")
    print("\n".join(report.lines))
    result = {
        "correct": True,
        "attempted": report.attempted,
        "failed": 0,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in report.metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (RESULTS / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps({**env, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "lines": report.lines, "samples": report.samples, **result}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
