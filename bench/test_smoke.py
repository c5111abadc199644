"""Smoke test of the benchmark itself, at a 2x2-room scale.

    python3 -m pytest -q bench/test_smoke.py
"""
import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from generate import CLUTTER, HOUSEHOLD, GridSpec, generate_spec, require_program
from reference import SHARE, HostClock, scale
from run import (END_TO_END, MAX_REPLAYS, PER_LAYER, BENCH, CheckFailed, Episode, Samples,
                 check_outputs)

require_program()

from sgupdate import harness  # noqa: E402
from sgupdate.graph import serialize  # noqa: E402

TINY = GridSpec(
    rooms_x=2, rooms_y=2, visited=4, singles_per_room=6, immovable_per_room=2,
    changes_per_room=3, statements_per_period=1, statement_period=2, mission=True,
    single_labels=tuple(label for label in HOUSEHOLD if label not in CLUTTER),
    duplicate_labels=CLUTTER[:3], duplicates_per_room=9,
)


def files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic(tmp_path):
    generate_spec(TINY, 11, tmp_path / "a")
    generate_spec(TINY, 11, tmp_path / "b")
    generate_spec(TINY, 12, tmp_path / "c")
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a")["house.json"] != files(tmp_path / "c")["house.json"]


@pytest.mark.parametrize("spec", [TINY, None], ids=["tiny", "demo"])
def test_generated_episode_passes_every_check(tmp_path, spec):
    path = generate_spec(spec, 3, tmp_path / "w")
    episode = Episode("demo" if spec is None else "tiny", path)
    samples = Samples()
    episode.repeat(samples)
    episode.repeat(samples, replay_s=60.0)  # a second repetition must reproduce the first exactly
    assert len(samples.episode_s) == 2 and len(samples.replay_s) == 1 + MAX_REPLAYS
    assert episode.expected.reports > 0


def test_tampered_replay_log_fails_the_replay_check(tmp_path):
    scenario = harness.load_scenario(generate_spec(TINY, 3, tmp_path / "w"))
    result = harness.run_scenario(scenario)
    data = serialize(result.graph)
    touches = [call for entry in result.log.entries for call in entry.report.executed
               if call.op == "touch"]
    touches[-1].args["now"] += 1.0  # the last observation of some object, shifted
    replayed = harness.replay_runlog(scenario.initial, result.log)
    with pytest.raises(CheckFailed, match="replaying the run log"):
        check_outputs("tiny", result, data, replayed)


def test_host_clock_keeps_the_reference_at_its_share():
    samples = []
    try:
        host = HostClock(samples)
        host.after(0.2)
        assert sum(samples) >= SHARE * 0.2
        before = len(samples)
        host.after(0.0)  # already at its share: no further pass
        assert len(samples) == before
        assert scale(samples) > 0
    finally:
        gc.unfreeze()


def test_benchmark_json_declares_the_reported_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_declared_metric(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "demo", "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = [name for name, _ in END_TO_END] if trace == 0 else [m[0] for m in PER_LAYER]
    assert sorted(result["metrics"]) == sorted(declared)
