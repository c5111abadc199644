"""Properties that hold on any generated episode, not only on the packaged one.

Hypothesis draws a small grid house with labels repeated in every room, the
benchmark's generator (``bench/generate.py``) writes its episode, and the
trajectory gains frames whose camera stands at a wall two rooms share,
facing across it. The scenario also gains false statements, which name a
label a room never holds, and a detector that drops some objects and
reports some labels as others. During the run every ``records.apply`` call
and every primitive call ``records.execute`` runs (a frame's touch batch, a
mission step, an applied record's edit), the robot's and the simulated
truth's, must leave the graph's invariants intact, and a report that is not
applied, such as a false statement's rejection, must leave the graph's bytes
as they were. At the end, replaying the run log must give the final graph
byte for byte.
"""
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from generate import (  # noqa: E402
    CLUTTER, HOUSEHOLD, ROOM_HEIGHT, ROOM_PERIOD, ROOM_SIZE, START_TIME, GridSpec, generate_spec,
)

from sgupdate import action, perception, records  # noqa: E402
from sgupdate.graph import check_invariants, serialize  # noqa: E402
from sgupdate.harness import load_scenario, replay_runlog, run_scenario  # noqa: E402

# (rooms along x, rooms along y) for 2 to 6 rooms.
GRIDS = [(x, y) for x in range(1, 7) for y in range(1, 7) if 2 <= x * y <= 6]
SINGLE_LABELS = tuple(label for label in HOUSEHOLD if label not in CLUTTER)


@st.composite
def grid_spec(draw):
    """A grid of 2 to 6 rooms, each with 5 to 30 objects, some labels repeated."""
    rooms_x, rooms_y = draw(st.sampled_from(GRIDS))
    visited = draw(st.integers(1, rooms_x * rooms_y))
    changes = draw(st.integers(1, 3))
    repeated = draw(st.integers(1, 3))  # labels that several objects of a room share
    period = draw(st.integers(1, 3))
    return GridSpec(
        rooms_x=rooms_x,
        rooms_y=rooms_y,
        visited=visited,
        singles_per_room=draw(st.integers(changes + 2, 12)),
        immovable_per_room=draw(st.integers(0, 4)),
        changes_per_room=changes,
        statements_per_period=draw(st.integers(0, period)),
        statement_period=period,
        single_labels=SINGLE_LABELS,
        duplicate_labels=CLUTTER[:repeated],
        # Each repeated label at least twice: the generator takes a label held
        # once as a single, and may script its removal after an add of it.
        duplicates_per_room=draw(st.integers(2 * repeated, 12)),
        mission=visited >= 4 and draw(st.booleans()),
    )


@st.composite
def wall_frame(draw, spec: GridSpec) -> dict:
    """A frame during the episode whose camera stands within 0.05 m of a wall
    two rooms of ``spec``'s grid share (on it, too), facing across it."""
    counts = (spec.rooms_x, spec.rooms_y)
    axis = draw(st.sampled_from([a for a in (0, 1) if counts[a] > 1]))  # the axis crossing the wall
    offset = draw(st.floats(-0.05, 0.05))
    along = draw(st.integers(0, counts[1 - axis] - 1)) + 0.5 + draw(st.floats(-0.45, 0.45))
    t = [0.0, 0.0, draw(st.floats(0.1, 0.9)) * ROOM_HEIGHT]
    t[axis] = draw(st.integers(1, counts[axis] - 1)) * ROOM_SIZE + offset
    t[1 - axis] = along * ROOM_SIZE
    # From below the wall face up the axis, from above it face down.
    back = offset > 0.0 or offset == 0.0 and draw(st.booleans())
    yaw = axis * math.pi / 2.0 + (math.pi if back else 0.0) + draw(st.floats(-0.6, 0.6))
    q = [math.cos(yaw / 2.0), 0.0, 0.0, math.sin(yaw / 2.0)]
    at = draw(st.floats(START_TIME, START_TIME + ROOM_PERIOD * spec.visited + 10.0))
    return {"at": at, "pose": {"q": q, "t": t}}


@st.composite
def episode(draw) -> tuple:
    """A grid spec, a seed, and what the written scenario gains: 1 to 4 wall
    frames and a detector's smallest detectable extent."""
    spec = draw(grid_spec())
    return (
        spec,
        draw(st.integers(0, 2**16)),
        draw(st.lists(wall_frame(spec), min_size=1, max_size=4)),
        draw(st.sampled_from((0.0, 0.0, 0.16))),  # an ideal detector in two draws of three
    )


def false_statements(data, house: dict, scenario: dict, lexicon: dict) -> list:
    """0 to 2 statements "I removed the X from the Y." during the episode,
    each naming a lexicon label X that room Y does not hold at load, that no
    scripted change adds there and that the mission does not carry."""
    room_label = {room["id"]: room["label"] for room in house["rooms"]}
    held = {(obj["label"], room_label[house["belongs_to"][obj["id"]]]) for obj in house["objects"]}
    held |= {(a["label"], a["room"]) for a in scenario["virtual_actions"] if a["action"] == "add"}
    mission = scenario.get("mission", {}).get("mission", "")
    pairs = [
        (label, room)
        for label in lexicon["objects"]
        for room in sorted(room_label.values())
        if (label, room) not in held and f" {label} " not in mission
    ]
    end = max(f["at"] for f in scenario["trajectory"])
    return [
        {"at": data.draw(st.floats(START_TIME, end)), "text": f"I removed the {label} from the {room}."}
        for label, room in data.draw(st.lists(st.sampled_from(pairs), max_size=2) if pairs else st.just([]))
    ]


def detector_failures(data, house: dict, lexicon: dict, extent: float) -> dict:
    """``failures`` with the drawn smallest detectable extent, 0 to 3 house
    objects the detector never reports, and 0 to 2 house labels it reports
    as another lexicon label."""
    ids = sorted(obj["id"] for obj in house["objects"])
    labels = sorted({obj["label"] for obj in house["objects"]})
    noisy = data.draw(st.lists(st.sampled_from(labels), max_size=2, unique=True))
    return {
        "min_detectable_extent": extent,
        "dropout_ids": data.draw(st.lists(st.sampled_from(ids), max_size=3, unique=True)),
        "label_noise": {
            label: data.draw(st.sampled_from([other for other in lexicon["objects"] if other != label]))
            for label in noisy
        },
    }


def add_to_scenario(data, path: Path, frames: list, extent: float) -> None:
    scenario = json.loads(path.read_text("utf-8"))
    house = json.loads((path.parent / scenario["house"]).read_text("utf-8"))
    lexicon = json.loads((path.parent / scenario["lexicon"]).read_text("utf-8"))
    # Stable sorts keep a generated frame or statement before a drawn one at its time.
    scenario["trajectory"] = sorted(scenario["trajectory"] + frames, key=lambda f: f["at"])
    statements = scenario["human_statements"] + false_statements(data, house, scenario, lexicon)
    scenario["human_statements"] = sorted(statements, key=lambda s: s["at"])
    scenario["failures"] = detector_failures(data, house, lexicon, extent)
    path.write_text(json.dumps(scenario), "utf-8")


def checked_apply(apply):
    """``apply`` that asserts, after each call, the invariants of the graph it
    was given, and, unless the report is ``APPLIED``, that graph's bytes."""

    def wrapper(graph, record, decay_table=None):
        before = serialize(graph)
        report = apply(graph, record, decay_table)
        assert check_invariants(graph) == [], (record, report)
        if report.status is not records.ApplyStatus.APPLIED:
            assert serialize(graph) == before, (record, report)
        return report

    return wrapper


def checked_execute(execute, ops: list):
    """``execute`` that appends each call's op to ``ops`` and asserts, after
    the call, the invariants of the graph it was given."""

    def wrapper(graph, call):
        ops.append(call.op)
        result = execute(graph, call)
        assert check_invariants(graph) == [], call
        return result

    return wrapper


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(episode(), st.data())
def test_a_generated_episode_keeps_invariants_edits_nothing_it_does_not_apply_and_replays(case, data):
    spec, seed, frames, extent = case
    with tempfile.TemporaryDirectory() as tmp:
        path = generate_spec(spec, seed, Path(tmp) / "episode")
        add_to_scenario(data, path, frames, extent)
        scenario = load_scenario(path)
        ops = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(records, "apply", checked_apply(records.apply))
            # ``action`` imported ``execute`` by name, so its steps need their own wrapper.
            for module in (records, action):
                mp.setattr(module, "execute", checked_execute(module.execute, ops))
            result = run_scenario(scenario)
    assert "touch" in ops  # the wrappers ran
    assert check_invariants(result.graph) == [] and check_invariants(result.world.graph) == []
    assert serialize(replay_runlog(scenario.initial, result.log)) == serialize(result.graph)


def written_episode(data, case: tuple, out: Path):
    """The scenario of ``case`` (an ``episode()`` draw), written to ``out`` and loaded."""
    spec, seed, frames, extent = case
    path = generate_spec(spec, seed, out)
    add_to_scenario(data, path, frames, extent)
    return load_scenario(path)


def run_bytes(scenario) -> tuple[str, bytes]:
    result = run_scenario(scenario)
    return result.log.to_jsonl(), serialize(result.graph)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(episode(), episode(), st.data())
def test_an_episode_gives_the_same_bytes_cold_and_right_after_another_episode(case, other, data):
    """Visibility memoizes frustum decisions across calls (one camera pose at
    a time): what a run leaves there must not change the next run."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario = written_episode(data, case, Path(tmp) / "episode")
        before = written_episode(data, other, Path(tmp) / "other")
    perception._decisions.cache_clear()
    cold = run_bytes(scenario)
    run_scenario(before)
    assert run_bytes(scenario) == cold
