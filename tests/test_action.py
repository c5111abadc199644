"""Pick-and-place missions against the estimated graph."""
import pytest

from sgupdate.action import (
    IllegalPhase,
    Phase,
    PickPlaceTask,
    RoomMismatch,
    UnparsableTask,
    parse_task,
)
from sgupdate.geometry import Pose
from sgupdate.graph import serialize
from sgupdate.records import ApplyStatus, Provenance, UpdateAction

from conftest import put, two_room_graph


MISSION = "Pick the mug in the kitchen and take it to the living room."


def task_for(text=MISSION):
    return PickPlaceTask(spec=parse_task(text))


def test_parse_task_canonical_form():
    spec = parse_task(MISSION)
    assert (spec.object_label, spec.source_room, spec.target_room) == (
        "mug",
        "kitchen",
        "living room",
    )


def test_parse_task_tolerates_phrasing_variants():
    variants = [
        "pick up the mug from the kitchen and bring it to the living room",
        "Pick the mug that's in the kitchen, and carry it into the living room!",
        "PICK THE MUG IN THE KITCHEN AND MOVE IT TO THE LIVING ROOM",
    ]
    for text in variants:
        spec = parse_task(text)
        assert (spec.object_label, spec.source_room, spec.target_room) == (
            "mug",
            "kitchen",
            "living room",
        )


def test_parse_task_rejects_other_shapes():
    for text in ["mop the floor", "pick the mug", "take the mug to the kitchen", ""]:
        with pytest.raises(UnparsableTask):
            parse_task(text)


def test_pick_detaches_and_reports_calls(house2):
    put(house2, "kitchen", "mug", (1, 1, 1))
    task = task_for()
    report = task.pick(house2)
    assert report.status is ApplyStatus.APPLIED and report.resolved_id == "mug-1"
    assert [c.op for c in report.executed] == ["find", "detach"]
    assert report.executed[0].args == {"label": "mug", "room_scope": "kitchen", "resolved": "mug-1"}
    assert report.record is None
    assert task.phase is Phase.HOLDING and task.held_id == "mug-1"
    assert not house2.objects["mug-1"].attached
    assert house2.find("mug") == []  # invisible while held


def test_pick_missing_object_is_rejected_without_mutation(house2):
    before = serialize(house2)
    task = task_for()
    report = task.pick(house2)
    assert report.status is ApplyStatus.REJECTED
    assert report.reason == "no attached 'mug' in room 'kitchen'"
    assert report.executed == [] and report.resolved_id is None
    assert task.phase is Phase.PENDING and task.held_id is None
    assert serialize(house2) == before


def test_pick_ambiguous_object_is_rejected_without_mutation(house2):
    put(house2, "kitchen", "mug", (1, 1, 1))
    put(house2, "kitchen", "mug", (3, 3, 1))
    before = serialize(house2)
    task = task_for()
    report = task.pick(house2)
    assert report.status is ApplyStatus.REJECTED
    assert "2 attached 'mug' in room 'kitchen'" in report.reason
    assert report.executed == []
    assert task.phase is Phase.PENDING and task.held_id is None
    assert serialize(house2) == before


def test_pick_twice_is_illegal(house2):
    put(house2, "kitchen", "mug", (1, 1, 1))
    task = task_for()
    task.pick(house2)
    with pytest.raises(IllegalPhase):
        task.pick(house2)


def test_place_reattaches_and_emits_action_record(house2):
    put(house2, "kitchen", "mug", (1, 1, 1))
    task = task_for()
    oid = task.pick(house2).resolved_id
    pose = Pose.identity((8.0, 2.0, 1.0))
    report = task.place(house2, pose, now=9.0)
    assert report.status is ApplyStatus.APPLIED and report.resolved_id == oid
    assert [c.op for c in report.executed] == ["reattach"]
    assert task.phase is Phase.DONE
    node = house2.objects[oid]
    assert node.room == "living room"
    assert node.pose == pose and node.last_seen == 9.0
    record = report.record
    assert record.action is UpdateAction.MOVED
    assert record.provenance is Provenance.ACTION
    assert (record.source_room, record.target_room) == ("kitchen", "living room")
    assert record.pose == pose and record.issued_at == 9.0


def test_place_in_wrong_room_is_refused(house2):
    put(house2, "kitchen", "mug", (1, 1, 1))
    task = task_for()
    task.pick(house2)
    before_phase, before = task.phase, serialize(house2)
    with pytest.raises(RoomMismatch):
        task.place(house2, Pose.identity((1.0, 1.0, 1.0)), now=1.0)  # still in the kitchen
    assert task.phase is before_phase  # mission not completed
    assert not house2.objects["mug-1"].attached
    assert serialize(house2) == before


def test_place_before_pick_is_illegal(house2):
    task = task_for()
    with pytest.raises(IllegalPhase):
        task.place(house2, Pose.identity((8.0, 2.0, 1.0)), now=0.0)
