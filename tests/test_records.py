"""Update records: validation, target resolution, atomic apply, replay."""
import json

import pytest

from sgupdate.action import PickPlaceTask, TaskSpec
from sgupdate.decay import DecayTable
from sgupdate.geometry import BBox3, Pose
from sgupdate.graph import graphs_equal, serialize
from sgupdate.records import (
    PROVISIONAL_BBOX,
    ApplyStatus,
    PrimitiveCall,
    Provenance,
    UpdateAction,
    UpdateRecord,
    apply,
    execute,
    replay,
    resolve_target,
    validate,
    AmbiguousTarget,
    ReplayMismatch,
    TargetNotFound,
)

from conftest import put, two_room_graph

TABLE = DecayTable(default_rate=0.05, anchors={"cup": 0.2})


def record(action, obj="cup", **kw):
    return UpdateRecord(action=action, target_object=obj, **kw)


def test_records_roundtrip_via_dict():
    r = record(
        UpdateAction.MOVED,
        source_room="kitchen",
        target_room="living room",
        pose=Pose.identity((1, 2, 3)),
        bbox=BBox3((0.1, 0.2, 0.3)),
        support_object="table",
        provenance=Provenance.HUMAN,
        issued_at=12.5,
    )
    assert UpdateRecord.from_dict(r.to_dict()) == r


def test_validate_flags_missing_fields():
    assert validate(record(UpdateAction.ADDED, target_room="kitchen")) == []
    assert validate(record(UpdateAction.ADDED)) == ["MissingTargetRoom"]
    assert validate(record(UpdateAction.REMOVED)) == ["MissingSourceRoom"]
    assert validate(record(UpdateAction.MOVED)) == ["MissingTargetRoom", "MissingSourceRoom"]
    assert validate(record(UpdateAction.ADDED, obj="  ", target_room="kitchen")) == [
        "MissingTargetObject"
    ]


def test_resolution_single_candidate_wins(house2):
    put(house2, "kitchen", "cup", (1, 1, 1))
    put(house2, "living room", "cup", (7, 1, 1))
    r = record(UpdateAction.REMOVED, source_room="kitchen")
    assert resolve_target(house2, r) == "cup-1"


def test_resolution_not_found(house2):
    with pytest.raises(TargetNotFound):
        resolve_target(house2, record(UpdateAction.REMOVED, source_room="kitchen"))


def test_resolution_ambiguity_without_support(house2):
    put(house2, "kitchen", "cup", (1, 1, 1))
    put(house2, "kitchen", "cup", (3, 3, 1))
    with pytest.raises(AmbiguousTarget):
        resolve_target(house2, record(UpdateAction.REMOVED, source_room="kitchen"))


def test_resolution_support_object_disambiguates(house2):
    put(house2, "kitchen", "cup", (1.0, 1.0, 1.0))
    far = put(house2, "kitchen", "cup", (3.0, 3.0, 1.0))
    put(house2, "kitchen", "counter", (2.9, 2.9, 0.5), rate=0.0)
    r = record(UpdateAction.REMOVED, source_room="kitchen", support_object="counter")
    assert resolve_target(house2, r) == far


def test_apply_added_with_full_geometry(house2):
    r = record(
        UpdateAction.ADDED,
        target_room="kitchen",
        pose=Pose.identity((1, 1, 1)),
        bbox=BBox3((0.1, 0.1, 0.1)),
        issued_at=3.0,
    )
    report = apply(house2, r, TABLE)
    assert report.status is ApplyStatus.APPLIED
    node = house2.objects[report.resolved_id]
    assert node.decay_rate == 0.2  # anchor for cups
    assert node.last_seen == 3.0
    assert not node.pose_provisional
    assert [c.op for c in report.executed] == ["add_object"]


def test_apply_added_without_pose_lands_at_room_centroid_provisionally(house2):
    report = apply(house2, record(UpdateAction.ADDED, target_room="living room"), TABLE)
    node = house2.objects[report.resolved_id]
    assert node.pose.t == (7.0, 2.0, 1.5)
    assert node.pose_provisional
    assert node.bbox == PROVISIONAL_BBOX


def test_apply_removed(house2):
    put(house2, "kitchen", "cup", (1, 1, 1))
    report = apply(house2, record(UpdateAction.REMOVED, source_room="kitchen"), TABLE)
    assert report.status is ApplyStatus.APPLIED
    assert house2.find("cup") == []
    assert [c.op for c in report.executed] == ["find", "remove_object"]


def test_apply_moved_without_pose_is_provisional_at_centroid(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    r = record(UpdateAction.MOVED, source_room="kitchen", target_room="living room", issued_at=8.0)
    report = apply(house2, r, TABLE)
    assert report.status is ApplyStatus.APPLIED
    assert report.resolved_id == oid
    node = house2.objects[oid]
    assert house2.belongs_to[oid] == "living room"
    assert node.pose.t == (7.0, 2.0, 1.5)
    assert node.pose_provisional and node.last_seen == 8.0


def test_apply_moved_with_pose_clears_provisional(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1), pose_provisional=True)
    r = record(
        UpdateAction.MOVED,
        source_room="kitchen",
        target_room="living room",
        pose=Pose.identity((8, 2, 1)),
    )
    apply(house2, r, TABLE)
    assert not house2.objects[oid].pose_provisional


def test_apply_rejects_invalid_record_without_touching_graph(house2):
    put(house2, "kitchen", "cup", (1, 1, 1))
    before = serialize(house2)
    report = apply(house2, record(UpdateAction.MOVED, source_room="kitchen"), TABLE)
    assert report.status is ApplyStatus.REJECTED
    assert "MissingTargetRoom" in report.reason
    assert serialize(house2) == before


def test_apply_rejects_unknown_target_atomically(house2):
    before = serialize(house2)
    report = apply(house2, record(UpdateAction.REMOVED, source_room="kitchen"), TABLE)
    assert report.status is ApplyStatus.REJECTED
    assert report.executed == []
    assert serialize(house2) == before


def test_apply_defers_ambiguous_target_atomically(house2):
    put(house2, "kitchen", "cup", (1, 1, 1))
    put(house2, "kitchen", "cup", (3, 3, 1))
    before = serialize(house2)
    report = apply(house2, record(UpdateAction.REMOVED, source_room="kitchen"), TABLE)
    assert report.status is ApplyStatus.DEFERRED
    assert serialize(house2) == before


def test_apply_rejects_unknown_rooms(house2):
    assert (
        apply(house2, record(UpdateAction.ADDED, target_room="attic"), TABLE).status
        is ApplyStatus.REJECTED
    )
    put(house2, "kitchen", "cup", (1, 1, 1))
    r = record(UpdateAction.MOVED, source_room="kitchen", target_room="attic")
    assert apply(house2, r, TABLE).status is ApplyStatus.REJECTED


def test_replay_reproduces_apply_effects_exactly(house2):
    pristine = house2.copy()
    reports = [
        apply(house2, record(UpdateAction.ADDED, target_room="kitchen", issued_at=1.0), TABLE),
        apply(
            house2,
            record(
                UpdateAction.MOVED,
                source_room="kitchen",
                target_room="living room",
                pose=Pose.identity((8, 1, 1)),
                issued_at=2.0,
            ),
            TABLE,
        ),
        apply(house2, record(UpdateAction.REMOVED, source_room="living room", issued_at=3.0), TABLE),
        apply(house2, record(UpdateAction.ADDED, obj="vase", target_room="living room"), TABLE),
    ]
    assert all(r.status is ApplyStatus.APPLIED for r in reports)
    for r in reports:
        replay(pristine, r.executed)
    assert serialize(pristine) == serialize(house2)
    assert graphs_equal(pristine, house2)


def test_replay_checks_each_logged_find(house2):
    put(house2, "kitchen", "cup", (1, 1, 1))
    put(house2, "kitchen", "plate", (2, 1, 1))
    pristine = house2.copy()
    report = apply(house2, record(UpdateAction.REMOVED, source_room="kitchen"), TABLE)
    find = report.executed[0]
    assert (find.op, find.args["resolved"]) == ("find", "cup-1")
    find.args["resolved"] = "plate-1"
    with pytest.raises(ReplayMismatch, match="plate-1"):
        replay(pristine, report.executed)


@pytest.mark.parametrize("op", ["teleport", "find", "copy", "_link"])
def test_execute_rejects_non_primitives(house2, op):
    before = serialize(house2)
    with pytest.raises(ValueError, match=f"unknown primitive op '{op}'"):
        execute(house2, PrimitiveCall(op=op, args={}))
    if op != "find":  # replay checks a logged find itself
        with pytest.raises(ValueError, match="unknown primitive op"):
            replay(house2, [PrimitiveCall(op=op, args={})])
    assert serialize(house2) == before


def test_every_logged_call_is_json_with_poses_and_boxes_encoded(house2):
    """Calls hold values; ``to_dict`` writes poses as {"q", "t"} and boxes as extents."""
    at = Pose.identity((1, 1, 1))
    reports = [
        apply(house2, record(UpdateAction.ADDED, target_room="kitchen", pose=at,
                             bbox=BBox3((0.1, 0.2, 0.3))), TABLE),
        apply(house2, record(UpdateAction.MOVED, source_room="kitchen", target_room="kitchen",
                             pose=Pose.identity((2, 1, 1))), TABLE),
    ]
    task = PickPlaceTask(TaskSpec("cup", "kitchen", "living room"))
    reports += [task.pick(house2), task.place(house2, Pose.identity((8, 1, 1)), 5.0)]
    reports.append(apply(house2, record(UpdateAction.REMOVED, source_room="living room"), TABLE))
    calls = {call.op: call for report in reports for call in report.executed}
    calls["touch"] = PrimitiveCall(op="touch", args={"target": "cup-1", "now": 6.0})
    assert sorted(calls) == sorted(["find", "add_object", "move_object", "detach", "reattach",
                                    "remove_object", "touch"])
    assert calls["add_object"].args["pose"] is at  # a value, not its JSON
    assert calls["add_object"].args["bbox"] == BBox3((0.1, 0.2, 0.3))
    encoded = {op: json.loads(json.dumps(call.to_dict())) for op, call in calls.items()}
    assert encoded["add_object"]["args"]["pose"] == {"q": [1.0, 0.0, 0.0, 0.0], "t": [1.0, 1.0, 1.0]}
    assert encoded["add_object"]["args"]["bbox"] == [0.1, 0.2, 0.3]
    assert encoded["move_object"]["args"]["new_pose"]["t"] == [2.0, 1.0, 1.0]
    assert encoded["reattach"]["args"]["pose"]["t"] == [8.0, 1.0, 1.0]
    assert encoded["touch"] == {"op": "touch", "args": {"target": "cup-1", "now": 6.0}}
