"""Ground-truth world: scripted changes, robot manipulation, synthetic detector."""
import math
from importlib import resources

import pytest

from sgupdate.geometry import BBox3, Pose, point_in_aabb
from sgupdate.graph import graphs_equal, serialize
from sgupdate.harness import derive_ground_truth, load_scenario, run_scenario
from sgupdate.perception import CameraModel, Observation, expected_visible
from sgupdate.records import UpdateAction, UpdateRecord
from sgupdate.simworld import (
    DetectorFailureConfig,
    InconsistentAction,
    World,
    load_house,
)

from conftest import put, two_room_graph, yaw_pose

SCENARIO = resources.files("sgupdate.data").joinpath("scenario_house.json")
CAM = CameraModel(fov_h=math.pi / 2, fov_v=math.pi / 2, min_range=0.3, max_range=6.0)


REMOVED, MOVED, ADDED = UpdateAction.REMOVED, UpdateAction.MOVED, UpdateAction.ADDED


def scripted_world():
    g = two_room_graph()
    put(g, "kitchen", "banana", (1.0, 1.0, 1.0))
    put(g, "kitchen", "cup", (2.0, 2.0, 1.0))
    script = [
        UpdateRecord(REMOVED, "banana", source_room="kitchen", issued_at=4.0),
        UpdateRecord(
            MOVED,
            "cup",
            source_room="kitchen",
            target_room="living room",
            pose=Pose.identity((8.0, 2.0, 1.0)),
            issued_at=8.0,
        ),
        UpdateRecord(
            ADDED,
            "book",
            target_room="living room",
            pose=Pose.identity((7.0, 1.0, 1.0)),
            bbox=BBox3((0.2, 0.05, 0.15)),
            issued_at=12.0,
        ),
    ]
    return World(g, script)


def test_step_applies_actions_in_time_order():
    w = scripted_world()
    applied = w.step(until=8.0)
    assert [r.action for r in applied] == [REMOVED, MOVED]
    assert w.graph.find("banana") == []
    assert w.graph.objects[w.graph.find("cup")[0]].room == "living room"
    assert w.graph.find("book") == []  # not yet
    w.step(until=20.0)
    assert w.graph.find("book")


def test_step_is_idempotent_between_actions():
    w = scripted_world()
    w.step(5.0)
    before = serialize(w.graph)
    w.step(6.0)
    w.step(7.9)
    assert serialize(w.graph) == before


def test_same_script_same_world():
    a, b = scripted_world(), scripted_world()
    a.step(30.0)
    b.step(30.0)
    assert serialize(a.graph) == serialize(b.graph)


def test_equal_timestamps_apply_in_file_order():
    g = two_room_graph()
    put(g, "kitchen", "cup", (2.0, 2.0, 1.0))
    # second record only works if the first one (same timestamp) ran already
    script = [
        UpdateRecord(
            ADDED,
            "plate",
            target_room="kitchen",
            pose=Pose.identity((1.0, 1.0, 1.0)),
            bbox=BBox3((0.3, 0.05, 0.3)),
            issued_at=5.0,
        ),
        UpdateRecord(REMOVED, "plate", source_room="kitchen", issued_at=5.0),
    ]
    w = World(g, script)
    w.step(5.0)
    assert w.graph.find("plate") == []


def test_inconsistent_script_raises():
    g = two_room_graph()
    w = World(g, [UpdateRecord(REMOVED, "ghost", source_room="kitchen", issued_at=1.0)])
    with pytest.raises(InconsistentAction):
        w.step(2.0)


@pytest.mark.parametrize(
    "record, message",
    [
        (
            UpdateRecord(REMOVED, "ghost", source_room="kitchen", issued_at=1.0),
            "t=1.0: no attached 'ghost' in room 'kitchen'",
        ),
        (
            UpdateRecord(
                MOVED,
                "ghost",
                source_room="kitchen",
                target_room="living room",
                pose=Pose.identity((8.0, 2.0, 1.0)),
                issued_at=2.0,
            ),
            "t=2.0: no attached 'ghost' in room 'kitchen'",
        ),
        (
            UpdateRecord(
                ADDED,
                "book",
                target_room="garage",
                pose=Pose.identity((7.0, 1.0, 1.0)),
                bbox=BBox3((0.2, 0.05, 0.15)),
                issued_at=3.0,
            ),
            "t=3.0: no room labeled 'garage'",
        ),
    ],
    ids=["remove", "move", "add"],
)
def test_inconsistent_action_names_its_time_once(record, message):
    g = two_room_graph()
    put(g, "kitchen", "cup", (2.0, 2.0, 1.0))
    w = World(g, [record])
    before = serialize(w.graph)
    with pytest.raises(InconsistentAction) as err:
        w.step(5.0)
    assert str(err.value) == message
    assert serialize(w.graph) == before


def test_pick_and_place_mirror_manipulation():
    # The mission's pick and place run on the truth as well as on the estimate.
    result = run_scenario(SCENARIO)
    mission = result.scenario.mission
    truth = result.world.graph
    assert truth.find("mug", room_scope="kitchen") == []
    (oid,) = truth.find("mug", room_scope="bedroom")
    node = truth.objects[oid]
    assert node.attached and node.pose == mission.place_pose
    assert node.last_seen == mission.place_time and not node.pose_provisional
    assert result.graph.objects[oid].pose == node.pose


def test_mission_on_a_truth_without_its_object_is_inconsistent():
    # The mug leaves the truth unseen, so only the estimate still holds it at the pick.
    gone = {"at": 19, "action": "remove", "label": "mug", "room": "kitchen"}
    with pytest.raises(InconsistentAction) as err:
        run_scenario(SCENARIO, overrides={"virtual_actions": [gone]})
    assert str(err.value) == "t=20.0: no attached 'mug' in room 'kitchen'"


def test_the_script_is_the_records_the_world_applies():
    sc = load_scenario(SCENARIO)
    script = sc.virtual_actions
    assert script and all(isinstance(r, UpdateRecord) for r in script)
    in_time_order = sorted(script, key=lambda r: r.issued_at)
    applied = World(sc.house.copy(), script).step(math.inf)
    assert len(applied) == len(script)
    assert all(a is r for a, r in zip(applied, in_time_order))

    scripted = derive_ground_truth(sc)[: len(script)]
    assert [(g.action, g.label, g.source_room, g.target_room) for g in scripted] == [
        (r.action, r.target_object, r.source_room, r.target_room) for r in script
    ]

    moves = [r for r in script if r.action is MOVED]
    assert moves
    for record in moves:
        (holder,) = [
            room.label
            for room in sc.house.rooms.values()
            if point_in_aabb(record.pose.t, room.pose.t, room.bbox.half_sizes_xyz())
        ]
        assert record.target_room == holder


def test_detector_sees_only_visible_movables():
    g = two_room_graph()
    put(g, "kitchen", "cup", (2.0, 2.0, 1.0))
    put(g, "kitchen", "counter", (2.5, 2.0, 0.5), rate=0.0)  # immovable
    held = put(g, "kitchen", "plate", (1.5, 2.0, 1.0))
    g.detach(held)
    put(g, "living room", "vase", (9.0, 2.0, 1.0))  # too far
    w = World(g, [])
    robot = Pose.identity((0.5, 2.0, 1.0))  # facing +x
    labels = [o.label for o in w.synthetic_detect(robot, CAM)]
    assert labels == ["cup"]


def test_detector_output_is_sorted_by_ground_truth_id():
    g = two_room_graph()
    put(g, "kitchen", "cup", (2.0, 2.4, 1.0))
    put(g, "kitchen", "banana", (2.0, 1.6, 1.0))
    w = World(g, [])
    robot = Pose.identity((0.5, 2.0, 1.0))
    out = w.synthetic_detect(robot, CAM)
    assert [o.label for o in out] == ["banana", "cup"]  # banana-1 < cup-1


def test_ideal_detector_reports_exactly_the_expected_visible_truth():
    sc = load_scenario(SCENARIO)
    w = World(sc.house.copy(), sc.virtual_actions)
    reported = 0
    for at, pose in sc.trajectory:
        w.step(at)
        truth = [w.graph.objects[oid] for oid in expected_visible(w.graph, pose, sc.camera)]
        out = w.synthetic_detect(pose, sc.camera, DetectorFailureConfig())
        assert [(o.label, o.pose, o.bbox) for o in out] == [(n.label, n.pose, n.bbox) for n in truth]
        reported += len(out)
    assert reported > 0


def test_detector_failure_knobs():
    g = two_room_graph()
    put(g, "kitchen", "tv remote", (2.0, 2.0, 1.0), extents=(0.15, 0.03, 0.05))
    put(g, "kitchen", "cup", (2.0, 1.5, 1.0), extents=(0.2, 0.2, 0.2))
    put(g, "kitchen", "banana", (2.0, 2.5, 1.0), extents=(0.22, 0.05, 0.06))
    w = World(g, [])
    robot = Pose.identity((0.5, 2.0, 1.0))

    ideal = {o.label for o in w.synthetic_detect(robot, CAM)}
    assert ideal == {"tv remote", "cup", "banana"}

    small_blind = DetectorFailureConfig(min_detectable_extent=0.16)
    assert {o.label for o in w.synthetic_detect(robot, CAM, small_blind)} == {"cup", "banana"}

    dropped = DetectorFailureConfig(dropout_ids=frozenset({"cup-1"}))
    assert {o.label for o in w.synthetic_detect(robot, CAM, dropped)} == {"tv remote", "banana"}

    confused = DetectorFailureConfig(label_noise={"banana": "plantain"})
    assert {o.label for o in w.synthetic_detect(robot, CAM, confused)} == {
        "tv remote",
        "cup",
        "plantain",
    }


def detections_built_one_by_one(world, pose, cam, failures):
    """``World.synthetic_detect`` written plainly: every box's largest extent
    tested against the minimum, and each observation built by
    ``Observation(...)``, which normalizes its label."""
    out = []
    for oid in expected_visible(world.graph, pose, cam):
        node = world.graph.objects[oid]
        if node.bbox.max_extent < failures.min_detectable_extent or oid in failures.dropout_ids:
            continue
        label = failures.label_noise.get(node.label, node.label)
        out.append(Observation(label=label, pose=node.pose, bbox=node.bbox))
    return out


@pytest.mark.parametrize(
    "failures, seen, unseen",
    [
        (DetectorFailureConfig(), {"mug", "tv remote", "vase", "book"}, {"urn"}),
        # Built directly, so the reported labels are not normalized yet.
        (
            DetectorFailureConfig(label_noise={"mug": " Cup ", "tv remote": "TV  Remote", "vase": "urn"}),
            {"cup", "tv remote", "urn"},
            {"mug", "vase"},
        ),
        (
            DetectorFailureConfig(min_detectable_extent=0.16, dropout_ids=frozenset({"book-1"})),
            {"mug", "vase"},
            {"tv remote", "book"},
        ),
    ],
    ids=["ideal", "noisy", "minimum-extent"],
)
def test_detections_equal_the_observations_built_one_by_one(failures, seen, unseen):
    sc = load_scenario(SCENARIO)
    w = World(sc.house.copy(), sc.virtual_actions)
    labels = set()
    for at, pose in sc.trajectory:
        w.step(at)
        out = w.synthetic_detect(pose, sc.camera, failures)
        assert out == detections_built_one_by_one(w, pose, sc.camera, failures), at
        assert all(type(o) is Observation for o in out)
        labels.update(o.label for o in out)
    assert seen <= labels and not unseen & labels


def test_failure_config_from_dict_roundtrip():
    # One reader: keys are normalized labels of the house or of a scripted add,
    # ids name a house object or what an add will be filed as. The add is a
    # record as load_scenario reads it, its label normalized.
    book = UpdateRecord(UpdateAction.ADDED, "book", target_room="bedroom")
    data = {
        "min_detectable_extent": 0.16,
        "label_noise": {" Mug": "cup", "book": "mug"},
        "dropout_ids": ["mug-1", "book-2"],
    }
    cfg = DetectorFailureConfig.for_episode(data, load_house(), [book])
    assert cfg == DetectorFailureConfig(0.16, {"mug": "cup", "book": "mug"}, frozenset({"mug-1", "book-2"}))
    assert DetectorFailureConfig.for_episode({}, load_house(), []) == DetectorFailureConfig()


def test_packaged_house_loads_cleanly():
    g = load_house()
    assert {r.label for r in g.rooms.values()} == {"kitchen", "living room", "bedroom", "bathroom"}
    assert len(g.objects) == 24
    assert graphs_equal(g, load_house())  # fresh copy each call
    g.remove_object("kitchen", g.find("banana")[0])
    assert load_house().find("banana")  # caller mutations don't leak back
