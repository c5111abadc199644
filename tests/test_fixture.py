"""Preconditions the packaged house/scenario pair must keep satisfying.

The scripted episode only exercises the pipeline if the geometry cooperates:
every dynamic object must be strictly visible from its room's camera
waypoint, no waypoint may see into a neighboring room, and the failure knob
used by the degraded run must suppress exactly the one object it is aimed
at. These tests pin all of that down so fixture edits fail loudly here
instead of surfacing as mysterious scoring changes.
"""
import importlib.util
import json
from importlib import resources
from pathlib import Path

from sgupdate.geometry import Pose
from sgupdate.graph import check_invariants, serialize
from sgupdate.harness import load_scenario
from sgupdate.perception import point_in_frustum
from sgupdate.simworld import load_house


def scenario_path():
    return resources.files("sgupdate.data").joinpath("scenario_house.json")


def waypoints_by_room(scenario):
    """Map room label -> camera pose, using the room the waypoint stands in."""
    out = {}
    for _, pose in scenario.trajectory:
        room = scenario.house.rooms[scenario.house.assign_room(pose)].label
        out[room] = pose
    return out


def test_house_fixture_is_what_its_generator_writes():
    tool = Path(__file__).resolve().parent.parent / "tools" / "build_house_fixture.py"
    spec = importlib.util.spec_from_file_location("build_house_fixture", tool)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    packaged = resources.files("sgupdate.data").joinpath("house.json").read_bytes()
    assert serialize(generator.build()) == packaged


def test_house_fixture_is_valid():
    g = load_house()
    assert check_invariants(g) == []
    assert len(g.access) == 4


def test_scenario_fixture_loads_and_validates():
    sc = load_scenario(scenario_path())
    assert sc.k == 2 and sc.epsilon == 0.25
    assert len(sc.trajectory) == 8
    assert sc.mission is not None


def test_every_room_has_a_waypoint():
    sc = load_scenario(scenario_path())
    rooms = {r.label for r in sc.house.rooms.values()}
    assert set(waypoints_by_room(sc)) == rooms


def test_dynamic_objects_are_visible_from_their_rooms_waypoint():
    sc = load_scenario(scenario_path())
    cams = waypoints_by_room(sc)
    g = sc.house
    for oid in sorted(g.objects):
        node = g.objects[oid]
        if node.decay_rate <= 0.0:
            continue
        room = g.rooms[node.room].label
        assert point_in_frustum(cams[room], sc.camera, node.pose.t), (
            f"{oid} must be visible from the {room} waypoint"
        )


def test_no_waypoint_sees_into_another_room():
    sc = load_scenario(scenario_path())
    cams = waypoints_by_room(sc)
    g = sc.house
    for cam_room, cam_pose in cams.items():
        for oid in sorted(g.objects):
            node = g.objects[oid]
            if node.decay_rate <= 0.0:
                continue
            room = g.rooms[node.room].label
            if room != cam_room:
                assert not point_in_frustum(cam_pose, sc.camera, node.pose.t), (
                    f"{cam_room} waypoint must not see {oid} in {room}"
                )


def test_scripted_destinations_are_visible_too():
    sc = load_scenario(scenario_path())
    cams = waypoints_by_room(sc)
    g = sc.house
    for record in sc.virtual_actions:
        if record.pose is None:
            continue
        room = g.rooms[g.assign_room(record.pose)].label
        assert point_in_frustum(cams[room], sc.camera, record.pose.t), (
            f"{record.target_object} destination must be visible from the {room} waypoint"
        )


def test_mission_place_pose_is_out_of_camera_reach_after_completion():
    # placed at t=30; the only later frames are the bathroom's, which must
    # not see the bedroom shelf spot (no spurious re-observation).
    sc = load_scenario(scenario_path())
    cams = waypoints_by_room(sc)
    assert not point_in_frustum(cams["bathroom"], sc.camera, sc.mission.place_pose.t)


def test_size_failure_knob_hits_exactly_the_remote():
    sc = load_scenario(scenario_path())
    g = sc.house
    cutoff = 0.16  # the value the degraded acceptance run dials in
    small = sorted(
        g.objects[oid].label
        for oid in g.objects
        if g.objects[oid].decay_rate > 0.0 and g.objects[oid].bbox.max_extent < cutoff
    )
    assert small == ["tv remote"]
    # the object added mid-episode must stay above the cutoff
    book = next(r for r in sc.virtual_actions if r.target_object == "book")
    assert book.bbox.max_extent >= cutoff


def test_statement_targets_precede_first_visit():
    # both statements land before the first frame that could otherwise
    # generate the same information via the detector
    sc = load_scenario(scenario_path())
    first_frame_at = sc.trajectory[0][0]
    assert all(at < first_frame_at for at, _ in sc.human_statements)
    assert all(r.issued_at < first_frame_at for r in sc.virtual_actions)


def test_packaged_scenario_json_stays_in_sync_with_house():
    raw = json.loads(scenario_path().read_text("utf-8"))
    assert raw["house"] == "house.json"
    g = load_house()
    for entry in raw["virtual_actions"]:
        room = entry.get("room") or entry.get("from_room")
        assert g.room_by_label(room)
