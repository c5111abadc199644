"""Scene-graph container: topology rules, primitives, serialization."""
import json
import math
import random
from dataclasses import FrozenInstanceError

import pytest

from sgupdate.geometry import BBox3, Pose
from sgupdate.graph import (
    AlreadyAttached,
    AlreadyDetached,
    DuplicateRoomLabel,
    NoContainingRoom,
    ObjectNode,
    ParseError,
    SceneGraph,
    SceneGraphError,
    UnknownObject,
    UnknownRoom,
    WrongRoom,
    check_invariants,
    deserialize,
    graphs_equal,
    graphs_equivalent,
    serialize,
)

from sgupdate.perception import CameraModel, expected_visible, point_in_frustum

from conftest import make_room, put, two_room_graph, yaw_pose


def test_room_labels_are_normalized_and_unique():
    g = SceneGraph()
    g.add_room(make_room("a", (0, 0, 0), label="  Living   Room "))
    assert g.room_by_label("living room").id == "a"
    with pytest.raises(DuplicateRoomLabel):
        g.add_room(make_room("b", (9, 9, 9), label="LIVING ROOM"))


def test_access_edges_are_symmetric_and_canonical(house2):
    assert ("kitchen", "living room") in house2.access
    house2.add_access("living room", "kitchen")  # same edge, either order
    assert len(house2.access) == 1
    with pytest.raises(SceneGraphError):
        house2.add_access("kitchen", "kitchen")
    with pytest.raises(UnknownRoom):
        house2.add_access("kitchen", "attic")


def test_object_ids_use_label_slug_and_smallest_free_number(house2):
    a = put(house2, "kitchen", "Coffee Mug", (1, 1, 1))
    b = put(house2, "kitchen", "coffee mug", (2, 1, 1))
    assert (a, b) == ("coffee-mug-1", "coffee-mug-2")
    house2.remove_object("kitchen", a)
    c = put(house2, "kitchen", "coffee mug", (3, 1, 1))
    assert c == "coffee-mug-1"  # freed number is reused


def test_a_freed_middle_id_is_reused_on_the_graph_and_on_a_copy(house2):
    ids = [put(house2, "kitchen", "cup", (1 + 0.1 * i, 1, 1)) for i in range(5)]
    assert ids == [f"cup-{n}" for n in range(1, 6)]
    # A label whose slug ends like an id must not disturb the cups' numbering.
    assert put(house2, "kitchen", "cup 3", (2, 2, 1)) == "cup-3-1"
    house2.remove_object("kitchen", "cup-3")
    copy = house2.copy()
    assert put(house2, "kitchen", "cup", (3, 1, 1)) == "cup-3"
    assert put(house2, "kitchen", "cup", (3, 2, 1)) == "cup-6"
    assert put(copy, "kitchen", "cup", (3, 1, 1)) == "cup-3"
    assert put(copy, "kitchen", "cup", (3, 2, 1)) == "cup-6"
    reloaded = deserialize(serialize(house2))
    reloaded.remove_object("kitchen", "cup-2")
    assert put(reloaded, "kitchen", "cup", (3, 3, 1)) == "cup-2"
    assert check_invariants(house2) == check_invariants(copy) == check_invariants(reloaded) == []


def test_every_attached_object_belongs_to_exactly_one_room(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    assert house2.belongs_to[oid] == "kitchen"
    assert check_invariants(house2) == []


def test_add_object_requires_known_room(house2):
    with pytest.raises(UnknownRoom):
        put(house2, "attic", "box", (1, 1, 1))


def test_find_is_scoped_normalized_and_sorted(house2):
    put(house2, "kitchen", "cup", (1, 1, 1))
    put(house2, "living room", "cup", (7, 1, 1))
    put(house2, "kitchen", "CUP", (2, 2, 1))
    assert house2.find("cup") == ["cup-1", "cup-2", "cup-3"]
    assert house2.find(" Cup ", room_scope="kitchen") == ["cup-1", "cup-3"]
    assert house2.find("cup", room_scope="living room") == ["cup-2"]
    assert house2.find("fork") == []


def test_find_skips_detached(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    house2.detach(oid)
    assert house2.find("cup") == []


def test_assign_room_uses_containment_with_volume_ties(house2):
    assert house2.assign_room(Pose.identity((1.0, 1.0, 1.0))) == "kitchen"
    assert house2.assign_room(Pose.identity((8.0, 1.0, 1.0))) == "living room"
    # the shared wall plane x=4 is inside both boxes: smaller volume wins
    assert house2.assign_room(Pose.identity((4.0, 1.0, 1.0))) == "kitchen"
    with pytest.raises(NoContainingRoom):
        house2.assign_room(Pose.identity((50.0, 50.0, 50.0)))


def test_remove_object_enforces_room(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    with pytest.raises(WrongRoom):
        house2.remove_object("living room", oid)
    node = house2.remove_object("kitchen", oid)
    assert node.label == "cup"
    assert oid not in house2.objects and oid not in house2.belongs_to
    with pytest.raises(UnknownObject):
        house2.remove_object("kitchen", oid)


def test_move_object_keeps_id_and_updates_room_and_last_seen(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    new_pose = Pose.identity((8.0, 2.0, 1.0))
    house2.move_object("kitchen", "living room", oid, new_pose, now=42.0)
    node = house2.objects[oid]
    assert house2.belongs_to[oid] == "living room"
    assert node.pose == new_pose
    assert node.last_seen == 42.0
    assert check_invariants(house2) == []


def test_move_object_is_equivalent_to_remove_then_add(house2):
    oid = put(house2, "kitchen", "cup", (1.0, 1.0, 1.0))
    new_pose = Pose.identity((8.0, 2.0, 1.0))

    a = house2.copy()
    a.move_object("kitchen", "living room", oid, new_pose, now=5.0)

    b = house2.copy()
    removed = b.remove_object("kitchen", oid)
    b.add_object("living room", removed.label, new_pose, removed.bbox, removed.decay_rate, 5.0)

    # same content; ids may differ, which is what equivalence ignores
    assert graphs_equivalent(a, b)


def test_detach_reattach_cycle(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    house2.detach(oid)
    assert not house2.objects[oid].attached
    assert oid not in house2.belongs_to
    assert check_invariants(house2) == []
    with pytest.raises(AlreadyDetached):
        house2.detach(oid)
    house2.reattach(oid, "living room", Pose.identity((7.0, 1.0, 1.0)), now=9.0)
    assert house2.belongs_to[oid] == "living room"
    assert house2.objects[oid].last_seen == 9.0
    with pytest.raises(AlreadyAttached):
        house2.reattach(oid, "living room", Pose.identity((7.0, 1.0, 1.0)), now=9.5)


def test_reattach_clears_provisional_pose(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1), pose_provisional=True)
    assert house2.objects[oid].pose_provisional
    house2.detach(oid)
    house2.reattach(oid, "kitchen", Pose.identity((2.0, 1.0, 1.0)), now=1.0)
    assert not house2.objects[oid].pose_provisional


def test_touch_only_refreshes_last_seen(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    before = serialize(house2)
    house2.touch(oid, 77.0)
    assert house2.objects[oid].last_seen == 77.0
    house2.touch(oid, 0.0)  # touch is not monotonic by itself
    assert serialize(house2) == before


def test_copy_is_deep(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    clone = house2.copy()
    clone.remove_object("kitchen", oid)
    assert oid in house2.objects
    assert graphs_equal(house2, house2.copy())


def test_mutating_a_copy_leaves_the_original_bytes_unchanged(house2):
    cup = put(house2, "kitchen", "cup", (1, 1, 1))
    vase = put(house2, "living room", "vase", (7, 3, 1), pose_provisional=True)
    before = serialize(house2)
    clone = house2.copy()
    clone.touch(cup, 50.0)
    clone.move_object("kitchen", "living room", cup, Pose.identity((8, 1, 1)), 60.0)
    clone.detach(vase)
    assert serialize(clone) != before
    assert serialize(house2) == before
    assert check_invariants(house2) == [] and house2.find("cup", room_scope="kitchen") == [cup]


def test_copy_clones_every_node_field_for_field(house2):
    put(house2, "kitchen", "cup", (1, 1, 1))
    put(house2, "living room", "vase", (7, 3, 1), rate=0.0, pose_provisional=True)
    house2.detach(put(house2, "kitchen", "plate", (2, 2, 1)))
    clone = house2.copy()
    # Rooms are frozen values, so the copy shares them; objects are cloned.
    assert clone.rooms is not house2.rooms and list(clone.rooms) == list(house2.rooms)
    assert all(clone.rooms[rid] is room for rid, room in house2.rooms.items())
    with pytest.raises(FrozenInstanceError):
        house2.rooms["kitchen"].label = "pantry"
    assert list(clone.objects) == list(house2.objects)
    for oid, node in house2.objects.items():
        dup = clone.objects[oid]
        assert type(dup) is ObjectNode and dup is not node
        assert dup == node and vars(dup) == vars(node)


# -- serialization -----------------------------------------------------------


def test_serialize_roundtrip_and_byte_determinism(house2):
    put(house2, "kitchen", "cup", (1, 1, 1))
    put(house2, "living room", "vase", (7, 3, 1), rate=0.0002)
    blob = serialize(house2)
    back = deserialize(blob)
    assert graphs_equal(house2, back)
    assert serialize(back) == blob
    assert deserialize(blob.decode("utf-8")).epoch == house2.epoch  # str input too


def test_deserialize_reports_location_of_bad_object():
    g = two_room_graph()
    put(g, "kitchen", "cup", (1, 1, 1))
    payload = json.loads(serialize(g))
    del payload["objects"][0]["pose"]
    with pytest.raises(ParseError, match=r"objects\[0\]"):
        deserialize(json.dumps(payload))


@pytest.mark.parametrize(
    "path, value, where",
    [
        pytest.param(("objects", 0, "pose", "q", 1), "tilted", r"objects\[0\]", id="object-q"),
        pytest.param(("objects", 0, "pose", "t", 2), "high", r"objects\[0\]", id="object-t"),
        pytest.param(("objects", 0, "bbox", 1), "wide", r"objects\[0\]", id="object-bbox"),
        pytest.param(("objects", 0, "decay_rate"), "fast", r"objects\[0\]", id="decay-text"),
        pytest.param(("objects", 0, "last_seen"), "noon", r"objects\[0\]", id="seen-text"),
        pytest.param(("objects", 0, "decay_rate"), float("nan"), r"objects\[0\]", id="decay-nan"),
        pytest.param(("objects", 0, "last_seen"), float("inf"), r"objects\[0\]", id="seen-inf"),
        pytest.param(("rooms", 1, "pose", "t", 0), "east", r"rooms\[1\]", id="room-t"),
        pytest.param(("rooms", 0, "bbox", 2), "deep", r"rooms\[0\]", id="room-bbox"),
        pytest.param(("epoch",), "dawn", r"epoch", id="epoch"),
    ],
)
def test_deserialize_reports_location_of_bad_number(path, value, where):
    with pytest.raises(ParseError, match=where):
        deserialize(payload_with(path, value))  # NaN and Infinity pass as JSON literals


@pytest.mark.parametrize(
    "path, value, where",
    [
        pytest.param(("rooms",), 5, r"^rooms: expected a list", id="rooms"),
        pytest.param(("objects",), {"cup-1": {}}, r"^objects: expected a list", id="objects"),
        pytest.param(("access",), "kitchen", r"^access: expected a list", id="access"),
        pytest.param(("rooms", 0), 5, r"^rooms\[0\]: expected a JSON object", id="room-entry"),
        pytest.param(("objects", 0), "x", r"^objects\[0\]: expected a JSON object", id="object-entry"),
    ],
)
def test_deserialize_reports_location_of_wrong_shape(path, value, where):
    with pytest.raises(ParseError, match=where):
        deserialize(payload_with(path, value))


def payload_with(path, value) -> str:
    """A two-room graph with one cup, as JSON, with ``value`` put at ``path``."""
    g = two_room_graph()
    put(g, "kitchen", "cup", (1, 1, 1))
    payload = json.loads(serialize(g))
    *parents, last = path
    target = payload
    for key in parents:
        target = target[key]
    target[last] = value
    return json.dumps(payload)


def test_deserialize_rejects_malformed_json():
    with pytest.raises(ParseError, match="offset"):
        deserialize(b'{"rooms": [')


def test_deserialize_rejects_unknown_room_reference():
    g = two_room_graph()
    put(g, "kitchen", "cup", (1, 1, 1))
    payload = json.loads(serialize(g))
    payload["belongs_to"]["cup-1"] = "attic"
    with pytest.raises(ParseError, match="unknown room id"):
        deserialize(json.dumps(payload))


def test_deserialize_rejects_invariant_violations():
    g = two_room_graph()
    put(g, "kitchen", "cup", (1, 1, 1))
    payload = json.loads(serialize(g))
    del payload["belongs_to"]["cup-1"]  # attached object with no home room
    with pytest.raises(ParseError, match="invariants"):
        deserialize(json.dumps(payload))


def test_graphs_equal_ignore_last_seen_mode(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    other = house2.copy()
    other.touch(oid, 123.0)
    other.epoch = 99.0
    assert not graphs_equal(house2, other)
    assert graphs_equal(house2, other, ignore_last_seen=True)


def test_graphs_equivalent_ignores_ids_but_not_content(house2):
    a = house2.copy()
    put(a, "kitchen", "cup", (1, 1, 1))
    b = house2.copy()
    put(b, "kitchen", "cup", (3.9, 1, 1))  # takes cup-1, then vanishes
    put(b, "kitchen", "cup", (1, 1, 1))
    b.remove_object("kitchen", "cup-1")
    assert a.find("cup") != b.find("cup")  # cup-1 vs cup-2
    assert graphs_equivalent(a, b)
    b.objects[b.find("cup")[0]].label = "bowl"
    assert not graphs_equivalent(a, b)


# -- randomized battering ----------------------------------------------------


def test_long_random_primitive_sequence_keeps_invariants():
    """Invariants plus the room indexes checked against brute-force scans.

    A quarter of adds, moves and reattaches put the object at a random spot
    (either room or outside the house) whatever room they name, so member
    boxes and room boxes disagree. Every 300 steps the graph is reloaded,
    which refits the member boxes tightly.
    """
    rng = random.Random(20260813)
    g = two_room_graph()
    rooms = ["kitchen", "living room"]
    labels = ["cup", "plate", "vase", "book"]
    spots = {"kitchen": (2.0, 2.0, 1.0), "living room": (7.0, 2.0, 1.0)}
    cam = CameraModel(fov_h=1.2, fov_v=1.0, min_range=0.2, max_range=3.0)
    cameras = [
        yaw_pose((0.5, 2.0, 1.0), 0.0),
        yaw_pose((9.5, 2.0, 1.0), math.pi),
        yaw_pose((4.0, 0.2, 1.0), math.pi / 2),
        yaw_pose((-2.5, 2.0, 1.0), 0.0),
    ]
    detached: list[str] = []

    def spot_for(room):
        if rng.random() < 0.25:  # anywhere, whatever room is named
            x, y, z = rng.choice([spots["kitchen"], spots["living room"], (12.0, 2.0, 1.0)])
        else:
            x, y, z = spots[room]
        return (x + rng.uniform(-1, 1), y + rng.uniform(-1, 1), z + rng.uniform(-0.5, 0.5))

    for step in range(1200):
        op = rng.choice(["add", "remove", "move", "touch", "detach", "reattach"])
        attached = [oid for oid in sorted(g.objects) if g.objects[oid].attached]
        if op == "add" or not attached and op in ("remove", "move", "touch", "detach"):
            room = rng.choice(rooms)
            put(g, room, rng.choice(labels), spot_for(room), rate=rng.choice([0.0, 0.05, 0.05]))
        elif op == "remove":
            oid = rng.choice(attached)
            g.remove_object(g.rooms[g.belongs_to[oid]].label, oid)
        elif op == "move":
            oid = rng.choice(attached)
            room = rng.choice(rooms)
            g.move_object(
                g.rooms[g.belongs_to[oid]].label,
                room,
                oid,
                Pose.identity(spot_for(room)),
                now=float(step),
            )
        elif op == "touch":
            g.touch(rng.choice(attached), float(step))
        elif op == "detach":
            oid = rng.choice(attached)
            g.detach(oid)
            detached.append(oid)
        elif op == "reattach" and detached:
            oid = detached.pop()
            room = rng.choice(rooms)
            g.reattach(oid, room, Pose.identity(spot_for(room)), now=float(step))
        if step % 300 == 299:
            g = deserialize(serialize(g))
        assert check_invariants(g) == [], f"invariants broke at step {step}"

        for room in rooms:
            rid = g.room_by_label(room).id
            in_room = sorted(oid for oid, r in g.belongs_to.items() if r == rid)
            assert g.objects_in_room(rid) == in_room, f"objects_in_room at step {step}"
            for label in labels:
                want = [oid for oid in in_room if g.objects[oid].label == label]
                assert g.find(label, room_scope=room) == want, f"find at step {step}"
        for pose in cameras:
            want = sorted(
                oid
                for oid, node in g.objects.items()
                if node.attached and node.decay_rate > 0.0 and point_in_frustum(pose, cam, node.pose.t)
            )
            assert expected_visible(g, pose, cam) == want, f"expected_visible at step {step}"

    # the survivors still serialize deterministically
    assert serialize(deserialize(serialize(g))) == serialize(g)
