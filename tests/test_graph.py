"""Scene-graph container: topology rules, primitives, serialization."""
import json
import random

import pytest

from sgupdate.geometry import BBox3, Pose
from sgupdate.graph import (
    AlreadyAttached,
    AlreadyDetached,
    DuplicateRoomLabel,
    NoContainingRoom,
    ObjectNode,
    ParseError,
    RoomNode,
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

from conftest import make_room, put, two_room_graph


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


def test_copy_clones_every_node_field_for_field(house2):
    put(house2, "kitchen", "cup", (1, 1, 1))
    put(house2, "living room", "vase", (7, 3, 1), rate=0.0, pose_provisional=True)
    house2.detach(put(house2, "kitchen", "plate", (2, 2, 1)))
    clone = house2.copy()
    for originals, copies, cls in (
        (house2.rooms, clone.rooms, RoomNode),
        (house2.objects, clone.objects, ObjectNode),
    ):
        assert list(copies) == list(originals)
        for key, node in originals.items():
            dup = copies[key]
            assert type(dup) is cls and dup is not node
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
    rng = random.Random(20260813)
    g = two_room_graph()
    rooms = ["kitchen", "living room"]
    labels = ["cup", "plate", "vase", "book"]
    spots = {"kitchen": (2.0, 2.0, 1.0), "living room": (7.0, 2.0, 1.0)}
    detached: list[str] = []

    for step in range(1200):
        op = rng.choice(["add", "remove", "move", "touch", "detach", "reattach"])
        attached = [oid for oid in sorted(g.objects) if g.objects[oid].attached]
        if op == "add" or not attached and op in ("remove", "move", "touch", "detach"):
            room = rng.choice(rooms)
            x, y, z = spots[room]
            put(g, room, rng.choice(labels), (x + rng.uniform(-1, 1), y + rng.uniform(-1, 1), z))
        elif op == "remove":
            oid = rng.choice(attached)
            g.remove_object(g.rooms[g.belongs_to[oid]].label, oid)
        elif op == "move":
            oid = rng.choice(attached)
            room = rng.choice(rooms)
            x, y, z = spots[room]
            g.move_object(
                g.rooms[g.belongs_to[oid]].label,
                room,
                oid,
                Pose.identity((x + rng.uniform(-1, 1), y + rng.uniform(-1, 1), z)),
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
            x, y, z = spots[room]
            g.reattach(oid, room, Pose.identity((x, y, z)), now=float(step))
        assert check_invariants(g) == [], f"invariants broke at step {step}"

    # the survivors still serialize deterministically
    assert serialize(deserialize(serialize(g))) == serialize(g)
