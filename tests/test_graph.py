"""Scene-graph container: topology rules, primitives, serialization."""
import ast
import gc
import json
import math
import random
from dataclasses import FrozenInstanceError, fields
from importlib import resources
from pathlib import Path

import pytest

import sgupdate
from sgupdate.decay import stale_targets
from sgupdate.geometry import BBox3, Pose, point_in_aabb
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
    graph_from_payload,
    graph_to_payload,
    graphs_equal,
    graphs_equivalent,
    serialize,
)

from sgupdate.perception import CameraModel, expected_visible, point_in_frustum
from sgupdate.simworld import load_house

from conftest import make_room, put, stale_sweep, two_room_graph, yaw_pose


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


@pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("primitive", ["touch", "move_object", "reattach"])
def test_a_primitive_refuses_a_non_finite_time_before_any_write(house2, primitive, now):
    """The time ``add_object`` refuses is refused by the other writers of
    ``last_seen`` too, before a node is cloned or the stale index is told."""
    cup = put(house2, "kitchen", "cup", (1, 1, 1))
    plate = put(house2, "kitchen", "plate", (2, 2, 1))
    house2.detach(plate)
    stale_targets(house2, 1.0, 0.5)  # builds the index, so a write would reach it
    before, nodes = serialize(house2), dict(house2.objects)
    calls = {
        "touch": lambda: house2.touch(cup, now),
        "move_object": lambda: house2.move_object("kitchen", "living room", cup, Pose.identity((8, 1, 1)), now),
        "reattach": lambda: house2.reattach(plate, "kitchen", Pose.identity((2, 3, 1)), now),
    }
    with pytest.raises(ValueError) as refused:
        calls[primitive]()
    with pytest.raises(ValueError) as added:
        put(house2.copy(), "kitchen", "cup", (1, 1, 1), now=now)
    assert str(refused.value) == str(added.value) == f"last_seen must be finite, got {now!r}"
    assert serialize(house2) == before
    assert all(house2.objects[oid] is node for oid, node in nodes.items())
    assert house2.stale_index.written == set()


def test_copy_is_deep(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    clone = house2.copy()
    clone.remove_object("kitchen", oid)
    assert oid in house2.objects
    assert graphs_equal(house2, house2.copy())


def three_objects(g):
    """A cup, a provisional vase, a detached plate and a book."""
    put(g, "kitchen", "cup", (1, 1, 1))
    put(g, "living room", "vase", (7, 3, 1), pose_provisional=True)
    g.detach(put(g, "kitchen", "plate", (2, 2, 1)))
    put(g, "kitchen", "book", (3, 1, 1))


def test_mutating_a_copy_leaves_the_original_bytes_unchanged(house2):
    """All six primitives, run on either side of a copy, leave the other side as it was."""
    three_objects(house2)
    before = serialize(house2)
    kitchen = {label: house2.find(label, room_scope="kitchen") for label in ("cup", "book", "plate")}
    for edited_side in ("copy", "original"):
        original = deserialize(before)
        clone = original.copy()
        edited, kept = (clone, original) if edited_side == "copy" else (original, clone)
        edited.touch("cup-1", 50.0)
        edited.move_object("kitchen", "living room", "cup-1", Pose.identity((8, 1, 1)), 60.0)
        edited.detach("vase-1")
        edited.reattach("plate-1", "living room", Pose.identity((6, 3, 1)), 70.0)
        edited.remove_object("kitchen", "book-1")
        put(edited, "kitchen", "cup", (3, 3, 1), now=80.0)
        assert serialize(edited) != before and check_invariants(edited) == [], edited_side
        assert serialize(kept) == before, edited_side
        assert check_invariants(kept) == [], edited_side
        for label, ids in kitchen.items():
            assert kept.find(label, room_scope="kitchen") == ids, (edited_side, label)
        assert kept.find("vase", room_scope="living room") == ["vase-1"], edited_side


def test_copy_shares_every_node_and_a_primitive_replaces_only_its_own(house2):
    three_objects(house2)
    clone = house2.copy()
    # Rooms are frozen and object nodes are never edited in place, so a copy
    # shares every one of them and allocates no node.
    assert clone.rooms is not house2.rooms and clone.objects is not house2.objects
    with pytest.raises(FrozenInstanceError):
        house2.rooms["kitchen"].label = "pantry"
    assert all(clone.rooms[rid] is room for rid, room in house2.rooms.items())
    assert list(clone.objects) == list(house2.objects)
    assert all(clone.objects[oid] is node for oid, node in house2.objects.items())
    shared = dict(house2.objects)
    edits = [
        ("cup-1", lambda g: g.touch("cup-1", 5.0)),
        ("book-1", lambda g: g.move_object("kitchen", "living room", "book-1", Pose.identity((9, 1, 1)), 6.0)),
        ("vase-1", lambda g: g.detach("vase-1")),
        ("plate-1", lambda g: g.reattach("plate-1", "kitchen", Pose.identity((2, 3, 1)), 7.0)),
    ]
    for i, (oid, edit) in enumerate(edits):
        edit(clone)
        node = clone.objects[oid]
        assert type(node) is ObjectNode and node is not shared[oid], oid
        assert house2.objects[oid] is shared[oid], oid
        for other, _ in edits[i + 1 :]:  # not edited yet: still the shared node
            assert clone.objects[other] is shared[other], (oid, other)
    assert clone.objects["cup-1"].last_seen == 5.0 and shared["cup-1"].last_seen == 0.0
    assert clone.objects["plate-1"].attached and not shared["plate-1"].attached


def test_assign_room_matches_point_in_aabb_brute_force():
    """Random and boundary points against overlapping rooms, two of equal volume."""
    rng = random.Random(7)
    g = SceneGraph()
    g.add_room(make_room("a", (0.0, 0.0, 1.0), (4.0, 2.0, 4.0)))
    g.add_room(make_room("b", (2.0, 0.0, 1.0), (4.0, 2.0, 4.0)))  # same volume, overlaps a
    g.add_room(make_room("c", (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)))  # smaller, inside a and b
    g.add_room(make_room("d", (0.1, 0.3, 0.7), (0.3, 0.7, 1.1)))  # sizes not exact in binary
    rooms = list(g.rooms.values())
    points = [(rng.uniform(-3, 5), rng.uniform(-3, 4), rng.uniform(-2, 4)) for _ in range(3000)]
    for room in rooms:  # each corner, edge and face centre, and one ulp either side
        (cx, cy, cz), (hx, hy, hz) = room.pose.t, room.bbox.half_sizes_xyz()
        for sx in (-1, 0, 1):
            for sy in (-1, 0, 1):
                for sz in (-1, 0, 1):
                    p = (cx + sx * hx, cy + sy * hy, cz + sz * hz)
                    points.append(p)
                    points.append(tuple(math.nextafter(v, math.inf) for v in p))
                    points.append(tuple(math.nextafter(v, -math.inf) for v in p))
    for p in points:
        hits = sorted(
            (room.bbox.volume, room.id)
            for room in rooms
            if point_in_aabb(p, room.pose.t, room.bbox.half_sizes_xyz())
        )
        if hits:
            assert g.assign_room(Pose.identity(p)) == hits[0][1], p
        else:
            with pytest.raises(NoContainingRoom):
                g.assign_room(Pose.identity(p))
    assert g.assign_room(Pose.identity((1.0, 0.0, 1.0))) == "c"
    assert g.assign_room(Pose.identity((1.0, -1.0, 1.0))) == "a"  # ties b on volume: smaller id
    clone = g.copy()
    assert clone.assign_room(Pose.identity((2.5, 0.0, 1.0))) == "b"
    clone.add_room(make_room("e", (20.0, 20.0, 20.0)))  # the copy's room is not the original's
    assert clone.assign_room(Pose.identity((20.0, 20.0, 20.0))) == "e"
    with pytest.raises(NoContainingRoom):
        g.assign_room(Pose.identity((20.0, 20.0, 20.0)))
    assert check_invariants(g) == check_invariants(clone) == []


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
    with pytest.raises(ParseError, match=r"^objects\[0\]: missing key 'pose'$"):
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
        pytest.param(("epoch",), float("nan"), r"^epoch must be finite, got nan$", id="epoch-nan"),
        pytest.param(("epoch",), float("inf"), r"^epoch must be finite, got inf$", id="epoch-inf"),
        pytest.param(("epoch",), True, r"^epoch must be a number, got True$", id="epoch-bool"),
        pytest.param(
            ("objects", 0, "decay_rate"), True, r"^objects\[0\]: decay_rate must be a number",
            id="decay-bool",
        ),
        pytest.param(
            ("objects", 0, "last_seen"), "4", r"^objects\[0\]: last_seen must be a number",
            id="seen-numeral",
        ),
        pytest.param(
            ("objects", 0, "pose", "t", 0), "1",
            r"^objects\[0\]: translation\[0\] must be a number, got '1'$", id="t-numeral",
        ),
        pytest.param(
            ("objects", 0, "bbox", 0), True, r"^objects\[0\]: bbox\[0\] must be a number, got True$",
            id="bbox-bool",
        ),
        pytest.param(
            ("rooms", 0, "pose", "q", 0), True,
            r"^rooms\[0\]: quaternion\[0\] must be a number, got True$", id="q-bool",
        ),
        pytest.param(
            ("objects", 0, "pose", "t"), "123",
            r"^objects\[0\]: translation must be a list of 3 numbers, got '123'$", id="t-numerals",
        ),
        pytest.param(
            ("rooms", 0, "pose", "q"), "1000",
            r"^rooms\[0\]: quaternion must be a list of 4 numbers, got '1000'$", id="q-numerals",
        ),
        pytest.param(
            ("objects", 0, "bbox"), "111",
            r"^objects\[0\]: bbox must be a list of 3 numbers, got '111'$", id="bbox-numerals",
        ),
    ],
)
def test_deserialize_reports_location_of_bad_number(path, value, where):
    with pytest.raises(ParseError, match=where):
        deserialize(payload_with(path, value))  # NaN and Infinity pass as JSON literals


@pytest.mark.parametrize(
    "path, value, where",
    [
        pytest.param(("rooms",), 5, r"^rooms must be a list, got 5$", id="rooms"),
        pytest.param(
            ("objects",), {"cup-1": {}}, r"^objects must be a list, got \{'cup-1': \{\}\}$", id="objects"
        ),
        pytest.param(("access",), "kitchen", r"^access must be a list, got 'kitchen'$", id="access"),
        pytest.param(("rooms", 0), 5, r"^rooms\[0\] must be an object, got 5$", id="room-entry"),
        pytest.param(("objects", 0), "x", r"^objects\[0\] must be an object, got 'x'$", id="object-entry"),
        pytest.param(
            ("objects", 0, "label"), None, r"^objects\[0\]: label must be a string", id="null-label"
        ),
        pytest.param(("rooms", 0, "label"), 5, r"^rooms\[0\]: label must be a string", id="number-label"),
        pytest.param(("rooms", 1, "id"), None, r"^rooms\[1\]: id must be a string", id="null-room-id"),
        pytest.param(
            ("objects", 0, "attached"), "x", r"^objects\[0\]: attached must be true or false",
            id="text-flag",
        ),
        pytest.param(
            ("objects", 0, "pose_provisional"), 0,
            r"^objects\[0\]: pose_provisional must be true or false", id="number-flag",
        ),
        pytest.param(("access", 0, 1), 5, r"^access\[0\]\[1\] must be a string, got 5$", id="number-access"),
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
    with pytest.raises(ParseError, match=r"^a graph document must be an object, got \[1\]$"):
        deserialize(b"[1]")


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


def test_deserialize_rejects_an_edge_to_a_detached_object():
    g = two_room_graph()
    g.detach(put(g, "kitchen", "cup", (1, 1, 1)))
    payload = json.loads(serialize(g))
    payload["belongs_to"]["cup-1"] = "kitchen"
    with pytest.raises(ParseError, match="^document violates graph invariants: belongs_to keys"):
        deserialize(json.dumps(payload))


def test_deserialize_refuses_an_integer_too_long_for_python():
    with pytest.raises(ParseError, match="4300 digits"):
        deserialize('{"epoch": ' + "1" * 5000 + "}")


@pytest.mark.parametrize(
    "path, value, message",
    [
        pytest.param(
            ("objects", 0, "label"), "   ", r"^objects\[0\]: label must not be blank, got '   '$",
            id="object-label",
        ),
        pytest.param(("rooms", 1, "label"), "", r"^rooms\[1\]: label must not be blank, got ''$", id="room-label"),
        pytest.param(
            ("rooms", 1, "id"), "kitchen", r"^rooms\[1\]: room id 'kitchen' already present$", id="room-id"
        ),
        pytest.param(
            ("rooms", 1, "label"), " Kitchen", r"^rooms\[1\]: room label 'kitchen' already present$",
            id="room-label-twice",
        ),
        pytest.param(
            ("access", 0, 1), "attic",
            r"^access\[0\]: access edge references unknown room: 'kitchen'/'attic'$", id="access-room",
        ),
        pytest.param(
            ("access", 0, 1), "kitchen",
            r"^access\[0\]: access edge \('kitchen', 'kitchen'\) must connect two distinct rooms$",
            id="access-loop",
        ),
    ],
)
def test_deserialize_names_the_entry_a_graph_rule_refuses(path, value, message):
    with pytest.raises(ParseError, match=message):
        deserialize(payload_with(path, value))


def test_a_node_label_must_not_be_blank(house2):
    with pytest.raises(ValueError, match=r"^label must not be blank, got ' \\t '$"):
        put(house2, "kitchen", " \t ", (1, 1, 1))
    with pytest.raises(ValueError, match=r"^label must not be blank, got ''$"):
        house2.add_room(RoomNode(id="attic", label="", pose=Pose.identity(), bbox=BBox3((1.0, 1.0, 1.0))))
    assert check_invariants(house2) == [] and not house2.objects and "attic" not in house2.rooms


# -- canonical bytes and the collector ---------------------------------------


def canonical_bytes(graph) -> bytes:
    """The bytes ``serialize`` must give: the payload dumped with sorted keys."""
    return json.dumps(graph_to_payload(graph), sort_keys=True, separators=(",", ":")).encode("utf-8")


def unsorted_dicts(value) -> list[list]:
    """The key lists of every dict in ``value`` whose keys are out of sorted order."""
    if isinstance(value, dict):
        found = [] if list(value) == sorted(value) else [list(value)]
        return found + [keys for v in value.values() for keys in unsorted_dicts(v)]
    if isinstance(value, (list, tuple)):
        return [keys for v in value for keys in unsorted_dicts(v)]
    return []


def generated_graph(n: int = 5000) -> SceneGraph:
    """``n`` objects spread over two rooms, a few of them detached."""
    g = two_room_graph()
    labels = ["cup", "plate", "vase", "book", "tv remote"]
    for i in range(n):
        room, x0, width = (("kitchen", 0.5, 3.0), ("living room", 4.5, 5.0))[i % 2]
        t = (x0 + width * (i % 97) / 97, 0.5 + 3.0 * (i % 13) / 13, 1.0)
        oid = put(g, room, labels[i % len(labels)], t, now=float(i))
        if i % 50 == 0:
            g.detach(oid)
    return g


@pytest.mark.parametrize("graph", [load_house, generated_graph], ids=["packaged", "generated"])
def test_serialize_writes_the_sorted_key_dump(graph):
    g = graph()
    assert serialize(g) == canonical_bytes(g)
    assert unsorted_dicts(graph_to_payload(g)) == []


def per_value_reads(blob) -> int:
    """How many object nodes loading ``blob`` built through the per-value readers
    (``ObjectNode.__post_init__``) rather than the loader's common case."""
    built = []
    check = ObjectNode.__post_init__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ObjectNode, "__post_init__", lambda node: built.append(check(node)))
        deserialize(blob)
    return len(built)


@pytest.mark.parametrize("graph", [load_house, generated_graph], ids=["packaged", "generated"])
def test_loading_what_serialize_writes_takes_the_common_case_for_every_object(graph):
    g = graph()
    blob = serialize(g)
    assert per_value_reads(blob) == 0
    # the same document as tuples, which only the per-value readers take
    assert serialize(graph_from_payload(graph_to_payload(g))) == blob
    assert per_value_reads(payload_with(("objects", 0, "decay_rate"), 0)) == 1  # the count sees one


def test_a_load_files_one_string_per_label():
    back = deserialize(serialize(generated_graph(50)))
    labels = {}
    for node in back.objects.values():
        assert labels.setdefault(node.label, node.label) is node.label


def test_unsorted_dict_scan_finds_nested_dicts():
    value = {"a": [{"t": 1, "q": 2}], "b": {"y": {"d": 1, "c": 2}, "z": 0}}
    assert unsorted_dicts(value) == [["t", "q"], ["d", "c"]]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_load_and_save_leave_the_collector_as_they_found_it(enabled, house2):
    put(house2, "kitchen", "cup", (1, 1, 1))
    blob = serialize(house2)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        deserialize(blob)
        after_load = gc.isenabled()
        serialize(house2)
        after_save = gc.isenabled()
        with pytest.raises(ParseError):
            deserialize(b'{"rooms": [')
        after_bad_json = gc.isenabled()
        with pytest.raises(ParseError):
            deserialize(payload_with(("objects", 0, "pose", "t", 0), math.nan))
        after_bad_graph = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after_load is after_save is after_bad_json is after_bad_graph is enabled


def test_a_large_load_leaves_no_collection_to_the_caller():
    blob = serialize(generated_graph())
    gc.collect()
    g = deserialize(blob)
    gc.disable()  # what the load left, before an allocation here can start a pass
    try:
        young = gc.get_count()[0]
        middle = {id(value) for value in gc.get_objects(generation=1)}
    finally:
        gc.enable()
    assert len(g.objects) == 5000
    assert young <= gc.get_threshold()[0]
    # the nodes went straight to the oldest generation: no middle pass over them is pending
    assert not any(id(node) in middle for node in g.objects.values())


def test_loading_the_packaged_house_runs_no_collection():
    text = resources.files("sgupdate.data").joinpath("house.json").read_text("utf-8")
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        deserialize(text)
    finally:
        gc.callbacks.remove(count)
    assert passes == []


def test_nodes_and_geometry_carry_no_instance_dict(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    house2.touch(oid, 1.0)  # a primitive's clone
    node = house2.objects[oid]
    for value in (node, node.pose, node.bbox, house2.room_by_label("kitchen")):
        assert not hasattr(value, "__dict__"), type(value).__name__


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
    """Invariants plus the room and staleness indexes checked against brute-force scans.

    A quarter of adds, moves and reattaches put the object at a random spot
    (either room or outside the house) whatever room they name, so member
    boxes and room boxes disagree. Every 300 steps the graph is reloaded,
    which refits the member boxes tightly. Every 50 steps a copy is put
    aside; at the end each must still have the bytes it was taken with.
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
    snapshots: list[tuple[SceneGraph, bytes]] = []  # copies taken along the way, never edited

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
        if step % 50 == 0:
            snapshot = g.copy()
            snapshots.append((snapshot, serialize(snapshot)))
        assert check_invariants(g) == [], f"invariants broke at step {step}"
        assert serialize(g) == canonical_bytes(g), f"serialize is not the sorted dump at step {step}"
        want = stale_sweep(g, float(step), 0.5)
        assert stale_targets(g, float(step), 0.5) == want, f"stale_targets at step {step}"

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
    # later edits of the graph never reached a copy taken earlier
    for snapshot, blob in snapshots:
        assert serialize(snapshot) == blob and check_invariants(snapshot) == []


# -- who may write a node ----------------------------------------------------

# Copies share object nodes, so a field written anywhere but on a node a
# primitive has just cloned into its own graph would change every graph
# that holds the node.
NODE_FIELDS = {f.name for f in fields(ObjectNode)}
NODE_WRITERS = {("SceneGraph", name) for name in ("move_object", "detach", "reattach", "touch")}


def node_field_writes(source: str) -> list[tuple[tuple[str, ...], int, str]]:
    """``(scope, line, field)`` of each write to an ``ObjectNode`` field name
    that is outside ``ObjectNode``, the primitives in ``NODE_WRITERS`` and a
    ``__post_init__`` writing its own fresh ``self``.

    A write is an assignment to ``<expr>.<field>`` or a ``setattr`` /
    ``object.__setattr__`` call naming the field as a string literal. Types
    are not known here, so a write to another class's field of the same name
    counts too.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            written = []  # (object expression, field)
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                            written.append((sub.value, sub.attr))
            elif isinstance(child, ast.Call) and len(child.args) >= 2:
                func, name = child.func, child.args[1]
                is_setattr = (isinstance(func, ast.Name) and func.id == "setattr") or (
                    isinstance(func, ast.Attribute) and func.attr == "__setattr__"
                )
                if is_setattr and isinstance(name, ast.Constant) and isinstance(name.value, str):
                    written.append((child.args[0], name.value))
            for obj, field in written:
                fresh_self = scope[-1:] == ("__post_init__",) and isinstance(obj, ast.Name) and obj.id == "self"
                if field in NODE_FIELDS and not (
                    scope[:1] == ("ObjectNode",) or scope in NODE_WRITERS or fresh_self
                ):
                    found.append((scope, child.lineno, field))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_the_primitives_write_object_node_fields():
    package = Path(sgupdate.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert package / "graph.py" in sources
    offenders = [
        f"{path.name}:{line} ({'.'.join(scope) or 'module'}) writes .{field}"
        for path in sources
        for scope, line, field in node_field_writes(path.read_text("utf-8"))
    ]
    assert offenders == []


def test_node_field_write_check_flags_writes_outside_the_primitives():
    source = """
class SceneGraph:
    def touch(self, target, now):
        node = self.objects[target] = self.objects[target]._clone()
        node.last_seen = now
    def copy(self):
        self.objects["x"].pose = None
class RoomNode:
    def __post_init__(self):
        object.__setattr__(self, "label", "x")
        object.__setattr__(other, "label", "x")
def refresh(graph, oid, now):
    graph.objects[oid].last_seen = now
    node = graph.objects[oid]
    node.attached, node.bbox = False, None
    node.decay_rate += 1.0
    setattr(node, "pose_provisional", True)
    node.note = "not a node field"
"""
    assert node_field_writes(source) == [
        (("SceneGraph", "copy"), 7, "pose"),
        (("RoomNode", "__post_init__"), 11, "label"),
        (("refresh",), 13, "last_seen"),
        (("refresh",), 15, "attached"),
        (("refresh",), 15, "bbox"),
        (("refresh",), 16, "decay_rate"),
        (("refresh",), 17, "pose_provisional"),
    ]
