"""Scene-graph container: topology rules, primitives, serialization."""
import ast
import gc
import json
import math
import random
import re
import sys
from dataclasses import FrozenInstanceError, fields
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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

from sgupdate.perception import CameraModel, expected_visible
from sgupdate.simworld import load_house

from conftest import (
    linked_load,
    make_room,
    put,
    row_document,
    row_payload,
    stale_sweep,
    two_room_graph,
    visible_oracle,
    yaw_pose,
)


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
    assert house2.objects[oid].room == "kitchen"
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
    assert oid not in house2.objects and house2.objects_in_room("kitchen") == []
    with pytest.raises(UnknownObject):
        house2.remove_object("kitchen", oid)


def test_move_object_keeps_id_and_updates_room_and_last_seen(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    new_pose = Pose.identity((8.0, 2.0, 1.0))
    house2.move_object("kitchen", "living room", oid, new_pose, now=42.0)
    node = house2.objects[oid]
    assert node.room == "living room" and house2.objects_in_room("living room") == [oid]
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
    assert not house2.objects[oid].attached and house2.objects[oid].room is None
    assert house2.objects_in_room("kitchen") == []
    assert check_invariants(house2) == []
    with pytest.raises(AlreadyDetached):
        house2.detach(oid)
    house2.reattach(oid, "living room", Pose.identity((7.0, 1.0, 1.0)), now=9.0)
    assert house2.objects[oid].room == "living room"
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
    plate = put(house2, "kitchen", "plate", (2, 2, 1))
    book = put(house2, "kitchen", "book", (3, 1, 1))
    house2.detach(plate)  # a held object is refreshed too
    before, nodes = serialize(house2), dict(house2.objects)
    house2.touch([], 5.0)  # no ids: no node is written
    assert serialize(house2) == before
    assert all(house2.objects[i] is node for i, node in nodes.items())
    house2.touch([plate, oid], 77.0)
    assert [house2.objects[i].last_seen for i in (oid, plate, book)] == [77.0, 77.0, 0.0]
    house2.touch([oid, plate], 0.0)  # touch is not monotonic by itself
    assert serialize(house2) == before


@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
def test_touch_refuses_an_unknown_id_anywhere_before_any_write(house2, where):
    ids = [put(house2, "kitchen", "cup", (1, 1, 1)), put(house2, "kitchen", "plate", (2, 2, 1))]
    ids.insert(where, "vase-9")
    before, nodes = serialize(house2), dict(house2.objects)
    with pytest.raises(UnknownObject, match="vase-9"):
        house2.touch(ids, 5.0)
    assert serialize(house2) == before
    assert all(house2.objects[oid] is node for oid, node in nodes.items())


@pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("primitive", ["touch", "move_object", "reattach"])
def test_a_primitive_refuses_a_non_finite_time_before_any_write(house2, primitive, now):
    """The time ``add_object`` refuses is refused by the other writers of
    ``last_seen`` too, before a node is cloned."""
    cup = put(house2, "kitchen", "cup", (1, 1, 1))
    plate = put(house2, "kitchen", "plate", (2, 2, 1))
    house2.detach(plate)
    before, nodes = serialize(house2), dict(house2.objects)
    calls = {
        "touch": lambda: house2.touch([cup, plate], now),
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


def test_copy_is_deep(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    clone = house2.copy()
    clone.remove_object("kitchen", oid)
    assert oid in house2.objects
    assert graphs_equal(house2, house2.copy())


def id_floors(graph: SceneGraph) -> dict[str, int]:
    """The floor each slug's next id is probed from: the graph's own floor,
    else the floor it shares with its copies."""
    return {**graph._shared_floor, **graph._id_floor}


def test_a_copy_keeps_the_id_floors_its_source_learned(house2):
    for i in range(3):
        put(house2, "kitchen", "coffee mug", (1 + 0.1 * i, 1, 1))
    clone = house2.copy()
    assert id_floors(clone) == id_floors(house2) == {"coffee-mug": 3}
    assert check_invariants(clone) == []
    assert put(clone, "kitchen", "coffee mug", (2, 1, 1)) == "coffee-mug-4"
    assert id_floors(house2) == {"coffee-mug": 3}


class Probes(dict):
    """An ``objects`` map that records each id a membership test asks for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked: list[str] = []

    def __contains__(self, oid):
        self.asked.append(oid)
        return super().__contains__(oid)


def test_a_copy_learns_an_id_floor_through_its_source_and_the_source_keeps_it(house2):
    for i in range(4):
        put(house2, "kitchen", "cup", (1 + 0.1 * i, 1, 1))
    loaded = deserialize(serialize(house2))
    assert id_floors(loaded) == {}  # a load learns no floor
    second, first = loaded.copy(), loaded.copy()
    assert put(first, "kitchen", "cup", (2, 1, 1)) == "cup-5"
    assert id_floors(loaded) == {"cup": 5}  # the copy's floor, which holds for the source's ids too
    # A copy taken before the source learned the floor starts from it: its
    # first add of a cup probes one id, not cup-1 to cup-5.
    second.objects = Probes(second.objects)
    assert put(second, "kitchen", "cup", (2, 2, 1)) == "cup-5"
    assert second.objects.asked == ["cup-5"]
    # An add or a removal in the source makes that slug its own: its later ids
    # of the slug are not the copies'.
    third = loaded.copy()
    assert [put(loaded, "kitchen", "vase", (3, 1, 1)) for _ in range(2)] == ["vase-1", "vase-2"]
    assert put(third, "kitchen", "vase", (3, 2, 1)) == "vase-1"
    loaded.remove_object("kitchen", "cup-2")
    assert put(loaded, "kitchen", "cup", (3, 3, 1)) == "cup-2"
    assert put(third, "kitchen", "cup", (3, 3, 1)) == "cup-5"
    for g in (loaded, first, second, third):
        assert check_invariants(g) == []


def test_a_copy_keeps_learning_floors_after_its_source_adds_another_label(house2):
    for i in range(4):
        put(house2, "kitchen", "cup", (1 + 0.1 * i, 1, 1))
    loaded = deserialize(serialize(house2))
    early = loaded.copy()
    assert put(loaded.copy(), "kitchen", "cup", (2, 1, 1)) == "cup-5"
    assert put(loaded, "kitchen", "vase", (3, 1, 1)) == "vase-1"
    # The source's vase leaves its cups as loaded, so the floor a second copy
    # found still serves the early copy: its next cup probes one id.
    early.objects = Probes(early.objects)
    assert put(early, "kitchen", "cup", (2, 2, 1)) == "cup-5"
    assert early.objects.asked == ["cup-5"]
    assert check_invariants(early) == check_invariants(loaded) == []


def test_a_copy_that_removed_an_id_never_starts_above_it():
    g = two_room_graph()
    for i in range(3):
        put(g, "kitchen", "cup", (1 + 0.1 * i, 1, 1))
    loaded = deserialize(serialize(g))
    put(loaded.copy(), "kitchen", "cup", (2, 1, 1))  # the source learns floor 4
    clone = loaded.copy()
    clone.remove_object("kitchen", "cup-2")
    assert id_floors(clone)["cup"] == 1
    assert put(clone, "kitchen", "cup", (2, 2, 1)) == "cup-2"
    assert put(clone, "kitchen", "cup", (2, 2, 1)) == "cup-4"


def test_check_invariants_reads_the_shared_floor_of_each_slug_the_graph_does_not_own():
    g = two_room_graph()
    for i in range(3):
        put(g, "kitchen", "cup", (1 + 0.1 * i, 1, 1))
    loaded = deserialize(serialize(g))
    put(loaded.copy(), "kitchen", "cup", (2, 1, 1))  # the shared floor of cup is 4
    clone = loaded.copy()
    clone.remove_object("kitchen", "cup-2")
    # The clone owns cup now, so the shared floor, which skips its free cup-2,
    # is not the clone's.
    assert check_invariants(clone) == check_invariants(loaded) == []
    loaded._shared_floor["vase"] = 2
    for member in (loaded, clone):
        assert check_invariants(member) == ["id floor 2 of 'vase' skips a free id"]


def test_a_long_chain_of_copies_learns_a_floor_without_recursing():
    g = two_room_graph()
    for i in range(3):
        put(g, "kitchen", "cup", (1 + 0.1 * i, 1, 1))
    chain = [deserialize(serialize(g))]
    for _ in range(3 * sys.getrecursionlimit()):
        chain.append(chain[-1].copy())
    assert put(chain[-1], "kitchen", "cup", (2, 1, 1)) == "cup-4"
    assert all(id_floors(member) == {"cup": 4} for member in chain)
    assert put(chain[0].copy(), "kitchen", "cup", (2, 1, 1)) == "cup-4"


ID_STEP = st.tuples(
    st.sampled_from(["add", "add", "add", "remove", "remove", "copy", "reload"]),
    st.integers(0, 2**16),  # picks the graph
    st.integers(0, 2**16),  # picks the label, the room and the object
)
ID_LABELS = ("cup", "Cup 3", "book", "cup-3")


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(ID_LABELS), st.booleans()), max_size=12),
       st.lists(ID_STEP, min_size=5, max_size=40))
def test_an_id_chosen_through_copies_is_the_id_a_fresh_load_chooses(start, steps):
    """Adds and removals on a loaded graph, on copies of it and of its
    copies, and on sources after they were copied (or reloaded, so that a
    copy's source is gone): every id ``add_object`` returns is the id the
    same call returns on ``deserialize(serialize(...))`` of that graph, which
    learns no floor, and every graph keeps its invariants."""
    g = two_room_graph()
    for label, keep in start:
        oid = put(g, "kitchen", label, (1, 1, 1))
        if not keep:
            g.remove_object("kitchen", oid)
    family = [deserialize(serialize(g))]
    family.append(family[0].copy())  # so that most draws act on a copy or its source
    for op, which, pick in steps:
        g = family[which % len(family)]
        attached = sorted(oid for oid, n in g.objects.items() if n.attached)
        if op == "copy":
            if len(family) < 4:
                family.append(g.copy())
            else:
                family[pick % 4] = g.copy()
        elif op == "reload":
            family[which % len(family)] = deserialize(serialize(g))
        elif op == "add":
            room, label = ("kitchen", "living room")[pick % 2], ID_LABELS[pick // 2 % len(ID_LABELS)]
            spot = (1, 1, 1) if room == "kitchen" else (7, 1, 1)
            want = put(deserialize(serialize(g)), room, label, spot)
            assert put(g, room, label, spot) == want
        elif op == "remove" and attached:
            oid = attached[pick % len(attached)]
            g.remove_object(g.rooms[g.objects[oid].room].label, oid)
        for member in family:
            assert check_invariants(member) == []


def test_a_graph_writes_in_place_the_nodes_it_alone_holds(house2):
    put(house2, "kitchen", "cup", (1, 1, 1))
    loaded = deserialize(serialize(house2))
    shared = loaded.objects["cup-1"]
    loaded.touch(["cup-1"], 1.0)  # a loaded node is cloned on its first write
    node = loaded.objects["cup-1"]
    assert node is not shared and shared.last_seen == 0.0
    loaded.touch(["cup-1"], 2.0)
    loaded.move_object("kitchen", "living room", "cup-1", Pose.identity((8, 1, 1)), 3.0)
    loaded.detach("cup-1")
    loaded.reattach("cup-1", "kitchen", Pose.identity((2, 1, 1)), 4.0)
    assert loaded.objects["cup-1"] is node and node.last_seen == 4.0 and node.room == "kitchen"
    built = loaded.objects[put(loaded, "kitchen", "plate", (2, 2, 1))]
    loaded.touch(["plate-1"], 5.0)  # a node the graph built is its own
    assert loaded.objects["plate-1"] is built and built.last_seen == 5.0
    assert check_invariants(loaded) == []


@pytest.mark.parametrize("edited_side", ["copy", "original"])
def test_a_node_read_before_a_copy_is_unchanged_by_later_writes_in_either_graph(house2, edited_side):
    put(house2, "kitchen", "cup", (1, 1, 1))
    house2.touch(["cup-1"], 1.0)  # the graph's own node
    read = house2.objects["cup-1"]
    fields_before = {f: getattr(read, f) for f in NODE_FIELDS}
    clone = house2.copy()
    edited, kept = (clone, house2) if edited_side == "copy" else (house2, clone)
    for g in (edited, kept, edited):
        g.touch(["cup-1"], 7.0)
        g.move_object("kitchen", "living room", "cup-1", Pose.identity((8, 1, 1)), 8.0, pose_provisional=True)
        g.move_object("living room", "kitchen", "cup-1", Pose.identity((2, 1, 1)), 9.0)
    assert {f: getattr(read, f) for f in NODE_FIELDS} == fields_before
    assert len({id(read), id(edited.objects["cup-1"]), id(kept.objects["cup-1"])}) == 3
    assert edited.objects["cup-1"].last_seen == kept.objects["cup-1"].last_seen == 9.0
    assert check_invariants(edited) == check_invariants(kept) == []


def set_cup(field, value):
    """An edit that writes ``value`` to the cup's node ``field`` in place."""
    return lambda g: object.__setattr__(g.objects["cup-1"], field, value)


def file_in(rid, label, ids):
    """An edit that sets the entry ``label`` of room ``rid``'s label map to ``ids``."""
    return lambda g: g._members[rid].__setitem__(label, ids)


FILED_ELSEWHERE = "room 'kitchen' files 'cup-1' under 'cup', but its node is in room {!r} with label {!r}"


@pytest.mark.parametrize(
    "corrupt, problems",
    [
        (set_cup("room", "attic"), ["object 'cup-1' belongs to unknown room 'attic'",
                                    FILED_ELSEWHERE.format("attic", "cup")]),
        (set_cup("room", "living room"), [
            FILED_ELSEWHERE.format("living room", "cup"),
            "object 'cup-1' is attached in room 'living room' but not filed there",
        ]),
        (set_cup("room", None), [FILED_ELSEWHERE.format(None, "cup")]),
        (set_cup("label", "mug"), [FILED_ELSEWHERE.format("kitchen", "mug")]),
        (file_in("kitchen", "vase", ()), ["room 'kitchen' files an empty entry for label 'vase'"]),
        (file_in("kitchen", "cup", ("cup-1", "cup-1")), ["object 'cup-1' is filed 2 times"]),
        (file_in("living room", "cup", ("cup-1",)), [
            "room 'living room' files 'cup-1' under 'cup', but its node is in room 'kitchen' "
            "with label 'cup'",
            "object 'cup-1' is filed 2 times",
        ]),
        (file_in("kitchen", "cup", ("cup-1", "cup-9")), ["room 'kitchen' files unknown object 'cup-9'"]),
        (lambda g: g._members["kitchen"].pop("cup"),
         ["object 'cup-1' is attached in room 'kitchen' but not filed there"]),
        (lambda g: g._members.pop("living room"), ["room member index does not hold one label map per room"]),
        (lambda g: g._own_nodes.add("cup-9"), ["owned node id 'cup-9' names no object"]),
    ],
    ids=[
        "unknown-room", "wrong-room-set", "detached-but-filed", "relabeled-node", "empty-entry",
        "filed-twice-in-one-room", "filed-in-two-rooms", "unknown-object-filed", "attached-but-unfiled",
        "room-without-map", "owned-id-of-no-object",
    ],
)
def test_check_invariants_reports_a_node_whose_room_its_member_sets_disagree_with(house2, corrupt, problems):
    put(house2, "kitchen", "cup", (1, 1, 1))
    put(house2, "living room", "book", (7, 1, 1))
    assert check_invariants(house2) == []
    corrupt(house2)
    assert check_invariants(house2) == problems


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
    rooms = {oid: node.room for oid, node in house2.objects.items()}
    members = {rid: house2.objects_in_room(rid) for rid in house2.rooms}
    for edited_side in ("copy", "original"):
        original = deserialize(before)
        clone = original.copy()
        edited, kept = (clone, original) if edited_side == "copy" else (original, clone)
        edited.touch(["cup-1"], 50.0)
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
        assert {oid: node.room for oid, node in kept.objects.items()} == rooms, edited_side
        assert {rid: kept.objects_in_room(rid) for rid in kept.rooms} == members, edited_side
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
        ("cup-1", lambda g: g.touch(["cup-1"], 5.0)),
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


def test_a_copy_shares_the_member_set_of_every_room_until_a_primitive_writes_it():
    """One edit in a room gives the edited graph its own label map of that
    room; the other rooms' maps stay one object, held by both graphs."""
    for edited_side in ("copy", "original"):
        original = load_house()
        clone = original.copy()
        edited, kept = (clone, original) if edited_side == "copy" else (original, clone)
        before = {rid: dict(filed) for rid, filed in original._members.items()}
        kitchen = edited.room_by_label("kitchen").id
        put(edited, "kitchen", "cup", (2.0, 2.0, 1.0))
        own = edited._members[kitchen]
        assert own is not kept._members[kitchen], edited_side
        cups = before[kitchen].get("cup", ()) + ("cup-2",)
        assert kept._members == before and own == before[kitchen] | {"cup": cups}, edited_side
        for rid in edited.rooms.keys() - {kitchen}:
            assert edited._members[rid] is kept._members[rid], (edited_side, rid)
        edited.touch(["cup-2"], 1.0)  # writes no label map
        edited.remove_object("kitchen", "cup-2")  # writes the map it already owns
        assert edited._members[kitchen] is own and own == before[kitchen], edited_side


ROOMS = ("kitchen", "living room", "attic")
SPOTS = {"kitchen": (1.0, 1.0, 1.0), "living room": (7.0, 1.0, 1.0), "attic": (2.0, 2.0, 5.0)}
COPY_STEP = st.tuples(
    st.sampled_from(["add", "remove", "move", "touch", "detach", "reattach", "copy", "copy"]),
    st.integers(0, 2**16),  # picks the graph
    st.integers(0, 2**16),  # picks the object and the room
)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.lists(COPY_STEP, min_size=10, max_size=40))
def test_a_family_of_copies_never_sees_each_others_edits(steps):
    """Up to four graphs, each a copy of any member of the family (copies of
    copies, sources edited after they were copied), and random primitives on
    any member: after every step every graph keeps its invariants, files
    under each label of each room the ids that linking its own bytes edge by
    edge files (in any order), and its scoped ``find`` answers what a scan of
    its nodes does."""
    base = two_room_graph()
    base.add_room(make_room("attic", (2.0, 2.0, 5.0)))
    for i, room in enumerate(ROOMS * 2):
        put(base, room, ("cup", "book")[i % 2], SPOTS[room])
    family = [base]
    for op, which, pick in steps:
        g = family[which % len(family)]
        attached = sorted(oid for oid, n in g.objects.items() if n.attached)
        detached = sorted(oid for oid, n in g.objects.items() if not n.attached)
        room, pick = ROOMS[pick % 3], pick // 3
        if op == "copy":
            if len(family) < 4:
                family.append(g.copy())
            else:
                family[pick % 4] = g.copy()
        elif op == "add":
            put(g, room, ("cup", "book", "vase")[pick % 3], SPOTS[room])
        elif op == "remove" and attached:
            oid = attached[pick % len(attached)]
            g.remove_object(g.rooms[g.objects[oid].room].label, oid)
        elif op == "move" and attached:
            oid = attached[pick % len(attached)]
            g.move_object(g.rooms[g.objects[oid].room].label, room, oid, Pose.identity(SPOTS[room]), 1.0)
        elif op == "touch" and g.objects:
            g.touch([sorted(g.objects)[pick % len(g.objects)]], 2.0)
        elif op == "detach" and attached:
            g.detach(attached[pick % len(attached)])
        elif op == "reattach" and detached:
            g.reattach(detached[pick % len(detached)], room, Pose.identity(SPOTS[room]), 3.0)
        for member in family:
            assert check_invariants(member) == []
            assert label_sets(member) == label_sets(linked_load(row_document(member)))
            for room in ROOMS:
                rid = member.room_by_label(room).id
                for label in ("cup", "book", "vase"):
                    want = [oid for oid, n in sorted(member.objects.items()) if n.room == rid and n.label == label]
                    assert member.find(label, room_scope=room) == want, (room, label)


def label_sets(graph: SceneGraph) -> dict:
    """Each room's label map, with each label's ids as a set: the filing a
    primitive's order of links does not change."""
    return {rid: {label: set(ids) for label, ids in filed.items()} for rid, filed in graph._members.items()}


class NoReads(dict):
    """A mapping every read of which fails: put in place of a graph's
    ``objects``, it shows that a query reads no node."""

    def _fail(self, *args):
        raise AssertionError("the query read an object node")

    __getitem__ = __iter__ = __contains__ = __len__ = get = keys = values = items = _fail


def test_a_scoped_find_on_a_room_holding_one_label_200_times_reads_no_node():
    g = two_room_graph()
    for i in range(200):
        put(g, "kitchen", "cup", (0.5 + i / 100, 1.0, 1.0))
        if i % 4 == 0:
            put(g, "kitchen", "plate", (1.0, 2.0, 1.0))
            put(g, "living room", "Cup", (7.0, 1.0, 1.0))
    want = sorted(oid for oid, node in g.objects.items() if node.room == "kitchen" and node.label == "cup")
    anywhere = sorted(oid for oid, node in g.objects.items() if node.label == "cup")
    assert len(want) == 200 and len(anywhere) == 250
    g.objects = NoReads()
    assert g.find(" CUP ", room_scope="Kitchen") == want
    assert g.find("cup") == anywhere
    assert g.find("vase", room_scope="living room") == []


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
    payload = row_payload(g)
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


MISSING = object()  # in place of a value: the key is deleted


def edited(payload, path, value) -> str:
    """``payload`` as JSON text, with ``value`` put at ``path``; given lists
    of paths and values, each value at its path, in order."""
    edits = zip(path, value) if isinstance(path, list) else [(path, value)]
    for (*parents, last), new in edits:
        target = payload
        for key in parents:
            target = target[key]
        if new is MISSING:
            del target[last]
        else:
            target[last] = new
    return json.dumps(payload)


def payload_with(path, value) -> str:
    """A two-room graph with a cup (object 0) and a mug (object 1) in the
    kitchen, as row document text, edited by ``edited``."""
    g = two_room_graph()
    put(g, "kitchen", "cup", (1, 1, 1))
    put(g, "kitchen", "mug", (3, 3, 1))
    return edited(json.loads(row_document(g)), path, value)


def test_deserialize_rejects_malformed_json():
    with pytest.raises(ParseError, match="offset"):
        deserialize(b'{"rooms": [')
    with pytest.raises(ParseError, match=r"^a graph document must be an object, got \[1\]$"):
        deserialize(b"[1]")


def test_deserialize_rejects_unknown_room_reference():
    g = two_room_graph()
    put(g, "kitchen", "cup", (1, 1, 1))
    payload = row_payload(g)
    payload["belongs_to"]["cup-1"] = "attic"
    with pytest.raises(ParseError, match="unknown room id"):
        deserialize(json.dumps(payload))


def test_deserialize_rejects_invariant_violations():
    g = two_room_graph()
    put(g, "kitchen", "cup", (1, 1, 1))
    payload = row_payload(g)
    del payload["belongs_to"]["cup-1"]  # attached object with no home room
    with pytest.raises(ParseError, match="invariants"):
        deserialize(json.dumps(payload))


def test_deserialize_rejects_an_edge_to_a_detached_object():
    g = two_room_graph()
    g.detach(put(g, "kitchen", "cup", (1, 1, 1)))
    payload = row_payload(g)
    payload["belongs_to"]["cup-1"] = "kitchen"
    with pytest.raises(ParseError, match="^document violates graph invariants: belongs_to keys"):
        deserialize(json.dumps(payload))


def test_deserialize_refuses_an_integer_too_long_for_python():
    shown = r"1{80}\.\.\. \(a number, 5,000 characters\)"
    with pytest.raises(ParseError, match=rf"^epoch must be finite, got {shown}$"):
        deserialize('{"epoch": ' + "1" * 5000 + "}")


@pytest.mark.parametrize(
    "path, value, message",
    [
        pytest.param(
            ("objects", 0, "label"), "   ", r"^objects\[0\]: label must not be blank, got '   '$",
            id="object-label",
        ),
        # the node rules and the duplicate id, each in the second entry
        pytest.param(
            ("objects", 1, "pose", "q"), [2, 0, 0, 0],
            r"^objects\[1\]: quaternion norm 2\.0 deviates from 1 beyond 1e-09$", id="object-non-unit-q",
        ),
        pytest.param(
            ("objects", 1, "bbox"), [0.2, 0.0, 0.2],
            r"^objects\[1\]: extents must be strictly positive, got \(0\.2, 0\.0, 0\.2\)$", id="object-flat-extent",
        ),
        pytest.param(
            ("objects", 1, "decay_rate"), -1, r"^objects\[1\]: decay_rate must be >= 0, got -1\.0$",
            id="object-negative-rate",
        ),
        pytest.param(
            ("objects", 1, "id"), "cup-1", r"^objects\[1\]: duplicate object id 'cup-1'$", id="object-duplicate-id",
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
        # With two faults, the one the load meets first: objects before
        # edges, edges in document order, and every edge before the count
        # of attached objects.
        pytest.param(
            [("objects", 0, "label"), ("belongs_to", "cup-1")], ["   ", "attic"],
            r"^objects\[0\]: label must not be blank, got '   '$", id="object-before-edge",
        ),
        pytest.param(
            [("belongs_to", "cup-1"), ("belongs_to", "a-ghost")], ["attic", "kitchen"],
            r"^belongs_to\['cup-1'\]: unknown room id 'attic'$", id="edges-in-document-order",
        ),
        pytest.param(
            [("objects", 0, "attached"), ("belongs_to", "ghost")], [False, "kitchen"],
            r"^belongs_to\['ghost'\]: unknown object id$", id="edge-before-count",
        ),
        # objects in order: an entry's rule breach before a later entry's missing key
        pytest.param(
            [("objects", 0, "decay_rate"), ("objects", 1, "pose")], [-1, MISSING],
            r"^objects\[0\]: decay_rate must be >= 0, got -1\.0$", id="entries-in-order",
        ),
    ],
)
def test_deserialize_names_the_entry_a_graph_rule_refuses(path, value, message):
    with pytest.raises(ParseError, match=message):
        deserialize(payload_with(path, value))


def columns_with(path, value) -> str:
    """A two-room graph with a detached book (object 0) and a cup in the
    kitchen (object 1), as column document text, edited by ``edited``."""
    g = two_room_graph()
    g.detach(put(g, "living room", "book", (7, 2, 1)))
    put(g, "kitchen", "cup", (1, 1, 1))
    return edited(json.loads(serialize(g)), path, value)


CUP = r"\(object 'cup-1'\)"


@pytest.mark.parametrize(
    "path, value, message",
    [
        # a column of the wrong type or length, or none
        pytest.param(("objects",), 5, r"^objects must be an object, got 5$", id="objects"),
        pytest.param(("objects", "q"), 5, r"^objects\.q must be a list, got 5$", id="column-type"),
        pytest.param(
            ("objects", "t"), [7.0, 2.0, 1.0],
            r"^objects\.t must hold 3 values for each of the 2 objects, got 3$", id="flat-column-length",
        ),
        pytest.param(
            ("objects", "label"), ["cup"],
            r"^objects\.label must hold one value for each of the 2 objects, got 1$", id="column-length",
        ),
        pytest.param(("objects", "room"), MISSING, r"^objects: missing key 'room'$", id="missing-column"),
        # NaN or Infinity
        pytest.param(
            ("objects", "decay_rate", 1), math.nan,
            rf"^objects\.decay_rate\[1\] {CUP}: decay_rate must be finite, got nan$", id="rate-nan",
        ),
        pytest.param(
            ("objects", "t", 4), math.inf,
            rf"^objects\.t\[1\] {CUP}: translation\[1\] must be finite, got inf$", id="t-inf",
        ),
        pytest.param(
            ("objects", "last_seen", 1), -math.inf,
            rf"^objects\.last_seen\[1\] {CUP}: last_seen must be finite, got -inf$", id="seen-minus-inf",
        ),
        pytest.param(
            ("objects", "q", 7), 10**400,
            rf"^objects\.q\[1\] {CUP}: quaternion\[3\] must be finite, "
            r"got 10{79}\.\.\. \(a number, 401 characters\)$",
            id="q-int-beyond-float",
        ),
        # a boolean or a numeral where a number belongs
        pytest.param(
            ("objects", "bbox", 5), True, rf"^objects\.bbox\[1\] {CUP}: bbox\[2\] must be a number, got True$",
            id="bbox-bool",
        ),
        pytest.param(
            ("objects", "last_seen", 1), False,
            rf"^objects\.last_seen\[1\] {CUP}: last_seen must be a number, got False$", id="seen-bool",
        ),
        pytest.param(
            ("objects", "q", 4), "1", rf"^objects\.q\[1\] {CUP}: quaternion\[0\] must be a number, got '1'$",
            id="q-numeral",
        ),
        # ids, labels, rooms and flags
        pytest.param(("objects", "id", 1), 5, r"^objects\.id\[1\]: id must be a string, got 5$", id="number-id"),
        pytest.param(
            ("objects", "label", 1), None, rf"^objects\.label\[1\] {CUP}: label must be a string, got None$",
            id="null-label",
        ),
        pytest.param(
            ("objects", "label", 1), "   ", rf"^objects\.label\[1\] {CUP}: label must not be blank, got '   '$",
            id="blank-label",
        ),
        pytest.param(
            ("objects", "room", 1), "attic", rf"^objects\.room\[1\] {CUP}: unknown room id 'attic'$",
            id="unknown-room",
        ),
        pytest.param(
            ("objects", "room", 1), ["kitchen"],
            rf"^objects\.room\[1\] {CUP}: room must be a room id or null, got \['kitchen'\]$", id="list-room",
        ),
        pytest.param(
            ("objects", "id", 1), "book-1",
            r"^objects\.id\[1\] \(object 'book-1'\): duplicate object id 'book-1'$", id="duplicate-id",
        ),
        pytest.param(
            ("objects", "pose_provisional", 1), 0,
            rf"^objects\.pose_provisional\[1\] {CUP}: pose_provisional must be true or false, got 0$",
            id="number-flag",
        ),
        # the node rules
        pytest.param(
            ("objects", "q", 4), 2.0,
            rf"^objects\.q\[1\] {CUP}: quaternion norm 2\.0 deviates from 1 beyond 1e-09$", id="non-unit-q",
        ),
        pytest.param(
            ("objects", "bbox", 4), 0.0,
            rf"^objects\.bbox\[1\] {CUP}: extents must be strictly positive, got \(0\.2, 0\.0, 0\.2\)$",
            id="flat-extent",
        ),
        pytest.param(
            ("objects", "decay_rate", 1), -1.0,
            rf"^objects\.decay_rate\[1\] {CUP}: decay_rate must be >= 0, got -1\.0$", id="negative-rate",
        ),
        # a column document with a belongs_to map is read as rows, and refused
        pytest.param(("belongs_to",), {"cup-1": "kitchen"}, r"^objects must be a list, got \{", id="belongs-to"),
        # with two faults, the first column's, in the order the reader reads them
        pytest.param(
            [("objects", "bbox", 5), ("objects", "q", 4)], [True, "1"],
            rf"^objects\.q\[1\] {CUP}: quaternion\[0\]", id="q-before-bbox",
        ),
        pytest.param(
            [("objects", "room", 1), ("objects", "decay_rate", 0)], ["attic", -1.0],
            r"^objects\.decay_rate\[0\] \(object 'book-1'\): decay_rate must be >= 0",
            id="objects-in-order",
        ),
    ],
)
def test_deserialize_names_the_column_index_and_object_of_a_bad_value(path, value, message):
    with pytest.raises(ParseError, match=message):
        deserialize(columns_with(path, value))


def test_a_column_document_refuses_an_integer_too_long_for_python():
    """Python will not read it, so the decoder keeps its text, and the
    column's reader refuses it, naming the column, the index and the object,
    as it would any other bad value."""
    cases = [
        ("decay_rate", 1, "decay_rate must be finite"),
        ("label", 0, "label must be a string"),
        ("room", 1, "room must be a room id or null"),
    ]
    for key, index, message in cases:
        text = columns_with(("objects", key, index), "LONG").replace('"LONG"', "1" * 5000)
        oid = ("book-1", "cup-1")[index]
        where = rf"^objects\.{key}\[{index}\] \(object '{oid}'\): {message}, got 1{{80}}\.\.\. "
        with pytest.raises(ParseError, match=where + r"\(a number, 5,000 characters\)$"):
            deserialize(text)


def test_a_column_document_that_also_carries_belongs_to_is_refused_in_one_short_line():
    """Read as rows, its ``objects`` is no list; the message shows the
    start of the value, its JSON type and its size, not the whole value."""
    payload = json.loads(serialize(generated_graph()))
    payload["belongs_to"] = {}
    with pytest.raises(ParseError) as refused:
        deserialize(json.dumps(payload))
    message = str(refused.value)
    shown = r"\{'bbox': \[.{70}\.\.\. \(an object, [\d,]+ characters\)"
    assert re.fullmatch(rf"objects must be a list, got {shown}", message)
    assert len(message) < 160


LABELS = ["cup", "  TV  Remote", "alarm clock", "Cup"]


@st.composite
def drawn_graphs(draw) -> SceneGraph:
    """A graph of 1 to 3 rooms and up to 12 objects anywhere, with drawn
    labels, poses, boxes, rates, times and flags, some of them detached."""
    g = SceneGraph(epoch=draw(st.floats(-1e9, 1e9)))
    rooms = ROOMS[: draw(st.integers(1, 3))]
    for room in rooms:
        g.add_room(make_room(room, SPOTS[room]))
    unit = st.floats(-1.0, 1.0)
    for _ in range(draw(st.integers(0, 12))):
        q = [draw(unit) for _ in range(4)]
        norm = math.sqrt(sum(v * v for v in q))
        pose = Pose(tuple(v / norm for v in q) if norm > 0.1 else (1.0, 0.0, 0.0, 0.0),
                    tuple(draw(st.floats(-1e6, 1e6)) for _ in range(3)))
        oid = g.add_object(
            draw(st.sampled_from(rooms)), draw(st.sampled_from(LABELS)), pose,
            BBox3(tuple(draw(st.floats(1e-6, 100.0)) for _ in range(3))),
            draw(st.floats(0.0, 10.0)), draw(st.floats(-1e9, 1e9)), draw(st.booleans()),
        )
        if draw(st.booleans()):
            g.detach(oid)
    return g


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(g=drawn_graphs())
def test_a_graph_loads_back_from_its_columns_and_from_its_rows(g):
    blob = serialize(g)
    back = deserialize(blob)
    assert graphs_equal(back, g, tol=0.0)
    assert check_invariants(back) == []
    assert serialize(back) == blob
    from_rows = deserialize(row_document(g))
    assert graphs_equal(from_rows, g, tol=0.0)
    assert serialize(from_rows) == blob


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


def reversed_keys(value):
    """``value`` with the keys of each dict in it in reverse order."""
    if isinstance(value, dict):
        return {key: reversed_keys(v) for key, v in reversed(value.items())}
    return value


@pytest.mark.parametrize("graph", [load_house, generated_graph], ids=["packaged", "generated"])
def test_what_serialize_writes_loads_to_its_own_bytes_in_any_layout(graph):
    g = graph()
    blob = serialize(g)
    assert serialize(deserialize(blob)) == blob
    # the same document indented, with the keys of the object columns and of
    # every room in reverse order, and with tuples for lists: layout is not
    # shape; and the graph's row document
    payload = json.loads(blob)
    assert serialize(deserialize(json.dumps(payload, indent=1))) == blob
    payload["objects"] = reversed_keys(payload["objects"])
    payload["rooms"] = [reversed_keys(entry) for entry in payload["rooms"]]
    assert serialize(deserialize(json.dumps(payload))) == blob
    columns = graph_to_payload(g)
    columns["objects"] = {key: tuple(values) for key, values in columns["objects"].items()}
    assert serialize(graph_from_payload(columns)) == blob
    assert serialize(deserialize(row_document(g))) == blob


def test_a_load_files_one_string_per_label():
    back = deserialize(serialize(generated_graph(50)))
    labels = {}
    for node in back.objects.values():
        assert labels.setdefault(node.label, node.label) is node.label


@pytest.mark.parametrize("layout", ["columns", "rows"])
def test_a_load_files_each_object_under_its_normalized_label(layout):
    g = two_room_graph()
    put(g, "kitchen", "cup", (1, 1, 1))
    put(g, "kitchen", "tv remote", (2, 1, 1))
    written = ["  Cup", "TV   Remote "]  # in id order: cup-1, tv-remote-1
    if layout == "columns":
        doc = json.loads(serialize(g))
        doc["objects"]["label"] = written
    else:
        doc = json.loads(row_document(g))
        for entry, label in zip(doc["objects"], written):
            entry["label"] = label
    back = deserialize(json.dumps(doc))
    assert check_invariants(back) == []
    assert back._members["kitchen"] == {"cup": ("cup-1",), "tv remote": ("tv-remote-1",)}
    assert back.find("tv  REMOTE", room_scope="kitchen") == ["tv-remote-1"]


def detached_and_empty_graph() -> SceneGraph:
    """Two rooms with members, some objects detached, and a room with none."""
    g = two_room_graph()
    g.add_room(make_room("attic", (2.0, 2.0, 5.0)))
    for i in range(12):
        room, label = ("kitchen", "living room")[i % 2], ("cup", "book")[i % 3 == 0]
        oid = put(g, room, label, (1.0 + i / 4, 1.0, 1.0))
        if i % 4 == 1:
            g.detach(oid)
    return g


def room_indexes(graph: SceneGraph) -> tuple:
    """The indexes a load builds, in their key orders."""
    return (
        [(oid, node.room) for oid, node in graph.objects.items()],
        list(graph._members.items()),
        graph._room_bounds,
    )


@pytest.mark.parametrize(
    "graph",
    [load_house, generated_graph, detached_and_empty_graph],
    ids=["packaged", "generated", "detached-and-empty"],
)
def test_a_load_builds_the_indexes_that_one_link_per_edge_builds(graph):
    g = graph()
    rows = row_document(g)
    for text in (serialize(g).decode("utf-8"), rows):
        loaded = deserialize(text)
        assert room_indexes(loaded) == room_indexes(linked_load(rows))
        assert check_invariants(loaded) == []
        shared = {}
        for node in loaded.objects.values():
            assert shared.setdefault(node.label, node.label) is node.label


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


@pytest.mark.parametrize("write", [serialize, row_document], ids=["columns", "rows"])
def test_a_large_load_leaves_no_collection_to_the_caller(write):
    blob = write(generated_graph())
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


@pytest.mark.parametrize("layout", ["columns", "rows"])
def test_loading_the_packaged_house_runs_no_collection(layout):
    text = resources.files("sgupdate.data").joinpath("house.json").read_text("utf-8")
    if layout == "rows":
        text = row_document(deserialize(text))
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
    house2.touch([oid], 1.0)  # a primitive's clone
    node = house2.objects[oid]
    for value in (node, node.pose, node.bbox, house2.room_by_label("kitchen")):
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_graphs_equal_ignore_last_seen_mode(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    other = house2.copy()
    other.touch([oid], 123.0)
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
    """Invariants, the room index, staleness and visibility checked against
    brute-force scans.

    A quarter of adds, moves and reattaches put the object at a random spot
    (either room or outside the house) whatever room they name, so an
    object's pose and the room it belongs to disagree; visibility follows
    the room. Every 300 steps the graph is reloaded. Every 50 steps a copy
    is put aside; at the end each must still have the bytes it was taken
    with.
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
            g.remove_object(g.rooms[g.objects[oid].room].label, oid)
        elif op == "move":
            oid = rng.choice(attached)
            room = rng.choice(rooms)
            g.move_object(
                g.rooms[g.objects[oid].room].label,
                room,
                oid,
                Pose.identity(spot_for(room)),
                now=float(step),
            )
        elif op == "touch":
            g.touch([rng.choice(attached)], float(step))
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
            in_room = sorted(oid for oid, node in g.objects.items() if node.room == rid)
            assert g.objects_in_room(rid) == in_room, f"objects_in_room at step {step}"
            for label in labels:
                want = [oid for oid in in_room if g.objects[oid].label == label]
                assert g.find(label, room_scope=room) == want, f"find at step {step}"
        for label in labels:
            want = sorted(oid for oid, node in g.objects.items() if node.attached and node.label == label)
            assert g.find(label) == want, f"unscoped find at step {step}"
        for pose in cameras:
            want = visible_oracle(g, pose, cam)
            assert expected_visible(g, pose, cam) == want, f"expected_visible at step {step}"

    # the survivors still serialize deterministically
    assert serialize(deserialize(serialize(g))) == serialize(g)
    # later edits of the graph never reached a copy taken earlier
    for snapshot, blob in snapshots:
        assert serialize(snapshot) == blob and check_invariants(snapshot) == []


# -- who may write a node ----------------------------------------------------

# Copies share object nodes, so a field written anywhere but on a node a
# primitive's graph alone holds would change every graph that holds the node.
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
    def touch(self, targets, now):
        for target in targets:
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
    node.room, node.bbox = None, None
    node.decay_rate += 1.0
    setattr(node, "pose_provisional", True)
    node.note = "not a node field"
"""
    assert node_field_writes(source) == [
        (("SceneGraph", "copy"), 8, "pose"),
        (("RoomNode", "__post_init__"), 12, "label"),
        (("refresh",), 14, "last_seen"),
        (("refresh",), 16, "room"),
        (("refresh",), 16, "bbox"),
        (("refresh",), 17, "decay_rate"),
        (("refresh",), 18, "pose_provisional"),
    ]
