"""Two-layer 3D scene graph: rooms, objects, and the edges between them.

The graph keeps a room layer and an object layer. Every attached object has
exactly one belongs-to edge into a room, held on its node as ``room`` (the
room's id, ``None`` while the object is detached); rooms are connected by
symmetric access edges. There are no object-to-object edges, by
construction.

Mutations go through the primitive operations defined here (``find``,
``add_object``, ``remove_object``, ``move_object``, ``detach``, ``reattach``,
``touch``). Each primitive validates its inputs before touching any state, so
a raised error leaves the graph unchanged. The structure is plain Python and
is not safe for concurrent use, and neither is a graph and its copies, which
share nodes and id floors.

Object nodes are values shared between copies: :meth:`SceneGraph.copy`
copies the containers and never a node, and each copy-on-write cost is paid
once per graph. A primitive that changes a node's fields first files a fresh
copy of the node in its own graph's ``objects`` unless its graph alone holds
the node (the graph's ``_own_nodes``: the nodes it built or cloned since its
last copy), then edits it in place, so a node touched every frame is cloned
once. Each room's label map is shared the same way: a copy shares them all,
and a primitive that files or unfiles an object in a room first copies that
room's map unless its graph alone holds it (the graph's ``_own``), so a copy
pays only for the rooms it writes. ``copy()`` empties both sets of the
graph it copies, and a copy starts with both empty. A node or label map
reachable from a graph is therefore never edited in place while another
graph holds it, and a copy and its original cannot change each other's
value; the id tuples a map holds are immutable, so copying a map is one
shallow ``dict``.

A new object's id is its label's slug and the smallest free number, probed
from a floor below which every number is taken. A graph owns each slug it
has added or removed, and a copy owns the slugs its source owned at the
copy; their floors are the graph's own, and ``copy()`` copies them. A graph
that does not own a slug holds its ids exactly as the load (or the new,
empty graph) left them, so the floors of the slugs a graph does not own are
kept in one map that a loaded or new graph creates and ``copy()`` passes
on: a floor any of its copies finds serves them all. A load learns no
floor, so a loaded graph's first add of a slug probes from 1, once for all
the copies taken from it.

The room layer doubles as the index. The graph keeps a room-label map, a
flat list of the rooms' boxes, which ``assign_room`` reads, and for each
room a map from each normalized object label to the tuple of ids of the
attached objects that carry it there (``_members``; a label no attached
object carries has no entry). A scoped ``find`` reads one entry, so it costs
the number of its matches, not of the room's members; an unscoped ``find``
reads each room's entry for the label, ``objects_in_room`` one room's
tuples, and perception's visibility rule, which sees only the members of
the room the camera stands in, iterates that room's tuples. A primitive
replaces the one tuple it changes, and a load files a label's first id as
a 1-tuple and joins the later ids of a repeated label once at the end.
Staleness keeps no index here: :func:`sgupdate.decay.stale_targets` sweeps
``objects``. Only
``add_room``, the primitives and the loader may write ``rooms`` or
``objects``, and only the primitives and the loader may write an object's
fields, its room and label included, since anything else would leave the
indexes stale or edit a node other graphs share; :func:`check_invariants`
verifies the room indexes, each attached object filed once, in its room
under its label.

A graph document stores its object layer by column: :func:`serialize`
writes one list per field, in object-id order, with each object's room id
(or null) in a ``room`` column. The loader reads each section of a document
in one loop. Each object column gets one type-and-length test, and only a
column that fails it is read value by value, for the per-value reader's
error; the columns, zipped, then feed the one loop that builds objects
(``ObjectNode._build``), which checks the node classes' rules, written out,
and builds and files each node with no further call. A refusal names the
column, the object's index and its id. A load normalizes each distinct
object label once, and the nodes that carry it share the string.

A document with a ``belongs_to`` map is a row document, the layout graph
files had before: one entry per object, each read by
:func:`~sgupdate.values.object_entry` and fed to the same loop with no
room, one at a time; then the map's edges, in document order, record and
file each attached object's room. It is read, never written, since the
benchmark's generated houses and older files are rows.

:func:`serialize` and :func:`deserialize` run with the cyclic garbage
collector paused. A graph document and the graph built from it hold no
reference cycles and everything a load builds survives, so a collection in
the middle of one only rescans a growing heap and finds nothing.
"""
from __future__ import annotations

import gc
import json
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from math import isfinite, sqrt
from typing import Optional

from .geometry import QUAT_NORM_TOL, BBox3, InvalidGeometry, Pose, poses_close
from .values import (
    array,
    checked,
    column,
    entries,
    flag,
    float_column,
    json_int,
    number,
    obj,
    object_entry,
    object_rows,
    shown,
    text,
    texts,
)

__all__ = [
    "SceneGraphError",
    "UnknownRoom",
    "UnknownObject",
    "WrongRoom",
    "AlreadyAttached",
    "AlreadyDetached",
    "NoContainingRoom",
    "DuplicateRoomLabel",
    "ParseError",
    "RoomNode",
    "ObjectNode",
    "SceneGraph",
    "serialize",
    "deserialize",
    "graph_to_payload",
    "graph_from_payload",
    "graphs_equal",
    "graphs_equivalent",
    "check_invariants",
]


class SceneGraphError(Exception):
    """Base class for scene-graph contract violations."""


class UnknownRoom(SceneGraphError):
    pass


class UnknownObject(SceneGraphError):
    pass


class WrongRoom(SceneGraphError):
    """The object exists but is not in the room the caller named."""


class AlreadyAttached(SceneGraphError):
    pass


class AlreadyDetached(SceneGraphError):
    pass


class NoContainingRoom(SceneGraphError):
    """A pose lies outside every room's bounding box."""


class DuplicateRoomLabel(SceneGraphError):
    pass


class ParseError(SceneGraphError):
    """Malformed graph document; the message carries a location."""


def _norm_label(label: str) -> str:
    return " ".join(label.strip().lower().split())


def _node_label(label: str) -> str:
    """A room's or object's label, normalized; a blank one is refused."""
    norm = _norm_label(label)
    if not norm:
        raise ValueError(f"label must not be blank, got {label!r}")
    return norm


# The types each column of a column document may hold, checked once per column.
_STR = frozenset((str,))
_BOOL = frozenset((bool,))
_ROOM_ID = frozenset((str, type(None)))


def _room_id(value) -> None:
    """Refuse ``value`` as an entry of the ``room`` column, which holds a room id or null."""
    raise ValueError(f"room must be a room id or null, got {shown(value)}")


def _room_bound(room: "RoomNode") -> tuple:
    """``(cx, cy, cz, hx, hy, hz, volume, id)``: what ``assign_room`` tests."""
    return (*room.pose.t, *room.bbox.half_sizes_xyz(), room.bbox.volume, room.id)


@dataclass(frozen=True, slots=True)
class RoomNode:
    id: str
    label: str
    pose: Pose
    bbox: BBox3

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", _node_label(self.label))


@dataclass(slots=True)
class ObjectNode:
    """One object: a value that copies of a graph share.

    Only the graph primitives write these fields, and only on a node their
    own graph alone holds (see the module docstring).
    """

    id: str
    label: str
    pose: Pose
    bbox: BBox3
    decay_rate: float  # 1/seconds; 0 marks an immovable object
    last_seen: float  # seconds since the graph epoch
    room: Optional[str]  # id of the room the object belongs to; None while detached
    pose_provisional: bool = False  # True until a sensed pose replaces a guessed one

    def __post_init__(self) -> None:
        self.label = _node_label(self.label)
        self.decay_rate = number(self.decay_rate, "decay_rate")
        self.last_seen = number(self.last_seen, "last_seen")
        if self.decay_rate < 0.0:
            raise InvalidGeometry(f"decay_rate must be >= 0, got {self.decay_rate}")

    @property
    def attached(self) -> bool:
        return self.room is not None

    def _clone(self) -> "ObjectNode":
        # Fields were validated when this node was built; skip __post_init__
        # (a graph clones each shared node it writes, touches included).
        dup = object.__new__(ObjectNode)
        dup.id = self.id
        dup.label = self.label
        dup.pose = self.pose
        dup.bbox = self.bbox
        dup.decay_rate = self.decay_rate
        dup.last_seen = self.last_seen
        dup.room = self.room
        dup.pose_provisional = self.pose_provisional
        return dup

    @staticmethod
    def _load(graph: "SceneGraph", value, belongs_value) -> None:
        """File in ``graph`` the node of each entry of a row document's object
        array ``value``, then record each edge of the ``belongs_to`` map
        ``belongs_value`` as its object's ``room`` and file the object under
        its label in that room; errors name ``objects[i]`` or
        ``belongs_to[id]``."""
        detached: set[str] = set()  # ids of the entries whose attached is false
        # This module's object_entry, looked up at each load, since a test may replace it.
        ObjectNode._build(graph, object_rows(value, object_entry, detached), lambda key, i: f"objects[{i}]")
        objects, rooms, members = graph.objects, graph.rooms, graph._members
        belongs = obj(belongs_value, "belongs_to")
        stray = False  # an edge names a detached object
        more = defaultdict(list)  # (room id, label) -> the ids filed there after the first
        # What _link does per edge, written out.
        for oid, rid in belongs.items():
            node = objects.get(oid)
            if node is None:
                raise ValueError(f"belongs_to[{oid!r}]: unknown object id")
            try:
                known = rid in rooms
            except TypeError:  # an array or object is unhashable
                known = False
            if not known:
                raise ValueError(f"belongs_to[{oid!r}]: unknown room id {shown(rid)}")
            if oid in detached:
                stray = True
            else:
                node.room = rid
                filed = members[rid]
                if node.label in filed:
                    more[rid, node.label].append(oid)  # joined by _freeze
                else:
                    filed[node.label] = (oid,)
        # Keys are unique: with no stray edge every key names an attached object,
        # so as many keys as attached objects means every attached object has one.
        if stray or len(belongs) != len(objects) - len(detached):
            raise ValueError(
                "document violates graph invariants: "
                "belongs_to keys do not exactly match attached object ids"
            )
        _freeze(members, more)

    @staticmethod
    def _load_columns(graph: "SceneGraph", value) -> None:
        """File in ``graph`` the node of each object of the column object
        ``value``, with its room recorded and filed under its label there;
        errors name ``objects.<column>[i]`` and, once the ids are read, the
        object's id."""
        cols = obj(value, "objects")
        ids = checked(column(cols, "id"), _STR, lambda v: text(v, "id"), lambda i: f"objects.id[{i}]")
        n = len(ids)

        def where(key: str, i: int) -> str:
            return f"objects.{key}[{i}] (object {ids[i]!r})"

        def at(key: str):
            return lambda i: where(key, i)

        labels = checked(column(cols, "label", n), _STR, lambda v: text(v, "label"), at("label"))
        quats = float_column(column(cols, "q", n, 4), "quaternion", 4, at("q"))
        trans = float_column(column(cols, "t", n, 3), "translation", 3, at("t"))
        boxes = float_column(column(cols, "bbox", n, 3), "bbox", 3, at("bbox"))
        rates = float_column(column(cols, "decay_rate", n), "decay_rate", 1, at("decay_rate"))
        seens = float_column(column(cols, "last_seen", n), "last_seen", 1, at("last_seen"))
        homes = checked(column(cols, "room", n), _ROOM_ID, _room_id, at("room"))
        provs = checked(
            column(cols, "pose_provisional", n), _BOOL, lambda v: flag(v, "pose_provisional"),
            at("pose_provisional"),
        )
        ObjectNode._build(graph, zip(ids, labels, quats, trans, boxes, rates, seens, homes, provs), where)

    @staticmethod
    def _build(graph: "SceneGraph", rows, where) -> None:
        """File in ``graph`` a node for each ``(id, label, q, t, extents,
        decay_rate, last_seen, room, pose_provisional)`` of ``rows``, with
        ``q``, ``t`` and ``extents`` tuples of floats, filed under its label
        in ``room`` unless that is None; a node rule, duplicate id or unknown
        room of object ``i`` is refused as ``ValueError`` named ``where(key,
        i)``, ``key`` the field at fault."""
        objects, members = graph.objects, graph._members
        labels: dict[str, str] = {}  # each label as written -> its node label
        more = defaultdict(list)  # (room id, label) -> the ids filed there after the first
        new = object.__new__
        # The slots' own setters, which object.__setattr__ would look up by name
        # on every call; Pose and BBox3 are frozen, so a plain store raises.
        set_q, set_t, set_extents = Pose.q.__set__, Pose.t.__set__, BBox3.extents.__set__
        for oid, label, q, t, extents, decay_rate, last_seen, rid, provisional in rows:
            w, x, y, z = q
            norm = labels.get(label)
            if norm is None:
                norm = labels[label] = _norm_label(label)
            # The rules of Pose, BBox3 and ObjectNode, written out: geometry.is_unit
            # and is_positive, a label that is not blank and a decay rate >= 0.
            if not (
                abs(sqrt(sum((w * w, x * x, y * y, z * z))) - 1.0) <= QUAT_NORM_TOL
                and extents[0] > 0.0 and extents[1] > 0.0 and extents[2] > 0.0
                and norm
                and decay_rate >= 0.0
            ):
                # The first rule the object breaks raises its own error, named by
                # its field; every object before this one is built, so its index
                # is len(objects).
                i = len(objects)
                rules = (("q", Pose, (q, t)), ("bbox", BBox3, (extents,)), ("label", _node_label, (label,)))
                for key, rule, args in rules:
                    try:
                        rule(*args)
                    except ValueError as exc:
                        raise ValueError(f"{where(key, i)}: {exc}") from None
                raise ValueError(f"{where('decay_rate', i)}: decay_rate must be >= 0, got {decay_rate}")
            if oid in objects:
                raise ValueError(f"{where('id', len(objects))}: duplicate object id {oid!r}")
            if rid is not None:
                filed = members.get(rid)  # a label map for each room read
                if filed is None:
                    raise ValueError(f"{where('room', len(objects))}: unknown room id {rid!r}")
                if norm in filed:
                    more[rid, norm].append(oid)  # joined by _freeze
                else:
                    filed[norm] = (oid,)
            pose = new(Pose)
            set_q(pose, q)
            set_t(pose, t)
            bbox = new(BBox3)
            set_extents(bbox, extents)
            node = objects[oid] = new(ObjectNode)
            node.id = oid
            node.label = norm
            node.pose = pose
            node.bbox = bbox
            node.decay_rate = decay_rate
            node.last_seen = last_seen
            node.room = rid
            node.pose_provisional = provisional
        _freeze(members, more)


def _freeze(members: dict, more: dict) -> None:
    """Join to each label's first id, which a loader files as a 1-tuple, the
    ids it gathered after it in ``more``, so that a room holding one label N
    times loads in O(N) and a label held once costs no list."""
    for (rid, label), ids in more.items():
        members[rid][label] += tuple(ids)


class SceneGraph:
    """Mutable container for the two layers plus their edges."""

    def __init__(self, epoch: float = 0.0) -> None:
        self.epoch = float(epoch)
        self.rooms: dict[str, RoomNode] = {}
        self.objects: dict[str, ObjectNode] = {}
        self.access: set[tuple[str, str]] = set()  # canonical (min, max) room-id pairs
        # Indexes over the fields above (see the module docstring).
        self._room_ids: dict[str, str] = {}  # room label -> room id
        self._room_bounds: list[tuple] = []  # _room_bound(room) of each room, in insertion order
        # room id -> object label -> ids of the attached objects with that label there
        self._members: dict[str, dict[str, tuple[str, ...]]] = {}
        # Room ids whose label map no other graph holds: a copy shares every
        # map, and _room_members copies a shared one before its first write.
        self._own: set[str] = set()
        # Ids of the object nodes no other graph holds: the nodes this graph
        # built or cloned since its last copy(), which _editable writes in place.
        self._own_nodes: set[str] = set()
        # slug -> n such that every f"{slug}-{m}" with 1 <= m < n is an object id,
        # for each slug this graph owns (see the module docstring).
        self._id_floor: dict[str, int] = {}
        # The same for the slugs it does not own: one map shared with its copies.
        self._shared_floor: dict[str, int] = {}

    # ------------------------------------------------------------------
    # construction helpers

    def add_room(self, room: RoomNode) -> str:
        if room.id in self.rooms:
            raise DuplicateRoomLabel(f"room id {room.id!r} already present")
        if room.label in self._room_ids:
            raise DuplicateRoomLabel(f"room label {room.label!r} already present")
        self.rooms[room.id] = room
        self._room_ids[room.label] = room.id
        self._room_bounds.append(_room_bound(room))
        self._members[room.id] = {}
        self._own.add(room.id)
        return room.id

    def add_access(self, room_a: str, room_b: str) -> None:
        if room_a not in self.rooms or room_b not in self.rooms:
            raise UnknownRoom(f"access edge references unknown room: {room_a!r}/{room_b!r}")
        if room_a == room_b:
            raise SceneGraphError(f"access edge ({room_a!r}, {room_b!r}) must connect two distinct rooms")
        self.access.add((min(room_a, room_b), max(room_a, room_b)))

    def room_by_label(self, label: str) -> RoomNode:
        rid = self._room_ids.get(_norm_label(label))
        if rid is None:
            raise UnknownRoom(f"no room labeled {label!r}")
        return self.rooms[rid]

    def _next_id(self, label: str) -> str:
        """The id ``f"{slug}-{n}"`` of the smallest free ``n``, probed from the
        slug's owned floor, else its shared floor, else 1; the floor found is
        kept in the map it was read from, and the slug becomes this graph's
        own, as the caller is about to add the id."""
        slug = _norm_label(label).replace(" ", "-")
        floors = self._id_floor
        n = floors.get(slug)
        if n is None:
            floors = self._shared_floor
            n = floors.get(slug, 1)
        objects = self.objects
        while f"{slug}-{n}" in objects:
            n += 1
        floors[slug] = self._id_floor[slug] = n
        return f"{slug}-{n}"

    # ------------------------------------------------------------------
    # queries

    def find(self, label: str, room_scope: Optional[str] = None) -> list[str]:
        """Ids of attached objects with the given label, sorted.

        ``room_scope`` narrows the search to one room (by label) and raises
        :class:`UnknownRoom` if no such room exists. Detached objects are
        never returned.
        """
        wanted = _norm_label(label)
        if room_scope is None:
            return sorted(chain.from_iterable(filed.get(wanted, ()) for filed in self._members.values()))
        return sorted(self._members[self.room_by_label(room_scope).id].get(wanted, ()))

    def objects_in_room(self, room_id: str) -> list[str]:
        """Ids of the objects attached in the room with this id, sorted."""
        return sorted(chain.from_iterable(self._members.get(room_id, {}).values()))

    def assign_room(self, pose: Pose) -> str:
        """Room id whose axis-aligned box contains the pose translation.

        Ties (overlapping rooms) go to the smallest room volume, then to the
        smaller id so the result is deterministic. The containment test is
        :func:`~sgupdate.geometry.point_in_aabb`'s, written out inline.
        """
        x, y, z = pose.t
        hits = [
            (volume, rid)
            for cx, cy, cz, hx, hy, hz, volume, rid in self._room_bounds
            if abs(x - cx) <= hx and abs(y - cy) <= hy and abs(z - cz) <= hz
        ]
        if not hits:
            raise NoContainingRoom(f"pose translation {pose.t} is outside every room")
        return min(hits)[1]

    # ------------------------------------------------------------------
    # index upkeep

    def _room_members(self, room_id: str) -> dict[str, tuple[str, ...]]:
        """The label map of a room, made this graph's own before it is written."""
        filed = self._members[room_id]
        if room_id not in self._own:
            filed = self._members[room_id] = dict(filed)
            self._own.add(room_id)
        return filed

    def _editable(self, oid: str) -> ObjectNode:
        """The node of ``oid``, made this graph's own before a primitive writes
        it: the node itself if no other graph holds it, else a clone filed in
        its place."""
        if oid in self._own_nodes:
            return self.objects[oid]
        node = self.objects[oid] = self.objects[oid]._clone()
        self._own_nodes.add(oid)
        return node

    def _link(self, oid: str, room_id: str) -> None:
        """File the object under its label in the room its node now names."""
        label = self.objects[oid].label
        filed = self._room_members(room_id)
        filed[label] = filed.get(label, ()) + (oid,)

    def _unlink(self, oid: str, room_id: str) -> None:
        """Unfile the object, still in ``objects``, from the room its node named."""
        label = self.objects[oid].label
        filed = self._room_members(room_id)
        rest = tuple([other for other in filed[label] if other != oid])
        if rest:
            filed[label] = rest
        else:
            del filed[label]

    # ------------------------------------------------------------------
    # primitives

    def add_object(
        self,
        target_room: str,
        label: str,
        pose: Pose,
        bbox: BBox3,
        decay_rate: float,
        now: float,
        pose_provisional: bool = False,
    ) -> str:
        """Create an attached object in the room labeled ``target_room``."""
        room = self.room_by_label(target_room)
        oid = self._next_id(label)
        node = ObjectNode(
            id=oid,
            label=label,
            pose=pose,
            bbox=bbox,
            decay_rate=decay_rate,
            last_seen=float(now),
            room=room.id,
            pose_provisional=bool(pose_provisional),
        )
        self.objects[oid] = node
        self._own_nodes.add(oid)
        self._link(oid, room.id)
        return oid

    def _attached_in_room(self, source_room: str, target: str) -> tuple[ObjectNode, RoomNode]:
        room = self.room_by_label(source_room)
        node = self.objects.get(target)
        if node is None:
            raise UnknownObject(f"no object with id {target!r}")
        if node.room != room.id:
            raise WrongRoom(f"object {target!r} is not attached in room {source_room!r}")
        return node, room

    def remove_object(self, source_room: str, target: str) -> ObjectNode:
        """Delete the object (it must be attached in ``source_room``)."""
        node, room = self._attached_in_room(source_room, target)
        self._unlink(target, room.id)
        del self.objects[target]
        self._own_nodes.discard(target)
        # The slug's floor may now skip the freed id; 1 is a floor of every
        # slug, and the slug becomes this graph's own.
        self._id_floor[target.rsplit("-", 1)[0]] = 1
        return node

    def move_object(
        self,
        source_room: str,
        target_room: str,
        target: str,
        new_pose: Pose,
        now: float,
        pose_provisional: bool = False,
    ) -> None:
        """Relocate an object; equivalent to remove+add but keeps the id."""
        node, room = self._attached_in_room(source_room, target)
        new_room = self.room_by_label(target_room)
        if not isfinite(now):  # the error ObjectNode raises
            raise ValueError(f"last_seen must be finite, got {now!r}")
        node = self._editable(target)
        node.pose = new_pose
        node.last_seen = float(now)
        node.pose_provisional = bool(pose_provisional)
        node.room = new_room.id
        self._unlink(target, room.id)
        self._link(target, new_room.id)

    def detach(self, target: str) -> None:
        """Drop the belongs-to edge but keep the node (object picked up)."""
        node = self.objects.get(target)
        if node is None:
            raise UnknownObject(f"no object with id {target!r}")
        room_id = node.room
        if room_id is None:
            raise AlreadyDetached(f"object {target!r} is already detached")
        node = self._editable(target)
        node.room = None
        self._unlink(target, room_id)

    def reattach(self, target: str, room_label: str, pose: Pose, now: float) -> None:
        """Put a detached object back into a room at a concrete pose."""
        node = self.objects.get(target)
        if node is None:
            raise UnknownObject(f"no object with id {target!r}")
        room = self.room_by_label(room_label)
        if node.room is not None:
            raise AlreadyAttached(f"object {target!r} is already attached")
        if not isfinite(now):  # the error ObjectNode raises
            raise ValueError(f"last_seen must be finite, got {now!r}")
        node = self._editable(target)
        node.room = room.id
        node.pose = pose
        node.last_seen = float(now)
        node.pose_provisional = False
        self._link(target, room.id)

    def touch(self, targets: list[str], now: float) -> None:
        """Record a fresh observation of every object in ``targets`` at ``now``
        (resets their decay clocks).

        Every id must name an object and ``now`` must be finite before any
        node is written; then each node is refreshed in list order, in place
        if this graph already owns it (a frame's touch after an earlier one
        clones nothing) and as a clone otherwise. An empty list changes
        nothing.
        """
        objects = self.objects
        for target in targets:
            if target not in objects:
                raise UnknownObject(f"no object with id {target!r}")
        if not isfinite(now):  # the error ObjectNode raises
            raise ValueError(f"last_seen must be finite, got {now!r}")
        now = float(now)
        editable = self._editable
        for target in targets:
            editable(target).last_seen = now

    # ------------------------------------------------------------------

    def copy(self) -> "SceneGraph":
        """A graph equal in value to this one that shares every room and
        object node and every room's label map.

        The other containers are copied. Rooms are frozen, and an object node
        or a label map is copied by whichever graph first writes it: after a
        copy neither graph owns any, so neither graph can change the other's
        value. The copy keeps this graph's own id floors and shares its map
        of the floors of the slugs neither owns, so the two are not
        independent for concurrent use.
        """
        dup = SceneGraph(epoch=self.epoch)
        dup.rooms = dict(self.rooms)
        dup.objects = dict(self.objects)
        dup.access = set(self.access)
        dup._room_ids = dict(self._room_ids)
        dup._room_bounds = list(self._room_bounds)
        dup._members = dict(self._members)
        dup._id_floor = dict(self._id_floor)
        dup._shared_floor = self._shared_floor
        self._own.clear()
        self._own_nodes.clear()
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SceneGraph(rooms={len(self.rooms)}, objects={len(self.objects)}, "
            f"access={len(self.access)})"
        )


# ----------------------------------------------------------------------
# invariants and comparisons


def check_invariants(graph: SceneGraph) -> list[str]:
    """Structural and index invariant violations, empty when the graph is healthy."""
    problems: list[str] = []
    labels = [r.label for r in graph.rooms.values()]
    if len(labels) != len(set(labels)):
        problems.append("room labels are not unique")
    for oid, node in graph.objects.items():
        if node.room is not None and node.room not in graph.rooms:
            problems.append(f"object {oid!r} belongs to unknown room {node.room!r}")
    for a, b in graph.access:
        if a not in graph.rooms or b not in graph.rooms:
            problems.append(f"access edge ({a!r}, {b!r}) references an unknown room")
        if a == b:
            problems.append(f"access edge ({a!r}, {b!r}) is a self-loop")
        if a > b:
            problems.append(f"access edge ({a!r}, {b!r}) is not stored canonically")
    for oid, node in graph.objects.items():
        if node.decay_rate < 0.0:
            problems.append(f"object {oid!r} has negative decay_rate")
    if graph._room_ids != {room.label: rid for rid, room in graph.rooms.items()}:
        problems.append("room label index does not match the rooms")
    if graph._room_bounds != [_room_bound(room) for room in graph.rooms.values()]:
        problems.append("room box index does not match the rooms")
    # Each attached node is filed once, in its own room under its own label, and nothing else is.
    members, objects = graph._members, graph.objects
    if members.keys() != graph.rooms.keys():
        problems.append("room member index does not hold one label map per room")
    filings: dict[str, list[str]] = {}  # object id -> the rooms that file it
    for rid, filed in members.items():
        for label, ids in filed.items():
            if not ids:
                problems.append(f"room {rid!r} files an empty entry for label {label!r}")
            for oid in ids:
                filings.setdefault(oid, []).append(rid)
                node = objects.get(oid)
                if node is None:
                    problems.append(f"room {rid!r} files unknown object {oid!r}")
                elif node.room != rid or node.label != label:
                    problems.append(
                        f"room {rid!r} files {oid!r} under {label!r}, but its node is in room "
                        f"{node.room!r} with label {node.label!r}"
                    )
    for oid, rids in filings.items():
        if len(rids) > 1:
            problems.append(f"object {oid!r} is filed {len(rids)} times")
    for oid, node in objects.items():
        if node.room in members and node.room not in filings.get(oid, ()):
            problems.append(f"object {oid!r} is attached in room {node.room!r} but not filed there")
    # Each owned floor, and the shared floor of each slug the graph does not own.
    for slug, floor in {**graph._shared_floor, **graph._id_floor}.items():
        if not all(f"{slug}-{n}" in graph.objects for n in range(1, floor)):
            problems.append(f"id floor {floor} of {slug!r} skips a free id")
    for oid in sorted(graph._own_nodes - graph.objects.keys()):
        problems.append(f"owned node id {oid!r} names no object")
    return problems


def _objects_match(a: ObjectNode, b: ObjectNode, tol: float, ignore_last_seen: bool) -> bool:
    if a.label != b.label or a.room != b.room:
        return False
    if not poses_close(a.pose, b.pose, tol):
        return False
    if any(abs(x - y) > tol for x, y in zip(a.bbox.extents, b.bbox.extents)):
        return False
    if abs(a.decay_rate - b.decay_rate) > tol:
        return False
    if not ignore_last_seen:
        if abs(a.last_seen - b.last_seen) > tol or a.pose_provisional != b.pose_provisional:
            return False
    return True


def graphs_equal(
    a: SceneGraph,
    b: SceneGraph,
    tol: float = 1e-9,
    ignore_last_seen: bool = False,
) -> bool:
    """Field-by-field equality with a numeric tolerance on poses.

    With ``ignore_last_seen`` the comparison skips observation bookkeeping
    (``last_seen``, ``pose_provisional``, ``epoch``), which is the right mode
    for comparing an estimated graph against ground truth.
    """
    if set(a.rooms) != set(b.rooms) or set(a.objects) != set(b.objects):
        return False
    if a.access != b.access:
        return False
    if not ignore_last_seen and abs(a.epoch - b.epoch) > tol:
        return False
    for rid in a.rooms:
        ra, rb = a.rooms[rid], b.rooms[rid]
        if ra.label != rb.label or not poses_close(ra.pose, rb.pose, tol):
            return False
        if any(abs(x - y) > tol for x, y in zip(ra.bbox.extents, rb.bbox.extents)):
            return False
    for oid in a.objects:
        if not _objects_match(a.objects[oid], b.objects[oid], tol, ignore_last_seen):
            return False
    return True


def graphs_equivalent(a: SceneGraph, b: SceneGraph, tol: float = 1e-9) -> bool:
    """Equality up to object ids.

    Object ids are generator bookkeeping; two graphs describe the same world
    when their rooms match and their objects pair up one-to-one on content
    (label, pose, box, decay, last_seen and room; the rooms' ids and labels
    match, so a room id names the same room in both).
    """
    if set(a.rooms) != set(b.rooms) or a.access != b.access:
        return False
    for rid in a.rooms:
        ra, rb = a.rooms[rid], b.rooms[rid]
        if ra.label != rb.label or not poses_close(ra.pose, rb.pose, tol):
            return False

    remaining = list(b.objects)
    for node_a in a.objects.values():
        match = None
        for oid_b in remaining:
            if _objects_match(node_a, b.objects[oid_b], tol, ignore_last_seen=False):
                match = oid_b
                break
        if match is None:
            return False
        remaining.remove(match)
    return not remaining


# ----------------------------------------------------------------------
# serialization


class _CollectorPaused:
    """Context manager running its block with the cyclic garbage collector off.

    If the collector was on, it is back on at exit, errors included, and if
    the block left more young objects than the young threshold, one young
    and middle pass runs there, moving what the block built to the oldest
    generation, rather than a young pass in the caller's next allocation and
    a middle pass later. A class, not a generator: this runs on every load
    and save, and a generator-based manager costs several microseconds more.
    """

    __slots__ = ("was_enabled",)

    def __enter__(self) -> None:
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self.was_enabled:
            # Decided before the collector is back on, so that no allocation
            # in between can start a young pass of its own.
            settle = gc.get_count()[0] > gc.get_threshold()[0]
            gc.enable()
            if settle:
                gc.collect(1)


def graph_to_payload(graph: SceneGraph) -> dict:
    """JSON-ready column document; poses and boxes of rooms appear as tuples
    (JSON arrays).

    ``objects`` holds one list per field, each in object-id order: ``id``,
    ``label``, ``room`` (the node's ``room``, ``None`` while detached),
    ``pose_provisional``, ``decay_rate`` and ``last_seen``, and the flat
    lists ``q``, ``t`` and ``bbox`` of 4, 3 and 3 numbers per object. Every
    dict is built with its keys in sorted order, the order :func:`serialize`
    writes them in.
    """
    ids = sorted(graph.objects)
    nodes = list(map(graph.objects.__getitem__, ids))
    poses = [node.pose for node in nodes]
    flat = chain.from_iterable
    return {
        "access": sorted(list(pair) for pair in graph.access),
        "epoch": graph.epoch,
        "objects": {
            "bbox": list(flat([node.bbox.extents for node in nodes])),
            "decay_rate": [node.decay_rate for node in nodes],
            "id": ids,
            "label": [node.label for node in nodes],
            "last_seen": [node.last_seen for node in nodes],
            "pose_provisional": [node.pose_provisional for node in nodes],
            "q": list(flat([pose.q for pose in poses])),
            "room": [node.room for node in nodes],
            "t": list(flat([pose.t for pose in poses])),
        },
        "rooms": [
            {
                "bbox": room.bbox.extents,
                "id": room.id,
                "label": room.label,
                "pose": {"q": room.pose.q, "t": room.pose.t},
            }
            for _, room in sorted(graph.rooms.items())
        ],
    }


def serialize(graph: SceneGraph) -> bytes:
    """Canonical UTF-8 JSON bytes, keys sorted; byte-identical for equal graphs."""
    with _CollectorPaused():  # the payload is freed inside the block
        # The payload is a fresh tree of dicts and lists, with no cycle to look for.
        return json.dumps(
            graph_to_payload(graph), separators=(",", ":"), check_circular=False
        ).encode("utf-8")


def graph_from_payload(data: dict) -> SceneGraph:
    """The graph a document describes, read with the checks the primitives
    make into the indexes they keep; errors are :class:`ParseError` naming
    the bad key, column value or entry.

    A document with a ``belongs_to`` map is read as a row document (each
    object an entry of the ``objects`` list), any other as the column
    document :func:`graph_to_payload` builds, so a column document that
    also carries ``belongs_to`` is refused: its ``objects`` is not a list.
    """
    try:
        return _read_graph(obj(data, "a graph document"))
    except (ValueError, SceneGraphError) as exc:
        raise ParseError(str(exc)) from exc


def _read_graph(data: dict) -> SceneGraph:
    """:func:`graph_from_payload`, raising the errors it turns into ParseError."""
    graph = SceneGraph(epoch=number(data.get("epoch", 0.0), "epoch"))

    def read_room(entry: dict) -> None:
        room = RoomNode(
            id=text(entry["id"], "id"),
            label=text(entry["label"], "label"),
            pose=Pose.from_dict(entry["pose"]),
            bbox=BBox3(entry["bbox"]),
        )
        try:
            graph.add_room(room)
        except DuplicateRoomLabel as exc:  # re-raised so that ``entries`` names the entry
            raise ValueError(str(exc)) from exc

    entries(data.get("rooms"), "rooms", read_room)
    if "belongs_to" in data:  # a row document
        ObjectNode._load(graph, data.get("objects"), data["belongs_to"])
    else:
        ObjectNode._load_columns(graph, data.get("objects"))
    for i, pair in enumerate(array(data.get("access"), "access")):
        try:
            graph.add_access(*texts(pair, f"access[{i}]", 2))
        except SceneGraphError as exc:
            raise ValueError(f"access[{i}]: {exc}") from exc
    return graph


def deserialize(data: bytes | str) -> SceneGraph:
    """Parse graph bytes/text; raises :class:`ParseError` with a location."""
    # The document is freed inside the block, so the settling pass does not scan it.
    with _CollectorPaused():
        return graph_from_payload(_decoded(data))


# Decodes an integer literal too long for Python to read as a LongInt, which the
# readers refuse by name, rather than refusing the whole document unnamed.
_DECODER = json.JSONDecoder(parse_int=json_int)


def _decoded(data: bytes | str):
    """The JSON value of ``data``; raises :class:`ParseError` with a location."""
    try:
        return _DECODER.decode(data.decode("utf-8") if isinstance(data, bytes) else data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"offset {exc.pos}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that are not UTF-8
        raise ParseError(str(exc)) from exc
