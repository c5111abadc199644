"""Two-layer 3D scene graph: rooms, objects, and the edges between them.

The graph keeps a room layer and an object layer. Every attached object has
exactly one belongs-to edge into a room; rooms are connected by symmetric
access edges. There are no object-to-object edges, by construction.

Mutations go through the primitive operations defined here (``find``,
``add_object``, ``remove_object``, ``move_object``, ``detach``, ``reattach``,
``touch``). Each primitive validates its inputs before touching any state, so
a raised error leaves the graph unchanged. The structure is plain Python and
is not safe for concurrent mutation; hand a copy to other workers instead.

Object nodes are values shared between copies: :meth:`SceneGraph.copy`
copies the containers and never a node, and a primitive that changes a
node's fields first files a fresh copy of the node in its own graph's
``objects``, then edits that copy. A node reachable from a graph is
therefore never edited in place, and a copy and its original cannot change
each other.

The room layer doubles as a spatial index. The graph keeps a room-label map,
each room's set of attached objects and, per room, a box around its members'
translations that only grows until the graph is next loaded. Scoped ``find``,
``objects_in_room`` and ``objects_near`` read them instead of scanning every
object; ``assign_room`` reads a flat list of the rooms' boxes. One more index
belongs to :mod:`sgupdate.decay`: ``stale_index``, ``None`` on a new, copied or
loaded graph and built by the first staleness query; ``add_object``,
``move_object``, ``reattach`` and ``touch`` report to it the id they file a
new node under. Only ``add_room``, the primitives and the loader may write
``rooms``, ``objects`` or ``belongs_to``, and only the primitives may write an
object's fields, since anything else would leave the indexes stale or edit a
node other graphs share; :func:`check_invariants` verifies the room indexes.

The loader builds each object entry of exactly the shape :func:`serialize`
writes from one combined test (:func:`~sgupdate.values.node_entry`) and the
node classes' own rules, skipping the per-value readers; every other entry,
and every entry a rule refuses, goes through those readers, which read it or
raise the error that names the bad value. A load normalizes each distinct
object label once, and the nodes that carry it share the string.

:func:`serialize` and :func:`deserialize` run with the cyclic garbage
collector paused. A graph document and the graph built from it hold no
reference cycles and everything a load builds survives, so a collection in
the middle of one only rescans a growing heap and finds nothing.
"""
from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from math import isfinite
from typing import Optional, Sequence

from .geometry import BBox3, InvalidGeometry, Pose, is_positive, is_unit, poses_close
from .values import array, entries, flag, node_entry, number, obj, text, texts

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


def _room_box(room: "RoomNode") -> tuple:
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

    Only the graph primitives write these fields, and only on a node they
    have just cloned into their own graph (see the module docstring).
    """

    id: str
    label: str
    pose: Pose
    bbox: BBox3
    decay_rate: float  # 1/seconds; 0 marks an immovable object
    last_seen: float  # seconds since the graph epoch
    attached: bool = True
    pose_provisional: bool = False  # True until a sensed pose replaces a guessed one

    def __post_init__(self) -> None:
        self.label = _node_label(self.label)
        self.decay_rate = number(self.decay_rate, "decay_rate")
        self.last_seen = number(self.last_seen, "last_seen")
        if self.decay_rate < 0.0:
            raise InvalidGeometry(f"decay_rate must be >= 0, got {self.decay_rate}")

    def _clone(self) -> "ObjectNode":
        # Fields were validated when this node was built; skip __post_init__
        # (a primitive clones a node on every write, touches included).
        dup = object.__new__(ObjectNode)
        dup.id = self.id
        dup.label = self.label
        dup.pose = self.pose
        dup.bbox = self.bbox
        dup.decay_rate = self.decay_rate
        dup.last_seen = self.last_seen
        dup.attached = self.attached
        dup.pose_provisional = self.pose_provisional
        return dup

    @staticmethod
    def _of(fields: tuple, labels: dict[str, str]) -> Optional["ObjectNode"]:
        """The node of ``fields``, an entry :func:`~sgupdate.values.node_entry`
        read, or None when the unit-quaternion, positive-extent or decay-rate
        rule refuses it; a blank label raises the node classes' ValueError.
        ``labels`` maps each label as written to its node label, so that one
        load normalizes a label once and its nodes share the string."""
        oid, label, q, t, extents, decay_rate, last_seen, attached, provisional = fields
        if not (is_unit(q) and is_positive(extents) and decay_rate >= 0.0):
            return None
        norm = labels.get(label)
        if norm is None:
            norm = labels[label] = _node_label(label)
        node = object.__new__(ObjectNode)
        node.id = oid
        node.label = norm
        node.pose = Pose._unchecked(q, t)
        node.bbox = BBox3._unchecked(extents)
        node.decay_rate = decay_rate
        node.last_seen = last_seen
        node.attached = attached
        node.pose_provisional = provisional
        return node


class SceneGraph:
    """Mutable container for the two layers plus their edges."""

    def __init__(self, epoch: float = 0.0) -> None:
        self.epoch = float(epoch)
        self.rooms: dict[str, RoomNode] = {}
        self.objects: dict[str, ObjectNode] = {}
        self.belongs_to: dict[str, str] = {}  # object id -> room id
        self.access: set[tuple[str, str]] = set()  # canonical (min, max) room-id pairs
        # Indexes over the fields above (see the module docstring).
        self._room_ids: dict[str, str] = {}  # room label -> room id
        self._room_boxes: list[tuple] = []  # _room_box(room) of each room, in insertion order
        self._members: dict[str, set[str]] = {}  # room id -> attached object ids
        # room id -> (min x, min y, min z, max x, max y, max z) over the members'
        # translations, or a larger box: it does not shrink when members leave.
        self._boxes: dict[str, tuple[float, ...]] = {}
        # slug -> n such that every f"{slug}-{m}" with m < n is an object id.
        self._id_floor: dict[str, int] = {}
        # decay's staleness index over this graph; None until the first
        # stale_targets query, and on every new, copied or loaded graph. The
        # primitives that file a new node add its id to ``stale_index.written``.
        self.stale_index = None

    # ------------------------------------------------------------------
    # construction helpers

    def add_room(self, room: RoomNode) -> str:
        if room.id in self.rooms:
            raise DuplicateRoomLabel(f"room id {room.id!r} already present")
        if room.label in self._room_ids:
            raise DuplicateRoomLabel(f"room label {room.label!r} already present")
        self.rooms[room.id] = room
        self._room_ids[room.label] = room.id
        self._room_boxes.append(_room_box(room))
        self._members[room.id] = set()
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
        slug = _norm_label(label).replace(" ", "-")
        n = self._id_floor.get(slug, 1)
        while f"{slug}-{n}" in self.objects:
            n += 1
        self._id_floor[slug] = n
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
        objects = self.objects
        if room_scope is None:
            return sorted(
                oid for oid, node in objects.items() if node.attached and node.label == wanted
            )
        members = self._members[self.room_by_label(room_scope).id]
        return sorted(oid for oid in members if objects[oid].label == wanted)

    def objects_in_room(self, room_id: str) -> list[str]:
        """Ids of the objects attached in the room with this id, sorted."""
        return sorted(self._members.get(room_id, ()))

    def objects_near(self, point: Sequence[float], radius: float) -> list[str]:
        """Attached objects of every room whose member box comes closer than ``radius``.

        Every attached object whose translation lies closer than ``radius`` to
        ``point`` is included, even one whose pose lies outside its room's
        ``bbox``: member boxes are built from the members' translations, not
        from the room geometry. Objects farther away may be included too. The
        order is unspecified.

        The squared box distance is computed term by term like a member's
        squared distance ``dx * dx + dy * dy + dz * dz`` with ``dx = x - px``,
        and each term is no larger, so a member with squared distance below
        ``radius * radius`` is never dropped by rounding.
        """
        px, py, pz = point
        r2 = radius * radius
        out: list[str] = []
        for rid, (x0, y0, z0, x1, y1, z1) in self._boxes.items():
            dx = x0 - px if px < x0 else (px - x1 if px > x1 else 0.0)
            dy = y0 - py if py < y0 else (py - y1 if py > y1 else 0.0)
            dz = z0 - pz if pz < z0 else (pz - z1 if pz > z1 else 0.0)
            if dx * dx + dy * dy + dz * dz < r2:
                out.extend(self._members[rid])
        return out

    def assign_room(self, pose: Pose) -> str:
        """Room id whose axis-aligned box contains the pose translation.

        Ties (overlapping rooms) go to the smallest room volume, then to the
        smaller id so the result is deterministic. The containment test is
        :func:`~sgupdate.geometry.point_in_aabb`'s, written out inline.
        """
        x, y, z = pose.t
        hits = [
            (volume, rid)
            for cx, cy, cz, hx, hy, hz, volume, rid in self._room_boxes
            if abs(x - cx) <= hx and abs(y - cy) <= hy and abs(z - cz) <= hz
        ]
        if not hits:
            raise NoContainingRoom(f"pose translation {pose.t} is outside every room")
        return min(hits)[1]

    # ------------------------------------------------------------------
    # index upkeep

    def _link(self, oid: str, room_id: str, t: Sequence[float]) -> None:
        """Set the belongs-to edge and file the object under its room."""
        self.belongs_to[oid] = room_id
        self._members[room_id].add(oid)
        x, y, z = t
        x0, y0, z0, x1, y1, z1 = self._boxes.get(room_id, (x, y, z, x, y, z))
        self._boxes[room_id] = (
            x if x < x0 else x0, y if y < y0 else y0, z if z < z0 else z0,
            x if x > x1 else x1, y if y > y1 else y1, z if z > z1 else z1,
        )

    def _unlink(self, oid: str) -> None:
        """Drop the belongs-to edge; the room's box keeps its size."""
        self._members[self.belongs_to.pop(oid)].discard(oid)

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
            attached=True,
            pose_provisional=bool(pose_provisional),
        )
        self.objects[oid] = node
        self._link(oid, room.id, pose.t)
        if self.stale_index is not None:  # tell it ``oid`` names a new node
            self.stale_index.written.add(oid)
        return oid

    def _attached_in_room(self, source_room: str, target: str) -> tuple[ObjectNode, RoomNode]:
        room = self.room_by_label(source_room)
        node = self.objects.get(target)
        if node is None:
            raise UnknownObject(f"no object with id {target!r}")
        if not node.attached or self.belongs_to.get(target) != room.id:
            raise WrongRoom(f"object {target!r} is not attached in room {source_room!r}")
        return node, room

    def remove_object(self, source_room: str, target: str) -> ObjectNode:
        """Delete the object (it must be attached in ``source_room``)."""
        node, _ = self._attached_in_room(source_room, target)
        del self.objects[target]
        self._id_floor.pop(target.rsplit("-", 1)[0], None)
        self._unlink(target)
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
        node, _ = self._attached_in_room(source_room, target)
        new_room = self.room_by_label(target_room)
        if not isfinite(now):  # the error ObjectNode raises
            raise ValueError(f"last_seen must be finite, got {now!r}")
        node = self.objects[target] = node._clone()
        node.pose = new_pose
        node.last_seen = float(now)
        node.pose_provisional = bool(pose_provisional)
        self._unlink(target)
        self._link(target, new_room.id, new_pose.t)
        if self.stale_index is not None:
            self.stale_index.written.add(target)

    def detach(self, target: str) -> None:
        """Drop the belongs-to edge but keep the node (object picked up)."""
        node = self.objects.get(target)
        if node is None:
            raise UnknownObject(f"no object with id {target!r}")
        if not node.attached:
            raise AlreadyDetached(f"object {target!r} is already detached")
        node = self.objects[target] = node._clone()
        node.attached = False
        self._unlink(target)

    def reattach(self, target: str, room_label: str, pose: Pose, now: float) -> None:
        """Put a detached object back into a room at a concrete pose."""
        node = self.objects.get(target)
        if node is None:
            raise UnknownObject(f"no object with id {target!r}")
        room = self.room_by_label(room_label)
        if node.attached:
            raise AlreadyAttached(f"object {target!r} is already attached")
        if not isfinite(now):  # the error ObjectNode raises
            raise ValueError(f"last_seen must be finite, got {now!r}")
        node = self.objects[target] = node._clone()
        node.attached = True
        node.pose = pose
        node.last_seen = float(now)
        node.pose_provisional = False
        self._link(target, room.id, pose.t)
        if self.stale_index is not None:
            self.stale_index.written.add(target)

    def touch(self, target: str, now: float) -> None:
        """Record a fresh observation of an object (resets its decay clock)."""
        node = self.objects.get(target)
        if node is None:
            raise UnknownObject(f"no object with id {target!r}")
        if not isfinite(now):  # the error ObjectNode raises
            raise ValueError(f"last_seen must be finite, got {now!r}")
        node = self.objects[target] = node._clone()
        node.last_seen = float(now)
        if self.stale_index is not None:
            self.stale_index.written.add(target)

    # ------------------------------------------------------------------

    def copy(self) -> "SceneGraph":
        """Independent graph that shares every room and object node.

        Only the containers are copied. Rooms are frozen; object nodes are
        never edited in place (the primitives replace a node before writing
        it), so neither graph can change the other.
        """
        dup = SceneGraph(epoch=self.epoch)
        dup.rooms = dict(self.rooms)
        dup.objects = dict(self.objects)
        dup.belongs_to = dict(self.belongs_to)
        dup.access = set(self.access)
        dup._room_ids = dict(self._room_ids)
        dup._room_boxes = list(self._room_boxes)
        dup._members = {rid: set(ids) for rid, ids in self._members.items()}
        dup._boxes = dict(self._boxes)
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
    attached = {oid for oid, node in graph.objects.items() if node.attached}
    if set(graph.belongs_to) != attached:
        problems.append("belongs_to keys do not exactly match attached object ids")
    for oid, rid in graph.belongs_to.items():
        if rid not in graph.rooms:
            problems.append(f"belongs_to[{oid!r}] references unknown room {rid!r}")
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
    if graph._room_boxes != [_room_box(room) for room in graph.rooms.values()]:
        problems.append("room box index does not match the rooms")
    members, boxes = graph._members, graph._boxes
    # Sets hold no duplicates, so equal totals plus every edge being filed
    # (checked below) means the member sets are belongs_to grouped by room.
    total = sum(map(len, members.values()))
    if members.keys() != graph.rooms.keys() or total != len(graph.belongs_to):
        problems.append("room member index does not match belongs_to")
    for oid, rid in graph.belongs_to.items():
        if oid not in members.get(rid, ()):
            problems.append(f"room member index does not file {oid!r} under {rid!r}")
        node, box = graph.objects.get(oid), boxes.get(rid)
        if node is None:
            continue  # a belongs_to/attached mismatch, reported above
        x, y, z = node.pose.t
        if box is None or not (box[0] <= x <= box[3] and box[1] <= y <= box[4] and box[2] <= z <= box[5]):
            problems.append(f"member box of room {rid!r} does not contain object {oid!r}")
    for slug, floor in graph._id_floor.items():
        if not all(f"{slug}-{n}" in graph.objects for n in range(1, floor)):
            problems.append(f"id floor {floor} of {slug!r} skips a free id")
    return problems


def _objects_match(a: ObjectNode, b: ObjectNode, tol: float, ignore_last_seen: bool) -> bool:
    if a.label != b.label or a.attached != b.attached:
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
    if a.belongs_to != b.belongs_to or a.access != b.access:
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
    (label, pose, box, decay, last_seen, attachment and room label).
    """
    if set(a.rooms) != set(b.rooms) or a.access != b.access:
        return False
    for rid in a.rooms:
        ra, rb = a.rooms[rid], b.rooms[rid]
        if ra.label != rb.label or not poses_close(ra.pose, rb.pose, tol):
            return False

    def room_label_of(graph: SceneGraph, oid: str) -> Optional[str]:
        rid = graph.belongs_to.get(oid)
        return graph.rooms[rid].label if rid is not None else None

    remaining = list(b.objects)
    for oid_a, node_a in a.objects.items():
        match = None
        for oid_b in remaining:
            node_b = b.objects[oid_b]
            if _objects_match(node_a, node_b, tol, ignore_last_seen=False) and room_label_of(
                a, oid_a
            ) == room_label_of(b, oid_b):
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
    """JSON-ready document; poses and boxes appear as tuples (JSON arrays).

    Every dict is built with its keys in sorted order, the order
    :func:`serialize` writes them in.
    """
    return {
        "access": sorted(list(pair) for pair in graph.access),
        "belongs_to": dict(sorted(graph.belongs_to.items())),
        "epoch": graph.epoch,
        "objects": [
            {
                "attached": node.attached,
                "bbox": node.bbox.extents,
                "decay_rate": node.decay_rate,
                "id": node.id,
                "label": node.label,
                "last_seen": node.last_seen,
                "pose": {"q": node.pose.q, "t": node.pose.t},
                "pose_provisional": node.pose_provisional,
            }
            for _, node in sorted(graph.objects.items())
        ],
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
        return json.dumps(graph_to_payload(graph), separators=(",", ":")).encode("utf-8")


def graph_from_payload(data: dict) -> SceneGraph:
    """The graph a document describes, read in one pass through the checks and
    index upkeep the primitives use; errors are :class:`ParseError` naming the
    bad key or entry."""
    try:
        return _read_graph(obj(data, "a graph document"))
    except (ValueError, SceneGraphError) as exc:
        raise ParseError(str(exc)) from exc


def _read_graph(data: dict) -> SceneGraph:
    """:func:`graph_from_payload`, raising the errors it turns into ParseError."""
    graph = SceneGraph(epoch=number(data.get("epoch", 0.0), "epoch"))
    labels: dict[str, str] = {}  # ObjectNode._of's label memo, for this load only

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

    def read_object(entry: dict) -> ObjectNode:
        # The common case, the shape serialize writes, in one test; anything
        # else, and whatever a rule refuses, takes the per-value readers.
        fields = node_entry(entry)
        node = None if fields is None else ObjectNode._of(fields, labels)
        if node is None:
            node = ObjectNode(
                id=text(entry["id"], "id"),
                label=text(entry["label"], "label"),
                pose=Pose.from_dict(entry["pose"]),
                bbox=BBox3(entry["bbox"]),
                decay_rate=entry["decay_rate"],
                last_seen=entry["last_seen"],
                attached=flag(entry.get("attached", True), "attached"),
                pose_provisional=flag(entry.get("pose_provisional", False), "pose_provisional"),
            )
        if node.id in graph.objects:
            raise ValueError(f"duplicate object id {node.id!r}")
        graph.objects[node.id] = node
        return node

    entries(data.get("rooms"), "rooms", read_room)
    attached = sum(n.attached for n in entries(data.get("objects"), "objects", read_object))
    belongs = obj(data.get("belongs_to"), "belongs_to")
    for oid, rid in belongs.items():
        node = graph.objects.get(oid)
        if node is None:
            raise ValueError(f"belongs_to[{oid!r}]: unknown object id")
        if rid.__hash__ is None or rid not in graph.rooms:  # an array or object is unhashable
            raise ValueError(f"belongs_to[{oid!r}]: unknown room id {rid!r}")
        if node.attached:
            graph._link(oid, rid, node.pose.t)
    # Keys are unique: every key was linked, so names an attached object, and
    # there are as many as attached objects, so every attached object has one.
    if not len(graph.belongs_to) == len(belongs) == attached:
        raise ValueError(
            "document violates graph invariants: "
            "belongs_to keys do not exactly match attached object ids"
        )
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


def _decoded(data: bytes | str):
    """The JSON value of ``data``; raises :class:`ParseError` with a location."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"offset {exc.pos}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or an integer of over 4,300 digits
        raise ParseError(str(exc)) from exc
