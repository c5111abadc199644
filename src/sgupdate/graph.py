"""Two-layer 3D scene graph: rooms, objects, and the edges between them.

The graph keeps a room layer and an object layer. Every attached object has
exactly one belongs-to edge into a room; rooms are connected by symmetric
access edges. There are no object-to-object edges, by construction.

Mutations go through the primitive operations defined here (``find``,
``add_object``, ``remove_object``, ``move_object``, ``detach``, ``reattach``,
``touch``). Each primitive validates its inputs before touching any state, so
a raised error leaves the graph unchanged. The structure is plain Python and
is not safe for concurrent mutation; hand a copy to other workers instead.

The room layer doubles as a spatial index. The graph keeps a room-label map,
each room's set of attached objects and, per room, a box around its members'
translations that only grows until the graph is next loaded. Scoped ``find``,
``objects_in_room`` and ``objects_near`` read them instead of scanning every
object. Only ``add_room``, the primitives and the loader may write ``rooms``,
``objects`` or ``belongs_to`` (or an object's pose or attachment), since
anything else would leave the indexes stale; :func:`check_invariants`
verifies them.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import BBox3, InvalidGeometry, Pose, point_in_aabb, poses_close

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
    return " ".join(str(label).strip().lower().split())


@dataclass(frozen=True)
class RoomNode:
    id: str
    label: str
    pose: Pose
    bbox: BBox3

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", _norm_label(self.label))


@dataclass
class ObjectNode:
    id: str
    label: str
    pose: Pose
    bbox: BBox3
    decay_rate: float  # 1/seconds; 0 marks an immovable object
    last_seen: float  # seconds since the graph epoch
    attached: bool = True
    pose_provisional: bool = False  # True until a sensed pose replaces a guessed one

    def __post_init__(self) -> None:
        self.label = _norm_label(self.label)
        self.decay_rate = float(self.decay_rate)
        self.last_seen = float(self.last_seen)
        if not math.isfinite(self.decay_rate) or not math.isfinite(self.last_seen):
            raise InvalidGeometry(
                f"decay_rate and last_seen must be finite, got {self.decay_rate}, {self.last_seen}"
            )
        if self.decay_rate < 0.0:
            raise InvalidGeometry(f"decay_rate must be >= 0, got {self.decay_rate}")

    def _clone(self) -> "ObjectNode":
        # Fields were validated when this node was built; skip __post_init__.
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
        self._members: dict[str, set[str]] = {}  # room id -> attached object ids
        # room id -> (min x, min y, min z, max x, max y, max z) over the members'
        # translations, or a larger box: it does not shrink when members leave.
        self._boxes: dict[str, tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    # construction helpers

    def add_room(self, room: RoomNode) -> str:
        if room.id in self.rooms:
            raise DuplicateRoomLabel(f"room id {room.id!r} already present")
        if room.label in self._room_ids:
            raise DuplicateRoomLabel(f"room label {room.label!r} already present")
        self.rooms[room.id] = room
        self._room_ids[room.label] = room.id
        self._members[room.id] = set()
        return room.id

    def add_access(self, room_a: str, room_b: str) -> None:
        if room_a not in self.rooms or room_b not in self.rooms:
            raise UnknownRoom(f"access edge references unknown room: {room_a!r}/{room_b!r}")
        if room_a == room_b:
            raise SceneGraphError("access edges must connect two distinct rooms")
        self.access.add((min(room_a, room_b), max(room_a, room_b)))

    def room_by_label(self, label: str) -> RoomNode:
        rid = self._room_ids.get(_norm_label(label))
        if rid is None:
            raise UnknownRoom(f"no room labeled {label!r}")
        return self.rooms[rid]

    def _next_id(self, label: str) -> str:
        slug = _norm_label(label).replace(" ", "-")
        n = 1
        while f"{slug}-{n}" in self.objects:
            n += 1
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
        smaller id so the result is deterministic.
        """
        hits = []
        for rid, room in self.rooms.items():
            if point_in_aabb(pose.t, room.pose.t, room.bbox.half_sizes_xyz()):
                hits.append((room.bbox.volume, rid))
        if not hits:
            raise NoContainingRoom(f"pose translation {pose.t} is outside every room")
        hits.sort()
        return hits[0][1]

    # ------------------------------------------------------------------
    # index upkeep

    def _link(self, oid: str, room_id: str, t: Sequence[float]) -> None:
        """Set the belongs-to edge and file the object under its room."""
        self.belongs_to[oid] = room_id
        self._members[room_id].add(oid)
        x, y, z = t
        x0, y0, z0, x1, y1, z1 = self._boxes.get(room_id, (x, y, z, x, y, z))
        self._boxes[room_id] = (min(x0, x), min(y0, y), min(z0, z), max(x1, x), max(y1, y), max(z1, z))

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
        if float(decay_rate) < 0.0:
            raise InvalidGeometry(f"decay_rate must be >= 0, got {decay_rate}")
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
        node.pose = new_pose
        node.last_seen = float(now)
        node.pose_provisional = bool(pose_provisional)
        self._unlink(target)
        self._link(target, new_room.id, new_pose.t)

    def detach(self, target: str) -> None:
        """Drop the belongs-to edge but keep the node (object picked up)."""
        node = self.objects.get(target)
        if node is None:
            raise UnknownObject(f"no object with id {target!r}")
        if not node.attached:
            raise AlreadyDetached(f"object {target!r} is already detached")
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
        node.attached = True
        node.pose = pose
        node.last_seen = float(now)
        node.pose_provisional = False
        self._link(target, room.id, pose.t)

    def touch(self, target: str, now: float) -> None:
        """Record a fresh observation of an object (resets its decay clock)."""
        node = self.objects.get(target)
        if node is None:
            raise UnknownObject(f"no object with id {target!r}")
        node.last_seen = float(now)

    # ------------------------------------------------------------------

    def copy(self) -> "SceneGraph":
        """Independent graph: objects are cloned; rooms, poses and boxes are immutable and shared."""
        dup = SceneGraph(epoch=self.epoch)
        dup.rooms = dict(self.rooms)
        dup.objects = {oid: node._clone() for oid, node in self.objects.items()}
        dup.belongs_to = dict(self.belongs_to)
        dup.access = set(self.access)
        dup._room_ids = dict(self._room_ids)
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
    return _structure_problems(graph) + _index_problems(graph)


def _structure_problems(graph: SceneGraph) -> list[str]:
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
    return problems


def _index_problems(graph: SceneGraph) -> list[str]:
    problems: list[str] = []
    if graph._room_ids != {room.label: rid for rid, room in graph.rooms.items()}:
        problems.append("room label index does not match the rooms")
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
            continue  # a belongs_to/attached mismatch, reported by _structure_problems
        x, y, z = node.pose.t
        if box is None or not (box[0] <= x <= box[3] and box[1] <= y <= box[4] and box[2] <= z <= box[5]):
            problems.append(f"member box of room {rid!r} does not contain object {oid!r}")
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


def graph_to_payload(graph: SceneGraph) -> dict:
    """JSON-ready document; poses and boxes appear as tuples (JSON arrays)."""
    return {
        "epoch": graph.epoch,
        "rooms": [
            {
                "id": room.id,
                "label": room.label,
                "pose": {"q": room.pose.q, "t": room.pose.t},
                "bbox": room.bbox.extents,
            }
            for _, room in sorted(graph.rooms.items())
        ],
        "objects": [
            {
                "id": node.id,
                "label": node.label,
                "pose": {"q": node.pose.q, "t": node.pose.t},
                "bbox": node.bbox.extents,
                "decay_rate": node.decay_rate,
                "last_seen": node.last_seen,
                "attached": node.attached,
                "pose_provisional": node.pose_provisional,
            }
            for _, node in sorted(graph.objects.items())
        ],
        "belongs_to": dict(sorted(graph.belongs_to.items())),
        "access": sorted(list(pair) for pair in graph.access),
    }


def serialize(graph: SceneGraph) -> bytes:
    """Canonical UTF-8 JSON bytes; byte-identical for equal graphs."""
    payload = graph_to_payload(graph)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ParseError(f"{where}: missing required key {key!r}")
    return data[key]


def _require_list(data: dict, key: str) -> list:
    value = _require(data, key, "document root")
    if not isinstance(value, list):
        raise ParseError(f"{key}: expected a list")
    return value


def graph_from_payload(data: dict) -> SceneGraph:
    if not isinstance(data, dict):
        raise ParseError("document root: expected a JSON object")
    try:
        graph = SceneGraph(epoch=float(data.get("epoch", 0.0)))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"epoch: {exc}") from exc
    for i, entry in enumerate(_require_list(data, "rooms")):
        where = f"rooms[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected a JSON object")
        try:
            room = RoomNode(
                id=str(_require(entry, "id", where)),
                label=str(_require(entry, "label", where)),
                pose=Pose.from_dict(_require(entry, "pose", where)),
                bbox=BBox3(tuple(_require(entry, "bbox", where))),
            )
            graph.add_room(room)
        except (ValueError, DuplicateRoomLabel, TypeError, KeyError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
    for i, entry in enumerate(_require_list(data, "objects")):
        where = f"objects[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected a JSON object")
        try:
            node = ObjectNode(
                id=str(_require(entry, "id", where)),
                label=str(_require(entry, "label", where)),
                pose=Pose.from_dict(_require(entry, "pose", where)),
                bbox=BBox3(tuple(_require(entry, "bbox", where))),
                decay_rate=float(_require(entry, "decay_rate", where)),
                last_seen=float(_require(entry, "last_seen", where)),
                attached=bool(entry.get("attached", True)),
                pose_provisional=bool(entry.get("pose_provisional", False)),
            )
        except (ValueError, TypeError, KeyError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
        if node.id in graph.objects:
            raise ParseError(f"{where}: duplicate object id {node.id!r}")
        graph.objects[node.id] = node
    belongs = _require(data, "belongs_to", "document root")
    if not isinstance(belongs, dict):
        raise ParseError("belongs_to: expected an object-id to room-id mapping")
    points: dict[str, list[tuple[float, float, float]]] = {}
    for oid, rid in belongs.items():
        if oid not in graph.objects:
            raise ParseError(f"belongs_to[{oid!r}]: unknown object id")
        if not isinstance(rid, str) or rid not in graph.rooms:
            raise ParseError(f"belongs_to[{oid!r}]: unknown room id {rid!r}")
        graph.belongs_to[oid] = rid
        graph._members[rid].add(oid)
        points.setdefault(rid, []).append(graph.objects[oid].pose.t)
    for rid, ts in points.items():
        xs, ys, zs = zip(*ts)
        graph._boxes[rid] = (min(xs), min(ys), min(zs), max(xs), max(ys), max(zs))
    for i, pair in enumerate(_require_list(data, "access")):
        where = f"access[{i}]"
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"{where}: expected a two-element room-id pair")
        try:
            graph.add_access(str(pair[0]), str(pair[1]))
        except SceneGraphError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    # The indexes were built from the document just read, so only its
    # structure can be wrong.
    problems = _structure_problems(graph)
    if problems:
        raise ParseError(f"document violates graph invariants: {problems[0]}")
    return graph


def deserialize(data: bytes | str) -> SceneGraph:
    """Parse graph bytes/text; raises :class:`ParseError` with a location."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"offset {exc.pos}: {exc.msg}") from exc
    return graph_from_payload(payload)
