import json
import math
from importlib import resources

import pytest

from sgupdate.decay import StaleEntry, StaleReport, persistence_probability
from sgupdate.geometry import BBox3, Pose, pose_distance, quat_conj, quat_mul
from sgupdate.graph import NoContainingRoom, ObjectNode, ParseError, RoomNode, SceneGraph, deserialize
from sgupdate.perception import AssociationResult, semantic_match
from sgupdate.values import flag, obj, text, within


def make_room(rid, center, extents=(4.0, 3.0, 4.0), label=None):
    return RoomNode(id=rid, label=label or rid, pose=Pose.identity(center), bbox=BBox3(extents))


def two_room_graph():
    """kitchen x:[0,4] and living room x:[4,10], both y:[0,4] z:[0,3]."""
    g = SceneGraph(epoch=0.0)
    g.add_room(make_room("kitchen", (2.0, 2.0, 1.5), (4.0, 3.0, 4.0)))
    g.add_room(make_room("living room", (7.0, 2.0, 1.5), (6.0, 3.0, 4.0)))
    g.add_access("kitchen", "living room")
    return g


def put(g, room, label, t, extents=(0.2, 0.2, 0.2), rate=0.05, now=0.0, **kw):
    return g.add_object(room, label, Pose.identity(t), BBox3(extents), rate, now, **kw)


def row_payload(graph) -> dict:
    """The row document of ``graph``: one entry per object, with its
    ``attached`` flag, and each attached object's room in the ``belongs_to``
    map, every dict's keys in sorted order. Graph files were written so
    before the column layout, and the row reader still reads them: the
    reference the column writer is compared against, and the row document
    the tests that edit one entry edit."""
    nodes = [node for _, node in sorted(graph.objects.items())]
    return {
        "access": sorted(list(pair) for pair in graph.access),
        "belongs_to": {node.id: node.room for node in nodes if node.room is not None},
        "epoch": graph.epoch,
        "objects": [
            {
                "attached": node.room is not None,
                "bbox": node.bbox.extents,
                "decay_rate": node.decay_rate,
                "id": node.id,
                "label": node.label,
                "last_seen": node.last_seen,
                "pose": {"q": node.pose.q, "t": node.pose.t},
                "pose_provisional": node.pose_provisional,
            }
            for node in nodes
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


def row_document(graph) -> str:
    """``row_payload(graph)`` as JSON text, in the bytes ``serialize`` wrote
    before the column layout."""
    return json.dumps(row_payload(graph), separators=(",", ":"))


def packaged_house_rows() -> dict:
    """The packaged house as a decoded row document, its arrays lists."""
    house = deserialize(resources.files("sgupdate.data").joinpath("house.json").read_bytes())
    return json.loads(row_document(house))


# A column document's object columns: (key, values per object).
COLUMNS = (
    ("bbox", 3), ("decay_rate", 1), ("id", 1), ("label", 1), ("last_seen", 1),
    ("pose_provisional", 1), ("q", 4), ("room", 1), ("t", 3),
)


def rows_of(doc: dict) -> dict:
    """The row document that holds the values of the column document
    ``doc``, each where the row layout puts it (an object with a ``room``
    that is not null is attached, and its edge names that value); raises
    when ``doc``'s object columns are not lists of the lengths its ids set,
    or an id cannot key ``belongs_to``."""
    cols = doc["objects"]
    n = len(cols["id"])
    for key, width in COLUMNS:
        if not isinstance(cols[key], (list, tuple)) or len(cols[key]) != n * width:
            raise ValueError(f"objects.{key} cannot be split into {n} entries")

    def part(key, i):
        width = dict(COLUMNS)[key]
        return cols[key][i] if width == 1 else list(cols[key][i * width:(i + 1) * width])

    entries = [
        {
            "attached": part("room", i) is not None,
            "bbox": part("bbox", i),
            "decay_rate": part("decay_rate", i),
            "id": part("id", i),
            "label": part("label", i),
            "last_seen": part("last_seen", i),
            "pose": {"q": part("q", i), "t": part("t", i)},
            "pose_provisional": part("pose_provisional", i),
        }
        for i in range(n)
    ]
    rows = {key: value for key, value in doc.items() if key != "objects"}
    rows["objects"] = entries
    rows["belongs_to"] = {e["id"]: part("room", i) for i, e in enumerate(entries) if e["attached"]}
    return rows


def columns_of(doc: dict) -> dict:
    """The column document that holds the values of the row document
    ``doc``, each where the column layout puts it; raises when an entry
    has no place in columns: a missing key, a pose, ``q``, ``t`` or
    ``bbox`` of another shape, an ``attached`` that is not a boolean, or an
    edge that does not match its ``attached``."""
    belongs = doc["belongs_to"]
    cols = {key: [] for key, _ in COLUMNS}
    for entry in doc["objects"]:
        attached = entry.get("attached", True)
        if type(attached) is not bool or attached is not (entry["id"] in belongs):
            raise ValueError(f"entry {entry['id']!r} has no room column value")
        values = {
            **{key: entry[key] for key in ("bbox", "decay_rate", "id", "label", "last_seen")},
            "pose_provisional": entry.get("pose_provisional", False),
            "q": entry["pose"]["q"],
            "t": entry["pose"]["t"],
            "room": belongs[entry["id"]] if attached else None,
        }
        for key, width in COLUMNS:
            if width == 1:
                cols[key].append(values[key])
            elif isinstance(values[key], (list, tuple)) and len(values[key]) == width:
                cols[key].extend(values[key])
            else:
                raise ValueError(f"entry {entry['id']!r} has no {key} column values")
    if not set(belongs) <= {entry["id"] for entry in doc["objects"] if entry.get("attached", True)}:
        raise ValueError("an edge names no attached entry")
    columns = {key: value for key, value in doc.items() if key != "belongs_to"}
    columns["objects"] = cols
    return columns


def linked_load(text):
    """The graph the row document ``text`` describes, with each object entry
    read by ``read_object``, its room the one the document's ``belongs_to``
    names, and its room indexes built the way the primitives build them: one
    ``SceneGraph._link`` per ``belongs_to`` edge, in document order. The
    reference the loader's nodes and indexes must match."""
    loaded = deserialize(text)
    doc = json.loads(text)
    belongs = doc["belongs_to"]
    graph = SceneGraph(epoch=loaded.epoch)
    for room in loaded.rooms.values():
        graph.add_room(room)
    for entry in doc["objects"]:
        graph.objects[entry["id"]] = read_object(entry, belongs.get(entry["id"]))
    for oid, rid in belongs.items():
        if graph.objects[oid].room is not None:
            graph._link(oid, rid)
    return graph


def read_object(entry: dict, room: str | None) -> ObjectNode:
    """The node of a graph document's object entry, read value by value by
    ``Pose.from_dict``, ``BBox3`` and ``ObjectNode``'s own checks; ``room``,
    the room the document's ``belongs_to`` names for it, is kept only if the
    entry is attached."""
    return ObjectNode(
        id=text(entry["id"], "id"),
        label=text(entry["label"], "label"),
        pose=Pose.from_dict(entry["pose"]),
        bbox=BBox3(entry["bbox"]),
        decay_rate=entry["decay_rate"],
        last_seen=entry["last_seen"],
        room=room if flag(entry.get("attached", True), "attached") else None,
        pose_provisional=flag(entry.get("pose_provisional", False), "pose_provisional"),
    )


def reference_object(entry, room: str | None, i: int = 0) -> ObjectNode:
    """``read_object`` of the entry at ``objects[i]``, its error raised as the
    ``ParseError`` the loader raises, named ``objects[i]``: the reference the
    loader's one reader of an object entry and its rules must match, node
    for node and message for message."""
    where = f"objects[{i}]"
    try:
        return within(where, read_object, obj(entry, where), room)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def yaw_pose(t, yaw):
    """Pose at t facing `yaw` radians counterclockwise from +x."""
    return Pose((math.cos(yaw / 2.0), 0.0, 0.0, math.sin(yaw / 2.0)), t)


def stale_sweep(graph, now, threshold):
    """``decay.stale_targets`` as a plain sweep, one probability per object:
    the oracle the sweep that reuses its previous key's probability must
    match exactly, errors included."""
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie strictly between 0 and 1, got {threshold}")
    if not math.isfinite(now):
        raise ValueError(f"now must be finite, got {now}")
    entries = []
    for oid, node in graph.objects.items():
        if not node.attached or node.decay_rate <= 0.0:
            continue
        p = persistence_probability(node.decay_rate, now, node.last_seen)
        if p < threshold:
            entries.append(StaleEntry(object_id=oid, probability=p, last_seen=node.last_seen))
    entries.sort(key=lambda e: (e.probability, e.object_id))
    return StaleReport(threshold=float(threshold), now=float(now), entries=tuple(entries))


def frustum_oracle(robot_pose, cam, point):
    """``perception.point_in_frustum`` as two ``quat_mul`` calls on the
    conjugate of the pose's rotation: the rule the written-out test in
    ``perception`` must match decision for decision."""
    inv = quat_conj(robot_pose.q)
    tx, ty, tz = robot_pose.t
    rel = (0.0, point[0] - tx, point[1] - ty, point[2] - tz)
    _, fwd, left, up = quat_mul(quat_mul(inv, rel), quat_conj(inv))
    if fwd <= 0.0:
        return False
    dist = math.sqrt(fwd * fwd + left * left + up * up)
    if not (cam.min_range < dist < cam.max_range):
        return False
    if abs(math.atan2(left, fwd)) >= cam.fov_h / 2.0:
        return False
    if abs(math.atan2(up, fwd)) >= cam.fov_v / 2.0:
        return False
    return True


def visible_oracle(graph, robot_pose, cam):
    """``perception.expected_visible`` as a test of every object: the attached,
    movable objects that belong to the camera's room and lie in its frustum,
    and none from outside every room."""
    try:
        room = graph.assign_room(robot_pose)
    except NoContainingRoom:
        return []
    return sorted(
        oid
        for oid, node in graph.objects.items()
        if node.room == room
        and node.decay_rate > 0.0
        and frustum_oracle(robot_pose, cam, node.pose.t)
    )


def all_pairs_associate(expected_ids, observed, graph, epsilon):
    """The association as a test of every (expected, observation) label pair."""
    pairs = []
    for oid in expected_ids:
        node = graph.objects[oid]
        for j, o in enumerate(observed):
            if semantic_match(node.label, o.label):
                pairs.append((pose_distance(node.pose, o.pose), oid, j))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    taken_ids, taken_obs, matched = set(), set(), []
    for d, oid, j in pairs:
        if oid not in taken_ids and j not in taken_obs:
            taken_ids.add(oid)
            taken_obs.add(j)
            matched.append((d, oid, j))
    result = AssociationResult()
    for d, oid, j in sorted(matched, key=lambda m: m[1]):
        (result.static_pairs if d < epsilon else result.moved_pairs).append((oid, observed[j]))
    result.remove_candidates = sorted(oid for oid in expected_ids if oid not in taken_ids)
    result.add_candidates = [o for j, o in enumerate(observed) if j not in taken_obs]
    return result


def by_index(result, observed):
    """An association result with every observation as its index in
    ``observed``: observations compare by value, and a tie between equal
    observations must be broken the same way."""
    index = {id(o): j for j, o in enumerate(observed)}
    return (
        [(oid, index[id(o)]) for oid, o in result.static_pairs],
        [(oid, index[id(o)]) for oid, o in result.moved_pairs],
        result.remove_candidates,
        [index[id(o)] for o in result.add_candidates],
    )


@pytest.fixture
def house2():
    return two_room_graph()
