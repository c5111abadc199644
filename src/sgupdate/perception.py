"""Change detection from detector frames.

Each frame compares two sets: the objects the graph says should be visible
from the robot's pose (attached, movable, filed under the room the camera
stands in, centroid strictly inside the view frustum and range band) against
what the detector reported. Labels pair the sets semantically, pose
displacement decides whether a paired object sat still or moved, and the
leftovers become removal/addition candidates that must survive ``k``
consecutive frames before a record is emitted. Moves are reported
immediately — the evidence (both old and new pose) is already in hand.

Rooms occlude: the room layer holds the walls, so the camera sees only the
members of the room it stands in (``SceneGraph.assign_room``), and from
outside every room it sees nothing. An object is seen from the room it
belongs to, wherever its pose lies. Seeing through doorways is out of scope.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Sequence

from .geometry import BBox3, Pose, pose_distance, quat_conj
from .graph import NoContainingRoom, SceneGraph, _norm_label
from .records import Provenance, UpdateAction, UpdateRecord

__all__ = [
    "CameraModel",
    "Observation",
    "AssociationResult",
    "ConfirmationStore",
    "ConfirmOutcome",
    "expected_visible",
    "point_in_frustum",
    "semantic_match",
    "associate",
    "confirm",
    "default_synonyms",
]


@dataclass(frozen=True)
class CameraModel:
    """Pinhole-style frustum: horizontal/vertical field of view plus range."""

    fov_h: float
    fov_v: float
    min_range: float
    max_range: float

    def __post_init__(self) -> None:
        if not (0.0 < self.fov_h < math.pi) or not (0.0 < self.fov_v < math.pi):
            raise ValueError("fields of view must lie strictly between 0 and pi radians")
        if not (0.0 < self.min_range < self.max_range):
            raise ValueError("require 0 < min_range < max_range")


@dataclass(frozen=True)
class Observation:
    """One detector hit: a label plus sensed geometry in the world frame."""

    label: str
    pose: Pose
    bbox: BBox3

    def __post_init__(self) -> None:
        label = _norm_label(self.label)
        if label != self.label:
            object.__setattr__(self, "label", label)

    @staticmethod
    def _of(label: str, pose: Pose, bbox: BBox3) -> "Observation":
        # ``label`` is already normalized; skip __post_init__ (the synthetic
        # detector builds one observation per object in view, every frame).
        obs = object.__new__(Observation)
        set_field = object.__setattr__
        set_field(obs, "label", label)
        set_field(obs, "pose", pose)
        set_field(obs, "bbox", bbox)
        return obs


def _frustum_test(robot_pose: Pose, cam: CameraModel) -> Callable[[float, float, float], bool]:
    """:func:`point_in_frustum` for one camera pose, as a test of ``(x, y, z)``: the
    offset's ``quat_mul(quat_mul(quat_conj(q), (0.0, *offset)), q)`` written out
    with the same float operations in the same order, ``* 0.0`` products included."""
    tx, ty, tz = robot_pose.t
    bw, bx, by, bz = robot_pose.q
    aw, ax, ay, az = quat_conj(robot_pose.q)
    aw0, ax0, ay0, az0 = aw * 0.0, ax * 0.0, ay * 0.0, az * 0.0
    half_h, half_v, near, far = cam.fov_h / 2.0, cam.fov_v / 2.0, cam.min_range, cam.max_range

    def inside(x: float, y: float, z: float) -> bool:
        rx, ry, rz = x - tx, y - ty, z - tz
        mw = aw0 - ax * rx - ay * ry - az * rz
        mx = aw * rx + ax0 + ay * rz - az * ry
        my = aw * ry - ax * rz + ay0 + az * rx
        mz = aw * rz + ax * ry - ay * rx + az0
        fwd = mw * bx + mx * bw + my * bz - mz * by
        if fwd <= 0.0:
            return False
        left = mw * by - mx * bz + my * bw + mz * bx
        up = mw * bz + mx * by - my * bx + mz * bw
        dist = math.sqrt(fwd * fwd + left * left + up * up)
        return near < dist < far and abs(math.atan2(left, fwd)) < half_h and abs(math.atan2(up, fwd)) < half_v

    return inside


def point_in_frustum(robot_pose: Pose, cam: CameraModel, point: Sequence[float]) -> bool:
    """Strict containment of a world point in the camera frustum.

    The sensor frame is x-forward / y-left / z-up. All comparisons are
    strict, so a point exactly on the field-of-view or range boundary is
    outside.
    """
    return _frustum_test(robot_pose, cam)(*point)


def expected_visible(graph: SceneGraph, robot_pose: Pose, cam: CameraModel) -> list[str]:
    """Ids of attached, movable objects the camera should currently see.

    Immovable objects (decay rate 0) are excluded on purpose: they never
    generate change evidence, so dropping them keeps association small.
    Detached (held) objects are excluded as well. Output is sorted by id.

    This is the one visibility rule: the simulator's detector renders the
    truth through it too. It visits only the members of the room the camera
    stands in (overlapping rooms resolve as in
    :meth:`SceneGraph.assign_room`; a camera outside every room sees
    nothing), drops those at or beyond ``max_range`` on the unrotated offset,
    and runs the exact frustum test on the rest.
    """
    try:
        members = graph._members[graph.assign_room(robot_pose)]
    except NoContainingRoom:
        return []
    tx, ty, tz = robot_pose.t
    # The exact test's rotation scales lengths by |q|**2 (1 within 2e-9), so
    # the unrotated range test keeps a margin of a millionth.
    reach = cam.max_range * (1.0 + 1e-6)
    reach_sq = reach * reach
    inside = _frustum_test(robot_pose, cam)
    objects = graph.objects
    out = []
    for oid in members:
        node = objects[oid]
        if node.decay_rate <= 0.0:
            continue
        px, py, pz = node.pose.t
        dx, dy, dz = px - tx, py - ty, pz - tz
        if dx * dx + dy * dy + dz * dz >= reach_sq:
            continue
        if inside(px, py, pz):
            out.append(oid)
    out.sort()
    return out


# ----------------------------------------------------------------------
# matching


def default_synonyms() -> list[frozenset[str]]:
    text = resources.files("sgupdate.data").joinpath("synonyms.json").read_text("utf-8")
    return [frozenset(map(_norm_label, group)) for group in json.loads(text)]


def _class_keys(groups: Sequence[frozenset[str]]) -> dict[str, str]:
    """Label -> class key (the group's smallest label) for every grouped label.

    A label in no group is its own class, so it is absent from the table.
    Raises ``ValueError`` when a label sits in two groups: association
    matches within classes, which is exact only when classes are disjoint.
    """
    keys: dict[str, str] = {}
    for group in groups:
        key = min(group)
        for label in group:
            if label in keys:
                raise ValueError(f"synonym label {label!r} appears in two groups")
            keys[label] = key
    return keys


_CLASS_KEYS = _class_keys(default_synonyms())


def semantic_match(label_a: str, label_b: str) -> bool:
    """True when two labels name the same kind of object.

    Normalizes whitespace/case, then compares the labels' class keys from
    the synonym table (e.g. a 'tv remote' is a 'remote control'). Symmetric
    by construction.
    """
    a, b = _norm_label(label_a), _norm_label(label_b)
    return _CLASS_KEYS.get(a, a) == _CLASS_KEYS.get(b, b)


@dataclass
class AssociationResult:
    """Partition of one frame: every expected id and observation lands in
    exactly one bucket."""

    static_pairs: list[tuple[str, Observation]] = field(default_factory=list)
    moved_pairs: list[tuple[str, Observation]] = field(default_factory=list)
    remove_candidates: list[str] = field(default_factory=list)
    add_candidates: list[Observation] = field(default_factory=list)


def associate(
    expected_ids: Sequence[str],
    observed: Sequence[Observation],
    graph: SceneGraph,
    epsilon: float,
) -> AssociationResult:
    """Greedy nearest-first association between expectation and detection.

    Same-class (expected, observation) pairs are taken greedily in order of
    pose displacement, ties by object id and then observation index. Every
    pair with ``d < epsilon`` ranks first, so two passes give exactly this:
    pass 1 takes those, found through a window of ``x ± epsilon`` (1e-6 wider,
    a margin for rounding) when a class has several observations,
    and pass 2 ranks the pairs whose two ends are both still free. Matches
    split into static/moved by the epsilon test; unmatched expected objects
    become removal candidates, unmatched observations addition candidates.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    # The candidates are the pairs semantic_match accepts: bucketing the
    # observations by class key builds exactly those, with no per-pair label
    # test. Node and observation labels are already normalized.
    key = _CLASS_KEYS.get
    by_class: dict[str, list[tuple[int, Pose]]] = {}
    for j, obs in enumerate(observed):
        by_class.setdefault(key(obs.label, obs.label), []).append((j, obs.pose))
    columns: dict[str, list[float]] = {}  # class key -> sorted x, if it has several observations
    if len(by_class) < len(observed):
        for k, bucket in by_class.items():
            if len(bucket) > 1:
                bucket.sort(key=lambda e: e[1].t[0])
                columns[k] = [pose.t[0] for _, pose in bucket]
    reach = epsilon * (1.0 + 1e-6)
    objects = graph.objects
    near = []
    for oid in expected_ids:
        node = objects[oid]
        k = key(node.label, node.label)
        bucket = by_class.get(k, ())
        if k in columns:
            x, xs = node.pose.t[0], columns[k]
            bucket = bucket[bisect_left(xs, x - reach) : bisect_right(xs, x + reach)]
        for j, obs_pose in bucket:
            d = pose_distance(node.pose, obs_pose)
            if d < epsilon:
                near.append((d, oid, j))
    near.sort()  # by (d, oid, j)
    taken_ids: set[str] = set()
    taken_obs: set[int] = set()
    matched: list[tuple[str, int, float]] = []
    for d, oid, j in near:
        if oid not in taken_ids and j not in taken_obs:
            taken_ids.add(oid)
            taken_obs.add(j)
            matched.append((oid, j, d))
    if len(taken_ids) < len(expected_ids) and len(taken_obs) < len(observed):
        far = []
        for oid in expected_ids:
            if oid not in taken_ids:
                node = objects[oid]
                for j, obs_pose in by_class.get(key(node.label, node.label), ()):
                    if j not in taken_obs:
                        far.append((pose_distance(node.pose, obs_pose), oid, j))
        far.sort()
        for d, oid, j in far:
            if oid not in taken_ids and j not in taken_obs:
                taken_ids.add(oid)
                taken_obs.add(j)
                matched.append((oid, j, d))

    matched.sort()  # by object id, which is unique among the matches
    static_pairs, moved_pairs = [], []
    for oid, j, d in matched:
        (static_pairs if d < epsilon else moved_pairs).append((oid, observed[j]))
    return AssociationResult(
        static_pairs=static_pairs,
        moved_pairs=moved_pairs,
        remove_candidates=sorted([oid for oid in expected_ids if oid not in taken_ids]),
        add_candidates=[obs for j, obs in enumerate(observed) if j not in taken_obs],
    )


# ----------------------------------------------------------------------
# confirmation gating


@dataclass
class _AddTracker:
    label: str
    pose: Pose
    bbox: BBox3
    count: int
    last_frame: int


@dataclass
class ConfirmationStore:
    """Evidence counters that survive between frames.

    Removal counters advance only on consecutive frame indices; any gap (the
    object left the frustum, or contrary evidence arrived) starts the count
    over. Addition trackers die whenever a frame passes without a matching
    candidate.
    """

    removal: dict[str, tuple[int, int]] = field(default_factory=dict)  # id -> (count, frame)
    additions: list[_AddTracker] = field(default_factory=list)


@dataclass
class ConfirmOutcome:
    records: list[UpdateRecord]
    touched: list[str]  # sorted ids of the static pairs, for the caller to touch
    skipped: list[str] = field(default_factory=list)  # audit notes


def confirm(
    store: ConfirmationStore,
    graph: SceneGraph,
    result: AssociationResult,
    frame: int,
    now: float,
    k: int = 2,
    epsilon: float = 0.25,
) -> ConfirmOutcome:
    """Gate one frame's association result into update records.

    Only ``store`` changes; the graph is read, never edited. The outcome
    carries the records to apply and the ids to ``touch``.

    * static pairs yield their ids, sorted, for one ``touch`` (a
      ``last_seen`` refresh) and clear removal counters,
    * moved pairs emit a moved record immediately (flagged as geometry
      refinement when the stored pose was provisional and the room did not
      change),
    * removal candidates emit only after ``k`` consecutive in-frustum
      frames,
    * addition candidates emit after ``k`` consecutive frames with a pose
      consistent within ``epsilon``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    records: list[UpdateRecord] = []
    skipped: list[str] = []

    for oid, obs in sorted(result.moved_pairs, key=lambda p: p[0]):
        node = graph.objects[oid]
        source_label = graph.rooms[node.room].label
        try:
            target_label = graph.rooms[graph.assign_room(obs.pose)].label
        except NoContainingRoom:
            skipped.append(f"moved observation of {oid} lies outside every room")
            store.removal.pop(oid, None)
            continue
        records.append(
            UpdateRecord(
                action=UpdateAction.MOVED,
                target_object=node.label,
                source_room=source_label,
                target_room=target_label,
                pose=obs.pose,
                provenance=Provenance.PERCEPTION,
                issued_at=float(now),
                refines_geometry=node.pose_provisional and target_label == source_label,
            )
        )
        store.removal.pop(oid, None)

    touched = sorted(oid for oid, _obs in result.static_pairs)
    for oid in touched:
        store.removal.pop(oid, None)

    for oid in result.remove_candidates:
        count, last = store.removal.get(oid, (0, -2))
        count = count + 1 if last == frame - 1 else 1
        store.removal[oid] = (count, frame)
        if count >= k:
            node = graph.objects[oid]
            records.append(
                UpdateRecord(
                    action=UpdateAction.REMOVED,
                    target_object=node.label,
                    source_room=graph.rooms[node.room].label,
                    provenance=Provenance.PERCEPTION,
                    issued_at=float(now),
                )
            )
            del store.removal[oid]

    carried: list[_AddTracker] = []
    available = list(store.additions)
    for obs in result.add_candidates:
        best = None
        for idx, tracker in enumerate(available):
            if tracker.label != obs.label:
                continue
            d = pose_distance(tracker.pose, obs.pose)
            if d < epsilon and (best is None or d < best[0]):
                best = (d, idx)
        if best is not None:
            tracker = available.pop(best[1])
            count = tracker.count + 1 if tracker.last_frame == frame - 1 else 1
        else:
            count = 1
        tracker = _AddTracker(label=obs.label, pose=obs.pose, bbox=obs.bbox, count=count, last_frame=frame)
        if count >= k:
            try:
                room_label = graph.rooms[graph.assign_room(obs.pose)].label
            except NoContainingRoom:
                skipped.append(f"addition candidate {obs.label!r} lies outside every room")
                carried.append(tracker)
                continue
            records.append(
                UpdateRecord(
                    action=UpdateAction.ADDED,
                    target_object=obs.label,
                    target_room=room_label,
                    pose=obs.pose,
                    bbox=obs.bbox,
                    provenance=Provenance.PERCEPTION,
                    issued_at=float(now),
                )
            )
        else:
            carried.append(tracker)
    store.additions = carried

    return ConfirmOutcome(records=records, touched=touched, skipped=skipped)
