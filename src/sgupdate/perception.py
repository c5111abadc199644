"""Change detection from detector frames.

Each frame compares two sets: the objects the graph says should be visible
from the robot's pose (attached, movable, centroid strictly inside the view
frustum and range band) against what the detector reported. Labels pair the
sets semantically, pose displacement decides whether a paired object sat
still or moved, and the leftovers become removal/addition candidates that
must survive ``k`` consecutive frames before a record is emitted. Moves are
reported immediately — the evidence (both old and new pose) is already in
hand.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Sequence

from .geometry import BBox3, Pose, pose_distance, quat_rotate
from .graph import NoContainingRoom, SceneGraph, _norm_label
from .records import Provenance, UpdateAction, UpdateRecord, PrimitiveCall

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
        object.__setattr__(self, "label", _norm_label(self.label))


def point_in_frustum(robot_pose: Pose, cam: CameraModel, point: Sequence[float]) -> bool:
    """Strict containment of a world point in the camera frustum.

    The sensor frame is x-forward / y-left / z-up. All comparisons are
    strict, so a point exactly on the field-of-view or range boundary is
    outside.
    """
    rel = (
        point[0] - robot_pose.t[0],
        point[1] - robot_pose.t[1],
        point[2] - robot_pose.t[2],
    )
    # Rotate into the sensor frame (inverse rotation = conjugate).
    fwd, left, up = quat_rotate((robot_pose.q[0], -robot_pose.q[1], -robot_pose.q[2], -robot_pose.q[3]), rel)
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


def expected_visible(graph: SceneGraph, robot_pose: Pose, cam: CameraModel) -> list[str]:
    """Ids of attached, movable objects the camera should currently see.

    Immovable objects (decay rate 0) are excluded on purpose: they never
    generate change evidence, so dropping them keeps association small.
    Detached (held) objects are excluded as well. Output is sorted by id.

    This is the one visibility rule: the simulator's detector renders the
    truth through it too. Only the members of rooms whose member box comes
    within range are visited (:meth:`SceneGraph.objects_near`), and of
    those, objects at or beyond ``max_range`` (with a 1e-6 relative margin)
    are dropped on the unrotated offset before the exact frustum test. A
    pose quaternion's norm is within ``QUAT_NORM_TOL`` of 1 and rotating by
    it scales lengths by ``|q|**2``, so the margin never drops an object
    :func:`point_in_frustum` accepts.
    """
    tx, ty, tz = robot_pose.t
    cull = cam.max_range * (1.0 + 1e-6)
    cull_sq = cull * cull
    objects = graph.objects
    out = []
    for oid in graph.objects_near(robot_pose.t, cull):
        node = objects[oid]
        if node.decay_rate <= 0.0:
            continue
        px, py, pz = node.pose.t
        dx, dy, dz = px - tx, py - ty, pz - tz
        if dx * dx + dy * dy + dz * dz >= cull_sq:
            continue
        if point_in_frustum(robot_pose, cam, node.pose.t):
            out.append(oid)
    out.sort()
    return out


# ----------------------------------------------------------------------
# matching


def default_synonyms() -> list[frozenset[str]]:
    text = resources.files("sgupdate.data").joinpath("synonyms.json").read_text("utf-8")
    return [frozenset(map(_norm_label, group)) for group in json.loads(text)]


_DEFAULT_GROUPS: Optional[list[frozenset[str]]] = None


def semantic_match(label_a: str, label_b: str) -> bool:
    """True when two labels name the same kind of object.

    Normalizes whitespace/case and consults a small synonym table (e.g. a
    'tv remote' is a 'remote control'). Symmetric by construction.
    """
    global _DEFAULT_GROUPS
    a = " ".join(label_a.strip().lower().split())
    b = " ".join(label_b.strip().lower().split())
    if a == b:
        return True
    if _DEFAULT_GROUPS is None:
        _DEFAULT_GROUPS = default_synonyms()
    return any(a in group and b in group for group in _DEFAULT_GROUPS)


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

    All semantically compatible (expected, observation) pairs are ranked by
    pose displacement (ties by object id, then observation index) and taken
    greedily. Paired entries split into static/moved by the epsilon test;
    unmatched expected objects become removal candidates, unmatched
    observations become addition candidates.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    pairs = []
    for oid in expected_ids:
        node = graph.objects[oid]
        for j, obs in enumerate(observed):
            if semantic_match(node.label, obs.label):
                d = pose_distance(node.pose, obs.pose)
                pairs.append((d, oid, j))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))

    taken_ids: set[str] = set()
    taken_obs: set[int] = set()
    result = AssociationResult()
    matched: list[tuple[float, str, int]] = []
    for d, oid, j in pairs:
        if oid in taken_ids or j in taken_obs:
            continue
        taken_ids.add(oid)
        taken_obs.add(j)
        matched.append((d, oid, j))

    for d, oid, j in sorted(matched, key=lambda m: m[1]):
        bucket = result.static_pairs if d < epsilon else result.moved_pairs
        bucket.append((oid, observed[j]))
    result.remove_candidates = sorted(oid for oid in expected_ids if oid not in taken_ids)
    result.add_candidates = [obs for j, obs in enumerate(observed) if j not in taken_obs]
    return result


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
    touched: list[PrimitiveCall]  # last-seen refreshes, for the caller to execute
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
    carries the records to apply and the ``touch`` calls to execute.

    * static pairs yield a ``touch`` (a ``last_seen`` refresh) and clear
      removal counters,
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
    touched: list[PrimitiveCall] = []
    skipped: list[str] = []

    for oid, obs in sorted(result.moved_pairs, key=lambda p: p[0]):
        node = graph.objects[oid]
        source_label = graph.rooms[graph.belongs_to[oid]].label
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

    for oid, _obs in sorted(result.static_pairs, key=lambda p: p[0]):
        touched.append(PrimitiveCall(op="touch", args={"target": oid, "now": float(now)}))
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
                    source_room=graph.rooms[graph.belongs_to[oid]].label,
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
