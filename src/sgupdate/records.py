"""Update records: the one vocabulary every input modality speaks.

Whatever noticed a change (a sentence, a robot action, a detector frame)
gets normalized into an :class:`UpdateRecord` naming the action, the object
label and the rooms involved. :func:`apply` turns a record into graph
primitives atomically: on any outcome other than ``applied`` the graph is
left untouched, and the executed primitive calls are returned so an audit
log can replay them later. Every graph edit, whoever makes it, is one such
:class:`PrimitiveCall` run by :func:`execute`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import decay as _decay
from .geometry import BBox3, InvalidGeometry, Pose, pose_distance
from .graph import SceneGraph, SceneGraphError

__all__ = [
    "UpdateAction",
    "Provenance",
    "UpdateRecord",
    "ApplyStatus",
    "ApplyReport",
    "PrimitiveCall",
    "ResolutionError",
    "TargetNotFound",
    "AmbiguousTarget",
    "ReplayMismatch",
    "validate",
    "resolve_target",
    "find_call",
    "execute",
    "apply",
    "replay",
    "PROVISIONAL_BBOX",
]


class UpdateAction(str, Enum):
    ADDED = "added"
    MOVED = "moved"
    REMOVED = "removed"


class Provenance(str, Enum):
    HUMAN = "human"
    ACTION = "action"
    PERCEPTION = "perception"


class ResolutionError(SceneGraphError):
    pass


class TargetNotFound(ResolutionError):
    pass


class AmbiguousTarget(ResolutionError):
    pass


class ReplayMismatch(SceneGraphError):
    """A logged ``find`` resolved an id that the replayed graph does not return."""


# Placeholder box for objects whose geometry nobody has sensed yet.
PROVISIONAL_BBOX = BBox3((0.1, 0.1, 0.1))


@dataclass
class UpdateRecord:
    action: UpdateAction
    target_object: str
    source_room: Optional[str] = None
    target_room: Optional[str] = None
    pose: Optional[Pose] = None
    bbox: Optional[BBox3] = None
    support_object: Optional[str] = None
    provenance: Provenance = Provenance.PERCEPTION
    issued_at: float = 0.0
    # Audit metadata: the record only sharpens a guessed pose (same room,
    # previously provisional) rather than reporting a world change.
    refines_geometry: bool = False

    def to_dict(self) -> dict:
        return {
            "action": self.action.value,
            "target_object": self.target_object,
            "source_room": self.source_room,
            "target_room": self.target_room,
            "pose": self.pose.to_dict() if self.pose else None,
            "bbox": list(self.bbox.extents) if self.bbox else None,
            "support_object": self.support_object,
            "provenance": self.provenance.value,
            "issued_at": self.issued_at,
            "refines_geometry": self.refines_geometry,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UpdateRecord":
        return cls(
            action=UpdateAction(data["action"]),
            target_object=data["target_object"],
            source_room=data.get("source_room"),
            target_room=data.get("target_room"),
            pose=Pose.from_dict(data["pose"]) if data.get("pose") else None,
            bbox=BBox3(tuple(data["bbox"])) if data.get("bbox") else None,
            support_object=data.get("support_object"),
            provenance=Provenance(data.get("provenance", "perception")),
            issued_at=float(data.get("issued_at", 0.0)),
            refines_geometry=bool(data.get("refines_geometry", False)),
        )


def validate(record: UpdateRecord) -> list[str]:
    """Field-presence violations for the record's action, empty when valid."""
    problems = []
    if not str(record.target_object).strip():
        problems.append("MissingTargetObject")
    if record.action in (UpdateAction.ADDED, UpdateAction.MOVED) and not record.target_room:
        problems.append("MissingTargetRoom")
    if record.action in (UpdateAction.REMOVED, UpdateAction.MOVED) and not record.source_room:
        problems.append("MissingSourceRoom")
    return problems


def resolve_target(graph: SceneGraph, record: UpdateRecord) -> str:
    """Map a record's object label to one concrete node id.

    Searches attached objects with the record's label in its source room.
    A single candidate wins outright. Several candidates are disambiguated
    by the record's support object: the candidate nearest (by translation)
    to any same-room node carrying the support label is chosen, ties going
    to the smaller id. Without a usable support the record is ambiguous.
    """
    room_label = record.source_room or record.target_room
    if room_label is None:
        raise TargetNotFound("record names no room to search")
    candidates = graph.find(record.target_object, room_scope=room_label)
    if not candidates:
        raise TargetNotFound(
            f"no attached {record.target_object!r} in room {room_label!r}"
        )
    if len(candidates) == 1:
        return candidates[0]
    if record.support_object:
        supports = graph.find(record.support_object, room_scope=room_label)
        if supports:
            def support_distance(oid: str) -> float:
                pose = graph.objects[oid].pose
                return min(
                    pose_distance(pose, graph.objects[sid].pose) for sid in supports
                )

            ranked = sorted(candidates, key=lambda oid: (support_distance(oid), oid))
            return ranked[0]
    raise AmbiguousTarget(
        f"{len(candidates)} attached {record.target_object!r} in room {room_label!r}"
        " and no usable support object"
    )


class ApplyStatus(str, Enum):
    APPLIED = "applied"
    REJECTED = "rejected"
    DEFERRED = "deferred"


def _to_json(value):
    """A call argument as JSON: poses as ``{"q", "t"}``, boxes as their extents."""
    if isinstance(value, Pose):
        return value.to_dict()
    if isinstance(value, BBox3):
        return list(value.extents)
    return value


@dataclass
class PrimitiveCall:
    """One graph-primitive invocation: ``args`` are the keyword arguments of
    the primitive ``op`` names, held as values (poses, boxes, ids, floats)."""

    op: str
    args: dict

    def to_dict(self) -> dict:
        return {"op": self.op, "args": {k: _to_json(v) for k, v in self.args.items()}}


@dataclass
class ApplyReport:
    status: ApplyStatus
    reason: Optional[str] = None
    executed: list[PrimitiveCall] = field(default_factory=list)
    resolved_id: Optional[str] = None
    record: Optional[UpdateRecord] = None

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "reason": self.reason,
            "executed": [call.to_dict() for call in self.executed],
            "resolved_id": self.resolved_id,
            "record": self.record.to_dict() if self.record else None,
        }


def find_call(record: UpdateRecord, resolved: str) -> PrimitiveCall:
    """The logged ``find`` that resolved ``record``'s label to ``resolved``."""
    return PrimitiveCall(
        op="find",
        args={
            "label": record.target_object,
            "room_scope": record.source_room or record.target_room,
            "resolved": resolved,
        },
    )


# The mutating primitives, by the name a call's ``op`` gives them.
_PRIMITIVES = {
    "add_object": SceneGraph.add_object,
    "remove_object": SceneGraph.remove_object,
    "move_object": SceneGraph.move_object,
    "detach": SceneGraph.detach,
    "reattach": SceneGraph.reattach,
    "touch": SceneGraph.touch,
}


def execute(graph: SceneGraph, call: PrimitiveCall):
    """Run one mutating primitive call and return the primitive's result.

    This is the one way into the graph's primitives: records, perception's
    refreshes, the mission's pick and place and log replay all edit the
    graph by executing the same calls they log.
    """
    primitive = _PRIMITIVES.get(call.op)
    if primitive is None:
        raise ValueError(f"unknown primitive op {call.op!r}")
    return primitive(graph, **call.args)


def apply(
    graph: SceneGraph,
    record: UpdateRecord,
    decay_table: Optional[_decay.DecayTable] = None,
) -> ApplyReport:
    """Execute one record against the graph, atomically.

    Validation, target resolution and room lookups all happen before the
    one primitive call is executed, so a ``rejected`` or ``deferred`` report
    guarantees the graph bytes are unchanged. New objects take their decay
    rate from ``decay_table`` (the packaged default when omitted); a record
    without a pose places the object at its room's centroid and marks the
    pose provisional until perception refines it.
    """
    problems = validate(record)
    if problems:
        return ApplyReport(
            status=ApplyStatus.REJECTED,
            reason="validation: " + ", ".join(problems),
            record=record,
        )

    oid = None
    if record.action is not UpdateAction.ADDED:
        # Removed / Moved need a concrete node first.
        try:
            oid = resolve_target(graph, record)
        except AmbiguousTarget as exc:
            return ApplyReport(status=ApplyStatus.DEFERRED, reason=str(exc), record=record)
        except TargetNotFound as exc:
            return ApplyReport(status=ApplyStatus.REJECTED, reason=str(exc), record=record)

    if record.action is UpdateAction.REMOVED:
        call = PrimitiveCall(
            op="remove_object", args={"source_room": record.source_room, "target": oid}
        )
    else:
        try:
            room = graph.room_by_label(record.target_room)
        except SceneGraphError as exc:
            return ApplyReport(status=ApplyStatus.REJECTED, reason=str(exc), record=record)
        provisional = record.pose is None
        pose = record.pose if record.pose is not None else Pose.identity(room.pose.t)
        if record.action is UpdateAction.ADDED:
            bbox = record.bbox if record.bbox is not None else PROVISIONAL_BBOX
            table = decay_table if decay_table is not None else _decay.DecayTable.default()
            call = PrimitiveCall(
                op="add_object",
                args={
                    "target_room": room.label,
                    "label": record.target_object,
                    "pose": pose,
                    "bbox": bbox,
                    "decay_rate": _decay.lambda_for(record.target_object, table),
                    "now": record.issued_at,
                    "pose_provisional": provisional,
                },
            )
        else:
            call = PrimitiveCall(
                op="move_object",
                args={
                    "source_room": record.source_room,
                    "target_room": room.label,
                    "target": oid,
                    "new_pose": pose,
                    "now": record.issued_at,
                    "pose_provisional": provisional,
                },
            )

    try:
        result = execute(graph, call)
    except (SceneGraphError, InvalidGeometry) as exc:
        return ApplyReport(status=ApplyStatus.REJECTED, reason=str(exc), record=record)
    if record.action is UpdateAction.ADDED:
        return ApplyReport(
            status=ApplyStatus.APPLIED, executed=[call], resolved_id=result, record=record
        )
    return ApplyReport(
        status=ApplyStatus.APPLIED,
        executed=[find_call(record, oid), call],
        resolved_id=oid,
        record=record,
    )


def replay(graph: SceneGraph, calls: list[PrimitiveCall]) -> None:
    """Re-execute logged primitive calls against a graph.

    Replaying every executed call from an audit log, in order, against the
    initial graph reproduces the final graph exactly. Each logged ``find``
    is checked: its ``resolved`` id must be among the ids ``find`` returns
    on the replayed graph, else :class:`ReplayMismatch` is raised.
    """
    for call in calls:
        if call.op != "find":
            execute(graph, call)
            continue
        args = call.args
        found = graph.find(args["label"], room_scope=args.get("room_scope"))
        if args.get("resolved") not in found:
            raise ReplayMismatch(
                f"find({args['label']!r}, room_scope={args.get('room_scope')!r}) "
                f"returned {found}, but the log resolved {args.get('resolved')!r}"
            )
