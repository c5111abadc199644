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
from .geometry import BBox3, Pose
from .graph import SceneGraph, SceneGraphError, UnknownRoom

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
    """A logged ``find`` does not resolve the same way on the replayed graph."""


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


def validate(record: UpdateRecord) -> list[str]:
    """Field-presence violations for the record's action, empty when valid.

    This is the one rule for what a change must name: every record names an
    object, a removal its source room, an addition its target room and a move
    both. It reads only ``action``, ``target_object``, ``source_room`` and
    ``target_room``, which a ``human.StatementParse`` carries under the same
    names, so the grammar keeps a parse only when this finds nothing missing.
    A ``None`` or blank label is missing.
    """
    problems = []
    if not (record.target_object or "").strip():
        problems.append("MissingTargetObject")
    if record.action in (UpdateAction.ADDED, UpdateAction.MOVED) and not record.target_room:
        problems.append("MissingTargetRoom")
    if record.action in (UpdateAction.REMOVED, UpdateAction.MOVED) and not record.source_room:
        problems.append("MissingSourceRoom")
    return problems


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


def resolve_target(graph: SceneGraph, label: str, room: Optional[str]) -> PrimitiveCall:
    """The logged ``find`` resolving ``label`` to the one attached object in ``room``.

    This is the one resolution rule: ``apply``, the mission's pick and
    ``replay`` all call it. Raises :class:`TargetNotFound` when ``room``
    is None, names no room of the graph or holds no attached ``label``, and
    :class:`AmbiguousTarget` when it holds several.
    """
    if room is None:
        raise TargetNotFound(f"no room to search for {label!r}")
    try:
        candidates = graph.find(label, room_scope=room)
    except UnknownRoom as exc:
        raise TargetNotFound(str(exc)) from None
    if not candidates:
        raise TargetNotFound(f"no attached {label!r} in room {room!r}")
    if len(candidates) > 1:
        raise AmbiguousTarget(f"{len(candidates)} attached {label!r} in room {room!r}")
    return PrimitiveCall(
        op="find", args={"label": label, "room_scope": room, "resolved": candidates[0]}
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

    if record.action is not UpdateAction.ADDED:
        # Removed / Moved need a concrete node first.
        try:
            find = resolve_target(graph, record.target_object, record.source_room)
        except AmbiguousTarget as exc:
            return ApplyReport(status=ApplyStatus.DEFERRED, reason=str(exc), record=record)
        except TargetNotFound as exc:
            return ApplyReport(status=ApplyStatus.REJECTED, reason=str(exc), record=record)
        oid = find.args["resolved"]

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
    except (SceneGraphError, ValueError) as exc:  # ValueError: a field ObjectNode or Pose refuses
        return ApplyReport(status=ApplyStatus.REJECTED, reason=str(exc), record=record)
    if record.action is UpdateAction.ADDED:
        return ApplyReport(
            status=ApplyStatus.APPLIED, executed=[call], resolved_id=result, record=record
        )
    return ApplyReport(
        status=ApplyStatus.APPLIED,
        executed=[find, call],
        resolved_id=oid,
        record=record,
    )


def replay(graph: SceneGraph, calls: list[PrimitiveCall]) -> None:
    """Re-execute logged primitive calls against a graph.

    Replaying every executed call from an audit log, in order, against the
    initial graph reproduces the final graph exactly. Each logged ``find``
    is resolved again with :func:`resolve_target` and must come out as the
    identical call, else :class:`ReplayMismatch` is raised.
    """
    for call in calls:
        if call.op != "find":
            execute(graph, call)
            continue
        try:
            found = resolve_target(graph, call.args["label"], call.args["room_scope"])
        except ResolutionError as exc:
            raise ReplayMismatch(f"logged find {call.args}, replayed: {exc}") from None
        if found.args != call.args:
            raise ReplayMismatch(f"logged find {call.args}, replayed {found.args}")
