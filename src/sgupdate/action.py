"""Pick-and-place missions and the graph bookkeeping they imply.

A mission is parsed from a fixed instruction form into a :class:`TaskSpec`
and executed as a tiny state machine: picking detaches the object (it keeps
existing but is invisible to queries and to perception's expectations),
placing reattaches it at the commanded pose and emits a moved record so the
audit trail shows why the graph changed. Each step returns an
:class:`~sgupdate.records.ApplyReport`, like ``records.apply``, and edits
the graph only through ``records.execute``. The same steps run on the
estimated graph and on the simulator's ground truth.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .geometry import Pose
from .graph import SceneGraph, SceneGraphError, _norm_label
from .records import (
    ApplyReport,
    ApplyStatus,
    PrimitiveCall,
    Provenance,
    ResolutionError,
    UpdateAction,
    UpdateRecord,
    execute,
    find_call,
    resolve_target,
)

__all__ = [
    "UnparsableTask",
    "IllegalPhase",
    "RoomMismatch",
    "TaskSpec",
    "Phase",
    "PickPlaceTask",
    "parse_task",
]


class UnparsableTask(ValueError):
    pass


class IllegalPhase(SceneGraphError):
    pass


class RoomMismatch(SceneGraphError):
    """The commanded place pose does not land in the mission's target room."""


@dataclass(frozen=True)
class TaskSpec:
    object_label: str
    source_room: str
    target_room: str

    def __post_init__(self) -> None:
        for name in ("object_label", "source_room", "target_room"):
            if not str(getattr(self, name)).strip():
                raise UnparsableTask(f"task field {name} must be nonempty")


_TASK = re.compile(
    r"^pick (?:up )?the (?P<obj>.+?)(?: that(?: i|')s| that is)? (?:in|from) the (?P<sr>.+?),? "
    r"and (?:take|bring|carry|move) it (?:to|into) the (?P<tr>.+)$"
)


def parse_task(text: str) -> TaskSpec:
    """Parse a 'Pick the X in the A and take it to the B.' instruction."""
    cleaned = _norm_label(text).rstrip(".!")
    m = _TASK.match(cleaned)
    if not m:
        raise UnparsableTask(f"instruction does not match the pick/place form: {text!r}")
    return TaskSpec(
        object_label=m.group("obj"),
        source_room=m.group("sr"),
        target_room=m.group("tr"),
    )


class Phase(str, Enum):
    PENDING = "pending"
    HOLDING = "holding"
    DONE = "done"


@dataclass
class PickPlaceTask:
    """State machine walking one mission through pending → holding → done."""

    spec: TaskSpec
    phase: Phase = Phase.PENDING
    held_id: Optional[str] = None

    def pick(self, graph: SceneGraph) -> ApplyReport:
        """Detach the mission object from its source room.

        The report lists the executed primitive calls for the audit log. An
        object that is missing or ambiguous gives a ``rejected`` report and
        leaves the graph and the phase unchanged.
        """
        if self.phase is not Phase.PENDING:
            raise IllegalPhase(f"pick is only legal from pending, not {self.phase.value}")
        probe = UpdateRecord(
            action=UpdateAction.MOVED,
            target_object=self.spec.object_label,
            source_room=self.spec.source_room,
            target_room=self.spec.target_room,
        )
        try:
            oid = resolve_target(graph, probe)
        except ResolutionError as exc:
            return ApplyReport(status=ApplyStatus.REJECTED, reason=str(exc))
        call = PrimitiveCall(op="detach", args={"target": oid})
        execute(graph, call)
        self.phase = Phase.HOLDING
        self.held_id = oid
        return ApplyReport(
            status=ApplyStatus.APPLIED, executed=[find_call(probe, oid), call], resolved_id=oid
        )

    def place(self, graph: SceneGraph, place_pose: Pose, now: float) -> ApplyReport:
        """Reattach the held object at ``place_pose`` in the target room.

        The pose must actually fall inside the target room's box; the report
        carries the moved record that documents the completed mission.
        """
        if self.phase is not Phase.HOLDING or self.held_id is None:
            raise IllegalPhase(f"place is only legal while holding, not {self.phase.value}")
        room = graph.rooms[graph.assign_room(place_pose)]
        if room.label != self.spec.target_room:
            raise RoomMismatch(
                f"place pose lands in {room.label!r}, mission targets {self.spec.target_room!r}"
            )
        call = PrimitiveCall(
            op="reattach",
            args={
                "target": self.held_id,
                "room_label": room.label,
                "pose": place_pose,
                "now": float(now),
            },
        )
        execute(graph, call)
        record = UpdateRecord(
            action=UpdateAction.MOVED,
            target_object=self.spec.object_label,
            source_room=self.spec.source_room,
            target_room=self.spec.target_room,
            pose=place_pose,
            provenance=Provenance.ACTION,
            issued_at=float(now),
        )
        self.phase = Phase.DONE
        return ApplyReport(
            status=ApplyStatus.APPLIED, executed=[call], resolved_id=self.held_id, record=record
        )
