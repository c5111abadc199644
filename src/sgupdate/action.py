"""Pick-and-place missions and the graph bookkeeping they imply.

A mission is parsed from a fixed instruction form into a :class:`TaskSpec`
and executed as a tiny state machine: picking detaches the object (it keeps
existing but is invisible to queries and to perception's expectations),
placing reattaches it at the commanded pose and emits a moved record so the
audit trail shows why the graph changed.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .geometry import Pose
from .graph import SceneGraph, SceneGraphError
from .records import (
    AmbiguousTarget,
    PrimitiveCall,
    Provenance,
    TargetNotFound,
    UpdateAction,
    UpdateRecord,
    resolve_target,
)

__all__ = [
    "UnparsableTask",
    "ObjectNotFound",
    "IllegalPhase",
    "RoomMismatch",
    "TaskSpec",
    "Phase",
    "PickPlaceTask",
    "parse_task",
]


class UnparsableTask(ValueError):
    pass


class ObjectNotFound(SceneGraphError):
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
    cleaned = " ".join(text.strip().lower().split()).rstrip(".!")
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

    def pick(self, graph: SceneGraph) -> tuple[str, list[PrimitiveCall]]:
        """Detach the mission object from its source room.

        Returns the held node id plus the executed primitive calls for the
        audit log. Resolution failures abort before any mutation.
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
        except TargetNotFound as exc:
            raise ObjectNotFound(str(exc)) from exc
        calls = [
            PrimitiveCall(
                op="find",
                args={
                    "label": self.spec.object_label,
                    "room_scope": self.spec.source_room,
                    "resolved": oid,
                },
            ),
            PrimitiveCall(op="detach", args={"target": oid}),
        ]
        graph.detach(oid)
        self.phase = Phase.HOLDING
        self.held_id = oid
        return oid, calls

    def place(
        self, graph: SceneGraph, place_pose: Pose, now: float
    ) -> tuple[UpdateRecord, list[PrimitiveCall]]:
        """Reattach the held object at ``place_pose`` in the target room.

        The pose must actually fall inside the target room's box; emits the
        moved record that documents the completed mission.
        """
        if self.phase is not Phase.HOLDING or self.held_id is None:
            raise IllegalPhase(f"place is only legal while holding, not {self.phase.value}")
        room_id = graph.assign_room(place_pose)
        room = graph.rooms[room_id]
        if room.label != self.spec.target_room:
            raise RoomMismatch(
                f"place pose lands in {room.label!r}, mission targets {self.spec.target_room!r}"
            )
        calls = [
            PrimitiveCall(
                op="reattach",
                args={
                    "target": self.held_id,
                    "room_label": room.label,
                    "pose": place_pose.to_dict(),
                    "now": float(now),
                },
            )
        ]
        graph.reattach(self.held_id, room.label, place_pose, now)
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
        return record, calls
