"""Ground-truth world simulation for driving and scoring the pipeline.

The world owns the true scene graph, a clock, and a queue of scripted
changes (objects vanishing, moving, appearing). Each change is an update
record applied with ``records.apply``, and the harness runs the robot's
mission on the truth with the same ``PickPlaceTask`` steps it runs on the
estimate, so the truth changes through the same code as the estimate. A
synthetic detector renders
the truth into observations through ``perception.expected_visible``, the
visibility rule perception applies to the estimated graph, with configurable
failure injection (small objects below a detectable size, label corruption,
per-object dropout) so detector pathologies are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Optional, Sequence

from . import records
from .decay import DecayTable
from .geometry import BBox3, Pose
from .graph import SceneGraph, SceneGraphError, deserialize
from .perception import CameraModel, Observation, expected_visible
from .records import UpdateAction, UpdateRecord

__all__ = [
    "InconsistentAction",
    "ActionKind",
    "VirtualAction",
    "DetectorFailureConfig",
    "World",
    "load_house",
]


class InconsistentAction(SceneGraphError):
    """A scripted change or mission step cannot be applied to the current ground truth."""


class ActionKind(str, Enum):
    REMOVE = "remove"
    MOVE = "move"
    ADD = "add"


@dataclass(frozen=True)
class VirtualAction:
    """One scripted ground-truth change at time ``at``."""

    at: float
    kind: ActionKind
    label: str
    room: Optional[str] = None  # remove/add: the room acted on; move: source room
    pose: Optional[Pose] = None  # move: destination pose; add: spawn pose
    bbox: Optional[BBox3] = None  # add only

    @classmethod
    def from_dict(cls, data: dict) -> "VirtualAction":
        kind = ActionKind(data["action"])
        if kind is ActionKind.REMOVE:
            return cls(at=float(data["at"]), kind=kind, label=data["label"], room=data["room"])
        if kind is ActionKind.MOVE:
            return cls(
                at=float(data["at"]),
                kind=kind,
                label=data["label"],
                room=data["from_room"],
                pose=Pose.from_dict(data["to_pose"]),
            )
        return cls(
            at=float(data["at"]),
            kind=kind,
            label=data["label"],
            room=data["room"],
            pose=Pose.from_dict(data["pose"]),
            bbox=BBox3(tuple(data["bbox"])),
        )


@dataclass(frozen=True)
class DetectorFailureConfig:
    """Deterministic detector degradation knobs. All-zero means ideal."""

    min_detectable_extent: float = 0.0  # suppress when max box extent is below this
    label_noise: dict = field(default_factory=dict)  # true label -> reported label
    dropout_ids: frozenset = frozenset()  # ground-truth ids never reported

    @classmethod
    def from_dict(cls, data: dict) -> "DetectorFailureConfig":
        return cls(
            min_detectable_extent=float(data.get("min_detectable_extent", 0.0)),
            label_noise=dict(data.get("label_noise", {})),
            dropout_ids=frozenset(data.get("dropout_ids", [])),
        )


def load_house() -> SceneGraph:
    """The packaged four-room house fixture as a fresh graph."""
    text = resources.files("sgupdate.data").joinpath("house.json").read_text("utf-8")
    return deserialize(text)


class World:
    """Ground-truth graph plus a clock and a scripted action queue."""

    def __init__(
        self,
        graph: SceneGraph,
        actions: Sequence[VirtualAction] = (),
        decay_table: Optional[DecayTable] = None,
    ) -> None:
        self.graph = graph
        self.clock = graph.epoch
        # Stable order: time first, file order breaks ties.
        self._queue = sorted(
            ((a.at, i, a) for i, a in enumerate(actions)), key=lambda t: (t[0], t[1])
        )
        self._cursor = 0
        self.decay_table = decay_table if decay_table is not None else DecayTable.default()

    # ------------------------------------------------------------------

    def _record(self, action: VirtualAction) -> UpdateRecord:
        if action.kind is ActionKind.REMOVE:
            return UpdateRecord(
                UpdateAction.REMOVED, action.label, source_room=action.room, issued_at=action.at
            )
        if action.kind is ActionKind.MOVE:
            target_room = self.graph.rooms[self.graph.assign_room(action.pose)].label
            return UpdateRecord(
                UpdateAction.MOVED,
                action.label,
                source_room=action.room,
                target_room=target_room,
                pose=action.pose,
                issued_at=action.at,
            )
        return UpdateRecord(
            UpdateAction.ADDED,
            action.label,
            target_room=action.room,
            pose=action.pose,
            bbox=action.bbox,
            issued_at=action.at,
        )

    def _apply(self, action: VirtualAction) -> None:
        try:
            report = records.apply(self.graph, self._record(action), self.decay_table)
        except SceneGraphError as exc:
            raise InconsistentAction(f"t={action.at}: {exc}") from exc
        if report.status is not records.ApplyStatus.APPLIED:
            raise InconsistentAction(f"t={action.at}: {report.reason}")

    def step(self, until: float) -> list[VirtualAction]:
        """Advance the clock, applying every queued action with ``at <= until``.

        Actions apply in time order (file order on equal stamps); an
        inconsistent action aborts the step with the truth left at the state
        just before it.
        """
        applied = []
        while self._cursor < len(self._queue) and self._queue[self._cursor][0] <= until:
            action = self._queue[self._cursor][2]
            self._apply(action)
            self._cursor += 1
            self.clock = max(self.clock, action.at)
            applied.append(action)
        self.clock = max(self.clock, until)
        return applied

    # ------------------------------------------------------------------

    def synthetic_detect(
        self,
        robot_pose: Pose,
        cam: CameraModel,
        failures: DetectorFailureConfig = DetectorFailureConfig(),
    ) -> list[Observation]:
        """Observations of the true world from a robot pose.

        The visible set is ``expected_visible`` on the true graph (attached,
        movable, centroid strictly inside frustum and range); the failure
        knobs then apply: size suppression, dropout, label corruption.
        Detached and removed objects are never reported. Output order
        follows sorted ground-truth ids, so frames are deterministic.
        """
        out = []
        for oid in expected_visible(self.graph, robot_pose, cam):
            node = self.graph.objects[oid]
            if node.bbox.max_extent < failures.min_detectable_extent:
                continue
            if oid in failures.dropout_ids:
                continue
            label = failures.label_noise.get(node.label, node.label)
            out.append(Observation(label=label, pose=node.pose, bbox=node.bbox))
        return out
