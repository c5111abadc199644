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
from importlib import resources
from typing import Optional, Sequence

from . import records as rec
from .decay import DecayTable
from .geometry import Pose
from .graph import SceneGraph, SceneGraphError, deserialize
from .perception import CameraModel, Observation, expected_visible

__all__ = [
    "InconsistentAction",
    "DetectorFailureConfig",
    "World",
    "load_house",
]


class InconsistentAction(SceneGraphError):
    """A scripted change or mission step cannot be applied to the current ground truth."""


@dataclass(frozen=True)
class DetectorFailureConfig:
    """Deterministic detector degradation knobs. All-zero means ideal."""

    min_detectable_extent: float = 0.0  # suppress when max box extent is below this
    label_noise: dict = field(default_factory=dict)  # true label -> reported label
    dropout_ids: frozenset = frozenset()  # ground-truth ids never reported

    @classmethod
    def from_dict(cls, data: dict) -> "DetectorFailureConfig":
        """The knobs of a scenario's ``failures`` section."""
        noise, ids = data.get("label_noise", {}), data.get("dropout_ids", [])
        if not isinstance(noise, dict):
            raise ValueError(f"failures.label_noise must be an object, got {noise!r}")
        if not isinstance(ids, list):
            raise ValueError(f"failures.dropout_ids must be a list, got {ids!r}")
        return cls(
            min_detectable_extent=float(data.get("min_detectable_extent", 0.0)),
            label_noise=dict(noise),
            dropout_ids=frozenset(ids),
        )


def load_house() -> SceneGraph:
    """The packaged four-room house fixture as a fresh graph."""
    text = resources.files("sgupdate.data").joinpath("house.json").read_text("utf-8")
    return deserialize(text)


class World:
    """Ground-truth graph plus a clock and a queue of scripted update records."""

    def __init__(
        self,
        graph: SceneGraph,
        records: Sequence[rec.UpdateRecord] = (),
        decay_table: Optional[DecayTable] = None,
    ) -> None:
        self.graph = graph
        self.clock = graph.epoch
        # Time order; sorted() is stable, so file order breaks ties.
        self._queue = sorted(records, key=lambda r: r.issued_at)
        self._cursor = 0
        self.decay_table = decay_table if decay_table is not None else DecayTable.default()

    def step(self, until: float) -> list[rec.UpdateRecord]:
        """Advance the clock, applying every queued record with ``issued_at <= until``.

        Records apply in time order (file order on equal stamps); an
        inconsistent record aborts the step with the truth left at the state
        just before it.
        """
        applied = []
        while self._cursor < len(self._queue) and self._queue[self._cursor].issued_at <= until:
            record = self._queue[self._cursor]
            try:
                report = rec.apply(self.graph, record, self.decay_table)
            except SceneGraphError as exc:
                raise InconsistentAction(f"t={record.issued_at}: {exc}") from exc
            if report.status is not rec.ApplyStatus.APPLIED:
                raise InconsistentAction(f"t={record.issued_at}: {report.reason}")
            self._cursor += 1
            self.clock = max(self.clock, record.issued_at)
            applied.append(record)
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
