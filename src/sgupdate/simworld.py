"""Ground-truth world simulation for driving and scoring the pipeline.

The world owns the true scene graph and a queue of scripted changes
(objects vanishing, moving, appearing). Each change is an update record
applied with ``records.apply``, and the harness runs the robot's mission on
the truth with the same ``PickPlaceTask`` steps it runs on the estimate, so
the truth changes through the same code as the estimate. A synthetic
detector renders the truth into observations through
``perception.expected_visible``, the visibility rule perception applies to
the estimated graph, with configurable failure injection (small objects
below a detectable size, label corruption, per-object dropout) so detector
pathologies are reproducible.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Sequence

from . import records as rec
from .decay import DecayTable
from .geometry import Pose
from .graph import SceneGraph, SceneGraphError, _norm_label, deserialize
from .perception import CameraModel, Observation, expected_visible
from .values import number, obj, text, texts

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
    label_noise: dict = field(default_factory=dict)  # true (normalized) label -> reported label
    dropout_ids: frozenset = frozenset()  # ground-truth ids never reported

    @classmethod
    def for_episode(
        cls, data: dict, house: SceneGraph, script: Sequence[rec.UpdateRecord]
    ) -> "DetectorFailureConfig":
        """The knobs of a scenario's ``failures`` section, each checked where it is read.
        A knob must name what the truth can hold: each ``label_noise`` key the label of a
        house object or of a scripted add, no label twice, each ``label_noise`` value a
        label that is not blank, and each ``dropout_ids`` entry a house object id or
        ``<slug>-<n>`` for a scripted add. ``script`` is the scenario's records as
        ``harness.load_scenario`` reads them, labels normalized."""
        extent = number(data.get("min_detectable_extent", 0.0), "failures.min_detectable_extent")
        added = {r.target_object for r in script if r.action is rec.UpdateAction.ADDED}
        nothing = "names no {} of the house or of a scripted add"
        noise = obj(data.get("label_noise", {}), "failures.label_noise")
        # Only label noise needs the house's labels: most scenarios set none.
        labels = added.union(n.label for n in house.objects.values()) if noise else added
        label_noise = {}
        for key, value in noise.items():
            where, label = f"failures.label_noise[{key!r}]", _norm_label(key)
            if not _norm_label(text(value, where)):
                raise ValueError(f"{where} must not be blank, got {value!r}")
            if label not in labels:
                raise ValueError(f"{where} " + nothing.format("label"))
            if label in label_noise:
                raise ValueError(f"{where} repeats the label {label!r}")
            label_noise[label] = value
        slugs = {label.replace(" ", "-") for label in added}
        dropout_ids = texts(data.get("dropout_ids", []), "failures.dropout_ids")
        for i, oid in enumerate(dropout_ids):
            slug, _, n = oid.rpartition("-")
            if oid not in house.objects and not (slug in slugs and re.fullmatch("[1-9][0-9]*", n)):
                raise ValueError(f"failures.dropout_ids[{i}] " + nothing.format("object"))
        return cls(extent, label_noise, frozenset(dropout_ids))


def load_house() -> SceneGraph:
    """The packaged four-room house fixture as a fresh graph."""
    text = resources.files("sgupdate.data").joinpath("house.json").read_text("utf-8")
    return deserialize(text)


class World:
    """Ground-truth graph plus a queue of scripted update records."""

    def __init__(
        self,
        graph: SceneGraph,
        records: Sequence[rec.UpdateRecord] = (),
        decay_table: Optional[DecayTable] = None,
    ) -> None:
        self.graph = graph
        # Time order; sorted() is stable, so file order breaks ties.
        self._queue = sorted(records, key=lambda r: r.issued_at)
        self._cursor = 0
        self.decay_table = decay_table if decay_table is not None else DecayTable.default()

    def step(self, until: float) -> list[rec.UpdateRecord]:
        """Apply every queued record with ``issued_at <= until``.

        Records apply in time order (file order on equal stamps); an
        inconsistent record aborts the step with the truth left at the state
        just before it.
        """
        applied = []
        while self._cursor < len(self._queue) and self._queue[self._cursor].issued_at <= until:
            record = self._queue[self._cursor]
            report = rec.apply(self.graph, record, self.decay_table)
            if report.status is not rec.ApplyStatus.APPLIED:
                raise InconsistentAction(f"t={record.issued_at}: {report.reason}")
            self._cursor += 1
            applied.append(record)
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
        movable, a member of the room the camera stands in, centroid strictly
        inside frustum and range): rooms occlude the truth as they do the
        estimate. The failure knobs then apply: size suppression, dropout,
        label corruption.
        Detached and removed objects are never reported. Output order
        follows sorted ground-truth ids, so frames are deterministic.
        """
        out = []
        objects, noise = self.graph.objects, failures.label_noise
        extent, dropout = failures.min_detectable_extent, failures.dropout_ids
        for oid in expected_visible(self.graph, robot_pose, cam):
            node = objects[oid]
            # Box extents are positive: a minimum of zero or less suppresses nothing.
            if extent > 0.0 and node.bbox.max_extent < extent:
                continue
            if oid in dropout:
                continue
            label = node.label  # normalized when the node was built
            if label in noise:  # a reported label is normalized as Observation does
                label = _norm_label(noise[label])
            out.append(Observation._of(label, node.pose, node.bbox))
        return out
