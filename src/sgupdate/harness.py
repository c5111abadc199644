"""Scenario runner: replays a scripted episode and scores the outcome.

A scenario file wires everything together: the house, the scripted world
changes, human statements, one optional pick-and-place mission, a robot
trajectory, detector parameters and failure injection. :func:`run_scenario`
steps the simulated truth through it and drives an :class:`Updater`, the
robot's side of the run, which keeps an append-only :class:`RunLog` whose
applied records (and raw primitive calls) fully determine the final graph —
replaying the log against the initial graph reproduces it byte for byte.
Right after the last frame the run takes one staleness report of the
estimate, at that frame's time and the scenario's ``stale_threshold``, and
keeps it as :attr:`ScenarioResult.stale`.

Scoring compares applied records against the scripted ground-truth changes.
Per update type, the denominator counts every true change of that type plus
any spurious applied record of that type (an operation the robot performed
that no true change explains). Failures are attributed to the module that
produced the wrong record, or — for silent misses — the module that was
expected to catch the change. Pure geometry refinements are excluded:
they do not assert world changes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import records as rec
from .action import PickPlaceTask, TaskSpec, parse_task
from .decay import DecayTable, StaleReport, stale_targets
from .geometry import BBox3, Pose
from .graph import NoContainingRoom, ParseError, SceneGraph, _norm_label, deserialize
from .human import Confidence, GrammarExtractor, Lexicon, StatementParse, to_record
from .perception import (
    CameraModel,
    ConfirmationStore,
    Observation,
    associate,
    confirm,
    expected_visible,
)
from .simworld import DetectorFailureConfig, InconsistentAction, World
from .values import entries, floats, number, obj, text, within

__all__ = [
    "ScenarioError",
    "Scenario",
    "load_scenario",
    "RunLogEntry",
    "RunLog",
    "GroundTruthChange",
    "ScenarioResult",
    "Updater",
    "run_scenario",
    "score",
    "Metrics",
    "MetricsRow",
    "replay_runlog",
    "format_metrics_table",
    "MODULE_COLUMNS",
]

MODULE_COLUMNS = ("Text", "RGB-D", "Action")

_PROVENANCE_COLUMN = {
    rec.Provenance.HUMAN: "Text",
    rec.Provenance.PERCEPTION: "RGB-D",
    rec.Provenance.ACTION: "Action",
}

_ACTION_ROW = {
    rec.UpdateAction.ADDED: "Add",
    rec.UpdateAction.REMOVED: "Remove",
    rec.UpdateAction.MOVED: "Move",
}


class ScenarioError(Exception):
    """The scenario file is missing, malformed, or self-inconsistent."""


@dataclass
class Mission:
    spec: TaskSpec
    pick_time: float
    place_time: float
    place_pose: Pose


@dataclass
class Scenario:
    """A loaded, validated scenario.

    ``house`` (the truth's starting graph) and ``initial`` (the robot's
    starting estimate, the very same object when the file says
    ``from_house``) are read-only: a run copies both before editing.
    """

    house: SceneGraph
    initial: SceneGraph
    decay_table: DecayTable
    virtual_actions: list[rec.UpdateRecord]  # the script, in file order
    human_statements: list[tuple[float, StatementParse]]  # parsed with the scenario's lexicon
    mission: Optional[Mission]
    trajectory: list[tuple[float, Pose]]
    camera: CameraModel
    epsilon: float
    k: int
    failures: DetectorFailureConfig
    stale_threshold: float


def _apply_overrides(data: dict, overrides: Optional[dict]) -> dict:
    """Apply dotted-key overrides ('failures.min_detectable_extent') to raw JSON."""
    for key, value in (overrides or {}).items():
        *parents, leaf = key.split(".")
        cursor = data
        for part in parents:
            cursor = obj(cursor.setdefault(part, {}), f"override {key!r}: {part!r}")
        cursor[leaf] = value
    return data


def _input_file(data: dict, key: str, base: Path, parse, default=None):
    """``parse`` of the file named under ``key`` (relative to ``base``), or ``default()`` if absent."""
    name = data.get(key)
    if name is None and default is not None:
        return default()
    path = base / text(name, key)
    try:
        return parse(path.read_text("utf-8"))
    except (OSError, ValueError, ParseError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _landing_room(house: SceneGraph, pose: Pose) -> Optional[str]:
    """Label of the room whose box holds ``pose``, None outside every room."""
    try:
        return house.rooms[house.assign_room(pose)].label
    except NoContainingRoom:
        return None


def _scripted_record(house: SceneGraph, rooms: set[str], entry: dict) -> rec.UpdateRecord:
    """One ``virtual_actions`` entry as the update record the world applies.

    Each room it names is one of the house's ``rooms``. A move's target room is
    the room holding its ``to_pose``: rooms never change after load. The record
    passes ``records.validate``, the check ``apply`` makes first.
    """
    at, kind = number(entry["at"], "at"), entry["action"]
    label = _norm_label(text(entry["label"], "label"))

    def room(key: str) -> str:
        name = text(entry[key], key)
        if name not in rooms:
            raise ValueError(f"virtual action at t={at} names unknown room {name!r}")
        return name

    if kind == "remove":
        action, fields = rec.UpdateAction.REMOVED, {"source_room": room("room")}
    elif kind == "move":
        source, pose = room("from_room"), Pose.from_dict(entry["to_pose"], "to_pose")
        target = _landing_room(house, pose)
        if target is None:
            raise ValueError(f"virtual move at t={at}: to_pose {pose.t} is outside every room")
        action = rec.UpdateAction.MOVED
        fields = {"source_room": source, "target_room": target, "pose": pose}
    elif kind == "add":
        target, pose = room("room"), Pose.from_dict(entry["pose"])
        if _landing_room(house, pose) != target:
            raise ValueError(f"virtual add at t={at}: pose {pose.t} does not land in room {target!r}")
        bbox = BBox3(entry["bbox"])
        action, fields = rec.UpdateAction.ADDED, {"target_room": target, "pose": pose, "bbox": bbox}
    else:
        raise ValueError(f"unknown action {kind!r}")
    record = rec.UpdateRecord(action, label, issued_at=at, **fields)
    problems = rec.validate(record)
    if problems:
        raise ValueError("validation: " + ", ".join(problems))
    return record


def _mission(house: SceneGraph, rooms: set[str], m: dict) -> Mission:
    """The ``mission`` section, between rooms of the house, placing into its target room."""
    spec = within("mission.mission", parse_task, text(m.get("mission"), "mission.mission"))
    if spec.source_room not in rooms or spec.target_room not in rooms:
        raise ValueError("mission names a room absent from the house")
    pick_time = number(m.get("pick_time"), "mission.pick_time")
    place_time = number(m.get("place_time"), "mission.place_time")
    if pick_time >= place_time:
        raise ValueError("mission pick_time must precede place_time")
    place = within("mission.place_pose", Pose.from_dict, m.get("place_pose"))
    if _landing_room(house, place) != spec.target_room:
        raise ValueError(
            f"mission.place_pose {place.t} does not land in the target room {spec.target_room!r}"
        )
    return Mission(spec=spec, pick_time=pick_time, place_time=place_time, place_pose=place)


def _trajectory(data: dict, initial: SceneGraph, initial_key: str) -> list[tuple[float, Pose]]:
    """The camera waypoints, in time order and none before an attached movable object's
    ``last_seen`` in ``initial``, which the run's staleness report, taken at the last
    waypoint, subtracts from that waypoint's time."""
    seen = (
        n.last_seen for n in initial.objects.values() if n.room is not None and n.decay_rate > 0.0
    )
    last_seen = max(seen, default=-math.inf)
    floor = (last_seen, f"the last_seen {last_seen} of an object in {initial_key}")

    def frame(w: dict) -> tuple[float, Pose]:
        nonlocal floor
        at = number(w["at"], "at")
        if at < floor[0]:
            raise ValueError(f"at {at} precedes {floor[1]}")
        floor = (at, f"the frame before it, at {at}")
        return at, Pose.from_dict(w["pose"])

    return entries(data.get("trajectory", []), "trajectory", frame)


def load_scenario(path, overrides: Optional[dict] = None) -> Scenario:
    """Load a scenario file, checking each value where it is read and parsing
    each human statement once, with the scenario's lexicon.

    Raises :class:`ScenarioError` naming the first bad key or entry.
    """
    path = Path(path)
    base = path.parent
    try:
        data = _apply_overrides(obj(json.loads(path.read_text("utf-8")), "a scenario"), overrides)
        house = _input_file(data, "house", base, deserialize)
        rooms = {r.label for r in house.rooms.values()}
        from_house = data.get("initial_graph", "from_house") == "from_house"
        initial = house if from_house else _input_file(data, "initial_graph", base, deserialize)
        if initial.rooms != house.rooms:  # every room check at load is made against the house
            raise ValueError("initial_graph: its rooms differ from the house's")
        decay_table = _input_file(
            data, "decay_table", base, lambda t: DecayTable.from_dict(json.loads(t)), DecayTable.default
        )
        lexicon = _input_file(
            data, "lexicon", base, lambda t: Lexicon.from_dict(json.loads(t)), Lexicon.default
        )
        extract = GrammarExtractor(lexicon)
        script = entries(
            data.get("virtual_actions", []),
            "virtual_actions",
            lambda e: _scripted_record(house, rooms, e),
        )
        statements = entries(
            data.get("human_statements", []),
            "human_statements",
            lambda s: (number(s["at"], "at"), extract(text(s["text"], "text"))),
        )
        m = data.get("mission")
        mission = None if m is None else _mission(house, rooms, obj(m, "mission"))
        trajectory = _trajectory(data, initial, "house" if from_house else "initial_graph")
        pcfg = obj(data.get("perception", {}), "perception")
        camera = within(
            "perception",
            CameraModel,
            number(pcfg.get("fov_h", 2.2), "perception.fov_h"),
            number(pcfg.get("fov_v", 1.7), "perception.fov_v"),
            *floats(pcfg.get("range", [0.2, 4.0]), "perception.range", 2),
        )
        epsilon = number(pcfg.get("epsilon", 0.25), "perception.epsilon")
        if epsilon <= 0.0:
            raise ValueError("perception.epsilon must be positive")
        k = pcfg.get("k", 2)
        if type(k) is not int or k < 1:
            raise ValueError(f"perception.k must be an integer >= 1, got {k!r}")
        failures = DetectorFailureConfig.for_episode(
            obj(data.get("failures", {}), "failures"), house, script
        )
        stale_threshold = number(data.get("stale_threshold", 0.5), "stale_threshold")
        if not (0.0 < stale_threshold < 1.0):
            raise ValueError("stale_threshold must lie strictly between 0 and 1")
    except FileNotFoundError as exc:  # the scenario file: every other file is read by _input_file
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at offset {exc.pos}: {exc.msg}") from exc
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return Scenario(
        house=house,
        initial=initial,
        decay_table=decay_table,
        virtual_actions=script,
        human_statements=statements,
        mission=mission,
        trajectory=trajectory,
        camera=camera,
        epsilon=epsilon,
        k=k,
        failures=failures,
        stale_threshold=stale_threshold,
    )


# ----------------------------------------------------------------------
# run log


@dataclass
class RunLogEntry:
    at: float
    provenance: rec.Provenance
    report: rec.ApplyReport
    frame: Optional[int] = None
    note: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "at": self.at,
            "frame": self.frame,
            "provenance": self.provenance.value,
            "note": self.note,
            **self.report.to_dict(),
        }


@dataclass
class RunLog:
    """Append-only record of everything a run did."""

    entries: list[RunLogEntry] = field(default_factory=list)
    parse_failures: list[dict] = field(default_factory=list)

    def append(self, *entries: RunLogEntry) -> list[RunLogEntry]:
        """Append ``entries`` in order and return them as a list."""
        self.entries.extend(entries)
        return list(entries)

    @property
    def deferred(self) -> list[RunLogEntry]:
        return [e for e in self.entries if e.report.status is rec.ApplyStatus.DEFERRED]

    def applied_entries(self) -> list[RunLogEntry]:
        return [e for e in self.entries if e.report.status is rec.ApplyStatus.APPLIED]

    def to_jsonl(self) -> str:
        lines = [json.dumps(e.to_dict(), sort_keys=True) for e in self.entries]
        return "\n".join(lines) + ("\n" if lines else "")


def replay_runlog(initial: SceneGraph, log: RunLog) -> SceneGraph:
    """Re-execute every logged primitive call against a copy of ``initial``."""
    graph = initial.copy()
    for entry in log.entries:
        rec.replay(graph, entry.report.executed)
    return graph


# ----------------------------------------------------------------------
# ground truth bookkeeping


@dataclass(frozen=True)
class GroundTruthChange:
    action: rec.UpdateAction
    label: str
    source_room: Optional[str]
    target_room: Optional[str]
    expected_module: str  # metrics column expected to catch this change

    def matches(self, record: rec.UpdateRecord) -> bool:
        if record.action is not self.action:
            return False
        if record.target_object != self.label:
            return False
        if self.action in (rec.UpdateAction.REMOVED, rec.UpdateAction.MOVED):
            if record.source_room != self.source_room:
                return False
        if self.action in (rec.UpdateAction.ADDED, rec.UpdateAction.MOVED):
            if record.target_room != self.target_room:
                return False
        return True


def derive_ground_truth(scenario: Scenario) -> list[GroundTruthChange]:
    """Scripted changes annotated with the module expected to catch them.

    A change mentioned by a human statement belongs to Text; the mission's
    move belongs to Action; everything else must be noticed by the detector
    (RGB-D).
    """
    def stated(action: rec.UpdateAction, label: str, room: Optional[str]) -> bool:
        for _, parse in scenario.human_statements:
            if parse.confidence is Confidence.FAILED:
                continue
            if parse.action is action and parse.target_object == label:
                if action is rec.UpdateAction.ADDED or parse.source_room == room:
                    return True
        return False

    changes = [
        GroundTruthChange(
            r.action,
            r.target_object,
            r.source_room,
            r.target_room,
            "Text" if stated(r.action, r.target_object, r.source_room) else "RGB-D",
        )
        for r in scenario.virtual_actions
    ]
    if scenario.mission:
        spec = scenario.mission.spec
        changes.append(
            GroundTruthChange(
                rec.UpdateAction.MOVED, spec.object_label, spec.source_room, spec.target_room, "Action"
            )
        )
    return changes


# ----------------------------------------------------------------------
# metrics


@dataclass
class MetricsRow:
    gt_total: int = 0
    spurious: int = 0
    success: int = 0
    failures: dict[str, int] = field(default_factory=lambda: {c: 0 for c in MODULE_COLUMNS})

    @property
    def denominator(self) -> int:
        return self.gt_total + self.spurious

    @property
    def success_rate(self) -> Optional[float]:
        return self.success / self.denominator if self.denominator else None

    def failure_rate(self, column: str) -> Optional[float]:
        return self.failures.get(column, 0) / self.denominator if self.denominator else None


@dataclass
class Metrics:
    rows: dict[str, MetricsRow] = field(
        default_factory=lambda: {"Add": MetricsRow(), "Remove": MetricsRow(), "Move": MetricsRow()}
    )

    def check_invariant(self) -> None:
        for name, row in self.rows.items():
            total = row.success + sum(row.failures.values())
            if total != row.denominator:
                raise AssertionError(
                    f"metrics row {name}: success+failures={total} != denominator={row.denominator}"
                )

    def to_dict(self) -> dict:
        out = {"rows": {}}
        for name, row in self.rows.items():
            out["rows"][name] = {
                "ground_truth": row.gt_total,
                "spurious": row.spurious,
                "success": row.success,
                "success_rate": row.success_rate,
                "failure_rates": {c: row.failure_rate(c) for c in MODULE_COLUMNS},
                "failures": dict(row.failures),
            }
        return out


def score(log: RunLog, ground_truth: list[GroundTruthChange]) -> Metrics:
    """Match applied records against scripted changes and tally the table.

    Records enter scoring when they were applied and carry world-change
    content (not a geometry refinement). Each ground-truth change consumes
    at most one matching record; leftovers on either side are failures.
    """
    considered = []
    for entry in log.applied_entries():
        record = entry.report.record
        if record is None or record.refines_geometry:
            continue
        considered.append(record)

    unmatched = list(ground_truth)
    matched: list[GroundTruthChange] = []
    spurious: list[rec.UpdateRecord] = []
    for record in considered:
        hit = next((g for g in unmatched if g.matches(record)), None)
        if hit is None:
            spurious.append(record)
        else:
            unmatched.remove(hit)
            matched.append(hit)

    metrics = Metrics()
    for change in matched:
        metrics.rows[_ACTION_ROW[change.action]].gt_total += 1
        metrics.rows[_ACTION_ROW[change.action]].success += 1
    for change in unmatched:
        row = metrics.rows[_ACTION_ROW[change.action]]
        row.gt_total += 1
        # A wrong record about the same object pins the blame; a silent miss
        # falls to the module expected to catch the change.
        culprit = next((s for s in spurious if s.target_object == change.label), None)
        column = _PROVENANCE_COLUMN[culprit.provenance] if culprit else change.expected_module
        row.failures[column] = row.failures.get(column, 0) + 1
    for record in spurious:
        row = metrics.rows[_ACTION_ROW[record.action]]
        row.spurious += 1
        column = _PROVENANCE_COLUMN[record.provenance]
        row.failures[column] = row.failures.get(column, 0) + 1
    metrics.check_invariant()
    return metrics


def format_metrics_table(metrics: Metrics) -> str:
    """Text table: success rate per update type, failure share per module."""

    def pct(value: Optional[float]) -> str:
        return f"{value * 100:.2f}%" if value is not None else "-"

    headers = ["Update Type", "Success Rate", *MODULE_COLUMNS]
    lines = ["  ".join(f"{h:<12}" for h in headers)]
    for name in ("Add", "Remove", "Move"):
        row = metrics.rows[name]
        cells = [name, pct(row.success_rate), *(pct(row.failure_rate(c)) for c in MODULE_COLUMNS)]
        lines.append("  ".join(f"{c:<12}" for c in cells))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the event loop


class Updater:
    """The robot's side of a run: one estimate graph kept current from its inputs.

    It owns the estimate ``graph``, the confirmation store, the run ``log``,
    the decay table and the frame counter. Each input method returns the log
    entries it appended. ``scenario`` gives what frames and the mission need:
    the camera, ``epsilon``, ``k`` and the mission.
    Without one, the updater takes statements only.
    """

    def __init__(self, graph: SceneGraph, decay_table: DecayTable, scenario: Optional[Scenario] = None):
        self.graph, self.decay_table, self.scenario = graph, decay_table, scenario
        self.log, self.store, self.frames = RunLog(), ConfirmationStore(), 0
        mission = scenario and scenario.mission
        self.task = PickPlaceTask(spec=mission.spec) if mission else None

    def statement(self, parse: StatementParse, at: float) -> list[RunLogEntry]:
        """Apply a parsed statement dated ``at``; a failed parse is kept in
        ``log.parse_failures`` and appends no entry."""
        if parse.confidence is Confidence.FAILED:
            self.log.parse_failures.append({"at": at, "text": parse.text})
            return []
        report = rec.apply(self.graph, to_record(parse, now=at), self.decay_table)
        return self.log.append(RunLogEntry(at, rec.Provenance.HUMAN, report))

    def pick(self, at: float) -> list[RunLogEntry]:
        """The mission's pick. If it fails, the mission aborts and ``place`` does nothing."""
        report = self.task.pick(self.graph)
        if report.status is rec.ApplyStatus.APPLIED:
            return self.log.append(RunLogEntry(at, rec.Provenance.ACTION, report, note="pick"))
        self.task = None
        return self.log.append(RunLogEntry(at, rec.Provenance.ACTION, report, note="pick failed"))

    def place(self, at: float) -> list[RunLogEntry]:
        """The mission's place, at its ``place_pose``, unless the pick failed."""
        if self.task is None:
            return []
        report = self.task.place(self.graph, self.scenario.mission.place_pose, at)
        return self.log.append(RunLogEntry(at, rec.Provenance.ACTION, report, note="place"))

    def frame(self, pose: Pose, detections: list[Observation], at: float) -> list[RunLogEntry]:
        """One camera frame at ``pose``: associate ``detections`` with the objects
        the estimate expects in view, confirm, touch what stayed and apply what
        changed."""
        s, graph, index = self.scenario, self.graph, self.frames
        expected = expected_visible(graph, pose, s.camera)
        result = associate(expected, detections, graph, s.epsilon)
        outcome = confirm(self.store, graph, result, index, at, k=s.k, epsilon=s.epsilon)
        entries = []
        if outcome.touched:
            call = rec.PrimitiveCall(op="touch", args={"targets": outcome.touched, "now": float(at)})
            rec.execute(graph, call)
            report = rec.ApplyReport(rec.ApplyStatus.APPLIED, executed=[call])
            entries.append(RunLogEntry(at, rec.Provenance.PERCEPTION, report, index, "observed static"))
        for record in outcome.records:
            report = rec.apply(graph, record, self.decay_table)
            entries.append(RunLogEntry(at, rec.Provenance.PERCEPTION, report, index))
        self.frames += 1
        return self.log.append(*entries)


@dataclass
class ScenarioResult:
    scenario: Scenario
    log: RunLog
    graph: SceneGraph  # the robot's final estimate
    world: World  # ground truth after the run
    ground_truth: list[GroundTruthChange]
    metrics: Metrics
    stale: Optional[StaleReport]  # taken right after the last frame; None without frames


def run_scenario(
    scenario_or_path,
    overrides: Optional[dict] = None,
) -> ScenarioResult:
    """Execute one deterministic pass over a scenario.

    Events run in timestamp order (ties: statements, then the mission's pick
    and place, then camera frames). Before each one the simulated world steps
    to its time. Each event then goes to an :class:`Updater` on a copy of the
    scenario's initial estimate; a frame takes the world's synthetic
    detections. The mission also runs on the truth, as the robot's real
    manipulation. Right after the last frame, the estimate's staleness report
    is taken at that frame's time. The log is scored at the end.
    """
    scenario = (
        scenario_or_path
        if isinstance(scenario_or_path, Scenario)
        else load_scenario(scenario_or_path, overrides)
    )
    if isinstance(scenario_or_path, Scenario) and overrides:
        raise ValueError("overrides require loading from a path")

    world = World(
        scenario.house.copy(), scenario.virtual_actions, decay_table=scenario.decay_table
    )
    robot = Updater(scenario.initial.copy(), scenario.decay_table, scenario)
    mission = scenario.mission
    events = [(at, 1, i, "statement", parse) for i, (at, parse) in enumerate(scenario.human_statements)]
    if mission:
        truth_task = PickPlaceTask(spec=mission.spec)
        events += [(mission.pick_time, 2, 0, "pick", None), (mission.place_time, 3, 0, "place", None)]
    events += [(at, 4, i, "frame", pose) for i, (at, pose) in enumerate(scenario.trajectory)]
    events.sort(key=lambda e: e[:3])

    last_frame, stale = len(scenario.trajectory) - 1, None
    for at, _prio, seq, kind, payload in events:
        world.step(at)
        if kind == "statement":
            robot.statement(payload, at)
        elif kind == "pick":
            if robot.pick(at)[0].report.status is rec.ApplyStatus.APPLIED:
                truth = truth_task.pick(world.graph)
                if truth.status is not rec.ApplyStatus.APPLIED:
                    raise InconsistentAction(f"t={at}: {truth.reason}")
        elif kind == "place":
            if robot.place(at):
                truth_task.place(world.graph, mission.place_pose, at)
        else:
            robot.frame(payload, world.synthetic_detect(payload, scenario.camera, scenario.failures), at)
            if seq == last_frame:
                stale = stale_targets(robot.graph, at, scenario.stale_threshold)

    changes = derive_ground_truth(scenario)
    metrics = score(robot.log, changes)
    return ScenarioResult(scenario, robot.log, robot.graph, world, changes, metrics, stale)
