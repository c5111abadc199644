"""Scenario runner: replays a scripted episode and scores the outcome.

A scenario file wires everything together: the house, the scripted world
changes, human statements, one optional pick-and-place mission, a robot
trajectory, detector parameters and failure injection. Running it produces
an append-only :class:`RunLog` whose applied records (and raw primitive
calls) fully determine the final graph — replaying the log against the
initial graph reproduces it byte for byte.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import records as rec
from .action import PickPlaceTask, TaskSpec, UnparsableTask, parse_task
from .decay import DecayTable, StaleReport, stale_targets
from .geometry import BBox3, Pose
from .graph import NoContainingRoom, SceneGraph, deserialize
from .human import GrammarExtractor, Lexicon, to_record, Confidence
from .perception import (
    CameraModel,
    ConfirmationStore,
    associate,
    confirm,
    expected_visible,
)
from .simworld import DetectorFailureConfig, InconsistentAction, World

__all__ = [
    "ScenarioError",
    "Scenario",
    "load_scenario",
    "RunLogEntry",
    "RunLog",
    "GroundTruthChange",
    "ScenarioResult",
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

    path: Optional[Path]
    house: SceneGraph
    initial: SceneGraph
    decay_table: DecayTable
    lexicon: Lexicon
    virtual_actions: list[rec.UpdateRecord]  # the script, in file order
    human_statements: list[tuple[float, str]]
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
            cursor = cursor.setdefault(part, {})
            if not isinstance(cursor, dict):
                raise ValueError(f"override {key!r}: {part!r} is not an object")
        cursor[leaf] = value
    return data


def _section(data: dict, key: str) -> dict:
    """The object stored under ``key`` (empty when absent)."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object, got {value!r}")
    return value


def _entries(data: dict, key: str, read) -> list:
    """``read`` applied to each object in the list under ``key``; errors name the entry."""
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    out = []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ValueError(f"{key}[{i}] must be an object, got {entry!r}")
        try:
            out.append(read(entry))
        except (KeyError, TypeError, ValueError) as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{key}[{i}]: {what}") from exc
    return out


def _scripted_record(house: SceneGraph, entry: dict) -> rec.UpdateRecord:
    """One ``virtual_actions`` entry as the update record the world applies.

    A move's target room is the room holding its ``to_pose``, None outside
    every room; rooms never change after load, so this is the room the
    move lands in when applied.
    """
    at, kind, label = float(entry["at"]), entry["action"], entry["label"]
    if kind == "remove":
        return rec.UpdateRecord(
            rec.UpdateAction.REMOVED, label, source_room=entry["room"], issued_at=at
        )
    if kind == "move":
        pose = Pose.from_dict(entry["to_pose"])
        return rec.UpdateRecord(
            rec.UpdateAction.MOVED,
            label,
            source_room=entry["from_room"],
            target_room=_landing_room(house, pose),
            pose=pose,
            issued_at=at,
        )
    if kind == "add":
        return rec.UpdateRecord(
            rec.UpdateAction.ADDED,
            label,
            target_room=entry["room"],
            pose=Pose.from_dict(entry["pose"]),
            bbox=BBox3(tuple(entry["bbox"])),
            issued_at=at,
        )
    raise ValueError(f"unknown action {kind!r}")


def load_scenario(path, overrides: Optional[dict] = None) -> Scenario:
    """Load and validate a scenario file. Raises :class:`ScenarioError`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text("utf-8"))
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at offset {exc.pos}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: a scenario must be a JSON object")
    base = path.parent

    def sibling(name: str) -> Path:
        p = Path(name)
        return p if p.is_absolute() else base / p

    try:
        data = _apply_overrides(data, overrides)
        house = deserialize(sibling(data["house"]).read_text("utf-8"))
        initial_ref = data.get("initial_graph", "from_house")
        initial = house if initial_ref == "from_house" else deserialize(
            sibling(initial_ref).read_text("utf-8")
        )
        table_ref = data.get("decay_table")
        decay_table = DecayTable.load(sibling(table_ref)) if table_ref else DecayTable.default()
        lex_ref = data.get("lexicon")
        lexicon = Lexicon.load(sibling(lex_ref)) if lex_ref else Lexicon.default()
        script = _entries(data, "virtual_actions", lambda e: _scripted_record(house, e))
        statements = _entries(data, "human_statements", lambda s: (float(s["at"]), str(s["text"])))
        mission = None
        if data.get("mission"):
            m = _section(data, "mission")
            try:
                spec = parse_task(str(m["mission"]))
            except UnparsableTask as exc:
                raise ValueError(f"mission.mission: {exc}") from exc
            mission = Mission(
                spec=spec,
                pick_time=float(m["pick_time"]),
                place_time=float(m["place_time"]),
                place_pose=Pose.from_dict(m["place_pose"]),
            )
        trajectory = _entries(data, "trajectory", lambda w: (float(w["at"]), Pose.from_dict(w["pose"])))
        pcfg = _section(data, "perception")
        rng = pcfg.get("range", [0.2, 4.0])
        if not isinstance(rng, (list, tuple)) or len(rng) != 2:
            raise ValueError(f"perception.range must be [min, max], got {rng!r}")
        camera = CameraModel(
            fov_h=float(pcfg.get("fov_h", 2.2)),
            fov_v=float(pcfg.get("fov_v", 1.7)),
            min_range=float(rng[0]),
            max_range=float(rng[1]),
        )
        epsilon = float(pcfg.get("epsilon", 0.25))
        k = pcfg.get("k", 2)
        if type(k) is not int:
            raise ValueError(f"perception.k must be an integer, got {k!r}")
        failures = DetectorFailureConfig.from_dict(_section(data, "failures"))
        scenario = Scenario(
            path=path,
            house=house,
            initial=initial,
            decay_table=decay_table,
            lexicon=lexicon,
            virtual_actions=script,
            human_statements=statements,
            mission=mission,
            trajectory=trajectory,
            camera=camera,
            epsilon=epsilon,
            k=k,
            failures=failures,
            stale_threshold=float(data.get("stale_threshold", 0.5)),
        )
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError(f"{path}: " + "; ".join(problems))
    return scenario


def _landing_room(house: SceneGraph, pose: Pose) -> Optional[str]:
    """Label of the room whose box holds ``pose``, None outside every room."""
    try:
        return house.rooms[house.assign_room(pose)].label
    except NoContainingRoom:
        return None


def validate_scenario(scenario: Scenario) -> list[str]:
    """Static consistency checks, empty when the scenario is runnable."""
    problems = []
    if scenario.k < 1:
        problems.append("perception.k must be >= 1")
    if scenario.epsilon <= 0:
        problems.append("perception.epsilon must be positive")
    if not (0.0 < scenario.stale_threshold < 1.0):
        problems.append("stale_threshold must lie strictly between 0 and 1")
    times = [t for t, _ in scenario.trajectory]
    if times != sorted(times):
        problems.append("trajectory timestamps must be non-decreasing")
    house = scenario.house
    room_labels = {r.label for r in house.rooms.values()}
    for record in scenario.virtual_actions:
        at, added = record.issued_at, record.action is rec.UpdateAction.ADDED
        room = record.target_room if added else record.source_room  # the room the file names
        if room not in room_labels:
            problems.append(f"virtual action at t={at} names unknown room {room!r}")
        if record.action is rec.UpdateAction.MOVED and record.target_room is None:
            problems.append(
                f"virtual move at t={at}: to_pose {record.pose.t} is outside every room"
            )
        if added and _landing_room(house, record.pose) != room:
            problems.append(
                f"virtual add at t={at}: pose {record.pose.t} does not land in room {room!r}"
            )
    if scenario.mission:
        spec = scenario.mission.spec
        if spec.source_room not in room_labels or spec.target_room not in room_labels:
            problems.append("mission names a room absent from the house")
        else:
            place = scenario.mission.place_pose
            if _landing_room(house, place) != spec.target_room:
                problems.append(
                    f"mission.place_pose {place.t} does not land in the target room"
                    f" {spec.target_room!r}"
                )
        if scenario.mission.pick_time >= scenario.mission.place_time:
            problems.append("mission pick_time must precede place_time")
    return problems


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
    stale_reports: list[StaleReport] = field(default_factory=list)  # one per frame

    def append(self, entry: RunLogEntry) -> None:
        self.entries.append(entry)

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
    extractor = GrammarExtractor(scenario.lexicon)
    statements = [extractor(text) for _, text in scenario.human_statements]

    def stated(action: rec.UpdateAction, label: str, room: Optional[str]) -> bool:
        for parse in statements:
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


@dataclass
class ScenarioResult:
    scenario: Scenario
    log: RunLog
    graph: SceneGraph  # the robot's final estimate
    world: World  # ground truth after the run
    ground_truth: list[GroundTruthChange]
    metrics: Metrics


def run_scenario(
    scenario_or_path,
    overrides: Optional[dict] = None,
) -> ScenarioResult:
    """Execute one deterministic pass over a scenario.

    Events are processed in timestamp order (ties: world changes, then
    statements, then mission steps, then camera frames). Each camera frame
    runs detect → associate → confirm → apply and consults the staleness
    report for logging.
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
    graph = scenario.initial.copy()
    log = RunLog()
    store = ConfirmationStore()
    extract = GrammarExtractor(scenario.lexicon)

    # The mission runs on the estimate and, as the robot's real manipulation, on the truth.
    task: Optional[PickPlaceTask] = None
    truth_task: Optional[PickPlaceTask] = None
    if scenario.mission:
        spec = scenario.mission.spec
        task, truth_task = PickPlaceTask(spec=spec), PickPlaceTask(spec=spec)

    events: list[tuple[float, int, int, str, object]] = []
    for i, (at, text) in enumerate(scenario.human_statements):
        events.append((at, 1, i, "statement", text))
    if scenario.mission:
        events.append((scenario.mission.pick_time, 2, 0, "pick", None))
        events.append((scenario.mission.place_time, 3, 0, "place", None))
    for i, (at, pose) in enumerate(scenario.trajectory):
        events.append((at, 4, i, "frame", pose))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    frame_idx = 0
    for at, _prio, _seq, kind, payload in events:
        world.step(at)

        if kind == "statement":
            parse = extract(payload)
            if parse.confidence is Confidence.FAILED:
                log.parse_failures.append({"at": at, "text": payload})
                continue
            record = to_record(parse, now=at)
            report = rec.apply(graph, record, scenario.decay_table)
            log.append(RunLogEntry(at=at, provenance=rec.Provenance.HUMAN, report=report))

        elif kind == "pick":
            report = task.pick(graph)
            if report.status is not rec.ApplyStatus.APPLIED:  # mission aborts, run continues
                log.append(RunLogEntry(at, rec.Provenance.ACTION, report, note="pick failed"))
                task = None
                continue
            truth = truth_task.pick(world.graph)
            if truth.status is not rec.ApplyStatus.APPLIED:
                raise InconsistentAction(f"t={at}: {truth.reason}")
            log.append(RunLogEntry(at, rec.Provenance.ACTION, report, note="pick"))

        elif kind == "place":
            if task is None:
                continue
            report = task.place(graph, scenario.mission.place_pose, at)
            truth_task.place(world.graph, scenario.mission.place_pose, at)
            log.append(RunLogEntry(at, rec.Provenance.ACTION, report, note="place"))

        elif kind == "frame":
            pose: Pose = payload
            detections = world.synthetic_detect(pose, scenario.camera, scenario.failures)
            expected = expected_visible(graph, pose, scenario.camera)
            result = associate(expected, detections, graph, scenario.epsilon)
            outcome = confirm(
                store, graph, result, frame_idx, at, k=scenario.k, epsilon=scenario.epsilon
            )
            if outcome.touched:
                for call in outcome.touched:
                    rec.execute(graph, call)
                log.append(
                    RunLogEntry(
                        at=at,
                        frame=frame_idx,
                        provenance=rec.Provenance.PERCEPTION,
                        report=rec.ApplyReport(
                            status=rec.ApplyStatus.APPLIED, executed=outcome.touched
                        ),
                        note="observed static",
                    )
                )
            for record in outcome.records:
                report = rec.apply(graph, record, scenario.decay_table)
                log.append(
                    RunLogEntry(
                        at=at, frame=frame_idx, provenance=rec.Provenance.PERCEPTION, report=report
                    )
                )
            log.stale_reports.append(stale_targets(graph, at, scenario.stale_threshold))
            frame_idx += 1

    ground_truth = derive_ground_truth(scenario)
    metrics = score(log, ground_truth)
    return ScenarioResult(
        scenario=scenario,
        log=log,
        graph=graph,
        world=world,
        ground_truth=ground_truth,
        metrics=metrics,
    )
