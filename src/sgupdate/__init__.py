"""sgupdate: keep a two-layer 3D scene graph in sync with a changing home.

The package maintains a rooms-and-objects scene graph and updates it from
four input streams — natural-language statements, camera detections, the
robot's own manipulation actions, and the passage of time — all funneled
through one shared update-record vocabulary with a replayable audit trail.
"""
from __future__ import annotations

from .geometry import BBox3, InvalidGeometry, Pose, pose_distance
from .graph import (
    AlreadyAttached,
    AlreadyDetached,
    DuplicateRoomLabel,
    NoContainingRoom,
    ObjectNode,
    ParseError,
    RoomNode,
    SceneGraph,
    SceneGraphError,
    UnknownObject,
    UnknownRoom,
    WrongRoom,
    check_invariants,
    deserialize,
    graph_from_payload,
    graph_to_payload,
    graphs_equal,
    graphs_equivalent,
    serialize,
)
from .decay import (
    ClockSkew,
    DecayTable,
    StaleEntry,
    StaleReport,
    half_probability_time,
    lambda_for,
    persistence_probability,
    stale_targets,
)
from .records import (
    AmbiguousTarget,
    ApplyReport,
    ApplyStatus,
    PrimitiveCall,
    Provenance,
    ReplayMismatch,
    ResolutionError,
    TargetNotFound,
    UpdateAction,
    UpdateRecord,
    apply,
    execute,
    replay,
    resolve_target,
)
from .human import (
    Confidence,
    GrammarExtractor,
    Lexicon,
    ParseWasFailed,
    StatementParse,
    parse_statement,
    to_record,
)
from .action import (
    IllegalPhase,
    Phase,
    PickPlaceTask,
    RoomMismatch,
    TaskSpec,
    UnparsableTask,
    parse_task,
)
from .perception import (
    AssociationResult,
    CameraModel,
    ConfirmationStore,
    ConfirmOutcome,
    Observation,
    associate,
    confirm,
    expected_visible,
    point_in_frustum,
    semantic_match,
)
from .simworld import (
    DetectorFailureConfig,
    InconsistentAction,
    World,
    load_house,
)
from .harness import (
    GroundTruthChange,
    Metrics,
    RunLog,
    RunLogEntry,
    Scenario,
    ScenarioError,
    ScenarioResult,
    Updater,
    format_metrics_table,
    load_scenario,
    replay_runlog,
    run_scenario,
    score,
)

__version__ = "0.1.0"
