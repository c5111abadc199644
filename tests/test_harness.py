"""Scenario runner end-to-end, scoring rules, artifact determinism."""
import json
import re

import pytest
from importlib import resources

from sgupdate.graph import graphs_equal, serialize
from sgupdate.harness import (
    GroundTruthChange,
    RunLog,
    RunLogEntry,
    ScenarioError,
    derive_ground_truth,
    format_metrics_table,
    load_scenario,
    replay_runlog,
    run_scenario,
    score,
)
from sgupdate.records import (
    ApplyReport,
    ApplyStatus,
    Provenance,
    UpdateAction,
    UpdateRecord,
)

SCENARIO = resources.files("sgupdate.data").joinpath("scenario_house.json")
DEGRADED = {"failures.min_detectable_extent": 0.16}


@pytest.fixture(scope="module")
def ideal():
    return run_scenario(SCENARIO)


@pytest.fixture(scope="module")
def degraded():
    return run_scenario(SCENARIO, overrides=dict(DEGRADED))


# -- loading / validation ----------------------------------------------------


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "nope.json")


def test_load_scenario_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{", "utf-8")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(p)


def test_load_scenario_rejects_bad_parameters():
    for key, value, names in [
        ("perception.k", 0, "perception.k"),
        ("perception.epsilon", -1.0, "perception.epsilon"),
        ("stale_threshold", 1.5, "stale_threshold"),
        ("house.x", 1, "'house.x'"),
        ("perception", [1], "perception must be an object"),
        ("failures", [1], "failures must be an object"),
        ("perception.range", [1], "perception.range"),
        (
            "virtual_actions",
            [{"at": 1, "action": "jump", "label": "mug", "room": "kitchen"}],
            "virtual_actions[0]: unknown action 'jump'",
        ),
        ("virtual_actions", 5, "virtual_actions must be a list"),
        ("trajectory", [5], "trajectory[0] must be an object"),
        ("human_statements", [{"at": 1}], "human_statements[0]: missing key 'text'"),
        ("mission", [1], "mission must be an object"),
        ("mission.mission", "Dance in the kitchen.", "mission.mission: instruction does not match"),
        ("failures.dropout_ids", 5, "failures.dropout_ids must be a list"),
        ("failures.label_noise", 5, "failures.label_noise must be an object"),
        ("perception.k", 1.5, "perception.k must be an integer"),
    ]:
        with pytest.raises(ScenarioError, match=re.escape(names)):
            load_scenario(SCENARIO, overrides={key: value})


def test_load_scenario_rejects_unknown_action_room():
    with pytest.raises(ScenarioError, match="unknown room"):
        load_scenario(
            SCENARIO,
            overrides={
                "virtual_actions": [
                    {"at": 1, "action": "remove", "label": "towel", "room": "garage"}
                ]
            },
        )


def test_overrides_reach_nested_fields():
    sc = load_scenario(SCENARIO, overrides={"perception.k": 3})
    assert sc.k == 3


def test_load_scenario_ignores_a_seed_key():
    # Generated scenarios still carry the seed they were generated from.
    load_scenario(SCENARIO, overrides={"seed": 99})


def moved_remote_to(t):
    actions = json.loads(SCENARIO.read_text("utf-8"))["virtual_actions"]
    assert actions[1]["label"] == "tv remote"
    actions[1]["to_pose"]["t"] = t
    return {"virtual_actions": actions}


def added_book_at(t):
    actions = json.loads(SCENARIO.read_text("utf-8"))["virtual_actions"]
    assert (actions[2]["label"], actions[2]["room"]) == ("book", "bedroom")
    actions[2]["pose"]["t"] = t
    return {"virtual_actions": actions}


@pytest.mark.parametrize(
    "overrides, where",
    [
        pytest.param(moved_remote_to([50.0, 50.0, 1.0]), r"virtual move at t=5\.0", id="move-nowhere"),
        pytest.param(added_book_at([2.0, 2.0, 0.9]), r"virtual add at t=6\.0", id="add-in-kitchen"),
        pytest.param(
            {"mission.place_pose": {"q": [1, 0, 0, 0], "t": [2.0, 2.0, 0.9]}},
            r"mission\.place_pose",
            id="place-in-kitchen",
        ),
        pytest.param(
            {"mission.place_pose": {"q": [1, 0, 0, 0], "t": [50.0, 50.0, 1.0]}},
            r"mission\.place_pose",
            id="place-nowhere",
        ),
    ],
)
def test_load_scenario_rejects_unreachable_poses(overrides, where):
    with pytest.raises(ScenarioError, match=where):
        load_scenario(SCENARIO, overrides=overrides)


# -- ground truth annotation ---------------------------------------------------


def test_ground_truth_expected_modules():
    sc = load_scenario(SCENARIO)
    gt = derive_ground_truth(sc)
    by_label = {(g.action.value, g.label): g for g in gt}
    assert by_label[("removed", "towel")].expected_module == "Text"
    assert by_label[("removed", "banana")].expected_module == "RGB-D"
    assert by_label[("moved", "cup")].expected_module == "Text"
    assert by_label[("moved", "tv remote")].expected_module == "RGB-D"
    assert by_label[("added", "book")].expected_module == "RGB-D"
    assert by_label[("moved", "mug")].expected_module == "Action"
    assert by_label[("moved", "mug")].target_room == "bedroom"
    assert by_label[("moved", "tv remote")].target_room == "living room"


def test_derive_ground_truth_leaves_the_house_unchanged():
    sc = load_scenario(SCENARIO)
    before = serialize(sc.house)
    derive_ground_truth(sc)
    assert serialize(sc.house) == before


# -- the ideal episode ---------------------------------------------------------


def test_ideal_run_reaches_ground_truth_graph(ideal):
    assert graphs_equal(ideal.graph, ideal.world.graph, ignore_last_seen=True)


def test_ideal_run_scores_perfectly(ideal):
    for name, row in ideal.metrics.rows.items():
        assert row.success_rate == 1.0, name
        assert row.spurious == 0
        assert all(v == 0 for v in row.failures.values())
    assert ideal.metrics.rows["Move"].gt_total == 3
    assert ideal.metrics.rows["Remove"].gt_total == 2
    assert ideal.metrics.rows["Add"].gt_total == 1


def test_ideal_run_log_is_clean(ideal):
    assert ideal.log.parse_failures == []
    assert ideal.log.deferred == []
    statuses = {e.report.status for e in ideal.log.entries}
    assert statuses == {ApplyStatus.APPLIED}
    assert len(ideal.log.stale_reports) == 8  # one staleness sweep per frame


def test_ideal_run_emits_one_geometry_refinement(ideal):
    refinements = [
        e
        for e in ideal.log.applied_entries()
        if e.report.record is not None and e.report.record.refines_geometry
    ]
    assert len(refinements) == 1
    assert refinements[0].report.record.target_object == "cup"


def test_replay_reproduces_final_graph_byte_for_byte(ideal):
    replayed = replay_runlog(ideal.scenario.initial, ideal.log)
    assert serialize(replayed) == serialize(ideal.graph)


def test_runs_are_deterministic():
    a = run_scenario(SCENARIO)
    b = run_scenario(SCENARIO)
    assert serialize(a.graph) == serialize(b.graph)
    assert a.log.to_jsonl() == b.log.to_jsonl()
    assert a.metrics.to_dict() == b.metrics.to_dict()


def test_runlog_jsonl_is_parseable(ideal):
    lines = ideal.log.to_jsonl().splitlines()
    assert len(lines) == len(ideal.log.entries)
    for line in lines:
        entry = json.loads(line)
        assert {"at", "frame", "provenance", "status", "executed"} <= entry.keys()


# -- the degraded episode --------------------------------------------------------


def test_degraded_run_hits_expected_table(degraded):
    rows = degraded.metrics.rows
    assert rows["Add"].success_rate == pytest.approx(1.0)
    assert rows["Remove"].success_rate == pytest.approx(2 / 3)
    assert rows["Move"].success_rate == pytest.approx(2 / 3)
    assert rows["Remove"].failure_rate("RGB-D") == pytest.approx(1 / 3)
    assert rows["Move"].failure_rate("RGB-D") == pytest.approx(1 / 3)
    for row in rows.values():
        assert row.failure_rate("Text") == 0.0
        assert row.failure_rate("Action") == 0.0


def test_degraded_run_counts(degraded):
    rows = degraded.metrics.rows
    assert (rows["Remove"].gt_total, rows["Remove"].spurious, rows["Remove"].success) == (2, 1, 2)
    assert (rows["Move"].gt_total, rows["Move"].spurious, rows["Move"].success) == (3, 0, 2)
    assert (rows["Add"].gt_total, rows["Add"].spurious, rows["Add"].success) == (1, 0, 1)


def test_degraded_run_misreads_the_remote(degraded):
    spurious = [
        e
        for e in degraded.log.applied_entries()
        if e.report.record is not None
        and e.report.record.action is UpdateAction.REMOVED
        and e.report.record.target_object == "tv remote"
    ]
    assert len(spurious) == 1  # the move got misread as a removal
    assert spurious[0].provenance is Provenance.PERCEPTION


def test_degraded_replay_still_exact(degraded):
    replayed = replay_runlog(degraded.scenario.initial, degraded.log)
    assert serialize(replayed) == serialize(degraded.graph)


def test_failed_pick_logs_one_rejection_and_skips_the_place():
    absent = "Pick the sofa in the kitchen and take it to the bedroom."
    result = run_scenario(SCENARIO, overrides={"mission.mission": absent})
    actions = [e for e in result.log.entries if e.provenance is Provenance.ACTION]
    assert [(e.note, e.report.status) for e in actions] == [("pick failed", ApplyStatus.REJECTED)]
    assert actions[0].report.executed == []


# -- scoring rules in isolation --------------------------------------------------


def entry(record, status=ApplyStatus.APPLIED, provenance=None):
    return RunLogEntry(
        at=record.issued_at,
        provenance=provenance or record.provenance,
        report=ApplyReport(status=status, record=record),
    )


def gtc(action, label, source=None, target=None, module="RGB-D"):
    return GroundTruthChange(
        action=action, label=label, source_room=source, target_room=target, expected_module=module
    )


def test_score_counts_spurious_records_in_their_rows_denominator():
    gt = [
        gtc(UpdateAction.REMOVED, "towel", source="bathroom", module="Text"),
        gtc(UpdateAction.REMOVED, "banana", source="kitchen"),
        gtc(UpdateAction.MOVED, "cup", source="kitchen", target="living room", module="Text"),
    ]
    log = RunLog()
    log.append(
        entry(
            UpdateRecord(
                action=UpdateAction.REMOVED,
                target_object="towel",
                source_room="bathroom",
                provenance=Provenance.HUMAN,
                issued_at=1.0,
            )
        )
    )
    # wrong reading: perception claims the cup vanished
    log.append(
        entry(
            UpdateRecord(
                action=UpdateAction.REMOVED,
                target_object="cup",
                source_room="kitchen",
                provenance=Provenance.PERCEPTION,
                issued_at=2.0,
            )
        )
    )
    m = score(log, gt)
    remove = m.rows["Remove"]
    assert (remove.gt_total, remove.spurious, remove.success) == (2, 1, 1)
    assert remove.denominator == 3
    assert remove.failures == {"Text": 0, "RGB-D": 2, "Action": 0}
    assert remove.success_rate == pytest.approx(1 / 3)
    # the unmatched cup move is blamed on the module that misread it
    move = m.rows["Move"]
    assert (move.gt_total, move.success) == (1, 0)
    assert move.failures["RGB-D"] == 1 and move.failures["Text"] == 0


def test_score_silent_miss_blames_expected_module():
    gt = [gtc(UpdateAction.ADDED, "book", target="bedroom", module="RGB-D")]
    m = score(RunLog(), gt)
    assert m.rows["Add"].failures["RGB-D"] == 1
    assert m.rows["Add"].success_rate == 0.0


def test_score_ignores_refinements_time_provenance_and_non_applied():
    gt = [gtc(UpdateAction.MOVED, "cup", source="a", target="a")]
    refine = UpdateRecord(
        action=UpdateAction.MOVED,
        target_object="cup",
        source_room="a",
        target_room="a",
        provenance=Provenance.PERCEPTION,
        refines_geometry=True,
    )
    rejected = UpdateRecord(
        action=UpdateAction.MOVED, target_object="cup", source_room="a", target_room="a"
    )
    log = RunLog()
    log.append(entry(refine))
    log.append(entry(rejected, status=ApplyStatus.REJECTED))
    m = score(log, gt)
    # none of those records count as answers, so the change was missed
    assert m.rows["Move"].success == 0
    assert m.rows["Move"].spurious == 0
    assert m.rows["Move"].failures["RGB-D"] == 1


def test_score_invariant_success_plus_failures_equals_denominator(degraded):
    for row in degraded.metrics.rows.values():
        assert row.success + sum(row.failures.values()) == row.denominator


def test_metrics_table_rendering(degraded):
    text = format_metrics_table(degraded.metrics)
    assert "Add" in text and "100.00%" in text
    assert text.count("66.67%") == 2
    assert text.count("33.33%") == 2
    lines = text.splitlines()
    assert lines[0].split() == ["Update", "Type", "Success", "Rate", "Text", "RGB-D", "Action"]
    assert [line.split()[0] for line in lines[1:]] == ["Add", "Remove", "Move"]
