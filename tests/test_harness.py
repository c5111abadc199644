"""Scenario runner end-to-end, scoring rules, artifact determinism."""
import hashlib
import json
import math
import re

import pytest
from importlib import resources

from sgupdate import harness
from sgupdate.cli import main
from sgupdate.decay import stale_targets
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
from sgupdate.perception import associate, confirm
from sgupdate.records import (
    ApplyReport,
    ApplyStatus,
    Provenance,
    UpdateAction,
    UpdateRecord,
)

from conftest import all_pairs_associate, by_index, packaged_house_rows, stale_sweep

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
        ("perception.fov_h", "abc", "perception.fov_h must be a number"),
        ("stale_threshold", "abc", "stale_threshold must be a number"),
        ("mission.pick_time", "abc", "mission.pick_time must be a number"),
        ("failures.min_detectable_extent", [1], "failures.min_detectable_extent must be a number"),
        ("house", 5, "house must be a string, got 5"),
    ]:
        with pytest.raises(ScenarioError, match=re.escape(names)):
            load_scenario(SCENARIO, overrides={key: value})


def entries_at(key, i, at):
    """The packaged scenario's ``key`` list with entry ``i`` at time ``at``."""
    entries = json.loads(SCENARIO.read_text("utf-8"))[key]
    entries[i]["at"] = at
    return entries


NON_FINITE = [
    ("perception.epsilon", math.nan, "perception.epsilon must be finite"),
    ("perception.range", [0.2, math.inf], "perception.range[1] must be finite, got inf"),
    ("mission.pick_time", math.nan, "mission.pick_time must be finite"),
    ("mission.place_time", math.inf, "mission.place_time must be finite"),
    ("failures.min_detectable_extent", math.nan, "failures.min_detectable_extent must be finite"),
    ("virtual_actions", entries_at("virtual_actions", 0, math.nan), "virtual_actions[0]: at must be finite"),
    ("human_statements", entries_at("human_statements", 1, math.inf), "human_statements[1]: at must be finite"),
    ("trajectory", entries_at("trajectory", 1, -math.inf), "trajectory[1]: at must be finite"),
]


@pytest.mark.parametrize("key, value, names", NON_FINITE, ids=[key for key, _, _ in NON_FINITE])
def test_load_scenario_rejects_non_finite_numbers(key, value, names):
    with pytest.raises(ScenarioError, match=re.escape(names)):
        load_scenario(SCENARIO, overrides={key: value})


@pytest.mark.parametrize("key", ["house", "initial_graph"])
def test_load_scenario_names_the_graph_file_that_does_not_parse(key, tmp_path):
    house = json.loads(resources.files("sgupdate.data").joinpath("house.json").read_text("utf-8"))
    house["epoch"] = math.nan
    bad = tmp_path / "house.json"
    bad.write_text(json.dumps(house), "utf-8")
    with pytest.raises(ScenarioError, match=re.escape(f"{key}: epoch must be finite, got nan")):
        load_scenario(SCENARIO, overrides={key: str(bad)})


def scripted(i, **fields):
    """The packaged scenario's ``virtual_actions`` with ``fields`` set on entry ``i``."""
    entries = json.loads(SCENARIO.read_text("utf-8"))["virtual_actions"]
    entries[i].update(fields)
    return entries


def frames(i, **fields):
    """The packaged scenario's ``trajectory`` with ``fields`` set on frame ``i``."""
    entries = json.loads(SCENARIO.read_text("utf-8"))["trajectory"]
    entries[i].update(fields)
    return entries


BIG = 10**400  # valid JSON, too large for a float


@pytest.mark.parametrize(
    "key, value, names",
    [
        pytest.param(
            "virtual_actions", scripted(0, room=[1, 2]),
            "virtual_actions[0]: room must be a string, got [1, 2]", id="list-room",
        ),
        pytest.param(
            "virtual_actions", scripted(0, label=-1),
            "virtual_actions[0]: label must be a string, got -1", id="number-label",
        ),
        pytest.param("stale_threshold", BIG, "stale_threshold must be finite", id="big-threshold"),
        pytest.param(
            "virtual_actions", scripted(1, to_pose={"q": [1, 0, 0, 0], "t": [BIG, 0, 0]}),
            "virtual_actions[1]: translation[0] must be finite, got 1000", id="big-pose",
        ),
        pytest.param(
            "trajectory", entries_at("trajectory", 0, -1),
            "trajectory[0]: at -1.0 precedes the last_seen 0.0 of an object in house",
            id="frame-before-house",
        ),
        pytest.param(
            "trajectory", entries_at("trajectory", 1, 14),
            "trajectory[1]: at 14.0 precedes the frame before it, at 15.0", id="frames-out-of-order",
        ),
        pytest.param(
            "virtual_actions", scripted(0, label=""),
            "virtual_actions[0]: validation: MissingTargetObject", id="blank-label",
        ),
        pytest.param(
            "virtual_actions", entries_at("virtual_actions", 0, True),
            "virtual_actions[0]: at must be a number, got True", id="bool-at",
        ),
        pytest.param(
            "human_statements", entries_at("human_statements", 0, "4"),
            "human_statements[0]: at must be a number, got '4'", id="numeral-at",
        ),
        pytest.param(
            "virtual_actions", scripted(1, to_pose={"q": [1, 0, 0, 0], "t": "123"}),
            "virtual_actions[1]: translation must be a list of 3 numbers, got '123'", id="numeral-pose",
        ),
        pytest.param(
            "virtual_actions", scripted(2, bbox="111"),
            "virtual_actions[2]: bbox must be a list of 3 numbers, got '111'", id="numeral-bbox",
        ),
        *(
            pytest.param(
                key, value, f"{names} must be an object, got {bad!r}", id=f"{key}-{type(bad).__name__}"
            )
            for bad in (5, [1], "x")
            for key, value, names in [
                ("virtual_actions", scripted(1, to_pose=bad), "virtual_actions[1]: to_pose"),
                ("trajectory", frames(0, pose=bad), "trajectory[0]: pose"),
                ("mission.place_pose", bad, "mission.place_pose: pose"),
            ]
        ),
    ],
)
def test_load_scenario_names_the_entry_of_a_bad_value(key, value, names):
    with pytest.raises(ScenarioError, match=re.escape(names)):
        load_scenario(SCENARIO, overrides={key: value})


def test_a_frame_before_an_initial_graph_observation_names_that_graph(tmp_path):
    house = packaged_house_rows()
    banana = next(o for o in house["objects"] if o["label"] == "banana")
    banana["last_seen"] = 15.5
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps(house), "utf-8")
    names = "trajectory[0]: at 15.0 precedes the last_seen 15.5 of an object in initial_graph"
    with pytest.raises(ScenarioError, match=re.escape(names)):
        load_scenario(SCENARIO, overrides={"initial_graph": str(initial)})


BAD_FILES = [
    # (id, key, file text, expected message)
    ("nan-default", "decay_table", '{"default": NaN}', "decay_table: default must be finite, got nan"),
    ("negative-default", "decay_table", '{"default": -1}', "decay_table: default must be >= 0, got -1"),
    (
        "infinite-anchor",
        "decay_table",
        '{"default": 1, "anchors": {"cup": Infinity}}',
        "decay_table: anchors['cup'] must be finite, got inf",
    ),
    (
        "text-anchors",
        "decay_table",
        '{"default": 1, "anchors": "abc"}',
        "decay_table: anchors must be an object, got 'abc'",
    ),
    ("no-default", "decay_table", '{"anchors": {}}', "decay_table: default must be a number, got None"),
    (
        "repeated-anchor",
        "decay_table",
        '{"default": 1, "anchors": {"Mug": 1.0, "mug": 2.0}}',
        "decay_table: anchors['mug'] repeats the label 'mug'",
    ),
    (
        "blank-anchor",
        "decay_table",
        '{"default": 1, "anchors": {"  ": 1.0}}',
        "decay_table: anchors['  '] must not be blank",
    ),
    ("table-not-json", "decay_table", "{", "decay_table: Expecting property name"),
    ("lexicon-list", "lexicon", "[1, 2]", "lexicon: a lexicon must be an object, got [1, 2]"),
    (
        "text-rooms",
        "lexicon",
        '{"rooms": "kitchen"}',
        "lexicon: rooms must be a list of strings, got 'kitchen'",
    ),
    ("number-word", "lexicon", '{"objects": ["cup", 5]}', "lexicon: objects[1] must be a string, got 5"),
    ("lexicon-not-json", "lexicon", "[", "lexicon: Expecting value"),
]


@pytest.mark.parametrize("key, text, names", [f[1:] for f in BAD_FILES], ids=[f[0] for f in BAD_FILES])
def test_load_scenario_names_a_bad_decay_table_or_lexicon(key, text, names, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(text, "utf-8")
    with pytest.raises(ScenarioError, match=re.escape(names)):
        load_scenario(SCENARIO, overrides={key: str(bad)})


@pytest.mark.parametrize("key", ["decay_table", "lexicon"])
def test_load_scenario_names_a_missing_decay_table_or_lexicon(key, tmp_path):
    with pytest.raises(ScenarioError, match=f"{key}: .*No such file"):
        load_scenario(SCENARIO, overrides={key: str(tmp_path / "missing.json")})


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


def test_a_title_cased_script_scores_like_the_original(ideal):
    """A scripted change's label is read as normalized, like every other label,
    so "Banana" and "Tv Remote" name the objects the records name."""
    script = json.loads(SCENARIO.read_text("utf-8"))["virtual_actions"]
    titled = [{**action, "label": action["label"].title()} for action in script]
    assert [a["label"] for a in titled[:2]] == ["Banana", "Tv Remote"]
    result = run_scenario(SCENARIO, {"virtual_actions": titled})
    assert result.ground_truth == ideal.ground_truth
    assert result.metrics.to_dict() == ideal.metrics.to_dict()
    assert serialize(result.graph) == serialize(ideal.graph)


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
    # The one staleness report, taken after the last frame: no event comes later.
    last_frame = ideal.scenario.trajectory[-1][0]
    assert all(e.at <= last_frame for e in ideal.log.entries)
    want = stale_sweep(ideal.graph, last_frame, ideal.scenario.stale_threshold)
    assert ideal.stale == want and repr(ideal.stale) == repr(want)


@pytest.mark.parametrize(
    "overrides",
    [None, DEGRADED, {"stale_threshold": 0.9999}, {**DEGRADED, "stale_threshold": 0.9999}],
    ids=["ideal", "degraded", "ideal-0.9999", "degraded-0.9999"],
)
def test_every_frames_stale_report_is_the_sweeps(overrides, monkeypatch):
    """A run takes one staleness report, right after its last frame, and it is
    the sweep's. At the default threshold it names no object; at 0.9999 it
    names the objects no frame touched since the house was mapped."""
    confirmed, calls = [], []

    def counted(*args, **kwargs):
        confirmed.append(args[3])  # the frame index
        return confirm(*args, **kwargs)

    def checked(graph, now, threshold):
        report = stale_targets(graph, now, threshold)
        calls.append((list(confirmed), now, threshold, report, stale_sweep(graph, now, threshold)))
        return report

    monkeypatch.setattr(harness, "confirm", counted)
    monkeypatch.setattr(harness, "stale_targets", checked)
    result = run_scenario(SCENARIO, overrides)
    [(frames, now, threshold, got, want)] = calls
    assert frames == list(range(8)) and now == result.scenario.trajectory[-1][0] == 35.0
    assert threshold == result.scenario.stale_threshold
    assert got is result.stale and got == want and repr(got) == repr(want)
    assert (len(got.entries) > 0) == (threshold == 0.9999)


def test_a_run_without_frames_takes_no_staleness_report(monkeypatch):
    monkeypatch.setattr(harness, "stale_targets", None)  # a call would raise
    result = run_scenario(SCENARIO, {"trajectory": []})
    assert result.stale is None and result.log.entries


@pytest.mark.parametrize("overrides", [None, DEGRADED], ids=["ideal", "degraded"])
def test_every_frames_association_is_the_all_pairs_greedy(overrides, monkeypatch):
    frames = []

    def checked(expected_ids, observed, graph, epsilon):
        result = associate(expected_ids, observed, graph, epsilon)
        want = all_pairs_associate(expected_ids, observed, graph, epsilon)
        frames.append((by_index(result, observed), by_index(want, observed)))
        return result

    monkeypatch.setattr(harness, "associate", checked)
    run_scenario(SCENARIO, overrides)
    assert len(frames) == 8
    assert [got for got, _ in frames] == [want for _, want in frames]


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


# sha256 of the packaged episode's artifacts as `sgupdate run --out` writes them:
# the run log, the final graph and the metrics. A refactor of the event loop
# leaves every one of these bytes as it is.
GOLDEN = {
    "ideal": (
        "3458a29d29bf38ce5e38a6a19223380dcc8bbcddecf53752618a7ff03c075684",
        "345a4aab917fac4463cfc8f432df156f9d3f1f46e9ccf4457e1e7bea59bf7a9e",
        "f8e591c6a5ce60bc76fb66d1c3e10efa393911d3468d6a8a68df8556baafc2d3",
    ),
    "degraded": (
        "7ae8cae596b5170276d65235036bd2be51e219ff623714fe59916ff45d19f092",
        "3df0bd075c31891caff4b8478b971dfc32c12ae75faf6e4a56f8416fae2bcda3",
        "a74ac562876c8e6f66ca8b249c3e41dd3b685c24d621895e8e801ec319d72997",
    ),
}


@pytest.mark.parametrize(
    "name, flags",
    [("ideal", []), ("degraded", ["--set", "failures.min_detectable_extent=0.16"])],
)
def test_run_artifacts_keep_their_recorded_digests(name, flags, tmp_path, capsys):
    assert main(["run", str(SCENARIO), "--out", str(tmp_path), *flags]) == 0
    files = ("runlog.jsonl", "final_graph.json", "metrics.json")
    assert tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in files) == GOLDEN[name]


@pytest.mark.parametrize("overrides", [{}, DEGRADED], ids=["ideal", "degraded"])
def test_each_observed_static_entry_is_one_touch_of_its_frames_static_pairs(overrides, monkeypatch):
    static = []  # per frame, the ids association found where the graph has them

    def recording(*args, **kwargs):
        result = associate(*args, **kwargs)
        static.append(sorted(oid for oid, _ in result.static_pairs))
        return result

    monkeypatch.setattr(harness, "associate", recording)
    result = run_scenario(SCENARIO, overrides=dict(overrides))
    entries = [e for e in result.log.entries if e.note == "observed static"]
    assert [e.frame for e in entries] == [frame for frame, ids in enumerate(static) if ids]
    for entry in entries:
        [call] = entry.report.executed
        targets = call.args["targets"]
        assert call.op == "touch" and call.args["now"] == entry.at
        assert targets == sorted(set(targets)) == static[entry.frame]


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


def test_label_noise_keys_are_read_as_labels():
    metrics = [
        run_scenario(SCENARIO, overrides={"failures.label_noise": {key: "cup"}}).metrics
        for key in ("Mug", " mug ", "mug")
    ]
    assert metrics[0].to_dict() == metrics[1].to_dict() == metrics[2].to_dict()
    rates = [metrics[0].rows[row].success_rate for row in ("Add", "Remove", "Move")]
    assert rates == pytest.approx([1 / 2, 2 / 3, 2 / 3])  # the mug, seen as a cup, is misread


@pytest.mark.parametrize(
    "key, value, names",
    [
        ("failures.label_noise", {"mug": "cup", "mugg": "cup"}, "failures.label_noise['mugg'] names no label"),
        ("failures.label_noise", {"towels": "cup"}, "failures.label_noise['towels'] names no label"),
        ("failures.dropout_ids", ["mug-7"], "failures.dropout_ids[0] names no object"),
        ("failures.dropout_ids", ["mug-1", "mug"], "failures.dropout_ids[1] names no object"),
        ("failures.dropout_ids", ["book-2", "book-0"], "failures.dropout_ids[1] names no object"),
        ("failures.dropout_ids", ["book-x"], "failures.dropout_ids[0] names no object"),
        ("failures.label_noise", {"Mug": "cup", "mug": "plate"}, "failures.label_noise['mug'] repeats the label 'mug'"),
        ("failures.label_noise", {"sofa": "  "}, "failures.label_noise['sofa'] must not be blank, got '  '"),
    ],
)
def test_failure_knobs_that_name_nothing_are_refused(key, value, names):
    with pytest.raises(ScenarioError, match=re.escape(names)):
        load_scenario(SCENARIO, overrides={key: value})


def test_failure_knobs_may_name_what_a_scripted_add_brings():
    # The house holds no book; the script adds one, which the truth files as book-1.
    overrides = {"failures.label_noise": {" Book": "cup"}, "failures.dropout_ids": ["book-1", "book-12"]}
    failures = load_scenario(SCENARIO, overrides=overrides).failures
    assert failures.label_noise == {"book": "cup"}
    assert failures.dropout_ids == {"book-1", "book-12"}


def test_dropping_out_a_house_object_degrades_the_run():
    metrics = run_scenario(SCENARIO, overrides={"failures.dropout_ids": ["mug-1"]}).metrics
    rates = [metrics.rows[row].success_rate for row in ("Add", "Remove", "Move")]
    assert rates == pytest.approx([1, 2 / 3, 2 / 3])


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
