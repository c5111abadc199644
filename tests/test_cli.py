"""Command-line interface, both in-process and as an installed entry point."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from importlib import resources

import sgupdate
from sgupdate import cli
from sgupdate.cli import main
from sgupdate.decay import DecayTable
from sgupdate.graph import SceneGraph, deserialize, serialize
from sgupdate.harness import Updater, replay_runlog
from sgupdate.human import GrammarExtractor
from sgupdate.records import ApplyStatus
from sgupdate.simworld import load_house

from conftest import make_room, packaged_house_rows, put, stale_sweep

SCENARIO = str(resources.files("sgupdate.data").joinpath("scenario_house.json"))


@pytest.fixture
def house_file(tmp_path):
    p = tmp_path / "house.json"
    p.write_bytes(serialize(load_house()))
    return str(p)


def test_run_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["run", SCENARIO, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "100.00%" in stdout
    assert (out / "runlog.jsonl").exists()
    assert (out / "metrics.txt").read_text("utf-8") in stdout
    metrics = json.loads((out / "metrics.json").read_text("utf-8"))
    assert list(metrics) == ["rows"]
    assert metrics["rows"]["Move"]["success_rate"] == 1.0
    deserialize((out / "final_graph.json").read_bytes())  # parses back


@pytest.mark.parametrize("below", ["", "sub"], ids=["out-is-a-file", "out-under-a-file"])
def test_run_out_that_cannot_be_a_directory_exits_2(below, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory", "utf-8")
    out = blocker / below if below else blocker
    assert main(["run", SCENARIO, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {out}: ") and "Traceback" not in captured.err
    assert captured.out == ""  # fails before the episode: no scoreboard
    assert blocker.read_text("utf-8") == "not a directory"


@pytest.mark.parametrize(
    "setting, key",
    [
        ("perception.epsilon=NaN", "perception.epsilon"),
        ("mission.place_time=Infinity", "mission.place_time"),
    ],
)
def test_run_rejects_a_non_finite_setting(setting, key, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", SCENARIO, "--set", setting, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"{key} must be finite" in captured.err and captured.out == ""
    assert not out.exists()


def test_run_rejects_a_frame_before_the_last_observation(tmp_path, capsys):
    frames = json.loads(Path(SCENARIO).read_text("utf-8"))["trajectory"]
    frames[0]["at"] = -1
    out = tmp_path / "out"
    assert main(["run", SCENARIO, "--set", f"trajectory={json.dumps(frames)}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "trajectory[0]: at -1.0 precedes the last_seen 0.0" in captured.err and captured.out == ""
    assert not out.exists()


def test_run_rejects_a_400_digit_setting(capsys):
    assert main(["run", SCENARIO, "--set", "stale_threshold=1" + "0" * 400]) == 2
    assert "stale_threshold must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, where",
    [
        (("epoch",), "epoch must be finite, got 1000"),
        (("objects", 0, "pose", "t", 0), "objects[0]: "),
        (("objects", 0, "decay_rate"), "objects[0]: "),
        (("objects", "t", 0), "objects.t[0] (object 'alarm-clock-1'): translation[0] must be finite"),
        (("objects", "decay_rate", 1), "objects.decay_rate[1] (object 'banana-1'): decay_rate must be finite"),
    ],
    ids=["epoch", "pose", "decay-rate", "column-t", "column-decay-rate"],
)
def test_a_400_digit_graph_number_exits_2(path, where, tmp_path, capsys):
    # A path through an entry index edits the row document, any other the column document.
    rows = len(path) > 1 and isinstance(path[1], int)
    payload = packaged_house_rows() if rows else json.loads(serialize(load_house()))
    *parents, last = path
    target = payload
    for key in parents:
        target = target[key]
    target[last] = 10**400  # valid JSON, too large for a float
    bad = tmp_path / "house.json"
    bad.write_text(json.dumps(payload), "utf-8")
    with pytest.raises(SystemExit) as err:
        main(["query", str(bad)])
    assert err.value.code == 2 and where in capsys.readouterr().err
    assert main(["run", SCENARIO, "--set", f"house={bad}"]) == 2
    assert f"house: {where}" in capsys.readouterr().err


def test_run_accepts_dotted_overrides(tmp_path, capsys):
    code = main(
        ["run", SCENARIO, "--set", "failures.min_detectable_extent=0.16", "--out", str(tmp_path)]
    )
    assert code == 0
    assert "66.67%" in capsys.readouterr().out


def test_run_rejects_bad_scenario(tmp_path, capsys):
    missing = str(tmp_path / "ghost.json")
    assert main(["run", missing]) == 2
    assert "not found" in capsys.readouterr().err


def test_run_rejects_zero_runs(capsys):
    # A run is deterministic: there is no repeat count and no seed to set.
    for flags in (["--runs", "0"], ["--runs", "2"], ["--seed", "1"]):
        with pytest.raises(SystemExit) as err:
            main(["run", SCENARIO, *flags])
        assert err.value.code == 2


def test_unreachable_place_pose_exits_2(tmp_path, capsys):
    data = resources.files("sgupdate.data")
    scenario = json.loads(data.joinpath("scenario_house.json").read_text("utf-8"))
    for key in ("house", "decay_table", "lexicon"):
        scenario[key] = str(data.joinpath(scenario[key]))
    scenario["mission"]["place_pose"]["t"] = [2.0, 2.0, 0.9]  # the kitchen, not the bedroom
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(scenario), "utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "mission.place_pose" in capsys.readouterr().err
    assert main(["run", str(bad)]) == 2
    assert "mission.place_pose" in capsys.readouterr().err


def test_add_pose_in_another_room_exits_2(tmp_path, capsys):
    data = resources.files("sgupdate.data")
    scenario = json.loads(data.joinpath("scenario_house.json").read_text("utf-8"))
    for key in ("house", "decay_table", "lexicon"):
        scenario[key] = str(data.joinpath(scenario[key]))
    book = scenario["virtual_actions"][2]
    assert (book["label"], book["room"]) == ("book", "bedroom")
    book["pose"]["t"] = [2.0, 2.0, 0.9]  # the kitchen, not the bedroom
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(scenario), "utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "virtual add at t=6.0" in capsys.readouterr().err
    assert main(["run", str(bad)]) == 2
    assert "virtual add at t=6.0" in capsys.readouterr().err


def without_bedroom(house: dict) -> None:
    house["rooms"] = [r for r in house["rooms"] if r["id"] != "bedroom"]
    gone = {oid for oid, rid in house["belongs_to"].items() if rid == "bedroom"}
    house["objects"] = [o for o in house["objects"] if o["id"] not in gone]
    house["belongs_to"] = {o: r for o, r in house["belongs_to"].items() if o not in gone}
    house["access"] = [pair for pair in house["access"] if "bedroom" not in pair]


def bedroom_moved_away(house: dict) -> None:
    bedroom = next(r for r in house["rooms"] if r["id"] == "bedroom")
    bedroom["pose"]["t"][1] = 50.0


@pytest.mark.parametrize("edit", [without_bedroom, bedroom_moved_away], ids=lambda f: f.__name__)
def test_an_initial_graph_with_other_rooms_than_the_house_exits_2(edit, tmp_path, capsys):
    """Every room check at load is made against the house, so the estimate needs its rooms."""
    data = resources.files("sgupdate.data")
    house = packaged_house_rows()
    edit(house)
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps(house), "utf-8")
    scenario = json.loads(data.joinpath("scenario_house.json").read_text("utf-8"))
    for key in ("house", "decay_table", "lexicon"):
        scenario[key] = str(data.joinpath(scenario[key]))
    scenario["initial_graph"] = str(initial)
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(scenario), "utf-8")
    names = "initial_graph: its rooms differ from the house's\n"
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err.endswith(names)
    assert main(["run", str(bad)]) == 2
    assert capsys.readouterr().err.endswith(names)


def test_run_on_an_inconsistent_script_exits_2(tmp_path, capsys):
    piano = [{"at": 4, "action": "remove", "label": "piano", "room": "kitchen"}]
    override = f"virtual_actions={json.dumps(piano)}"
    code = main(["run", SCENARIO, "--set", override, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: t=4.0: no attached 'piano' in room 'kitchen'\n"
    assert list(tmp_path.iterdir()) == []  # no artifacts of a run that did not happen


@pytest.mark.parametrize(
    "override, names",
    [
        ("house.x=1", "'house.x'"),
        ("perception=[1]", "perception must be an object"),
        ("failures=[1]", "failures must be an object"),
        ("perception.range=[1]", "perception.range"),
        ('virtual_actions=[{"at": 1, "action": "jump", "label": "mug", "room": "kitchen"}]',
         "unknown action 'jump'"),
        ('failures.label_noise={"mugg": "cup"}', "failures.label_noise['mugg'] names no label"),
        ('failures.dropout_ids=["mug-7"]', "failures.dropout_ids[0] names no object"),
        ('failures.label_noise={"sofa": "  "}', "failures.label_noise['sofa'] must not be blank"),
    ],
    ids=["into-a-string", "perception-list", "failures-list", "short-range", "unknown-action",
         "label-noise-typo", "dropout-typo", "label-noise-blank"],
)
def test_run_on_bad_scenario_input_exits_2(override, names, tmp_path, capsys):
    assert main(["run", SCENARIO, "--set", override, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "anchors, names",
    [
        ({"Mug": 1.0, "mug": 2.0}, "anchors['mug'] repeats the label 'mug'"),
        ({"  ": 1.0}, "anchors['  '] must not be blank"),
    ],
    ids=["repeated-anchor", "blank-anchor"],
)
def test_a_decay_table_with_a_repeated_or_blank_anchor_exits_2(anchors, names, tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"units": "1/hour", "default": 0.5, "anchors": anchors}), "utf-8")
    out = tmp_path / "out"
    assert main(["run", SCENARIO, "--set", f"decay_table={table}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {SCENARIO}: decay_table: {names}\n"
    assert not out.exists()


def test_validate_good_and_bad(tmp_path, capsys):
    assert main(["validate", SCENARIO]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"house": "nowhere.json"}), "utf-8")
    assert main(["validate", str(bad)]) == 2


def test_query_filters_by_room_and_label(house_file, capsys):
    assert main(["query", house_file, "--room", "kitchen"]) == 0
    out = capsys.readouterr().out
    assert "banana-1" in out and "7 object(s)" in out
    assert main(["query", house_file, "--room", "kitchen", "--label", "cup"]) == 0
    out = capsys.readouterr().out
    assert "cup-1" in out and "1 object(s)" in out


def test_query_unknown_room_exits_2(house_file, capsys):
    assert main(["query", house_file, "--room", "garage"]) == 2


def test_stale_lists_low_persistence_objects(house_file, capsys):
    assert main(["stale", house_file, "--now", "100000", "--threshold", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "banana-1" in out  # fastest decay in the fixture
    assert "refrigerator-1" not in out  # immovable never decays


STALE_LINES = {
    "12000": [
        "banana-1  label='banana'  room=kitchen  persistence=0.3177",
        "1 candidate(s) below 0.5",
    ],
    "20000": [
        "banana-1  label='banana'  room=kitchen  persistence=0.1171",
        "cup-1  label='cup'  room=kitchen  persistence=0.4953",
        "mug-1  label='mug'  room=kitchen  persistence=0.4953",
        "plate-1  label='plate'  room=kitchen  persistence=0.4953",
        "towel-1  label='towel'  room=bathroom  persistence=0.4953",
        "vase-1  label='vase'  room=living room  persistence=0.4953",
        "6 candidate(s) below 0.5",
    ],
    "100000": [
        "banana-1  label='banana'  room=kitchen  persistence=0.0000",
        "cup-1  label='cup'  room=kitchen  persistence=0.0077",
        "mug-1  label='mug'  room=kitchen  persistence=0.0077",
        "plate-1  label='plate'  room=kitchen  persistence=0.0077",
        "towel-1  label='towel'  room=bathroom  persistence=0.0077",
        "vase-1  label='vase'  room=living room  persistence=0.0077",
        "alarm-clock-1  label='alarm clock'  room=bedroom  persistence=0.3992",
        "hairbrush-1  label='hairbrush'  room=bathroom  persistence=0.3992",
        "pillow-1  label='pillow'  room=bedroom  persistence=0.3992",
        "tv-remote-1  label='tv remote'  room=living room  persistence=0.3992",
        "10 candidate(s) below 0.5",
    ],
}


@pytest.mark.parametrize("now", sorted(STALE_LINES, key=float))
def test_stale_prints_the_pinned_report(now, house_file, capsys):
    assert main(["stale", house_file, "--now", now, "--threshold", "0.5"]) == 0
    assert capsys.readouterr().out.splitlines() == STALE_LINES[now]


@pytest.mark.parametrize("now", sorted(STALE_LINES, key=float))
def test_stale_prints_the_sweeps_report_byte_for_byte(now, house_file, capsys, monkeypatch):
    assert main(["stale", house_file, "--now", now, "--threshold", "0.5"]) == 0
    grouped = capsys.readouterr().out
    monkeypatch.setattr(cli, "stale_targets", stale_sweep)  # the eager report
    assert main(["stale", house_file, "--now", now, "--threshold", "0.5"]) == 0
    assert capsys.readouterr().out == grouped


def test_query_and_stale_name_a_room_whose_id_is_empty(tmp_path, capsys):
    g = SceneGraph()
    g.add_room(make_room("", (2.0, 2.0, 1.5), label="kitchen"))
    g.detach(put(g, "kitchen", "book", (1, 1, 1)))
    put(g, "kitchen", "cup", (1, 1, 1))
    path = tmp_path / "graph.json"
    path.write_bytes(serialize(g))
    assert main(["query", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "book-1  label='book'  room=(detached)  t=(1.000, 1.000, 1.000)",
        "cup-1  label='cup'  room=kitchen  t=(1.000, 1.000, 1.000)",
        "2 object(s)",
    ]
    assert main(["stale", str(path), "--now", "100000"]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("cup-1  label='cup'  room=kitchen  ")


def test_stale_rejects_bad_threshold(house_file, capsys):
    assert main(["stale", house_file, "--now", "10", "--threshold", "2.0"]) == 2


def test_stale_rejects_a_non_finite_now(house_file, capsys):
    assert main(["stale", house_file, "--now", "nan"]) == 2
    captured = capsys.readouterr()
    assert "now must be finite" in captured.err and "candidate" not in captured.out


def test_missing_graph_file_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["query", str(tmp_path / "none.json")])
    assert err.value.code == 2


def test_non_numeric_graph_field_exits_2(tmp_path, capsys):
    payload = packaged_house_rows()
    payload["objects"][0]["bbox"] = [0.2, "wide", 0.2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), "utf-8")
    with pytest.raises(SystemExit) as err:
        main(["query", str(bad)])
    assert err.value.code == 2
    assert "objects[0]" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["objects", "rooms"])
def test_a_blank_graph_label_exits_2(tmp_path, capsys, key):
    payload = packaged_house_rows()
    payload[key][0]["label"] = "   "
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), "utf-8")
    with pytest.raises(SystemExit) as err:
        main(["query", str(bad)])
    assert err.value.code == 2
    assert f"{key}[0]: label must not be blank, got '   '" in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, i, value, message",
    [
        ("bbox", 4, "wide", "objects.bbox[1] (object 'banana-1'): bbox[1] must be a number, got 'wide'"),
        ("label", 1, "   ", "objects.label[1] (object 'banana-1'): label must not be blank, got '   '"),
        ("room", 1, "attic", "objects.room[1] (object 'banana-1'): unknown room id 'attic'"),
        ("id", 1, "alarm-clock-1", "objects.id[1] (object 'alarm-clock-1'): duplicate object id"),
    ],
    ids=["bbox", "label", "room", "id"],
)
def test_a_bad_graph_column_value_exits_2(column, i, value, message, tmp_path, capsys):
    payload = json.loads(serialize(load_house()))
    payload["objects"][column][i] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), "utf-8")
    with pytest.raises(SystemExit) as err:
        main(["query", str(bad)])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_graph_file_of_wrong_shape_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rooms": 5, "objects": [], "belongs_to": {}, "access": []}), "utf-8")
    with pytest.raises(SystemExit) as err:
        main(["query", str(bad)])
    assert err.value.code == 2
    assert "rooms must be a list, got 5" in capsys.readouterr().err


def test_repl_applies_statement_and_saves(house_file, tmp_path, capsys, monkeypatch):
    lines = iter(["I removed the towel from the bathroom", ""])
    monkeypatch.setattr("builtins.input", lambda *a: next(lines))
    saved = tmp_path / "after.json"
    assert main(["repl", house_file, "--save", str(saved)]) == 0
    graph = deserialize(saved.read_bytes())
    assert graph.find("towel") == []


def test_repl_dates_its_edits_after_the_graphs_observations(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    assert main(["run", SCENARIO, "--out", str(out)]) == 0
    before = deserialize((out / "final_graph.json").read_bytes())
    latest = max(node.last_seen for node in before.objects.values())
    assert before.objects["cup-1"].last_seen == 23.0 and latest > before.epoch
    lines = iter(["the cup was moved from the living room to the bedroom", ""])
    monkeypatch.setattr("builtins.input", lambda *a: next(lines))
    saved = tmp_path / "after.json"
    assert main(["repl", str(out / "final_graph.json"), "--save", str(saved)]) == 0
    assert deserialize(saved.read_bytes()).objects["cup-1"].last_seen == latest + 1.0


def test_repl_edits_the_graph_as_an_updater_given_the_same_statements(
    house_file, tmp_path, capsys, monkeypatch
):
    texts = [
        "put it somewhere nice",  # not understood
        "the cup was moved from the kitchen to the bedroom",  # applied
        "the cup was moved from the kitchen to the bedroom",  # rejected: no cup is left there
    ]
    lines = iter([*texts, ""])
    monkeypatch.setattr("builtins.input", lambda *a: next(lines))
    saved = tmp_path / "after.json"
    assert main(["repl", house_file, "--save", str(saved)]) == 0
    out = capsys.readouterr().out
    assert "could not understand" in out and "applied" in out and "rejected" in out

    loaded = deserialize(Path(house_file).read_bytes())
    clock = max([loaded.epoch, *(node.last_seen for node in loaded.objects.values())])
    robot, extract = Updater(loaded.copy(), DecayTable.default()), GrammarExtractor()
    # The unparsed line takes no time: the edit after it is dated clock + 1.
    logged = [robot.statement(extract(text), clock + n) for n, text in zip((1.0, 1.0, 2.0), texts)]
    assert [[e.report.status for e in entries] for entries in logged] == [
        [], [ApplyStatus.APPLIED], [ApplyStatus.REJECTED]
    ]
    assert robot.log.parse_failures == [{"at": clock + 1.0, "text": texts[0]}]
    assert robot.graph.objects["cup-1"].last_seen == clock + 1.0
    assert saved.read_bytes() == serialize(robot.graph)
    assert serialize(replay_runlog(loaded, robot.log)) == saved.read_bytes()


def test_repl_save_into_a_missing_directory_exits_2(house_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("builtins.input", lambda *a: "")
    target = tmp_path / "missing" / "x.json"
    assert main(["repl", house_file, "--save", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {target}: No such file or directory\n"
    assert not (tmp_path / "missing").exists()


def test_installed_entry_point_matches_main():
    # The child imports the same sgupdate as this process, installed or not.
    package_root = str(Path(sgupdate.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sgupdate.cli", "validate", SCENARIO],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
