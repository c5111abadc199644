"""Bad input exits 2 on any input: one hostile value at one place in an input.

Each example copies the packaged scenario, house graph, decay table and
lexicon into a temporary directory, puts one value from a fixed hostile set
at one path of one of them (or passes it as one ``--set`` string), and runs
``sgupdate run`` in-process. The run must exit 0 or 2 without an exception
escaping, and a refusal must name the mutated key: the scenario's top-level
key, or the scenario key that names the mutated file. Two refusals name
something else, because they are reported where a reference breaks:

- a house edit that breaks a room or pose a scenario entry refers to names
  that entry (``virtual_actions[0]: ... names unknown room 'kitchen'``);
- a scripted change that does not fit the simulated world when its time
  comes names that time (``error: t=4.0: no attached 'x' in room ...``).

The graph loader is also fuzzed on its own, on a small graph document with a
repeated label and a detached object. One hostile value at one path, or one
of the document's own ids, labels or flags at the path of another, must
either raise ``ParseError`` or load as a graph whose invariants hold, whose
bytes round-trip, and which serializes back to the document's own values.
"""
import contextlib
import copy
import io
import json
import math
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sgupdate.graph
from sgupdate.cli import main
from sgupdate.geometry import QUAT_NORM_TOL, is_unit
from sgupdate.graph import ParseError, check_invariants, deserialize, serialize

from conftest import put, two_room_graph

DATA = resources.files("sgupdate.data")
# Packaged file of each input, and the name each is written under. The
# scenario refers to the others by these names; its own name holds no key.
PACKAGED = {
    "scenario": "scenario_house.json",
    "house": "house.json",
    "decay_table": "decay_table.json",
    "lexicon": "lexicon.json",
}
FILES = {**PACKAGED, "scenario": "scenario.json"}
DOCS = {key: json.loads(DATA.joinpath(name).read_text("utf-8")) for key, name in PACKAGED.items()}
HOSTILE = [None, "", "x", math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, -1, 0, [], {}, [1, 2], True]


def paths(doc, prefix=(), into_lists=True):
    """Every path below the root of a JSON document, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list) and into_lists:
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,), into_lists)


# Dotted keys a --set can reach: paths through objects only, plus knobs the
# packaged scenario leaves at their defaults.
SET_KEYS = sorted(
    {".".join(p) for p in paths(DOCS["scenario"], into_lists=False)}
    | {"failures.min_detectable_extent", "failures.label_noise", "failures.dropout_ids"}
)


def with_value(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def run(docs, *flags):
    """``sgupdate run`` on ``docs`` written to a fresh directory: exit code, stderr.

    The directory's name is taken out of stderr so that it cannot name a key.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for key, name in FILES.items():
            Path(tmp, name).write_text(json.dumps(docs[key]), "utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(Path(tmp, FILES["scenario"])), *flags])
    return code, err.getvalue().replace(tmp, "<dir>")


# Scenario entries that refer into the house: the rooms they name, the poses
# that must land in its rooms, the frames that must follow its observations.
HOUSE_REFERENCES = ("virtual_actions[", "mission", "trajectory[")


def check(code, err, names):
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert any(name in err for name in names) or err.startswith("error: t="), err


@pytest.mark.parametrize("doc_key", sorted(FILES))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_one_hostile_value_in_an_input_file_exits_0_or_2(doc_key, data):
    path = data.draw(st.sampled_from(list(paths(DOCS[doc_key]))), label="path")
    value = data.draw(st.sampled_from(HOSTILE), label="value")
    code, err = run({**DOCS, doc_key: with_value(DOCS[doc_key], path, value)})
    names = {"scenario": (path[0],), "house": ("house", *HOUSE_REFERENCES)}
    check(code, err, names.get(doc_key, (doc_key,)))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(key=st.sampled_from(SET_KEYS), value=st.sampled_from(HOSTILE))
def test_one_hostile_set_string_exits_0_or_2(key, value):
    code, err = run(DOCS, "--set", f"{key}={json.dumps(value)}")
    check(code, err, (key.split(".")[0],))


def small_graph_document() -> dict:
    """Two rooms, two cups in the kitchen (a repeated label) and a detached book."""
    g = two_room_graph()
    put(g, "kitchen", "cup", (1, 1, 1))
    put(g, "kitchen", "cup", (3, 3, 1), pose_provisional=True)
    g.detach(put(g, "living room", "book", (7, 2, 1)))
    return json.loads(serialize(g))


def as_written(doc):
    """A graph document as ``serialize`` writes it: ints as floats, nodes in id order."""
    if type(doc) is int:
        return float(doc)
    if isinstance(doc, list):
        return [as_written(v) for v in doc]
    if isinstance(doc, dict):
        out = {k: as_written(v) for k, v in doc.items()}
        for key in ("rooms", "objects"):
            if key in out:
                out[key] = sorted(out[key], key=lambda node: node["id"])
        return out
    return doc


def loaded(text, common_case=True):
    """``serialize`` of the graph ``text`` loads as, or the text of the
    ``ParseError`` it raises. Without the common case every object entry
    takes the loader's per-value readers."""
    with pytest.MonkeyPatch.context() as mp:
        if not common_case:
            mp.setattr(sgupdate.graph, "node_entry", lambda entry: None)
        try:
            return serialize(deserialize(text))
        except ParseError as exc:
            return f"ParseError: {exc}"


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


GRAPH_DOC = small_graph_document()
GRAPH_PATHS = list(paths(GRAPH_DOC))
# Paths of ids, labels, flags and edges, and the values found there: put in
# the wrong place, they make duplicate ids and labels, self-loops and edges
# to detached objects.
NAME_PATHS = [p for p in GRAPH_PATHS if isinstance(value_at(GRAPH_DOC, p), (str, bool))]
NAMES = sorted({value_at(GRAPH_DOC, p) for p in NAME_PATHS}, key=repr)


@pytest.mark.parametrize(
    "where, values",
    [(GRAPH_PATHS, [*HOSTILE, "123"]), (NAME_PATHS, NAMES)],
    ids=["hostile-value", "misplaced-name"],
)
@settings(derandomize=True, max_examples=2000, deadline=None, database=None)  # every pair, in both
@given(data=st.data())
def test_one_bad_value_in_a_graph_document_loads_a_sound_graph_or_raises_parse_error(
    where, values, data
):
    path = data.draw(st.sampled_from(where), label="path")
    value = data.draw(st.sampled_from(values), label="value")
    doc = with_value(GRAPH_DOC, path, value)
    assert loaded(json.dumps(doc)) == loaded(json.dumps(doc), common_case=False)
    try:
        graph = deserialize(json.dumps(doc))
    except ParseError:
        return
    assert check_invariants(graph) == []
    blob = serialize(graph)
    assert serialize(deserialize(blob)) == blob
    assert json.loads(blob) == as_written(doc)  # no value dropped, coerced or normalized


def unit_w(outside: bool) -> float:
    """``w`` of the quaternion ``(w, 0, 0, 0)`` whose norm is the last float
    within ``QUAT_NORM_TOL`` of 1, or the first float beyond it."""
    w = 1.0 + QUAT_NORM_TOL
    while not is_unit((w, 0.0, 0.0, 0.0)):
        w = math.nextafter(w, 1.0)
    while is_unit((math.nextafter(w, 2.0), 0.0, 0.0, 0.0)):
        w = math.nextafter(w, 2.0)
    return math.nextafter(w, 2.0) if outside else w


# objects[0] is the detached book, objects[1] and objects[2] the cups.
NUMBER_PATHS = [p for p in paths(GRAPH_DOC["objects"][0], ("objects", 0)) if type(value_at(GRAPH_DOC, p)) is float]


def with_values(doc, edits):
    for path, value in edits:
        doc = with_value(doc, path, value)
    return doc


def without_q(doc):
    doc = copy.deepcopy(doc)
    del doc["objects"][0]["pose"]["q"]
    return doc


BOUNDARY_DOCS = {
    **{
        "int-" + "-".join(map(str, p[2:])): with_value(GRAPH_DOC, p, math.ceil(value_at(GRAPH_DOC, p)))
        for p in NUMBER_PATHS
    },
    "int-everywhere": with_values(GRAPH_DOC, [(p, math.ceil(value_at(GRAPH_DOC, p))) for p in NUMBER_PATHS]),
    "negative-zero-extent": with_value(GRAPH_DOC, ("objects", 0, "bbox", 1), -0.0),
    "negative-zero-rate": with_value(GRAPH_DOC, ("objects", 0, "decay_rate"), -0.0),
    "norm-just-inside": with_value(GRAPH_DOC, ("objects", 0, "pose", "q"), [unit_w(False), 0.0, 0.0, 0.0]),
    "norm-just-outside": with_value(GRAPH_DOC, ("objects", 0, "pose", "q"), [unit_w(True), 0.0, 0.0, 0.0]),
    "label-to-normalize": with_value(GRAPH_DOC, ("objects", 1, "label"), "  Alarm  Clock"),
    "blank-label": with_value(GRAPH_DOC, ("objects", 1, "label"), " \t "),
    "duplicate-id": with_value(GRAPH_DOC, ("objects", 2, "id"), GRAPH_DOC["objects"][1]["id"]),
    "missing-q": without_q(GRAPH_DOC),
    "pose-list": with_value(GRAPH_DOC, ("objects", 0, "pose"), [[1.0, 0.0, 0.0, 0.0], [7.0, 2.0, 1.0]]),
}

REFUSED = {"negative-zero-extent", "norm-just-outside", "blank-label", "duplicate-id", "missing-q", "pose-list"}


@pytest.mark.parametrize("name", sorted(BOUNDARY_DOCS))
def test_the_common_case_and_the_per_value_readers_agree_at_its_edges(name):
    text = json.dumps(BOUNDARY_DOCS[name])
    outcome = loaded(text)
    assert outcome == loaded(text, common_case=False)
    assert isinstance(outcome, str) is (name in REFUSED), outcome
