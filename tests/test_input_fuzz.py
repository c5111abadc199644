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

The house is fuzzed both as the packaged column document and as its row
document.

The graph loader is also fuzzed on its own, on a small graph document with a
repeated label and a detached object. One hostile value at one path, or one
of the document's own ids, labels or flags at the path of another, must
either raise ``ParseError`` or load as a graph whose invariants hold, whose
bytes round-trip, and which serializes back to the document's own values.
Each such row document, and each drawn object entry, must load as it loads
when ``conftest.read_object``, which reads an entry value by value, reads
its object entries, or raise the same error. Each such column document, and
each drawn entry that has a place in columns, must load as the row document
holding the same values loads, or be refused as it is; a column document
with no row document is refused.
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
import sgupdate.values
from sgupdate.cli import main
from sgupdate.geometry import QUAT_NORM_TOL, is_unit
from sgupdate.graph import ParseError, check_invariants, deserialize, graph_from_payload, serialize

from conftest import (
    columns_of,
    packaged_house_rows,
    put,
    read_object,
    reference_object,
    row_document,
    rows_of,
    two_room_graph,
)

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
# The packaged house as a row document: the house is fuzzed in both layouts.
HOUSE_ROWS = packaged_house_rows()
HOSTILE = [None, "", "x", math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, -1, 0, [], {}, [1, 2], True]


def paths(doc, prefix=(), into_lists=True):
    """Every path below the root of a JSON document, containers included;
    tuples count as lists."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, (list, tuple)) and into_lists:
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


@pytest.mark.parametrize("doc_key", [*sorted(FILES), "house-rows"])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_one_hostile_value_in_an_input_file_exits_0_or_2(doc_key, data):
    key, doc = ("house", HOUSE_ROWS) if doc_key == "house-rows" else (doc_key, DOCS[doc_key])
    path = data.draw(st.sampled_from(list(paths(doc))), label="path")
    value = data.draw(st.sampled_from(HOSTILE), label="value")
    code, err = run({**DOCS, key: with_value(doc, path, value)})
    names = {"scenario": (path[0],), "house": ("house", *HOUSE_REFERENCES)}
    check(code, err, names.get(key, (key,)))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(key=st.sampled_from(SET_KEYS), value=st.sampled_from(HOSTILE))
def test_one_hostile_set_string_exits_0_or_2(key, value):
    code, err = run(DOCS, "--set", f"{key}={json.dumps(value)}")
    check(code, err, (key.split(".")[0],))


def small_graph_document() -> dict:
    """Two rooms, two cups in the kitchen (a repeated label) and a detached
    book, as a row document."""
    g = two_room_graph()
    put(g, "kitchen", "cup", (1, 1, 1))
    put(g, "kitchen", "cup", (3, 3, 1), pose_provisional=True)
    g.detach(put(g, "living room", "book", (7, 2, 1)))
    return json.loads(row_document(g))


def as_written(doc):
    """A row document as ``conftest.row_document`` writes it: ints as floats, nodes in id order."""
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


def loaded(text):
    """``serialize`` of the graph ``text`` loads as, or the text of the
    ``ParseError`` it raises."""
    try:
        return serialize(deserialize(text))
    except ParseError as exc:
        return f"ParseError: {exc}"


def reference_fields(entry: dict) -> tuple:
    """What ``values.object_entry`` returns for ``entry``, taken from the node
    ``conftest.read_object`` builds of it, or the error that reader raises."""
    node = read_object(entry, "any room")  # kept only if the entry is attached
    return (
        node.id, node.label, node.pose.q, node.pose.t, node.bbox.extents,
        node.decay_rate, node.last_seen, node.attached, node.pose_provisional,
    )


def reference_loaded(text):
    """``loaded(text)`` with every object entry read by the reference reader
    in place of the loader's own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgupdate.graph, "object_entry", reference_fields)
        return loaded(text)


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
    assert loaded(json.dumps(doc)) == reference_loaded(json.dumps(doc))
    try:
        graph = deserialize(json.dumps(doc))
    except ParseError:
        return
    assert check_invariants(graph) == []
    blob = serialize(graph)
    assert serialize(deserialize(blob)) == blob
    assert json.loads(row_document(graph)) == as_written(doc)  # no value dropped, coerced or normalized


def test_the_row_loader_reads_each_entry_through_the_name_the_oracle_replaces():
    """``reference_loaded`` replaces ``sgupdate.graph.object_entry``; were the
    loader to stop reading entries through that name, the oracle would
    compare the loader with itself and pass on any change."""
    calls = []

    def counted(entry):
        calls.append(entry["id"])
        return sgupdate.values.object_entry(entry)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgupdate.graph, "object_entry", counted)
        deserialize(json.dumps(GRAPH_DOC))
    assert calls == [entry["id"] for entry in GRAPH_DOC["objects"]]


COLUMN_DOC = columns_of(GRAPH_DOC)
COLUMN_PATHS = list(paths(COLUMN_DOC))
COLUMN_NAME_PATHS = [p for p in COLUMN_PATHS if isinstance(value_at(COLUMN_DOC, p), (str, bool))]
COLUMN_NAMES = sorted({value_at(COLUMN_DOC, p) for p in COLUMN_NAME_PATHS}, key=repr)
# What a refusal may start with: the key, or the document, it names.
PLACES = ("a graph document", "access", "epoch", "objects", "rooms")


@pytest.mark.parametrize(
    "where, values",
    [(COLUMN_PATHS, [*HOSTILE, "123"]), (COLUMN_NAME_PATHS, COLUMN_NAMES)],
    ids=["hostile-value", "misplaced-name"],
)
@settings(derandomize=True, max_examples=1500, deadline=None, database=None)
@given(data=st.data())
def test_one_bad_value_in_a_column_document_loads_as_its_row_document(where, values, data):
    path = data.draw(st.sampled_from(where), label="path")
    value = data.draw(st.sampled_from(values), label="value")
    doc = with_value(COLUMN_DOC, path, value)
    outcome = loaded(json.dumps(doc))
    refused = isinstance(outcome, str)
    if refused:
        assert outcome.removeprefix("ParseError: ").startswith(PLACES), outcome
    try:
        rows = rows_of(doc)
    except (KeyError, TypeError, ValueError):  # object columns with no row document
        assert refused, path
        return
    expected = loaded(json.dumps(rows))
    assert refused is isinstance(expected, str), (outcome, expected)
    if not refused:
        assert outcome == expected
        graph = deserialize(json.dumps(doc))
        assert check_invariants(graph) == []
        assert json.loads(row_document(graph)) == as_written(rows)  # no value dropped, coerced or normalized


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
    """At the edges of ``values.object_entry``'s combined test of finite
    floats (ints, signed zeros, the quaternion norm's tolerance, labels to
    normalize, missing and misplaced values), the loader gives the reference
    reader's outcome."""
    text = json.dumps(BOUNDARY_DOCS[name])
    outcome = loaded(text)
    assert outcome == reference_loaded(text)
    assert isinstance(outcome, str) is (name in REFUSED), outcome


def in_columns(doc):
    """``columns_of(doc)``, or None when the row document ``doc`` has an
    entry with no place in columns."""
    try:
        return columns_of(doc)
    except (KeyError, TypeError, ValueError):
        return None


COLUMN_BOUNDARY_DOCS = {name: in_columns(doc) for name, doc in BOUNDARY_DOCS.items() if in_columns(doc)}


def test_every_boundary_document_but_three_has_a_column_document():
    # A pose with no q or as a list has no place in columns, and the
    # duplicate id leaves the edge of the id it replaced naming no entry.
    assert sorted(BOUNDARY_DOCS.keys() - COLUMN_BOUNDARY_DOCS.keys()) == ["duplicate-id", "missing-q", "pose-list"]


@pytest.mark.parametrize("name", sorted(COLUMN_BOUNDARY_DOCS))
def test_a_column_document_loads_as_its_row_document_at_the_edges_of_the_combined_test(name):
    """The column reader's combined test of finite floats meets the same
    edges: each boundary document, in columns, loads to the graph its row
    document loads to, or is refused as it is."""
    outcome = loaded(json.dumps(COLUMN_BOUNDARY_DOCS[name]))
    expected = loaded(json.dumps(BOUNDARY_DOCS[name]))
    assert isinstance(outcome, str) is isinstance(expected, str) is (name in REFUSED), (outcome, expected)
    if name not in REFUSED:
        assert outcome == expected


# Unit quaternions an entry may hold.
UNIT_QUATERNIONS = [(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (0.0, 0.6, 0.0, 0.8), (0.8, 0.0, 0.0, -0.6)]
MISSING = object()  # in place of a value: the key is deleted
ENTRY_HOSTILE = [*HOSTILE, "123", " \t ", -0.0, 2, MISSING]


def replaced(value, path, new):
    """``value`` with the item at ``path`` replaced by ``new`` (deleted if ``new``
    is ``MISSING``), each container on the way rebuilt as its own type."""
    key, rest = path[0], path[1:]
    item = replaced(value[key], rest, new) if rest else new
    items = dict(value) if isinstance(value, dict) else list(value)
    if item is MISSING:
        del items[key]
    else:
        items[key] = item
    return items if isinstance(value, dict) else type(value)(items)


@st.composite
def object_entries(draw):
    """An object entry: every number a float, or each an int or a float;
    arrays as lists or tuples; ``attached`` and ``pose_provisional`` present
    or not; an extra key or not; and one hostile value at one path, or a
    deleted key, or neither."""
    all_floats = draw(st.booleans())

    def number(lo, hi):
        floats, ints = st.floats(lo, hi), st.integers(math.ceil(lo), math.floor(hi))
        return draw(floats if all_floats or math.ceil(lo) > math.floor(hi) else st.one_of(ints, floats))

    def array(values):
        return draw(st.sampled_from([list, tuple]))(values)

    entry = {
        "id": draw(st.sampled_from(["cup-1", "tv-remote-12"])),
        "label": draw(st.sampled_from(["cup", "  TV  Remote", "alarm clock"])),
        "pose": {
            "q": array([number(w, w) for w in draw(st.sampled_from(UNIT_QUATERNIONS))]),
            "t": array([number(-50.0, 50.0) for _ in range(3)]),
        },
        "bbox": array([number(0.01, 3.0) for _ in range(3)]),
        "decay_rate": number(0.0, 1.0),
        "last_seen": number(-1e6, 1e6),
    }
    for key in ("attached", "pose_provisional"):
        if draw(st.booleans()):
            entry[key] = draw(st.booleans())
    if draw(st.booleans()):
        entry["note"] = draw(st.sampled_from([None, "x", [1, 2], {"q": 5}]))
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(paths(entry))), label="path")
        entry = replaced(entry, path, draw(st.sampled_from(ENTRY_HOSTILE), label="value"))
    return entry


def entry_document(entry) -> tuple[dict, bool]:
    """A one-room row document holding ``entry``, and whether it links the entry."""
    oid = entry.get("id")
    linked = type(oid) is str and entry.get("attached", True) is True
    doc = {
        "epoch": 0.0,
        "rooms": [{"id": "kitchen", "label": "kitchen", "pose": {"q": [1, 0, 0, 0], "t": [2, 2, 1.5]}, "bbox": [4, 3, 4]}],
        "objects": [entry],
        "belongs_to": {oid: "kitchen"} if linked else {},
        "access": [],
    }
    return doc, linked


@settings(derandomize=True, max_examples=1500, deadline=None, database=None)
@given(entry=object_entries())
def test_an_object_entry_loads_as_the_reference_reader_reads_it(entry):
    doc, linked = entry_document(entry)
    try:
        expected = reference_object(entry, "kitchen" if linked else None)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            graph_from_payload(doc)
        assert str(raised.value) == str(exc)
    else:
        assert repr(graph_from_payload(doc).objects[expected.id]) == repr(expected)


@settings(derandomize=True, max_examples=1500, deadline=None, database=None)
@given(entry=object_entries())
def test_an_object_entry_in_columns_loads_as_the_reference_reader_reads_it(entry):
    """Each drawn entry that has a place in columns, as a one-object column
    document: the node the reference reader builds, or a refusal where it
    refuses, naming the object's column."""
    doc, linked = entry_document(entry)
    columns = in_columns(doc)
    if columns is None:
        return
    try:
        expected = reference_object(entry, "kitchen" if linked else None)
    except ParseError:
        with pytest.raises(ParseError, match=r"^objects\.[a-z_]+\[0\]"):
            graph_from_payload(columns)
    else:
        assert repr(graph_from_payload(columns).objects[expected.id]) == repr(expected)
