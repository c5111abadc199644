"""Every module of the package reads each name it imports, and only
``values.py`` checks the shape of an input value."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sgupdate"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names ``source`` binds by an import statement but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_unused_import_check_flags_only_unread_names():
    snippet = (
        "from __future__ import annotations\n"
        "import os, json as j\n"
        "import xml.dom\n"
        "from dataclasses import dataclass, field\n"
        "from .geometry import Pose as P\n"
        "j.dumps(dataclass(xml.dom))\n"
    )
    assert unused_imports(snippet) == ["P", "field", "os"]


# The types a decoded JSON value is tested against to check its shape.
SHAPES = {"dict", "list", "tuple", "str", "bool"}


def shape_checks(source: str) -> list[int]:
    """Lines where ``source`` tests a value against a JSON shape type, by
    ``isinstance`` or by comparing its ``type()``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1:]
        elif isinstance(node, ast.Compare) and isinstance(node.left, ast.Call) and getattr(
            node.left.func, "id", None
        ) == "type":
            kinds = node.comparators
        else:
            continue
        names = {
            n.id for kind in kinds for n in ast.walk(kind) if isinstance(n, ast.Name) and n.id in SHAPES
        }
        if names:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "values.py"], ids=lambda p: p.name)
def test_only_the_values_module_checks_input_shapes(path):
    assert shape_checks(path.read_text("utf-8")) == []


def test_shape_check_scan_flags_only_json_shape_tests():
    snippet = (
        "isinstance(a, dict)\n"
        "isinstance(b, (list, tuple))\n"
        "type(c) is str\n"
        "type(d) in (int, bool)\n"
        "isinstance(e, bytes)\n"
        "isinstance(f, Pose)\n"
        "type(g) is float\n"
    )
    assert shape_checks(snippet) == [1, 2, 3, 4]


# Only this class switches or runs the cyclic garbage collector.
COLLECTOR_OWNER = ("graph.py", "_CollectorPaused")
COLLECTOR_CALLS = {"disable", "enable", "collect"}


def scoped_nodes(source: str, flagged) -> list[tuple[tuple[str, ...], int]]:
    """``(scope, line)`` of each node of ``source`` for which ``flagged`` holds,
    where ``scope`` names the classes and functions enclosing it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if flagged(child):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def collector_calls(source: str) -> list[tuple[tuple[str, ...], int]]:
    """``(scope, line)`` of each ``gc.disable``, ``gc.enable`` or ``gc.collect``
    call in ``source``, and of each ``from gc import``."""

    def flagged(node) -> bool:
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        return (
            isinstance(func, ast.Attribute)
            and func.attr in COLLECTOR_CALLS
            and isinstance(func.value, ast.Name)
            and func.value.id == "gc"
        ) or (isinstance(node, ast.ImportFrom) and node.module == "gc")

    return scoped_nodes(source, flagged)


def test_only_the_graph_loader_switches_the_collector():
    callers = {
        (path.name, *scope[:1])
        for path in sorted(SRC.rglob("*.py"))
        for scope, _ in collector_calls(path.read_text("utf-8"))
    }
    assert callers == {COLLECTOR_OWNER}


def test_collector_call_scan_flags_every_switch():
    snippet = (
        "import gc\n"
        "gc.collect()\n"
        "class A:\n"
        "    def f(self):\n"
        "        gc.disable(); gc.isenabled()\n"
        "        gc.enable()\n"
        "from gc import collect\n"
        "other.collect()\n"
    )
    assert collector_calls(snippet) == [((), 2), (("A", "f"), 5), (("A", "f"), 6), ((), 7)]


# Only the robot's updater and the simulated truth apply update records, so
# every statement and frame of the robot takes one path into the graph.
APPLY_CALLERS = {("harness.py", "Updater"), ("simworld.py", "World")}


def record_apply_calls(source: str) -> list[tuple[tuple[str, ...], int]]:
    """``(scope, line)`` of each call in ``source`` to ``records.apply``, made
    through the records module or through a name imported from it."""
    modules, functions = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name.endswith(".records") and a.asname}
        elif isinstance(node, ast.ImportFrom):
            modules |= {a.asname or a.name for a in node.names if a.name == "records"}
            if (node.module or "").endswith("records"):
                functions |= {a.asname or a.name for a in node.names if a.name == "apply"}

    def flagged(node) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Attribute):
            return func.attr == "apply" and isinstance(func.value, ast.Name) and func.value.id in modules
        return isinstance(func, ast.Name) and func.id in functions

    return scoped_nodes(source, flagged)


def test_only_the_updater_and_the_truth_apply_records():
    callers = {
        (path.name, *scope[:1])
        for path in sorted(SRC.rglob("*.py"))
        for scope, _ in record_apply_calls(path.read_text("utf-8"))
    }
    assert callers == APPLY_CALLERS


def test_record_apply_scan_flags_every_call_into_the_records_module():
    snippet = (
        "from . import records as rec\n"
        "from .records import apply as apply_record\n"
        "import sgupdate.records as r2\n"
        "rec.apply(g, x, t)\n"
        "def f():\n"
        "    apply_record(g, x, t)\n"
        "    r2.apply(g, x, t)\n"
        "other.apply(g)\n"
        "rec.execute(g, call)\n"
    )
    assert record_apply_calls(snippet) == [((), 4), (("f",), 6), (("f",), 7)]


# Staleness is one sweep, taken once per run after its last frame and by the
# ``stale`` command, and the graph keeps nothing for it.
STALE_CALLERS = {("harness.py", "run_scenario"), ("cli.py", "_cmd_stale")}


def stale_target_calls(source: str) -> list[tuple[tuple[str, ...], int]]:
    """``(scope, line)`` of each call in ``source`` to ``stale_targets``, by its
    own name, by a name it was imported as, or as an attribute."""
    names = {"stale_targets"}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names |= {a.asname for a in node.names if a.name == "stale_targets" and a.asname}

    def flagged(node) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Attribute):
            return func.attr == "stale_targets"
        return isinstance(func, ast.Name) and func.id in names

    return scoped_nodes(source, flagged)


def staleness_names(source: str) -> list[str]:
    """The attributes, names, arguments and definitions in ``source`` that
    mention staleness, sorted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        name = (
            getattr(node, "attr", None)
            or getattr(node, "id", None)
            or getattr(node, "arg", None)
            or (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None)
        )
        if isinstance(name, str) and "stale" in name.lower():
            found.add(name)
    return sorted(found)


def test_only_the_run_and_the_stale_command_query_staleness():
    callers = {
        (path.name, *scope[:1])
        for path in sorted(SRC.rglob("*.py"))
        for scope, _ in stale_target_calls(path.read_text("utf-8"))
    }
    assert callers == STALE_CALLERS


def test_the_graph_keeps_nothing_for_staleness():
    assert staleness_names((SRC / "graph.py").read_text("utf-8")) == []


def test_staleness_scans_flag_every_call_and_name():
    snippet = (
        "from .decay import stale_targets as query\n"
        "from . import decay\n"
        "stale_targets(g, 1.0, 0.5)\n"
        "class Updater:\n"
        "    def frame(self, stale_at):\n"
        "        query(self.graph, 1.0, 0.5)\n"
        "        decay.stale_targets(self.graph, 1.0, 0.5)\n"
        "        self.stale_index = None\n"
        "        self.graph.stale_index.written.add(oid)\n"
        "stale_sweep(g)\n"
    )
    assert stale_target_calls(snippet) == [((), 3), (("Updater", "frame"), 6), (("Updater", "frame"), 7)]
    assert staleness_names(snippet) == ["stale_at", "stale_index", "stale_sweep", "stale_targets"]


# An object node is built by ``ObjectNode(...)`` only in ``add_object``: the
# column loader and the row loader check the node rules themselves and build
# each node without ``__post_init__``.
NODE_BUILDERS = {("graph.py", "SceneGraph", "add_object")}


def object_node_calls(source: str) -> list[tuple[tuple[str, ...], int]]:
    """``(scope, line)`` of each ``ObjectNode(...)`` call in ``source``, by the
    class's name or as an attribute."""

    def flagged(node) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        return getattr(func, "id", None) == "ObjectNode" or getattr(func, "attr", None) == "ObjectNode"

    return scoped_nodes(source, flagged)


def test_only_add_object_builds_an_object_node_by_its_constructor():
    callers = {
        (path.name, *scope[:2])
        for path in sorted(SRC.rglob("*.py"))
        for scope, _ in object_node_calls(path.read_text("utf-8"))
    }
    assert callers == NODE_BUILDERS


def test_object_node_call_scan_flags_every_constructor_call():
    snippet = (
        "from . import graph\n"
        "def _read_object(entry):\n"
        "    return ObjectNode(id=entry['id'])\n"
        "class SceneGraph:\n"
        "    def add_object(self, label):\n"
        "        node = ObjectNode(id=label)\n"
        "graph.ObjectNode('x')\n"
        "ObjectNode._load([], {})\n"
        "object.__new__(ObjectNode)\n"
    )
    assert object_node_calls(snippet) == [(("_read_object",), 3), (("SceneGraph", "add_object"), 6), ((), 7)]


# Every graph edit is a logged primitive call that ``records.execute`` runs,
# so no module calls a mutating primitive as a method.
GRAPH_PRIMITIVES = {"add_object", "remove_object", "move_object", "detach", "reattach", "touch"}


def graph_primitive_calls(source: str) -> list[tuple[tuple[str, ...], int]]:
    """``(scope, line)`` of each call in ``source`` to an attribute named
    after a mutating graph primitive."""

    def flagged(node) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        return isinstance(func, ast.Attribute) and func.attr in GRAPH_PRIMITIVES

    return scoped_nodes(source, flagged)


def test_only_records_execute_runs_a_graph_primitive():
    calls = [
        (path.name, *scope, line)
        for path in sorted(SRC.rglob("*.py"))
        for scope, line in graph_primitive_calls(path.read_text("utf-8"))
    ]
    assert calls == []


def test_graph_primitive_call_scan_flags_every_method_call():
    snippet = (
        "graph.touch(['cup-1'], 1.0)\n"
        "class PickPlaceTask:\n"
        "    def pick(self, g):\n"
        "        g.detach(oid)\n"
        "        self.graph.add_object('kitchen', 'cup', pose, box, 0.0, 1.0)\n"
        "execute(graph, call)\n"
        "primitive(graph, **call.args)\n"
        "_PRIMITIVES = {'touch': SceneGraph.touch}\n"
        "members.remove(oid)\n"
        "SceneGraph.reattach(graph, oid, 'kitchen', pose, 2.0)\n"
    )
    assert graph_primitive_calls(snippet) == [
        ((), 1), (("PickPlaceTask", "pick"), 4), (("PickPlaceTask", "pick"), 5), ((), 10),
    ]


# Each room's label map is the graph's own index: only the graph module and
# the visibility rule, which walks the camera's room, read ``_members``.
MEMBER_READERS = {("perception.py", "expected_visible")}


def member_reads(source: str) -> list[tuple[tuple[str, ...], int]]:
    """``(scope, line)`` of each ``<expr>._members`` in ``source``, and of each
    ``getattr`` call naming ``_members`` as a string literal."""

    def flagged(node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "_members"
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and any(isinstance(a, ast.Constant) and a.value == "_members" for a in node.args)
        )

    return scoped_nodes(source, flagged)


def test_only_the_graph_and_the_visibility_rule_read_the_room_label_maps():
    readers = {
        (path.name, *scope[:1])
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "graph.py"
        for scope, _ in member_reads(path.read_text("utf-8"))
    }
    assert readers == MEMBER_READERS


def test_member_read_scan_flags_every_read():
    snippet = (
        "graph._members[rid]\n"
        "def expected_visible(graph, pose):\n"
        "    filed = graph._members.get(rid, {})\n"
        "class Updater:\n"
        "    def frame(self):\n"
        "        getattr(self.graph, '_members')\n"
        "        self.members = graph.members\n"
        "getattr(graph, 'objects')\n"
    )
    assert member_reads(snippet) == [((), 1), (("expected_visible",), 3), (("Updater", "frame"), 6)]


# A node is cloned only by the graph's one write helper, which marks the clone
# as the graph's own: a primitive that cloned a node itself would leave it
# unmarked, and one that wrote a node without the helper could write a node
# another graph holds.
CLONERS = {("graph.py", "SceneGraph", "_editable")}


def clone_uses(source: str) -> list[tuple[tuple[str, ...], int]]:
    """``(scope, line)`` of each ``<expr>._clone`` in ``source``, called or
    not, and of each ``getattr`` call naming ``_clone`` as a string literal."""

    def flagged(node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "_clone"
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and any(isinstance(a, ast.Constant) and a.value == "_clone" for a in node.args)
        )

    return scoped_nodes(source, flagged)


def test_only_the_graph_write_helper_clones_a_node():
    cloners = {
        (path.name, *scope[:2])
        for path in sorted(SRC.rglob("*.py"))
        for scope, _ in clone_uses(path.read_text("utf-8"))
    }
    assert cloners == CLONERS


def test_clone_scan_flags_every_use():
    snippet = (
        "class ObjectNode:\n"
        "    def _clone(self):\n"
        "        return self\n"
        "class SceneGraph:\n"
        "    def _editable(self, oid):\n"
        "        return self.objects[oid]._clone()\n"
        "    def touch(self, targets, now):\n"
        "        copy = self.objects[targets[0]]._clone\n"
        "        getattr(node, '_clone')()\n"
        "node.clone()\n"
    )
    assert clone_uses(snippet) == [
        (("SceneGraph", "_editable"), 6), (("SceneGraph", "touch"), 8), (("SceneGraph", "touch"), 9),
    ]
