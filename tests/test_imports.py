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
