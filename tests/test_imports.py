"""Every module of the package reads each name it imports."""
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
