"""The package imports nothing outside the Python standard library, and
parses on the oldest Python that ``pyproject.toml`` declares."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyperscope"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    found = {
        name.split(".")[0]: path.relative_to(PACKAGE).as_posix()
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _absolute_imports(path)
    }
    assert "re" in found  # the walk reached the modules
    assert {name: where for name, where in found.items()
            if name not in sys.stdlib_module_names} == {}


def test_package_parses_at_the_declared_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert floor is not None
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=tuple(map(int, floor.groups())))
