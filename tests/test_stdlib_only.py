"""The package imports nothing outside the Python standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyperscope"


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
