"""README's examples run: the Python block as a doctest, the CLI examples through ``main``."""

from __future__ import annotations

import doctest
import re
import shlex
from pathlib import Path

from hyperscope import parse, serialize
from hyperscope.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _cli_examples() -> list[list[str]]:
    """The ``hyperscope`` command lines of README's ``sh`` blocks, as argument lists."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("hyperscope ")]


def test_the_python_block_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False, report=False)
    assert result.attempted >= 8
    assert result.failed == 0


def test_the_cli_examples_exit_0_with_canonical_output(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    examples = _cli_examples()
    assert [args[0] for args in examples] == ["project", "op"]
    for args in examples:
        assert main(args) == 0, args
        out = capsys.readouterr().out
        assert serialize(parse(out)) == out
