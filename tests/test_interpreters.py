"""Every supported interpreter that can be found gives the same outputs.

``interpreter_digest.py`` hashes a fixed set of outputs. These tests run it
under the running interpreter, whose digest must be the pinned one under
each hash seed of ``HASH_SEEDS``, and under each ``python3.10`` ...
``python3.13`` that starts and reports its version, and compare the
digests. A version is looked for on ``PATH`` first, then among pyenv's
installs (``$PYENV_ROOT/versions/3.X.*/bin``), since a pyenv shim on
``PATH`` starts only when ``PYENV_VERSION`` names an install of that
version.
"""

from __future__ import annotations

import functools
import glob
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from interpreter_digest import PINNED

SCRIPT = Path(__file__).with_name("interpreter_digest.py")
SRC = Path(__file__).resolve().parents[1] / "src"
VERSIONS = ("3.10", "3.11", "3.12", "3.13")
# A set's order moves with the hash seed, so one run can match the pin by chance.
HASH_SEEDS = ("1", "4242")


def _run(python: str, *args: str, seed: str | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    if seed is not None:
        env["PYTHONHASHSEED"] = seed
    return subprocess.run([python, *args], env=env, capture_output=True, text=True, timeout=300)


@functools.cache
def _digest(python: str, seed: str | None = None) -> list[str]:
    """The version and digest lines the script prints under ``python``, with ``seed`` if given."""
    out = _run(python, str(SCRIPT), seed=seed)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def _interpreter(version: str) -> str | None:
    """An interpreter of ``version`` that is not a copy of the running one."""
    root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    candidates = [shutil.which(f"python{version}")]
    candidates += sorted(glob.glob(os.path.join(root, "versions", f"{version}.*", "bin", f"python{version}")))
    for python in filter(None, candidates):
        try:
            probe = _run(python, "-c", "import sys; print('%d.%d' % sys.version_info[:2]); print(sys.version)")
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.split("\n", 1)[0] == version \
                and probe.stdout != f"{version}\n{sys.version}\n":
            return python
    return None


@pytest.mark.parametrize("seed", HASH_SEEDS)
def test_running_interpreter_gives_the_pinned_digest(seed):
    assert _digest(sys.executable, seed) == ["%d.%d" % sys.version_info[:2], PINNED]


@pytest.mark.parametrize("version", VERSIONS)
def test_interpreter_gives_the_running_interpreters_digest(version):
    python = _interpreter(version)
    if python is None:
        pytest.skip(f"no python{version} other than the running interpreter was found")
    here = _digest(sys.executable)
    assert here[0] == "%d.%d" % sys.version_info[:2]
    assert _digest(python) == [version, here[1]], python
