"""What a ``mutdense`` process imports before it does any work.

Every invocation pays for its imports.  The records are ``NamedTuple``s,
so no command needs ``dataclasses`` (nor ``inspect``, which it imports),
and the process pool's modules load only when a pool starts: never for
``version``, ``operators`` or a run with one worker.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from mutdense import cli

from conftest import ALPHA_SRC

_SRC = os.path.dirname(os.path.dirname(cli.__file__))
_UNWANTED = ("dataclasses", "inspect", "multiprocessing", "concurrent.futures.process")


def imported(args: list[str], cwd) -> set[str]:
    """The modules ``python -X importtime ARGS`` imports, by name."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("MUTDENSE_JOBS", None)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize("command", [
    ["version"],
    ["operators"],
    # one file, so one worker whatever --jobs asks
    ["analyze", "tree", "--jobs", "2", "--format", "json,html,svg,text", "--out", "out"],
])
def test_command_imports_no_dataclasses_and_no_pool(command, tmp_path):
    (tmp_path / "tree").mkdir()
    (tmp_path / "tree" / "Alpha.java").write_text(ALPHA_SRC, encoding="utf-8")
    # whatever the interpreter loads on its own start (site hooks) is not ours
    baseline = imported(["-c", "pass"], tmp_path)
    loaded = imported(["-m", "mutdense", *command], tmp_path) - baseline
    assert "mutdense.cli" in loaded
    assert [name for name in _UNWANTED if name in loaded] == []


_COUNT_EVALS = """\
import builtins
evals = []
compile_ = builtins.compile
def counting(source, filename, mode, *args, **kwargs):
    if mode == "eval":
        evals.append(source)
    return compile_(source, filename, mode, *args, **kwargs)
builtins.compile = counting
import mutdense, mutdense.cli, mutdense.reporting
print(evals)
"""


def test_import_compiles_no_annotation():
    # an annotation kept as a string (``from __future__ import
    # annotations``) makes each NamedTuple field a ForwardRef, which
    # compiles it in "eval" mode at import
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", _COUNT_EVALS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
