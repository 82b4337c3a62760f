"""numpy loads on first use: the exact commands never load it, and the
worker pool loads it before it forks.  Each check runs in a new
interpreter, because this one has numpy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import extremap

SRC = str(Path(extremap.__file__).resolve().parents[1])
# the package that numpy's own import runs, under numpy 2 and numpy 1
CORE = ("numpy._core", "numpy.core")


def _python(*args):
    """stdout of a new interpreter that imports extremap from this tree."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _core_loaded_after(code):
    """The numpy core modules loaded once ``code`` has run."""
    out = _python("-c", f"{code}\nimport json, sys\nprint(json.dumps("
                  f"[m for m in {CORE!r} if m in sys.modules]))")
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("code", ["import extremap", "import extremap.cli"])
def test_import_leaves_numpy_unloaded(code):
    assert _core_loaded_after(code) == []


@pytest.mark.parametrize("argv", [
    ["ei", "--zeta", "1/3", "--eps", "1/100", "--q", "2"],
    ["bounds", "--zeta", "1/3", "--n", "1000", "--tau", "1"],
    ["check", "--zeta", "1/3", "--n", "256,512", "--seed", "1"],
    ["pressure", "--n-max", "6"],
], ids=lambda argv: argv[0])
def test_exact_commands_never_load_numpy(tmp_path, argv):
    run = ("from extremap.cli import main\n"
           f"assert main({argv + ['--out', str(tmp_path)]!r}) == 0")
    assert _core_loaded_after(run) == []
    assert (tmp_path / f"{argv[0]}.json").exists()


def test_the_pool_loads_numpy_before_its_workers_fork():
    run = ("import extremap.montecarlo as mc\n"
           "mc._shared_pool(2)\n"
           "mc._drop_pool()")
    assert _core_loaded_after(run) != []


@pytest.mark.parametrize("argv", [
    ["evl", "--zeta", "1/3", "--n", "100,1000", "--trials", "1e5",
     "--seed", "3"],
    ["hts", "--zeta", "1/3", "--eps", "1/16", "--tau", "1,2",
     "--trials", "1e5", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_pool_runs_from_a_fresh_process_match_in_process_runs(tmp_path, argv):
    # 1e5 trials are four chunks, so --workers 2 runs them on the pool
    rows = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        _python("-m", "extremap.cli", *argv, "--workers", workers,
                "--out", str(out))
        rows.append(json.loads((out / f"{argv[0]}.json").read_text())["rows"])
    assert rows[0] == rows[1]
