"""numpy loads on first use: the exact commands never load it, and the
worker pool loads it before it forks.  Importing the package loads no
process-pool module either, and the pool's workers end with the process
that forked them.  Each check runs in a new interpreter, because this
one has numpy loaded already."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import extremap

SRC = str(Path(extremap.__file__).resolve().parents[1])
# the package that numpy's own import runs, under numpy 2 and numpy 1
CORE = ("numpy._core", "numpy.core")


def _env():
    """This environment, with extremap imported from this tree."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _python(*args):
    """stdout of a new interpreter that imports extremap from this tree."""
    proc = subprocess.run([sys.executable, *args], env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(code, modules=CORE):
    """The modules of ``modules`` loaded once ``code`` has run."""
    out = _python("-c", f"{code}\nimport json, sys\nprint(json.dumps("
                  f"[m for m in {modules!r} if m in sys.modules]))")
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("code", ["import extremap", "import extremap.cli"])
def test_import_leaves_numpy_unloaded(code):
    assert _loaded_after(code) == []


def test_import_leaves_the_pool_modules_unloaded():
    # only a Monte Carlo run with --workers above 1 imports them
    pool = ("multiprocessing", "concurrent.futures")
    assert _loaded_after("import extremap.cli", pool) == []


@pytest.mark.parametrize("argv", [
    ["ei", "--zeta", "1/3", "--eps", "1/100", "--q", "2"],
    ["bounds", "--zeta", "1/3", "--n", "1000", "--tau", "1"],
    ["check", "--zeta", "1/3", "--n", "256,512", "--seed", "1"],
    ["pressure", "--n-max", "6"],
], ids=lambda argv: argv[0])
def test_exact_commands_never_load_numpy(tmp_path, argv):
    run = ("from extremap.cli import main\n"
           f"assert main({argv + ['--out', str(tmp_path)]!r}) == 0")
    assert _loaded_after(run) == []
    assert (tmp_path / f"{argv[0]}.json").exists()


def test_the_pool_loads_numpy_before_its_workers_fork():
    run = ("import extremap.montecarlo as mc\n"
           "mc._shared_pool(2)\n"
           "mc._drop_pool()")
    assert _loaded_after(run) != []


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


def _running(pid):
    """Whether ``pid`` is a process that has not ended (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("exit_", ["", "os._exit(0)"],
                         ids=["exit", "os._exit"])
def test_pool_workers_end_with_their_process(tmp_path, exit_):
    # the CLI never drops the pool; os._exit skips the exit handlers too,
    # and then the workers end only because their pipes close
    argv = ["hts", "--zeta", "1/3", "--eps", "1/16", "--tau", "1",
            "--trials", "1e5", "--seed", "1", "--workers", "2",
            "--out", str(tmp_path)]
    run = ("import os\n"
           "os.cpu_count = lambda: 2\n"
           "from extremap import montecarlo as mc\n"
           "from extremap.cli import main\n"
           f"assert main({argv!r}) == 0\n"
           "print(*[proc.pid for proc, _ in mc._pool], flush=True)\n"
           f"{exit_}")
    # output to a file, not a pipe: a worker that outlived the process
    # would hold the pipe open, and the run would wait for it
    out = tmp_path / "out.txt"
    with open(out, "w") as stdout:
        subprocess.run([sys.executable, "-c", run], env=_env(), stdout=stdout,
                       stderr=subprocess.STDOUT, timeout=300, check=True)
    pids = [int(pid) for pid in out.read_text().splitlines()[-1].split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    try:
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
