"""The package's modules load on first use: importing the package loads
none of its computational modules, and each command loads only the
modules it calls, so the exact commands never load numpy, which only
the Monte Carlo module imports.  Importing the package loads no
process-pool module either, and the pool's workers end with the process
that forked them.  Concurrent first calls from several threads, with
and without the pool, return the serial values.  Each of these checks
runs in a new interpreter, because this one has every module loaded
already."""

import importlib
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
# the computational modules, each loaded by the first call that needs it
COMPUTE = tuple(f"extremap.{m}" for m in
                ("intervals", "maps", "events", "brackets", "montecarlo"))
# the public names of the package, by defining module
PUBLIC = {
    "intervals": "IntervalUnion ball",
    "maps": "AffineBranch FullBranchMap bv_norm_indicator "
            "weighted_periodic_sum",
    "events": "Observable ThresholdSchedule annulus_set dprime_sum "
              "exact_evl_prob exact_hts_prob first_return_time "
              "spectral_escape_rate survivor_set theta_limit_exact theta_n "
              "threshold_for",
    "brackets": "BracketInputs BlockingParams DecayModel ErrorBudget "
                "EscapeWindow annulus_replacement escape_window "
                "evl_bracket_inputs exp_approx_error hts_bracket_inputs "
                "optimize_kt_evl optimize_kt_hts general_evl_bracket "
                "sharp_evl_bracket sharp_hts_bracket upsilon xi",
    "montecarlo": "ECDF EscapeFit EvlEstimate estimate_escape_rate "
                  "estimate_evl estimate_evl_points estimate_hts "
                  "wilson_halfwidth",
}


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


def _isolated(tmp_path, code):
    """stdout of ``code`` run in a new interpreter that imports extremap
    from this tree.  The output goes to a file, not a pipe: a worker
    that outlived the process would hold the pipe open, and the run would
    wait for it.  A run past 60 s fails instead of hanging the suite, and
    is killed with the workers it forked."""
    out = tmp_path / "out.txt"
    with open(out, "w") as stdout:
        proc = subprocess.Popen([sys.executable, "-c", code], env=_env(),
                                stdout=stdout, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    assert proc.returncode == 0, out.read_text()
    return out.read_text()


def _loaded_after(code, modules=CORE):
    """The modules of ``modules`` loaded once ``code`` has run."""
    out = _python("-c", f"{code}\nimport json, sys\nprint(json.dumps("
                  f"[m for m in {modules!r} if m in sys.modules]))")
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("code", ["import extremap", "import extremap.cli"])
def test_import_leaves_numpy_unloaded(code):
    assert _loaded_after(code) == []


@pytest.mark.parametrize("code, loaded", [
    ("import extremap", []),
    ("import extremap.cli", []),
    ("import extremap\nextremap.ball", ["extremap.intervals"]),
    # a submodule is not a public name: the import system loads it
    ("from extremap import maps\nassert maps.__name__ == 'extremap.maps'",
     ["extremap.intervals", "extremap.maps"]),
], ids=["package", "cli", "name", "submodule"])
def test_import_loads_only_the_modules_it_names(code, loaded):
    assert _loaded_after(code, CORE + COMPUTE) == loaded


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in PUBLIC.items()
    for name in names.split()])
def test_each_public_name_is_its_defining_modules_object(module, name):
    namespace = {}
    exec(f"from extremap import {name}", namespace)
    defined = getattr(importlib.import_module(f"extremap.{module}"), name)
    assert namespace[name] is defined
    assert name in dir(extremap)


def test_any_other_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        extremap.no_such_name
    with pytest.raises(ImportError):
        exec("from extremap import no_such_name", {})


def test_import_leaves_the_pool_modules_unloaded():
    # only a Monte Carlo run with --workers above 1 imports them
    pool = ("multiprocessing", "concurrent.futures")
    assert _loaded_after("import extremap.cli", pool) == []


# the computational modules each exact command loads: never montecarlo
EXACT_LOADS = {
    "pressure": COMPUTE[:2],
    "ei": COMPUTE[:3],
    "bounds": COMPUTE[:4],
    "check": COMPUTE[:4],
}


@pytest.mark.parametrize("argv", [
    ["ei", "--zeta", "1/3", "--eps", "1/100", "--q", "2"],
    ["bounds", "--zeta", "1/3", "--n", "1000", "--tau", "1"],
    ["check", "--zeta", "1/3", "--n", "256,512", "--seed", "1"],
    ["pressure", "--n-max", "6"],
], ids=lambda argv: argv[0])
def test_exact_commands_never_load_numpy(tmp_path, argv):
    run = ("from extremap.cli import main\n"
           f"assert main({argv + ['--out', str(tmp_path)]!r}) == 0")
    assert _loaded_after(run, CORE + COMPUTE) == list(EXACT_LOADS[argv[0]])
    assert (tmp_path / f"{argv[0]}.json").exists()


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
    last = _isolated(tmp_path, run).splitlines()[-1]
    pids = [int(pid) for pid in last.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    try:
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


def test_numpy_is_a_whole_module_once_montecarlo_is_imported(tmp_path):
    run = ("import sys, types\n"
           "import extremap.montecarlo\n"
           "print(type(sys.modules['numpy']) is types.ModuleType)")
    assert _isolated(tmp_path, run).splitlines()[-1] == "True"


ZETAS = ("1/3", "1/5", "2/7", "1/9")


def _threaded_calls(tmp_path, setup, call):
    """``call``, an expression in ``zeta`` and ``workers``, from 4 threads
    that start together after ``setup``, each on a zeta of ZETAS with
    workers 2, then on each zeta in turn with workers 1: (the threads'
    reprs, the serial reprs).  A short switch interval makes the threads
    interleave often."""
    run = (f"{setup}\n"
           "import json, sys, threading\n"
           "from fractions import Fraction\n"
           "import extremap\n"
           "sys.setswitchinterval(1e-5)\n"
           f"zetas = [Fraction(z) for z in {ZETAS!r}]\n"
           f"call = lambda zeta, workers: repr({call})\n"
           "start = threading.Barrier(len(zetas))\n"
           "threaded = [None] * len(zetas)\n"
           "def run(i):\n"
           "    start.wait()\n"
           "    try:\n"
           "        threaded[i] = call(zetas[i], 2)\n"
           "    except Exception as exc:\n"
           "        threaded[i] = repr(exc)\n"
           "threads = [threading.Thread(target=run, args=(i,))\n"
           "           for i in range(len(zetas))]\n"
           "for thread in threads:\n"
           "    thread.start()\n"
           "for thread in threads:\n"
           "    thread.join()\n"
           "print(json.dumps([threaded, [call(z, 1) for z in zetas]]))")
    return json.loads(_isolated(tmp_path, run).splitlines()[-1])


def test_concurrent_first_calls_match_serial_calls(tmp_path):
    # the first call in the process imports montecarlo and numpy
    threaded, serial = _threaded_calls(
        tmp_path, "",
        "extremap.estimate_evl(extremap.FullBranchMap.from_spec('doubling'),"
        " extremap.Observable(zeta), 100, 1, 4096, 1)")
    assert threaded == serial


def test_concurrent_pool_calls_read_their_own_replies(tmp_path):
    # numpy first, so that the threads share only the pool; 131072 trials
    # are four chunks, so each threaded call runs on the 2 workers
    threaded, serial = _threaded_calls(
        tmp_path, "import os\nos.cpu_count = lambda: 2\nimport numpy",
        "extremap.estimate_hts(extremap.FullBranchMap.from_spec('doubling'),"
        " zeta, Fraction(1, 16), [1, 2], 131072, 1, workers=workers)")
    assert threaded == serial
