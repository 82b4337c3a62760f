"""Compare every benchmark job's outputs with those of another source tree.

    python tests/output_identity.py PARENT_SRC [SEED ...]

PARENT_SRC is the ``src/`` directory of the tree to compare against (a
second checkout of the parent commit, say).  For each seed (default 3 4
5) and each workload of ``perfbench/jobs.py``, every ``cli`` and ``call``
job runs once against this checkout's ``src/`` and once against
PARENT_SRC, each side in its own subprocess, through the benchmark's own
``run.execute``.  A ``cli`` job compares its exit code and its CSV and
JSON bytes, with its output directory replaced by ``<out>``; a ``call``
job compares the ``repr`` of its result.  Every differing job is
printed, and the exit code is 1 if any job differs.

The name does not start with ``test_``, so pytest does not collect it.
It reads ``perfbench/`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def run_side(src: str, workload: str, seed: int, work: str) -> dict:
    """Job name -> its outputs as text, with ``extremap`` imported from src."""
    sys.path[:0] = [src, str(PERFBENCH)]
    import extremap
    from extremap import cli
    if Path(extremap.__file__).resolve().parent != (Path(src) / "extremap").resolve():
        sys.exit(f"error: imported extremap from {extremap.__file__}")
    import jobs
    import run

    work = Path(work)
    out = {}
    for job in jobs.build_jobs(workload, seed):
        try:
            rc, result = run.execute(cli, job, work)
        except Exception as exc:  # a raise is an outcome to compare
            out[job.name] = f"raised {exc!r}"
            continue
        if job.kind == "call":
            out[job.name] = f"exit {rc}\n{result!r}"
            continue
        d = run.job_dir(work, job)
        parts = [f"exit {rc}"]
        for ext in ("csv", "json"):
            path = d / f"{job.argv[0]}.{ext}"
            parts.append(path.read_bytes().replace(str(d).encode(), b"<out>")
                         .decode() if path.exists() else f"no {path.name}")
        out[job.name] = "\n".join(parts)
    return out


def _side_outputs(src: str, workload: str, seed: int, work: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--side", src, workload, str(seed),
         str(work)], capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"error: {workload} seed {seed} on {src} failed:\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout)


def _first_difference(a: str, b: str) -> str:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {i + 1}:\n    parent: {y[:200]}\n    change: {x[:200]}"
    return "one output is a prefix of the other"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_src", help="src/ directory of the tree to compare with")
    ap.add_argument("seeds", nargs="*", type=int, default=[3, 4, 5])
    args = ap.parse_args(argv)
    parent = str(Path(args.parent_src).resolve())
    if not (Path(parent) / "extremap" / "__init__.py").is_file():
        sys.exit(f"error: no extremap sources under {parent}")
    sys.path.insert(0, str(PERFBENCH))
    import jobs

    differing = compared = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in sorted(jobs.WORKLOADS):
                change = _side_outputs(str(ROOT / "src"), workload, seed,
                                       Path(tmp) / "change")
                base = _side_outputs(parent, workload, seed,
                                     Path(tmp) / "parent")
                for name in sorted(set(change) | set(base)):
                    compared += 1
                    if change.get(name) == base.get(name):
                        continue
                    differing += 1
                    if name not in change or name not in base:
                        detail = "job missing on one side"
                    else:
                        detail = _first_difference(change[name], base[name])
                    print(f"DIFFERS seed {seed} {workload} {name}: {detail}")
    print(f"{compared - differing} of {compared} jobs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--side"]:
        json.dump(run_side(*sys.argv[2:4], int(sys.argv[4]), sys.argv[5]),
                  sys.stdout)
        sys.exit(0)
    sys.exit(main())
