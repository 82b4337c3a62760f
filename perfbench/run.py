"""extremap benchmark: seeded workloads of in-process CLI runs and exact oracles.

    python3 perfbench/run.py --workload evl-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  A run sets up (import, job generation from the seed, the
reference values the checks need), then makes a fixed number of passes
over the job list: as many as fill ``--seconds`` at the workload's
nominal pass time, and at least MIN_PASSES passes and MIN_SAMPLES job
executions.  The count does not depend on how fast this run goes, so
every run does the same work; that matters in exact-analytic, where
each pass leaves more cached periodic points behind and later passes
run slower.  Every job's output is checked after every pass, and must
be identical in every pass.

``setup_s`` is the median import time in a fresh interpreter plus the
median time of job generation and reference values, each timed
SETUP_REPEATS times in the run (see ``Setup``).  ``wall_s``,
``job_s_p50`` and ``job_s_p90`` come from the job latencies.  Every
time reported is scaled to a reference machine pace (see REF_PACE_S);
the JSON report keeps the times as measured too.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics from traced passes
(see ``spans.py``), alternated with untraced ones to measure the
tracing overhead.  A readable report goes to stderr, and a JSON report
(plus the recorded spans when tracing) to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads, so that --workers 2 in
# hitting-escape is the only parallelism.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import dataclasses
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import checks
import jobs as jobs_mod

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3
MIN_SAMPLES = 110  # p90 needs at least ten job samples beyond it
# about the seconds a pass takes on a 2-vCPU x86 VM; a run makes
# --seconds / NOMINAL_PASS_S passes, so --seconds 25 gives exact-analytic
# and evl-sweep four passes and hitting-escape seven
NOMINAL_PASS_S = {"evl-sweep": 6.0, "hitting-escape": 3.5, "exact-analytic": 6.0}
SETUP_REPEATS = 5
# Times are reported at a reference machine pace.  On a shared 2-vCPU
# VM the speed of the same code drifts by up to 1.7x and stays fast or
# slow for tens of seconds, so whole runs of the same code differ.
# Before and after each job, and each timed set-up step, the benchmark
# times a fixed piece of work of the same kind (see PACES) and scales
# the time by REF_PACE_S over the mean of those two readings.  Over six
# sets of ten seeds the interquartile spread of wall_s, as a share of
# the median, was 0.11-0.27 as measured and 0.01-0.05 scaled on
# exact-analytic, and 0.06-0.17 against 0.01-0.08 on the other two.
# A pace must match the work: the interpreter pace does not follow the
# numpy kernels (scaling evl-sweep by it widened the spread).  Each
# REF_PACE_S is about the median reading inside runs on that VM.
REF_PACE_S = {"interpreter": 0.003, "kernels": 0.0045}
RSS_PASS = 3  # peak RSS is read after this many passes in every workload

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("job_s_p50", "s"),
    ("job_s_p90", "s"), ("peak_rss_mb", "MB"),
)

KERNELS = [f"montecarlo.{kind}.{fam}" for kind in ("evl", "entry")
           for fam in ("uniform2", "uniformd", "horner")]
LAYERS = ("intervals", "maps", "events", "brackets", "montecarlo", "cli")
# group -> (member spans or a span-name prefix, quantities)
GROUPS = {
    "montecarlo.convergence_sweep": (["montecarlo.convergence_sweep"], ("self_s",)),
    "montecarlo.ulam_escape_oracle": (["montecarlo.ulam_escape_oracle"], ("self_s",)),
    "brackets.optimize_kt_evl": (["brackets.optimize_kt_evl"],
                                 ("calls", "self_s", "candidates")),
    "brackets.optimize_kt_hts": (["brackets.optimize_kt_hts"],
                                 ("calls", "self_s", "candidates")),
    "brackets.brackets": ([f"brackets.{b}_bracket" for b in
                           ("general_evl", "limit_evl", "sharp_evl",
                            "sharp_hts")], ("calls", "self_s")),
    "events.survivor_set": (["events.survivor_set"],
                            ("calls", "self_s", "components_out")),
    "events.exact_prob": (["events.exact_evl_prob", "events.exact_hts_prob"],
                          ("calls", "self_s")),
    "events.annulus_set": (["events.annulus_set"], ("calls", "self_s")),
    "events.first_return_time": (["events.first_return_time"],
                                 ("calls", "self_s", "steps")),
    "events.dprime_sum": (["events.dprime_sum"], ("calls", "self_s", "terms")),
    "events.theta": (["events.theta_n", "events.theta_limit",
                      "events.theta_limit_exact"], ("calls", "self_s")),
    "maps.preimage": (["maps.FullBranchMap.preimage"],
                      ("calls", "self_s", "components_out")),
    "maps.image": (["maps.FullBranchMap.image"],
                   ("calls", "self_s", "components_out")),
    "maps.periodic_sum": (["maps.weighted_periodic_sum"], ("calls", "self_s")),
    "maps.periodic_points": (["maps.periodic_points"], ("calls", "points_out")),
    "maps.ulam_matrix": (["maps.ulam_matrix"], ("self_s", "cells")),
    "maps.open_system_decay_rate": (["maps.open_system_decay_rate"], ("self_s",)),
    "intervals.ops": ("intervals.", ("calls", "self_s", "components_out")),
    # self time of the whole CLI layer except the writer; calls of main
    "cli.main": ("cli.", ("calls", "self_s")),
    "cli.write_outputs": (["cli.write_outputs"], ("calls", "self_s", "bytes")),
}
# the exact sub-layers of exact-analytic, timed with the maps and
# intervals work they call: blocking optimizers, survivor-set recursions
# and periodic-orbit sums
SUBLAYERS = {
    "brackets.optimize_kt": ["brackets.optimize_kt_evl",
                             "brackets.optimize_kt_hts"],
    "events.survivor_set": ["events.survivor_set", "events.annulus_set",
                            "events.exact_evl_prob", "events.exact_hts_prob"],
    "maps.periodic_sum": ["maps.weighted_periodic_sum", "maps.periodic_points"],
}
UNITS = {"self_s": ("s", "lower"), "calls": ("count", "lower"),
         "steps": ("count", "higher"), "steps_per_s": ("1/s", "higher"),
         "candidates": ("count", "lower"), "components_out": ("count", "lower"),
         "points_out": ("count", "lower"), "terms": ("count", "lower"),
         "cells": ("count", "lower"), "bytes": ("B", "lower"),
         "self_share": ("ratio", "lower")}


def per_layer_names() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for k in KERNELS:
        out += [(f"{k}.{q}",) + UNITS[q] for q in ("self_s", "steps", "steps_per_s")]
    out += [("mc_steps_per_s", "1/s", "higher"),
            ("montecarlo.evl.live_lane_ratio", "ratio", "lower"),
            ("montecarlo.entry.censored_ratio", "ratio", "lower")]
    for group, (_, quantities) in GROUPS.items():
        out += [(f"{group}.{q}",) + UNITS[q] for q in quantities]
    out += [(f"{layer}.self_share",) + UNITS["self_share"] for layer in LAYERS]
    out += [(f"{group}.incl_share",) + UNITS["self_share"] for group in SUBLAYERS]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


# ---------------------------------------------------------------------------
# program import and job execution
# ---------------------------------------------------------------------------


def import_program():
    """Import extremap from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "extremap" / "__init__.py").is_file():
        sys.exit(f"error: no extremap sources under {src}")
    sys.path.insert(0, str(src))
    import extremap
    from extremap import cli
    if Path(extremap.__file__).resolve().parent != (src / "extremap").resolve():
        sys.exit(f"error: imported extremap from {extremap.__file__}")
    return cli


def _call(argv):
    from extremap import events, maps, montecarlo

    fn, spec, z, tau, n = argv[:5]
    m = maps.FullBranchMap.from_spec(spec)
    if fn == "estimate_evl":
        trials, seed = argv[5:7]
        return montecarlo.estimate_evl(m, events.Observable(F(z)), n, F(tau),
                                       trials, seed)
    U = events.threshold_for(events.Observable(F(z)), n, F(tau)).exceedance
    return getattr(events, fn)(m, U, n)


def is_mc(job) -> bool:
    """Monte Carlo jobs spend their time in numpy kernels, the others in
    the interpreter."""
    return job.argv[0] in ("evl", "hts", "escape", "estimate_evl")


def job_dir(work: Path, job) -> Path:
    return work / hashlib.sha1(job.name.encode()).hexdigest()[:16]


def execute(cli, job, work: Path):
    """Run one job; returns (exit code, direct-call result or None)."""
    if job.kind == "cli":
        return cli.main(list(job.argv) + ["--out", str(job_dir(work, job))]), None
    return 0, _call(job.argv)


def collect(job, work: Path, result):
    """(parsed output, digest of the raw output bytes)."""
    if job.kind == "call":
        raw = repr(result).encode()
        if dataclasses.is_dataclass(result):
            result = dataclasses.asdict(result)
        return result, hashlib.sha256(raw).hexdigest()
    d = job_dir(work, job)
    js = (d / f"{job.argv[0]}.json").read_bytes()
    cs = (d / f"{job.argv[0]}.csv").read_bytes()
    return json.loads(js), hashlib.sha256(js + cs).hexdigest()


class Run:
    """Passes over one job list, with per-job checks after each pass."""

    def __init__(self, cli, job_list, work: Path):
        self.cli, self.jobs, self.work = cli, job_list, work
        self.latencies: list = []  # seconds, as measured
        self.scaled: list = []     # the same, at the reference pace
        self.paces: list = []      # readings between jobs, kind -> seconds
        self.walls: list = []
        self.failures: list = []  # (pass, job, messages)
        self.known: list = []     # failures of jobs marked known_defect
        self.attempted = 0
        self.digests: dict = {}  # job name -> output digest of pass 1
        self.first_outputs: dict = {}

    def one_pass(self) -> float:
        """Run every job once; returns the sum of their latencies."""
        kinds = ["kernels" if is_mc(job) else "interpreter" for job in self.jobs]
        results, readings = [], []
        try:
            for i, job in enumerate(self.jobs):
                # What earlier jobs left is collected and the survivors are
                # frozen, so the collections inside a job traverse only what
                # it allocates, as in a fresh extremap process; nothing is
                # freed that the program still holds.
                gc.collect()
                gc.freeze()
                # the pace after the previous job and the pace before this one
                readings.append({k: PACES[k]() for k in
                                 dict.fromkeys(kinds[max(i - 1, 0):i + 1])})
                t0 = time.perf_counter()
                try:
                    rc, result = execute(self.cli, job, self.work)
                except Exception:
                    rc, result = None, traceback.format_exc(limit=3)
                results.append((job, time.perf_counter() - t0, rc, result))
            readings.append({kinds[-1]: PACES[kinds[-1]]()})
        finally:
            gc.unfreeze()
        for (_, dt, _, _), k, before, after in zip(results, kinds, readings,
                                                   readings[1:]):
            self.scaled.append(at_reference_pace(dt, k, before[k], after[k]))
        self.paces += readings
        wall = sum(dt for _, dt, _, _ in results)
        self.walls.append(wall)
        self._check(results)
        return wall

    def _check(self, results):
        index = len(self.walls)
        outputs, pending = {}, []
        for job, dt, rc, result in results:
            self.latencies.append(dt)
            self.attempted += 1
            if rc is None:
                self._record(index, job, [f"raised: {result.strip()}"])
            elif rc != 0:
                self._record(index, job, [f"exit code {rc}"])
            else:
                try:
                    out, digest = collect(job, self.work, result)
                except (OSError, ValueError) as exc:
                    self._record(index, job, [f"unreadable output: {exc}"])
                    continue
                outputs[job.name] = out
                self.first_outputs.setdefault(job.name, out)
                first = self.digests.setdefault(job.name, digest)
                pending.append((job, rc, out, [] if first == digest else
                                ["output differs from pass 1"]))
        for job, rc, out, fails in pending:
            found = []
            try:
                found = checks.run_check(job, rc, out, outputs)
            except Exception:
                fails.append(f"check raised: {traceback.format_exc(limit=2)}")
            if job.known_defect:
                self._record(index, job, fails, known=found)
            else:
                self._record(index, job, fails + found)

    def _record(self, index, job, fails, known=()):
        """Count a failed job execution once; ``known`` holds what the
        output check of a known-defect job found, which is reported but
        not counted.  Any other failure of that job counts."""
        if fails:
            self.failures.append((index, job, fails))
        if known:
            self.known.append((index, job, list(known)))

    @property
    def failed(self) -> int:
        return len(self.failures)


def interpreter_pace() -> float:
    """Seconds for a fixed piece of pure-Python rational arithmetic that
    uses no extremap code: the orbits of a/b, b < 10, under doubling."""
    widths = jobs_mod.BRANCH_WIDTHS[jobs_mod.DOUBLING]
    t0 = time.perf_counter()
    for b in range(1, 10):
        for a in range(b):
            jobs_mod.orbit_type(widths, F(a, b))
    return time.perf_counter() - t0


_LANES = np.random.default_rng(1).integers(0, 2 ** 62, 1 << 15, np.uint64)


def kernel_pace() -> float:
    """Seconds for fixed numpy work like that of the Monte Carlo kernels:
    shifting, masking and reducing 32768 uint64 lanes, 20 times over."""
    a, t = _LANES.copy(), np.empty_like(_LANES)
    hit = np.zeros(a.shape, bool)
    t0 = time.perf_counter()
    for _ in range(20):
        np.right_shift(a, np.uint64(63), out=t)
        np.left_shift(a, np.uint64(1), out=a)
        np.bitwise_or(a, t, out=a)
        np.mod(a, np.uint64(1000003), out=t)
        hit |= t < 1000
    return time.perf_counter() - t0


PACES = {"interpreter": interpreter_pace, "kernels": kernel_pace}


def at_reference_pace(seconds: float, kind: str, before: float,
                      after: float) -> float:
    """``seconds`` of work of ``kind`` at that kind's reference pace, from
    the readings of its pace just before and just after the work."""
    return seconds * 2 * REF_PACE_S[kind] / (before + after)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def time_import() -> tuple:
    """(None, seconds to import the program in a fresh interpreter)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import extremap.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return None, float(done.stdout)


class Setup:
    """Set-up time: the import plus job generation and reference values.

    Generation and references are timed SETUP_REPEATS times, once before
    the first pass and the rest spread between later passes, so that
    their median samples the machine over the whole run.  The import is
    timed SETUP_REPEATS times in fresh interpreters after the last pass,
    because a child's peak RSS counts the memory its parent held when it
    was started, and peak RSS is read before then.  Both are interpreted
    work, scaled to the interpreter's reference pace like the jobs; each
    timing is kept as a (measured, scaled) pair.
    """

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.imports: list = []
        self.prepares: list = []

    @staticmethod
    def _timed(fn, into: list):
        """Call ``fn``, which returns (result, seconds); record the seconds."""
        before = interpreter_pace()
        result, dt = fn()
        into.append((dt, at_reference_pace(dt, "interpreter", before,
                                           interpreter_pace())))
        return result

    def _build(self) -> tuple:
        t0 = time.perf_counter()
        job_list = jobs_mod.references(jobs_mod.build_jobs(self.workload,
                                                           self.seed))
        return job_list, time.perf_counter() - t0

    def prepare(self) -> list:
        return self._timed(self._build, self.prepares)

    def schedule(self, passes: int) -> collections.Counter:
        """pass index -> number of further ``prepare`` calls after it."""
        return collections.Counter(
            max(1, round(i * passes / (SETUP_REPEATS - 1)))
            for i in range(1, SETUP_REPEATS))

    def time_imports(self):
        for _ in range(SETUP_REPEATS):
            self._timed(time_import, self.imports)

    @property
    def seconds(self) -> float:
        return sum(statistics.median(s for _, s in timings)
                   for timings in (self.imports, self.prepares))


def pass_count(workload: str, n_jobs: int, seconds: float) -> int:
    return max(MIN_PASSES, math.ceil(MIN_SAMPLES / n_jobs),
               round(seconds / NOMINAL_PASS_S[workload]))


def job_medians(run: Run) -> dict:
    n = len(run.jobs)
    return {job.name: statistics.median(run.scaled[j::n])
            for j, job in enumerate(run.jobs)}


def end_to_end(run: Run, setup_s: float, rss: float) -> dict:
    """wall_s is a pass's wall time built from each job's median latency,
    which keeps a burst of machine noise inside one pass from moving it.
    Job latencies are those of ``Run.scaled``."""
    q = statistics.quantiles(run.scaled, n=10)
    return {"setup_s": setup_s, "wall_s": sum(job_medians(run).values()),
            "job_s_p50": statistics.median(run.scaled),
            "job_s_p90": q[8], "peak_rss_mb": rss}


# ---------------------------------------------------------------------------
# traced metrics
# ---------------------------------------------------------------------------


def output_ratios(run: Run) -> dict:
    """Lane and censoring ratios read from the first pass's outputs."""
    live = trials = censored = entry_trials = 0
    for job in run.jobs:
        out = run.first_outputs.get(job.name)
        if out is None or job.argv[0] not in ("evl", "hts", "escape"):
            continue
        n_trials = int(float(job.argv[job.argv.index("--trials") + 1]))
        rows = out["rows"]
        if job.argv[0] == "evl":
            top = max(rows, key=lambda r: r["scale"])
            live += top["estimate"] * n_trials
            trials += n_trials
        elif job.argv[0] == "hts":
            censored += rows[0]["censored"]
            entry_trials += n_trials
        elif job.argv[0] == "escape":
            censored += sum(r["censored"] for r in rows)
            entry_trials += n_trials * len(rows)
    return {"montecarlo.evl.live_lane_ratio": live / trials if trials else 0.0,
            "montecarlo.entry.censored_ratio":
                censored / entry_trials if entry_trials else 0.0}


def per_layer(tracer, run: Run, traced_walls, plain_walls, mc_job_s) -> dict:
    stats = tracer.self_times()
    passes = len(traced_walls)
    counts = tracer.counts

    def members(spec):
        if isinstance(spec, list):
            return spec
        return [n for n in stats if n.startswith(spec)
                and n not in GROUPS["cli.write_outputs"][0]]

    out = {}
    total_steps = 0
    for k in KERNELS:
        self_s = stats.get(k, (0, 0.0))[1] / passes
        steps = counts.get(f"{k}.steps", 0) / passes
        out[f"{k}.self_s"] = self_s
        out[f"{k}.steps"] = steps
        out[f"{k}.steps_per_s"] = steps / self_s if self_s > 0 else 0.0
        total_steps += steps
    out["mc_steps_per_s"] = total_steps / mc_job_s if mc_job_s > 0 else 0.0
    out.update(output_ratios(run))
    for group, (spec, quantities) in GROUPS.items():
        names = members(spec)
        for q in quantities:
            if q == "self_s":
                v = sum(stats.get(n, (0, 0.0))[1] for n in names)
            elif q == "calls":
                primary = [group] if group == "cli.main" else names
                v = sum(stats.get(n, (0, 0))[0] for n in primary)
            else:
                v = sum(counts.get(f"{n}.{q}", 0) for n in names)
            out[f"{group}.{q}"] = v / passes
    traced_total = sum(traced_walls)
    for layer in LAYERS:
        layer_self = sum(s for n, (_, s) in stats.items()
                         if n.startswith(layer + "."))
        out[f"{layer}.self_share"] = layer_self / traced_total
    for group, members in SUBLAYERS.items():
        out[f"{group}.incl_share"] = tracer.inclusive_s(members) / traced_total
    # each traced pass follows an untraced one; pairing them cancels the
    # drift between early and late passes
    out["trace.overhead_s"] = statistics.median(
        t - p for t, p in zip(traced_walls, plain_walls))
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def report(args, run: Run, metrics: dict, units: dict, extra: dict):
    log = sys.stderr
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.walls)} passes of {len(run.jobs)} jobs, "
          f"{len(run.latencies)} job samples", file=log)
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}", file=log)
    n = len(run.jobs)
    raw = sum(statistics.median(run.latencies[j::n]) for j in range(n))
    print(f"  {'wall_s as measured':48s} {raw:.6g} s", file=log)
    if "setup_import_s" in extra:
        raw = sum(statistics.median(m for m, _ in extra[k])
                  for k in ("setup_import_s", "setup_prepare_s"))
        print(f"  {'setup_s as measured':48s} {raw:.6g} s", file=log)
    for k, ref in REF_PACE_S.items():
        readings = [r[k] for r in run.paces if k in r]
        if readings:
            print(f"  {k + ' pace, median':48s} {statistics.median(readings):.4g}"
                  f" s (reference {ref} s)", file=log)
    print(f"  attempted {run.attempted}, failed {run.failed}, "
          f"failed_ratio {run.failed / run.attempted:.4f} "
          f"(known defects excluded)", file=log)
    for index, job, fails in run.failures:
        print(f"  FAILED pass {index} {job.name}: {'; '.join(fails)}", file=log)
    for job in run.jobs:
        if job.known_defect:
            seen = [fails for _, j, fails in run.known if j.name == job.name]
            print(f"  KNOWN DEFECT ({job.known_defect}) {job.name}: failed "
                  f"{len(seen)} of {len(run.walls)} passes"
                  + (f"; {'; '.join(seen[0])}" if seen else ""), file=log)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(run.walls), "jobs": [j.name for j in run.jobs],
        "job_samples": len(run.latencies), "pass_walls": run.walls,
        "job_median_s": job_medians(run), "latencies": run.latencies,
        "scaled_latencies": run.scaled, "paces": run.paces,
        "attempted": run.attempted, "failed": run.failed,
        "failures": [(i, j.name, f) for i, j, f in run.failures],
        "known_defects": [(i, j.name, f) for i, j, f in run.known],
        "metrics": {k: [v, units[k]] for k, v in metrics.items()},
        **extra}, indent=1, default=str) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs_mod.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_program()
    prep = Setup(args.workload, args.seed)
    job_list = prep.prepare()
    work = OUT / f"jobs-{os.getpid()}"
    run = Run(cli, job_list, work)
    extra = {}
    try:
        passes = pass_count(args.workload, len(job_list), args.seconds)
        if args.trace == 0:
            rss = None
            prepares_after = prep.schedule(passes)
            for _ in range(passes):
                run.one_pass()
                if len(run.walls) == RSS_PASS:
                    rss = peak_rss_mb()
                for _ in range(prepares_after[len(run.walls)]):
                    if prep.prepare() != job_list:
                        sys.exit("error: job generation is not deterministic")
            prep.time_imports()
            metrics = end_to_end(run, prep.seconds, rss)
            units = dict(END_TO_END)
            # (measured, scaled) pairs
            extra = {"setup_import_s": prep.imports,
                     "setup_prepare_s": prep.prepares}
        else:
            import spans
            tracer = spans.Tracer()
            traced, plain, mc_job_s = [], [], []
            for _ in range(max(2, math.ceil(passes / 2))):
                before = len(run.latencies)
                plain.append(run.one_pass())
                mc_job_s.append(sum(
                    dt for job, dt in zip(run.jobs, run.latencies[before:])
                    if is_mc(job)))
                tracer.install()
                try:
                    traced.append(run.one_pass())
                finally:
                    tracer.uninstall()
            metrics = per_layer(tracer, run, traced, plain,
                                statistics.median(mc_job_s))
            units = {n: u for n, u, _ in per_layer_names()}
            OUT.mkdir(exist_ok=True)
            span_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.save(span_path)
            extra = {"spans": str(span_path.relative_to(ROOT)),
                     "span_count": len(tracer.spans) // 4,
                     "mc_spans_note": "at workers > 1 a kernel span includes "
                                      "process-pool start-up and transfer"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, run, metrics, units, extra)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
