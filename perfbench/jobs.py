"""Seeded job lists for the three benchmark workloads.

A workload is a fixed list of jobs generated from the workload seed.  A
job is either an in-process ``extremap`` command line (``kind == "cli"``)
or a call to a public library function that has no command of its own
(``kind == "call"``).  The program receives only the generated inputs;
the reference values that the checks compare against are computed by
``references`` during set-up.

Centres are rationals with denominators <= 17, classified here (without
the library) as fixed points, periodic points of prime period >= 2, or
preperiodic points of each map.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

WORKLOADS = {
    "evl-sweep": (
        "extremap evl convergence sweeps on the three EVL kernels (uniform d=2 "
        "bit window, d>=3 modular window, Horner), plus an n<=12 "
        "MC-vs-exact_evl_prob slice"),
    "hitting-escape": (
        "extremap hts and escape at workers=2: first-entry kernels with early "
        "exit, the per-call process pool and the Ulam escape oracle"),
    "exact-analytic": (
        "no Monte Carlo: blocking optimizers, exact survivor-set recursions "
        "and periodic-orbit sums via bounds, check, ei, pressure and the "
        "exact oracles"),
}

DOUBLING, TRIPLING, WIDTHS = "doubling", "tripling", "widths:1/2,1/4,1/4"
# The Horner kernel reconstructs orbits to a fixed digit depth, which is
# too shallow for this skewed map: the job below is expected to fail its
# MC-vs-exact check until the depth is derived from the branch widths.
SKEWED = "widths:49/50,1/50"
KNOWN_DEFECT = "Horner depth too shallow for widths:49/50,1/50"

BRANCH_WIDTHS = {
    DOUBLING: (F(1, 2),) * 2,
    TRIPLING: (F(1, 3),) * 3,
    WIDTHS: (F(1, 2), F(1, 4), F(1, 4)),
    SKEWED: (F(49, 50), F(1, 50)),
}
MAX_DEN = 17
PERIOD = 3
WORKERS = 2


@dataclass(frozen=True)
class Job:
    """One unit of work: ``argv`` is a command line or a call description.

    ``check`` names the output check in ``checks``; ``ref`` holds what
    that check compares against, filled in by ``references``.
    """

    name: str
    kind: str
    argv: tuple
    check: str
    ref: object = None
    known_defect: str = ""


# ---------------------------------------------------------------------------
# centres
# ---------------------------------------------------------------------------


def step(widths, x: F) -> tuple:
    """One step of the full-branch affine map: (image, slope used)."""
    lo = F(0)
    for w in widths:
        if x < lo + w:
            return (x - lo) / w, 1 / w
        lo += w
    raise ValueError(f"{x} outside [0, 1)")


def orbit_type(widths, zeta: F, cap: int = 64):
    """("fixed" | "periodic", period, multiplier) or ("preperiodic", 0, 1)."""
    seen = {zeta}
    x, mult = zeta, F(1)
    for p in range(1, cap + 1):
        x, slope = step(widths, x)
        mult *= slope
        if x == zeta:
            return ("fixed" if p == 1 else "periodic"), p, mult
        if x in seen:
            return "preperiodic", 0, F(1)
        seen.add(x)
    raise ValueError(f"orbit of {zeta} longer than {cap}")


@functools.lru_cache(maxsize=None)
def centres(spec: str) -> dict:
    """Rationals a/b, b <= 17, by orbit type.

    On non-uniform maps the branch endpoints are left out: their
    one-sided slopes differ, so the limit extremal index there is not
    the orbit multiplier's.  Periodic centres all have period 3: the
    annulus at q = p takes p exact preimages of the ball, so a fixed
    period keeps that work the same whichever centre the seed picks.
    """
    widths = BRANCH_WIDTHS[spec]
    ends = set()
    if len(set(widths)) > 1:
        ends = {sum(widths[:i], F(0)) for i in range(len(widths))}
    out = {"fixed": [], "periodic": [], "preperiodic": []}
    for b in range(1, MAX_DEN + 1):
        for a in range(b):
            z = F(a, b)
            if z.denominator != b or z in ends:
                continue
            kind, period, _ = orbit_type(widths, z)
            if kind != "periodic" or period == PERIOD:
                out[kind].append(z)
    return out


def _jitter(rng: random.Random, base: int) -> int:
    # a small jitter: the seed varies the grids without changing the work
    return round(base * (0.98 + 0.04 * rng.random()))


def _grid(values) -> str:
    return ",".join(str(v) for v in values)


def _slot_centre(rng: random.Random, spec: str, i: int) -> F:
    """Centre of the i-th job in a slice; kinds cycle with the slot."""
    return rng.choice(centres(spec)[SLOT_KINDS[i % len(SLOT_KINDS)]])


def _mc_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2 ** 31))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# per family: sweep n grid, centre kinds of the two sweeps, and the n of
# each oracle-slice job.  The grids give each kernel family about a third
# of the sweep time at 2e4 trials; the slice n keep the exact oracle cheap.
# Only centres and MC seeds vary with the seed, so the work per pass
# stays the same.  The two extra tripling slice jobs put the median job
# latency inside the tripling cluster rather than at a cluster edge.
EVL_FAMILIES = (
    (DOUBLING, (1000, 10000), ("periodic", "preperiodic"), (8, 9, 10, 11, 12)),
    (TRIPLING, (500, 2000), ("periodic", "fixed"), (6, 6, 7, 7, 7, 8, 8)),
    (WIDTHS, (100, 400), ("periodic", "preperiodic"), (6, 6, 7, 7, 8)),
)
EVL_TRIALS = "2e4"
# the slice runs more trials so that its small jobs are still kernel-bound
SLICE_TRIALS = "1e5"
TAUS = ("1/2", "1", "2")
SLOT_KINDS = ("periodic", "preperiodic", "fixed", "periodic", "preperiodic")


def _evl_sweep(rng: random.Random) -> list:
    jobs = []
    for spec, grid, kinds, slice_ns in EVL_FAMILIES:
        for i, kind in enumerate(kinds):
            z = rng.choice(centres(spec)[kind])
            ns = _grid(_jitter(rng, n) for n in grid)
            jobs.append(Job(
                f"evl-{spec}-{kind}-{z}", "cli",
                ("evl", "--map", spec, "--zeta", str(z), "--n", ns,
                 "--tau", TAUS[i], "--trials", EVL_TRIALS, "--seed",
                 _mc_seed(rng), "--workers", "1"),
                "evl_limit"))
        for i, n in enumerate(slice_ns):
            z = _slot_centre(rng, spec, i)
            tau = TAUS[i % len(TAUS)]
            jobs.append(Job(
                f"evl-exact-{spec}-{i}-{z}-n{n}", "cli",
                ("evl", "--map", spec, "--zeta", str(z), "--n", str(n),
                 "--tau", tau, "--trials", SLICE_TRIALS, "--seed",
                 _mc_seed(rng), "--workers", "1"),
                "evl_exact"))
    # The command line cannot bracket n = 8 on this map (blocking needs
    # ell >= 1), so the estimator is called directly.
    jobs.append(Job(
        f"evl-exact-{SKEWED}-1/3-n8", "call",
        ("estimate_evl", SKEWED, "1/3", "2", 8, 20000, int(_mc_seed(rng))),
        "evl_exact", known_defect=KNOWN_DEFECT))
    return jobs


# eps = 1/16 gives P(B) = 1/8, so these tau grids end at t = 10 and t = 6
# and the job counts put the median job latency inside the cluster of
# tripling jobs rather than at its edge
HTS_SLICE = ((DOUBLING, "1/2,1,5/4", 7), (TRIPLING, "1/4,1/2,3/4", 5),
             (WIDTHS, "1/4,1/2,3/4", 5))


def _aligned_eps(z: F) -> F:
    """Hole radius on the 1/(den*m) grid with P(B) nearest 1/30: small
    enough for the fit window, large enough for a short horizon."""
    den = z.denominator
    m = max(1, round(60 / den))
    return F(1, den * m)


def _hitting_escape(rng: random.Random) -> list:
    jobs = []
    workers = ("--workers", str(WORKERS))
    for i, (spec, kind, trials) in enumerate((
            (DOUBLING, "periodic", "2e5"), (DOUBLING, "preperiodic", "2e5"),
            (TRIPLING, "periodic", "1e5"))):
        z = rng.choice(centres(spec)[kind])
        eps = _aligned_eps(z)
        jobs.append(Job(
            f"escape-{spec}-{i}-{kind}-{z}-{eps}", "cli",
            ("escape", "--map", spec, "--zeta", str(z), "--eps", str(eps),
             "--trials", trials, "--seed", _mc_seed(rng)) + workers,
            "escape"))
    # the p90 latency falls among the two doubling escape jobs; fewer
    # Horner trials put the widths job beside them rather than between
    # them and the tripling escape job, where p90 would sit at a gap
    for i, (spec, trials) in enumerate((
            (DOUBLING, "1e5"), (DOUBLING, "1e5"), (TRIPLING, "1e5"),
            (WIDTHS, "7e4"))):
        z = _slot_centre(rng, spec, i)
        eps = F(1, 64)
        jobs.append(Job(
            f"hts-{spec}-{i}-{z}-{eps}", "cli",
            ("hts", "--map", spec, "--zeta", str(z), "--eps", str(eps),
             "--tau", "1/2,1,2", "--trials", trials, "--seed",
             _mc_seed(rng)) + workers,
            "hts"))
    for spec, taus, count in HTS_SLICE:
        for i in range(count):
            z = _slot_centre(rng, spec, i)
            jobs.append(Job(
                f"hts-exact-{spec}-{i}-{z}", "cli",
                ("hts", "--map", spec, "--zeta", str(z), "--eps", "1/16",
                 "--tau", taus, "--trials", "5e4", "--seed",
                 _mc_seed(rng)) + workers,
                "hts_exact"))
    return jobs


def ei_eps(spec: str, z: F) -> list:
    """Radii small enough that theta_n equals the limit index exactly.

    At a period-p centre with multiplier M, a ball of radius below
    1 / (2 * den * L * M), L the common denominator of the branch
    endpoints, stays inside the centre's p-cylinder and misses its own
    images before time p, so A(p) = B minus the radius/M ball.
    """
    widths = BRANCH_WIDTHS[spec]
    mult = orbit_type(widths, z)[2]
    L = math.lcm(*(w.denominator for w in widths))
    top = F(1, 2 * z.denominator * L) / mult
    return [top / 2 ** i for i in (1, 2, 3)]


# sharp-evl n grid, and the number of proposition configurations per
# check job; they size the optimizer and survivor-set shares of a pass
SHARP_EVL_N = (10000, 20000)
CHECK_PROPS = "2"


def _exact_analytic(rng: random.Random) -> list:
    jobs = []
    maps = (DOUBLING, TRIPLING, WIDTHS)
    # two sharp-evl jobs per map: with the limit and general bounds and
    # check on doubling they form the cluster of jobs near 0.25 s that
    # the p90 latency falls in
    for i, spec in enumerate(maps + maps):
        z = rng.choice(centres(spec)["periodic"])
        ns = _grid(_jitter(rng, n) for n in SHARP_EVL_N)
        jobs.append(Job(
            f"bounds-sharp-evl-{spec}-{i}-{z}", "cli",
            ("bounds", "--map", spec, "--zeta", str(z), "--bracket",
             "sharp-evl", "--n", ns), "bounds"))
    # dprime_sum has a closed form only on uniform maps; on widths it
    # enumerates preimages and is kept to check's small n grid below.
    for bracket, spec in (("limit", DOUBLING), ("general", TRIPLING)):
        z = rng.choice(centres(spec)["periodic"])
        ns = _grid(_jitter(rng, n) for n in (1000, 10000))
        jobs.append(Job(
            f"bounds-{bracket}-{spec}-{z}", "cli",
            ("bounds", "--map", spec, "--zeta", str(z), "--bracket",
             bracket, "--n", ns), "bounds"))
    for spec in (DOUBLING, TRIPLING):
        z = rng.choice(centres(spec)["periodic"])
        eps = _grid(F(1, _jitter(rng, m)) for m in (1000, 50000))
        jobs.append(Job(
            f"bounds-sharp-hts-{spec}-{z}", "cli",
            ("bounds", "--map", spec, "--zeta", str(z), "--bracket",
             "sharp-hts", "--eps", eps), "bounds"))
    # check draws its proposition configurations from --seed, and a config
    # can cost anything from 0.01 s to 30 s; a fixed seed keeps that work
    # the same in every run.  Seed 1 draws n_i = 5 and 8.
    for spec, ns in ((DOUBLING, "256,1024,4096"), (TRIPLING, "256,1024,4096"),
                     (WIDTHS, "12,16")):
        z = rng.choice(centres(spec)["periodic"])
        jobs.append(Job(
            f"check-{spec}-{z}", "cli",
            ("check", "--map", spec, "--zeta", str(z), "--n", ns,
             "--prop-configs", CHECK_PROPS, "--seed", "1"), "check"))
    for spec, kind in zip(maps, ("periodic", "fixed", "preperiodic")):
        z = rng.choice(centres(spec)[kind])
        jobs.append(Job(
            f"ei-{spec}-{kind}-{z}", "cli",
            ("ei", "--map", spec, "--zeta", str(z), "--eps",
             _grid(ei_eps(spec, z))), "ei"))
    # every pressure call leaves its periodic points in the program's
    # cache (about 30 MB at n = 10 on tripling or widths); the zero
    # potential stops at 9 to keep that growth near 80 MB a pass
    for spec in maps:
        for potential, n_max in (("geometric", "10"), ("zero", "9")):
            jobs.append(Job(f"pressure-{potential}-{spec}", "cli",
                            ("pressure", "--map", spec, "--potential",
                             potential, "--n-max", n_max),
                            f"pressure_{potential}"))
    # The exact cost varies up to 3x with the centre, and the median job
    # latency falls among these jobs: many small jobs per map, rather than
    # a few large ones, keep that median from following the seed (with 8
    # centres per map its spread over ten seeds reached 0.11 of the median).
    exact = [(DOUBLING, 9)] * 16 + [(TRIPLING, 6)] * 16 + [(WIDTHS, 6)] * 16
    for i, (spec, n) in enumerate(exact):
        z = _slot_centre(rng, spec, i % 16)
        tau = TAUS[i % 2]
        base = f"exact-{spec}-{i}-{z}-n{n}"
        jobs.append(Job(base + "-evl", "call",
                        ("exact_evl_prob", spec, str(z), tau, n),
                        "exact_evl"))
        jobs.append(Job(base + "-hts", "call",
                        ("exact_hts_prob", spec, str(z), tau, n),
                        "exact_hts", ref=base + "-evl"))
    return jobs


GENERATORS = {
    "evl-sweep": _evl_sweep,
    "hitting-escape": _hitting_escape,
    "exact-analytic": _exact_analytic,
}


def build_jobs(workload: str, seed: int) -> list:
    """The workload's job list; the same (workload, seed) gives the same list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def references(jobs: list) -> list:
    """Attach to each job the values its check compares against.

    The MC slices compare with the exact interval-algebra oracles, so
    those are computed here, in set-up, once per job.
    """
    from extremap import maps, events, intervals

    out = []
    for job in jobs:
        ref = job.ref
        if job.check == "evl_exact":
            if job.kind == "call":
                _, spec, z, tau, n = job.argv[:5]
            else:
                spec, z, tau, n = (_argv_value(job.argv, f) for f in
                                   ("--map", "--zeta", "--tau", "--n"))
            m = maps.FullBranchMap.from_spec(spec)
            U = events.threshold_for(events.Observable(F(z)), int(n),
                                     F(tau)).exceedance
            ref = events.exact_evl_prob(m, U, int(n))
        elif job.check == "hts_exact":
            spec, z, eps, taus = (_argv_value(job.argv, f) for f in
                                  ("--map", "--zeta", "--eps", "--tau"))
            m = maps.FullBranchMap.from_spec(spec)
            B = intervals.ball(F(z), F(eps))
            PB = B.measure()
            ref = {t: events.exact_hts_prob(m, B, int(F(t) / PB))
                   for t in taus.split(",")}
        elif job.check == "ei":
            spec, z = _argv_value(job.argv, "--map"), F(_argv_value(
                job.argv, "--zeta"))
            kind, _, mult = orbit_type(BRANCH_WIDTHS[spec], z)
            ref = 1 - 1 / mult if kind != "preperiodic" else F(1)
        elif job.check == "pressure_zero":
            ref = math.log(len(BRANCH_WIDTHS[_argv_value(job.argv, "--map")]))
        out.append(Job(job.name, job.kind, job.argv, job.check, ref,
                       job.known_defect))
    return out
