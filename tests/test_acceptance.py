"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Criteria marked exact run in rational arithmetic with zero tolerance.
The Monte Carlo criteria pin their seeds, so every run is bit-for-bit
reproducible.  AC-9 checks the order of the expansion defect at the
order that actually leads: n^-3, or n^-4 where the third-order
coefficient -x^4 (x+2)(x+6) / 48 vanishes (x = -2 on the grid).  The
defect scaled by n^k must stay within a factor 10 over the n grid and
match the leading coefficient to 1e-3 at n = 10^4.
"""

import csv
import json
import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from extremap.intervals import IntervalUnion, ball
from extremap.maps import FullBranchMap
from extremap.events import (
    Observable,
    annulus_set,
    dprime_sum,
    exact_evl_prob,
    exact_hts_prob,
    spectral_escape_rate,
    survivor_set,
    theta_n,
    threshold_for,
)
from extremap.brackets import annulus_replacement, exp_approx_error
from extremap.cli import main
from extremap import montecarlo as mc

DOUBLING = FullBranchMap.doubling()
TRIPLING = FullBranchMap.tripling()
WIDTHS = FullBranchMap.from_widths([F(1, 2), F(1, 4), F(1, 4)])

SEED = 7
LIMIT_34 = math.exp(-0.75)


def report(name: str, ok: bool, detail: str):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def evl_sweep(tmp_path_factory):
    """Shared AC-2 run, reused by AC-6: the rows of ``extremap evl``."""
    out = tmp_path_factory.mktemp("evl")
    start = time.time()
    rc = main(["evl", "--map", "doubling", "--zeta", "1/3", "--tau", "1",
               "--n", "1000,10000,100000", "--trials", "100000",
               "--seed", str(SEED), "--out", str(out)])
    elapsed = time.time() - start
    assert rc == 0
    return json.loads((out / "evl.json").read_text())["rows"], elapsed


def test_ac1_extremal_index_exact():
    start = time.time()
    eps_grid = [F(1, 25 + 10 * i) for i in range(10)]
    ok = all(theta_n(DOUBLING, ball(F(1, 3), e), 2) == F(3, 4)
             for e in eps_grid)
    ok = ok and theta_n(DOUBLING, ball(F(0), F(1, 100)), 1) == F(1, 2)
    ok = ok and theta_n(TRIPLING, ball(F(0), F(1, 100)), 1) == F(2, 3)
    elapsed = time.time() - start
    report("AC-1", ok and elapsed < 1,
           f"theta_n exact on {len(eps_grid)}-point grid (3/4, 1/2, 2/3), "
           f"{elapsed:.2f}s")
    assert ok
    assert elapsed < 1


def test_ac2_evl_convergence(evl_sweep):
    rows, elapsed = evl_sweep
    devs = [r["deviation"] for r in rows]
    hws = [r["ci_half"] for r in rows]
    final_ok = abs(rows[-1]["estimate"] - LIMIT_34) <= 0.01
    mono_ok = all(devs[i + 1] <= devs[i] + hws[i + 1]
                  for i in range(len(devs) - 1))
    ok = final_ok and mono_ok and elapsed < 300
    report("AC-2", ok,
           f"deviations {[f'{d:.5f}' for d in devs]} vs e^-0.75, "
           f"final<=0.01 {final_ok}, monotone {mono_ok}, {elapsed:.0f}s")
    assert final_ok
    assert mono_ok
    assert elapsed < 300


def test_ac3_evl_nonclustering():
    start = time.time()
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(20260808)))
    zeta = F(int(gen.integers(1, 2 ** 62)), 2 ** 62)
    obs = Observable(center=zeta)
    pairs = [(100000, F(1, 2)), (100000, F(1)), (100000, F(2))]
    pts = mc.estimate_evl_points(DOUBLING, obs, pairs, trials=100000,
                                 seed=SEED)
    devs = [abs(p.estimate - math.exp(-p.tau)) for p in pts]
    elapsed = time.time() - start
    ok = all(d <= 0.01 for d in devs) and elapsed < 600
    report("AC-3", ok,
           f"non-periodic center, |est - e^-tau| = "
           f"{[f'{d:.5f}' for d in devs]} (tol 0.01), {elapsed:.0f}s")
    assert all(d <= 0.01 for d in devs)
    assert elapsed < 600


def test_ac4_hts():
    start = time.time()
    taus = [F(1, 2), F(1), F(2)]
    ecdf = mc.estimate_hts(DOUBLING, F(1, 3), F(1, 200), taus,
                           trials=100000, seed=SEED)
    devs = [abs(est - math.exp(-0.75 * tau))
            for tau, est in zip(ecdf.grid, ecdf.estimates)]
    elapsed = time.time() - start
    ok = all(d <= 0.02 for d in devs) and elapsed < 600
    report("AC-4", ok,
           f"|survival - e^-0.75tau| = {[f'{d:.5f}' for d in devs]} "
           f"(tol 0.02), {elapsed:.0f}s")
    assert all(d <= 0.02 for d in devs)
    assert elapsed < 600


def test_ac5_escape_rates():
    start = time.time()
    details, ok = [], True
    ratio_at_001 = None
    for eps in (F(1, 25), F(1, 50), F(1, 100)):
        hole = ball(F(0), eps)
        spectral = spectral_escape_rate(DOUBLING, hole)
        fit = mc.estimate_escape_rate(DOUBLING, F(0), eps, trials=1000000,
                                      seed=SEED)
        rel = abs(fit.slope - spectral) / spectral
        ok = ok and rel <= 0.05
        PB = float(hole.measure())
        if eps == F(1, 100):
            ratio_at_001 = fit.slope / PB
        # window lower bound never exceeds the true (spectral) rate
        from extremap.brackets import (DecayModel, escape_window,
                                       hts_bracket_inputs)
        dm = DecayModel.for_map(DOUBLING)
        window = escape_window(hts_bracket_inputs(DOUBLING, hole, 1, dm),
                               0.5, PB, dm)
        ok = ok and window.lower <= spectral
        details.append(f"eps={float(eps)}: fit={fit.slope:.5f} "
                       f"spectral={spectral:.5f} rel={rel:.2%} "
                       f"lower={window.lower:.4f}")
    ratio_ok = abs(ratio_at_001 - 0.5) <= 0.05
    ok = ok and ratio_ok
    elapsed = time.time() - start
    report("AC-5", ok and elapsed < 600,
           "; ".join(details) + f"; rate/PB(0.01)={ratio_at_001:.4f} "
           f"(within 10% of 1/2: {ratio_ok}), {elapsed:.0f}s")
    assert ok
    assert elapsed < 600


def test_ac6_bound_ratio(evl_sweep):
    rows, _ = evl_sweep
    ratios = [r["ratio"] for r in rows]
    spread = max(ratios) / min(ratios)
    ok = spread <= 50 and max(ratios) <= 100
    report("AC-6", ok,
           f"deviation/bracket ratios {[f'{r:.4f}' for r in ratios]}, "
           f"spread {spread:.2f} (<=50), max {max(ratios):.4f} (<=100)")
    assert spread <= 50
    assert max(ratios) <= 100


def test_ac7_exact_inequalities():
    start = time.time()
    rnd = random.Random(SEED)
    for i in range(50):
        den = rnd.choice([3, 5, 7, 9, 11, 12, 16, 17])
        zeta = F(rnd.randrange(0, den), den)
        eps = F(1, rnd.choice([40, 64, 100, 128, 200]))
        q = rnd.randrange(0, 4)
        n = rnd.randrange(q + 2, 13)
        B = ball(zeta, eps)
        A = annulus_set(DOUBLING, B, q)
        lhs = abs(survivor_set(DOUBLING, B, n).measure()
                  - survivor_set(DOUBLING, A, n).measure())
        gap, rhs = annulus_replacement(DOUBLING, B, q, n)
        assert lhs == gap and lhs <= rhs, (i, zeta, eps, q, n)
    obs = Observable(center=F(1, 3))
    values = []
    for e in range(8, 15):
        n = 2 ** e
        A = annulus_set(DOUBLING, threshold_for(obs, n, 1).exceedance, 2)
        values.append(dprime_sum(DOUBLING, A, n, 2, math.ceil(n ** 0.25)))
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    elapsed = time.time() - start
    ok = decreasing and elapsed < 120
    report("AC-7", ok,
           f"50 domination checks exact; recurrence sums "
           f"{[f'{float(v):.5f}' for v in values]} strictly decreasing: "
           f"{decreasing}, {elapsed:.0f}s")
    assert decreasing
    assert elapsed < 120


def test_ac8_thermodynamics(tmp_path):
    # the CSV of the pressure command: Z_n and (1/n) log Z_n for n <= 10
    start = time.time()
    ok = True
    for spec, m in (("doubling", DOUBLING), ("tripling", TRIPLING),
                    ("widths:1/2,1/4,1/4", WIDTHS)):
        for potential, pressure in (("geometric", 0.0),
                                    ("zero", math.log(m.d))):
            out = tmp_path / f"{spec}-{potential}"
            ok = ok and main(["pressure", "--map", spec, "--potential",
                              potential, "--n-max", "10",
                              "--out", str(out)]) == 0
            with open(out / "pressure.csv") as fh:
                rows = list(csv.DictReader(
                    line for line in fh if not line.startswith("#")))
            ok = ok and [int(r["scale"]) for r in rows] == list(range(1, 11))
            ok = ok and all(abs(float(r["pressure"]) - pressure) <= 1e-12
                            for r in rows)
            if potential == "geometric":
                ok = ok and all(abs(float(r["Z_n"]) - 1.0) <= 1e-12
                                for r in rows)
    elapsed = time.time() - start
    report("AC-8", ok and elapsed < 1,
           f"pressure command: Z_n(geometric) = 1 +- 1e-12 and pressure "
           f"columns exact on 3 maps for n <= 10, {elapsed:.2f}s")
    assert ok
    assert elapsed < 1


def _defect_order(x):
    """Leading order k and coefficient a_k(x) of e^-x (1+x/n)^n - approx.

    Both come from the series of exp(n log(1 + x/n) - x) in 1/n; k = 4
    where the n^-3 coefficient vanishes.
    """
    if x ** 4 * (x + 2) * (x + 6) != 0:
        return 3, -x ** 4 * (x + 2) * (x + 6) / 48
    return 4, x ** 5 * (15 * x ** 3 + 240 * x ** 2 + 1040 * x + 1152) / 5760


@pytest.mark.parametrize("x", [-2.0, -1.0, 1.0, 2.0])
def test_ac9_exp_approx(x):
    start = time.time()
    k, a_k = _defect_order(x)
    grid = (10, 100, 1000, 10000)
    scaled = [exp_approx_error(x, n)[1] * n ** k for n in grid]
    spread = max(scaled) / min(scaled)
    rel = abs(scaled[-1] / (math.exp(x) * abs(a_k)) - 1)
    ok = spread <= 10 and rel <= 1e-3
    elapsed = time.time() - start
    report(f"AC-9[x={x}]", ok,
           f"defect*n^{k} = {[f'{v:.3e}' for v in scaled]}, spread "
           f"{spread:.2f} (<=10), |defect*n^{k} / (e^x |a_{k}|) - 1| = "
           f"{rel:.1e} at n={grid[-1]} (<=1e-3), {elapsed:.2f}s")
    assert spread <= 10 and rel <= 1e-3, (
        f"at x={x} the defect should lead with e^x*a_{k}(x)/n^{k}, "
        f"a_{k}(x) = {a_k:.6g} (k = 4 only where the n^-3 coefficient "
        f"-x^4*(x+2)*(x+6)/48 vanishes): defect*n^{k} has spread "
        f"{spread:.2f} (<=10) and is off the coefficient by {rel:.1e} "
        f"(<=1e-3) at n={grid[-1]}")


def test_ac10_oracle_equivalence_suite():
    start = time.time()
    rnd = random.Random(101)
    maps = [DOUBLING, TRIPLING, WIDTHS]
    checked = 0
    for i in range(20):
        m = maps[i % 3]
        den = rnd.choice([5, 7, 9, 11, 13, 16])
        zeta = F(rnd.randrange(0, den), den)
        if rnd.random() < 0.5:
            n = rnd.randrange(6, 13)
            tau = rnd.choice([F(1, 2), F(1), F(2)])
            obs = Observable(center=zeta)
            sched = threshold_for(obs, n, tau)
            exact = float(exact_evl_prob(m, sched.exceedance, n))
            est = mc.estimate_evl(m, obs, n, tau, trials=20000, seed=SEED + i)
            assert abs(est.estimate - exact) <= 3 * est.half_width, (i, m.name)
        else:
            eps = F(1, rnd.choice([20, 32, 50, 64]))
            t = rnd.randrange(2, 13)
            B = ball(zeta, eps)
            tau = t * B.measure()
            ecdf = mc.estimate_hts(m, zeta, eps, [tau], trials=20000,
                                   seed=SEED + i)
            exact = float(exact_hts_prob(m, B, t))
            assert abs(ecdf.estimates[0] - exact) <= 3 * ecdf.half_widths[0], \
                (i, m.name)
        checked += 1
    elapsed = time.time() - start
    ok = checked == 20 and elapsed < 300
    report("AC-10", ok,
           f"{checked}/20 randomized configs agree with exact oracles "
           f"within 3 Wilson half-widths, {elapsed:.0f}s")
    assert checked == 20
    assert elapsed < 300
