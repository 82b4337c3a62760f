import math
import random
from fractions import Fraction as F

import pytest

from extremap.errors import InfeasibleError
from extremap.intervals import ball
from extremap.maps import FullBranchMap, bv_norm_indicator
from extremap.events import (
    Observable,
    annulus_set,
    dprime_sum,
    first_return_time,
    survivor_set,
    threshold_for,
)
from extremap.brackets import (
    DecayModel,
    annuli_gap_bound,
    escape_rate_window,
    evl_bracket_inputs,
    exp_approx_error,
    hts_bracket_inputs,
    optimize_kt_evl,
    optimize_kt_hts,
    general_evl_bracket,
    sharp_evl_bracket,
    sharp_hts_bracket,
    upsilon,
    xi,
)

DOUBLING = FullBranchMap.doubling()
GAMMA_HALF = DecayModel.exponential(1.0, 0.5)


# -- decay models ------------------------------------------------------------


def test_decay_model_tail_sums():
    g = DecayModel.exponential(4.0, 0.5)
    assert g.gamma(3) == 0.5
    assert g.partial_sum(2, 5) == pytest.approx(4 * (0.25 + 0.125 + 0.0625))
    assert g.partial_sum(5, 5) == 0.0
    assert g.tail_sum(3) == pytest.approx(4 * 0.125 * 2)
    t = DecayModel.from_table([0.5, 0.2, 0.1])
    assert t.gamma(2) == 0.2 and t.gamma(9) == 0.0
    assert t.partial_sum(1, 10) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        DecayModel.from_table([0.1, 0.5])
    assert DecayModel.for_map(DOUBLING).lam == 0.5
    assert DecayModel.for_map(
        FullBranchMap.from_widths([F(1, 2), F(1, 4), F(1, 4)])).lam == 0.5


# -- block-estimate quantities ------------------------------------------------


def test_xi_reductions():
    assert xi(1e-3, 4, 100, 20, 5, DecayModel.zero()) == pytest.approx(
        100 * 95 * 1e-6)
    v = xi(0.0, 4, 100, 20, 5, GAMMA_HALF)
    g = 0.5 ** 20
    tail = sum(0.5 ** j for j in range(5, 100))
    assert v == pytest.approx(4 * 100 * g + 16 * 95 * g * tail)


def test_xi_frozen_regression():
    # re-derived summand by summand with an independent evaluation
    assert xi(1e-3, 4.0, 100, 20, 5, GAMMA_HALF) == pytest.approx(
        0.03375830841064453, rel=1e-12)


def test_xi_clamps_below_first_return():
    v = xi(1e-3, 4, 10, 5, 50, GAMMA_HALF)
    assert v == pytest.approx(4 * 10 * 0.5 ** 5)


def test_upsilon_additivity():
    a = upsilon(1e-3, 4, 100, 20, 5, GAMMA_HALF)
    b = xi(1e-3, 4, 100, 20, 5, GAMMA_HALF)
    assert a - b == pytest.approx(20 * (1e-3 + 4 * 0.5 ** 20))
    assert a == pytest.approx(0.05383460235595704, rel=1e-12)
    assert upsilon(1e-3, 4, 100, 0, 5, DecayModel.zero()) == pytest.approx(
        xi(1e-3, 4, 100, 0, 5, DecayModel.zero()))


# -- optimizers ---------------------------------------------------------------


def _evl_objective(n, PA, g, k, t):
    # the optimizer's float expression, term for term
    return k * t * PA + n * (1.0 + n * PA / k) * g.gamma(t) + (n * PA) ** 2 / k


def _scan_evl(n, PA, g, value=None):
    best = None
    for k in range(1, n):
        for t in range(1, (n - 1) // k + 1):
            if value is not None:
                v = value(n, PA, g, k, t)
            else:
                v = k * t * PA + n * g.gamma(t) * (1 + n * PA / k) + (n * PA) ** 2 / k
            key = (v, t, k)
            if best is None or key < best:
                best = key
    return best


def _scan_hts(PB, g):
    inv = 1.0 / PB
    best, k = None, 1
    while k < inv:
        t = 1
        while k * t < inv:
            v = k * t * PB + g.gamma(t) / PB + 1.0 / k
            key = (v, t, k)
            if best is None or key < best:
                best = key
            t += 1
        k += 1
    return best


def test_optimizer_evl_gamma_zero():
    bp = optimize_kt_evl(500, 0.01, DecayModel.zero())
    assert bp.t == 1
    assert (bp.objective, bp.t, bp.k) == _scan_evl(500, 0.01, DecayModel.zero())


def test_optimizer_evl_matches_scan_randomized():
    rnd = random.Random(23)
    for _ in range(12):
        n = rnd.randrange(20, 400)
        PA = rnd.uniform(1e-4, 0.2)
        g = rnd.choice([
            DecayModel.zero(),
            DecayModel.exponential(rnd.uniform(0.5, 4.0), rnd.uniform(0.3, 0.9)),
            DecayModel.from_table([0.5, 0.3, 0.2, 0.1, 0.05]),
        ])
        bp = optimize_kt_evl(n, PA, g)
        assert (bp.objective, bp.t, bp.k) == _scan_evl(n, PA, g)


def test_optimizer_evl_spec_instance():
    g = DecayModel.exponential(1.0, 0.5)
    bp = optimize_kt_evl(10 ** 4, 1e-4, g)
    assert (bp.objective, bp.t, bp.k) == _scan_evl(10 ** 4, 1e-4, g)


def test_optimizer_beats_reference_schedule():
    delta = 1.0
    n, PA = 4096, 2e-4
    g = DecayModel.exponential(4.0, 0.5)
    bp = optimize_kt_evl(n, PA, g)
    t_ref = max(1, int(n ** (1 / (1 + delta))))
    k_ref = max(1, int(n ** (delta / (2 + 2 * delta))))
    ref = k_ref * t_ref * PA + n * g.gamma(t_ref) * (1 + n * PA / k_ref) \
        + (n * PA) ** 2 / k_ref
    assert bp.objective <= ref + 1e-15


def test_optimizer_hts_matches_scan():
    for PB, g in [(0.01, DecayModel.zero()),
                  (0.01, DecayModel.exponential(4, 0.5)),
                  (0.04, DecayModel.exponential(1, 0.7)),
                  (0.3, DecayModel.exponential(2, 0.5))]:
        bp = optimize_kt_hts(PB, g)
        assert (bp.objective, bp.t, bp.k) == _scan_hts(PB, g)


def _random_decay(rnd):
    return rnd.choice([
        DecayModel.zero(),
        DecayModel.exponential(rnd.uniform(0.1, 8.0), rnd.uniform(0.05, 0.99)),
        DecayModel.from_table(sorted(
            (rnd.uniform(0.0, 2.0) for _ in range(rnd.randrange(0, 30))),
            reverse=True)),
    ])


def test_optimizer_evl_matches_scan_wide_range():
    # lam up to 0.99 pushes t* into the hundreds; n*PA up to 5
    rnd = random.Random(31)
    for _ in range(120):
        n = rnd.randrange(4, 2000)
        PA = math.exp(rnd.uniform(math.log(1e-5), math.log(min(0.99, 5.0 / n))))
        g = _random_decay(rnd)
        bp = optimize_kt_evl(n, PA, g)
        assert (bp.objective, bp.t, bp.k) == _scan_evl(n, PA, g, _evl_objective)
        assert bp.ell == n // bp.k - bp.t


def test_optimizer_hts_matches_scan_wide_range():
    rnd = random.Random(37)
    cases = [(math.exp(rnd.uniform(math.log(7e-4), math.log(0.9))),
              _random_decay(rnd)) for _ in range(110)]
    # 1/PB an integer m (up to float rounding of 1.0 / PB) sits on the
    # boundary of the strict k*t < 1/PB constraint; a table vanishing
    # from t = m on makes the excluded gap the cheapest one
    for m in (2, 3, 7, 49, 64, 100, 255, 256, 1000, 1023):
        cases += [(1 / m, _random_decay(rnd)),
                  (1 / m, DecayModel.from_table([1.0] * (m - 1)))]
    for PB, g in cases:
        bp = optimize_kt_hts(PB, g)
        assert (bp.objective, bp.t, bp.k) == _scan_hts(PB, g)
        assert bp.k * bp.t < 1.0 / PB
        assert bp.ell == math.floor(1.0 / PB) // bp.k - bp.t


def test_optimizer_large_n_is_fast():
    import time
    g = DecayModel.exponential(4, 0.5)
    start = time.perf_counter()
    bp = optimize_kt_evl(10 ** 6, 1e-6, g)
    assert time.perf_counter() - start < 0.1
    assert (bp.k, bp.t, bp.objective) == (172, 34, 0.011896137798558835)
    start = time.perf_counter()
    bp = optimize_kt_hts(1e-6, g)
    assert time.perf_counter() - start < 0.1
    assert (bp.k, bp.t, bp.objective) == (171, 34, 0.011894783860028138)


def test_optimizer_hts_monotone_in_PB():
    g = DecayModel.exponential(4, 0.5)
    objectives = [optimize_kt_hts(pb, g).objective
                  for pb in (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)]
    assert objectives == sorted(objectives, reverse=True)


def test_optimizer_infeasible():
    with pytest.raises(InfeasibleError):
        optimize_kt_evl(2, 0.1, DecayModel.zero())
    with pytest.raises(InfeasibleError):
        optimize_kt_hts(1.5, DecayModel.zero())


# -- theorem brackets ----------------------------------------------------------


def test_general_bracket_iid_reduction():
    b = general_evl_bracket(tau=1.0, n=1000, q=0, k=10, t=1, PU=1e-3, PA=1e-3,
                      gamma_mix=0.0, dprime=0.0)
    assert b.total == pytest.approx(10 / 1000 + math.exp(-1.0) * 0.1)
    assert b.term("annulus") == 0.0
    assert b.extra("theta_n") == 1.0


def test_general_bracket_frozen_doubling_run():
    # doubling, zeta = 1/3, tau = 1, n = 4096, optimizer (k, t) = (12, 22)
    b = general_evl_bracket(1.0, 4096, 2, 12, 22, 1 / 4096, 0.75 / 4096,
                      4 * 4 * 0.5 ** 22, 0.0450897216796875)
    assert b.total == pytest.approx(0.16465379638727207, rel=1e-12)


def test_limit_bracket_reductions():
    kwargs = dict(tau=1.0, n=4096, q=2, k=12, t=22, PU=1 / 4096,
                  PA=0.75 / 4096, gamma_mix=0.0, dprime=0.01)
    same = general_evl_bracket(theta=0.75, **kwargs)
    base = general_evl_bracket(**kwargs)
    assert same.total == pytest.approx(base.total)  # theta_n equals theta here
    assert [name for name, _ in same.terms] == [
        "block_gap", "mixing", "recurrence", "poisson", "ei_gap", "annulus"]
    zero_tau = general_evl_bracket(tau=0.0, n=64, q=1, k=4, t=2, PU=0.0,
                                   PA=0.0, theta=0.5, gamma_mix=1e-3,
                                   dprime=0.02)
    assert zero_tau.total == pytest.approx(64 * 1e-3 + 0.02)


def test_sharp_evl_bracket_reductions():
    b = sharp_evl_bracket(1.0, 4096, 0.75, 0.75 / 4096, 16, 8, 6,
                      DecayModel.zero())
    w = math.exp(-0.75)
    assert b.term("threshold_defect") == 0.0
    assert b.term("mixing") == 0.0
    assert b.total == pytest.approx(w * (16 * 8 * 0.75 / 4096 + 0.75 ** 2 / 16))
    with pytest.raises(InfeasibleError):
        sharp_evl_bracket(1.0, 64, 0.75, 1e-3, 8, 8, 3, DecayModel.zero())


def test_sharp_evl_bracket_frozen_regression():
    b = sharp_evl_bracket(1.0, 2 ** 14, 0.75, 0.75 / 2 ** 14, 51, 29, 17,
                      DecayModel.for_map(DOUBLING))
    assert b.total == pytest.approx(0.037270807769103666, rel=1e-12)


def test_sharp_hts_bracket_alpha_vanishes():
    b = sharp_hts_bracket(1.0, 0.02, 0.015, 0.75, 1, 0, 7, 12, 4,
                      DecayModel.zero())
    assert b.extra("alpha") == pytest.approx(0.0)
    assert b.term("alpha_gamma") == 0.0 and b.term("cubic") == 0.0


def test_sharp_hts_bracket_frozen_regression():
    b = sharp_hts_bracket(1.0, 0.02, 0.015, 0.75, 2, 13, 7, 12, 4,
                      DecayModel.for_map(DOUBLING))
    assert b.total == pytest.approx(0.9882794203441815, rel=1e-12)
    assert b.exponent_shift == pytest.approx(0.6819880787919207, rel=1e-12)
    assert b.flags == ()


def test_sharp_hts_gamma_alpha_shrink_along_eps_sweep():
    gammas, alphas = [], []
    for den in (50, 500, 5000, 50000):
        eps = F(1, den)
        B = ball(F(1, 3), eps)
        A = annulus_set(DOUBLING, B, 2)
        PB, PA = float(B.measure()), float(A.measure())
        dm = DecayModel.for_map(DOUBLING)
        bp = optimize_kt_hts(PB, dm)
        ell = max(bp.ell, 1)
        R = first_return_time(DOUBLING, A, horizon=64) or ell
        b = sharp_hts_bracket(1.0, PB, PA, 0.75, bp.k, bp.t, R, ell, 4, dm)
        gammas.append(b.extra("Gamma"))
        alphas.append(b.extra("alpha"))
    assert gammas == sorted(gammas, reverse=True)
    assert alphas == sorted(alphas, reverse=True)
    assert gammas[-1] < 0.1 and alphas[-1] < 0.05


def test_brackets_nonnegative_and_vanishing():
    # every term nonnegative; all error sources off -> bracket -> 0 with k
    for k in (10, 100, 1000):
        b = sharp_evl_bracket(1.0, 10 ** 6, 0.75, 0.75 / 10 ** 6, k, 1, 5,
                          DecayModel.zero())
        assert all(v >= 0 for _, v in b.terms)
    big = sharp_evl_bracket(1.0, 10 ** 6, 0.75, 0.75 / 10 ** 6, 1000, 1, 5,
                        DecayModel.zero())
    assert big.total < 1e-3


def test_brackets_monotone_under_gamma_decrease():
    strong = DecayModel.exponential(4.0, 0.5)
    weak = DecayModel.exponential(2.0, 0.5)
    b_strong = sharp_evl_bracket(1.0, 4096, 0.75, 0.75 / 4096, 12, 10, 6, strong)
    b_weak = sharp_evl_bracket(1.0, 4096, 0.75, 0.75 / 4096, 12, 10, 6, weak)
    assert b_weak.total <= b_strong.total
    s32 = sharp_hts_bracket(1.0, 0.002, 0.0015, 0.75, 5, 13, 9, 90, 4, strong)
    w32 = sharp_hts_bracket(1.0, 0.002, 0.0015, 0.75, 5, 13, 9, 90, 4, weak)
    assert w32.total <= s32.total


# -- escape window and exponential approximation -------------------------------


def test_error_budget_serialization():
    import json
    b = sharp_hts_bracket(1.0, 0.02, 0.015, 0.75, 2, 13, 7, 12, 4,
                      DecayModel.for_map(DOUBLING))
    d = b.as_dict()
    json.dumps(d)
    assert d["total"] == pytest.approx(b.total)
    assert d["constant_policy"] == "modulo-constant"
    assert "exponent_shift" in d and "Gamma" in d


def test_escape_window():
    w = escape_rate_window(0.5, 4, 0.0, 1.0, 0.02)
    assert w.lower == w.nominal == 0.01
    assert not w.degenerate
    v = escape_rate_window(0.5, 4, 0.2, 0.9, 0.02)
    assert v.lower <= v.nominal
    assert v.degenerate
    ok = escape_rate_window(0.5, 2, 0.01, 0.95, 0.02)
    assert not ok.degenerate and 0 < ok.lower < ok.nominal


def test_exp_approx_error():
    approx, defect = exp_approx_error(0.0, 50)
    assert approx == 1.0 and defect == 0.0
    _, d100 = exp_approx_error(-1.0, 100)
    _, d10 = exp_approx_error(-1.0, 10)
    assert d100 < d10
    # cubic-order claim: defect * n^3 stays bounded for every tested x
    for x in (-2.0, -1.0, 1.0, 2.0):
        scaled = [exp_approx_error(x, n)[1] * n ** 3
                  for n in (10, 100, 1000, 10000)]
        assert max(scaled) < 100
    # away from the root of the third-order coefficient the scaled defect
    # is close to constant
    for x in (-1.0, 1.0, 2.0):
        scaled = [exp_approx_error(x, n)[1] * n ** 3
                  for n in (10, 100, 1000, 10000)]
        assert max(scaled) / min(scaled) < 10
    with pytest.raises(ValueError):
        exp_approx_error(5.0, 3)


# -- ball/annulus domination ----------------------------------------------------


def test_annuli_gap_bound_trivial_cases():
    B = ball(F(1, 3), F(1, 50))
    assert annuli_gap_bound(DOUBLING, B, B, 0, 8) == 0
    # non-recurrent center: annulus equals the ball, so B - A is empty
    B2 = ball(F(1, 5), F(1, 1000))
    A2 = annulus_set(DOUBLING, B2, 2)
    assert A2 == B2
    assert annuli_gap_bound(DOUBLING, B2, A2, 2, 9) == 0


def test_annuli_gap_bound_dominates_exactly():
    B = ball(F(1, 3), F(1, 50))
    A = annulus_set(DOUBLING, B, 2)
    lhs = abs(survivor_set(DOUBLING, B, 10).measure()
              - survivor_set(DOUBLING, A, 10).measure())
    rhs = annuli_gap_bound(DOUBLING, B, A, 2, 10)
    assert rhs > 0
    assert lhs <= rhs


def test_annuli_gap_bound_validates_annulus():
    B = ball(F(1, 3), F(1, 50))
    with pytest.raises(ValueError):
        annuli_gap_bound(DOUBLING, B, B, 2, 10)


def test_survivor_block_estimate_dominates_exact_error():
    # the block bounds carry explicit constants, so for a correlation
    # model that really dominates the doubling map (c0 = 4, lam = 1/2)
    # they must bound the exact survivor defect outright
    from extremap.brackets import survivor_block_estimate
    gamma = DecayModel.exponential(4.0, 0.5)
    for zeta, den, k, t in [(F(1, 3), 60, 3, 1), (F(1, 3), 200, 2, 2),
                            (F(0), 100, 4, 1), (F(1, 7), 150, 3, 2)]:
        B = ball(zeta, F(1, den))
        A = annulus_set(DOUBLING, B, 2)
        PA = float(A.measure())
        ell = 12 // k - t
        R = first_return_time(DOUBLING, A, horizon=64) or ell
        est = survivor_block_estimate(PA, 4, k, t, ell, R, gamma)
        n = k * (ell + t)
        exact = float(survivor_set(DOUBLING, A, n).measure())
        assert abs(exact - est.center) <= est.bound + 1e-12
        if est.tight_bound is not None:
            assert abs(exact - est.center) <= est.tight_bound + 1e-12


def test_survivor_block_estimate_fractional():
    from extremap.brackets import survivor_block_estimate
    gamma = DecayModel.exponential(4.0, 0.5)
    B = ball(F(1, 3), F(1, 120))
    A = annulus_set(DOUBLING, B, 2)
    PA = float(A.measure())
    k, t, ell = 3, 1, 3
    R = first_return_time(DOUBLING, A, horizon=64) or ell
    n = k * (ell + t)
    for tau in (0.5, 0.75, 1.0):
        est = survivor_block_estimate(PA, 4, k, t, ell, R, gamma, tau=tau)
        exact = float(survivor_set(DOUBLING, A, int(tau * n)).measure())
        assert est.variant == "fractional"
        assert abs(exact - est.center) <= est.bound + 1e-12
    tiny = survivor_block_estimate(PA, 4, k, t, ell, R, gamma, tau=0.1)
    assert tiny.variant == "sub-block"
    exact = float(survivor_set(DOUBLING, A, int(0.1 * n)).measure())
    assert abs(exact - tiny.center) <= tiny.bound + 1e-12


def test_bracket_inputs_builder():
    # both entry points: the annulus lies inside its event, P(A)/P(B) is
    # theta_n, R is the first return of A, and (k, t, ell) come from the
    # optimizer (ell raised to >= 1 for hitting times only)
    gamma = DecayModel.for_map(DOUBLING)
    B = ball(F(1, 3), F(1, 100))
    U = threshold_for(Observable(center=F(1, 3)), 512, 1).exceedance
    hts = hts_bracket_inputs(DOUBLING, B, 2, gamma)
    evl = evl_bracket_inputs(DOUBLING, U, 2, 512, gamma)
    bp_hts = optimize_kt_hts(float(B.measure()), gamma)
    bp_evl = optimize_kt_evl(512, float(evl.PA), gamma)
    assert (hts.k, hts.t, hts.ell) == (bp_hts.k, bp_hts.t, max(bp_hts.ell, 1))
    assert (evl.k, evl.t, evl.ell) == (bp_evl.k, bp_evl.t, bp_evl.ell)
    for event, inputs in ((B, hts), (U, evl)):
        A = annulus_set(DOUBLING, event, 2)
        assert inputs.A == A and A.intersect(event) == A
        assert inputs.PA == A.measure() == F(3, 4) * event.measure()
        assert inputs.R == first_return_time(DOUBLING, A, 256) >= 3
        assert inputs.M == bv_norm_indicator(A)


def test_dprime_feeds_general_bracket():
    obs = Observable(center=F(1, 3))
    n = 512
    sched = threshold_for(obs, n, 1)
    A = annulus_set(DOUBLING, sched.exceedance, 2)
    dp = float(dprime_sum(DOUBLING, A, n, 2, 5))
    M = bv_norm_indicator(A)
    b = general_evl_bracket(1.0, n, 2, 5, 9, float(sched.exceedance.measure()),
                      float(A.measure()), M * 0.5 ** 9, dp)
    assert b.term("recurrence") == dp
    assert b.total > 0
