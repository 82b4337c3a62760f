import itertools
import math
import random
from fractions import Fraction as F

import pytest

from extremap.errors import InfeasibleError
from extremap.intervals import ball
from extremap.maps import FullBranchMap, bv_norm_indicator
from extremap.events import (
    RETURN_HORIZON,
    Observable,
    annulus_set,
    dprime_sum,
    exact_evl_prob,
    exact_hts_prob,
    first_return_time,
    survivor_set,
    theta_limit_exact,
    threshold_for,
)
from extremap.brackets import (
    DecayModel,
    ErrorBudget,
    _hts_shift,
    annulus_replacement,
    escape_window,
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
GAMMA_HALF = DecayModel(1.0, 0.5)
GAMMA_ZERO = DecayModel(0.0, 0.5)


# -- decay models ------------------------------------------------------------


def test_decay_model_tail_sums():
    g = DecayModel(4.0, 0.5)
    assert g.gamma(3) == 0.5 and g.gamma(-2) == 4.0
    assert g.partial_sum(2, 5) == pytest.approx(4 * (0.25 + 0.125 + 0.0625))
    assert g.partial_sum(5, 5) == 0.0
    for c0, lam in ((-1.0, 0.5), (math.inf, 0.5), (math.nan, 0.5), (1.0, 0.0),
                    (1.0, 1.0)):
        with pytest.raises(ValueError):
            DecayModel(c0, lam)
    assert DecayModel.for_map(DOUBLING) == DecayModel(4.0, 0.5)
    assert DecayModel.for_map(
        FullBranchMap.from_widths([F(1, 2), F(1, 4), F(1, 4)])).lam == 0.5


def test_decay_partial_sum_is_the_sum_of_gammas():
    rnd = random.Random(41)
    for _ in range(200):
        g = DecayModel(10 ** rnd.uniform(-3, 12), rnd.uniform(0.01, 0.999))
        lo = rnd.randrange(0, 300)
        hi = lo + rnd.randrange(1, 300)
        assert g.partial_sum(lo, hi) == pytest.approx(
            sum(g.gamma(j) for j in range(lo, hi)), rel=1e-12)
    assert GAMMA_ZERO.partial_sum(0, 10 ** 6) == 0.0
    assert DecayModel(0.0, 0.999).partial_sum(3, 7) == 0.0


def test_decay_partial_sum_clamps_negative_times_as_gamma_does():
    # gamma(j) = c0 for j <= 0, so a range that starts below 0 sums c0
    # once per such j; ranges with hi <= lo are empty
    for g in (DecayModel(1.0, 0.5), DecayModel(3.5, 0.9), GAMMA_ZERO):
        for lo, hi in itertools.product(range(-6, 7), repeat=2):
            assert g.partial_sum(lo, hi) == pytest.approx(
                sum(g.gamma(j) for j in range(lo, hi)), rel=1e-12, abs=1e-12)
    assert DecayModel(1.0, 0.5).partial_sum(-2, 3) == 3.75


# -- block-estimate quantities ------------------------------------------------


def test_xi_reductions():
    assert xi(1e-3, 4, 100, 20, 5, GAMMA_ZERO) == pytest.approx(
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
    assert upsilon(1e-3, 4, 100, 0, 5, GAMMA_ZERO) == pytest.approx(
        xi(1e-3, 4, 100, 0, 5, GAMMA_ZERO))


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
    bp = optimize_kt_evl(500, 0.01, GAMMA_ZERO)
    assert bp.t == 1
    assert (bp.objective, bp.t, bp.k) == _scan_evl(500, 0.01, GAMMA_ZERO)


def test_optimizer_evl_matches_scan_randomized():
    rnd = random.Random(23)
    for _ in range(12):
        n = rnd.randrange(20, 400)
        PA = rnd.uniform(1e-4, 0.2)
        g = rnd.choice([
            GAMMA_ZERO,
            DecayModel(rnd.uniform(0.5, 4.0), rnd.uniform(0.3, 0.9)),
            DecayModel(10 ** rnd.uniform(0, 12), rnd.uniform(0.9, 0.999)),
        ])
        bp = optimize_kt_evl(n, PA, g)
        assert (bp.objective, bp.t, bp.k) == _scan_evl(n, PA, g)


def test_optimizer_evl_spec_instance():
    g = DecayModel(1.0, 0.5)
    bp = optimize_kt_evl(10 ** 4, 1e-4, g)
    assert (bp.objective, bp.t, bp.k) == _scan_evl(10 ** 4, 1e-4, g)


def test_optimizer_beats_reference_schedule():
    delta = 1.0
    n, PA = 4096, 2e-4
    g = DecayModel(4.0, 0.5)
    bp = optimize_kt_evl(n, PA, g)
    t_ref = max(1, int(n ** (1 / (1 + delta))))
    k_ref = max(1, int(n ** (delta / (2 + 2 * delta))))
    ref = k_ref * t_ref * PA + n * g.gamma(t_ref) * (1 + n * PA / k_ref) \
        + (n * PA) ** 2 / k_ref
    assert bp.objective <= ref + 1e-15


def test_optimizer_hts_matches_scan():
    for PB, g in [(0.01, GAMMA_ZERO),
                  (0.01, DecayModel(4, 0.5)),
                  (0.04, DecayModel(1, 0.7)),
                  (0.3, DecayModel(2, 0.5))]:
        bp = optimize_kt_hts(PB, g)
        assert (bp.objective, bp.t, bp.k) == _scan_hts(PB, g)


def _random_decay(rnd):
    # light decays, and heavy ones whose gap term stays large up to the
    # largest feasible t
    return rnd.choice([
        GAMMA_ZERO,
        DecayModel(rnd.uniform(0.1, 8.0), rnd.uniform(0.05, 0.99)),
        DecayModel(10 ** rnd.uniform(0, 12), rnd.uniform(0.9, 0.999)),
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
    # boundary of the strict k*t < 1/PB constraint; a decay this heavy
    # makes the largest gap the cheapest, so the first excluded one
    # (k = 1, t = m) would win if the constraint let it in
    heavy = DecayModel(1e12, 0.99)
    for m in (2, 3, 7, 49, 64, 100, 255, 256, 1000, 1023):
        cases += [(1 / m, _random_decay(rnd)), (1 / m, heavy)]
        bp = optimize_kt_hts(1 / m, heavy)
        # the largest t below 1.0 / PB, which rounds above 49 at m = 49
        assert (bp.k, bp.t) == (1, math.ceil(1.0 / (1 / m)) - 1)
    for PB, g in cases:
        bp = optimize_kt_hts(PB, g)
        assert (bp.objective, bp.t, bp.k) == _scan_hts(PB, g)
        assert bp.k * bp.t < 1.0 / PB
        assert bp.ell == math.floor(1.0 / PB) // bp.k - bp.t


def test_optimizer_large_n_is_fast():
    import time
    g = DecayModel(4, 0.5)
    start = time.perf_counter()
    bp = optimize_kt_evl(10 ** 6, 1e-6, g)
    assert time.perf_counter() - start < 0.1
    assert (bp.k, bp.t, bp.objective) == (172, 34, 0.011896137798558835)
    start = time.perf_counter()
    bp = optimize_kt_hts(1e-6, g)
    assert time.perf_counter() - start < 0.1
    assert (bp.k, bp.t, bp.objective) == (171, 34, 0.011894783860028138)


def test_optimizer_hts_monotone_in_PB():
    g = DecayModel(4, 0.5)
    objectives = [optimize_kt_hts(pb, g).objective
                  for pb in (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)]
    assert objectives == sorted(objectives, reverse=True)


def test_optimizer_infeasible():
    with pytest.raises(InfeasibleError):
        optimize_kt_evl(2, 0.1, GAMMA_ZERO)
    with pytest.raises(InfeasibleError):
        optimize_kt_hts(1.5, GAMMA_ZERO)


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


def test_error_budget_total_adds_left_to_right():
    # 1e16 + 1 rounds back to 1e16; a compensated sum would give 1.0
    terms = (("a", 1e16), ("b", 1.0), ("c", -1e16))
    assert ErrorBudget(terms=terms).total == 0.0


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
                      GAMMA_ZERO)
    w = math.exp(-0.75)
    assert b.term("threshold_defect") == 0.0
    assert b.term("mixing") == 0.0
    assert b.total == pytest.approx(w * (16 * 8 * 0.75 / 4096 + 0.75 ** 2 / 16))
    with pytest.raises(InfeasibleError):
        sharp_evl_bracket(1.0, 64, 0.75, 1e-3, 8, 8, 3, GAMMA_ZERO)


def test_sharp_evl_bracket_frozen_regression():
    b = sharp_evl_bracket(1.0, 2 ** 14, 0.75, 0.75 / 2 ** 14, 51, 29, 17,
                      DecayModel.for_map(DOUBLING))
    assert b.total == pytest.approx(0.037270807769103666, rel=1e-12)


def test_sharp_hts_bracket_alpha_vanishes():
    b = sharp_hts_bracket(1.0, 0.02, 0.015, 0.75, 1, 0, 7, 12, 4,
                      GAMMA_ZERO)
    assert b.extra("alpha") == pytest.approx(0.0)
    assert b.term("alpha_gamma") == 0.0 and b.term("cubic") == 0.0


def test_sharp_hts_bracket_overflowing_weight_is_inf():
    # a shift of about 1.5e12 overflows exp((shift - theta) * tau): the
    # terms with a vanishing alpha factor stay 0.0, the others are inf
    b = sharp_hts_bracket(1.0, 0.02, 0.015, 0.75, 1, 0, 7, 12, 4,
                          DecayModel(1e6, 0.5))
    assert b.flags == ("vacuous-exponent",)
    assert b.term("alpha_gamma") == 0.0 and b.term("cubic") == 0.0
    assert b.term("poisson_gamma") == math.inf and b.total == math.inf


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
        R = first_return_time(DOUBLING, A)
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
                          GAMMA_ZERO)
        assert all(v >= 0 for _, v in b.terms)
    big = sharp_evl_bracket(1.0, 10 ** 6, 0.75, 0.75 / 10 ** 6, 1000, 1, 5,
                        GAMMA_ZERO)
    assert big.total < 1e-3


def test_brackets_monotone_under_gamma_decrease():
    strong = DecayModel(4.0, 0.5)
    weak = DecayModel(2.0, 0.5)
    b_strong = sharp_evl_bracket(1.0, 4096, 0.75, 0.75 / 4096, 12, 10, 6, strong)
    b_weak = sharp_evl_bracket(1.0, 4096, 0.75, 0.75 / 4096, 12, 10, 6, weak)
    assert b_weak.total <= b_strong.total
    s32 = sharp_hts_bracket(1.0, 0.002, 0.0015, 0.75, 5, 13, 9, 90, 4, strong)
    w32 = sharp_hts_bracket(1.0, 0.002, 0.0015, 0.75, 5, 13, 9, 90, 4, weak)
    assert w32.total <= s32.total


BRACKET_GRID = [("doubling", F(1, 3)), ("doubling", F(0)),
                ("doubling", F(1, 7)), ("tripling", F(1, 4)),
                ("widths:1/2,1/4,1/4", F(2, 5)), ("uniform:5", F(1, 6))]


def test_theorem_brackets_dominate_the_exact_error():
    # each bracket's computable terms against the exact error, with (q,
    # theta) from theta_limit_exact and the decay of DecayModel.for_map;
    # a bracket flagged or at least 1 says nothing and counts as vacuous
    rows = {}

    def hold(kind, error, budget):
        counts = rows.setdefault(kind, [0, 0])
        counts[0] += 1
        if budget.flags or budget.total >= 1:
            counts[1] += 1
        else:
            assert error <= budget.total, (kind, error, budget)

    for spec, zeta in BRACKET_GRID:
        m = FullBranchMap.from_spec(spec)
        q, theta = theta_limit_exact(m, zeta)
        theta = float(theta)
        gamma = DecayModel.for_map(m)
        for tau in (F(1, 2), F(1), F(2)):
            limit = math.exp(-theta * float(tau))
            for n in (100, 300, 1000):
                U = threshold_for(Observable(zeta), n, tau).exceedance
                P = float(exact_evl_prob(m, U, n))
                inputs = evl_bracket_inputs(m, U, q, n, gamma)
                k, t, PA = inputs.k, inputs.t, float(inputs.PA)
                hold("sharp-evl", abs(P - limit), sharp_evl_bracket(
                    float(tau), n, theta, PA, k, t, inputs.R, gamma))
                for kind, variant, th in (("general", "theorem", None),
                                          ("limit", "corollary", theta)):
                    dp = float(dprime_sum(m, inputs.A, n, q, k, variant))
                    b = general_evl_bracket(float(tau), n, q, k, t,
                                            float(U.measure()), PA,
                                            inputs.M * gamma.gamma(t), dp,
                                            theta=th)
                    centre = math.exp(-(b.extra("theta_n") if th is None
                                        else th) * float(tau))
                    hold(kind, abs(P - centre), b)
            for eps in (F(1, 64), F(1, 256), F(1, 1024)):
                B = ball(zeta, eps)
                P = float(exact_hts_prob(m, B, math.floor(tau / B.measure())))
                inputs = hts_bracket_inputs(m, B, q, gamma)
                hold("sharp-hts", abs(P - limit), sharp_hts_bracket(
                    float(tau), float(B.measure()), float(inputs.PA), theta,
                    inputs.k, inputs.t, inputs.R, inputs.ell, inputs.M,
                    gamma))
    # [rows, vacuous rows]
    assert rows == {"sharp-evl": [54, 0], "general": [54, 11],
                    "limit": [54, 11], "sharp-hts": [54, 22]}


@pytest.mark.parametrize("d", [257, 1024])
def test_sharp_evl_bracket_dominates_the_exact_error_past_uniform_256(d):
    # n = 1000, and q >= 2 on d >= 1000, exceed the component budget
    m = FullBranchMap.uniform(d)
    gamma = DecayModel.for_map(m)
    for zeta in (F(1, 3), F(1, 6)):
        q, theta = theta_limit_exact(m, zeta)
        theta = float(theta)
        for tau, n in itertools.product((F(1, 2), F(1), F(2)), (100, 300)):
            U = threshold_for(Observable(zeta), n, tau).exceedance
            error = abs(float(exact_evl_prob(m, U, n))
                        - math.exp(-theta * float(tau)))
            inputs = evl_bracket_inputs(m, U, q, n, gamma)
            b = sharp_evl_bracket(float(tau), n, theta, float(inputs.PA),
                                  inputs.k, inputs.t, inputs.R, gamma)
            assert not b.flags and error <= b.total < 1, (zeta, tau, n, b)


# -- escape window and exponential approximation -------------------------------


def test_error_budget_shift_and_extras():
    g = DecayModel.for_map(DOUBLING)
    b = sharp_hts_bracket(1.0, 0.02, 0.015, 0.75, 2, 13, 7, 12, 4, g)
    assert b.exponent_shift == 2 * b.extra("upsilon") / b.extra("L")
    assert b.extra("Gamma") == pytest.approx(
        2 * 13 * 0.015 + g.gamma(13) / 0.02 + 1 / 2 + g.partial_sum(7, 12),
        rel=1e-12)
    with pytest.raises(KeyError):
        b.extra("total")


def test_escape_window_is_the_sharp_hts_shift():
    # lower = (theta - k*Y/L) * P(B) with the shift of the sharp HTS
    # bracket of the same inputs; the 1/16 hole's shift swallows theta
    dm = DecayModel.for_map(DOUBLING)
    degenerate = []
    for den in (16, 200):
        B = ball(F(1, 3), F(1, den))
        PB = float(B.measure())
        inputs = hts_bracket_inputs(DOUBLING, B, 2, dm)
        b = sharp_hts_bracket(1.0, PB, float(inputs.PA), 0.75, inputs.k,
                              inputs.t, inputs.R, inputs.ell, inputs.M, dm)
        w = escape_window(inputs, 0.75, PB, dm)
        assert w.lower == (0.75 - b.exponent_shift) * PB
        assert w.nominal == 0.75 * PB
        assert w.degenerate == ("vacuous-exponent" in b.flags)
        degenerate.append(w.degenerate)
    assert degenerate == [True, False]


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


def test_annulus_replacement_trivial_cases():
    B = ball(F(1, 3), F(1, 50))
    assert annulus_replacement(DOUBLING, B, 0, 8) == (0, 0)
    # non-recurrent center: annulus equals the ball, so B - A is empty
    B2 = ball(F(1, 5), F(1, 1000))
    assert annulus_set(DOUBLING, B2, 2) == B2
    assert annulus_replacement(DOUBLING, B2, 2, 9) == (0, 0)
    for q, n in ((-1, 8), (2, 2)):
        with pytest.raises(ValueError):
            annulus_replacement(DOUBLING, B, q, n)


def test_annulus_replacement_dominates_exactly():
    B = ball(F(1, 3), F(1, 50))
    A = annulus_set(DOUBLING, B, 2)
    lhs = abs(survivor_set(DOUBLING, B, 10).measure()
              - survivor_set(DOUBLING, A, 10).measure())
    gap, bound = annulus_replacement(DOUBLING, B, 2, 10)
    assert gap == lhs <= bound
    # sharp here: the bound is the gap itself
    assert bound == gap == F(881, 51200)


def test_survivor_block_estimate_dominates_exact_error():
    # the recursive block bound on the survivor probability of the window
    # [0, n), n = k*(ell + t), carries explicit constants: with Y the
    # per-block error rate and L = 1 - ell*P(A) the block survival,
    # |P(W_{0,n}(A)) - L^k| <= k*Y*(L+Y)^(k-1)*(1+L+Y), and <= 5*k*Y*L^(k-1)
    # while k*Y < L/2.  For a correlation model that really dominates the
    # doubling map (c0 = 4, lam = 1/2) they must bound the exact defect
    gamma = DecayModel(4.0, 0.5)
    for zeta, den, k, t in [(F(1, 3), 60, 3, 1), (F(1, 3), 200, 2, 2),
                            (F(0), 100, 4, 1), (F(1, 7), 150, 3, 2)]:
        B = ball(zeta, F(1, den))
        A = annulus_set(DOUBLING, B, 2)
        PA = float(A.measure())
        ell = 12 // k - t
        R = first_return_time(DOUBLING, A)
        _, Y, L = _hts_shift(PA, k, t, R, ell, 4, gamma)
        n = k * (ell + t)
        defect = abs(float(survivor_set(DOUBLING, A, n).measure()) - L ** k)
        assert defect <= k * Y * (L + Y) ** (k - 1) * (1 + L + Y) + 1e-12
        if k * Y < L / 2:
            assert defect <= 5 * k * Y * L ** (k - 1) + 1e-12


def test_survivor_block_estimate_fractional():
    # at a fraction tau of the n = k*(ell + t) steps, with tk = floor(tau*k)
    # blocks, P(W_{0, tau*n}) is within (3+Y)*ceil(tau*k)*Y*(L+Y)^(tk-1)
    # of L^tk; with no whole block, within Y of 1 - floor(tau*k*ell)*P(A)
    gamma = DecayModel(4.0, 0.5)
    B = ball(F(1, 3), F(1, 120))
    A = annulus_set(DOUBLING, B, 2)
    PA = float(A.measure())
    k, t, ell = 3, 1, 3
    R = first_return_time(DOUBLING, A)
    _, Y, L = _hts_shift(PA, k, t, R, ell, 4, gamma)
    n = k * (ell + t)
    for tau in (0.5, 0.75, 1.0):
        tk = math.floor(tau * k)
        assert tk > 0
        exact = float(survivor_set(DOUBLING, A, int(tau * n)).measure())
        assert abs(exact - L ** tk) <= \
            (3 + Y) * math.ceil(tau * k) * Y * (L + Y) ** (tk - 1) + 1e-12
    assert math.floor(0.1 * k) == 0
    exact = float(survivor_set(DOUBLING, A, int(0.1 * n)).measure())
    assert abs(exact - (1.0 - math.floor(0.1 * k * ell) * PA)) <= Y + 1e-12


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
        assert inputs.R == first_return_time(DOUBLING, A) >= 3
        assert inputs.M == bv_norm_indicator(A)


def test_sharp_evl_bracket_counts_the_tail_past_the_return_horizon():
    # ball(1/2, 1e-15) on the slope-50/49 branch does not return within
    # RETURN_HORIZON steps, but it may between 257 and ell = 7993, where
    # gamma is still about 0.023: the recurrence tail counts from 257
    skewed = FullBranchMap.from_spec("widths:49/50,1/50")
    gamma = DecayModel.for_map(skewed)
    U = ball(F(1, 2), F(1, 10 ** 15))
    inputs = evl_bracket_inputs(skewed, U, 2, 10 ** 4, gamma)
    assert inputs.R == first_return_time(skewed, inputs.A) \
        == RETURN_HORIZON + 1 < inputs.ell
    b = sharp_evl_bracket(1.0, 10 ** 4, 1.0, float(inputs.PA), inputs.k,
                          inputs.t, inputs.R, gamma)
    tail = gamma.partial_sum(RETURN_HORIZON + 1, inputs.ell)
    assert tail > 1 and b.term("recurrence") == math.exp(-1.0) * tail


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
