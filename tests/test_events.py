import math
import random
import time
import tracemalloc
from bisect import bisect_right
from functools import cache, reduce
from itertools import compress, product
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from extremap.brackets import annulus_replacement
from extremap.errors import (
    ComponentBudgetError,
    ConvergenceError,
    InfeasibleError,
    PeriodUndecidedError,
)
from extremap.intervals import IntervalUnion, ball
from extremap.maps import FullBranchMap
from extremap import events
from extremap.events import (
    RETURN_HORIZON,
    Observable,
    annulus_set,
    dprime_sum,
    exact_evl_prob,
    exact_hts_prob,
    first_return_time,
    spectral_escape_rate,
    survivor_set,
    theta_limit_exact,
    theta_n,
    threshold_for,
)

DOUBLING = FullBranchMap.doubling()
# x -> 1 - 2x, 4x - 2, 4 - 4x: some holes' survivors alternate between
# two pieces under it
ALTERNATING_SPEC = (
    '[{"lo": 0, "hi": "1/2", "slope": -2, "intercept": 1},'
    ' {"lo": "1/2", "hi": "3/4", "slope": 4, "intercept": -2},'
    ' {"lo": "3/4", "hi": 1, "slope": -4, "intercept": 4}]')
ALTERNATING = FullBranchMap.from_spec(ALTERNATING_SPEC)
TRIPLING = FullBranchMap.tripling()
WIDTHS = FullBranchMap.from_widths([F(1, 2), F(1, 4), F(1, 4)])


# -- thresholds and exceedance sets ----------------------------------------


def test_threshold_neglog_closed_form():
    obs = Observable(center=F(1, 3))
    sched = threshold_for(obs, 1000, 1)
    assert sched.radius == F(1, 2000)
    assert sched.exceedance.measure() * 1000 == 1


def test_threshold_preconditions():
    obs = Observable(center=F(1, 3))
    with pytest.raises(InfeasibleError):
        threshold_for(obs, 1000, 0)
    with pytest.raises(InfeasibleError):
        threshold_for(obs, 10, 12)
    sched = threshold_for(obs, 100, 2)
    assert sched.exceedance.measure() == F(1, 50)


# -- annuli and the extremal index ------------------------------------------


def test_annulus_doubling_third():
    U = ball(F(1, 3), F(1, 100))
    A1 = annulus_set(DOUBLING, U, 1)
    assert A1 == U  # no period-1 return at zeta = 1/3
    A2 = annulus_set(DOUBLING, U, 2)
    assert A2.measure() == F(3, 200)  # loses the quarter-width middle piece
    assert annulus_set(DOUBLING, U, 0) == U


def test_annulus_nonperiodic_center_is_whole_ball():
    U = ball(F(419, 1024), F(1, 1000))
    for q in range(4):
        assert annulus_set(DOUBLING, U, q) == U


def test_annulus_nesting():
    U = ball(F(1, 3), F(1, 40))
    prev = U
    for q in range(1, 6):
        A = annulus_set(DOUBLING, U, q)
        assert A.intersect(prev) == A  # A subset of previous
        prev = A


def test_theta_n_values():
    for den in (30, 60, 100, 300):
        assert theta_n(DOUBLING, ball(F(1, 3), F(1, den)), 2) == F(3, 4)
    assert theta_n(DOUBLING, ball(F(0), F(1, 100)), 1) == F(1, 2)
    assert theta_n(TRIPLING, ball(F(0), F(1, 100)), 1) == F(2, 3)
    assert theta_n(DOUBLING, ball(F(1, 3), F(1, 100)), 0) == 1


def test_theta_limit_cases():
    assert theta_limit_exact(DOUBLING, F(1, 3)) == (2, F(3, 4))
    assert theta_limit_exact(DOUBLING, F(0)) == (1, F(1, 2))
    assert theta_limit_exact(TRIPLING, 0) == (1, F(2, 3))
    q, th = theta_limit_exact(DOUBLING, F(982451653, 2 ** 40))
    assert (q, th) == (0, 1)
    # 1/3 under tripling falls onto the fixed point but is not itself periodic
    assert theta_limit_exact(TRIPLING, F(1, 3))[0] == 0


@pytest.mark.parametrize("spec", ["doubling", "widths:1/2,1/4,1/4"])
@pytest.mark.parametrize("zeta", [F(3, 2), F(1), F(-1, 3)])
def test_theta_limit_refuses_a_center_outside_the_circle(spec, zeta):
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
        theta_limit_exact(FullBranchMap.from_spec(spec), zeta)


def test_theta_limit_widths_map():
    # 0 is fixed on the first branch (slope 2) from the right and on the
    # last (slope 4) from the left: theta = 1 - (1/2 + 1/4)/2
    assert theta_limit_exact(WIDTHS, F(0)) == (1, F(5, 8))
    # a budget of 4 leaves the cap at 64, below the period 2223 of 1/9973
    with pytest.raises(PeriodUndecidedError):
        theta_limit_exact(
            FullBranchMap.from_spec("widths:1/2,1/4,1/4", budget=4),
            F(1, 9973))


def test_period_past_64_on_an_integer_map():
    # 2 has order 130 mod 131; on an integer map the orbit of a/den stays
    # among the den points k/den, so the default cap is den within the
    # budget
    assert theta_limit_exact(DOUBLING, F(1, 131)) == (130, 1 - F(1, 2 ** 130))
    assert theta_limit_exact(WIDTHS, F(1, 9973))[0] == 2223
    # a budget below 64 leaves the cap at 64
    assert theta_limit_exact(FullBranchMap.uniform(2, budget=1),
                             F(1, 3))[0] == 2
    with pytest.raises(PeriodUndecidedError):
        theta_limit_exact(FullBranchMap.uniform(2, budget=100), F(1, 131))
    # 1/262 -> 1/131 is strictly preperiodic: the gcd of 262 and d = 2
    # says so at once, where iterating would meet no repeat within the
    # cap of 64 (the cycle has length 130)
    assert theta_limit_exact(FullBranchMap.from_spec("doubling", budget=4),
                             F(1, 262))[0] == 0


def test_theta_limit_is_linear_in_the_period():
    # 2 has order 499991 mod 999983; the walk counts branch visits and
    # takes one power per branch, where a running product of slopes
    # costs O(p^2) bit operations (52 s)
    start = time.perf_counter()
    assert theta_limit_exact(FullBranchMap.doubling(), F(1, 999983)) == \
        (499991, 1 - F(1, 2 ** 499991))
    assert time.perf_counter() - start < 10
    # off the uniform maps the multiplier is |slope|^visits per branch
    z, mult = F(1, 9973), 1
    for _ in range(2223):
        mult *= abs(WIDTHS.branches[WIDTHS.branch_index(z)].slope)
        z = WIDTHS.apply(z)
    assert theta_limit_exact(WIDTHS, F(1, 9973)) == (2223, 1 - F(1, mult))


def _reference_theta_limit(m, step, zeta, cap):
    """(q, theta) from a set of every orbit point, ``step`` sending z
    to (|slope| at z, ``m.apply(z)``): a return to the start within cap
    steps gives the period, any other repeat says not periodic, and no
    repeat within cap steps raises."""
    if zeta == 0:
        return 1, 1 - (m.widths[0] + m.widths[-1]) / 2
    seen, z, mult = {zeta}, zeta, F(1)
    for j in range(1, cap + 1):
        slope, z = step(z)
        mult *= slope
        if z == zeta:
            return j, 1 - 1 / mult
        if z in seen:
            return 0, F(1)
        seen.add(z)
    raise PeriodUndecidedError(f"period of {zeta} exceeds cap {cap}")


INTEGER_SPECS = [
    "doubling", "tripling", "uniform:5", "uniform:10",
    "widths:1/2,1/4,1/4", "widths:1/4,1/4,1/2",
    '[{"lo": 0, "hi": "1/2", "slope": -2, "intercept": 1},'
    ' {"lo": "1/2", "hi": "3/4", "slope": 4, "intercept": -2},'
    ' {"lo": "3/4", "hi": 1, "slope": 4, "intercept": -3}]',
    '[{"lo": 0, "hi": "1/2", "slope": 2, "intercept": 0},'
    ' {"lo": "1/2", "hi": 1, "slope": -2, "intercept": 2}]',
]


def test_theta_limit_equals_a_reference_walk():
    # below den = 60 the cap is den, and an orbit among den points
    # repeats within den steps, so the reference never raises
    for spec in INTEGER_SPECS:
        m = FullBranchMap.from_spec(spec)
        step = cache(lambda z: (abs(m.branches[m.branch_index(z)].slope),
                                m.apply(z)))
        for den in range(1, 60):
            for a in filter(lambda a: math.gcd(a, den) == 1, range(den)):
                zeta = F(a, den)
                got = theta_limit_exact(m, zeta)
                assert got == _reference_theta_limit(m, step, zeta, den), \
                    (spec, zeta)
                assert type(got[0]) is int and type(got[1]) is F


@pytest.mark.parametrize("spec, budget, zeta, expected", [
    # 1/134 -> 1/67 halves the denominator for good: no repeat within
    # the cap of 64, yet not periodic
    ("doubling", 4, F(1, 134), (0, 1)),
    # a tail and a cycle within the cap of 64
    ("widths:1/2,1/4,1/4", 4, F(3, 65), (0, 1)),
    # a tail of 1 into a cycle of 63, then of 64: at and past the cap
    ("widths:1/2,1/4,1/4", 4, F(9, 209), (0, 1)),
    ("widths:1/2,1/4,1/4", 4, F(3, 193), PeriodUndecidedError),
    # 1/142 -> 70/71 on the first branch, of slope -2
    (ALTERNATING_SPEC, 4, F(1, 142), (0, 1)),
])
def test_theta_limit_past_the_cap(spec, budget, zeta, expected):
    m = FullBranchMap.from_spec(spec, budget=budget)
    if expected is PeriodUndecidedError:
        with pytest.raises(PeriodUndecidedError):
            theta_limit_exact(m, zeta)
    else:
        assert theta_limit_exact(m, zeta) == expected


def test_theta_limit_walks_in_constant_memory():
    # 1/99991 is not periodic under widths:1/2,1/4,1/4; a dict of its
    # orbit points peaks at 2.34 MiB, the walk keeps a few integers
    tracemalloc.start()
    try:
        assert theta_limit_exact(WIDTHS, F(1, 99991)) == (0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19


@pytest.mark.parametrize("spec", [
    "widths:1/2,1/4,1/4", "widths:1/3,2/3", "uniform:5",
    '[{"lo": 0, "hi": "1/2", "slope": -2, "intercept": 1},'
    ' {"lo": "1/2", "hi": "3/4", "slope": 4, "intercept": -2},'
    ' {"lo": "3/4", "hi": 1, "slope": 4, "intercept": -3}]',
    '[{"lo": 0, "hi": "1/2", "slope": 2, "intercept": 0},'
    ' {"lo": "1/2", "hi": 1, "slope": -2, "intercept": 2}]',
], ids=["widths", "thirds", "uniform5", "decreasing-first", "tent"])
def test_theta_limit_at_zero_equals_theta_n_on_small_balls(spec):
    # the ball around 0 meets both end branches, one on each side
    m = FullBranchMap.from_spec(spec)
    q, theta = theta_limit_exact(m, 0)
    assert q == 1
    for r in (F(1, 1000), F(1, 10 ** 6)):
        assert theta == theta_n(m, ball(F(0), r), 1)


# -- survivor sets and exact probabilities ----------------------------------


def test_survivor_window_identities():
    B = ball(F(1, 3), F(1, 20))
    assert survivor_set(DOUBLING, B, 0) == IntervalUnion.full()
    assert survivor_set(DOUBLING, B, 1).measure() == 1 - B.measure()


def test_survivor_membership_matches_orbit_max():
    rnd = random.Random(17)
    n = 8
    sched = threshold_for(Observable(center=F(1, 3)), n, 1)
    W = survivor_set(DOUBLING, sched.exceedance, n)
    for _ in range(10000):
        x = y = F(rnd.randrange(1, 99991), 99991)
        exceeded = False
        for _ in range(n):
            exceeded |= sched.exceedance.contains(y)
            y = DOUBLING.apply(y)
        assert W.contains(x) == (not exceeded)


def test_exact_evl_small_cases():
    U = IntervalUnion([(F(2, 5), F(3, 5))])
    assert exact_evl_prob(DOUBLING, U, 1) == 1 - F(1, 5)
    # n = 2: survivors avoid U and its preimage
    expected = IntervalUnion.full().difference(
        U.union(DOUBLING.preimage(U))).measure()
    assert exact_evl_prob(DOUBLING, U, 2) == expected
    grid_hits = sum(
        1 for i in range(10 ** 5)
        if not U.contains(F(i, 10 ** 5))
        and not U.contains(DOUBLING.apply(F(i, 10 ** 5))))
    assert abs(float(exact_evl_prob(DOUBLING, U, 2)) - grid_hits / 10 ** 5) < 1e-4


def test_exact_hts_cases():
    B = ball(F(1, 3), F(1, 20))
    assert exact_hts_prob(DOUBLING, B, 0) == 1
    for t in (1, 3, 6):
        assert exact_hts_prob(DOUBLING, B, t) == survivor_set(
            DOUBLING, B, t).measure()
    assert exact_hts_prob(DOUBLING, B, 6) >= 1 - 6 * B.measure()


# a decreasing second branch: x -> 3x on [0, 1/3), x -> 3/2 - 3x/2 on [1/3, 1)
FOLDED = FullBranchMap.from_spec(
    '[{"lo": 0, "hi": "1/3", "slope": 3, "intercept": 0},'
    ' {"lo": "1/3", "hi": 1, "slope": "-3/2", "intercept": "3/2"}]')


@pytest.mark.parametrize("map_", [DOUBLING, WIDTHS, FOLDED],
                         ids=["doubling", "widths", "folded"])
def test_exact_hts_prob_is_preimage_measure(map_):
    # {r_B > t} is the preimage of the length-t survivor set; the map
    # preserves Lebesgue measure, so skipping that preimage changes nothing
    for center, radius in ((F(1, 3), F(1, 20)), (F(0), F(1, 16)),
                           (F(5, 7), F(1, 40))):
        B = ball(center, radius)
        for t in range(8):
            W = survivor_set(map_, B, t)
            assert exact_hts_prob(map_, B, t) == map_.preimage(W).measure()


# computed with Fraction endpoints throughout, before sets were stored
# over a common integer denominator
GOLDEN = [
    ("doubling", "1/3", F(351, 1024), F(1471, 2560)),
    ("doubling", "0", F(63, 128), F(2841, 4096)),
    ("doubling", "2/7", F(351, 1024), F(4321, 8192)),
    ("tripling", "1/3", F(628, 2187), F(1352983, 2657205)),
    ("tripling", "0", F(7195, 17496), F(2234563, 3542940)),
    ("tripling", "2/7", F(36031, 122472), F(1820129, 3542940)),
    ("widths:1/2,1/4,1/4", "1/3", F(1189, 4096), F(10676557, 20971520)),
    ("widths:1/2,1/4,1/4", "0", F(114275, 262144), F(6767729, 10485760)),
    ("widths:1/2,1/4,1/4", "2/7", F(4525, 16384), F(714289, 1310720)),
]


@pytest.mark.parametrize("spec, center, evl, hts", GOLDEN)
def test_exact_probabilities_golden(spec, center, evl, hts):
    m = FullBranchMap.from_spec(spec)
    U = threshold_for(Observable(F(center)), 8, 1).exceedance
    assert exact_evl_prob(m, U, 8) == evl
    assert exact_hts_prob(m, ball(F(center), F(1, 40)), 12) == hts


def test_stationarity_exact():
    S = IntervalUnion([(F(3, 7), F(4, 7))])
    P = S
    for _ in range(10):
        P = DOUBLING.preimage(P)
        assert P.measure() == S.measure()


# -- return times and recurrence sums ---------------------------------------


def test_first_return_examples():
    assert first_return_time(DOUBLING, IntervalUnion.full()) == 1
    assert first_return_time(DOUBLING, ball(F(1, 3), F(1, 100))) == 2
    values = []
    for den in (100, 1000, 10000):
        A = annulus_set(DOUBLING, ball(F(1, 3), F(1, den)), 2)
        values.append(first_return_time(DOUBLING, A))
    assert values[0] >= 3
    assert values == sorted(values) and values[0] < values[-1]


def test_first_return_horizon_exhausted(monkeypatch):
    # a set that never returns is pushed forward exactly RETURN_HORIZON
    # times before the search gives up
    skewed = FullBranchMap.from_spec("widths:49/50,1/50")
    A = ball(F(1, 2), F(1, 10 ** 15))
    steps = []
    image = FullBranchMap.image
    monkeypatch.setattr(FullBranchMap, "image",
                        lambda self, S: steps.append(1) or image(self, S))
    assert first_return_time(skewed, A) > RETURN_HORIZON
    assert len(steps) == RETURN_HORIZON


def test_recurrence_start_fallback_without_return():
    # on the slope-50/49 branch a tiny ball drifts away for hundreds of
    # steps; its images do not meet it within the 256-step horizon, so
    # the tail starts at the first step not searched, 257, not at ell
    skewed = FullBranchMap.from_spec("widths:49/50,1/50")
    A = ball(F(1, 2), F(1, 10 ** 15))
    assert first_return_time(skewed, A) == RETURN_HORIZON + 1 == 257
    returning = annulus_set(DOUBLING, ball(F(1, 3), F(1, 100)), 2)
    assert 2 < first_return_time(DOUBLING, returning) <= RETURN_HORIZON


def _preimage(map_, S, j):
    """f^(-j)(S), one budgeted preimage at a time."""
    return reduce(lambda P, _: map_.preimage(P), range(j), S)


def test_pair_correlation_matches_preimage_path():
    A = annulus_set(DOUBLING, ball(F(1, 3), F(1, 512)), 2)
    for j in (1, 2, 3, 6, 9, 12):
        slow = A.intersect(_preimage(DOUBLING, A, j)).measure()
        assert events._pair_sum(DOUBLING, A, j, j) == slow
    B = ball(F(1, 8), F(1, 200))
    for j in (1, 3, 5, 8):
        slow = B.intersect(_preimage(TRIPLING, B, j)).measure()
        assert events._pair_sum(TRIPLING, B, j, j) == slow


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4),
       st.lists(st.integers(0, 90), min_size=2, max_size=8, unique=True))
def test_pair_correlation_closed_form_on_random_sets(d, j, ends):
    m = FullBranchMap.uniform(d)
    ends = sorted(ends)[:len(ends) // 2 * 2]
    A = IntervalUnion([(F(a, 90), F(b, 90)) for a, b in zip(ends[::2], ends[1::2])])
    slow = A.intersect(_preimage(m, A, j)).measure()
    assert events._pair_sum(m, A, j, j) == slow
    assert _pair_by_turns(d, A, j) == slow


def _pair_by_turns(d, A, j):
    """m(A intersect f^(-j) A) on x -> d*x mod 1, one big-integer divmod
    per end: over [0, e/q) the periodized indicator of A, magnified by
    D = d^j, integrates to whole turns of A's measure plus a prefix of
    A's components, and the ends' signed sum of these, over D, is the
    measure."""
    D = d ** j
    e, q = A.ends, A.denominator
    prefix = [0]  # prefix[m]: measure * q of the first m components
    for k in range(0, len(e), 2):
        prefix.append(prefix[-1] + e[k + 1] - e[k])
    total = 0
    for k, y in enumerate(e):
        turns, r = divmod(D * y, q)
        i = bisect_right(e, r)
        cum = turns * prefix[-1] + prefix[i // 2]
        if i % 2:
            cum += r - e[i - 1]
        total += cum if k % 2 else -cum
    return F(total, q * D)


@st.composite
def _uniform_sums(draw):
    # a union with integer ends over q <= 200, 0 and q among them at
    # times, and a range of j up to about 300, past the period of
    # d^j mod q (at most q, and preperiodic where q shares a factor with d)
    d = draw(st.sampled_from([2, 3, 5, 7]))
    q = draw(st.integers(1, 200))
    ends = set(draw(st.lists(st.integers(0, q), max_size=10)))
    if draw(st.booleans()):
        ends |= {0, q}
    ends = sorted(ends)
    ends = ends[:len(ends) // 2 * 2]
    A = IntervalUnion([(F(a, q), F(b, q))
                       for a, b in zip(ends[::2], ends[1::2])])
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 300 * k))
    return d, A, n, draw(st.integers(0, 40)), k


@settings(max_examples=60, deadline=None)
@given(_uniform_sums(), st.sampled_from(["theorem", "corollary"]))
def test_dprime_sum_on_uniform_maps_is_the_sum_of_its_terms(case, variant):
    d, A, n, q, k = case
    if variant == "theorem":
        js = range(q + 1, n // k)
    else:
        js = range(1, n // k + 1)
    expected = n * sum((_pair_by_turns(d, A, j) for j in js), F(0))
    assert dprime_sum(FullBranchMap.uniform(d), A, n, q, k, variant) \
        == expected


def test_dprime_sum_on_uniform_maps_at_set_residue_cycles():
    # q = 200 = 2^3 * 25: doubling's residues d^j mod q are preperiodic
    # (three steps to reach 0 mod 8) and then cycle with period 20 mod
    # 25; tripling's cycle has period 20 and uniform:7's period 4.  The
    # sums run to j = 299 and 300, past both; A has an end at 0 and one
    # at q; a one-term range and an empty one
    A = IntervalUnion([(F(0), F(3, 200)), (F(1, 8), F(41, 200)),
                       (F(199, 200), F(1))])
    for d in (2, 3, 7):
        m = FullBranchMap.uniform(d)
        terms = [_pair_by_turns(d, A, j) for j in range(1, 301)]
        assert dprime_sum(m, A, 900, 5, 3) == 900 * sum(terms[5:299])
        assert dprime_sum(m, A, 900, 5, 3, "corollary") == 900 * sum(terms)
        assert dprime_sum(m, A, 12, 4, 2) == 12 * terms[4]
        assert dprime_sum(m, A, 12, 5, 2) == 0
        for j in (1, 3, 20, 23, 299):
            assert events._pair_sum(m, A, j, j) == terms[j - 1]


def test_dprime_sum_examples():
    obs = Observable(center=F(1, 3))

    def annulus(n, q=2):
        return annulus_set(DOUBLING, threshold_for(obs, n, 1).exceedance, q)

    prev = None
    for n in (256, 1024, 4096):
        k = max(1, math.ceil(n ** 0.25))
        v = dprime_sum(DOUBLING, annulus(n), n, 2, k)
        assert v > 0
        if prev is not None:
            assert v < prev
        prev = v
    # empty range: the sum reads no annulus, so any set stands in for
    # A(31), whose 31 preimages would exhaust the budget
    assert dprime_sum(DOUBLING, annulus(64), 64, 31, 2) == 0
    # first return beyond the summation range kills every term
    assert dprime_sum(DOUBLING, annulus(64), 64, 2, 16) == 0
    # corollary variant starts at j = 1
    A = annulus(256)
    assert dprime_sum(DOUBLING, A, 256, 2, 4, variant="corollary") >= \
        dprime_sum(DOUBLING, A, 256, 2, 4, variant="theorem")


def test_dprime_nonuniform_budgeted_path():
    # WIDTHS takes its Markov partition, widths:2/5,3/5 budgeted
    # iterated preimages; both sum the terms j = 2..7
    U = threshold_for(Observable(center=F(0)), 32, 1).exceedance
    for m in (WIDTHS, FullBranchMap.from_spec("widths:2/5,3/5")):
        A = annulus_set(m, U, 1)
        v = dprime_sum(m, A, 32, 1, 4)
        assert v > 0
        assert v == 32 * sum(A.intersect(_preimage(m, A, j)).measure()
                             for j in range(2, 8))


@pytest.mark.parametrize("zeta, q", [(F(1, 3), 1), (F(0), 0)])
def test_dprime_sum_walks_one_preimage_chain(zeta, q, monkeypatch):
    # widths:2/5,3/5 has no Markov partition: the terms j = q+1..15 come
    # from one chain f^-1 A .. f^-15 A, 15 preimages, where building
    # each f^-j A from A again took 119 at 1/3.  At the fixed point 0
    # with q = 0 the first term, j = 1, is not 0
    m = FullBranchMap.from_spec("widths:2/5,3/5")
    A = annulus_set(m, threshold_for(Observable(center=zeta), 64, 1)
                    .exceedance, q)
    terms = [A.intersect(_preimage(m, A, j)).measure()
             for j in range(q + 1, 16)]
    assert (terms[0] > 0) == (q == 0)
    calls = []
    preimage = FullBranchMap.preimage
    monkeypatch.setattr(FullBranchMap, "preimage",
                        lambda self, S: calls.append(S) or preimage(self, S))
    assert dprime_sum(m, A, 64, q, 4) == 64 * sum(terms)
    assert len(calls) == 15


# -- the component budget -----------------------------------------------------

SMALL_TRIPLING = FullBranchMap.uniform(3, budget=50)
# slopes 5/2 and 5/3: no Markov partition, so the oracles build preimages
SMALL_SPLIT = FullBranchMap.from_spec("widths:2/5,3/5", budget=50)
HOLE = ball(F(1, 3), F(1, 100))

BUDGET_ENTRY_POINTS = {
    "survivor_set": lambda: survivor_set(SMALL_TRIPLING, HOLE, 12),
    "annulus_set": lambda: annulus_set(SMALL_TRIPLING, HOLE, 8),
    # 1/2 is fixed under tripling, so its annulus is not the ball
    "annulus_replacement": lambda: annulus_replacement(
        SMALL_TRIPLING, ball(F(1, 2), F(1, 100)), 1, 12),
    "exact_hts_prob": lambda: exact_hts_prob(SMALL_SPLIT, HOLE, 12),
    # one term of the recurrence sum, m(A intersect f^(-8) A)
    "pair_correlation_measure": lambda: events._pair_sum(
        SMALL_SPLIT, HOLE, 8, 8),
    "dprime_sum": lambda: dprime_sum(SMALL_SPLIT, HOLE, 64, 1, 4),
}


@pytest.mark.parametrize("entry", sorted(BUDGET_ENTRY_POINTS))
def test_every_exact_set_stops_at_the_map_budget(entry, monkeypatch):
    # each entry point needs a preimage past the budget of 50; none may
    # return one before it raises
    sizes = []
    preimage = FullBranchMap.preimage

    def spy(self, S):
        P = preimage(self, S)
        sizes.append(len(P))
        return P

    monkeypatch.setattr(FullBranchMap, "preimage", spy)
    with pytest.raises(ComponentBudgetError, match="budget of 50"):
        BUDGET_ENTRY_POINTS[entry]()
    assert sizes and max(sizes) <= 50


def test_survivor_set_budget_bounds_the_preimage():
    # at ell = 6 the survivor set of HOLE under tripling has 352
    # components and the preimage it is cut from 358: the budget bounds
    # the preimage, so 352 no longer suffices
    assert len(survivor_set(FullBranchMap.uniform(3, budget=358), HOLE, 6)) \
        == 352
    with pytest.raises(ComponentBudgetError):
        survivor_set(FullBranchMap.uniform(3, budget=357), HOLE, 6)


# -- the Markov-partition oracle of integer maps ------------------------------

# the widths of WIDTHS with a decreasing first branch
DECREASING_SPEC = ('[{"lo": 0, "hi": "1/2", "slope": -2, "intercept": 1},'
                   ' {"lo": "1/2", "hi": "3/4", "slope": 4, "intercept": -2},'
                   ' {"lo": "3/4", "hi": 1, "slope": 4, "intercept": -3}]')
INTEGER_MAPS = {"doubling": DOUBLING, "tripling": TRIPLING, "widths": WIDTHS,
                "decreasing": FullBranchMap.from_spec(DECREASING_SPEC)}
CENTRES = st.integers(1, 40).flatmap(
    lambda q: st.integers(0, q - 1).map(lambda p: F(p, q)))


def test_which_maps_are_integer_maps():
    assert all(m.is_integer for m in INTEGER_MAPS.values())
    for m in (FullBranchMap.from_spec("widths:2/5,3/5"),
              FullBranchMap.from_spec("widths:49/50,1/50"), FOLDED):
        assert not m.is_integer
        with pytest.raises(ValueError, match="integer map"):
            m.markov_partition(HOLE)


@pytest.mark.parametrize("name", sorted(INTEGER_MAPS))
def test_markov_cells_map_onto_runs_of_cells(name):
    m = INTEGER_MAPS[name]
    e, D, scale, rows = m.markov_partition(ball(F(2, 7), F(1, 30)))
    assert e[0] == 0 and e[-1] == D and e == sorted(set(e))
    assert len(rows) == len(e) - 1
    for (f, j0, j1), a, b in zip(rows, e, e[1:]):
        br = m.branches[m.branch_index(F(a, D))]
        assert br.lo <= F(a, D) < F(b, D) <= br.hi
        image = sorted((br.value(F(a, D)), br.value(F(b, D))))
        assert image == [F(e[j0], D), F(e[j1], D)]
        assert f * abs(br.slope) == scale


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(INTEGER_MAPS)), zeta=CENTRES,
       n=st.integers(1, 12), tau=st.sampled_from([F(1, 2), F(1), F(2)]))
def test_markov_evl_oracle_equals_the_survivor_set(name, zeta, n, tau):
    assume(tau < n)
    m = INTEGER_MAPS[name]
    U = threshold_for(Observable(zeta), n, tau).exceedance
    assert exact_evl_prob(m, U, n) == survivor_set(m, U, n).measure()


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(INTEGER_MAPS)), zeta=CENTRES,
       t=st.integers(0, 12),
       eps=st.sampled_from([F(1, 10), F(1, 16), F(1, 40), F(1, 64)]))
def test_markov_hts_oracle_equals_the_survivor_set(name, zeta, t, eps):
    m = INTEGER_MAPS[name]
    B = ball(zeta, eps)
    assert exact_hts_prob(m, B, t) == survivor_set(m, B, t).measure()


@pytest.mark.parametrize("d", [257, 1000])
@pytest.mark.parametrize("zeta, eps", [(F(1, 3), F(1, 10)), (F(2, 7), F(1, 40)),
                                       (F(1, 3), F(1, 1000))])
def test_markov_hts_oracle_equals_the_survivor_set_past_uniform_256(d, zeta,
                                                                    eps):
    # the partition route against the interval route on the maps the
    # Monte Carlo tests also cover; on uniform:1000 the survivor set of
    # the 1/10 ball at t = 3 has 640,001 components
    m = FullBranchMap.uniform(d)
    B = ball(zeta, eps)
    for t in range(4):
        assert exact_hts_prob(m, B, t) == survivor_set(m, B, t).measure()


def _pair_by_preimages(map_, A, j):
    """m(A intersect f^(-j) A) by exact preimages, each cut down to the
    forward image of A at its time, so that j = 16 stays small."""
    images = [A]
    for _ in range(j - 1):
        images.append(map_.image(images[-1]))
    Z = A
    for Y in reversed(images):
        Z = Y.intersect(map_.preimage(Z))
    return Z.measure()


@pytest.mark.parametrize("zeta", [F(2, 5), F(1, 3), F(0), F(1, 7)])
def test_markov_pair_correlations_equal_preimages_on_widths(zeta):
    q, _ = theta_limit_exact(WIDTHS, zeta)
    A = annulus_set(WIDTHS, ball(zeta, F(1, 10000)), q)
    measures = [events._pair_sum(WIDTHS, A, j, j) for j in range(1, 17)]
    assert any(measures)
    for j in range(1, 9):
        assert measures[j - 1] == \
            A.intersect(_preimage(WIDTHS, A, j)).measure()
    assert measures == [_pair_by_preimages(WIDTHS, A, j) for j in range(1, 17)]
    # the recurrence sums read the same pass, here up to j = 16
    assert dprime_sum(WIDTHS, A, 68, q, 4) == 68 * sum(measures[q:])
    assert dprime_sum(WIDTHS, A, 64, q, 4, variant="corollary") == \
        64 * sum(measures)


def _markov_pairs(map_, A, j_max):
    """[m(A intersect f^(-j) A) for j = 1..j_max], one Fraction per j from
    one pass over A's Markov partition."""
    ends, den, scale, rows = map_.markov_partition(A)
    inside = events._cells_in(ends, den, A)
    mass = [b - a if i else 0 for a, b, i in zip(ends, ends[1:], inside)]
    out = []
    for _ in range(j_max):
        mass = events._pull_back(rows, mass)
        den *= scale
        out.append(F(sum(compress(mass, inside)), den))
    return out


@pytest.mark.parametrize("zeta", [F(1, 3), F(0), F(2, 5)])
@pytest.mark.parametrize("spec", ["widths:1/2,1/4,1/4", DECREASING_SPEC])
def test_markov_recurrence_sum_is_the_sum_of_its_terms(spec, zeta):
    # at n = 1000 and k = 4 the sums run to j = 249 and 250; the pass
    # builds one integer numerator over den * scale^j_hi
    m = FullBranchMap.from_spec(spec)
    q, _ = theta_limit_exact(m, zeta)
    A = annulus_set(m, threshold_for(Observable(zeta), 1000, 1).exceedance, q)
    terms = _markov_pairs(m, A, 250)
    assert any(terms)
    assert dprime_sum(m, A, 1000, q, 4) == 1000 * sum(terms[q:249])
    assert dprime_sum(m, A, 1000, q, 4, "corollary") == 1000 * sum(terms)
    for j in (1, 7, 250):
        assert events._pair_sum(m, A, j, j) == terms[j - 1]


def test_a_long_orbit_at_a_short_horizon_takes_interval_algebra():
    # the binary float 0.1 is 3602879701896397 / 2^55, whose tripling
    # orbit has period 2^53: its partition stops only at its limit, and
    # the oracle takes interval algebra.  At n = 12 interval algebra's
    # worst case, 2 * 3^12 = 1062882 components, is past the default
    # budget, which then sets the limit; the survivor set it builds has
    # 107563 components.
    B = threshold_for(Observable(0.1), 5, 1).exceedance
    assert TRIPLING.markov_partition(B, limit=486) is None
    assert FullBranchMap.uniform(3, budget=10 ** 4).markov_partition(B) \
        is None
    assert exact_evl_prob(TRIPLING, B, 5) == \
        survivor_set(TRIPLING, B, 5).measure()
    B = threshold_for(Observable(0.1), 12, 1).exceedance
    assert 2 * 3 ** 12 > TRIPLING.budget
    assert exact_evl_prob(TRIPLING, B, 12) == \
        survivor_set(TRIPLING, B, 12).measure()


# 108 cells on doubling, 205 on tripling and 77 on the other two
WIDE = ball(F(1, 3), F(1, 1000))
PARTITION_ENTRY_POINTS = {  # (map, steps of the recursion, call)
    "exact_evl_prob": ("doubling", 12, lambda m: exact_evl_prob(m, WIDE, 12)),
    "exact_hts_prob": ("tripling", 12, lambda m: exact_hts_prob(m, WIDE, 12)),
    "pair_correlation_measure": (  # m(A intersect f^(-8) A)
        "widths:1/2,1/4,1/4", 8,
        lambda m: events._pair_sum(m, WIDE, 8, 8)),
    "dprime_sum": (DECREASING_SPEC, 249,
                   lambda m: dprime_sum(m, WIDE, 1000, 1, 4)),
}


def test_the_markov_partition_stops_at_its_limit():
    # a partition stops before it holds a cut past the budget or the
    # limit, whichever is smaller, and returns None
    for spec in ("doubling", "tripling", DECREASING_SPEC):
        cells = len(FullBranchMap.from_spec(spec).markov_partition(WIDE)[3])
        assert cells > 50
        for budget, limit in ((cells, None), (cells, cells),
                              (10 ** 6, cells)):
            m = FullBranchMap.from_spec(spec, budget=budget)
            assert len(m.markov_partition(WIDE, limit)[3]) == cells
        for budget, limit in ((cells - 1, None), (cells, cells - 1),
                              (cells - 1, cells), (50, None)):
            m = FullBranchMap.from_spec(spec, budget=budget)
            assert m.markov_partition(WIDE, limit) is None


@pytest.mark.parametrize("entry", sorted(PARTITION_ENTRY_POINTS))
def test_the_markov_partition_stops_at_the_map_budget(entry, monkeypatch):
    # each entry point's partition needs more than 50 cells.  Its pass
    # costs cells * (steps + 16) of the budget: at that budget the oracle
    # runs the partition and builds no preimage; one below, the partition
    # stops early and interval algebra answers or raises; at 50 it raises
    spec, steps, call = PARTITION_ENTRY_POINTS[entry]
    cells = len(FullBranchMap.from_spec(spec).markov_partition(WIDE)[3])
    assert cells > 50
    exact = call(FullBranchMap.from_spec(spec))
    partitions = []
    markov_partition = FullBranchMap.markov_partition

    def spy(self, S, limit=None):
        part = markov_partition(self, S, limit)
        partitions.append(part)
        return part

    monkeypatch.setattr(FullBranchMap, "markov_partition", spy)
    with pytest.raises(ComponentBudgetError, match="budget of 50;"):
        call(FullBranchMap.from_spec(spec, budget=50))
    assert partitions and all(p is None for p in partitions)
    partitions.clear()
    try:
        assert call(FullBranchMap.from_spec(
            spec, budget=cells * (steps + 16) - 1)) == exact
    except ComponentBudgetError:
        pass
    assert partitions and all(p is None for p in partitions)

    def no_preimage(self, S):
        raise AssertionError("an integer map built a preimage")

    monkeypatch.setattr(FullBranchMap, "preimage", no_preimage)
    partitions.clear()
    assert call(FullBranchMap.from_spec(
        spec, budget=cells * (steps + 16))) == exact
    assert [len(p[3]) for p in partitions] == [cells]


def test_the_oracle_takes_intervals_where_they_are_cheaper(monkeypatch):
    # WIDE has 108 cells on doubling, and 108 * (n + 16) is within
    # 2 * 2^n, the most components interval algebra reaches in n steps,
    # only from n = 11 on
    partitions = []
    markov_partition = FullBranchMap.markov_partition

    def spy(self, S, limit=None):
        part = markov_partition(self, S, limit)
        partitions.append(part and len(part[3]))
        return part

    monkeypatch.setattr(FullBranchMap, "markov_partition", spy)
    for n, cells in ((10, None), (11, 108)):
        partitions.clear()
        assert exact_evl_prob(DOUBLING, WIDE, n) == \
            survivor_set(DOUBLING, WIDE, n).measure()
        assert partitions == [cells]


TENT = ('[{"lo": 0, "hi": "1/2", "slope": 2, "intercept": 0},'
        ' {"lo": "1/2", "hi": 1, "slope": -2, "intercept": 2}]')
# escape rates of the holed Ulam matrix, which is exact where its bins are
# Markov: integer maps, holes aligned to the bins
SPECTRAL = [
    ("doubling", F(0), F(1, 100), 0.01066645282166119),
    ("doubling", F(3, 8), F(1, 64), 0.0368912013226881),
    ("doubling", F(1, 3), F(1, 200), 0.007886730033963),
    ("doubling", F(5, 17), F(1, 68), 0.0294383672576219),
    ("tripling", F(1, 4), F(1, 60), 0.0333486500477343),
    ("tripling", F(1, 13), F(1, 65), 0.0328295528712691),
    ("widths:1/2,1/4,1/4", F(2, 5), F(1, 100), 0.0204956445599346),
    (TENT, F(2, 3), F(1, 60), 0.0183562255752757),
    ("uniform:5", F(1, 7), F(1, 70), 0.0307303351120747),
]


def _spectral_id(case):
    spec, zeta, eps, _ = case
    return f"{'tent' if spec == TENT else spec}-{zeta}-{eps}"


@pytest.mark.parametrize("spec, zeta, eps, rate", SPECTRAL,
                         ids=map(_spectral_id, SPECTRAL))
def test_spectral_escape_rate_matches_the_ulam_values(spec, zeta, eps, rate):
    m = FullBranchMap.from_spec(spec)
    assert spectral_escape_rate(m, ball(zeta, eps)) == \
        pytest.approx(rate, rel=1e-9)


@pytest.mark.parametrize("spec, zeta, eps, rate", SPECTRAL[2::2],
                         ids=map(_spectral_id, SPECTRAL[2::2]))
def test_spectral_escape_rate_is_the_decay_of_exact_hts(spec, zeta, eps, rate):
    m, B = FullBranchMap.from_spec(spec), ball(zeta, eps)
    decay = -math.log(exact_hts_prob(m, B, 201) / exact_hts_prob(m, B, 200))
    assert spectral_escape_rate(m, B) == pytest.approx(decay, rel=1e-9)


def test_spectral_escape_rate_on_a_small_hole_is_fast():
    # 20,014 cells; a dense Ulam matrix this fine would take about 7 GB
    start = time.perf_counter()
    rate = spectral_escape_rate(DOUBLING, ball(F(1, 3), F(1, 10007)))
    assert time.perf_counter() - start < 2
    # theta = 3/4 at the period-2 centre: rate / P(B) tends to 3/4
    # (0.7514 here)
    assert rate * 10007 / 2 == pytest.approx(0.75, rel=1e-2)


def test_spectral_escape_rate_edges():
    assert spectral_escape_rate(DOUBLING, IntervalUnion.empty()) == 0.0
    assert spectral_escape_rate(DOUBLING, IntervalUnion.full()) == math.inf
    with pytest.raises(ComponentBudgetError):
        spectral_escape_rate(FullBranchMap.uniform(2, budget=10),
                             ball(F(1, 3), F(1, 100)))
    with pytest.raises(ValueError):
        spectral_escape_rate(FullBranchMap.from_spec("widths:2/5,3/5"),
                             ball(F(1, 3), F(1, 100)))
    # what survives this hole alternates between two pieces, so the
    # ratios alternate too and never settle; the masses gain a bit a step,
    # and without their shifts the 100000 steps took 8.8 s, not 0.5 s
    # (CPython 3.11, 2-vCPU VM)
    with pytest.raises(ConvergenceError):
        spectral_escape_rate(ALTERNATING, ball(F(3, 25), F(1, 5)))


# holes whose rate is defined but whose successive survivor ratios never
# agree to 1e-12.  Survivors of ball(1/2, 1/3) = [1/6, 5/6) under
# ALTERNATING alternate between two pieces: S(k+1)/S(k) alternates, while
# S(k+2)/S(k) settles at 1/8, so the rate is (3/2) log 2, the two-step
# decay of exact_hts_prob at t = 100, 200 and 400.  [1/4, 1/2) on
# doubling (the cylinder [01]) leaves n + 1 words of length n, so
# S(k+1)/S(k) tends to 1/2, rate log 2, only as 1/k
UNSETTLED = [
    ("alternating", ALTERNATING, ball(F(1, 2), F(1, 3)), 1.5 * math.log(2)),
    ("doubling-01", DOUBLING, ball(F(3, 8), F(1, 8)), math.log(2)),
    ("widths-2/5", WIDTHS, ball(F(2, 5), F(1, 8)), math.log(2)),
]


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="spectral_escape_rate stops only on successive "
                          "ratios that agree")
@pytest.mark.parametrize("m, B, rate", [c[1:] for c in UNSETTLED],
                         ids=[c[0] for c in UNSETTLED])
def test_spectral_escape_rate_where_successive_ratios_do_not_settle(m, B,
                                                                   rate):
    assert spectral_escape_rate(m, B) == pytest.approx(rate, rel=1e-9)


def _cylinder(d, word):
    """The d-adic interval of the points whose first digits are ``word``."""
    k = int(word, d)
    return IntervalUnion([(F(k, d ** len(word)), F(k + 1, d ** len(word)))])


def _symbolic_rate(d, word):
    """log d - log lambda, lambda the growth rate of the words over d
    digits that avoid ``word``: the spectral radius of the graph on words
    one digit shorter, with an edge for each next digit that does not
    complete ``word``."""
    states = ["".join(s) for s in product("0123456789"[:d],
                                          repeat=len(word) - 1)]
    index = {s: i for i, s in enumerate(states)}
    A = np.zeros((len(states), len(states)))
    for s in states:
        for c in "0123456789"[:d]:
            if s + c != word:
                A[index[s], index[(s + c)[1:]]] += 1
    return math.log(d) - math.log(max(abs(np.linalg.eigvals(A))))


# on x -> d*x mod 1 the hole [word] leaves the points whose d-ary digits
# avoid ``word``.  "01" is left out: 1...10...0 are the words that avoid
# it, n + 1 of length n, so the rate is log 2 but the ratios approach
# 1/2 only as 1/n and never settle to 1e-12
CYLINDERS = [(2, w) for w in ("0", "00", "000", "001", "010", "011", "0000",
                              "0001", "0101", "0110", "00000", "01011")] + \
    [(3, w) for w in ("1", "11", "12", "121", "102", "1111")] + \
    [(5, w) for w in ("2", "24", "44", "404")]


@pytest.mark.parametrize("d, word", CYLINDERS,
                         ids=[f"{d}-{w}" for d, w in CYLINDERS])
def test_spectral_escape_rate_through_a_cylinder_is_the_symbolic_rate(
        d, word):
    assert spectral_escape_rate(FullBranchMap.uniform(d),
                                _cylinder(d, word)) == \
        pytest.approx(_symbolic_rate(d, word), rel=1e-9)


def _minimal_period(word):
    return next(p for p in range(1, len(word) + 1)
                if word[p:] == word[:-p])


@pytest.mark.parametrize("length", [3, 4, 5, 6])
def test_escape_is_faster_through_a_cylinder_of_longer_minimal_period(length):
    # Bunimovich & Yurchenko, "Where to place a hole to achieve a maximal
    # escape rate" (2011): among the cylinders of one length on the
    # doubling map, a longer minimal period gives a larger escape rate
    rates = {}
    for word in map("".join, product("01", repeat=length)):
        rates.setdefault(_minimal_period(word), []).append(
            spectral_escape_rate(DOUBLING, _cylinder(2, word)))
    periods = sorted(rates)
    assert periods[0] == 1 and periods[-1] == length
    for p, q in zip(periods, periods[1:]):
        assert max(rates[p]) < min(rates[q])


@pytest.mark.parametrize("spec, zeta, eps, rate", SPECTRAL[::2],
                         ids=map(_spectral_id, SPECTRAL[::2]))
def test_spectral_escape_rate_grows_with_the_hole(spec, zeta, eps, rate):
    # the survivors of a hole survive every hole inside it
    m = FullBranchMap.from_spec(spec)
    rates = [spectral_escape_rate(m, ball(zeta, eps / k)) for k in (4, 2, 1)]
    assert rates[0] < rates[1] < rates[2]
    assert rates[2] == pytest.approx(rate, rel=1e-9)


THETA_CENTRES = [("doubling", F(0)), ("doubling", F(1, 3)),
                 ("doubling", F(1, 7)), ("doubling", F(3, 8)),
                 ("tripling", F(1, 2)), ("tripling", F(1, 4)),
                 ("widths:1/2,1/4,1/4", F(2, 5)), (TENT, F(2, 3)),
                 ("uniform:5", F(1, 7))]


@pytest.mark.parametrize("spec, zeta", THETA_CENTRES,
                         ids=[f"{'tent' if s == TENT else s}-{z}"
                              for s, z in THETA_CENTRES])
def test_spectral_escape_rate_over_the_hole_measure_tends_to_theta(spec,
                                                                   zeta):
    # rate / P(B) -> theta (Keller & Liverani 2009), at the speed
    # P(B) |log P(B)| of the paper's bounds; the constant is 1.49 at most
    # on these centres at both radii, and falls from 1/200 to 1/2000
    m = FullBranchMap.from_spec(spec)
    theta = float(theta_limit_exact(m, zeta)[1])
    for eps in (F(1, 200), F(1, 2000)):
        B = ball(zeta, eps)
        PB = float(B.measure())
        rate = spectral_escape_rate(m, B)
        assert abs(rate / (theta * PB) - 1) <= 3 * PB * math.log(1 / PB)


@pytest.mark.parametrize("d, zeta, eps", [
    (2, F(1, 7), F(1, 50)), (2, F(3, 10), F(1, 40)), (3, F(1, 13), F(1, 65)),
    (5, F(1, 11), F(1, 70))])
def test_spectral_escape_rate_is_symmetric_under_reflection(d, zeta, eps):
    # x -> 1 - x conjugates x -> d*x mod 1 to itself and takes the ball
    # about zeta to the ball about 1 - zeta; neither centre is an iterate
    # of the other
    m = FullBranchMap.uniform(d)
    assert spectral_escape_rate(m, ball(1 - zeta, eps)) == \
        pytest.approx(spectral_escape_rate(m, ball(zeta, eps)), rel=1e-9)
