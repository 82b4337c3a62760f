import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from extremap.errors import InfeasibleError, PeriodUndecidedError
from extremap.intervals import IntervalUnion, ball
from extremap.maps import FullBranchMap
from extremap.events import (
    Observable,
    annulus_set,
    detect_period,
    dprime_sum,
    exact_evl_prob,
    exact_hts_prob,
    first_return_time,
    pair_correlation_measure,
    recurrence_start,
    survivor_set,
    theta_limit,
    theta_limit_exact,
    theta_n,
    threshold_for,
)

DOUBLING = FullBranchMap.doubling()
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
    assert theta_limit(DOUBLING, F(1, 3)) == (2, 0.75)
    assert theta_limit(DOUBLING, F(0)) == (1, 0.5)
    assert theta_limit_exact(TRIPLING, 0) == (1, F(2, 3))
    q, th = theta_limit(DOUBLING, F(982451653, 2 ** 40))
    assert (q, th) == (0, 1.0)
    # 1/3 under tripling falls onto the fixed point but is not itself periodic
    assert detect_period(TRIPLING, F(1, 3)) is None


def test_theta_limit_widths_map():
    # 0 is fixed with slope 2 on the first branch
    assert theta_limit(WIDTHS, F(0)) == (1, 0.5)
    with pytest.raises(PeriodUndecidedError):
        detect_period(WIDTHS, F(1, 9973), cap=4)


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
        x = F(rnd.randrange(1, 99991), 99991)
        exceeded = any(sched.exceedance.contains(y)
                       for y in DOUBLING.orbit(x, n))
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


def test_first_return_horizon_exhausted():
    A = annulus_set(DOUBLING, ball(F(1, 3), F(1, 10000)), 2)
    assert first_return_time(DOUBLING, A, horizon=2) is None


def test_recurrence_start_fallback_without_return():
    # on the slope-50/49 branch a tiny ball drifts away for hundreds of
    # steps; its images do not meet it within the 256-step horizon
    skewed = FullBranchMap.from_spec("widths:49/50,1/50")
    A = ball(F(1, 2), F(1, 10 ** 15))
    assert first_return_time(skewed, A, horizon=256) is None
    assert recurrence_start(skewed, A, 10) == 256
    assert recurrence_start(skewed, A, 300) == 300
    returning = annulus_set(DOUBLING, ball(F(1, 3), F(1, 100)), 2)
    R = first_return_time(DOUBLING, returning)
    assert recurrence_start(DOUBLING, returning, 1000) == R < 256


def test_pair_correlation_matches_preimage_path():
    A = annulus_set(DOUBLING, ball(F(1, 3), F(1, 512)), 2)
    for j in (1, 2, 3, 6, 9, 12):
        slow = A.intersect(DOUBLING.preimage_iter(A, j)).measure()
        assert pair_correlation_measure(DOUBLING, A, j) == slow
    B = ball(F(1, 8), F(1, 200))
    for j in (1, 3, 5, 8):
        slow = B.intersect(TRIPLING.preimage_iter(B, j)).measure()
        assert pair_correlation_measure(TRIPLING, B, j) == slow


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4),
       st.lists(st.integers(0, 90), min_size=2, max_size=8, unique=True))
def test_pair_correlation_closed_form_on_random_sets(d, j, ends):
    m = FullBranchMap.uniform(d)
    ends = sorted(ends)[:len(ends) // 2 * 2]
    A = IntervalUnion([(F(a, 90), F(b, 90)) for a, b in zip(ends[::2], ends[1::2])])
    slow = A.intersect(m.preimage_iter(A, j)).measure()
    assert pair_correlation_measure(m, A, j) == slow


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
    U = threshold_for(Observable(center=F(0)), 32, 1).exceedance
    v = dprime_sum(WIDTHS, annulus_set(WIDTHS, U, 1), 32, 1, 4)
    assert v >= 0
