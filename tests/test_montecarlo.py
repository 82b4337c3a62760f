import math
import os
import signal
from fractions import Fraction as F

import numpy as np
import pytest

from extremap.errors import InfeasibleError
from extremap.intervals import IntervalUnion, ball
from extremap.maps import FullBranchMap, SmoothBranch, ulam_matrix
from extremap.events import (
    Observable,
    exact_evl_prob,
    exact_hts_prob,
    threshold_for,
)
from extremap import montecarlo as mc

DOUBLING = FullBranchMap.doubling()
TRIPLING = FullBranchMap.tripling()
WIDTHS = FullBranchMap.from_widths([F(1, 2), F(1, 4), F(1, 4)])


# -- the orbit samplers the estimators run ----------------------------------


def _uniform_states(d, steps, count, seed):
    """Windows of one _UniformOrbits chunk at times 0..steps, (steps+1, count)."""
    orb = mc._UniformOrbits(FullBranchMap.uniform(d), F(0), count,
                            np.random.default_rng(seed), steps)
    states = [orb.state.copy()]
    for _ in range(steps):
        orb.step()
        states.append(orb.state.copy())
    return orb.m, np.array(states)


def _horner_positions(map_, steps, count, rng):
    """Points of one _HornerOrbits chunk at times 0..steps, (steps+1, count),
    and the times at which it built a new block."""
    orb = mc._HornerOrbits(map_, F(0), count, rng, steps)
    rows, starts = [orb._pos[orb._row].copy()], [0]
    for k in range(1, steps + 1):
        orb.step()
        rows.append(orb._pos[orb._row].copy())
        if orb._row == 0:
            starts.append(k)
    return np.array(rows), starts


@pytest.mark.parametrize("d", [2, 3])
def test_uniform_orbits_coding(d):
    # x_k = window_k / m steps by the map up to the digit shifted in
    # (an exact multiple of 1/m below d/m), and that digit is the branch
    # of the orbit W - 1 steps later, once it leads the W-digit window
    f = FullBranchMap.uniform(d)
    m, states = _uniform_states(d, 120, 6, seed=11)
    W = round(math.log(m, d))
    for lane in range(states.shape[1]):
        xs = [F(int(s), m) for s in states[:, lane]]
        for k in range(len(xs) - 1):
            digit = (xs[k + 1] - f.apply(xs[k])) * m
            assert digit.denominator == 1 and 0 <= digit < d
            if k + W < len(xs):
                assert f.branch_index(xs[k + W]) == digit


def test_uniform_orbits_fair_digits():
    for d in (2, 3):
        m, states = _uniform_states(d, 100, 2000, seed=2)
        digits = states // np.uint64(m // d)
        for i in range(d):
            assert abs((digits == i).mean() - 1 / d) < 0.005


def test_uniform_orbits_occupation_frequency():
    for d in (2, 3):
        m, states = _uniform_states(d, 500, 2000, seed=5)
        x = states.astype(np.float64) / float(m)
        assert abs(((x >= 0.2) & (x < 0.3)).mean() - 0.1) < 0.001


def test_position_blocks_coding_across_step_block():
    # widths 1/2, 1/4, 1/4: the reconstructed points step by the map,
    # also from the last row of one block to the first of the next, and
    # visit the branches with frequencies equal to their widths
    horizon = 2 * mc.STEP_BLOCK + 7
    pos, starts = _horner_positions(WIDTHS, horizon - 1, 2000,
                                    np.random.default_rng(9))
    assert starts == [0, mc.STEP_BLOCK, 2 * mc.STEP_BLOCK]
    assert pos.shape == (horizon, 2000)
    for lane in range(20):
        for k in range(horizon - 1):
            gap = abs(WIDTHS.apply(pos[k, lane]) - pos[k + 1, lane])
            assert min(gap, 1 - gap) < 1e-9
    digits = np.searchsorted([0.5, 0.75], pos, side="right")
    for i, w in enumerate((0.5, 0.25, 0.25)):
        assert abs((digits == i).mean() - w) < 0.005
    assert abs(((pos >= 0.2) & (pos < 0.3)).mean() - 0.1) < 0.002


# -- the kernels against references with the plain arithmetic -------------


def _reference_uniform_orbits(d, m, zeta_int, count, rng, steps):
    """Windows and circle distances at times 0..steps, stepped with ``%``
    and digit blocks drawn STEP_BLOCK rows at a time."""
    mc_, dc = np.uint64(m), np.uint64(d)
    state = np.zeros(count, dtype=np.uint64)
    for _ in range(round(math.log(m, d))):
        dig = rng.integers(0, d, size=count, dtype=np.uint64)
        state = (state * dc + dig) % mc_
    zneg = np.uint64((m - zeta_int % m) % m)

    def dist(s):
        diff = (s + zneg) % mc_
        return np.minimum(diff, mc_ - diff)

    states, dists = [state], [dist(state)]
    for k in range(steps):
        if k % mc.STEP_BLOCK == 0:
            block = rng.integers(0, d, size=(mc.STEP_BLOCK, count),
                                 dtype=np.uint8)
        state = (state * dc + block[k % mc.STEP_BLOCK].astype(np.uint64)) % mc_
        states.append(state)
        dists.append(dist(state))
    return states, dists


@pytest.mark.parametrize("d", [3, 5, 256])
@pytest.mark.parametrize("steps", [7, 128, 300])
def test_uniform_orbits_match_modular_reference(d, steps):
    # shorter than, equal to and across STEP_BLOCK, with a target whose
    # window offset folds half the lanes past m; numpy fills uint8 draws
    # from 4-byte words, so an odd lane count makes a draw that ends off
    # a block boundary shift the rest of the stream
    lanes = 61
    orb = mc._UniformOrbits(FullBranchMap.uniform(d), F(1, 3), lanes,
                            np.random.default_rng(17), steps)
    ref_states, ref_dists = _reference_uniform_orbits(
        d, orb.m, mc._scaled(F(1, 3), orb.m), lanes,
        np.random.default_rng(17), steps)
    for k in range(steps + 1):
        if k:
            orb.step()
        assert np.array_equal(orb.state, ref_states[k]), k
        assert np.array_equal(orb.dist(), ref_dists[k]), k


def _reference_position_blocks(map_, horizon, count, rng):
    """(k0, positions) blocks of the backward Horner reconstruction, with
    searchsorted digits and a fresh y per row."""
    D, d = mc.HORNER_DEPTH, map_.d
    los = np.array([float(b.lo) for b in map_.branches])
    ws = np.array([float(b.width) for b in map_.branches])
    cum = np.cumsum([float(w) for w in map_.widths])

    def draw(rows):
        u = rng.random((rows, count))
        dig = np.searchsorted(cum, u.ravel(), side="right").reshape(rows, count)
        return np.minimum(dig, d - 1)

    carry, k0 = draw(D), 0
    while k0 < horizon:
        B = min(mc.STEP_BLOCK, horizon - k0)
        digits = np.concatenate([carry, draw(B)], axis=0)
        pos, y = np.empty((B, count)), np.full(count, 0.5)
        for r in range(B + D - 1, -1, -1):
            y = los[digits[r]] + ws[digits[r]] * y
            if r < B:
                pos[r] = y
        yield k0, pos
        carry, k0 = digits[B:], k0 + B


@pytest.mark.parametrize("spec", ["widths:1/2,1/4,1/4", "widths:49/50,1/50",
                                  "widths:" + ",".join(["1/10"] * 10)])
def test_position_blocks_match_searchsorted_reference(spec):
    # the ten widths of 1/10 sum to 0.9999999999999999 in float
    f = FullBranchMap.from_spec(spec)
    horizon = mc.STEP_BLOCK + 9
    got, starts = _horner_positions(f, horizon - 1, 500,
                                    np.random.default_rng(4))
    ref = list(_reference_position_blocks(f, horizon, 500,
                                          np.random.default_rng(4)))
    assert starts == [k0 for k0, _ in ref] == [0, mc.STEP_BLOCK]
    assert np.array_equal(got, np.concatenate([q for _, q in ref]))


def _reference_entry_histogram(map_, zeta, radius, horizon, index, count, seed):
    zf, rf = float(zeta), float(radius)
    entry = np.zeros(count, dtype=np.int64)
    for k0, pos in _reference_position_blocks(map_, horizon + 1, count,
                                              mc._rng(seed, index)):
        d0 = np.abs(pos - zf)
        d0 = np.minimum(d0, 1.0 - d0)
        for r in range(pos.shape[0]):
            if k0 + r > 0:
                entry[(d0[r] < rf) & (entry == 0)] = k0 + r
        if not (entry == 0).any():
            break
    return np.bincount(entry, minlength=horizon + 1)


@pytest.mark.parametrize("radius, horizon", [
    (F(1, 64), 150),  # some lanes never enter
    (F(1, 5), 400),   # every lane enters in the first block: early exit
])
def test_entry_chunk_horner_matches_row_loop(radius, horizon):
    hist = mc._entry_chunk(WIDTHS, F(1, 3), radius, horizon, 2, 3000, 8)
    ref = _reference_entry_histogram(WIDTHS, F(1, 3), radius, horizon, 2,
                                     3000, 8)
    assert np.array_equal(hist, ref)
    assert (hist[0] > 0) == (radius == F(1, 64))


def test_evl_chunk_horner_matches_accumulated_minimum():
    # checkpoints inside a block, repeated, on a block edge and past it
    cps = ((1, F(1, 4)), (7, F(1, 50)), (7, F(1, 20)),
           (mc.STEP_BLOCK, F(1, 500)), (mc.STEP_BLOCK + 1, F(1, 500)),
           (300, F(1, 2000)))
    counts = mc._evl_chunk(WIDTHS, F(1, 3), cps, 1, 2000, 6)
    rng, zf = mc._rng(6, 1), 1 / 3
    pos = np.concatenate([p for _, p in
                          _reference_position_blocks(WIDTHS, 300, 2000, rng)])
    d0 = np.abs(pos - zf)
    runmin = np.minimum.accumulate(np.minimum(d0, 1.0 - d0), axis=0)
    assert counts == [int((runmin[n - 1] >= float(r)).sum()) for n, r in cps]


# -- lane retirement: the entry kernels against full-lane references ------
# (for Horner maps the reference is the row loop above)


def _full_lane_entry_uniform(map_, zeta, radius, horizon, index, count, seed):
    """The uniform first-entry kernel that steps every lane to the horizon."""
    orb = mc._UniformOrbits(map_, zeta, count, mc._rng(seed, index),
                            steps=horizon)
    rint = orb.level(radius)
    entry = np.zeros(count, dtype=np.int64)
    for j in range(1, horizon + 1):
        orb.step()
        hit = orb.dist() < rint
        np.logical_and(hit, entry == 0, out=hit)
        entry[hit] = j
    return np.bincount(entry, minlength=horizon + 1)


ENTRY_MAPS = ["doubling", "tripling", "uniform:5", "widths:1/2,1/4,1/4",
              "widths:49/50,1/50"]
SPAN = 3 * mc.STEP_BLOCK + 5  # crosses three digit-block boundaries


@pytest.mark.parametrize("spec", ENTRY_MAPS)
@pytest.mark.parametrize("radius, horizon, count", [
    (F(1, 4), SPAN, 61),       # every lane enters in block 0
    (F(1, 20), SPAN, 61),      # several retirements, all lanes enter
    (F(1, 1000), SPAN, 61),    # about half the lanes are censored
    (F(1, 200), SPAN, 1000),
    (F(1, 20), 0, 61),         # nothing to step
])
def test_entry_kernels_match_full_lane_reference(spec, radius, horizon, count):
    # 61 lanes: a retired lane set that shifted the digit or bit stream
    # of the kept lanes would change their entry times
    f = FullBranchMap.from_spec(spec)
    reference = (_full_lane_entry_uniform if f.is_uniform
                 else _reference_entry_histogram)
    hist = mc._entry_chunk(f, F(1, 3), radius, horizon, 3, count, 21)
    ref = reference(f, F(1, 3), radius, horizon, 3, count, 21)
    assert hist.dtype == ref.dtype and np.array_equal(hist, ref)
    assert len(hist) == horizon + 1 and hist.sum() == count
    if radius == F(1, 4):
        assert hist[0] == 0 and hist[mc.STEP_BLOCK + 1:].sum() == 0
    if radius == F(1, 1000):
        assert 0.25 * count < hist[0] < 0.75 * count


def test_uniform_orbits_keep_follows_the_full_width_stream():
    # after keep(), each kept lane steps through the same points as the
    # same lane of an orbit set that keeps every lane; the keeps at steps
    # 10 and 70 fall inside the first digit block and the lanes kept
    # then cross into the next one, where the keep at 130 falls
    for spec in ENTRY_MAPS:
        f = FullBranchMap.from_spec(spec)
        full = mc._orbits(f, F(1, 3), 61, np.random.default_rng(3), 300)
        kept = mc._orbits(f, F(1, 3), 61, np.random.default_rng(3), 300)
        lanes = np.arange(61)
        for k in range(300):
            full.step()
            kept.step()
            if k in (10, 70, 130):
                mask = np.random.default_rng(k).random(len(lanes)) < 0.6
                kept.keep(mask)
                lanes = lanes[mask]
            assert np.array_equal(kept.dist(), full.dist()[lanes]), (spec, k)
            if f.is_uniform:
                assert np.array_equal(kept.state, full.state[lanes]), (spec, k)


# Survivor counts at the parent of the one-kernel-per-estimator change:
# estimate_evl_grid at n = 1, 7, 129, 300 and estimate_hts survivors at
# tau = 1/2, 1, 2, 3 (t = 25 .. 150, past STEP_BLOCK), then the censored
# count; centre 1/3, eps 1/100, seed 5.  A shifted random stream in any
# kernel family changes them.
PINNED = {
    "doubling": ([16985, 20348, 22936, 23093], [22209, 14672, 6379, 2801], 2801),
    "tripling": ([16931, 18860, 20247, 20461], [19577, 11486, 3988, 1419], 1419),
    "uniform:5": ([16827, 19045, 20732, 20800], [20288, 12222, 4383, 1576], 1576),
    "widths:1/2,1/4,1/4": ([16817, 18451, 20318, 20447],
                           [19759, 11400, 3784, 1241], 1241),
    "widths:49/50,1/50": ([16903, 29818, 17813, 22468],
                          [27438, 21693, 11966, 7298], 7298),
}


@pytest.mark.parametrize("spec", sorted(PINNED))
def test_estimates_are_pinned_per_kernel_family(spec):
    # CHUNK + 1000 trials: a full chunk and a short last one
    f, trials = FullBranchMap.from_spec(spec), mc.CHUNK + 1000
    evl, hts, censored = PINNED[spec]
    pts = mc.estimate_evl_grid(f, Observable(F(1, 3)), [1, 7, 129, 300],
                               F(1, 2), trials, seed=5)
    assert [p.estimate for p in pts] == [c / trials for c in evl]
    ecdf = mc.estimate_hts(f, F(1, 3), F(1, 100), [F(1, 2), 1, 2, 3],
                           trials, seed=5)
    assert list(ecdf.estimates) == [c / trials for c in hts]
    assert ecdf.censored == censored


def test_wilson_halfwidth_bounds():
    for n in (100, 10000, 100000):
        for s in (0, 1, n // 3, n // 2, n - 1, n):
            hw = mc.wilson_halfwidth(s, n)
            assert 0 <= hw <= 1.96 / (2 * math.sqrt(n)) + 1e-9
    assert mc.wilson_halfwidth(0, 0) == 1.0


def test_evl_estimate_matches_exact_oracle():
    obs = Observable(center=F(1, 3))
    est = mc.estimate_evl(DOUBLING, obs, 10, 1, trials=30000, seed=3)
    exact = float(exact_evl_prob(DOUBLING, threshold_for(obs, 10, 1).exceedance, 10))
    assert abs(est.estimate - exact) <= 3 * est.half_width


def test_evl_estimate_tripling_and_nonuniform():
    obs = Observable(center=F(1, 8))
    est = mc.estimate_evl(TRIPLING, obs, 9, 1, trials=30000, seed=4)
    exact = float(exact_evl_prob(TRIPLING, threshold_for(obs, 9, 1).exceedance, 9))
    assert abs(est.estimate - exact) <= 3 * est.half_width

    obsw = Observable(center=F(1, 5))
    estw = mc.estimate_evl(WIDTHS, obsw, 8, 1, trials=30000, seed=5)
    exactw = float(exact_evl_prob(WIDTHS, threshold_for(obsw, 8, 1).exceedance, 8))
    assert abs(estw.estimate - exactw) <= 3 * estw.half_width


def test_evl_points_multiple_tau_single_pass():
    obs = Observable(center=F(1, 3))
    pairs = [(10, F(1, 2)), (10, F(1)), (10, F(2))]
    pts = mc.estimate_evl_points(DOUBLING, obs, pairs, trials=40000, seed=13)
    for (n, tau), p in zip(pairs, pts):
        exact = float(exact_evl_prob(
            DOUBLING, threshold_for(obs, n, tau).exceedance, n))
        assert abs(p.estimate - exact) <= 3 * p.half_width, tau


def test_evl_tau_zero_degenerate():
    obs = Observable(center=F(1, 3))
    est = mc.estimate_evl(DOUBLING, obs, 100, 0, trials=1000, seed=1)
    assert est.estimate == 1.0


def test_evl_infeasible_threshold():
    obs = Observable(center=F(1, 3))
    with pytest.raises(InfeasibleError):
        mc.estimate_evl(DOUBLING, obs, 4, 8, trials=100, seed=1)


@pytest.mark.parametrize("trials", [0, -5])
def test_estimators_reject_trials_below_one(trials):
    obs = Observable(center=F(1, 3))
    with pytest.raises(ValueError, match="trials"):
        mc.estimate_evl(DOUBLING, obs, 10, 1, trials=trials, seed=1)
    with pytest.raises(ValueError, match="trials"):
        mc.estimate_evl(DOUBLING, obs, 10, 0, trials=trials, seed=1)
    with pytest.raises(ValueError, match="trials"):
        mc.estimate_hts(DOUBLING, F(1, 3), F(1, 16), [1], trials=trials, seed=1)
    with pytest.raises(ValueError, match="trials"):
        mc.estimate_escape_rate(DOUBLING, F(0), F(1, 25), trials=trials,
                                seed=1)


def test_unsampled_maps_fail_before_any_chunk_is_scheduled(monkeypatch):
    # a smooth map has no stepper, and the digits of uniform:257 do not
    # fit the uint8 digit blocks: both raise in the calling process
    monkeypatch.setattr(mc, "_map_tasks",
                        lambda *args: pytest.fail("a chunk was scheduled"))
    smooth = FullBranchMap([
        SmoothBranch(0.0, 0.5, lambda x: 2 * x, lambda x: 2.0),
        SmoothBranch(0.5, 1.0, lambda x: 2 * x - 1, lambda x: 2.0)])
    obs = Observable(center=F(1, 3))
    for f, error in ((smooth, ValueError),
                     (FullBranchMap.uniform(257), InfeasibleError)):
        with pytest.raises(error):
            mc.estimate_evl(f, obs, 100, 1, trials=100, seed=1, workers=2)
        with pytest.raises(error):
            mc.estimate_hts(f, F(1, 3), F(1, 40), [1], trials=100, seed=1,
                            workers=2)


def test_evl_determinism_and_grid_consistency():
    obs = Observable(center=F(1, 3))
    a = mc.estimate_evl_grid(DOUBLING, obs, [50, 200], 1, trials=70000, seed=11)
    b = mc.estimate_evl_grid(DOUBLING, obs, [50, 200], 1, trials=70000, seed=11)
    assert a == b
    c = mc.estimate_evl_grid(DOUBLING, obs, [50, 200], 1, trials=70000, seed=12)
    assert c != a


def test_evl_worker_invariance():
    obs = Observable(center=F(1, 3))
    a = mc.estimate_evl_grid(DOUBLING, obs, [64], 1, trials=70000, seed=2,
                             workers=1)
    b = mc.estimate_evl_grid(DOUBLING, obs, [64], 1, trials=70000, seed=2,
                             workers=2)
    assert a == b


def test_pool_size_is_capped_by_chunks_and_cpus():
    # the count alone: no process is started
    cpus = os.cpu_count() or 1
    assert mc._pool_size(100000, 10 ** 6) == cpus
    assert mc._pool_size(100000, 3) == min(3, cpus)
    assert mc._pool_size(2, 1) == 1
    assert mc._pool_size(2, 0) == 1
    assert mc._pool_size(1, 10 ** 6) == 1
    for bad in (0, -1):
        with pytest.raises(ValueError):
            mc._pool_size(bad, 4)


@pytest.fixture
def two_cpu_pool(monkeypatch):
    """A fresh module pool that may use two workers on any machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    mc._drop_pool()
    yield
    mc._drop_pool()


def _hts(workers):
    # three chunks, so workers = 2 runs on the pool
    return mc.estimate_hts(TRIPLING, F(1, 3), F(1, 40), [F(1, 2), 1],
                           trials=70000, seed=9, workers=workers)


def test_pool_is_reused_across_calls(two_cpu_pool):
    serial = _hts(1)
    assert mc._pool is None
    assert _hts(2) == serial
    pool = mc._pool
    pids = set(pool._processes)
    assert 1 <= len(pids) <= 2
    assert _hts(2) == serial
    assert mc._pool is pool and pids <= set(pool._processes)


def test_broken_pool_is_replaced_on_the_next_call(two_cpu_pool):
    serial = _hts(1)
    assert _hts(2) == serial
    pool = mc._pool
    pid, proc = next(iter(pool._processes.items()))
    os.kill(pid, signal.SIGKILL)
    proc.join(timeout=30)
    assert not proc.is_alive()
    assert _hts(2) == serial
    assert mc._pool is not pool and pid not in mc._pool._processes


def test_hts_estimates_and_edges():
    B = ball(F(1, 3), F(1, 20))
    ecdf = mc.estimate_hts(DOUBLING, F(1, 3), F(1, 20), [0, F(1, 4), F(1, 2)],
                           trials=40000, seed=6)
    assert ecdf.estimates[0] == 1.0
    assert list(ecdf.estimates) == sorted(ecdf.estimates, reverse=True)
    for tau, est, hw in zip(ecdf.grid[1:], ecdf.estimates[1:],
                            ecdf.half_widths[1:]):
        t_int = int(F(tau) / B.measure())
        exact = float(exact_hts_prob(DOUBLING, B, t_int))
        assert abs(est - exact) <= 3 * hw
    with pytest.raises(InfeasibleError):
        mc.estimate_hts(DOUBLING, F(1, 3), F(3, 10), [1], trials=100, seed=1)


def test_hts_matches_open_ulam_system():
    # the holed Ulam system is exact for bin-aligned holes of the doubling map
    eps = F(1, 200)
    hole = ball(F(1, 3), eps)
    bins = mc.aligned_bins(DOUBLING, hole)
    P = ulam_matrix(DOUBLING, bins)
    mask = np.zeros(bins, dtype=bool)
    for lo, hi in hole.components:
        mask[int(lo * bins):int(hi * bins)] = True
    v = np.full(bins, 1.0 / bins)
    surv = {}
    for t in range(1, 41):
        v = v @ P
        v[mask] = 0.0
        surv[t] = v.sum()
    PB = hole.measure()
    taus = [F(1, 10), F(1, 5), F(2, 5)]
    ecdf = mc.estimate_hts(DOUBLING, F(1, 3), eps, taus, trials=60000, seed=8)
    for tau, est, hw in zip(ecdf.grid, ecdf.estimates, ecdf.half_widths):
        t_int = int(F(tau) / PB)
        assert abs(est - surv[t_int]) <= 3 * hw


def test_escape_rate_trivial_and_small():
    fit = mc.estimate_escape_rate(DOUBLING, F(0), 0, trials=100, seed=1)
    assert fit.slope == 0.0
    with pytest.raises(InfeasibleError):
        # far too few trials for the tail window
        mc.estimate_escape_rate(DOUBLING, F(0), F(1, 25), trials=300, seed=1)


def test_escape_rate_against_oracle():
    eps = F(1, 25)
    hole = ball(F(0), eps)
    rate = mc.ulam_escape_oracle(DOUBLING, hole, mc.aligned_bins(DOUBLING, hole))
    fit = mc.estimate_escape_rate(DOUBLING, F(0), eps, trials=300000, seed=7)
    assert abs(fit.slope - rate) / rate < 0.08
    assert fit.window[0] == math.ceil(5 / (0.5 * float(hole.measure())))


def test_ulam_escape_oracle_edges():
    assert mc.ulam_escape_oracle(DOUBLING, IntervalUnion.empty(), 64) == 0.0
    assert mc.ulam_escape_oracle(DOUBLING, IntervalUnion.full(), 64) == math.inf
    with pytest.raises(ValueError):
        mc.ulam_escape_oracle(DOUBLING, ball(F(1, 3), F(1, 101)), 64)
    with pytest.raises(ValueError):
        mc.ulam_escape_oracle(DOUBLING, ball(F(0), F(1, 100)), 32)


def test_ulam_escape_oracle_frozen_value():
    hole = ball(F(0), F(1, 100))
    bins = mc.aligned_bins(DOUBLING, hole)
    assert bins == 100
    rate = mc.ulam_escape_oracle(DOUBLING, hole, bins)
    assert rate == pytest.approx(0.01066645282166119, rel=1e-9)


def test_aligned_bins():
    assert mc.aligned_bins(DOUBLING, ball(F(0), F(1, 25))) == 100
    assert mc.aligned_bins(DOUBLING, ball(F(1, 3), F(1, 200))) == 600


def test_evl_hts_duality_consistency():
    # with eps equal to the threshold radius of (n, tau), the hitting-time
    # horizon tau/P(B) is exactly n, and invariance makes the two survival
    # probabilities identical; the estimators must agree within noise
    n, tau = 64, F(1)
    obs = Observable(center=F(1, 3))
    sched = threshold_for(obs, n, tau)
    evl = mc.estimate_evl(DOUBLING, obs, n, tau, trials=60000, seed=21)
    hts = mc.estimate_hts(DOUBLING, F(1, 3), sched.radius, [tau],
                          trials=60000, seed=22)
    assert abs(evl.estimate - hts.estimates[0]) <= \
        3 * (evl.half_width + hts.half_widths[0])


def test_escape_rate_sandwich():
    # spectral rate between the guaranteed lower bound and the nominal
    # zero-hole value, with 10% slack, at a periodic center and small hole
    from extremap.brackets import DecayModel, escape_window, hts_bracket_inputs
    eps = F(1, 100)
    hole = ball(F(0), eps)
    PB = float(hole.measure())
    spectral = mc.ulam_escape_oracle(DOUBLING, hole,
                                     mc.aligned_bins(DOUBLING, hole))
    dm = DecayModel.for_map(DOUBLING)
    window = escape_window(hts_bracket_inputs(DOUBLING, hole, 1, dm),
                           0.5, PB, dm)
    slack = 0.1 * window.nominal
    assert window.lower - slack <= spectral <= window.nominal + slack
