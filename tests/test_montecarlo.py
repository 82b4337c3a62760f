import itertools
import math
import os
import pickle
import random
import signal
import threading
import tracemalloc
from fractions import Fraction as F
from multiprocessing.connection import wait

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from extremap.errors import (
    InfeasibleError,
    RadiusRangeError,
    ResourceBudgetError,
)
from extremap.intervals import ball
from extremap.maps import AffineBranch, FullBranchMap
from extremap.events import (
    Observable,
    exact_evl_prob,
    exact_hts_prob,
    spectral_escape_rate,
    threshold_for,
)
from extremap import montecarlo as mc

DOUBLING = FullBranchMap.doubling()
TRIPLING = FullBranchMap.tripling()
WIDTHS = FullBranchMap.from_widths([F(1, 2), F(1, 4), F(1, 4)])
SKEWED = FullBranchMap.from_spec("widths:49/50,1/50")
# the widths of WIDTHS with a decreasing first branch
DECREASING = FullBranchMap.from_spec([
    {"lo": 0, "hi": "1/2", "slope": -2, "intercept": 1},
    {"lo": "1/2", "hi": "3/4", "slope": 4, "intercept": -2},
    {"lo": "3/4", "hi": 1, "slope": 4, "intercept": -3}])


# -- the orbit samplers the estimators run ----------------------------------


def _uniform_states(d, steps, count, seed):
    """Windows of one _UniformOrbits chunk at times 0..steps, (steps+1, count)."""
    orb = mc._UniformOrbits(FullBranchMap.uniform(d), F(0), count,
                            np.random.default_rng(seed))
    states = [orb.state.copy()]
    for _ in range(steps):
        orb.step()
        states.append(orb.state.copy())
    return orb.m, np.array(states)


def _horner_points(map_, steps, count, rng):
    """Points of one _HornerOrbits chunk in build order, (steps+1, count)."""
    orb = mc._HornerOrbits(map_, F(0), count, rng)
    points = [orb.state.copy()]
    for _ in range(steps):
        orb.step()
        points.append(orb.state.copy())
    return np.array(points)


def _forward_gaps(map_, points):
    """Circle distance from T(x_(k+1)) to x_k for the rows of ``points``,
    the map T applied in float branch by branch."""
    later, earlier = points[1:], points[:-1]
    image = np.full(later.shape, np.nan)
    for br in map_.branches:
        on = (later >= float(br.lo)) & (later < float(br.hi))
        image[on] = float(br.slope) * later[on] + float(br.intercept)
    gap = np.abs(image - earlier)
    return np.minimum(gap, 1 - gap)


@pytest.mark.parametrize("d", [2, 3])
def test_uniform_orbits_coding(d):
    # x_k = window_k / m steps by the map up to the digit shifted in (an
    # exact multiple of 1/m below d/m); for d = 2 the window is a base-2
    # window, so that digit is the branch of the orbit 63 steps later,
    # once it leads the window
    f = FullBranchMap.uniform(d)
    m, states = _uniform_states(d, 120, 6, seed=11)
    for lane in range(states.shape[1]):
        xs = [F(int(s), m) for s in states[:, lane]]
        for k in range(len(xs) - 1):
            digit = (xs[k + 1] - f.apply(xs[k])) * m
            assert digit.denominator == 1 and 0 <= digit < d
            if d == 2 and k + 64 < len(xs):
                assert f.branch_index(xs[k + 64]) == digit


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


def _check_horner_coding(f):
    # widths 1/2, 1/4, 1/4: the points read backwards step by the map,
    # and visit the branches with frequencies equal to their widths
    pos = _horner_points(f, 262, 2000, np.random.default_rng(9))
    assert pos.shape == (263, 2000)
    assert _forward_gaps(f, pos[:, :20]).max() < 1e-9
    digits = np.searchsorted([0.5, 0.75], pos, side="right")
    for i, w in enumerate((0.5, 0.25, 0.25)):
        assert abs((digits == i).mean() - w) < 0.005
    assert abs(((pos >= 0.2) & (pos < 0.3)).mean() - 0.1) < 0.002


def test_horner_orbits_coding():
    _check_horner_coding(WIDTHS)


def test_horner_orbits_coding_on_a_decreasing_branch():
    # x = a + b*y with b = 1/slope < 0 inverts the decreasing branch
    _check_horner_coding(DECREASING)


def test_horner_orbits_step_by_the_map_on_the_skewed_map():
    # 1,000 steps on widths:49/50,1/50: every consecutive pair is one map
    # step apart, up to rounding (read 7.2e-15).  Rebuilding the orbit in
    # 128-point blocks, each folded from y = 1/2 through 48 digits past
    # its end, read 0.19 at a block edge: the wide branch contracts the
    # start error only by (49/50)^48
    pos = _horner_points(SKEWED, 1000, 500, np.random.default_rng(12))
    assert _forward_gaps(SKEWED, pos).max() <= 1e-12


# -- the kernels against references with the plain arithmetic -------------


# digits per word: the largest J with d^J <= 2^64
WORD = {2: 64, 3: 40, 5: 27, 8: 21, 256: 8, 257: 7, 1000: 6, 1024: 6}


def _exact_uniform_windows(d, zeta, count, seed, steps, keeps=()):
    """Windows and circle distances of the uniform stepper at times
    0..steps, (steps+1, count) Python ints, from x -> d*x mod 1 applied
    to Fractions: x_0 = (s0 + sum_b C_b d^(-bJ)) / 2^64 is built from the
    stepper's draws (the start window s0, then one word C_b in [0, d^J)
    per J steps), and the window at time k is floor(2^64 x_k).  After
    step k of each k: mask in ``keeps`` only the lanes held where the
    mask (over the lanes held) is true draw: each word is drawn for the
    lanes held at its start, in lane order.  A dropped lane reads None
    from there."""
    J, m = WORD[d], 2 ** 64
    rng = np.random.default_rng(seed)
    s0 = rng.integers(0, m, size=count, dtype=np.uint64)
    held = np.arange(count)
    last = np.full(count, steps)  # each lane's last step held
    words = [[] for _ in range(count)]
    for k in range(steps):
        if k in keeps:
            last[held[~keeps[k]]] = k
            held = held[keeps[k]]
        if k % J == 0:  # step k + 1 starts a word
            for lane, C in zip(held, rng.integers(0, d ** J, size=len(held),
                                                  dtype=np.uint64)):
                words[lane].append(int(C))
    z = zeta.numerator * m // zeta.denominator
    states, dists = [], []
    for lane in range(count):
        x = F(int(s0[lane]) + sum(F(C, d ** (b * J))
                                  for b, C in enumerate(words[lane], 1)), m)
        col = []
        for _ in range(last[lane] + 1):
            col.append(x.numerator * m // x.denominator)
            x = d * x % 1
        col += [None] * (steps - last[lane])
        states.append(col)
        dists.append([None if w is None else min((w - z) % m, (z - w) % m)
                      for w in col])
    return np.array(states, dtype=object).T, np.array(dists, dtype=object).T


@pytest.mark.parametrize("d", sorted(WORD))
@pytest.mark.parametrize("steps", [7, 128, 300])
def test_uniform_orbits_match_modular_reference(d, steps):
    # the window is floor(2^64 x_k) exactly, inside a word and across
    # words (128 and 300 steps cross at least one word boundary at every
    # d), with the target at 1/3, so the wrapped difference takes both
    # signs; a second stepper keeps a random subset mid-word after step
    # 3 and one and a half words in, and its lanes stay exact on the
    # words drawn for the lanes it holds
    lanes = 61
    assert len(mc._word_steps(d)) == WORD[d]
    keeps, held = {}, lanes
    for k in (3, WORD[d] + WORD[d] // 2):
        keeps[k] = np.random.default_rng(k).random(held) < 0.6
        held = int(keeps[k].sum())
    ref_states, ref_dists = _exact_uniform_windows(d, F(1, 3), lanes, 17, steps)
    kept_states, kept_dists = _exact_uniform_windows(d, F(1, 3), lanes, 17,
                                                     steps, keeps)
    f = FullBranchMap.uniform(d)
    orb = mc._UniformOrbits(f, F(1, 3), lanes, np.random.default_rng(17))
    kept = mc._UniformOrbits(f, F(1, 3), lanes, np.random.default_rng(17))
    cols = np.arange(lanes)
    for k in range(steps + 1):
        if k:
            orb.step()
            kept.step()
        if k in keeps:
            kept.keep(keeps[k])
            cols = cols[keeps[k]]
        assert orb.state.tolist() == ref_states[k].tolist(), k
        assert orb.dist().tolist() == ref_dists[k].tolist(), k
        assert kept.state.tolist() == kept_states[k][cols].tolist(), k
        assert kept.dist().tolist() == kept_dists[k][cols].tolist(), k


@pytest.mark.parametrize("d", [2, 3, 5, 8, 256, 257, 1000])
def test_uniform_first_entries_match_the_step_loop(d):
    # a run of 1 step, one that ends mid-word, one asked past the word's
    # end (the block stops there), then a run of 3 steps and one to the
    # word's end after keep()
    J, lanes = WORD[d], 400
    f = FullBranchMap.uniform(d)
    blocked = mc._UniformOrbits(f, F(1, 3), lanes, np.random.default_rng(5))
    stepped = mc._UniformOrbits(f, F(1, 3), lanes, np.random.default_rng(5))
    level, done, seen = blocked.level(F(1, 100)), 0, set()
    for run in (1, J // 2, 2 * J, "keep", 3, J):
        if run == "keep":
            mask = np.random.default_rng(d).random(lanes) < 0.6
            blocked.keep(mask)
            stepped.keep(mask)
            continue
        first, k = blocked.first_entries(level, run)
        assert k == min(run, J - done % J), run
        ref = np.zeros(len(first), dtype=np.int64)
        for o in range(1, k + 1):
            stepped.step()
            ref[(ref == 0) & (stepped.dist() < level)] = o
        assert first.tolist() == ref.tolist(), run
        assert blocked.state.tolist() == stepped.state.tolist(), run
        done += k
        seen.update(first.tolist())
    assert 0 in seen and len(seen) > 2


# -- prefix masks of power-of-two uniform maps against the exact stepper


def _forced(monkeypatch, path):
    """Make the EVL kernel read every word of a power-of-two uniform map
    by prefix mask (path "mask") or step it (path "step"); "rule" leaves
    the operation count to choose.  Returns the (m, p) of each mask."""
    if path != "rule":
        monkeypatch.setattr(mc, "CANDIDATE_COST",
                            -math.inf if path == "mask" else math.inf)
    pairs, build = [], mc._UniformOrbits.prefix_mask
    monkeypatch.setattr(mc._UniformOrbits, "prefix_mask",
                        lambda orb, m, p: pairs.append((m, p)) or build(orb, m, p))
    return pairs


@pytest.mark.parametrize("d", [2, 4, 8, 32, 128, 256])
def test_prefix_mask_flags_the_windows_with_the_prefix_pair(d):
    # 300 steps cross several words at every d; at d = 8, 32 and 128 a
    # word fills 63, 60 and 63 bits and is left-justified.  The pairs:
    # p even (p and p + 1 differ in the last bit alone), p ending in
    # ones, p = 2^m - 1 (p + 1 wraps to 0), and at m = 12, 40 and 63 the
    # prefix of a window 7 steps in, as p and as p + 1
    f, lanes = FullBranchMap.uniform(d), 61
    k, J = d.bit_length() - 1, len(mc._word_steps(d))
    words = -(-300 // J)
    _, windows = _uniform_states(d, words * J, lanes, seed=8)
    pairs = [(1, 0), (1, 1), (3, 0b100), (3, 0b011), (3, 0b111), (5, 0b01011),
             (5, 0b11111), (12, 4095)]
    for m in (12, 40, 63):
        top = int(windows[7][3]) >> (64 - m)
        pairs += [(m, top), (m, (top - 1) % (1 << m))]
    steps = sum(1 << (64 - k * i) for i in range(1, J + 1))
    hits = 0
    for m, p in pairs:
        orb = mc._UniformOrbits(f, F(0), lanes, np.random.default_rng(8))
        pair = {p, (p + 1) % (1 << m)}
        for w in range(words):
            mask = [int(v) for v in orb.prefix_mask(m, p)]
            assert all(v & ~steps == 0 for v in mask), (m, p)
            for i in range(1, J + 1):
                tops = [int(v) >> (64 - m) for v in windows[w * J + i]]
                flags = [v >> (64 - k * i) & 1 == 1 for v in mask]
                assert flags == [t in pair for t in tops], (m, p, w, i)
                hits += sum(flags)
            assert orb.state.tolist() == windows[(w + 1) * J].tolist()
    assert hits > 0


def _exact_evl_minima(map_, zeta, checkpoints, index, count, seed):
    """The exact running minimum distance at each checkpoint, by the
    uniform stepper's step loop, and the survivor counts it gives."""
    orb = mc._UniformOrbits(map_, zeta, count, mc._rng(seed, index))
    runmin, k, minima, counts = orb.dist().copy(), 0, [], []
    for n, radius in checkpoints:
        while k < n - 1:
            orb.step()
            runmin = np.minimum(runmin, orb.dist())
            k += 1
        minima.append(runmin)
        counts.append(int((runmin >= orb.level(radius)).sum()))
    return minima, counts


# checkpoints on both sides of a doubling word's end, with several radii
# at one n as the AC-3 runs have
EDGE_CHECKPOINTS = ((1, F(1, 5)), (63, F(1, 200)), (64, F(1, 200)),
                    (65, F(1, 300)), (128, F(1, 400)), (129, F(1, 800)),
                    (129, F(1, 400)), (129, F(1, 250)))


@pytest.mark.parametrize("path", ["rule", "mask"])
@pytest.mark.parametrize("d", [2, 4, 8, 256])
@pytest.mark.parametrize("count", [61, 1001])
def test_evl_chunk_matches_the_exact_stepper(d, count, path, monkeypatch):
    f = FullBranchMap.uniform(d)
    _, counts = _exact_evl_minima(f, F(1, 3), EDGE_CHECKPOINTS, 2, count, 9)
    masks = _forced(monkeypatch, path)
    assert mc._evl_chunk(f, F(1, 3), EDGE_CHECKPOINTS, 2, count, 9) == counts
    assert masks or path == "rule"


@pytest.mark.parametrize("path", ["rule", "mask"])
@pytest.mark.parametrize("d", [2, 8])
def test_evl_chunk_at_radii_on_the_exact_minima(d, path, monkeypatch):
    # radii at the exact minima of eight lanes at n = 129, and 1 unit
    # either side: a lane survives at its own minimum and enters 1 unit
    # above it, so a candidate missed or misread moves a count
    f, count, n = FullBranchMap.uniform(d), 61, 129
    minima, _ = _exact_evl_minima(f, F(1, 3), ((n, F(1, 4)),), 4, count, 3)
    levels = sorted(int(minima[0][lane]) + delta for lane in range(8)
                    for delta in (-1, 0, 1))
    cps = tuple((n, F(L, 1 << 64)) for L in levels)
    _, counts = _exact_evl_minima(f, F(1, 3), cps, 4, count, 3)
    masks = _forced(monkeypatch, path)
    assert mc._evl_chunk(f, F(1, 3), cps, 4, count, 3) == counts
    assert masks or path == "rule"


@pytest.mark.parametrize("path", ["rule", "mask"])
@pytest.mark.parametrize("d", [2, 8, 32])
def test_evl_chunk_with_checkpoints_inside_words(d, path, monkeypatch):
    # several radii at one n, and checkpoints a few steps into a word
    # and one step short of its end, over three words
    f, J = FullBranchMap.uniform(d), len(mc._word_steps(d))
    cps = ((3, F(1, 100)), (J // 2, F(1, 700)), (J // 2, F(1, 90)),
           (J // 2, F(1, 300)), (J - 1, F(1, 500)), (J + 5, F(1, 900)),
           (2 * J + 2, F(1, 600)), (2 * J + 2, F(1, 2000)), (3 * J, F(1, 800)))
    _, counts = _exact_evl_minima(f, F(2, 7), cps, 1, 1001, 5)
    masks = _forced(monkeypatch, path)
    assert mc._evl_chunk(f, F(2, 7), cps, 1, 1001, 5) == counts
    assert masks or path == "rule"


@pytest.mark.parametrize("path", ["rule", "mask"])
@pytest.mark.parametrize("zeta", [F(0), 1 - F(1, 2 ** 41)])
@pytest.mark.parametrize("d", [2, 4, 128])
def test_evl_chunk_where_the_prefix_pair_wraps(d, zeta, path, monkeypatch):
    # at 0, and within 2^-40 of 1, the ball covers both ends of the
    # circle: its prefix pair is 2^m - 1 and 0
    f = FullBranchMap.uniform(d)
    cps = ((200, F(1, 1000)), (300, F(1, 3000)))
    _, counts = _exact_evl_minima(f, zeta, cps, 0, 1001, 7)
    masks = _forced(monkeypatch, path)
    assert mc._evl_chunk(f, zeta, cps, 0, 1001, 7) == counts
    assert masks or path == "rule"
    assert all(p == (1 << m) - 1 for m, p in masks)


def test_evl_chunk_steps_and_masks_to_the_same_counts(monkeypatch):
    # one chunk of the doubling sweeps' shape: every word stepped, every
    # word masked, and the operation count's mix of the two
    obs = Observable(center=F(3, 7))
    cps = tuple((n, threshold_for(obs, n, tau).radius)
                for n, tau in ((8, 2), (300, 1), (1000, F(1, 2)), (1000, 1)))
    runs = []
    for path in ("step", "mask", "rule"):
        with monkeypatch.context() as patch:
            masks = _forced(patch, path)
            runs.append(mc._evl_chunk(DOUBLING, F(3, 7), cps, 0, 2000, 11))
            assert bool(masks) == (path != "step")
    assert runs[0] == runs[1] == runs[2]


class _HornerWalk:
    """The time-reversed orbit with plain arithmetic: a uniform start
    row, then at each step one uniform per lane held, in lane order, its
    searchsorted branch digit a and the preimage x = a_a + b_a*y, each
    branch inverted as x = a + b*y.  ``keep(mask)`` drops the lanes
    where the mask is false, and they draw nothing more."""

    def __init__(self, map_, zeta, count, rng):
        self.d, self.rng, self.zeta = map_.d, rng, zeta
        self.a = np.array([float(-b.intercept / b.slope) for b in map_.branches])
        self.b = np.array([float(1 / b.slope) for b in map_.branches])
        self.cum = np.cumsum([float(w) for w in map_.widths])
        self.state = rng.random(count)

    def step(self):
        u = self.rng.random(len(self.state))
        digit = np.minimum(np.searchsorted(self.cum, u, side="right"), self.d - 1)
        self.state = self.a[digit] + self.b[digit] * self.state

    def dist(self):
        return _circle_dist(self.state, self.zeta)

    def level(self, radius):
        return float(radius)

    def keep(self, mask):
        self.state = self.state[mask]


class _UniformWalk:
    """x -> d*x mod 1 on the window floor(2^64 x), one base-d digit a
    step with plain arithmetic: a start window per lane, then at each
    word's start one word in [0, d^J) per lane held, in lane order, read
    most significant digit first.  ``keep(mask)`` drops the lanes where
    the mask is false, and they draw nothing more."""

    def __init__(self, map_, zeta, count, rng):
        self.d, self.J, self.rng = map_.d, WORD[map_.d], rng
        self.z = np.uint64(zeta.numerator * 2 ** 64 // zeta.denominator)
        self.state = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64)
        self.word, self.i = np.zeros(count, dtype=np.uint64), self.J

    def step(self):
        if self.i == self.J:
            self.word = self.rng.integers(0, self.d ** self.J,
                                          size=len(self.state), dtype=np.uint64)
            self.i = 0
        self.i += 1
        d = np.uint64(self.d)
        digit = self.word // np.uint64(self.d ** (self.J - self.i)) % d
        self.state = self.state * d + digit

    def dist(self):
        return np.abs((self.state - self.z).view(np.int64)).view(np.uint64)

    def level(self, radius):
        return np.uint64(radius.numerator * 2 ** 64 // radius.denominator)

    def keep(self, mask):
        self.state, self.word = self.state[mask], self.word[mask]


def _walk(map_, zeta, count, rng):
    cls = _UniformWalk if map_.is_uniform else _HornerWalk
    return cls(map_, zeta, count, rng)


def _reference_points(map_, steps, count, rng):
    """The time-reversed orbit points of every lane, (steps+1, count)."""
    walk = _HornerWalk(map_, F(0), count, rng)
    points = [walk.state]
    for _ in range(steps):
        walk.step()
        points.append(walk.state)
    return np.array(points)


def _circle_dist(points, zeta):
    diff = np.abs(points - float(zeta))
    return np.minimum(diff, 1.0 - diff)


@pytest.mark.parametrize("f", [
    WIDTHS, SKEWED, DECREASING,
    # the ten widths of 1/10 sum to 0.9999999999999999 in float, which
    # the digits must not compare against
    FullBranchMap.from_spec("widths:" + ",".join(["1/10"] * 10))],
    ids=["widths", "skewed", "decreasing", "tenths"])
@pytest.mark.parametrize("steps", [0, 9, 300])
def test_horner_orbits_match_searchsorted_reference(f, steps):
    got = _horner_points(f, steps, 500, np.random.default_rng(4))
    ref = _reference_points(f, steps, 500, np.random.default_rng(4))
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("steps", [0, 7, 300])
def test_horner_chunk_draws_one_row_per_point(steps):
    # the start row and one row per step: nothing past the horizon is drawn
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    orb = mc._HornerOrbits(SKEWED, F(1, 3), 61, rng)
    assert len(list(orb.running_minima(((steps + 1, F(1, 10)),)))) == 1
    ref.random((steps + 1, 61))
    assert rng.random() == ref.random()


def _retiring_entry_histogram(map_, zeta, radius, horizon, index, count, seed):
    """Histogram of the first entry times (0 = never) of one chunk, on
    the plain-arithmetic walk and the first-entry kernel's retire
    schedule: the entered lanes are dropped once they are half of those
    held, on uniform maps also once FEW_LANES or fewer are live, and
    from there at the end of every word."""
    walk = _walk(map_, zeta, count, mc._rng(seed, index))
    level, few = walk.level(radius), mc.FEW_LANES if map_.is_uniform else 0
    lanes = np.arange(count)  # the chunk lane of each lane held
    entry = np.zeros(count, dtype=np.int64)
    live = count
    for j in range(1, horizon + 1):
        if not live:
            break
        blocks = live <= few
        walk.step()
        hit = (walk.dist() < level) & (entry[lanes] == 0)
        entry[lanes[hit]] = j
        live -= int(hit.sum())
        if (walk.i == walk.J if blocks else
                hit.any() and (2 * live <= len(lanes) or live <= few)):
            held = entry[lanes] == 0
            walk.keep(held)
            lanes = lanes[held]
    return np.bincount(entry, minlength=horizon + 1)


def assert_cut_at_last_entry(hist, ref):
    """The kernel's histogram is the reference's, cut after its last
    entry: equal up to that length, and the reference is zero past it."""
    assert hist.dtype == ref.dtype and np.array_equal(hist, ref[:len(hist)])
    assert len(hist) == 1 or hist[-1] > 0
    assert not ref[len(hist):].any()


@pytest.mark.parametrize("radius, horizon", [
    (F(1, 64), 150),  # some lanes never enter
    (F(1, 5), 400),   # every lane enters early: lanes retire
])
def test_entry_chunk_horner_matches_row_loop(radius, horizon):
    hist = mc._entry_chunk(WIDTHS, F(1, 3), radius, horizon, 2, 3000, 8)
    ref = _retiring_entry_histogram(WIDTHS, F(1, 3), radius, horizon, 2,
                                    3000, 8)
    assert_cut_at_last_entry(hist, ref)
    assert (hist[0] > 0) == (radius == F(1, 64))


def test_evl_chunk_horner_matches_accumulated_minimum():
    # repeated checkpoints, and one past the 128 points that once made a
    # block
    cps = ((1, F(1, 4)), (7, F(1, 50)), (7, F(1, 20)), (128, F(1, 500)),
           (129, F(1, 500)), (129, F(1, 800)), (300, F(1, 2000)))
    counts = mc._evl_chunk(WIDTHS, F(1, 3), cps, 1, 2000, 6)
    pos = _reference_points(WIDTHS, 299, 2000, mc._rng(6, 1))
    runmin = np.minimum.accumulate(_circle_dist(pos, F(1, 3)), axis=0)
    assert counts == [int((runmin[n - 1] >= float(r)).sum()) for n, r in cps]


# -- lane retirement: the entry kernels against the retiring walk ---------


ENTRY_MAPS = ["doubling", "tripling", "uniform:5", "widths:1/2,1/4,1/4",
              "widths:49/50,1/50"]
SPAN = 389  # crosses 6+ words


@pytest.mark.parametrize("spec", ENTRY_MAPS)
@pytest.mark.parametrize("radius, horizon, count", [
    (F(1, 4), SPAN, 61),       # every lane enters in 128 steps
    (F(1, 20), SPAN, 61),      # several retirements, all lanes enter
    (F(1, 1000), SPAN, 61),    # about half the lanes are censored
    (F(1, 200), SPAN, 1000),
    (F(1, 20), 0, 61),         # nothing to step
])
def test_entry_kernels_match_the_retiring_walk(spec, radius, horizon, count):
    # 61 lanes: a retire step off the schedule, or a draw for a retired
    # lane, would shift the digit or word stream of the kept lanes and
    # change their entry times
    f = FullBranchMap.from_spec(spec)
    hist = mc._entry_chunk(f, F(1, 3), radius, horizon, 3, count, 21)
    ref = _retiring_entry_histogram(f, F(1, 3), radius, horizon, 3, count, 21)
    assert_cut_at_last_entry(hist, ref)
    assert len(hist) <= horizon + 1 and hist.sum() == count
    if radius == F(1, 4):
        assert hist[0] == 0 and hist[129:].sum() == 0
    if radius == F(1, 1000):
        assert 0.25 * count < hist[0] < 0.75 * count


@pytest.mark.parametrize("spec", ["doubling", "tripling", "uniform:5"])
@pytest.mark.parametrize("radius, horizon, count", [
    (F(1, 20), SPAN, 5000),    # crosses FEW_LANES mid-word
    (F(1, 200), SPAN, 1500),   # below FEW_LANES from the start
    (F(1, 1000), 100, 1500),   # the horizon ends mid-word, most censored
    (F(1, 1000), 100, 3000),   # never crosses FEW_LANES
    (F(1, 4), SPAN, 3000),     # every lane enters long before the horizon
])
def test_uniform_entry_chunk_matches_the_retiring_walk_across_the_switch(
        spec, radius, horizon, count):
    f = FullBranchMap.from_spec(spec)
    hist = mc._entry_chunk(f, F(1, 3), radius, horizon, 3, count, 21)
    ref = _retiring_entry_histogram(f, F(1, 3), radius, horizon, 3, count, 21)
    assert_cut_at_last_entry(hist, ref)
    assert horizon % len(mc._word_steps(f.d))
    live = count - np.cumsum(hist[1:])
    if count == 5000:
        switch = int(np.argmax(live <= mc.FEW_LANES)) + 1  # steps stepped
        assert live[switch - 1] < mc.FEW_LANES < live[switch - 2]
        assert switch % len(mc._word_steps(f.d))
    if count == 3000:
        assert (live[-1] == 0) == (radius == F(1, 4))
        assert (live[-1] > mc.FEW_LANES) == (radius == F(1, 1000))


KEEP_STEPS = (10, 70, 119, 126, 127, 130)


def test_orbits_keep_follows_the_draw_rule():
    # after keep(), each kept lane steps through the same points as the
    # same lane of the plain-arithmetic walk that drops the same lanes,
    # and each step is one exact map step: (w' - d*w) mod 2^64 < d on
    # the window, T(x') = x to rounding on the reversed Horner orbit.
    # Uniform: the keeps fall mid-word, and after 120 (tripling) and 128
    # (doubling) steps on the last step of a word
    for spec in ENTRY_MAPS:
        f = FullBranchMap.from_spec(spec)
        kept = mc._orbits(f, F(1, 3), 61, np.random.default_rng(3))
        walk = _walk(f, F(1, 3), 61, np.random.default_rng(3))
        for k in range(300):
            before = kept.state.copy()
            kept.step()
            walk.step()
            if f.is_uniform:
                digit = kept.state - np.uint64(f.d) * before
                assert (digit < f.d).all(), (spec, k)
            else:
                gap = _forward_gaps(f, np.array([before, kept.state]))
                assert gap.max() <= 1e-12, (spec, k)
            if k in KEEP_STEPS:
                mask = np.random.default_rng(k).random(len(kept.state)) < 0.6
                kept.keep(mask)
                walk.keep(mask)
            assert np.array_equal(kept.dist(), walk.dist()), (spec, k)
            assert np.array_equal(kept.state, walk.state), (spec, k)


@pytest.mark.parametrize("spec", ["doubling", "tripling", "widths:1/2,1/4,1/4"])
def test_retired_lanes_draw_nothing(spec):
    # keeps mid-word and on a word's last step (KEEP_STEPS), then the
    # stepper's generator reads on where one reads that drew the start
    # row and then, for the lanes held only, one word per lane at each
    # word's start (uniform) or one uniform per lane at each step (Horner)
    f, held = FullBranchMap.from_spec(spec), 61
    rng, ref = np.random.default_rng(6), np.random.default_rng(6)
    orb = mc._orbits(f, F(1, 3), held, rng)
    J = WORD[f.d] if f.is_uniform else 1

    def draw(top):  # one value per lane held
        if f.is_uniform:
            ref.integers(0, top, size=held, dtype=np.uint64)
        else:
            ref.random(held)

    draw(2 ** 64)
    for k in range(300):
        if k % J == 0:  # step k + 1 draws
            draw(f.d ** J)
        orb.step()
        if k in KEEP_STEPS:
            mask = np.random.default_rng(k).random(held) < 0.6
            orb.keep(mask)
            held = int(mask.sum())
    assert held < 61 // 4
    assert rng.random() == ref.random()


# Survivor counts: estimate_evl_points at n = 1, 7, 129, 300 and
# estimate_hts survivors at tau = 1/2, 1, 2, 3 (t = 25 .. 150, past
# several digit words), then the censored count; centre 1/3, eps 1/100,
# seed 5.  The doubling EVL row dates from the parent of the
# one-kernel-per-estimator change, the tripling and uniform:5 EVL rows
# from the change to one 2^64 window for every uniform:d, the widths EVL
# rows from the change to the time-reversed Horner stepper, and every
# hts row and censored count from the change by which retired lanes stop
# drawing.  A shifted random stream in any kernel family changes them.
PINNED = {
    "doubling": ([16985, 20348, 22936, 23093], [22209, 14672, 6379, 2763], 2763),
    "tripling": ([16985, 19018, 20413, 20383], [19874, 11605, 3878, 1357], 1357),
    "uniform:5": ([16985, 19065, 20725, 20957], [20231, 12128, 4307, 1559], 1559),
    "widths:1/2,1/4,1/4": ([16985, 18341, 20333, 20418],
                           [19658, 11326, 3816, 1263], 1263),
    "widths:49/50,1/50": ([16985, 29957, 17513, 19245],
                          [27551, 21634, 11848, 5910], 5910),
}


@pytest.mark.parametrize("spec", sorted(PINNED))
def test_estimates_are_pinned_per_kernel_family(spec):
    # CHUNK + 1000 trials: a full chunk and a short last one
    f, trials = FullBranchMap.from_spec(spec), mc.CHUNK + 1000
    evl, hts, censored = PINNED[spec]
    pts = mc.estimate_evl_points(f, Observable(F(1, 3)),
                                 [(n, F(1, 2)) for n in (1, 7, 129, 300)],
                                 trials, seed=5)
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


@pytest.mark.parametrize("zeta", [F(1, 5), F(2, 7), F(1, 3)])
def test_evl_estimate_on_a_decreasing_branch(zeta):
    # a rebuild as x = lo + w*y, right for increasing branches only,
    # reads 0.1221, 0.0608 and 0.0414 against 0.0795, 0.2033 and 0.1913
    obs = Observable(center=zeta)
    est = mc.estimate_evl(DECREASING, obs, 8, 2, trials=100000, seed=3)
    exact = float(exact_evl_prob(DECREASING,
                                 threshold_for(obs, 8, 2).exceedance, 8))
    assert abs(est.estimate - exact) <= 3 * est.half_width


def test_hts_estimate_on_a_decreasing_branch():
    B = ball(F(1, 5), F(1, 16))
    ecdf = mc.estimate_hts(DECREASING, F(1, 5), F(1, 16), [F(1, 2), 1],
                           trials=100000, seed=3)
    for tau, est, hw in zip(ecdf.grid, ecdf.estimates, ecdf.half_widths):
        exact = float(exact_hts_prob(DECREASING, B, int(F(tau) / B.measure())))
        assert abs(est - exact) <= 3 * hw


# Past one random word: a uniform:d orbit takes a fresh word every J
# steps (J = 64 on doubling, 40 on tripling), and the Markov-partition
# oracle reaches any horizon on these maps.


@pytest.mark.parametrize("zeta", [F(1, 7), F(1, 15)])
def test_hts_estimate_past_one_random_word(zeta):
    # t = 192 is three words; a stepper that divides each word by one
    # power of d too many, so that every 64th digit is 0, reads
    # z = -15.1 and -27.1 here
    B = ball(zeta, F(1, 256))
    ecdf = mc.estimate_hts(DOUBLING, zeta, F(1, 256), [192 * B.measure()],
                           trials=200000, seed=3)
    exact = float(exact_hts_prob(DOUBLING, B, 192))
    assert abs(ecdf.estimates[0] - exact) <= 3 * ecdf.half_widths[0]


@pytest.mark.parametrize("map_, zeta, n", [(TRIPLING, F(1, 4), 120),
                                           (DOUBLING, F(1, 3), 192)])
def test_evl_estimate_past_one_random_word(map_, zeta, n):
    # the divisor fault above shows here on doubling, where the prefix
    # masks take each candidate's window from the divided word; on d = 3
    # it moves only the last steps of each word and does not show
    obs = Observable(center=zeta)
    est = mc.estimate_evl(map_, obs, n, 1, trials=100000, seed=3)
    exact = float(exact_evl_prob(map_, threshold_for(obs, n, 1).exceedance, n))
    assert abs(est.estimate - exact) <= 3 * est.half_width


# The estimators take every map the component budget admits and every
# radius ball takes: uniform:d past d = 256 runs the stepped kernels of
# d = 3 (floor division) and d = 256 (shifts; the mask rule picks no
# prefix mask from d = 64 on), and an hts ball may reach radius 1/2.


@pytest.mark.parametrize("d", [257, 1000, 1024])
@pytest.mark.parametrize("zeta", [F(1, 3), F(2, 7)])
def test_estimates_meet_the_oracles_past_uniform_256(d, zeta):
    f = FullBranchMap.uniform(d)
    obs = Observable(center=zeta)
    for n in (6, 12):
        est = mc.estimate_evl(f, obs, n, 1, trials=100000, seed=1)
        exact = float(exact_evl_prob(f, threshold_for(obs, n, 1).exceedance, n))
        assert abs(est.estimate - exact) <= 4 * est.half_width / mc.Z95
    B = ball(zeta, F(1, 40))
    ecdf = mc.estimate_hts(f, zeta, F(1, 40), [F(1, 2), 1, 2], trials=100000,
                           seed=1)
    for tau, est, hw in zip(ecdf.grid, ecdf.estimates, ecdf.half_widths):
        exact = float(exact_hts_prob(f, B, int(F(tau) / B.measure())))
        assert abs(est - exact) <= 4 * hw / mc.Z95


@pytest.mark.parametrize("map_", [DOUBLING, TRIPLING, WIDTHS],
                         ids=["doubling", "tripling", "widths"])
@pytest.mark.parametrize("eps", [F(1, 4), F(3, 10), F(2, 5)])
def test_hts_meets_the_oracle_past_radius_a_quarter(map_, eps):
    B = ball(F(1, 5), eps)
    ecdf = mc.estimate_hts(map_, F(1, 5), eps, [1, 2, 3], trials=100000,
                           seed=1)
    for tau, est, hw in zip(ecdf.grid, ecdf.estimates, ecdf.half_widths):
        exact = float(exact_hts_prob(map_, B, int(F(tau) / B.measure())))
        assert abs(est - exact) <= 4 * hw / mc.Z95


# The skewed map's orbits start from a uniform point.  Starting them
# from y = 1/2 at 48 digits past the horizon, an error the wide branch
# contracts by only (49/50)^48 ~ 0.38, read 0.8464 (EVL) and 0.9374 and
# 0.9364 (t = 4 and 6) against 0.6858, 0.8513 and 0.8354.


def test_evl_estimate_on_the_skewed_map():
    obs = Observable(center=F(1, 3))
    est = mc.estimate_evl(SKEWED, obs, 8, 2, trials=100000, seed=11)
    exact = float(exact_evl_prob(SKEWED, threshold_for(obs, 8, 2).exceedance, 8))
    assert abs(est.estimate - exact) <= 3 * est.half_width


def test_hts_estimate_on_the_skewed_map():
    B = ball(F(1, 3), F(1, 16))  # P(B) = 1/8: t = 4 and 6
    ecdf = mc.estimate_hts(SKEWED, F(1, 3), F(1, 16), [F(1, 2), F(3, 4)],
                           trials=100000, seed=11)
    for tau, est, hw in zip(ecdf.grid, ecdf.estimates, ecdf.half_widths):
        exact = float(exact_hts_prob(SKEWED, B, int(F(tau) / B.measure())))
        assert abs(est - exact) <= 3 * hw


# Long orbits on widths:1/2,1/4,1/4 against its Markov-partition oracle,
# past the 128 points at which orbits were once rebuilt in blocks; six
# and four full chunks


def test_evl_estimate_at_n_1000_matches_the_markov_oracle():
    obs = Observable(center=F(1, 3))
    est = mc.estimate_evl(WIDTHS, obs, 1000, 1, trials=6 * mc.CHUNK, seed=1)
    exact = float(exact_evl_prob(WIDTHS, threshold_for(obs, 1000, 1).exceedance,
                                 1000))
    assert abs(est.estimate - exact) <= 3 * est.half_width


def test_hts_estimate_at_t_300_matches_the_markov_oracle():
    B = ball(F(1, 3), F(1, 256))  # P(B) = 1/128: t = 300
    ecdf = mc.estimate_hts(WIDTHS, F(1, 3), F(1, 256), [300 * B.measure()],
                           trials=4 * mc.CHUNK, seed=1)
    exact = float(exact_hts_prob(WIDTHS, B, 300))
    assert abs(ecdf.estimates[0] - exact) <= 3 * ecdf.half_widths[0]


# widths with denominators at most 8, each at most 1/2, 2 to 4 of them
_FRACTIONS = sorted({F(p, q) for q in range(2, 9) for p in range(1, q // 2 + 1)})
WIDTH_VECTORS = [
    ws + (1 - sum(ws),) for k in (1, 2, 3)
    for ws in itertools.product(_FRACTIONS, repeat=k)
    if 0 < 1 - sum(ws) <= F(1, 2) and (1 - sum(ws)).denominator <= 8]


@st.composite
def affine_maps(draw, widths=st.sampled_from(WIDTH_VECTORS)):
    """A full-branch affine map, each branch increasing or decreasing."""
    branches, lo = [], F(0)
    for w in draw(widths):
        if draw(st.booleans()):
            branches.append(AffineBranch(lo, lo + w, 1 / w, -lo / w))
        else:
            branches.append(AffineBranch(lo, lo + w, -1 / w, (lo + w) / w))
        lo += w
    return FullBranchMap(branches)


POINTS = st.integers(1, 17).flatmap(
    lambda q: st.integers(0, q - 1).map(lambda p: F(p, q)))
EVL_ARGS = dict(zeta=POINTS, n=st.integers(1, 8),
                tau=st.sampled_from([F(1, 2), F(1), F(2)]))
# hitting times up to 1/P(B) = 8 keep the exact survivor sets small
HTS_ARGS = dict(zeta=POINTS, eps=st.sampled_from([F(1, 16), F(1, 10), F(1, 5)]))
HTS_TAUS = [F(1, 2), F(1)]
UNIFORM_DS = range(3, 8)


def _check_evl_against_exact(f, zeta, n, tau):
    assume(tau < n)  # tau/n >= 1 has no threshold ball
    obs = Observable(center=zeta)
    est = mc.estimate_evl(f, obs, n, tau, trials=20000, seed=1)
    exact = float(exact_evl_prob(f, threshold_for(obs, n, tau).exceedance, n))
    assert abs(est.estimate - exact) <= 4 * est.half_width


def _check_hts_against_exact(f, zeta, eps):
    B = ball(zeta, eps)
    ecdf = mc.estimate_hts(f, zeta, eps, HTS_TAUS, trials=20000, seed=1)
    for tau, est, hw in zip(HTS_TAUS, ecdf.estimates, ecdf.half_widths):
        exact = float(exact_hts_prob(f, B, int(tau / B.measure())))
        assert abs(est - exact) <= 4 * hw, tau


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(f=affine_maps(), **EVL_ARGS)
def test_evl_estimate_matches_exact_on_random_affine_maps(f, zeta, n, tau):
    _check_evl_against_exact(f, zeta, n, tau)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(f=affine_maps(), **HTS_ARGS)
def test_hts_estimate_matches_exact_on_random_affine_maps(f, zeta, eps):
    _check_hts_against_exact(f, zeta, eps)


# widths 49/50, 1/50, each branch increasing or decreasing
SKEWED_MAPS = affine_maps(st.just((F(49, 50), F(1, 50))))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(f=SKEWED_MAPS, **EVL_ARGS)
def test_evl_estimate_matches_exact_on_skewed_maps(f, zeta, n, tau):
    _check_evl_against_exact(f, zeta, n, tau)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(f=SKEWED_MAPS, **HTS_ARGS)
def test_hts_estimate_matches_exact_on_skewed_maps(f, zeta, eps):
    _check_hts_against_exact(f, zeta, eps)


@pytest.mark.parametrize("d", UNIFORM_DS)
@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(**EVL_ARGS)
def test_evl_estimate_matches_exact_on_uniform_maps(d, zeta, n, tau):
    _check_evl_against_exact(FullBranchMap.uniform(d), zeta, n, tau)


@pytest.mark.parametrize("d", UNIFORM_DS)
@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(**HTS_ARGS)
def test_hts_estimate_matches_exact_on_uniform_maps(d, zeta, eps):
    _check_hts_against_exact(FullBranchMap.uniform(d), zeta, eps)


# orbits past two digit words (J = 64, 40, 27 steps on d = 2, 3, 5), where
# the property tests above see at most the first dozen steps.  With
# eps = 1/(2t), the EVL threshold ball at tau = 1 is the eps-ball at zeta,
# and the HTS cutoff at tau = 1 is t
@pytest.mark.parametrize("estimator", ["evl", "hts"])
@pytest.mark.parametrize("spec, zeta, t", [("doubling", F(1, 3), 200),
                                           ("doubling", F(1, 5), 200),
                                           ("tripling", F(1, 4), 120),
                                           ("uniform:5", F(1, 6), 80)])
def test_long_orbits_match_the_exact_oracles(estimator, spec, zeta, t):
    f = FullBranchMap.from_spec(spec)
    B = ball(zeta, F(1, 2 * t))
    if estimator == "evl":
        obs = Observable(center=zeta)
        assert threshold_for(obs, t, 1).exceedance == B
        est = mc.estimate_evl(f, obs, t, 1, trials=4 * mc.CHUNK, seed=1)
        p, hw, exact = est.estimate, est.half_width, exact_evl_prob(f, B, t)
    else:
        ecdf = mc.estimate_hts(f, zeta, F(1, 2 * t), [1],
                               trials=4 * mc.CHUNK, seed=1)
        p, hw = ecdf.estimates[0], ecdf.half_widths[0]
        exact = exact_hts_prob(f, B, t)
    assert abs(p - float(exact)) <= 4 * hw


# -- calibration: pooled z-scores against the exact oracles ---------------
# One case: a centre a/den (den 3..40) under one of the family's maps,
# the ball B of radius 1/(2t) there (P(B) = 1/t), and P(M_t <= u_t) at
# tau = 1 (evl: the threshold ball is B) or P(r_B > tau*t) at tau = 1, 2
# or 3 (hts: past the first retirements, and on a full chunk past the
# switch to word blocks; read off a curve run to 4t, so that it is not
# the censored count), estimated with the family's trials and the case's
# own seed; z = (p - exact)/sigma, sigma the binomial one at the exact
# value.  The cases are drawn from random.Random(22), a seed fixed
# before the grid was first run.  A bias too small for one case to show
# moves its family's mean z or mean z^2.

CALIBRATION_CASES = 20
CHI2_999 = 45.315  # the 0.999 quantile of chi^2 with 20 degrees of freedom
UNIFORM_4, UNIFORM_5 = FullBranchMap.uniform(4), FullBranchMap.uniform(5)
CALIBRATION = {  # family: (maps, estimator, trials per case, horizons t)
    "evl, power-of-two d (prefix masks)":
        ((DOUBLING, UNIFORM_4), "evl", mc.CHUNK, (80, 150, 300)),
    "evl, d >= 3": ((TRIPLING, UNIFORM_5), "evl", mc.CHUNK, (10, 30, 80, 150)),
    "evl, Horner": ((WIDTHS, DECREASING), "evl", mc.CHUNK, (10, 30, 80)),
    "hts, stepped": ((DOUBLING, TRIPLING, UNIFORM_5), "hts", mc.CHUNK,
                     (10, 30, 80)),
    "hts, word blocks (few lanes)":
        ((DOUBLING, TRIPLING, UNIFORM_5), "hts", mc.FEW_LANES, (10, 30, 80)),
    "hts, Horner": ((WIDTHS, DECREASING), "hts", mc.CHUNK, (10, 30, 80)),
}


def _calibration_zs(family, rnd):
    """The z of each of the family's cases, drawn from ``rnd``."""
    maps, estimator, trials, horizons = CALIBRATION[family]
    zs = []
    for _ in range(CALIBRATION_CASES):
        f, t, tau = rnd.choice(maps), rnd.choice(horizons), rnd.randint(1, 3)
        den = rnd.randint(3, 40)
        zeta, seed = F(rnd.randint(1, den - 1), den), rnd.randrange(2 ** 32)
        if estimator == "evl":
            obs = Observable(center=zeta)
            p = mc.estimate_evl(f, obs, t, 1, trials=trials, seed=seed).estimate
            exact = exact_evl_prob(f, threshold_for(obs, t, 1).exceedance, t)
        else:
            ecdf = mc.estimate_hts(f, zeta, F(1, 2 * t), [tau, 4],
                                   trials=trials, seed=seed)
            p = ecdf.estimates[0]
            exact = exact_hts_prob(f, ball(zeta, F(1, 2 * t)), tau * t)
        sigma = math.sqrt(float(exact * (1 - exact)) / trials)
        zs.append((p - float(exact)) / sigma)
    return zs


def test_monte_carlo_is_calibrated_per_kernel_family(monkeypatch):
    # per family of k cases, mean z^2 <= chi^2_{k, 0.999}/k and
    # |mean z| <= 3.3/sqrt(k): each a false alarm rate of 1e-3
    masks, rnd = _forced(monkeypatch, "rule"), random.Random(22)
    for family in CALIBRATION:
        zs = np.array(_calibration_zs(family, rnd))
        assert np.mean(zs ** 2) <= CHI2_999 / CALIBRATION_CASES, (family, zs)
        assert abs(np.mean(zs)) <= 3.3 / math.sqrt(CALIBRATION_CASES), (family, zs)
    assert masks  # the power-of-two family read words by prefix mask


def _peak_mib(fn, *args):
    """fn(*args), and the peak memory traced during the call (numpy
    buffers included) in MiB."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        if not tracing:
            tracemalloc.stop()


def test_horner_evl_chunk_holds_lane_sized_rows_only():
    # a full chunk to n = 300: the point, the uniforms, the digits and
    # the running minimum are lane-sized rows, about 2.5 MiB in all.
    # Rebuilding orbits in 128-point blocks took a 176-row digit buffer
    # beside them (8.7 MiB), and a float position block 40.0 MiB
    cps = ((100, F(1, 1000)), (300, F(1, 2000)))
    _, peak = _peak_mib(mc._evl_chunk, WIDTHS, F(1, 3), cps, 0, mc.CHUNK, 1)
    assert peak <= 4


def test_horner_entry_chunk_memory_with_retired_lanes():
    # every lane enters, so keep() runs several times: about 1.6 MiB;
    # with the block digit buffer it read 7.3 MiB, with a float position
    # block 49.0 MiB
    hist, peak = _peak_mib(mc._entry_chunk, WIDTHS, F(1, 3), F(1, 20), 300,
                           0, mc.CHUNK, 1)
    assert hist[0] == 0 and peak <= 4


def test_uniform_window_start_is_drawn_row_by_row():
    # d = 3 at a full chunk and a short horizon: the start window and
    # each digit word are one lane-sized uint64 row, about 2.2 MiB with
    # the stepper's rows; one (40, CHUNK) uint64 draw reads 10 MiB
    cps = ((8, F(1, 100)),)
    _, peak = _peak_mib(mc._evl_chunk, TRIPLING, F(1, 3), cps, 0, mc.CHUNK, 1)
    assert peak <= 4


def test_evl_points_multiple_tau_single_pass():
    obs = Observable(center=F(1, 3))
    pairs = [(10, F(1, 2)), (10, F(1)), (10, F(2))]
    pts = mc.estimate_evl_points(DOUBLING, obs, pairs, trials=40000, seed=13)
    for (n, tau), p in zip(pairs, pts):
        exact = float(exact_evl_prob(
            DOUBLING, threshold_for(obs, n, tau).exceedance, n))
        assert abs(p.estimate - exact) <= 3 * p.half_width, tau


def test_evl_tau_zero_degenerate():
    # threshold_for refuses tau = 0, and so does the estimator
    obs = Observable(center=F(1, 3))
    with pytest.raises(InfeasibleError):
        mc.estimate_evl(DOUBLING, obs, 100, 0, trials=1000, seed=1)


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
        mc.estimate_hts(DOUBLING, F(1, 3), F(1, 16), [1], trials=trials, seed=1)
    with pytest.raises(ValueError, match="trials"):
        mc.estimate_escape_rate(DOUBLING, F(0), F(1, 25), trials=trials,
                                seed=1)


def test_uniform_257_in_the_pool_matches_one_process_and_the_oracles():
    # three chunks on two workers: the estimates are those of one
    # process, and they meet the exact oracles
    f = FullBranchMap.uniform(257)
    obs = Observable(center=F(1, 3))
    B = ball(F(1, 3), F(1, 40))
    trials = 2 * mc.CHUNK + 1000
    evl = [mc.estimate_evl(f, obs, 100, 1, trials=trials, seed=1, workers=w)
           for w in (1, 2)]
    hts = [mc.estimate_hts(f, F(1, 3), F(1, 40), [1], trials=trials, seed=1,
                           workers=w) for w in (1, 2)]
    assert evl[0] == evl[1] and hts[0] == hts[1]
    U = threshold_for(obs, 100, 1).exceedance
    for est, hw, exact in (
            (evl[0].estimate, evl[0].half_width, exact_evl_prob(f, U, 100)),
            (hts[0].estimates[0], hts[0].half_widths[0],
             exact_hts_prob(f, B, int(1 / B.measure())))):
        assert abs(est - float(exact)) <= 4 * hw / mc.Z95


def test_lane_step_budget_is_checked_before_any_chunk_runs(monkeypatch):
    # at least a chunk of lanes is counted: 100 trials to n = 100 is
    # CHUNK * 100 lane-steps, exactly the budget
    monkeypatch.setattr(mc, "MC_STEP_BUDGET", mc.CHUNK * 100)
    obs = Observable(center=F(1, 3))
    assert mc.estimate_evl(DOUBLING, obs, 100, 1, trials=100, seed=1).trials == 100
    monkeypatch.setattr(mc, "_map_tasks",
                        lambda *args: pytest.fail("a chunk was scheduled"))
    for n, trials in ((101, 100), (100, mc.CHUNK + 1)):
        with pytest.raises(ResourceBudgetError, match="lane-steps"):
            mc.estimate_evl(DOUBLING, obs, n, 1, trials=trials, seed=1)
    with pytest.raises(ResourceBudgetError):
        mc.estimate_hts(DOUBLING, F(1, 3), F(1, 16), [13], trials=10, seed=1)
    with pytest.raises(ResourceBudgetError):
        mc.estimate_escape_rate(DOUBLING, F(1, 3), F(1, 16), trials=10, seed=1)


@pytest.mark.parametrize("taus", [[-1], [-1, 1], [F(1, 2), F(-1, 100)]])
def test_hts_rejects_negative_times(taus):
    # a negative cutoff would read the survival curve from its end
    with pytest.raises(ValueError, match="tau must be >= 0"):
        mc.estimate_hts(DOUBLING, F(1, 3), F(1, 16), taus, trials=100, seed=1)


@pytest.mark.parametrize("spec", ["doubling", "tripling", "uniform:5",
                                  "widths:1/2,1/4,1/4"])
def test_survivors_at_a_shorter_horizon_are_a_prefix(spec, monkeypatch):
    # hts cutoffs and the escape fit read one curve whatever horizon each
    # asks for.  Chunks of 2500 lanes cross FEW_LANES, and the short
    # horizons end before, at and after a word boundary
    monkeypatch.setattr(mc, "CHUNK", 2500)
    f = FullBranchMap.from_spec(spec)
    J = WORD[f.d] if f.is_uniform else 64
    args = (f, F(1, 3), F(1, 200))
    S, censored = mc._survivors(*args, 3 * J + 5, 6000, 4, 1)
    assert S[0] == 6000 and censored == S[-1] > 0
    assert np.all(np.diff(S) <= 0)
    for h0 in (J - 1, J, J + 1):
        short, _ = mc._survivors(*args, h0, 6000, 4, 1)
        assert np.array_equal(short, S[:h0 + 1]), h0


@pytest.mark.parametrize("spec", ["doubling", "tripling", "uniform:8",
                                  "widths:1/2,1/4,1/4"])
def test_evl_points_equal_one_call_per_pair(spec):
    # out of order and a repeated n; no pairs give no estimates
    f = FullBranchMap.from_spec(spec)
    obs = Observable(center=F(2, 7))
    pairs = [(200, F(1)), (30, F(1, 2)), (200, F(1, 2)), (30, F(2)),
             (5, F(1, 3))]
    pts = mc.estimate_evl_points(f, obs, pairs, trials=3000, seed=9)
    assert pts == [mc.estimate_evl(f, obs, n, tau, trials=3000, seed=9)
                   for n, tau in pairs]
    assert mc.estimate_evl_points(f, obs, [], trials=3000, seed=9) == []


def test_evl_determinism_and_grid_consistency():
    obs = Observable(center=F(1, 3))
    pairs = [(50, 1), (200, 1)]
    a = mc.estimate_evl_points(DOUBLING, obs, pairs, trials=70000, seed=11)
    b = mc.estimate_evl_points(DOUBLING, obs, pairs, trials=70000, seed=11)
    assert a == b
    c = mc.estimate_evl_points(DOUBLING, obs, pairs, trials=70000, seed=12)
    assert c != a


def test_evl_worker_invariance():
    obs = Observable(center=F(1, 3))
    a = mc.estimate_evl_points(DOUBLING, obs, [(64, 1)], trials=70000, seed=2,
                               workers=1)
    b = mc.estimate_evl_points(DOUBLING, obs, [(64, 1)], trials=70000, seed=2,
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


def _hts(workers, seed=9):
    # three chunks, so workers = 2 runs on the pool
    return mc.estimate_hts(TRIPLING, F(1, 3), F(1, 40), [F(1, 2), 1],
                           trials=70000, seed=seed, workers=workers)


def _pids():
    return [proc.pid for proc, _ in mc._pool]


def test_pool_is_reused_across_calls(two_cpu_pool):
    serial = _hts(1)
    assert mc._pool == []
    assert _hts(2) == serial
    pids = _pids()
    assert len(pids) == 2
    assert _hts(2) == serial
    assert _pids() == pids


def test_broken_pool_is_replaced_on_the_next_call(two_cpu_pool):
    serial = _hts(1)
    assert _hts(2) == serial
    proc = mc._pool[0][0]
    os.kill(proc.pid, signal.SIGKILL)
    assert wait([proc.sentinel], timeout=30) == [proc.sentinel]
    assert _hts(2) == serial
    assert proc.pid not in _pids() and len(_pids()) == 2


def test_a_call_uses_at_most_its_workers(monkeypatch, two_cpu_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    first = [proc.pid for proc, _ in mc._shared_pool(3)][:2]
    assert set(mc._map_tasks(os.getpid, [()] * 6, 2)) <= set(first)


def _logged_failure(path, exc_type, i):
    with open(path, "a") as log:
        log.write(f"{i}\n")
    raise exc_type(f"chunk {i} failed")


# a ConnectionError is what a dead worker's pipe raises in the caller;
# raised by the task itself, it must not read as one
@pytest.mark.parametrize("exc_type", [ValueError, OSError,
                                      ConnectionResetError])
def test_a_task_exception_reaches_the_caller_once(two_cpu_pool, tmp_path,
                                                 exc_type):
    serial = _hts(1)
    assert _hts(2) == serial
    pids = _pids()
    log = tmp_path / "calls"
    with pytest.raises(exc_type, match="^chunk 0 failed$") as raised:
        mc._map_tasks(_logged_failure,
                      [(str(log), exc_type, i) for i in range(3)], 2)
    assert type(raised.value) is exc_type
    assert sorted(log.read_text().split()) == ["0", "1", "2"]
    assert _hts(2) == serial
    assert _pids() == pids


def _unpicklable_result(i):
    return lambda: i


def _unpicklable_exception(i):
    raise ValueError(lambda: i)


def test_a_result_that_cannot_be_pickled_is_raised_in_the_caller(
        two_cpu_pool):
    # the worker reports the failed pickling, of a result or of the
    # task's own exception, and lives on
    for task in (_unpicklable_result, _unpicklable_exception):
        with pytest.raises((AttributeError, TypeError, pickle.PicklingError)):
            mc._map_tasks(task, [(i,) for i in range(3)], 2)
        assert len(_pids()) == 2
        assert _hts(2) == _hts(1)


def _exit_in_worker(i):
    os._exit(3)


def test_a_worker_that_exits_fails_the_call_and_leaves_no_pool(two_cpu_pool):
    # the call runs once more on fresh workers, which exit too
    with pytest.raises((EOFError, ConnectionError)):
        mc._map_tasks(_exit_in_worker, [(i,) for i in range(3)], 2)
    assert mc._pool == []
    assert _hts(2) == _hts(1)


def test_dropping_the_pool_ends_every_worker(two_cpu_pool):
    # each worker ends when its pipe closes, which it does only if no
    # younger worker holds the caller's end of it
    procs = [proc for proc, _ in mc._shared_pool(2)]
    dropper = threading.Thread(target=mc._drop_pool, daemon=True)
    dropper.start()
    dropper.join(timeout=5)
    try:
        assert not dropper.is_alive()
        assert mc._pool == []
        assert [proc.exitcode for proc in procs] == [0, 0]
    finally:
        for proc in procs:
            proc.kill()
        dropper.join(timeout=30)


def test_an_interrupt_with_replies_in_flight_drops_the_pool(monkeypatch,
                                                           two_cpu_pool):
    # the replies of the interrupted call must not reach a later one
    import multiprocessing.connection as connection
    wait_for_replies = connection.wait

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(connection, "wait", interrupt)
    with pytest.raises(KeyboardInterrupt):
        _hts(2)
    assert mc._pool == []
    monkeypatch.setattr(connection, "wait", wait_for_replies)
    assert _hts(2, seed=10) == _hts(1, seed=10)


def test_a_pool_run_starts_no_thread(two_cpu_pool):
    threads = threading.active_count()
    assert _hts(2) == _hts(1)
    assert threading.active_count() == threads


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
    # a ball past radius 1/4 is estimated as the oracle computes it
    B = ball(F(1, 3), F(3, 10))
    ecdf = mc.estimate_hts(DOUBLING, F(1, 3), F(3, 10), [1], trials=40000,
                           seed=6)
    exact = float(exact_hts_prob(DOUBLING, B, int(1 / B.measure())))
    assert abs(ecdf.estimates[0] - exact) <= 3 * ecdf.half_widths[0]


def test_hts_matches_the_open_system():
    eps = F(1, 200)
    hole = ball(F(1, 3), eps)
    PB = hole.measure()
    taus = [F(1, 10), F(1, 5), F(2, 5)]
    ecdf = mc.estimate_hts(DOUBLING, F(1, 3), eps, taus, trials=60000, seed=8)
    for tau, est, hw in zip(ecdf.grid, ecdf.estimates, ecdf.half_widths):
        t_int = int(F(tau) / PB)
        assert abs(est - float(exact_hts_prob(DOUBLING, hole, t_int))) <= 3 * hw


def test_escape_rate_trivial_and_small():
    # ball refuses a radius of 0, and so does the estimator
    with pytest.raises(RadiusRangeError):
        mc.estimate_escape_rate(DOUBLING, F(0), 0, trials=100, seed=1)
    with pytest.raises(InfeasibleError):
        # far too few trials for the tail window
        mc.estimate_escape_rate(DOUBLING, F(0), F(1, 25), trials=300, seed=1)


def test_escape_rate_against_oracle():
    eps = F(1, 25)
    rate = spectral_escape_rate(DOUBLING, ball(F(0), eps))
    fit = mc.estimate_escape_rate(DOUBLING, F(0), eps, trials=300000, seed=7)
    assert abs(fit.slope - rate) / rate < 0.08
    # the first t with 4 * (1/2)^t <= 1e-4
    assert fit.window[0] == 16


def test_escape_window_starts_at_the_map_transient():
    assert mc._transient(DOUBLING) == 16
    assert mc._transient(TRIPLING) == 10


def test_escape_rate_on_a_preperiodic_centre():
    # 3/8 is preperiodic under doubling, so theta = 1; a fit window from
    # 5/(theta*P(B)) = 160 read 0.02871 here against the spectral 0.03689
    rate = spectral_escape_rate(DOUBLING, ball(F(3, 8), F(1, 64)))
    fit = mc.estimate_escape_rate(DOUBLING, F(3, 8), F(1, 64), trials=200000,
                                  seed=2059379695)
    assert abs(fit.slope - rate) <= 0.006


@pytest.mark.parametrize("zeta, eps, seed", [
    (F(3, 8), F(1, 64), 2059379695), (F(3, 8), F(1, 64), 2),
    (F(1, 3), F(1, 64), 1), (F(0), F(1, 100), 4), (F(1, 5), F(1, 40), 5)])
def test_escape_rate_hazard_estimate_within_1e3_of_the_spectral_rate(
        zeta, eps, seed):
    # a least-squares fit from 5/(theta*P(B)) misses each of these by
    # 1.4e-3 to 8.2e-3
    rate = spectral_escape_rate(DOUBLING, ball(zeta, eps))
    fit = mc.estimate_escape_rate(DOUBLING, zeta, eps, trials=200000, seed=seed)
    assert abs(fit.slope - rate) <= 1e-3


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
    spectral = spectral_escape_rate(DOUBLING, hole)
    dm = DecayModel.for_map(DOUBLING)
    window = escape_window(hts_bracket_inputs(DOUBLING, hole, 1, dm),
                           0.5, PB, dm)
    slack = 0.1 * window.nominal
    assert window.lower - slack <= spectral <= window.nominal + slack
