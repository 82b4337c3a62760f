"""Seeded, reproducible Monte Carlo estimators for the rare-event laws.

Trials are split into fixed-size chunks; chunk i draws its generator
from SeedSequence(seed, spawn_key=(i,)), and aggregation sums chunk
results in index order, so outputs are bit-for-bit identical no matter
how many workers execute the chunks.

Initial conditions are Lebesgue-distributed via i.i.d. branch digit
streams.  Each map family has one orbit stepper, and the two share one
interface: ``step()``, ``dist()`` to the target, ``level(radius)`` in
the stepper's own distance units, and ``keep(mask)``.  For uniform maps
(x -> d*x mod 1) an orbit is a sliding base-d window held as an
unsigned 64-bit integer, so orbits of unbounded length never lose digit
accuracy; non-uniform affine maps use a blockwise backward-Horner
reconstruction at fixed digit depth.  These two steppers are the
library's only orbit simulation: floating-point forward iteration of an
expanding map collapses onto the dyadic rationals after roughly 53
steps, so it is never used.  Each estimator has one chunk kernel, run
over whichever stepper the map takes: ``_evl_chunk`` checkpoints the
running minimum distance, ``_entry_chunk`` records first entry times.

The uniform stepper avoids per-lane division by a variable: the d >= 3
window steps as state*d + digit - lead*m, with the leading digit
``lead`` from a floor division by the constant m/d (which numpy turns
into a multiply and shift), and its circle distance folds [0, 2m) into
[0, m) with wrapping unsigned minima instead of a modulo.  Digit blocks
are drawn STEP_BLOCK rows at a time but never longer than the steps the
chunk has left; a shorter draw is a prefix of the longer one's stream,
so every estimate is the same as with full blocks.  Horner digits are
counted against the inner branch breakpoints.

The first-entry kernel retires the lanes that have entered the hole.
Each step, on either stepper, adds its new entries to the histogram,
and once the live lanes are half of those being stepped the entered
ones are dropped (mid-block too: the rest of a built Horner block keeps
the live lanes' rows), so a chunk compacts about log2(CHUNK) times.
Digits are still drawn for every lane of the chunk, in the same order,
and the live lanes take their own columns, so each lane sees the stream
it would have seen and the histograms do not change.  The EVL kernel
steps every lane: at tau*theta <= 1 most lanes stay undecided up to the
last checkpoint.

With workers > 1 the chunks run on one process pool, built on first
use and kept for the life of the process.  A call uses at most one
worker per chunk and per CPU; at one it runs in-process.  The pool is
rebuilt only to grow, or after a worker has died.

An event enters the estimators as the center of its observable and the
exact radius of its threshold ball.  The numerical settings are module
constants: the chunk size, the digit block and Horner depth, the 95%
Wilson quantile, the escape fit's survivor floor and the Ulam oracle's
minimum bin count.  The estimators only estimate: the ``cli`` commands
set them against the error brackets of ``brackets``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InfeasibleError
from .intervals import IntervalUnion, as_exact, ball
from .maps import FullBranchMap, open_system_decay_rate, ulam_matrix
from .events import Observable, theta_limit, threshold_for

CHUNK = 32768
STEP_BLOCK = 128
HORNER_DEPTH = 48
MAX_UNIFORM_D = 256  # the d >= 3 kernel draws its digit blocks as uint8
Z95 = 1.959963984540054  # two-sided 95% standard normal quantile
MIN_SURVIVORS = 100  # the escape fit ends at the last t with this many left
MIN_BINS = 64  # coarsest Ulam partition the escape oracle accepts


def wilson_halfwidth(successes: int, trials: int) -> float:
    """95% Wilson score half-width for a binomial proportion."""
    if trials <= 0:
        return 1.0
    p = successes / trials
    z = Z95
    denom = 1.0 + z * z / trials
    return z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom


def _chunks(trials: int):
    return [(i, min(CHUNK, trials - i * CHUNK))
            for i in range((trials + CHUNK - 1) // CHUNK)]


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(index,))))


def _check_trials(trials: int):
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")


def _pool_size(workers: int, tasks: int) -> int:
    """Worker processes for ``tasks`` chunks: at most one per chunk and
    per CPU, and 1 (run in-process) when there is nothing to share."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")
    return max(1, min(workers, tasks, os.cpu_count() or 1))


# the process's worker pool and its size: built on first use, then kept
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process's pool, rebuilt only when a call needs more workers."""
    global _pool, _pool_workers
    if _pool is None or _pool_workers < workers:
        _drop_pool()
        _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
    return _pool


def _drop_pool():
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=True)
    _pool, _pool_workers = None, 0


def _map_tasks(fn, args_list, workers: int):
    workers = _pool_size(workers, len(args_list))
    if workers == 1:
        return [fn(*args) for args in args_list]
    try:
        return list(_shared_pool(workers).map(fn, *zip(*args_list)))
    except BrokenProcessPool:
        # a worker died; the chunks are pure functions of their
        # arguments, so they run again on a fresh pool
        _drop_pool()
        return list(_shared_pool(workers).map(fn, *zip(*args_list)))


# ---------------------------------------------------------------------------
# orbit steppers: one per map family, one interface
# ---------------------------------------------------------------------------


def _scaled(zeta_or_radius: Fraction, m: int) -> int:
    f = as_exact(zeta_or_radius)
    return (f.numerator * m) // f.denominator


class _Lanes:
    """The lanes a stepper still steps, out of the ``count`` of its chunk.

    ``keep(mask)`` stops stepping the lanes where ``mask`` (over the
    stepped lanes) is false.  Digits are still drawn for all ``count``
    lanes, in the same order, and the kept lanes take their own columns
    (``_lanes``), so each sees the stream it would have seen.
    """

    def __init__(self, count: int, rng: np.random.Generator):
        self.count, self.rng = count, rng
        self._cols = None  # chunk lanes still stepped; None while all are

    def keep(self, mask: np.ndarray):
        self._cols = np.flatnonzero(mask) if self._cols is None else self._cols[mask]

    def _lanes(self, drawn: np.ndarray) -> np.ndarray:
        """The stepped lanes' columns of a full-width draw."""
        return drawn if self._cols is None else drawn[..., self._cols]


class _UniformOrbits(_Lanes):
    """Vectorized orbit stepper for one chunk of trials of x -> d*x mod 1.

    ``state`` holds the current base-d windows over m = d^W (2^64 for
    d = 2); ``dist()`` is the circle distance to the target in 1/m
    units, compared against ``level(radius)``.  ``steps`` is the number
    of steps the chunk will take: the d >= 3 digit blocks are drawn no
    longer than that.
    """

    def __init__(self, map_: FullBranchMap, zeta: Fraction, count: int,
                 rng: np.random.Generator, steps: int):
        super().__init__(count, rng)
        d = self.d = map_.d
        self.native = d == 2
        self._t1 = np.empty(count, dtype=np.uint64)
        self._d = np.empty(count, dtype=np.uint64)
        if self.native:
            self.m = 1 << 64
            self.Z = np.uint64(_scaled(zeta, self.m) % self.m)
            self.state = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64)
            self._buf = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64)
            self._bits_left = 64
            self._one, self._s63 = np.uint64(1), np.uint64(63)
        else:
            # W digits give a window below d^W = m: no reduction needed,
            # and d * m stays below 2^64
            W = 1
            while d ** (W + 2) <= 2 ** 63:
                W += 1
            m = self.m = d ** W
            # subtraction of Z is done as addition of m - Z to stay inside [0, 2m)
            self.Zneg = np.uint64(-_scaled(zeta, m) % m)
            self.mc = np.uint64(m)
            self.dc = np.uint64(d)
            self._lead = np.uint64(m // d)  # place value of the leading digit
            self.state = np.zeros(count, dtype=np.uint64)
            for dig in rng.integers(0, d, size=(W, count), dtype=np.uint64):
                np.multiply(self.state, self.dc, out=self.state)
                np.add(self.state, dig, out=self.state)
            self._block = np.empty((0, count), dtype=np.uint8)
            self._row = 0
            self._steps_left = steps

    def level(self, radius: Fraction) -> np.uint64:
        """The exact radius in 1/m units: dist() < level iff inside."""
        return np.uint64(_scaled(radius, self.m))

    def keep(self, mask: np.ndarray):
        super().keep(mask)
        self.state = self.state[mask]
        self._t1 = np.empty(len(self.state), dtype=np.uint64)
        self._d = np.empty(len(self.state), dtype=np.uint64)
        if self.native:
            self._buf = self._buf[mask]
        else:
            self._block = self._block[self._row:, mask]
            self._row = 0

    def step(self):
        if self.native:
            if self._bits_left == 0:
                self._buf = self._lanes(self.rng.integers(
                    0, 2 ** 64, size=self.count, dtype=np.uint64))
                self._bits_left = 64
            np.right_shift(self._buf, self._s63, out=self._t1)
            np.left_shift(self._buf, self._one, out=self._buf)
            self._bits_left -= 1
            np.left_shift(self.state, self._one, out=self.state)
            np.bitwise_or(self.state, self._t1, out=self.state)
        else:
            if self._row == len(self._block):
                # a shorter draw is a prefix of the full block's stream
                rows = min(STEP_BLOCK, self._steps_left)
                self._block = self._lanes(self.rng.integers(
                    0, self.d, size=(rows, self.count), dtype=np.uint8))
                self._row = 0
            # (state * d + dig) mod m = state * d + dig - lead * m, where
            # lead = state // (m / d) is the digit shifted out; all
            # intermediates stay below d * m < 2^64
            lead = np.floor_divide(self.state, self._lead, out=self._t1)
            np.multiply(lead, self.mc, out=lead)
            np.multiply(self.state, self.dc, out=self.state)
            np.add(self.state, self._block[self._row], out=self.state)
            np.subtract(self.state, lead, out=self.state)
            self._row += 1
            self._steps_left -= 1

    def dist(self) -> np.ndarray:
        """Circle distance of the current points to the target, in 1/m
        units, in a buffer that the next call overwrites."""
        diff = self._d
        if self.native:
            # the wrapped difference read as int64: its abs is the distance
            np.subtract(self.state, self.Z, out=diff)
            np.abs(diff.view(np.int64), out=diff.view(np.int64))
            return diff
        # diff = state - Z + m lies in [0, 2m); below m, diff - m wraps
        # past 2^64 - m, so the minimum of the two is diff mod m
        np.add(self.state, self.Zneg, out=diff)
        other = np.subtract(diff, self.mc, out=self._t1)
        np.minimum(diff, other, out=diff)
        np.subtract(self.mc, diff, out=other)
        return np.minimum(diff, other, out=diff)


class _HornerOrbits(_Lanes):
    """Orbit stepper for one chunk of trials of a non-uniform affine map.

    The points x_0 .. x_steps are rebuilt by backward Horner from i.i.d.
    branch digits, STEP_BLOCK rows at a time (fewer for the last block),
    each row reaching HORNER_DEPTH digits past the block's end through
    the carried digits.  A block is built when ``step()`` runs past the
    previous one.  ``dist()`` and ``level(radius)`` are floats.
    """

    def __init__(self, map_: FullBranchMap, zeta: Fraction, count: int,
                 rng: np.random.Generator, steps: int):
        super().__init__(count, rng)
        self._zf = float(zeta)
        self._los = np.array([float(b.lo) for b in map_.branches])
        self._ws = np.array([float(b.width) for b in map_.branches])
        # the digit of u is the number of inner breakpoints at or below it;
        # the last cumulative width (which may round below 1) is never
        # compared, so digits stay below d
        self._inner = np.cumsum([float(w) for w in map_.widths])[:-1]
        self._digit_type = np.min_scalar_type(map_.d - 1)
        self._d = np.empty(count)
        self._t = np.empty(count)
        self._rows_left = steps + 1  # rows not yet built, x_0 included
        self._carry = self._draw(HORNER_DEPTH)
        self._build()

    def _draw(self, rows: int) -> np.ndarray:
        u = self._lanes(self.rng.random((rows, self.count)))
        dig = np.zeros(u.shape, dtype=self._digit_type)
        for c in self._inner:
            np.add(dig, u >= c, out=dig)
        return dig

    def _build(self):
        """The next block of positions, from its own and the carried digits."""
        B = min(STEP_BLOCK, self._rows_left)
        self._rows_left -= B
        digits = np.concatenate([self._carry, self._draw(B)], axis=0)
        lanes = digits.shape[1]
        pos = np.empty((B, lanes))
        y = np.full(lanes, 0.5)
        for r in range(B + HORNER_DEPTH - 1, -1, -1):
            row = digits[r].astype(np.intp)  # intp indexes fastest
            out = pos[r] if r < B else y
            np.multiply(self._ws[row], y, out=out)
            np.add(self._los[row], out, out=out)
            y = out
        self._pos, self._row, self._carry = pos, 0, digits[B:]

    def level(self, radius: Fraction) -> float:
        return float(radius)

    def keep(self, mask: np.ndarray):
        super().keep(mask)
        self._pos = self._pos[self._row:, mask]
        self._row = 0
        self._carry = self._carry[:, mask]
        self._d = np.empty(len(self._cols))
        self._t = np.empty(len(self._cols))

    def step(self):
        self._row += 1
        if self._row == len(self._pos):
            self._build()

    def dist(self) -> np.ndarray:
        """min(|x - zeta|, 1 - |x - zeta|), in a buffer that the next call
        overwrites."""
        diff = np.subtract(self._pos[self._row], self._zf, out=self._d)
        np.abs(diff, out=diff)
        np.subtract(1.0, diff, out=self._t)
        return np.minimum(diff, self._t, out=diff)


def _check_sampled(map_: FullBranchMap):
    """Raise unless one of the steppers samples the map's orbits."""
    if map_.is_uniform:
        if map_.d > MAX_UNIFORM_D:
            raise InfeasibleError(
                f"Monte Carlo on uniform:d supports d <= {MAX_UNIFORM_D} "
                f"(got d = {map_.d})")
    elif not map_.is_affine:
        raise ValueError("Monte Carlo estimators require an affine map")


def _orbits(map_: FullBranchMap, zeta: Fraction, count: int,
            rng: np.random.Generator, steps: int):
    """The stepper of the map's family for one chunk of ``count`` lanes."""
    cls = _UniformOrbits if map_.is_uniform else _HornerOrbits
    return cls(map_, zeta, count, rng, steps)


# ---------------------------------------------------------------------------
# chunk kernels
# ---------------------------------------------------------------------------


def _evl_chunk(map_: FullBranchMap, zeta: Fraction,
               checkpoints: Tuple[Tuple[int, Fraction], ...],
               index: int, count: int, seed: int):
    """Survivor counts at each (n, radius) checkpoint for one chunk."""
    orb = _orbits(map_, zeta, count, _rng(seed, index),
                  steps=checkpoints[-1][0] - 1)
    runmin = orb.dist().copy()
    k = 0
    counts = []
    for n, radius in checkpoints:
        while k < n - 1:
            orb.step()
            np.minimum(runmin, orb.dist(), out=runmin)
            k += 1
        counts.append(int((runmin >= orb.level(radius)).sum()))
    return counts


def _entry_chunk(map_: FullBranchMap, zeta: Fraction, radius: Fraction,
                 horizon: int, index: int, count: int, seed: int):
    """Histogram of first entry times (index 0 = never entered)."""
    orb = _orbits(map_, zeta, count, _rng(seed, index), steps=horizon)
    level = orb.level(radius)
    hist = np.zeros(horizon + 1, dtype=np.int64)
    alive = np.ones(count, dtype=bool)  # over the stepped lanes
    live = count
    hit = np.empty(count, dtype=bool)
    for j in range(1, horizon + 1):
        orb.step()
        np.less(orb.dist(), level, out=hit)
        np.logical_and(hit, alive, out=hit)
        entered = int(np.count_nonzero(hit))
        if not entered:
            continue
        hist[j] = entered
        live -= entered
        if live == 0:
            break
        np.logical_xor(alive, hit, out=alive)
        # retire the entered lanes once they are half of those stepped
        if 2 * live <= len(alive):
            orb.keep(alive)
            alive, hit = np.ones(live, dtype=bool), np.empty(live, dtype=bool)
    hist[0] = live
    return hist


# ---------------------------------------------------------------------------
# estimator results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvlEstimate:
    n: int
    tau: float
    estimate: float
    half_width: float
    trials: int
    seed: int


@dataclass(frozen=True)
class ECDF:
    """Empirical survival estimates on a grid, with Wilson half-widths."""

    grid: Tuple[float, ...]
    estimates: Tuple[float, ...]
    half_widths: Tuple[float, ...]
    trials: int
    seed: int
    censored: int = 0


@dataclass(frozen=True)
class EscapeFit:
    slope: float
    intercept: float
    window: Tuple[int, int]
    residual_norm: float
    trials: int
    seed: int
    censored: int


def estimate_evl_points(map_: FullBranchMap, obs: Observable,
                        pairs: Sequence[Tuple[int, object]], trials: int,
                        seed: int, workers: int = 1):
    """P(M_n <= u_n) estimates for each (n, tau) pair, sharing one orbit pass.

    The running minimum distance to the center is checkpointed at each n
    and compared against the exact threshold radius of that (n, tau).
    Degenerate tau = 0 pairs return the exact estimate 1.
    """
    _check_trials(trials)
    order = sorted(range(len(pairs)), key=lambda i: int(pairs[i][0]))
    live = [(i, int(pairs[i][0]), as_exact(pairs[i][1])) for i in order
            if as_exact(pairs[i][1]) != 0]
    checkpoints = tuple((n, threshold_for(obs, n, tau).radius)
                        for _, n, tau in live)
    if checkpoints:
        _check_sampled(map_)
        args = [(map_, obs.center, checkpoints, i, c, seed)
                for i, c in _chunks(trials)]
        per_chunk = _map_tasks(_evl_chunk, args, workers)
        totals = [sum(row[j] for row in per_chunk) for j in range(len(live))]
    else:
        totals = []
    out: list = [None] * len(pairs)
    for (i, n, tau), s in zip(live, totals):
        out[i] = EvlEstimate(n, float(tau), s / trials,
                             wilson_halfwidth(s, trials), trials, seed)
    for i, (n, tau) in enumerate(pairs):
        if out[i] is None:
            out[i] = EvlEstimate(int(n), 0.0, 1.0,
                                 wilson_halfwidth(trials, trials), trials, seed)
    return out


def estimate_evl_grid(map_: FullBranchMap, obs: Observable, n_grid: Sequence[int],
                      tau, trials: int, seed: int, workers: int = 1):
    """P(M_n <= u_n) estimates for every n in the grid at one time scale."""
    n_grid = sorted(int(n) for n in n_grid)
    return estimate_evl_points(map_, obs, [(n, tau) for n in n_grid],
                               trials, seed, workers)


def estimate_evl(map_: FullBranchMap, obs: Observable, n: int, tau,
                 trials: int, seed: int, workers: int = 1) -> EvlEstimate:
    """Fraction of trials whose maximum over n steps stays at or below u_n."""
    return estimate_evl_grid(map_, obs, [n], tau, trials, seed, workers)[0]


def _entry_histogram(map_: FullBranchMap, zeta, radius, horizon: int,
                     trials: int, seed: int, workers: int):
    _check_sampled(map_)
    args = [(map_, as_exact(zeta), radius, horizon, i, c, seed)
            for i, c in _chunks(trials)]
    out = np.zeros(horizon + 1, dtype=np.int64)
    for h in _map_tasks(_entry_chunk, args, workers):
        out += h
    return out


def estimate_hts(map_: FullBranchMap, zeta, eps, tau_grid: Sequence,
                 trials: int, seed: int, workers: int = 1) -> ECDF:
    """Survival estimates P(r_B > tau / P(B)) over the tau grid.

    B is the radius-eps ball at zeta; each trial runs to the horizon
    max(tau_grid)/P(B) and records its first entry time.
    """
    _check_trials(trials)
    eps = as_exact(eps)
    if eps >= Fraction(1, 4):
        raise InfeasibleError("eps must be < 1/4")
    B = ball(as_exact(zeta), eps)
    PB = B.measure()
    taus = [as_exact(t) for t in tau_grid]
    cutoffs = [int(t / PB) for t in taus]
    horizon = max(cutoffs) if cutoffs else 0
    hist = _entry_histogram(map_, zeta, eps, horizon, trials, seed, workers)
    entered_by = np.cumsum(hist[1:])  # entered at step <= t
    estimates, halves = [], []
    for t_int in cutoffs:
        surv = trials - int(entered_by[t_int - 1]) if t_int >= 1 else trials
        estimates.append(surv / trials)
        halves.append(wilson_halfwidth(surv, trials))
    return ECDF(grid=tuple(float(t) for t in taus),
                estimates=tuple(estimates), half_widths=tuple(halves),
                trials=trials, seed=seed, censored=int(hist[0]))


def estimate_escape_rate(map_: FullBranchMap, zeta, eps, trials: int,
                         seed: int, workers: int = 1) -> EscapeFit:
    """Least-squares escape rate from the survival curve of the eps-hole.

    Each trial runs to the horizon 50/P(B).  The fit of -log P(r_B > t)
    against t runs from 5/(theta*P(B)), which excludes the transient
    prefix, up to the last t with at least MIN_SURVIVORS surviving
    trials.
    """
    _check_trials(trials)
    eps = as_exact(eps)
    if eps == 0:
        return EscapeFit(0.0, 0.0, (0, 0), 0.0, trials, seed, trials)
    B = ball(as_exact(zeta), eps)
    PB = B.measure()
    theta = theta_limit(map_, zeta)[1]
    horizon = int(50 / float(PB))
    hist = _entry_histogram(map_, zeta, eps, horizon, trials, seed, workers)
    survivors = trials - np.cumsum(hist[1:])
    t_start = max(1, int(math.ceil(5.0 / (theta * float(PB)))))
    alive = np.nonzero(survivors >= MIN_SURVIVORS)[0]
    t_end = int(alive[-1]) + 1 if alive.size else 0
    if t_end - t_start < 8:
        raise InfeasibleError(
            "survival window too short for a fit; increase trials")
    ts = np.arange(t_start, t_end + 1)
    logs = -np.log(survivors[ts - 1] / trials)
    A = np.vstack([ts, np.ones_like(ts)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A.astype(float), logs, rcond=None)
    residual = float(math.sqrt(res[0] / len(ts))) if res.size else 0.0
    return EscapeFit(slope=float(slope), intercept=float(intercept),
                     window=(t_start, t_end), residual_norm=residual,
                     trials=trials, seed=seed, censored=int(hist[0]))


# ---------------------------------------------------------------------------
# spectral escape-rate oracle
# ---------------------------------------------------------------------------


def aligned_bins(map_: FullBranchMap, hole: IntervalUnion) -> int:
    """Smallest bin count of at least MIN_BINS aligning the hole and
    branch endpoints."""
    den = 1
    for lo, hi in hole.components:
        den = math.lcm(den, lo.denominator, hi.denominator)
    for br in map_.branches:
        den = math.lcm(den, br.lo.denominator, br.hi.denominator)
    bins = den
    while bins < MIN_BINS:
        bins += den
    return bins


def ulam_escape_oracle(map_: FullBranchMap, hole: IntervalUnion,
                       bins: int) -> float:
    """Escape rate as -log(spectral radius) of the holed Ulam matrix.

    The hole must be aligned to bin boundaries so the open-system
    restriction is exact; power iteration runs to 1e-12 relative
    tolerance.  An empty hole gives 0, a full hole +inf.
    """
    if hole.is_empty:
        return 0.0
    if hole.measure() >= 1:
        return math.inf
    if bins < MIN_BINS:
        raise ValueError(f"bins must be >= {MIN_BINS}")
    for lo, hi in hole.components:
        for endpoint in (lo, hi):
            if (endpoint * bins).denominator != 1:
                raise ValueError(
                    f"hole endpoint {endpoint} not aligned to 1/{bins} grid")
    M = ulam_matrix(map_, bins)
    in_hole = np.zeros(bins, dtype=bool)
    for lo, hi in hole.components:
        in_hole[int(lo * bins):int(hi * bins)] = True
    keep = np.nonzero(~in_hole)[0]
    return open_system_decay_rate(M, keep)
