"""Seeded, reproducible Monte Carlo estimators for the rare-event laws.

Trials are split into fixed-size chunks; chunk i draws its generator
from SeedSequence(seed, spawn_key=(i,)), and aggregation sums chunk
results in index order, so outputs are bit-for-bit identical no matter
how many workers execute the chunks.

Initial conditions are Lebesgue-distributed via i.i.d. random digits.
Each map family has one orbit stepper, and the two share one
interface: ``step()``, ``dist()``, ``level(radius)`` in the stepper's
own distance units, and ``keep(mask)``, over which the kernels' two
reductions ``running_minima(checkpoints)`` and ``inside(level)`` are
written once.  For uniform maps (x -> d*x mod 1) an orbit is held as
the unsigned 64-bit window floor(2^64*x), refilled from below with
base-d digits, so orbits of unbounded length never lose digit
accuracy.  Non-uniform affine maps run time-reversed: the stepper
starts from a uniform point and each step moves it to its preimage on
a branch drawn with the branch's width (backward Horner, one digit at
a time), which builds a stationary orbit last point first, exact in
law at every horizon.  These two steppers are the library's only
orbit simulation: floating-point forward iteration of an expanding map
collapses onto the dyadic rationals after roughly 53 steps, so it is
never used.  Each estimator has one chunk kernel, run over whichever
stepper the map takes: ``_evl_chunk`` checkpoints the running minimum
distance (on power-of-two uniform maps through prefix masks, below),
``_entry_chunk`` records first entry times.  Every estimator reaches
its chunks through one pipeline, ``_run_chunks``, which refuses fewer
than one trial and a run past the lane-step budget, before any chunk
runs; every map the exact oracles build has a stepper, and ``ball`` is
the one check on a radius.  ``estimate_hts`` reads the one survival curve
``_survivors`` at its cutoffs, and ``estimate_escape_rate`` fits it.
The curve ends at the last first entry, however far the horizon, so
its memory follows the entries, not the horizon.

The uniform stepper draws one uniform word C in [0, d^J) per J steps,
J the largest exponent with d^J <= 2^64.  If x = (s0 + t)/2^64 with t
uniform on [0, 1), then floor(d^J*t) is uniform on [0, d^J) and the
rest of d^J*t is uniform again, so i steps into a word that started at
window s0 the window is d^i*s0 + C // d^(J-i) mod 2^64: one multiply,
one floor division by a constant (a right shift when d is a power of
two) and one add per step, with the constants read from a table built
once per d.  For d = 2 a word is 64 bits and the step is a shift of the
window that brings in the next bit.  The circle distance is the wrapped
difference to the target read as int64, then its absolute value.
Horner digits are counted against the inner branch breakpoints.

On ``uniform:d`` with d = 2^k the EVL kernel reads whole words by
bit-parallel matching (Baeza-Yates & Gonnet 1992): the windows within
the largest radius still ahead share one of two m-bit prefixes, and one
row operation per prefix bit tests every step of a word for them
(``prefix_mask``).  Only the flagged steps take their exact distance,
on the exact stepper's draws, so the counts are exact.  Wide balls and
short horizons step instead (``_UniformOrbits.running_minima``).  The
first-entry kernel keeps the stepper: it needs each first entry.

A chunk's working memory is O(lanes): lane-sized rows only (and
word-long blocks over few uniform lanes).  A uniform chunk holds the
window, the word and its start, and for prefix masks six more rows; a
Horner chunk holds the point, one row of uniforms and one of digits.

The first-entry kernel retires the lanes that have entered the hole.
It steps the lanes one at a time (``inside``), adds each step's
entries to the histogram, and drops the entered lanes once they are
half of those stepped.  A uniform chunk does so down to FEW_LANES live
lanes.  From there, where a step costs more in calls than in
arithmetic, ``first_entries`` takes each lane's first step in the
ball from one (steps, lanes) block, the rest of a word; the kernel
bins them and drops the lanes that entered.  A Horner chunk steps to
the end.  A dropped lane draws nothing more: each draw takes one value
per lane the kernel still steps, in lane order (a word per lane at a
word's start, a uniform per lane at a Horner step).  The EVL kernel
steps every lane: at tau*theta <= 1 most lanes stay undecided up to
the last checkpoint, and it draws for all of them.

With workers > 1 the chunks go to forked workers, one pipe each, with
no helper thread in the caller; they are kept for the life of the
process.  A call uses at most one worker per chunk and per CPU; at one
it runs in-process.  A dead worker is replaced by running the call once
more.  Calls from several threads take turns on the pool, one lock
held over a call's whole dispatch, so that none reads another's
replies.  The workers inherit numpy, imported with this module; the
exact commands never import this module, so they never load numpy.

An event enters the estimators as the center of its observable and the
exact radius of its threshold ball.  The numerical settings are module
constants: the chunk size, the first-entry kernel's switch to blocks,
the prefix masks' candidate cost, the 95% Wilson quantile, the escape
fit's transient level and survivor floor, and a run's lane-step budget.
The estimators only estimate: the ``cli`` commands set them against the
exact oracles of ``events`` and the error brackets of ``brackets``.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .errors import InfeasibleError, ResourceBudgetError
from .intervals import as_exact, ball
from .maps import FullBranchMap
from .events import Observable, threshold_for

CHUNK = 32768
FEW_LANES = 2048  # live lanes at which first entries are read a word at a time
Z95 = 1.959963984540054  # two-sided 95% standard normal quantile
MIN_SURVIVORS = 100  # the escape fit ends at the last t with this many left
ESCAPE_TRANSIENT = 1e-4  # the escape fit starts once 4*w_max^t is this small
CANDIDATE_COST = 150  # row operations per prefix-mask candidate (_evl_chunk)
MC_STEP_BUDGET = 10 ** 12  # most lane-steps a run may ask for (_run_chunks)


def wilson_halfwidth(successes: int, trials: int) -> float:
    """95% Wilson score half-width for a binomial proportion."""
    if trials <= 0:
        return 1.0
    p = successes / trials
    z = Z95
    denom = 1.0 + z * z / trials
    return z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(index,))))


def _pool_size(workers: int, tasks: int) -> int:
    """Worker processes for ``tasks`` chunks: at most one per chunk and
    per CPU, and 1 (run in-process) when there is nothing to share."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")
    return max(1, min(workers, tasks, os.cpu_count() or 1))


_pool: list = []  # the process's workers: (process, connection) pairs
_pool_lock = threading.Lock()  # one call at a time reads and writes _pool


def _worker(conn, inherited):
    """Run each (fn, args) that ``conn`` receives, and send back (True,
    result) or (False, exception), with the pickling error in place of a
    result or exception that cannot be pickled; return when the caller's
    end closes."""
    # the caller's ends of this pipe and of the older workers' pipes:
    # held here, they would keep a pipe open that the caller has closed
    for end in inherited:
        end.close()
    try:
        while True:
            fn, args = conn.recv()
            try:
                conn.send((True, fn(*args)))
            except Exception as exc:  # raised by fn, or a result not pickled
                try:
                    conn.send((False, exc))
                except Exception as err:  # an exception not pickled
                    conn.send((False, err))
    except (EOFError, OSError):
        return


def _shared_pool(workers: int) -> list:
    """The process's workers, forked on first use and grown to ``workers``.
    Called under ``_pool_lock``, so a worker may fork while other threads
    wait for it; the worker inherits the lock held and never takes it."""
    # imported here: only runs with workers > 1 need a pool
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    while len(_pool) < workers:
        end, child = ctx.Pipe()
        proc = ctx.Process(target=_worker, daemon=True,
                           args=(child, [c for _, c in _pool] + [end]))
        proc.start()
        child.close()
        _pool.append((proc, end))
    return _pool


@atexit.register
def _drop_pool():
    """Close each worker's pipe, which ends it, and wait for it."""
    for proc, conn in _pool:
        conn.close()
        proc.join()
    _pool.clear()


def _dispatch(fn, args_list, workers: int) -> list:
    """(ok, value) for each task, in order.  Any exception drops the pool
    before it propagates, so that no later call reads a reply in flight."""
    from multiprocessing.connection import wait
    replies = [None] * len(args_list)
    tasks = enumerate(args_list)
    busy = {}  # connection -> index of the task it holds
    try:
        ready = [conn for _, conn in _shared_pool(workers)[:workers]]
        while ready:
            for conn, (i, args) in zip(ready, tasks):
                conn.send((fn, args))
                busy[conn] = i
            ready = wait(list(busy)) if busy else []
            for conn in ready:
                replies[busy.pop(conn)] = conn.recv()
    except BaseException:
        _drop_pool()
        raise
    return replies


def _map_tasks(fn, args_list, workers: int):
    workers = _pool_size(workers, len(args_list))
    if workers == 1:
        return [fn(*args) for args in args_list]
    with _pool_lock:  # each call reads only the replies to its own tasks
        try:
            replies = _dispatch(fn, args_list, workers)
        except (EOFError, ConnectionError):
            # a worker died; the chunks are pure functions of their
            # arguments, so they run again on fresh workers
            replies = _dispatch(fn, args_list, workers)
    for ok, value in replies:
        if not ok:
            raise value  # the task's own exception: never retried
    return [value for _, value in replies]


def _run_chunks(kernel, map_: FullBranchMap, head: tuple, horizon: int,
                trials: int, seed: int, workers: int) -> list:
    """``kernel(map_, *head, index, count, seed)`` on each chunk, in chunk
    order.  Raises before any chunk runs unless trials >= 1 and horizon
    steps of at least a chunk of lanes fit MC_STEP_BUDGET."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    if max(trials, CHUNK) * horizon > MC_STEP_BUDGET:
        raise ResourceBudgetError(
            f"Monte Carlo of {trials} trials to step {horizon} exceeds the "
            f"budget of {MC_STEP_BUDGET:.0e} lane-steps")
    args = [(map_, *head, i, min(CHUNK, trials - i * CHUNK), seed)
            for i in range((trials + CHUNK - 1) // CHUNK)]
    return _map_tasks(kernel, args, workers)


# ---------------------------------------------------------------------------
# orbit steppers: one per map family, one interface
# ---------------------------------------------------------------------------


def _scaled(zeta_or_radius: Fraction, m: int) -> int:
    f = as_exact(zeta_or_radius)
    return (f.numerator * m) // f.denominator


class _Lanes:
    """The two reductions the kernels run over a stepper's ``step()``,
    ``dist()`` and ``level(radius)``.

    A stepper's ``keep(mask)`` stops stepping the lanes where ``mask``
    (over the stepped lanes) is false.  A dropped lane draws nothing
    more: every draw of the stepper's ``rng`` takes one value per lane
    still stepped, in lane order.
    """

    def running_minima(self, checkpoints: Tuple[Tuple[int, Fraction], ...]):
        """At each (n, radius) checkpoint, n increasing, the running
        minimum of ``dist()`` over the first n points (one buffer, updated
        in place) and the level of the radius."""
        runmin = self.dist().copy()
        k = 0
        for n, radius in checkpoints:
            while k < n - 1:
                self.step()
                np.minimum(runmin, self.dist(), out=runmin)
                k += 1
            yield runmin, self.level(radius)

    def inside(self, level) -> np.ndarray:
        """Step once and return dist() < level, in a buffer that the next
        call overwrites."""
        self.step()
        return np.less(self.dist(), level, out=self._in)


@functools.lru_cache(maxsize=None)
def _word_steps(d: int):
    """The J steps of one digit word of x -> d*x mod 1, J the largest
    exponent with d^J <= 2^64: for i = 1..J the triple (d^i mod 2^64,
    op, q) with op(C, q) = C // d^(J-i).  A power of two d = 2^k divides
    by a right shift of k*(J-i) bits, which numpy does in about half the
    time of a division."""
    J = 1
    while d ** (J + 1) <= 1 << 64:
        J += 1
    k = d.bit_length() - 1
    shift = d == 1 << k
    return tuple((np.uint64(d ** i % (1 << 64)),
                  np.right_shift if shift else np.floor_divide,
                  np.uint64(k * (J - i) if shift else d ** (J - i)))
                 for i in range(1, J + 1))


class _UniformOrbits(_Lanes):
    """Vectorized orbit stepper for one chunk of trials of x -> d*x mod 1.

    ``state`` holds floor(m*x) with m = 2^64; ``dist()`` is the circle
    distance to the target in 1/m units, compared against
    ``level(radius)``.  The steps come in words of J (``_word_steps``):
    a word draws one uniform integer C in [0, d^J), and i steps into it
    the window is d^i*s0 + C // d^(J-i) mod 2^64, with s0 the window at
    the word's start.
    """

    m = 1 << 64

    def __init__(self, map_: FullBranchMap, zeta: Fraction, count: int,
                 rng: np.random.Generator):
        self.rng = rng
        self._word = _word_steps(map_.d)
        self._J = len(self._word)
        # the word's powers and divisors as columns, for word blocks and masks
        self._powers = np.array([p for p, _, _ in self._word])[:, None]
        self._q = np.array([q for _, _, q in self._word])[:, None]
        self._top = map_.d ** self._J
        self.Z = np.uint64(_scaled(zeta, self.m) % self.m)
        self.state = rng.integers(0, self.m, size=count, dtype=np.uint64)
        self._s0 = np.empty(count, dtype=np.uint64)
        self._C = np.empty(count, dtype=np.uint64)
        self._i = self._J  # the first step draws a word
        self._d = np.empty(count, dtype=np.uint64)
        self._in = np.empty(count, dtype=bool)
        self._k = map_.d.bit_length() - 1 if map_.d & (map_.d - 1) == 0 else None
        self._rows = None  # prefix_mask's, for d = 2^k, made at its first call

    def level(self, radius: Fraction) -> np.uint64:
        """The exact radius in 1/m units: dist() < level iff inside."""
        return np.uint64(_scaled(radius, self.m))

    def keep(self, mask: np.ndarray):
        idx = np.flatnonzero(mask)
        self.state, self._s0, self._C = (
            self.state.take(idx), self._s0.take(idx), self._C.take(idx))
        self._d = np.empty(len(idx), dtype=np.uint64)
        self._in = np.empty(len(idx), dtype=bool)

    def _next_word(self):
        # the window becomes the next word's s0; its buffer is free
        self._s0, self.state = self.state, self._s0
        self._C = self.rng.integers(0, self._top, size=len(self.state),
                                    dtype=np.uint64)
        self._i = 0

    def step(self):
        if self._i == self._J:
            self._next_word()
        power, op, q = self._word[self._i]
        self._i += 1
        # C // d^(J-i) goes through the distance buffer: one row fewer
        # for the step to stream through the cache
        np.multiply(self._s0, power, out=self.state)
        np.add(self.state, op(self._C, q, out=self._d), out=self.state)

    def dist(self) -> np.ndarray:
        """Circle distance of the current points to the target, in 1/m
        units, in a buffer that the next step() or dist() overwrites."""
        # the wrapped difference read as int64: its abs is the distance
        diff = np.subtract(self.state, self.Z, out=self._d)
        np.abs(diff.view(np.int64), out=diff.view(np.int64))
        return diff

    def first_entries(self, level, steps: int):
        """Each lane's first step in the ball, from 1 (0 for none), over
        the rest of the word or ``steps`` steps if fewer, read from one
        new (steps, lanes) block of dist(); and the steps.  The stepper
        moves past them."""
        if self._i == self._J:
            self._next_word()
        i, self._i = self._i, min(self._J, self._i + steps)
        block = np.multiply(self._s0, self._powers[i:self._i])
        block += self._word[0][1](self._C, self._q[i:self._i])
        self.state[...] = block[-1]
        block -= self.Z
        dist = np.abs(block.view(np.int64), out=block.view(np.int64))
        inside = dist.view(np.uint64) < level
        first = inside.argmax(axis=0) + 1
        first *= inside.any(axis=0)
        return first, len(inside)

    def running_minima(self, checkpoints: Tuple[Tuple[int, Fraction], ...]):
        """As ``_Lanes.running_minima``; for d = 2^k a word may instead be
        read by ``prefix_mask``, with (m, p) the prefix pair of L, the
        largest level ahead: a step outside the mask is at distance L or
        more, so only the candidates take their exact distance, and each
        minimum is exact where it is below L, all that is compared.  Per
        lane, for the s steps of a word still needed, stepping costs 6 row
        operations a step, and the mask about 4 per prefix bit, 24 a word
        and CANDIDATE_COST a candidate (a step is one with chance
        2^(1-m)).  A word is masked when 4*m + 24 + CANDIDATE_COST*s*
        2^(1-m) < 6*s: never at n <= 12 with radius >= 1/48 (m <= 5), nor
        in a short last word."""
        if self._k is None:
            yield from super().running_minima(checkpoints)
            return
        levels = [self.level(radius) for _, radius in checkpoints]
        ahead = list(itertools.accumulate(reversed(levels), max))[::-1]
        pairs = [_prefix_pair(int(self.Z), int(L)) for L in ahead]
        last, J = checkpoints[-1][0] - 1, self._J
        runmin, t, i, masked = self.dist().copy(), 0, self._i, False
        for (n, _), level, (m, p) in zip(checkpoints, levels, pairs):
            while t < n - 1:
                if i == J:  # a new word: by mask, or step by step
                    s, i = min(J, last - t), 0
                    masked = m and (4 * m + 24 + CANDIDATE_COST * s
                                    * 2.0 ** (1 - m) < 6 * s)
                    if masked:
                        self.prefix_mask(m, p)
                upto = min(J, i + n - 1 - t)
                if masked:
                    self.fold_candidates(runmin, i, upto)
                else:
                    for _ in range(i, upto):
                        self.step()
                        np.minimum(runmin, self.dist(), out=runmin)
                t, i = t + upto - i, upto
            yield runmin, level

    def prefix_mask(self, m: int, p: int) -> np.ndarray:
        """For d = 2^k and 0 < m < 64: draw the next word, move to its
        end, and return each lane's candidates, in a row that the next
        call overwrites: bit 64 - k*i is set where the window i steps in
        has top m bits p or p + 1 (mod 2^m).  Its bit j from the top is
        bit k*i + j of the stream s0 || C' (C' the word left-justified),
        so bit 64 - k*i of T_j = (s0 << (j+1)) | (C' >> (63 - j)).  The
        T_j are ANDed where p and p + 1 share a 1, ORed where they share
        a 0; below those bits p reads 0 1...1 and p + 1 reads 1 0...0
        (1...1 and 0...0 when p + 1 wraps to 0)."""
        k, J = self._k, self._J
        if self._rows is None:  # once per chunk
            self._rows = np.empty((6, len(self.state)), dtype=np.uint64)
            self._steps = np.uint64(sum(1 << (64 - k * i) for i in range(1, J + 1)))
        T, U, ones, zeros, p1, q0 = self._rows
        self._next_word()
        np.multiply(self._s0, self._word[-1][0], out=self.state)
        np.add(self.state, self._C, out=self.state)
        self._i = J
        C = np.left_shift(self._C, np.uint64(64 - k * J), out=self._d)

        def window_bit(j):  # T_j, in T
            np.left_shift(self._s0, np.uint64(j + 1), out=T)
            return np.bitwise_or(T, np.right_shift(C, np.uint64(63 - j), out=U),
                                 out=T)

        ones.fill(self._steps)
        zeros.fill(0)
        r = min(m, (p ^ (p + 1)).bit_length() - 1)  # p ends in r ones
        for j in range(m - r - 1):  # the bits p and p + 1 share
            if p >> (m - 1 - j) & 1:
                np.bitwise_and(ones, window_bit(j), out=ones)
            else:
                np.bitwise_or(zeros, window_bit(j), out=zeros)
        if r:  # below them, p reads (0) 1...1 and p + 1 reads (1) 0...0
            p1.fill(self._steps)
            q0.fill(0)
            for j in range(m - r, m):
                np.bitwise_and(p1, window_bit(j), out=p1)
                np.bitwise_or(q0, T, out=q0)
            np.invert(q0, out=q0)
            if r < m:  # p + 1 holds where x is 1, p where x is 0
                x = window_bit(m - r - 1)
                np.bitwise_and(q0, x, out=q0)
                np.bitwise_and(p1, np.invert(x, out=x), out=p1)
            np.bitwise_and(ones, np.bitwise_or(p1, q0, out=p1), out=ones)
        self._mask = np.bitwise_and(ones, np.invert(zeros, out=zeros), out=ones)
        return self._mask

    def fold_candidates(self, runmin: np.ndarray, lo: int, hi: int):
        """Fold into ``runmin`` the exact dist() at the candidates of the
        last ``prefix_mask`` that lie lo < i <= hi steps into its word."""
        k = self._k
        span = np.uint64((1 << (64 - k * lo)) - (1 << (64 - k * hi)))
        mask = np.bitwise_and(self._mask, span, out=self._rows[1])
        lanes = np.flatnonzero(np.not_equal(mask, 0, out=self._in))
        w = mask.take(lanes)
        while len(lanes):  # each lane's lowest candidate, until none is left
            rest = np.bitwise_and(w, w - np.uint64(1))
            # the lowest set bit, read as a float: its exponent is its place
            bit = np.bitwise_xor(w, rest, out=w).astype(np.float64)
            place = (bit.view(np.int64) >> 52) - 1023
            i = (64 - place) // k - 1  # the step, from 0
            win = np.multiply(self._s0.take(lanes), self._powers[i, 0])
            win += np.right_shift(self._C.take(lanes), self._q[i, 0])
            win -= self.Z
            dist = np.abs(win.view(np.int64), out=win.view(np.int64)).view(np.uint64)
            runmin[lanes] = np.minimum(runmin.take(lanes), dist, out=dist)
            more = rest != 0
            lanes, w = lanes[more], rest[more]


class _HornerOrbits(_Lanes):
    """Orbit stepper for one chunk of trials of a non-uniform affine map,
    run backwards in time.

    ``state`` starts as a uniform row.  Each step() draws one row of
    uniforms, one per stepped lane, takes from it each lane's branch
    digit a (the number of inner breakpoints at or below the lane's
    uniform, so a = i with the width of branch i as its probability),
    and moves the lane to its preimage x = a_a + b_a*x on that branch:
    a = -intercept/slope and b = 1/slope invert the branch, so
    decreasing branches are sampled too.  Lebesgue measure is invariant
    under the map, and the preimage of a uniform point on a branch drawn
    with its width is uniform again, so the points in build order, read
    backwards, are a stationary orbit (T(x_(k+1)) = x_k).  The running
    minimum and the first entry read windows of consecutive points,
    whose law a stationary orbit keeps when it is read backwards, so
    they have the laws of M_n and r_B at every horizon.  ``dist()`` is
    the float circle distance and ``level(radius)`` is a float.
    """

    def __init__(self, map_: FullBranchMap, zeta: Fraction, count: int,
                 rng: np.random.Generator):
        self.rng = rng
        self._zf = float(zeta)
        self._a = np.array([float(-b.intercept / b.slope) for b in map_.branches])
        self._b = np.array([float(1 / b.slope) for b in map_.branches])
        # the last cumulative width (which may round below 1) is never
        # compared, so digits stay below d
        self._inner = np.cumsum([float(w) for w in map_.widths])[:-1]
        self._dtype = np.min_scalar_type(map_.d - 1)
        self.state = rng.random(count)
        self._rows(count)

    def _rows(self, lanes: int):
        self._u = np.empty(lanes)  # the step's uniforms, one per lane
        self._d, self._t = np.empty(lanes), np.empty(lanes)
        self._digit = np.empty(lanes, dtype=self._dtype)
        self._row = np.empty(lanes, dtype=np.intp)  # intp indexes fastest
        self._in = np.empty(lanes, dtype=bool)

    def step(self):
        u = self.rng.random(out=self._u)
        digit, row, x = self._digit, self._row, self.state
        digit.fill(0)
        for c in self._inner:
            np.add(digit, u >= c, out=digit)
        np.copyto(row, digit, casting="unsafe")
        # the gathers write into a kept row: a new lane-sized row each
        # time costs more than the arithmetic.  The digits are below d,
        # so mode="wrap" never wraps; it only skips the bounds check's
        # buffered copy
        np.multiply(self._b.take(row, out=self._t, mode="wrap"), x, out=x)
        np.add(self._a.take(row, out=self._t, mode="wrap"), x, out=x)

    def level(self, radius: Fraction) -> float:
        return float(radius)

    def dist(self) -> np.ndarray:
        """min(|x - zeta|, 1 - |x - zeta|), in a buffer that the next
        step() or dist() overwrites."""
        diff = np.subtract(self.state, self._zf, out=self._d)
        np.abs(diff, out=diff)
        np.subtract(1.0, diff, out=self._t)
        return np.minimum(diff, self._t, out=diff)

    def keep(self, mask: np.ndarray):
        idx = np.flatnonzero(mask)
        self.state = self.state.take(idx)
        self._rows(len(idx))


def _orbits(map_: FullBranchMap, zeta: Fraction, count: int,
            rng: np.random.Generator):
    """The stepper of the map's family for one chunk of ``count`` lanes."""
    cls = _UniformOrbits if map_.is_uniform else _HornerOrbits
    return cls(map_, zeta, count, rng)


# ---------------------------------------------------------------------------
# chunk kernels
# ---------------------------------------------------------------------------


def _prefix_pair(Z: int, level: int) -> Tuple[int, int]:
    """(m, p): the widest m <= 63 at which the top m bits of every window
    w with |w - Z| < max(level, 1) on the circle of 2^64 read p or p + 1
    (mod 2^m); (0, 0) when no m does."""
    lo, hi = Z - max(level, 1) + 1, Z + max(level, 1) - 1
    for m in range(63, 0, -1):
        if (hi >> (64 - m)) - (lo >> (64 - m)) <= 1:
            return m, (lo >> (64 - m)) % (1 << m)
    return 0, 0


def _evl_chunk(map_: FullBranchMap, zeta: Fraction,
               checkpoints: Tuple[Tuple[int, Fraction], ...],
               index: int, count: int, seed: int):
    """Survivor counts at each (n, radius) checkpoint for one chunk: a
    lane survives when its running minimum distance is at least the
    radius's level.  Power-of-two uniform maps read whole words by prefix
    mask where that is cheaper (``_UniformOrbits.running_minima``)."""
    orb = _orbits(map_, zeta, count, _rng(seed, index))
    return [int((runmin >= level).sum())
            for runmin, level in orb.running_minima(checkpoints)]


def _entry_chunk(map_: FullBranchMap, zeta: Fraction, radius: Fraction,
                 horizon: int, index: int, count: int, seed: int):
    """Histogram of first entry times (index 0 = never entered), cut
    after the last step at which a lane entered.  Its pages past the
    steps stepped are never written, so they take no memory."""
    orb = _orbits(map_, zeta, count, _rng(seed, index))
    level = orb.level(radius)
    hist = np.zeros(horizon + 1, dtype=np.int64)
    # a uniform chunk reads its last FEW_LANES live lanes a word at a time
    few = FEW_LANES if map_.is_uniform else 0
    j, live = 0, count
    alive = np.ones(count, dtype=bool)  # over the stepped lanes
    hit = np.empty(count, dtype=bool)
    while j < horizon and live > few:
        j += 1
        np.logical_and(orb.inside(level), alive, out=hit)
        entered = int(np.count_nonzero(hit))
        if not entered:
            continue
        hist[j] = entered
        live -= entered
        np.logical_xor(alive, hit, out=alive)
        # retire the entered lanes once they are half of those stepped,
        # and before the word blocks, which step live lanes only
        if 2 * live <= len(alive) or live <= few:
            orb.keep(alive)
            alive, hit = np.ones(live, dtype=bool), np.empty(live, dtype=bool)
    while live and j < horizon:
        first, k = orb.first_entries(level, horizon - j)
        counts = np.bincount(first, minlength=k + 1)
        hist[j + 1:j + k + 1] += counts[1:]
        j += k
        if counts[0] < live:
            live = int(counts[0])
            orb.keep(first == 0)
    hist[0] = live
    entries = np.flatnonzero(hist[1:j + 1])
    return hist[:entries[-1] + 2 if entries.size else 1].copy()


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
    """
    pairs = [(int(n), as_exact(tau)) for n, tau in pairs]
    order = sorted(range(len(pairs)), key=lambda i: pairs[i][0])
    checkpoints = tuple((pairs[i][0], threshold_for(obs, *pairs[i]).radius)
                        for i in order)
    if not checkpoints:
        return []
    per_chunk = _run_chunks(_evl_chunk, map_, (obs.center, checkpoints),
                            checkpoints[-1][0], trials, seed, workers)
    # pair index -> trials that stayed out of its ball, summed over chunks
    survivors = dict(zip(order, map(sum, zip(*per_chunk))))
    return [EvlEstimate(n, float(tau), survivors[i] / trials,
                        wilson_halfwidth(survivors[i], trials), trials, seed)
            for i, (n, tau) in enumerate(pairs)]


def estimate_evl(map_: FullBranchMap, obs: Observable, n: int, tau,
                 trials: int, seed: int, workers: int = 1) -> EvlEstimate:
    """Fraction of trials whose maximum over n steps stays at or below u_n."""
    return estimate_evl_points(map_, obs, [(n, tau)], trials, seed, workers)[0]


def _survivors(map_: FullBranchMap, zeta, radius, horizon: int,
               trials: int, seed: int, workers: int):
    """(S, censored): S[t] the trials that have not entered the radius
    ball at zeta by step t, and the trials that never entered by the
    horizon.  S ends at the last step at which a trial entered: past
    it, up to the horizon, S stays at the censored count."""
    chunks = _run_chunks(_entry_chunk, map_, (as_exact(zeta), radius, horizon),
                         horizon, trials, seed, workers)
    hist = np.zeros(max(map(len, chunks)), dtype=np.int64)
    for chunk in chunks:
        hist[:len(chunk)] += chunk
    censored, hist[0] = int(hist[0]), 0
    return trials - np.cumsum(hist), censored


def estimate_hts(map_: FullBranchMap, zeta, eps, tau_grid: Sequence,
                 trials: int, seed: int, workers: int = 1) -> ECDF:
    """Survival estimates P(r_B > tau / P(B)) over the tau grid.

    B is the radius-eps ball at zeta (``ball`` refuses eps outside
    (0, 1/2)); each trial runs to the horizon max(tau_grid)/P(B) and
    records its first entry time.
    """
    eps = as_exact(eps)
    B = ball(as_exact(zeta), eps)
    PB = B.measure()
    taus = [as_exact(t) for t in tau_grid]
    if min(taus, default=0) < 0:  # S would be read from its end
        raise ValueError(f"tau must be >= 0 (got {float(min(taus))})")
    cutoffs = [int(t / PB) for t in taus]
    horizon = max(cutoffs) if cutoffs else 0
    S, censored = _survivors(map_, zeta, eps, horizon, trials, seed, workers)
    surv = [int(S[t]) if t < len(S) else censored for t in cutoffs]
    return ECDF(grid=tuple(float(t) for t in taus),
                estimates=tuple(s / trials for s in surv),
                half_widths=tuple(wilson_halfwidth(s, trials) for s in surv),
                trials=trials, seed=seed, censored=censored)


def _transient(map_: FullBranchMap) -> int:
    """The first t with 4*w_max^t <= ESCAPE_TRANSIENT, w_max the widest
    branch: 16 on doubling, 10 on tripling."""
    w, t = float(max(map_.widths)), 1
    while 4 * w ** t > ESCAPE_TRANSIENT:
        t += 1
    return t


def estimate_escape_rate(map_: FullBranchMap, zeta, eps, trials: int,
                         seed: int, workers: int = 1) -> EscapeFit:
    """Hazard estimate of the escape rate from the survival curve of the
    eps-hole.

    Each trial runs to the horizon 50/P(B).  With S(t) the trials that
    have not entered by t, the window runs from t0, where the map's
    transient 4*w_max^t has fallen to ESCAPE_TRANSIENT, up to t1, the
    last t with at least MIN_SURVIVORS survivors.  The rate is
    -log(1 - exits/exposure), with exits = S(t0) - S(t1) and exposure
    the sum of S(t) for t0 <= t < t1: the maximum-likelihood rate of a
    constant per-step exit probability.  ``intercept`` places the line
    -log P(r_B > t) = slope*t + intercept through t0, and
    ``residual_norm`` is the root mean square of -log(S(t)/trials) about
    that line over the window.
    """
    eps = as_exact(eps)
    PB = ball(as_exact(zeta), eps).measure()
    horizon = int(50 / float(PB))
    S, censored = _survivors(map_, zeta, eps, horizon, trials, seed, workers)
    if censored >= MIN_SURVIVORS:  # the window runs past the last entry
        S = np.concatenate((S, np.full(horizon + 1 - len(S), censored)))
    t_start = _transient(map_)
    alive = np.nonzero(S >= MIN_SURVIVORS)[0]
    t_end = int(alive[-1]) if alive.size else 0
    if t_end - t_start < 8:
        raise InfeasibleError(
            "survival window too short for a fit; increase trials")
    exits = int(S[t_start] - S[t_end])
    exposure = int(S[t_start:t_end].sum())
    slope = -math.log1p(-exits / exposure)
    logs = -np.log(S[t_start:t_end + 1] / trials)
    intercept = float(logs[0]) - slope * t_start
    line = slope * np.arange(t_start, t_end + 1) + intercept
    residual = float(np.sqrt(np.mean((logs - line) ** 2)))
    return EscapeFit(slope=slope, intercept=intercept,
                     window=(t_start, t_end), residual_norm=residual,
                     trials=trials, seed=seed, censored=censored)
