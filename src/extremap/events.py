"""Extreme-event sets, thresholds, extremal indices and exact probabilities.

An exceedance event is a ball: a center and a radius.  Everything here
works on exact ``IntervalUnion`` values, so the exceedance ball U_n, the
annulus A(q) obtained by removing the first q dynamical preimages, the
survivor sets of finite windows, and the short-range recurrence sums
are all computed with zero tolerance.

Which exact oracle runs depends on the map.  On a map whose slopes and
intercepts are all integers (``FullBranchMap.is_integer``: every
``uniform:d``, ``widths:1/2,1/4,1/4``, integer JSON maps with either
branch orientation) the survivor measures of ``exact_evl_prob`` and
``exact_hts_prob`` come from the set's Markov partition
(``FullBranchMap.markov_partition``): integer masses per cell, pulled
back in O(cells) per step at any horizon (after Keller and Liverani,
"Rare events, escape rates and quasistationarity: some exact formulae",
J. Stat. Phys. 2009).  Where the partition would cost more than
interval algebra at the horizon asked for (many cells at a short
horizon: a centre with a long orbit, or a large denominator), or more
than the map's budget, it is not built and interval algebra runs
instead (``_partition``).  Run by power iteration, the same recursion
gives the escape rate through a hole (``spectral_escape_rate``, the one
escape-rate oracle).  The recurrence sums have a closed form in the
set's integer endpoint numerators and the residues d^j mod q on uniform
maps, and take every m(A intersect f^(-j) A) from one pass over the
partition on the other integer maps; either way a sum is one integer
numerator.  Every other affine map (``widths:2/5,3/5``, say) takes
interval algebra: survivor sets and iterated preimages, within the
map's component budget; it has no escape-rate oracle.  The sets
themselves (``survivor_set``, ``annulus_set``) are always built by
interval algebra.  The limit extremal index (``theta_limit_exact``)
walks the centre's orbit once, in O(1) memory.

The time conventions follow the max/hitting duality: the survivor set
of length ell is the set of points whose orbit avoids B at times
0, ..., ell - 1, so the length-n survivor set of U_n is exactly
{max of the first n observations <= u_n}, and its preimage is
{first hitting time > n}.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate, compress
from fractions import Fraction

from .errors import (ComponentBudgetError, ConvergenceError, InfeasibleError,
                     PeriodUndecidedError)
from .intervals import IntervalUnion, as_exact, ball
from .maps import FullBranchMap


@dataclass(frozen=True)
class Observable:
    """Observable maximized at ``center`` whose exceedance sets are balls.

    An observable g(dist(x, center)) with g strictly decreasing exceeds a
    level exactly on a ball around the center.  Thresholds are fixed by
    n * P(U_n) = tau, so every law and bracket here depends on g only
    through that ball's radius, and the center is all an event needs.
    """

    center: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", as_exact(self.center))


@dataclass(frozen=True)
class ThresholdSchedule:
    """Exceedance ball U_n with n * P(U_n) equal to tau exactly.

    The ball measure is exactly computable, so the usual asymptotic
    normalization is realized with zero defect: radius = tau / (2n).
    """

    radius: Fraction
    exceedance: IntervalUnion


def threshold_for(obs: Observable, n: int, tau) -> ThresholdSchedule:
    tau = as_exact(tau)
    if tau <= 0:
        raise InfeasibleError("tau must be positive (tau = 0 is degenerate)")
    if tau / n >= 1:
        raise InfeasibleError(f"tau/n = {tau}/{n} >= 1: ball radius would reach 1/2")
    radius = tau / (2 * n)
    return ThresholdSchedule(radius=radius,
                             exceedance=ball(obs.center, radius))


# ---------------------------------------------------------------------------
# annuli, survivor sets, extremal index
# ---------------------------------------------------------------------------


def annulus_set(map_: FullBranchMap, B: IntervalUnion, q: int) -> IntervalUnion:
    """A(q) = B minus its first q dynamical preimages of itself.

    Equals B intersect f^(-1)(B^c) ... f^(-q)(B^c); q = 0 returns B.
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    A = B
    P = B
    for _ in range(q):
        P = map_.preimage(P)
        A = A.difference(P)
    return A


def survivor_set(map_: FullBranchMap, B: IntervalUnion, ell: int) -> IntervalUnion:
    """Points avoiding B at times 0, ..., ell - 1 (full space if ell = 0)."""
    ell = _window_length(ell)
    W = IntervalUnion.full()
    Bc = B.complement()
    for _ in range(ell):
        W = Bc.intersect(map_.preimage(W))
    return W


def _window_length(ell) -> int:
    ell = int(math.floor(ell))
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return ell


def theta_n(map_: FullBranchMap, B: IntervalUnion, q: int):
    """Finite-level extremal index: measure(A(q)) / measure(B)."""
    mB = B.measure()
    if mB <= 0:
        raise ValueError("event has zero measure")
    return annulus_set(map_, B, q).measure() / mB


def theta_limit_exact(map_: FullBranchMap, zeta):
    """(q, theta) in the limit of small events, theta an exact Fraction.

    For a periodic center of prime period p the limit extremal index is
    1 - 1/|DF^p| (the reciprocal of the orbit multiplier); a
    non-periodic center gives q = 0 and theta = 1.  The center 0 is an
    end of both end branches, and each maps its side of 0 back onto 0:
    the share of the ball that returns at once is the mean width of
    the two end branches.  |DF^p| is one power per branch visited in
    ``_cycle``.  A center outside [0, 1) raises ValueError.
    """
    zeta = as_exact(zeta)
    if not 0 <= zeta < 1:
        raise ValueError(f"center {zeta} outside [0, 1)")
    if zeta == 0:
        return 1, 1 - (map_.branches[0].width + map_.branches[-1].width) / 2
    visits = _cycle(map_, zeta)
    if visits is None:
        return 0, Fraction(1)
    mult = math.prod(abs(b.slope) ** v for b, v in zip(map_.branches, visits))
    return sum(visits), 1 - Fraction(1) / mult


def _cycle(map_: FullBranchMap, zeta: Fraction):
    """The branch visits of a periodic center's cycle, visits[b] on
    branch b, which sum to its period; None if it is not periodic.

    One walk in O(1) memory, one step (``FullBranchMap._numerators``).
    On an integer map the orbit stays among the den points k/den, so the
    cap is den, at most max(budget, 64), and a slope sharing a factor
    with den shrinks the denominator for good: not periodic.  Elsewhere
    the cap is 64.  A return to the start within the cap gives the
    period.  Brent's cycle detection (BIT 1980) finds any other repeat,
    mu steps into a cycle of lam, in 3 * cap + 1 steps if mu + lam <=
    cap: not periodic either.  Past the cap the walk raises.
    """
    den = zeta.denominator
    D, los, affine = map_._numerators(den)
    if map_.is_integer:
        cap, start = min(den, max(map_.budget, 64)), zeta.numerator * D // den
        shrinks = [math.gcd(A, den) > 1 for A, _ in affine]
    else:
        cap, start, shrinks = 64, zeta, [False] * map_.d

    def step(x):
        b = bisect_right(los, x) - 1
        A, CD = affine[b]
        return b, (A * x + CD) % D
    visits, x = [0] * map_.d, start
    tortoise, t = start, 0  # the tortoise and its step: 0, then powers of 2
    for j in range(1, 3 * cap + 2):
        b, x = step(x)
        if shrinks[b]:
            return None
        visits[b] += 1
        if x == start:
            if j <= cap:
                return visits
            break
        if x == tortoise:
            # the tortoise lies on a cycle of lam = j - t, so mu + lam <= j;
            # mu + lam <= cap iff the point cap - lam steps out does too
            if j <= cap:
                return None
            y = reduce(lambda z, _: step(z)[1], range(cap - j + t), start)
            if reduce(lambda z, _: step(z)[1], range(j - t), y) == y:
                return None
            break
        if j & (j - 1) == 0:
            tortoise, t = x, j
    raise PeriodUndecidedError(f"period of {zeta} exceeds cap {cap}")


RETURN_HORIZON = 256


def first_return_time(map_: FullBranchMap, A: IntervalUnion) -> int:
    """Smallest j in [1, RETURN_HORIZON] with f^j(A) meeting A, by an
    exact forward-image sweep, or RETURN_HORIZON + 1 without a return.

    The brackets sum the decay tail from this time to the block length
    ell.  A set that does not return within RETURN_HORIZON steps may
    still return at any later step up to ell, so the tail is summed from
    the first step not searched.  That is bound-safe: the tail sum only
    shrinks as its start grows, and it is empty when ell <= RETURN_HORIZON.
    """
    if A.measure() <= 0:
        raise ValueError("A must have positive measure")
    S = A
    for j in range(1, RETURN_HORIZON + 1):
        S = map_.image(S)
        if S.intersects(A):
            return j
    return RETURN_HORIZON + 1


# ---------------------------------------------------------------------------
# pair correlations and the short-range recurrence sum
# ---------------------------------------------------------------------------


def dprime_sum(map_: FullBranchMap, A: IntervalUnion, n: int, q: int, k: int,
               variant: str = "theorem") -> Fraction:
    """Short-range recurrence sum of the no-clustering condition.

    n * sum over j of measure(A intersect f^(-j) A), where A is the
    q-annulus A(q) of the exceedance ball at the level with
    n * P(U) = tau.  ``variant="theorem"`` sums j = q+1 .. floor(n/k) - 1;
    ``variant="corollary"`` sums j = 1 .. floor(n/k) (the two ranges
    stated alongside the two error brackets).  An empty range gives 0.

    On uniform maps the sum is one pass of small-integer residues
    (``_uniform_pair_sum``), and on the other integer maps one pass over
    A's Markov partition (``_markov_pair_sum``); each builds a single
    integer numerator, so a term costs one multiply-add, not a
    ``Fraction``.  Other affine maps sum iterated preimages.
    """
    if variant == "theorem":
        j_lo, j_hi = q + 1, n // k - 1
    elif variant == "corollary":
        j_lo, j_hi = 1, n // k
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if j_hi < j_lo:
        return Fraction(0)
    return n * _pair_sum(map_, A, j_lo, j_hi)


def _pair_sum(map_: FullBranchMap, A: IntervalUnion, j_lo: int,
              j_hi: int) -> Fraction:
    """Sum of m(A intersect f^(-j) A) over j = j_lo..j_hi, 1 <= j_lo <= j_hi."""
    if map_.is_uniform:
        return _uniform_pair_sum(map_.d, A, j_lo, j_hi)
    total = _markov_pair_sum(map_, A, j_lo, j_hi)
    if total is None:
        total = _preimage_pair_sum(map_, A, j_lo, j_hi)
    return total


def _uniform_pair_sum(d: int, A: IntervalUnion, j_lo: int,
                      j_hi: int) -> Fraction:
    """Sum of m(A intersect f^(-j) A) over j = j_lo..j_hi for x -> d*x mod 1.

    f^j is x -> D*x mod 1 with D = d^j.  Over [0, e/q) the periodized
    indicator of A, magnified by D, integrates to whole turns of
    P = q*m(A) plus G(r) = q*m(A intersect [0, r/q)) at the remainder
    r = D*e mod q.  Summed with sign s = -1 at A's left ends e and +1 at
    its right ends, the turns give D*P^2/q less P times the remainders, so

        m(A intersect f^(-j) A) = P^2/q^2 + c(rho_j) / (q^2 d^j),
        c(rho) = q * sum s G(rho*e mod q) - P * sum s (rho*e mod q),

    with rho_j = d^j mod q.  c depends on j only through rho_j, which
    takes at most q values, so each is computed once; the pass advances
    rho by *d mod q and sums N = sum_j c(rho_j) d^(j_hi - j) by Horner,
    one small multiply-add per term, into one ``Fraction`` over q^2 d^j_hi.
    """
    e, q = A.ends, A.denominator
    prefix = [0]  # prefix[m]: measure * q of the first m components
    for i in range(0, len(e), 2):
        prefix.append(prefix[-1] + e[i + 1] - e[i])
    P = prefix[-1]

    @cache
    def c(rho):
        total = 0
        for i, y in enumerate(e):
            r = rho * y % q
            m = bisect_right(e, r)
            G = prefix[m // 2] + (r - e[m - 1] if m % 2 else 0)
            total += q * G - P * r if i % 2 else P * r - q * G
        return total

    N, rho = 0, pow(d, j_lo, q)
    for _ in range(j_lo, j_hi + 1):
        N = N * d + c(rho)
        rho = rho * d % q
    D = d ** j_hi
    return Fraction((j_hi - j_lo + 1) * P * P * D + N, q * q * D)


def _markov_pair_sum(map_: FullBranchMap, A: IntervalUnion, j_lo: int,
                     j_hi: int):
    """Sum of m(A intersect f^(-j) A) over j = j_lo..j_hi, in one pass
    over A's Markov partition, or None without one (``_partition``).

    Cell i holds m(cell_i intersect f^(-j) A) scaled by den * scale^j; a
    step pulls the masses back (``_pull_back``), and their sum S_j over
    A's cells is the j-th measure over den * scale^j.  The pass sums
    N = sum_j S_j scale^(j_hi - j) by Horner, one integer over
    den * scale^j_hi."""
    part = _partition(map_, A, j_hi)
    if part is None:
        return None
    ends, den, scale, rows = part
    inside = _cells_in(ends, den, A)
    mass = [b - a if i else 0 for a, b, i in zip(ends, ends[1:], inside)]
    N = 0
    for j in range(1, j_hi + 1):
        mass = _pull_back(rows, mass)
        if j >= j_lo:
            N = N * scale + sum(compress(mass, inside))
    return Fraction(N, den * scale ** j_hi)


def _preimage_pair_sum(map_: FullBranchMap, A: IntervalUnion, j_lo: int,
                       j_hi: int) -> Fraction:
    """Sum of m(A intersect f^(-j) A) over j = j_lo..j_hi, from one chain
    of budgeted preimages f^(-1) A, f^(-2) A, ..., f^(-j_hi) A."""
    total, P = Fraction(0), A
    for j in range(1, j_hi + 1):
        P = map_.preimage(P)
        if j >= j_lo:
            total += A.intersect(P).measure()
    return total


# ---------------------------------------------------------------------------
# exact probabilities
# ---------------------------------------------------------------------------


def exact_evl_prob(map_: FullBranchMap, U: IntervalUnion, n: int):
    """P(max of the first n observations <= u) for U = {X_0 > u}, exact."""
    return exact_hts_prob(map_, U, n)


def exact_hts_prob(map_: FullBranchMap, B: IntervalUnion, t: int):
    """P(first hitting time of B > t), exact.

    The event is the preimage of the length-t survivor set W, and a
    full-branch affine map preserves Lebesgue measure (each branch has
    width * |slope| = 1), so its probability is m(W): 1 at t = 0.  It
    comes from B's Markov partition where there is one (``_partition``),
    in O(cells) integer operations per step, and otherwise from the
    survivor set itself.  Cell i holds the mass of W on it, scaled by
    den * scale^k after k steps (``_open_system``).
    """
    t = _window_length(t)
    part = _partition(map_, B, t)
    if part is None:
        return survivor_set(map_, B, t).measure()
    rows, mass = _open_system(part, B)
    for _ in range(t):
        mass = _pull_back(rows, mass)
    _, den, scale, _ = part
    return Fraction(sum(mass), den * scale ** t)


def spectral_escape_rate(map_: FullBranchMap, hole: IntervalUnion) -> float:
    """Escape rate through ``hole``: -log of the leading eigenvalue of the
    open transfer operator, by power iteration on the hole's Markov
    partition (ValueError on a map that is not integer,
    ComponentBudgetError past the map's budget).

    The masses step as in ``exact_hts_prob``, and the iteration stops
    once three successive ratios of their totals, S(k+1) / (scale * S(k)),
    agree to 1e-12 relative; 100000 steps without that raise
    ConvergenceError.  Past 512 bits the masses are shifted down to 256,
    far below that tolerance.  An empty hole gives 0.0, one that no point
    survives +inf.
    """
    if hole.is_empty:
        return 0.0
    part = map_.markov_partition(hole)
    if part is None:
        raise ComponentBudgetError(
            "the Markov partition of the hole exceeds the component budget "
            f"of {map_.budget}")
    scale = part[2]
    rows, mass = _open_system(part, hole)
    total, ratio, stable = sum(mass), -1.0, 0
    for _ in range(100000):
        mass = _pull_back(rows, mass)
        new_total = sum(mass)
        if not new_total:
            return math.inf
        new = new_total / (scale * total)
        stable = stable + 1 if abs(new - ratio) <= 1e-12 * new else 0
        if stable >= 3:
            return -math.log(new)
        ratio, total = new, new_total
        if total.bit_length() > 512:
            shift = total.bit_length() - 256
            mass = [m >> shift for m in mass]
            total = sum(mass)
    raise ConvergenceError("power iteration did not converge; degenerate hole?")


def _partition(map_: FullBranchMap, S: IntervalUnion, steps: int):
    """S's Markov partition on an integer map, or None where interval
    algebra is the route to take.

    The partition is built only while cells * (steps + 16) stays within
    both the map's budget and (len(S) + 1) * d^steps, the most
    components interval algebra can reach in ``steps`` preimages; past
    either, interval algebra runs, and raises ComponentBudgetError where
    it does not fit.  Measured on doubling, tripling and
    widths:1/2,1/4,1/4 (balls of radius 1/1000, 200-330000 cells, 4-16
    steps, CPython 3.11 on a 2-vCPU VM): a cell costs 0.16-0.18 us a step
    and 12-26 steps' worth to build, and interval algebra about 0.8 us
    per component of a last set 2.3-4.5 times below that bound, so the
    two sides weigh about the same.  The rule took the faster route in
    49 of 50 cases; the miss took 2.0 ms of intervals against 0.8 ms.
    """
    if not map_.is_integer:
        return None
    cap = min((len(S) + 1) * map_.d ** steps, map_.budget)
    return map_.markov_partition(S, limit=cap // (steps + 16))


def _open_system(part, B: IntervalUnion):
    """(rows, mass) on B's partition: the rows with B's cells zeroed, so
    that ``_pull_back`` steps W <- B^c intersect f^(-1)(W) on every cell
    at once, and the masses of W = [0, 1)."""
    ends, den, _, rows = part
    rows = [(0 if i else f, j0, j1)
            for (f, j0, j1), i in zip(rows, _cells_in(ends, den, B))]
    return rows, [b - a for a, b in zip(ends, ends[1:])]


def _pull_back(rows, mass) -> list:
    """The masses of f^(-1)(W) per cell, times scale, from those of W:
    cell i maps onto cells j0..j1-1 with slope s, so it holds their mass
    over |s|, times the factor f = scale/|s| in rows[i] = (f, j0, j1)."""
    prefix = [0, *accumulate(mass)]
    return [f * (prefix[j1] - prefix[j0]) for f, j0, j1 in rows]


def _cells_in(ends, den: int, S: IntervalUnion) -> list:
    """Whether each cell [ends[i], ends[i+1]) / den lies in S, whose ends
    are among the cuts."""
    up = den // S.denominator
    cuts = [e * up for e in S.ends]
    return [bisect_right(cuts, a) % 2 == 1 for a in ends[:-1]]
