"""Extreme-event sets, thresholds, extremal indices and exact probabilities.

An exceedance event is a ball: a center and a radius.  Everything here
works on exact ``IntervalUnion`` values, so the exceedance ball U_n, the
annulus A(q) obtained by removing the first q dynamical preimages, the
survivor sets of finite windows, and the short-range recurrence sums
are all computed with zero tolerance.  On uniform maps the recurrence
sums have a closed form in the integer endpoint numerators of the set.

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
from fractions import Fraction
from typing import Optional, Tuple

from .errors import InfeasibleError, PeriodUndecidedError
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

    tau: Fraction
    n: int
    radius: Fraction
    exceedance: IntervalUnion


def threshold_for(obs: Observable, n: int, tau) -> ThresholdSchedule:
    tau = as_exact(tau)
    if tau <= 0:
        raise InfeasibleError("tau must be positive (tau = 0 is degenerate)")
    if tau / n >= 1:
        raise InfeasibleError(f"tau/n = {tau}/{n} >= 1: ball radius would reach 1/2")
    radius = tau / (2 * n)
    return ThresholdSchedule(tau=tau, n=n, radius=radius,
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
    ell = int(math.floor(ell))
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    W = IntervalUnion.full()
    Bc = B.complement()
    for _ in range(ell):
        W = Bc.intersect(map_.preimage(W))
    return W


def theta_n(map_: FullBranchMap, B: IntervalUnion, q: int):
    """Finite-level extremal index: measure(A(q)) / measure(B)."""
    mB = B.measure()
    if mB <= 0:
        raise ValueError("event has zero measure")
    return annulus_set(map_, B, q).measure() / mB


def _uniform_period(map_: FullBranchMap, zeta: Fraction, cap: int):
    """Closed-form period detection for x -> d*x mod 1 at a rational point.

    Returns the prime period, or None when the point is strictly
    preperiodic (denominator shares a factor with d).
    """
    d = map_.d
    den = zeta.denominator
    if den == 1:
        return 1  # zeta = 0
    if math.gcd(den, d) > 1:
        return None
    # prime period = multiplicative order of d modulo den
    acc = d % den
    for p in range(1, cap + 1):
        if acc == 1:
            return p
        acc = (acc * d) % den
    raise PeriodUndecidedError(f"period of {zeta} exceeds cap {cap}")


def detect_period(map_: FullBranchMap, zeta, cap: int = 64) -> Optional[int]:
    """Prime period of ``zeta`` under the map, or None if not periodic.

    Exact for rational points of affine maps.  For non-uniform maps the
    orbit is iterated up to ``cap``: a return to the start gives the
    period, any other repeat certifies non-periodicity, and otherwise
    the detection is inconclusive and raises.
    """
    map_._require_affine("period detection")
    zeta = as_exact(zeta)
    if map_.is_uniform:
        return _uniform_period(map_, zeta, cap)
    seen = {zeta: 0}
    z = zeta
    for j in range(1, cap + 1):
        z = map_.apply(z)
        if z == zeta:
            return j
        if z in seen:
            return None
        seen[z] = j
    raise PeriodUndecidedError(f"period of {zeta} undecided after {cap} steps")


def theta_limit(map_: FullBranchMap, zeta) -> Tuple[int, float]:
    """(q, theta) in the limit of small events, theta as a float."""
    q, theta = theta_limit_exact(map_, zeta)
    return q, float(theta)


def theta_limit_exact(map_: FullBranchMap, zeta):
    """(q, theta) in the limit of small events, theta an exact Fraction.

    For a periodic center of prime period p the limit extremal index is
    1 - 1/|DF^p| (the reciprocal of the orbit multiplier); a
    non-periodic center gives q = 0 and theta = 1.
    """
    zeta = as_exact(zeta)
    p = detect_period(map_, zeta)
    if p is None:
        return 0, Fraction(1)
    mult = Fraction(1)
    z = zeta
    for _ in range(p):
        mult *= abs(map_.derivative_at(z))
        z = map_.apply(z)
    return p, 1 - Fraction(1) / mult


def first_return_time(map_: FullBranchMap, A: IntervalUnion,
                      horizon: int = 4096) -> Optional[int]:
    """Smallest j in [1, horizon] with f^j(A) meeting A, else None.

    Computed by an exact forward-image sweep; None is the distinguished
    "exceeds horizon" value, not a failure.
    """
    if A.measure() <= 0:
        raise ValueError("A must have positive measure")
    S = A
    for j in range(1, horizon + 1):
        S = map_.image(S)
        if S.intersects(A):
            return j
    return None


RETURN_HORIZON = 256


def recurrence_start(map_: FullBranchMap, A: IntervalUnion, ell: int) -> int:
    """First return time of A, or RETURN_HORIZON + 1 without a return.

    The brackets sum the decay tail from this time to the block length
    ell.  A set that does not return within RETURN_HORIZON steps may
    still return at any later step up to ell, so the tail is summed from
    the first step not searched.  That is bound-safe: the tail sum only
    shrinks as its start grows, and it is empty when ell <= RETURN_HORIZON.
    """
    R = first_return_time(map_, A, horizon=RETURN_HORIZON)
    return R if R is not None else RETURN_HORIZON + 1


# ---------------------------------------------------------------------------
# pair correlations and the short-range recurrence sum
# ---------------------------------------------------------------------------


def pair_correlation_measure(map_: FullBranchMap, A: IntervalUnion,
                             j: int) -> Fraction:
    """Exact measure(A intersect f^(-j)(A)).

    For uniform maps (x -> d*x mod 1) the j-fold composition is globally
    x -> D*x mod 1 with D = d^j, so the measure is (1/D) times the
    integral of the periodized indicator of A over the magnified set D*A.
    On A's integer ends e over q that integral is a signed sum over the
    ends of divmod(D*e, q): whole turns count A's full measure and the
    remainder a prefix of A's components.  The closed form has no
    component blowup and stays exact for arbitrarily large j.  Other
    affine maps fall back to iterated preimages, each within the map's
    component budget.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if map_.is_uniform:
        D = map_.d ** j
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
        return Fraction(total, q * D)
    P = map_.preimage_iter(A, j)
    return A.intersect(P).measure()


def dprime_sum(map_: FullBranchMap, A: IntervalUnion, n: int, q: int, k: int,
               variant: str = "theorem") -> Fraction:
    """Short-range recurrence sum of the no-clustering condition.

    n * sum over j of measure(A intersect f^(-j) A), where A is the
    q-annulus A(q) of the exceedance ball at the level with
    n * P(U) = tau.  ``variant="theorem"`` sums j = q+1 .. floor(n/k) - 1;
    ``variant="corollary"`` sums j = 1 .. floor(n/k) (the two ranges
    stated alongside the two error brackets).  An empty range gives 0.
    """
    if variant == "theorem":
        j_lo, j_hi = q + 1, n // k - 1
    elif variant == "corollary":
        j_lo, j_hi = 1, n // k
    else:
        raise ValueError(f"unknown variant {variant!r}")
    total = Fraction(0)
    for j in range(j_lo, j_hi + 1):
        total += pair_correlation_measure(map_, A, j)
    return n * total


# ---------------------------------------------------------------------------
# exact small-horizon probabilities
# ---------------------------------------------------------------------------


def exact_evl_prob(map_: FullBranchMap, U: IntervalUnion, n: int):
    """P(max of the first n observations <= u) for U = {X_0 > u}, exact."""
    return survivor_set(map_, U, n).measure()


def exact_hts_prob(map_: FullBranchMap, B: IntervalUnion, t: int):
    """P(first hitting time of B > t), exact.

    The event is the preimage of the length-t survivor set W, and a
    full-branch affine map preserves Lebesgue measure (each branch has
    width * |slope| = 1), so its probability is m(W): 1 at t = 0.
    """
    return survivor_set(map_, B, t).measure()
