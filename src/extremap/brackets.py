"""Closed-form error brackets for the rare-event limit laws.

The three bracket evaluators return the sum of the explicitly computable
terms of the corresponding bound; the multiplicative constant in front
is non-constructive, so every bracket here is meaningful up to a fixed
unknown factor.  Yet the computable terms alone dominate the exact error
on a grid of centres on four integer maps, where a test holds all four
as inequalities (``test_theorem_brackets_dominate_the_exact_error``);
Monte Carlo sweeps, near their sampling noise, read a bounded ratio.

Correlations decay at the exponential rate gamma(t) = c0 * lam**t of
``DecayModel``, whose tail sums have a closed form.

Blocking notation, used throughout: the time horizon splits into k
blocks separated by gaps of length t; ell is the effective block length
and L = 1 - ell * P(A) the one-block survival weight.  The inputs every
bracket of one event shares (annulus, blocking parameters, first return
time, BV norm) come from ``evl_bracket_inputs`` / ``hts_bracket_inputs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Tuple

from .errors import InfeasibleError
from .intervals import IntervalUnion
from .maps import FullBranchMap, bv_norm_indicator
from .events import (annulus_set, exact_hts_prob, first_return_time,
                     survivor_set)


# ---------------------------------------------------------------------------
# correlation-decay models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayModel:
    """Correlation decay rate gamma(t) = c0 * lam**t; c0 = 0 switches it off.

    ``for_map`` sets lam to the largest branch width, the factor by which
    the transfer operator of a full-branch affine map contracts variation.
    """

    c0: float
    lam: float

    def __post_init__(self):
        if not 0 <= self.c0 < math.inf:  # NaN included
            raise ValueError(f"c0 must be finite and nonnegative (got {self.c0})")
        if not (0 < self.lam < 1):
            raise ValueError("lam must be in (0, 1)")

    @classmethod
    def for_map(cls, map_: FullBranchMap) -> "DecayModel":
        """Transfer-operator contraction heuristic: lam = max branch width."""
        return cls(c0=4.0, lam=float(max(map_.widths)))

    def gamma(self, t: float) -> float:
        return self.c0 * self.lam ** max(int(t), 0)

    def partial_sum(self, lo: int, hi: int) -> float:
        """sum of gamma(j) for j = lo, ..., hi - 1 (empty range -> 0)."""
        if hi <= lo:
            return 0.0
        if lo < 0:  # gamma(j) = c0 for every j <= 0
            return self.c0 * min(-lo, hi - lo) + self.partial_sum(0, hi)
        return self.c0 * (self.lam ** lo - self.lam ** hi) / (1.0 - self.lam)


# ---------------------------------------------------------------------------
# blocking parameters and budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockingParams:
    k: int
    t: int
    ell: Optional[int] = None
    objective: float = math.nan


@dataclass(frozen=True)
class ErrorBudget:
    """Per-term breakdown of one bracket (constant factor excluded)."""

    terms: Tuple[Tuple[str, float], ...]
    exponent_shift: Optional[float] = None
    flags: Tuple[str, ...] = ()
    extras: Tuple[Tuple[str, float], ...] = ()

    @property
    def total(self) -> float:
        # left to right, as sum() adds floats up to Python 3.11; from 3.12
        # it compensates, which moves the last digit between interpreters
        total = 0
        for _, v in self.terms:
            total += v
        return total

    def term(self, name: str) -> float:
        return dict(self.terms)[name]

    def extra(self, name: str) -> float:
        return dict(self.extras)[name]


# ---------------------------------------------------------------------------
# the block-estimate quantities
# ---------------------------------------------------------------------------


def xi(PA: float, M: float, s: int, t: int, R_A: int, gamma: DecayModel) -> float:
    """Single-block estimate defect for a block of length s after a gap t.

    Three summands: long-range mixing across the gap, short-range
    recurrence weighted by the decay tail beyond the first return time,
    and the quadratic self-intersection term.  Blocks shorter than the
    first return time contribute only the mixing summand.
    """
    if min(PA, M, s, t) < 0 or R_A < 1:
        raise ValueError("inputs must be nonnegative with R_A >= 1")
    g = gamma.gamma(t)
    excess = max(s - R_A, 0)
    first = M * s * g
    second = M * excess * (PA + M * g) * gamma.partial_sum(R_A, s)
    third = s * excess * (PA * PA + PA * M * g)
    return first + second + third


def upsilon(PA: float, M: float, ell: int, t: int, R_A: int,
            gamma: DecayModel) -> float:
    """Per-block error rate: gap term plus the block estimate defect."""
    g = gamma.gamma(t)
    return t * (PA + M * g) + xi(PA, M, ell, t, R_A, gamma)


# ---------------------------------------------------------------------------
# blocking-parameter optimizers
# ---------------------------------------------------------------------------


def _search_kt(k_max, decay, root, value, lower) -> Tuple[float, int, int]:
    """Smallest key (value(k, t, g), t, k) over t >= 1, 1 <= k <= k_max(t);
    the callers' input checks guarantee k_max(1) >= 1.

    g = decay(t) is the gap's correlation decay, evaluated once per gap
    and passed to root and value.  For a fixed gap t both objectives
    have the form a*k + b/k + c with a, b > 0, convex in k with real
    minimizer root(t, g) = sqrt(b/a); the integer argmin is a
    floor/ceil neighbour of it or an end of [1, k_max(t)].  lower(t)
    bounds the objective from below for every gap >= t, so the sweep
    over t stops once it passes the best value (the relative margin
    keeps rounding from stopping it early).
    """
    best = None
    t = 1
    while (km := k_max(t)) >= 1:
        if best is not None and lower(t) > best[0] * (1.0 + 1e-9):
            break
        g = decay(t)
        s = int(min(root(t, g), km))
        for k in {1, km, s - 1, s, s + 1, s + 2}:
            if 1 <= k <= km:
                key = (value(k, t, g), t, k)
                if best is None or key < best:
                    best = key
        t += 1
    return best


def optimize_kt_evl(n: int, PA: float, gamma: DecayModel) -> BlockingParams:
    """Integer (k, t) with k*t < n minimizing
    k*t*PA + n*gamma(t)*(1 + n*PA/k) + (n*PA)**2 / k.

    Ties break toward smaller t, then smaller k.  For fixed t this is
    a*k + b/k + c with a = t*PA, b = n**2*PA*gamma(t) + (n*PA)**2, and
    every gap >= t costs at least 2*n*PA*sqrt(t*PA).
    """
    if n < 4:
        raise InfeasibleError("n too small for blocking")
    if not (0 < PA < 1):
        raise InfeasibleError("PA must be in (0, 1)")
    value, t, k = _search_kt(
        lambda t: (n - 1) // t,
        gamma.gamma,
        lambda t, g: math.sqrt((n * n * PA * g + (n * PA) ** 2) / (t * PA)),
        lambda k, t, g: (k * t * PA + n * (1.0 + n * PA / k) * g
                         + (n * PA) ** 2 / k),
        lambda t: 2.0 * n * PA * math.sqrt(t * PA))
    return BlockingParams(k=k, t=t, ell=n // k - t, objective=value)


def optimize_kt_hts(PB: float, gamma: DecayModel) -> BlockingParams:
    """Integer (k, t) with k*t < 1/PB minimizing
    k*t*PB + gamma(t)/PB + 1/k.

    Ties break toward smaller t, then smaller k.  For fixed t this is
    a*k + b/k + c with a = t*PB, b = 1, and every gap >= t costs at
    least 2*sqrt(t*PB).
    """
    if not (0 < PB < 1):
        raise InfeasibleError("PB must be in (0, 1)")
    inv = 1.0 / PB

    def k_max(t):
        # largest k with k*t < inv: the rounded quotient can land on the
        # integer just above it, and int-vs-float comparison is exact
        k = math.floor(inv / t)
        return k - 1 if k * t >= inv else k

    value, t, k = _search_kt(
        k_max,
        gamma.gamma,
        lambda t, g: math.sqrt(1.0 / (t * PB)),
        lambda k, t, g: k * t * PB + g / PB + 1.0 / k,
        lambda t: 2.0 * math.sqrt(t * PB))
    return BlockingParams(k=k, t=t, ell=math.floor(inv) // k - t,
                          objective=value)


# ---------------------------------------------------------------------------
# bracket inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BracketInputs:
    """What the brackets of one event are evaluated from.

    The event's q-annulus A and its exact measure PA, the optimizer's
    blocking parameters (k, t, ell), the first return time R of A
    (``first_return_time``) and the BV norm M of its indicator.
    """

    A: IntervalUnion
    PA: Fraction
    k: int
    t: int
    ell: int
    R: int
    M: int


def evl_bracket_inputs(map_: FullBranchMap, U: IntervalUnion, q: int, n: int,
                       gamma: DecayModel) -> BracketInputs:
    """Bracket inputs of P(M_n <= u_n) for the exceedance set U.

    ell is the optimizer's n // k - t as it stands: the sharp bracket
    itself rejects ell < 1.
    """
    A = annulus_set(map_, U, q)
    PA = A.measure()
    params = optimize_kt_evl(n, float(PA), gamma)
    return _bracket_inputs(map_, A, PA, params, params.ell)


def hts_bracket_inputs(map_: FullBranchMap, B: IntervalUnion, q: int,
                       gamma: DecayModel) -> BracketInputs:
    """Bracket inputs of the hitting-time law of the ball B, with the
    block length ell raised to at least 1."""
    A = annulus_set(map_, B, q)
    params = optimize_kt_hts(float(B.measure()), gamma)
    return _bracket_inputs(map_, A, A.measure(), params, max(params.ell, 1))


def _bracket_inputs(map_, A, PA, params: BlockingParams,
                    ell: int) -> BracketInputs:
    return BracketInputs(A=A, PA=PA, k=params.k, t=params.t, ell=ell,
                         R=first_return_time(map_, A),
                         M=bv_norm_indicator(A))


# ---------------------------------------------------------------------------
# theorem brackets
# ---------------------------------------------------------------------------


def general_evl_bracket(tau: float, n: int, q: int, k: int, t: int, PU: float,
                        PA: float, gamma_mix: float, dprime: float,
                        theta: Optional[float] = None) -> ErrorBudget:
    """Blocked stationary-process bracket of P(M_n <= u_n).

    Terms: blocking gaps, long-range mixing (n * gamma), the short-range
    recurrence sum, the Poisson/threshold term weighted by the limit
    value, and the ball-versus-annulus replacement cost q * P(U - A).
    With theta None this is the general bracket around
    exp(-theta_n * tau), theta_n = PA/PU.  A theta gives the limit
    bracket around exp(-theta * tau), which adds the
    |theta_n - theta| * tau term ei_gap before the annulus term.
    """
    theta_n = PA / PU if PU > 0 else 1.0
    if theta is None:
        if not (0 <= theta_n <= 1):
            raise ValueError("PA/PU outside [0, 1]")
    elif not (0 <= theta <= 1):
        raise ValueError("theta outside [0, 1]")
    w = math.exp(-(theta_n if theta is None else theta) * tau)
    ei_gap = () if theta is None else (
        ("ei_gap", w * abs(theta_n - theta) * tau),)
    terms = (
        ("block_gap", k * t * tau / n),
        ("mixing", n * gamma_mix),
        ("recurrence", dprime),
        ("poisson", w * (abs(tau - n * PU) + tau * tau / k)),
        *ei_gap,
        ("annulus", q * (PU - PA)),
    )
    return ErrorBudget(terms=terms, extras=(("theta_n", theta_n),))


def sharp_evl_bracket(tau: float, n: int, theta: float, PA: float, k: int, t: int,
                  R: int, gamma: DecayModel) -> ErrorBudget:
    """Sharp bracket for |P(M_n <= u_n) - exp(-theta tau)|.

    All terms carry the exp(-theta tau) weight: threshold defect
    |theta tau - n PA|, blocking gaps, mixing, the Poisson quadratic
    term and the recurrence tail sum of gamma from the first return
    time R to the block length.
    """
    ell = n // k - t
    if ell < 1:
        raise InfeasibleError(f"ell = {ell} < 1 (k*t too large for n)")
    w = math.exp(-theta * tau)
    th = theta * tau
    terms = (
        ("threshold_defect", w * abs(th - n * PA)),
        ("block_gap", w * k * t * th / n),
        ("mixing", w * n * gamma.gamma(t) * (1.0 + th / k)),
        ("poisson", w * th * th / k),
        ("recurrence", w * th * gamma.partial_sum(R, ell)),
    )
    return ErrorBudget(terms=terms, extras=(("ell", float(ell)),))


def _hts_shift(PA: float, k: int, t: int, R: int, ell: int, M: float,
               gamma: DecayModel) -> Tuple[float, float, float]:
    """(k*Y/L, Y, L): the exponent shift of the sharp hitting-time bound,
    from the per-block error rate Y and the block survival L = 1 - ell*PA."""
    L = 1.0 - ell * PA
    if not (0 < L <= 1):
        raise InfeasibleError(f"L = {L} outside (0, 1]")
    Y = upsilon(PA, M, ell, t, R, gamma)
    return k * Y / L, Y, L


def sharp_hts_bracket(tau: float, PB: float, PA: float, theta: float, k: int,
                  t: int, R: int, ell: int, M: float,
                  gamma: DecayModel) -> ErrorBudget:
    """Sharp hitting-time bracket with explicit exponent shift.

    Gamma collects the four error sources (blocking, mixing over the
    inverse ball measure, block count, recurrence tail); alpha is the
    threshold/annulus defect.  The weight is exp(-(theta - k*Y/L) tau)
    where Y is the per-block error rate, so the shift k*Y/L is reported
    separately; a shift at or above theta makes the bound vacuous and is
    flagged, not failed.  Where the weight or tau**3 overflows, each term
    is inf, or 0.0 where its alpha factor is 0.
    """
    shift, Y, L = _hts_shift(PA, k, t, R, ell, M, gamma)
    Gamma = (k * t * PA + gamma.gamma(t) / PB + 1.0 / k
             + gamma.partial_sum(R, ell))
    alpha = abs(theta - PA / PB + t * k * PA)
    flags = ()
    if shift >= theta:
        flags = ("vacuous-exponent",)
    try:
        w = math.exp(-(theta - shift) * tau)
        terms = (
            ("alpha_gamma", w * tau * tau * alpha * Gamma),
            ("poisson_gamma", w * tau * tau * Gamma / k),
            ("cubic", w * tau ** 3 * alpha * Gamma / k),
        )
    except OverflowError:
        alpha_term = math.inf if alpha else 0.0
        terms = (("alpha_gamma", alpha_term), ("poisson_gamma", math.inf),
                 ("cubic", alpha_term))
    extras = (
        ("Gamma", Gamma),
        ("alpha", alpha),
        ("upsilon", Y),
        ("L", L),
    )
    return ErrorBudget(terms=terms, exponent_shift=shift, flags=flags,
                       extras=extras)


# ---------------------------------------------------------------------------
# escape-rate window and the exponential-approximation helper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EscapeWindow:
    lower: float
    nominal: float
    degenerate: bool


def escape_window(inputs: BracketInputs, theta: float, PB: float,
                  gamma: DecayModel) -> EscapeWindow:
    """Escape-rate window of a hole with measure PB from its bracket inputs.

    lower = (theta - k*Y/L) * PB, with k*Y/L the exponent shift of the
    sharp hitting-time bracket, and nominal = theta * PB.  When the shift
    swallows theta the window is degenerate (flagged).
    """
    shift, _, _ = _hts_shift(float(inputs.PA), inputs.k, inputs.t, inputs.R,
                             inputs.ell, inputs.M, gamma)
    return EscapeWindow(lower=(theta - shift) * PB, nominal=theta * PB,
                        degenerate=shift >= theta)


def exp_approx_error(x: float, n: int) -> Tuple[float, float]:
    """Second-order expansion of (1 + x/n)**n and its defect.

    approx = exp(x) * (1 - x^2/(2n) + x^3(8+3x)/(24 n^2)).  The defect
    |(1 + x/n)**n - approx| is O(n^-3) uniformly on bounded x sets, with
    leading term exp(x) * a_3(x) / n^3, a_3(x) = -x^4 (x+2)(x+6) / 48.
    At x = -2 (and -6) a_3 vanishes and the defect drops to O(n^-4),
    leading term exp(x) * a_4(x) / n^4 with
    a_4(x) = x^5 (15x^3 + 240x^2 + 1040x + 1152) / 5760.

    The defect cancels about 4*log10(n) leading digits of the power, so
    both sides and their difference are computed in decimal arithmetic
    with that many digits to spare and returned as floats.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if abs(x) >= n:
        raise ValueError("|x| must be < n")
    with localcontext() as ctx:
        ctx.prec = 30 + 4 * len(str(n))
        X, N = Decimal(float(x)), Decimal(n)
        approx = X.exp() * (1 - X * X / (2 * N)
                            + X ** 3 * (8 + 3 * X) / (24 * N * N))
        exact = (1 + X / N) ** n
        return float(approx), float(abs(exact - approx))


# ---------------------------------------------------------------------------
# ball-versus-annulus domination bound
# ---------------------------------------------------------------------------


def annulus_replacement(map_: FullBranchMap, B: IntervalUnion, q: int,
                        n: int) -> Tuple[Fraction, Fraction]:
    """What swapping the ball B for its q-annulus A costs over n steps.

    Returns (gap, bound): gap = |m(W(B)) - m(W(A))| and bound = the sum
    over j = 1..q of m(W(A) intersect f^-(n-j)(B - A)), with W(.) the
    length-n survivor set, exact.  The bound dominates the gap.  Where
    A = B (q = 0, or B does not return within q steps) both are 0 and no
    set is built; else m(W(B)) comes from ``exact_hts_prob``.
    """
    if q < 0 or n <= q:
        raise ValueError("need 0 <= q < n")
    A = annulus_set(map_, B, q)
    if A == B:
        return Fraction(0), Fraction(0)
    W = survivor_set(map_, A, n)
    gap = abs(exact_hts_prob(map_, B, n) - W.measure())
    bound = Fraction(0)
    P = B.difference(A)
    for i in range(1, n):
        P = map_.preimage(P)
        if n - i <= q:
            bound += W.intersect(P).measure()
    return gap, bound
