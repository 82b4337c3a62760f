"""Piecewise full-branch interval maps and their thermodynamic quantities.

A ``FullBranchMap`` is a finite collection of branches whose domains
tile [0, 1) and which each map their domain bijectively onto [0, 1).
Every branch is affine with exact rational data, which keeps preimages,
periodic points and annulus constructions exactly computable.  A map
puts its branch data over common denominators once, at construction, so
``preimage`` and ``image`` act on the integer numerators of an
``IntervalUnion`` with integer arithmetic, and it stores its branch
widths once, as ``widths``.  Maps are immutable: their attributes are
set once, at construction, so one map can be shared, and
``FullBranchMap.from_spec`` builds the map of a string spec once per
process and returns that same map to every later call with the same
spec and budget.  A map with integer slopes and intercepts also cuts
[0, 1) into the finite Markov partition of any rational set
(``markov_partition``).  Pointwise evaluation uses the
half-open domains [lo, hi), so a point on an inner branch boundary
belongs to the branch on its right.  A potential -s log|DF| is named
by its exponent s: ``weighted_periodic_sum`` sums it over periodic
points in closed form.  Random orbits are sampled by ``montecarlo``
from their branch digit streams.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CapExceededError, ComponentBudgetError
from .intervals import IntervalUnion, as_exact

PERIOD_CAP = 20  # longest period the periodic-orbit routines accept
COMPONENT_BUDGET = 10 ** 6  # most components an exact preimage may have


# ---------------------------------------------------------------------------
# branches and maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineBranch:
    """Affine branch x -> slope*x + intercept mapping [lo, hi) onto [0, 1)."""

    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        for name in ("lo", "hi", "slope", "intercept"):
            object.__setattr__(self, name, as_exact(getattr(self, name)))
        if not (0 <= self.lo < self.hi <= 1):
            raise ValueError(f"branch domain [{self.lo}, {self.hi}) invalid")
        ends = sorted((self.slope * self.lo + self.intercept,
                       self.slope * self.hi + self.intercept))
        if ends != [Fraction(0), Fraction(1)]:
            raise ValueError("branch is not a bijection onto [0, 1)")
        if abs(self.slope) <= 1:
            raise ValueError("branch is not expanding")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def value(self, x):
        return self.slope * x + self.intercept

    def inverse(self, y):
        return (y - self.intercept) / self.slope


class FullBranchMap:
    """Expanding interval map with finitely many full affine branches;
    ``budget`` caps the components of every exact preimage (see
    ``preimage``).  Immutable: assigning to a map raises AttributeError."""

    def __init__(self, branches: Sequence[AffineBranch], name: str = "",
                 budget: int = COMPONENT_BUDGET):
        branches = tuple(branches)
        if len(branches) < 2:
            raise ValueError("need at least 2 branches")
        branches = tuple(sorted(branches, key=lambda b: b.lo))
        lo0 = branches[0].lo
        if lo0 != 0:
            raise ValueError("branch domains must start at 0")
        for a, b in zip(branches, branches[1:]):
            if a.hi != b.lo:
                raise ValueError("branch domains must tile [0, 1)")
        if branches[-1].hi != 1:
            raise ValueError("branch domains must end at 1")
        # set once, past __setattr__; pickle restores __dict__ the same way
        vars(self).update(
            branches=branches,
            name=name or f"{len(branches)}-branch",
            budget=budget,
            widths=tuple(b.width for b in branches),
            _los=tuple(b.lo for b in branches),
            _uniform=all(b.width == branches[0].width and b.slope > 0
                         for b in branches),
            _pullback=_pullback_data(branches),
            _pushforward=_pushforward_data(branches))

    def __setattr__(self, name, value):
        raise AttributeError(f"FullBranchMap is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FullBranchMap is immutable: cannot delete {name!r}")

    # -- structure ---------------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.branches)

    @property
    def is_uniform(self) -> bool:
        """True for x -> d*x mod 1 (equal widths, increasing branches)."""
        return self._uniform

    @property
    def is_integer(self) -> bool:
        """True for a map whose slopes and intercepts are all integers: it
        keeps the denominator of every rational point, which is what
        ``markov_partition`` needs."""
        return self._pushforward[1] == 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, d: int, budget=COMPONENT_BUDGET) -> "FullBranchMap":
        """The map x -> d*x mod 1."""
        if d < 2:
            raise ValueError("d must be at least 2")
        branches = [
            AffineBranch(Fraction(i, d), Fraction(i + 1, d), Fraction(d), Fraction(-i))
            for i in range(d)
        ]
        names = {2: "doubling", 3: "tripling"}
        return cls(branches, name=names.get(d, f"uniform-{d}"), budget=budget)

    @classmethod
    def doubling(cls) -> "FullBranchMap":
        return cls.uniform(2)

    @classmethod
    def tripling(cls) -> "FullBranchMap":
        return cls.uniform(3)

    @classmethod
    def from_widths(cls, widths, budget=COMPONENT_BUDGET) -> "FullBranchMap":
        """Increasing affine branches with the given (rational) widths, each
        positive."""
        ws = [_spec_exact(w, "width") for w in widths]
        for w in ws:
            if w <= 0:
                raise ValueError(f"width {w} is not positive")
        if sum(ws) != 1:
            raise ValueError("widths must sum to 1")
        branches, lo = [], Fraction(0)
        for w in ws:
            slope = 1 / w
            branches.append(AffineBranch(lo, lo + w, slope, -lo * slope))
            lo += w
        name = "widths-" + ",".join(str(w) for w in ws)
        return cls(branches, name=name, budget=budget)

    @classmethod
    def from_spec(cls, spec, budget=COMPONENT_BUDGET) -> "FullBranchMap":
        """Build from a builtin name or an explicit branch list.

        Accepts "doubling", "tripling", "uniform:<d>",
        "widths:w1,w2,..." or a JSON list of
        {"lo":..., "hi":..., "slope":..., "intercept":...} objects,
        parsed or as a string.  A string spec's map is built once per
        process and shared: every call with the same string and budget
        returns that one (immutable) map.  A parsed list builds a new map.
        A malformed spec raises ValueError, on every call.
        """
        if isinstance(spec, (list, tuple)):
            return cls([_spec_branch(b) for b in spec], name="custom",
                       budget=budget)
        return _interned(cls, str(spec).strip(), budget)

    def __repr__(self):
        return f"FullBranchMap({self.name}, d={self.d})"

    # -- pointwise dynamics --------------------------------------------------

    def branch_index(self, x) -> int:
        """Index of the branch whose half-open domain [lo, hi) contains x.

        A point on an inner branch boundary belongs to the branch on its
        right.
        """
        if not (0 <= x < 1):
            raise ValueError(f"point {x} outside [0, 1)")
        return bisect_right(self._los, x) - 1

    def apply(self, x):
        """One step of the map; exact on Fraction inputs."""
        br = self.branches[self.branch_index(x)]
        y = br.value(x)
        zero = y - y
        if y >= 1:
            y = zero  # decreasing branch hits 1 at its left edge; 1 == 0 on the circle
        elif y < 0:
            y = zero  # float rounding guard
        return y

    # -- set dynamics --------------------------------------------------------

    def preimage(self, S: IntervalUnion) -> IntervalUnion:
        """Full preimage f^(-1)(S), exact, within the component budget.

        On branch b, y = e/q pulls back to (R_b*e + T_b*q) / (M*q) (see
        ``_pullback_data``).  The pieces of each branch lie inside its
        domain and the domains are in order, so the blocks concatenate
        sorted and merge only where one block ends at the next one's start:
        c components of S give at least d*c - (d - 1).  A bound past the
        budget raises ComponentBudgetError before anything is built, and
        so does a built preimage past it.
        """
        e, q = S.ends, S.denominator
        if self.d * len(S) - (self.d - 1) > self.budget:
            raise self._over_budget()
        M, coeffs = self._pullback
        out = []
        for R, T in coeffs:
            shift = T * q
            block = [R * y + shift for y in e]
            if R < 0:
                block.reverse()
            if out and block and out[-1] == block[0]:
                del out[-1], block[0]
            out += block
        P = IntervalUnion._from_ends(out, M * q)
        if len(P) > self.budget:
            raise self._over_budget()
        return P

    def _over_budget(self) -> ComponentBudgetError:
        return ComponentBudgetError(
            f"exact preimage exceeds the component budget of {self.budget}; "
            "use Monte Carlo")

    def image(self, S: IntervalUnion) -> IntervalUnion:
        """Forward image f(S), exact.

        The ends of S are put over q*K, so that every branch domain
        [LO_b, HI_b) / K has integer ends there, and a piece x of branch b
        maps to (A_b*x + C_b*q*K) / (Q*q*K) (see ``_pushforward_data``).
        Images of different branches overlap, so they are merged.
        """
        e, q = S.ends, S.denominator
        K, Q, coeffs = self._pushforward
        if K != 1:
            e = [y * K for y in e]
        pairs = []
        for LO, HI, A, C in coeffs:
            lo, hi, shift = LO * q, HI * q, C * q * K
            for k in range(0, len(e), 2):
                a = e[k] if e[k] > lo else lo
                b = e[k + 1] if e[k + 1] < hi else hi
                if a < b:
                    u, v = A * a + shift, A * b + shift
                    pairs.append((u, v) if u < v else (v, u))
        return IntervalUnion._from_pairs(pairs, Q * q * K)

    def markov_partition(self, S: IntervalUnion, limit=None):
        """Cells of [0, 1) that each map onto a run of cells, cut at the
        forward orbits of 0, the branch ends and the ends of S.

        Only for integer maps (``is_integer``).  Returns (ends, den,
        scale, rows): cell i is [ends[i], ends[i+1]) / den, and
        rows[i] = (scale/|s|, j0, j1), s the cell's slope and scale the
        lcm of every |s|, says that it maps onto cells j0..j1-1.

        Over D, the least common denominator of S and the branch ends, a
        branch with slope s and intercept c sends e/D to (s*e + c*D)/D, so
        every orbit stays among the numerators 0..D-1 and the cuts are
        finite.  A cell [a, b) lies in one branch, and its image runs
        between the images of a and b, which are cuts or the ends 0 and D.
        Each cut starts one cell.  Returns None, before it holds a cut
        past it, at the budget or at ``limit`` if that is smaller.
        """
        if not self.is_integer:
            raise ValueError("a Markov partition requires an integer map")
        D, los, affine = self._numerators(S.denominator)
        up = D // S.denominator
        stop = self.budget if limit is None else min(limit, self.budget)
        cuts, todo = set(), [*los, *(e * up % D for e in S.ends)]
        while todo:
            e = todo.pop()
            if e in cuts:
                continue
            if len(cuts) >= stop:
                return None
            cuts.add(e)
            A, CD = affine[bisect_right(los, e) - 1]
            todo.append((A * e + CD) % D)
        ends = sorted(cuts)
        ends.append(D)
        index = {e: i for i, e in enumerate(ends)}
        scale = math.lcm(*(abs(A) for A, _ in affine))
        rows = []
        for a, b in zip(ends, ends[1:]):
            A, CD = affine[bisect_right(los, a) - 1]
            u, v = A * a + CD, A * b + CD
            j0, j1 = (index[u], index[v]) if A > 0 else (index[v], index[u])
            rows.append((scale // abs(A), j0, j1))
        return ends, D, scale, rows

    def _numerators(self, den: int):
        """(D, los, affine): branch b starts at los[b] / D and sends x/D
        to ((A*x + CD) % D) / D, (A, CD) = affine[b].  On an integer map
        D = lcm(den, K) and all are ints; elsewhere D = 1, all Fractions."""
        if not self.is_integer:
            return 1, self._los, [(b.slope, b.intercept) for b in self.branches]
        K, _, coeffs = self._pushforward
        D = math.lcm(den, K)
        return (D, [LO * (D // K) for LO, _, _, _ in coeffs],
                [(A, C * D) for _, _, A, C in coeffs])


@functools.lru_cache(maxsize=64)
def _interned(cls, s: str, budget) -> FullBranchMap:
    """The map of the string spec ``s``, built on the first call for
    (s, budget), as ``re.compile`` caches patterns; an exception is not
    cached, so a malformed spec raises again on the next call."""
    if s.startswith("["):
        return cls.from_spec(json.loads(s), budget)
    if s == "doubling":
        return cls.uniform(2, budget)
    if s == "tripling":
        return cls.uniform(3, budget)
    if s.startswith("uniform:"):
        d = int(s.split(":", 1)[1])
        if d > budget:  # checked before d branches are built
            raise ComponentBudgetError(
                f"uniform:{d} exceeds the component budget of {budget}: the "
                f"preimage of a ball has at least {d} components")
        return cls.uniform(d, budget)
    if s.startswith("widths:"):
        return cls.from_widths(s.split(":", 1)[1].split(","), budget)
    raise ValueError(f"unknown map spec {s!r}")


_BRANCH_KEYS = ("lo", "hi", "slope", "intercept")


def _spec_branch(entry) -> AffineBranch:
    """The branch of one entry of a JSON map spec, which must be an
    object holding lo, hi, slope and intercept."""
    if not isinstance(entry, dict) or not all(k in entry for k in _BRANCH_KEYS):
        raise ValueError(f"map branch {entry!r} is not an object with "
                         "lo, hi, slope and intercept")
    return AffineBranch(*(_spec_exact(entry[k], f"map branch {entry!r}: {k}")
                          for k in _BRANCH_KEYS))


def _spec_exact(x, what: str) -> Fraction:
    """``as_exact`` for an item of a map spec: a value it cannot read as
    a finite rational ("1/0", null, Infinity) is a ValueError naming it."""
    try:
        return as_exact(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{what} {x!r} is not a finite rational") from None


def _pullback_data(branches):
    """(M, ((R_b, T_b), ...)) with x = (R_b*y + T_b) / M the inverse of
    branch b: M is the least common denominator of every 1/slope and
    intercept/slope, so each R_b = M/slope_b and T_b = -M*intercept_b/slope_b
    is an integer."""
    inverses = [(1 / br.slope, -br.intercept / br.slope) for br in branches]
    M = math.lcm(*(c.denominator for inv in inverses for c in inv))
    return M, tuple((int(r * M), int(t * M)) for r, t in inverses)


def _pushforward_data(branches):
    """(K, Q, ((LO_b, HI_b, A_b, C_b), ...)) with the domain of branch b
    equal to [LO_b, HI_b) / K and y = (A_b*x + C_b) / Q on it: K is the
    least common denominator of the branch ends, Q that of the slopes
    and intercepts."""
    K = math.lcm(*(c.denominator for br in branches for c in (br.lo, br.hi)))
    Q = math.lcm(*(c.denominator for br in branches
                   for c in (br.slope, br.intercept)))
    return K, Q, tuple((int(br.lo * K), int(br.hi * K), int(br.slope * Q),
                        int(br.intercept * Q)) for br in branches)


# ---------------------------------------------------------------------------
# periodic points and thermodynamic sums
# ---------------------------------------------------------------------------


def _require_period(n: int):
    if n < 1:
        raise ValueError("period must be >= 1")
    if n > PERIOD_CAP:
        raise CapExceededError(f"period {n} exceeds cap {PERIOD_CAP}")


def weighted_periodic_sum(map_: FullBranchMap, s, n: int):
    """Z_n: sum of |DF^n|^-s over the period-n symbolic points.

    Each n-cylinder of an affine full-branch map holds exactly one
    symbolic period-n point, whose expansion is the product of the
    slopes along its word.  For the potential -s log|DF| the sum
    therefore factorizes as Z_n = (sum_i w_i^s)^n over the branch widths
    w_i, returned without enumeration: the exact Fraction d^n for s = 0
    (the zero potential) and 1 for s = 1 (the geometric one).
    """
    _require_period(n)
    return sum(w ** s for w in map_.widths) ** n


# ---------------------------------------------------------------------------
# indicator BV norm
# ---------------------------------------------------------------------------


def bv_norm_indicator(S: IntervalUnion) -> int:
    """Variation of the indicator of S: two jumps per unwrapped component.

    On the circle a pair of components touching 0 and 1 is one arc after
    unwrapping; a two-component annulus therefore comes out at 4 and the
    full space at 0.
    """
    comps = S.components
    c = len(comps)
    if c == 0:
        return 0
    if comps[0][0] == 0 and comps[-1][1] == 1:
        c -= 1
    return 2 * c
