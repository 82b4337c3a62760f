"""Exact set algebra on finite unions of arcs of the circle [0, 1).

``IntervalUnion`` is the one representation for exceedance sets,
annuli, holes and survivor sets.  A set is stored as integer
numerators over one common denominator: a flat sorted tuple of
component ends lo_0 < hi_0 < lo_1 < ... and a denominator q, reduced
so that q and the ends share no factor.  Every operation is exact
integer arithmetic, identities hold with zero tolerance, and equal
sets have equal storage, so ``==`` and ``hash`` are structural.
``components`` gives the ends as ``fractions.Fraction`` pairs.
Endpoints given from outside are coerced with ``as_exact``; a float
becomes its exact binary value.

Sets are treated up to measure-zero equivalence: open/closed endpoint
distinctions are deliberately ignored and touching components merge.
The circle is [0, 1) with 1 identified with 0, so an arc wrapping 0 is
stored as two components, one ending at 1 and one starting at 0.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import RadiusRangeError


def as_exact(x) -> Fraction:
    """Coerce ``x`` (int, Fraction, decimal/fraction string, float) to Fraction.

    Floats convert exactly (binary value), so dyadic literals like 0.25
    stay exact; prefer strings such as "1/3" for non-dyadic rationals.
    """
    return x if isinstance(x, Fraction) else Fraction(x)


def _merged_ends(pairs) -> list:
    """Flat ends of the union of integer (lo, hi) pairs, in any order."""
    ends = []
    for lo, hi in sorted(pairs):
        if lo >= hi:
            continue
        if ends and lo <= ends[-1]:
            if hi > ends[-1]:
                ends[-1] = hi
        else:
            ends += (lo, hi)
    return ends


def _scaled(ends: tuple, factor: int):
    return ends if factor == 1 else [e * factor for e in ends]


class IntervalUnion:
    """Immutable finite union of disjoint arcs of the circle [0, 1).

    ``ends`` holds the component ends as integer numerators over
    ``denominator``, sorted and strictly increasing, so touching
    components are merged.  All operations are pure.
    """

    __slots__ = ("_ends", "_den")

    def __init__(self, pairs: Iterable[Sequence] = ()):
        fracs = []
        for lo, hi in pairs:
            lo, hi = as_exact(lo), as_exact(hi)
            if lo < 0 or hi > 1:
                raise ValueError(f"component ({lo}, {hi}) outside [0, 1]")
            fracs.append((lo, hi))
        den = math.lcm(*(e.denominator for pair in fracs for e in pair))
        ends = _merged_ends((lo.numerator * (den // lo.denominator),
                             hi.numerator * (den // hi.denominator))
                            for lo, hi in fracs)
        self._set(*_reduced(ends, den))

    def _set(self, ends: tuple, den: int):
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("IntervalUnion is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls()

    @classmethod
    def full(cls) -> "IntervalUnion":
        return cls._from_ends((0, 1), 1)

    @classmethod
    def _from_ends(cls, ends, den: int) -> "IntervalUnion":
        """Build from strictly increasing integer ends over ``den``,
        inside [0, den], reducing them to the smallest denominator."""
        out = object.__new__(cls)
        out._set(*_reduced(ends, den))
        return out

    @classmethod
    def _from_pairs(cls, pairs, den: int) -> "IntervalUnion":
        """Union of integer (lo, hi) pairs over ``den``, in any order."""
        return cls._from_ends(_merged_ends(pairs), den)

    # -- basic queries -----------------------------------------------------

    @property
    def ends(self) -> tuple:
        """Component ends lo_0, hi_0, lo_1, ... as integer numerators."""
        return self._ends

    @property
    def denominator(self) -> int:
        """The common denominator of ``ends``, in lowest terms."""
        return self._den

    @property
    def components(self):
        """The components as sorted (lo, hi) Fraction pairs."""
        e, q = self._ends, self._den
        return tuple((Fraction(e[i], q), Fraction(e[i + 1], q))
                     for i in range(0, len(e), 2))

    @property
    def is_empty(self) -> bool:
        return not self._ends

    def measure(self) -> Fraction:
        e = self._ends
        return Fraction(sum(e[1::2]) - sum(e[::2]), self._den)

    def contains(self, x) -> bool:
        """Point membership, half-open [lo, hi) convention."""
        return bisect_right(self._ends, as_exact(x) * self._den) % 2 == 1

    def __len__(self) -> int:
        return len(self._ends) // 2

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntervalUnion) and self._den == other._den
                and self._ends == other._ends)

    def __hash__(self):
        return hash((self._den, self._ends))

    def __repr__(self):
        body = ", ".join(f"[{lo}, {hi})" for lo, hi in self.components)
        return f"IntervalUnion({body or 'empty'})"

    # -- set algebra -------------------------------------------------------

    def _common(self, other: "IntervalUnion"):
        """Both operands' ends over their least common denominator."""
        p, q = self._den, other._den
        if p == q:
            return self._ends, other._ends, p
        den = math.lcm(p, q)
        return _scaled(self._ends, den // p), _scaled(other._ends, den // q), den

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        a, b, den = self._common(other)
        pairs = list(zip(a[::2], a[1::2]))
        pairs += zip(b[::2], b[1::2])
        return IntervalUnion._from_pairs(pairs, den)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        """Each component of the smaller operand cuts a slice out of the
        larger one's ends, found by bisection."""
        a, b, den = self._common(other)
        if len(a) > len(b):
            a, b = b, a
        out = []
        for k in range(0, len(a), 2):
            lo, hi = a[k], a[k + 1]
            i = bisect_right(b, lo)
            j = bisect_left(b, hi, i)
            if i % 2:
                out.append(lo)
            out += b[i:j]
            if j % 2:
                out.append(hi)
        return IntervalUnion._from_ends(out, den)

    def complement(self) -> "IntervalUnion":
        e, q = self._ends, self._den
        if e and e[0] == 0:
            e = e[1:]
        else:
            e = (0,) + e
        if e and e[-1] == q:
            e = e[:-1]
        else:
            e = e + (q,)
        return IntervalUnion._from_ends(e, q)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.intersect(other.complement())

    def intersects(self, other: "IntervalUnion") -> bool:
        """True when some component of the smaller operand starts inside
        a component of the larger one or has one of its ends inside it."""
        a, b, _ = self._common(other)
        if len(a) > len(b):
            a, b = b, a
        for k in range(0, len(a), 2):
            i = bisect_right(b, a[k])
            if i % 2 or bisect_left(b, a[k + 1], i) > i:
                return True
        return False


def _reduced(ends, den: int):
    """(ends, den) divided by their greatest common divisor."""
    if not ends:
        return (), 1
    g = math.gcd(den, *ends)
    if g == 1:
        return tuple(ends), den
    return tuple(e // g for e in ends), den // g


def ball(center, radius) -> IntervalUnion:
    """Arc of the given radius around ``center`` on the circle [0, 1).

    Both inputs are coerced with ``as_exact``.  An arc that crosses 0 is
    stored as two components.
    """
    c, r = as_exact(center), as_exact(radius)
    if not 0 < r < Fraction(1, 2):
        raise RadiusRangeError(f"radius {radius} outside (0, 1/2)")
    if not 0 <= c < 1:
        raise ValueError(f"center {center} outside [0, 1)")
    den = math.lcm(c.denominator, r.denominator)
    mid = c.numerator * (den // c.denominator)
    half = r.numerator * (den // r.denominator)
    lo, hi = mid - half, mid + half
    if lo < 0:
        pairs = ((lo + den, den), (0, hi))
    elif hi > den:
        pairs = ((lo, den), (0, hi - den))
    else:
        pairs = ((lo, hi),)
    return IntervalUnion._from_pairs(pairs, den)
