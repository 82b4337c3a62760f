"""Exact set algebra on finite unions of arcs of the circle [0, 1).

``IntervalUnion`` is the one representation for exceedance sets,
annuli, holes and survivor sets.  Every endpoint is a
``fractions.Fraction``, so every operation is exact and identities hold
with zero tolerance.  Endpoints given from outside are coerced with
``as_exact``; a float becomes its exact binary value.

Sets are treated up to measure-zero equivalence: open/closed endpoint
distinctions are deliberately ignored and touching components merge.
The circle is [0, 1) with 1 identified with 0, so an arc wrapping 0 is
stored as two components, one ending at 1 and one starting at 0.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import RadiusRangeError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_exact(x) -> Fraction:
    """Coerce ``x`` (int, Fraction, decimal/fraction string, float) to Fraction.

    Floats convert exactly (binary value), so dyadic literals like 0.25
    stay exact; prefer strings such as "1/3" for non-dyadic rationals.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


def _canonicalize(pairs):
    """Sort, drop empty components and merge overlapping/adjacent ones."""
    merged = []
    for lo, hi in sorted(p for p in pairs if p[0] < p[1]):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


class IntervalUnion:
    """Immutable finite union of disjoint arcs of the circle [0, 1).

    ``components`` is a tuple of (lo, hi) Fraction pairs, sorted and
    strictly disjoint after canonicalization.  All operations are pure.
    """

    __slots__ = ("_comps",)

    def __init__(self, pairs: Iterable[Sequence] = ()):
        raw = []
        for lo, hi in pairs:
            lo, hi = as_exact(lo), as_exact(hi)
            if lo < 0 or hi > 1:
                raise ValueError(f"component ({lo}, {hi}) outside [0, 1]")
            raw.append((lo, hi))
        object.__setattr__(self, "_comps", _canonicalize(raw))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("IntervalUnion is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls()

    @classmethod
    def full(cls) -> "IntervalUnion":
        return cls._wrap(((_ZERO, _ONE),))

    @classmethod
    def _wrap(cls, comps) -> "IntervalUnion":
        """Build from Fraction pairs inside [0, 1] without re-coercing."""
        out = object.__new__(cls)
        object.__setattr__(out, "_comps", _canonicalize(comps))
        return out

    # -- basic queries -----------------------------------------------------

    @property
    def components(self):
        return self._comps

    @property
    def is_empty(self) -> bool:
        return not self._comps

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self._comps), _ZERO)

    def contains(self, x) -> bool:
        """Point membership, half-open [lo, hi) convention."""
        los = [lo for lo, _ in self._comps]
        i = bisect_right(los, x) - 1
        return i >= 0 and self._comps[i][0] <= x < self._comps[i][1]

    def __len__(self) -> int:
        return len(self._comps)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalUnion) and self._comps == other._comps

    def __hash__(self):
        return hash(self._comps)

    def __repr__(self):
        body = ", ".join(f"[{lo}, {hi})" for lo, hi in self._comps)
        return f"IntervalUnion({body or 'empty'})"

    # -- set algebra -------------------------------------------------------

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion._wrap(self._comps + other._comps)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        a, b = self._comps, other._comps
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalUnion._wrap(out)

    def complement(self) -> "IntervalUnion":
        out = []
        cursor = _ZERO
        for lo, hi in self._comps:
            if lo > cursor:
                out.append((cursor, lo))
            cursor = hi
        if cursor < 1:
            out.append((cursor, _ONE))
        return IntervalUnion._wrap(out)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.intersect(other.complement())

    def intersects(self, other: "IntervalUnion") -> bool:
        a, b = self._comps, other._comps
        i = j = 0
        while i < len(a) and j < len(b):
            if max(a[i][0], b[j][0]) < min(a[i][1], b[j][1]):
                return True
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return False


def ball(center, radius) -> IntervalUnion:
    """Arc of the given radius around ``center`` on the circle [0, 1).

    Both inputs are coerced with ``as_exact``.  An arc that crosses 0 is
    stored as two components.
    """
    c, r = as_exact(center), as_exact(radius)
    if not 0 < r < _ONE / 2:
        raise RadiusRangeError(f"radius {radius} outside (0, 1/2)")
    if not 0 <= c < 1:
        raise ValueError(f"center {center} outside [0, 1)")
    lo, hi = c - r, c + r
    if lo < 0:
        comps = ((lo + 1, _ONE), (_ZERO, hi))
    elif hi > 1:
        comps = ((lo, _ONE), (_ZERO, hi - 1))
    else:
        comps = ((lo, hi),)
    return IntervalUnion._wrap(comps)
