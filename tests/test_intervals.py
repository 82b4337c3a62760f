from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from extremap.errors import RadiusRangeError
from extremap.intervals import IntervalUnion, as_exact, ball
from extremap.maps import FullBranchMap


def rational(max_den=64):
    return st.builds(F, st.integers(0, 256), st.integers(1, max_den)).map(
        lambda f: f if f <= 1 else F(f.numerator % f.denominator, f.denominator))


@st.composite
def unions(draw, max_components=4):
    k = draw(st.integers(0, max_components))
    pts = sorted(draw(st.lists(rational(), min_size=2 * k, max_size=2 * k,
                               unique=True)))
    pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
    return IntervalUnion(pairs)


def grid_points(den=211):
    return [F(i, den) for i in range(den)]


def test_union_overlapping_merge():
    a = IntervalUnion([(F(1, 10), F(2, 10))])
    b = IntervalUnion([(F(15, 100), F(3, 10))])
    u = a.union(b)
    assert u.components == ((F(1, 10), F(3, 10)),)
    assert u.measure() == F(1, 5)


def test_union_with_empty_is_identity():
    s = IntervalUnion([(F(1, 4), F(1, 2))])
    assert s.union(IntervalUnion.empty()) == s


def test_wrapped_union_membership_oracle():
    s = IntervalUnion([(F(9, 10), F(1))]).union(IntervalUnion([(F(0), F(1, 10))]))
    assert s.measure() == F(1, 5)
    for x in [F(i, 10000) for i in range(0, 10000, 7)]:
        inside = x >= F(9, 10) or x < F(1, 10)
        assert s.contains(x) == inside


def test_intersect_examples():
    a = IntervalUnion([(F(1, 10), F(3, 10))])
    b = IntervalUnion([(F(2, 10), F(5, 10))])
    assert a.intersect(b).components == ((F(2, 10), F(3, 10)),)
    assert a.intersect(IntervalUnion.empty()).is_empty
    c = IntervalUnion([(F(0), F(2, 10)), (F(5, 10), F(7, 10))])
    d = IntervalUnion([(F(1, 10), F(6, 10))])
    assert c.intersect(d).components == (
        (F(1, 10), F(2, 10)), (F(5, 10), F(6, 10)))


def test_complement_examples():
    assert IntervalUnion.empty().complement().measure() == 1
    got = IntervalUnion([(F(1, 4), F(3, 4))]).complement()
    assert got.measure() == F(1, 2)
    assert got.components == ((F(0), F(1, 4)), (F(3, 4), F(1)))


def test_measure_examples():
    assert IntervalUnion([(F(2, 10), F(3, 10))]).measure() == F(1, 10)
    assert IntervalUnion.empty().measure() == 0


def test_equal_sets_from_different_routes_have_equal_storage():
    half = IntervalUnion([(0, F(1, 2))])
    doubling = FullBranchMap.doubling()
    widths = FullBranchMap.from_widths([F(1, 2), F(1, 4), F(1, 4)])
    routes = [
        IntervalUnion([(0, F(1, 4))]).union(IntervalUnion([(F(1, 4), F(1, 2))])),
        IntervalUnion([(0, F(3, 4))]).intersect(
            IntervalUnion([(0, F(1, 2)), (F(7, 8), 1)])),
        IntervalUnion([(F(1, 2), 1)]).complement(),
        doubling.image(IntervalUnion([(0, F(1, 4))])),
        FullBranchMap.tripling().image(IntervalUnion([(0, F(1, 6))])),
    ]
    for s in routes:
        assert s == half and hash(s) == hash(half)
        assert (s.ends, s.denominator) == ((0, 1), 2)
    # a preimage whose pieces merge at the branch boundaries, and one
    # over a denominator with a common factor
    full = IntervalUnion.full()
    assert widths.preimage(full) == full and hash(widths.preimage(full)) == hash(full)
    quarters = doubling.preimage(doubling.preimage(half))
    direct = IntervalUnion([(0, F(1, 8)), (F(1, 4), F(3, 8)),
                            (F(1, 2), F(5, 8)), (F(3, 4), F(7, 8))])
    assert quarters == direct and hash(quarters) == hash(direct)
    assert quarters.denominator == 8
    assert IntervalUnion([(F(2, 6), F(4, 6))]).denominator == 3


def test_ball_examples():
    b = ball(F(1, 3), F(1, 100))
    assert b.measure() == F(1, 50)
    wrap = ball(F(0), F(1, 10))
    assert wrap.components == ((F(0), F(1, 10)), (F(9, 10), F(1)))
    assert wrap.measure() == F(1, 5)
    # float inputs become their exact binary values
    dyadic = ball(0.25, 0.125)
    assert dyadic.components == ((as_exact(0.125), as_exact(0.375)),)
    assert all(type(e) is F for e in dyadic.components[0])
    with pytest.raises(RadiusRangeError):
        ball(F(1, 2), F(6, 10))


@pytest.mark.parametrize("pairs, expected", [
    ([(0.1, "1/2")], ((as_exact(0.1), F(1, 2)),)),
    ([(0, 1)], ((F(0), F(1)),)),
    ([("0.25", F(3, 4))], ((F(1, 4), F(3, 4)),)),
])
def test_endpoints_coerce_to_fractions(pairs, expected):
    s = IntervalUnion(pairs)
    assert s.components == expected
    assert all(type(e) is F for comp in s.components for e in comp)


@pytest.mark.parametrize("pairs, error", [
    ([(None, F(1, 2))], TypeError),
    ([(F(-1, 10), F(1, 2))], ValueError),
    ([(0.5, 1.25)], ValueError),
])
def test_bad_endpoints_rejected(pairs, error):
    with pytest.raises(error):
        IntervalUnion(pairs)


@settings(max_examples=500, deadline=None)
@given(unions(), unions())
def test_de_morgan(a, b):
    assert a.union(b).complement() == a.complement().intersect(b.complement())


@settings(max_examples=200, deadline=None)
@given(unions(), unions())
def test_inclusion_exclusion(a, b):
    lhs = a.union(b).measure() + a.intersect(b).measure()
    assert lhs == a.measure() + b.measure()


@settings(max_examples=100, deadline=None)
@given(unions(), unions())
def test_measure_monotone(a, b):
    sub = a.intersect(b)
    assert sub.measure() <= a.measure()
    assert sub.measure() <= b.measure()


@settings(max_examples=100, deadline=None)
@given(unions())
def test_canonical_idempotent(a):
    again = IntervalUnion(a.components)
    assert again == a


@settings(max_examples=60, deadline=None)
@given(unions(), unions())
def test_ops_commute_with_membership(a, b):
    pts = grid_points()
    union, inter, diff = a.union(b), a.intersect(b), a.difference(b)
    comp = a.complement()
    for x in pts[::5]:
        assert union.contains(x) == (a.contains(x) or b.contains(x))
        assert inter.contains(x) == (a.contains(x) and b.contains(x))
        assert diff.contains(x) == (a.contains(x) and not b.contains(x))
        assert comp.contains(x) == (not a.contains(x))


def test_double_complement_identity():
    s = IntervalUnion([(F(1, 7), F(2, 7)), (F(3, 7), F(5, 7))])
    assert s.complement().complement() == s
