import pickle
import random
import re
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from extremap.errors import CapExceededError, ComponentBudgetError
from extremap.intervals import IntervalUnion, ball
from extremap.maps import (
    COMPONENT_BUDGET,
    AffineBranch,
    FullBranchMap,
    bv_norm_indicator,
    weighted_periodic_sum,
)

DOUBLING = FullBranchMap.doubling()
TRIPLING = FullBranchMap.tripling()
WIDTHS = FullBranchMap.from_widths([F(1, 2), F(1, 4), F(1, 4)])
# the widths of WIDTHS with a decreasing middle branch
DECREASING_SPEC = ('[{"lo": 0, "hi": "1/2", "slope": 2, "intercept": 0},'
                   ' {"lo": "1/2", "hi": "3/4", "slope": -4, "intercept": 3},'
                   ' {"lo": "3/4", "hi": 1, "slope": 4, "intercept": -3}]')


def random_union(rnd, max_components=3):
    k = rnd.randrange(1, max_components + 1)
    pts = sorted(rnd.sample(range(1, 600), 2 * k))
    return IntervalUnion([(F(a, 600), F(b, 600)) for a, b in zip(pts[::2], pts[1::2])])


def test_apply_examples():
    assert DOUBLING.apply(F(3, 10)) == F(3, 5)
    assert DOUBLING.apply(F(7, 10)) == F(2, 5)
    assert WIDTHS.apply(F(3, 5)) == F(2, 5)


@pytest.mark.parametrize("spec", [
    "doubling", "widths:1/2,1/4,1/4", DECREASING_SPEC,
], ids=["doubling", "widths", "decreasing"])
def test_inner_branch_boundary_belongs_to_the_right_branch(spec):
    # half-open domains [lo, hi): the point lo of branch i is in branch i,
    # and a decreasing branch's value 1 there is 0 on the circle
    m = FullBranchMap.from_spec(spec)
    for i, br in enumerate(m.branches[1:], start=1):
        assert m.branch_index(br.lo) == i
        assert m.apply(br.lo) == br.value(br.lo) % 1


def test_preimage_examples():
    got = DOUBLING.preimage(IntervalUnion([(F(2, 10), F(3, 10))]))
    assert got.components == ((F(1, 10), F(3, 20)), (F(3, 5), F(13, 20)))
    assert got.measure() == F(1, 10)
    assert DOUBLING.preimage(IntervalUnion.empty()).is_empty
    assert DOUBLING.preimage(IntervalUnion.full()) == IntervalUnion.full()


def test_preimage_lebesgue_invariance_random():
    rnd = random.Random(7)
    for m in (DOUBLING, TRIPLING, WIDTHS):
        for _ in range(340):
            s = random_union(rnd)
            assert m.preimage(s).measure() == s.measure()


def test_preimage_component_lower_bound():
    # the early budget check rests on |f^-1(S)| >= d*|S| - (d - 1): the
    # d pulled-back copies of S merge only at the inner branch boundaries
    folded = FullBranchMap([AffineBranch(0, F(1, 2), 2, 0),
                            AffineBranch(F(1, 2), 1, -2, 2)])
    rnd = random.Random(11)
    sets = [IntervalUnion.full(), ball(F(0), F(1, 7)), ball(F(1, 2), F(1, 5))]
    sets += [random_union(rnd, 5) for _ in range(200)]
    for m in (DOUBLING, TRIPLING, WIDTHS, folded):
        for s in sets:
            assert len(m.preimage(s)) >= m.d * len(s) - (m.d - 1)


def test_budget_trips_before_the_preimage_is_built(monkeypatch):
    # the bound is attained when the pieces merge at the inner branch
    # boundary, so a preimage of exactly the budget still passes
    for s in (IntervalUnion.full(), ball(F(0), F(1, 7))):
        m = FullBranchMap.uniform(2, budget=2 * len(s) - 1)
        assert len(m.preimage(s)) == 2 * len(s) - 1
    s = IntervalUnion([(F(1, 10), F(2, 10)), (F(3, 10), F(4, 10)),
                       (F(5, 10), F(6, 10))])
    assert len(FullBranchMap.uniform(2, budget=6).preimage(s)) == 6
    # 2*3 - 1 = 5 passes the early check; the built preimage has 6
    with pytest.raises(ComponentBudgetError, match="budget of 5"):
        FullBranchMap.uniform(2, budget=5).preimage(s)
    tight = FullBranchMap.uniform(2, budget=4)
    # 2*3 - 1 = 5 > 4: neither the pullback loop nor the merge may run
    monkeypatch.setitem(vars(tight), "_pullback", None)  # maps refuse setattr
    monkeypatch.setattr(IntervalUnion, "_from_ends", classmethod(
        lambda cls, ends, den: pytest.fail("preimage was built")))
    with pytest.raises(ComponentBudgetError, match="budget of 4"):
        tight.preimage(s)


def test_from_spec_carries_the_budget():
    for spec in ("doubling", "tripling", "uniform:5", "widths:1/2,1/4,1/4",
                 '[{"lo": 0, "hi": "1/2", "slope": 2, "intercept": 0},'
                 ' {"lo": "1/2", "hi": 1, "slope": 2, "intercept": -1}]'):
        assert FullBranchMap.from_spec(spec, budget=7).budget == 7
        assert FullBranchMap.from_spec(spec).budget == COMPONENT_BUDGET


def test_uniform_spec_past_the_budget_raises_before_any_branch_is_built(
        monkeypatch):
    # a ball pulls back to at least d components on uniform:d, so no
    # exact set fits past the budget; uniform:10^7 once took minutes
    assert FullBranchMap.from_spec("uniform:7", budget=7).d == 7
    monkeypatch.setattr(FullBranchMap, "uniform", classmethod(
        lambda cls, d, budget: pytest.fail("branches were built")))
    with pytest.raises(ComponentBudgetError, match="budget of 7"):
        FullBranchMap.from_spec("uniform:8", budget=7)
    with pytest.raises(ComponentBudgetError, match="budget of 1000000"):
        FullBranchMap.from_spec("uniform:10000000")


def test_from_spec_interns_one_map_per_spec_and_budget():
    for spec in ("doubling", "uniform:5", "widths:1/2,1/4,1/4",
                 '[{"lo": 0, "hi": "1/2", "slope": 2, "intercept": 0},'
                 ' {"lo": "1/2", "hi": 1, "slope": 2, "intercept": -1}]'):
        m = FullBranchMap.from_spec(spec)
        assert FullBranchMap.from_spec(spec) is m
        assert FullBranchMap.from_spec(f" {spec} ") is m
        tight = FullBranchMap.from_spec(spec, budget=7)
        assert tight is not m and FullBranchMap.from_spec(spec, budget=7) is tight
        assert (tight.budget, m.budget) == (7, COMPONENT_BUDGET)
        assert tight.widths == m.widths


def test_from_spec_builds_a_parsed_list_afresh():
    spec = [{"lo": 0, "hi": "1/2", "slope": 2, "intercept": 0},
            {"lo": "1/2", "hi": 1, "slope": 2, "intercept": -1}]
    m = FullBranchMap.from_spec(spec)
    assert m.widths == (F(1, 2), F(1, 2)) and m.name == "custom"
    assert FullBranchMap.from_spec(spec) is not m


def test_maps_are_immutable_and_pickle():
    m = FullBranchMap.from_spec("widths:1/2,1/4,1/4", budget=9)
    for name, value in (("budget", 5), ("name", "x"), ("_los", [])):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(m, name, value)
    with pytest.raises(AttributeError, match="immutable"):
        del m.budget
    assert (m.budget, m.name) == (9, "widths-1/2,1/4,1/4")
    back = pickle.loads(pickle.dumps(m))
    assert (back.widths, back.budget, back.is_integer) == (
        m.widths, m.budget, m.is_integer)
    assert back.branch_index(F(3, 5)) == m.branch_index(F(3, 5)) == 1


MALFORMED_SPECS = [
    ("widths:1/2,0,1/2", "width 0 is not positive"),
    ("widths:1/2,1/0", "width '1/0'"),
    ("[1,2]", "map branch 1 is not an object"),
    ('[{"lo":0}]', "map branch {'lo': 0} is not an object"),
    ('[{"lo": 0, "hi": "1/2", "slope": 2, "intercept": null},'
     ' {"lo": "1/2", "hi": 1, "slope": 2, "intercept": -1}]',
     "intercept None is not a finite rational"),
]


@pytest.mark.parametrize("spec, message", MALFORMED_SPECS)
def test_malformed_spec_raises_value_error_on_every_call(spec, message):
    # nothing is cached on failure, so the second call raises as well
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(message)):
            FullBranchMap.from_spec(spec)


def test_image_examples():
    assert DOUBLING.image(IntervalUnion([(F(1, 10), F(3, 20))])).components == (
        (F(1, 5), F(3, 10)),)
    wrapped = DOUBLING.image(IntervalUnion([(F(2, 5), F(3, 5))]))
    assert wrapped.components == ((F(0), F(1, 5)), (F(4, 5), F(1)))
    s = random_union(random.Random(3))
    back_forth = DOUBLING.image(DOUBLING.preimage(s))
    for x in [F(i, 997) for i in range(0, 997, 11)]:
        if s.contains(x):
            assert back_forth.contains(x)


# rational slopes (widths:2/5,3/5) and a decreasing branch, besides the
# integer-slope maps
MEMBERSHIP_MAPS = [
    DOUBLING, TRIPLING, WIDTHS, FullBranchMap.from_spec("widths:2/5,3/5"),
    FullBranchMap.from_spec(DECREASING_SPEC),
]
# no end of the sets below, of their preimages or of their images has
# the prime 1009 in its denominator, so no grid point is an end
GRID = [F(i, 1009) for i in range(1, 1009, 3)]


@st.composite
def grid_unions(draw):
    k = draw(st.integers(0, 4))
    ends = sorted(draw(st.lists(st.integers(0, 120), min_size=2 * k,
                                max_size=2 * k, unique=True)))
    return IntervalUnion([(F(a, 120), F(b, 120))
                          for a, b in zip(ends[::2], ends[1::2])])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MEMBERSHIP_MAPS), grid_unions())
def test_preimage_and_image_match_pointwise_dynamics(m, s):
    pre, img = m.preimage(s), m.image(s)
    # stored in canonical form, inside [0, 1]
    assert IntervalUnion(pre.components) == pre
    assert IntervalUnion(img.components) == img
    for x in GRID:
        assert pre.contains(x) == s.contains(m.apply(x))
        # y is in f(S) iff one of its d branch preimages is in S
        assert img.contains(x) == any(s.contains(br.inverse(x))
                                      for br in m.branches)
        if s.contains(x):
            assert img.contains(m.apply(x))


def _periodic_points(m, n):
    """(x, |DF^n(x)|) for each period-n word: the composed branch
    y -> A*y + B of the word fixes x = B / (1 - A), with 1 read as 0.
    The oracle that ``weighted_periodic_sum`` is checked against."""
    out = []
    for word in product(m.branches, repeat=n):
        A, B = F(1), F(0)
        for br in word:
            A, B = br.slope * A, br.slope * B + br.intercept
        out.append((B / (1 - A) % 1, abs(A)))
    return out


@pytest.mark.parametrize("m,n", [(DOUBLING, 5), (TRIPLING, 4), (WIDTHS, 4)])
def test_periodic_point_count_and_fixedness(m, n):
    pts = _periodic_points(m, n)
    assert len(pts) == m.d ** n
    for point, _ in pts[:: max(1, len(pts) // 20)]:
        x = point
        for _ in range(n):
            x = m.apply(x)
        assert x == point


def test_periodic_cap():
    assert weighted_periodic_sum(TRIPLING, 0, 20) == 3 ** 20
    with pytest.raises(CapExceededError):
        weighted_periodic_sum(TRIPLING, 0, 21)


@pytest.mark.parametrize("m", [DOUBLING, TRIPLING, WIDTHS])
def test_weighted_sum_geometric_is_one(m):
    for n in range(1, 8):
        assert weighted_periodic_sum(m, 1, n) == 1


def test_weighted_sum_zero_potential_counts_points():
    assert weighted_periodic_sum(DOUBLING, 0, 3) == 8.0
    assert weighted_periodic_sum(WIDTHS, 0, 1) == 3.0


@pytest.mark.parametrize("spec", [
    "doubling", "tripling", "widths:1/2,1/4,1/4", "widths:2/5,3/5",
    pytest.param(DECREASING_SPEC, id="decreasing")])
def test_weighted_sum_closed_form_matches_enumeration(spec):
    m = FullBranchMap.from_spec(spec)
    for n in range(1, 7):
        multipliers = [mult for _, mult in _periodic_points(m, n)]
        zero = weighted_periodic_sum(m, 0, n)
        geometric = weighted_periodic_sum(m, 1, n)
        assert type(zero) is F and zero == len(multipliers)
        assert type(geometric) is F
        assert geometric == sum(1 / mult for mult in multipliers)
        # any exponent s: the potential -2 log|DF| weighs each point by
        # its multiplier**-2
        assert weighted_periodic_sum(m, 2, n) == sum(
            mult ** -2 for mult in multipliers)


def test_bv_norm_indicator():
    assert bv_norm_indicator(IntervalUnion([(F(1, 4), F(1, 2))])) == 2
    annulus = ball(F(1, 3), F(1, 50)).difference(ball(F(1, 3), F(1, 200)))
    assert bv_norm_indicator(annulus) == 4
    assert bv_norm_indicator(IntervalUnion.empty()) == 0
    assert bv_norm_indicator(ball(F(0), F(1, 10))) == 2  # one arc after unwrap


def test_from_spec():
    assert FullBranchMap.from_spec("doubling").d == 2
    assert FullBranchMap.from_spec("tripling").d == 3
    assert FullBranchMap.from_spec("uniform:5").d == 5
    m = FullBranchMap.from_spec("widths:1/2,1/4,1/4")
    assert m.widths == (F(1, 2), F(1, 4), F(1, 4))
    j = '[{"lo": "0", "hi": "1/2", "slope": 2, "intercept": 0},' \
        ' {"lo": "1/2", "hi": "1", "slope": 2, "intercept": -1}]'
    assert FullBranchMap.from_spec(j).is_uniform
    with pytest.raises(ValueError):
        FullBranchMap.from_spec("nonsense")


def test_branch_validation():
    with pytest.raises(ValueError):
        AffineBranch(F(0), F(1, 2), F(3), F(0))  # not onto [0,1)
    with pytest.raises(ValueError):
        FullBranchMap([AffineBranch(F(0), F(1, 2), F(2), F(0))])  # one branch
    with pytest.raises(ValueError):
        FullBranchMap.from_widths([F(1, 2), F(1, 3)])  # widths don't tile
