
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedyn.berkovich import BerkPoint, Comparison, compare, hyp_dist
from tamedyn.errors import TypeIPoint
from tamedyn.valued_field import PAdic, SeriesT, Val

Q3 = PAdic(3)


def pt(center, exp):
    return BerkPoint(Q3.scalar(center), exp)


def type_one(center):
    return BerkPoint(Q3.scalar(center), math.inf)


GAUSS = BerkPoint(Q3.zero, 0)


class TestTypes:
    def test_equality_same_disk(self):
        # same closed disk under a different center
        assert pt(0, 1) == pt(3, 1)
        assert pt(0, 1) != pt(1, 1)
        assert type_one(2) != type_one(5)


def test_the_radius_view_that_bench_checks_reads():
    # bench/checks.py builds BerkPoint(c, Val(mid)) from (a + b) / 2 on `.finite`
    c = Q3.scalar(2)
    for q in (3, Fraction(-1, 2), math.inf):
        assert BerkPoint(c, Val(q)) == BerkPoint(c, q)
    assert type(BerkPoint(c, 3).radius_exp.finite) is Fraction
    with pytest.raises(ValueError):
        Val(math.inf).finite
    for q in (0.5, True):
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            BerkPoint(c, q)


class TestCompare:
    def test_nested(self):
        assert compare(pt(0, 1), pt(0, 0)) is Comparison.LESS
        assert compare(pt(0, 0), pt(0, 1)) is Comparison.GREATER

    def test_equal(self):
        x = pt(2, 1)
        assert compare(x, x) is Comparison.EQUAL

    def test_disjoint(self):
        # v(0-1) = 0 < 1: disjoint disks
        assert compare(pt(0, 1), pt(1, 1)) is Comparison.INCOMPARABLE

    def test_classical_inside(self):
        assert compare(type_one(3), pt(0, 1)) is Comparison.LESS


class TestHypDist:
    def test_unit_normalization(self):
        assert hyp_dist(pt(0, 0), pt(0, -1)) == 1

    def test_zero(self):
        assert hyp_dist(GAUSS, GAUSS) == 0

    def test_through_join(self):
        # both disks of exponent 1 around 0 and 1 join at the Gauss point
        assert hyp_dist(pt(0, 1), pt(1, 1)) == 2

    def test_rejects_classical(self):
        with pytest.raises(TypeIPoint):
            hyp_dist(type_one(0), GAUSS)


small_fractions = st.fractions(max_denominator=9)
exps = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def points(draw):
    return pt(draw(small_fractions), draw(exps))


@st.composite
def points_or_type_one(draw):
    """Points of few radii (classical ones among them) around centers that
    often agree to a high power of 3."""
    center = draw(st.sampled_from([0, 1, 3, 9, 27, Fraction(1, 3), Fraction(10, 3)]))
    return pt(center, draw(st.sampled_from([-1, 0, 1, 2, math.inf])))


class TestOrderJoinConsistency:
    @given(x=points(), y=points())
    @settings(max_examples=120)
    def test_less_iff_distance_is_the_drop_in_exponent(self, x, y):
        # x < y exactly when y is the smallest disk containing both
        drop = x.exponent - y.exponent
        assert (compare(x, y) is Comparison.LESS) == (x != y and hyp_dist(x, y) == drop)

    @given(x=points_or_type_one(), y=points_or_type_one())
    @settings(max_examples=200)
    def test_compare_agrees_with_equality_and_is_antisymmetric(self, x, y):
        rel, back = compare(x, y), compare(y, x)
        assert (rel is Comparison.EQUAL) == (x == y) == (back is Comparison.EQUAL)
        assert (rel is Comparison.LESS) == (back is Comparison.GREATER)
        assert (rel is Comparison.GREATER) == (back is Comparison.LESS)

    @given(x=points(), y=points(), z=points())
    @settings(max_examples=120)
    def test_triangle_inequality(self, x, y, z):
        assert hyp_dist(x, z) <= hyp_dist(x, y) + hyp_dist(y, z)

    def test_collinear_equality(self):
        x, y, z = pt(0, 3), pt(0, 2), pt(0, -1)
        assert hyp_dist(x, z) == hyp_dist(x, y) + hyp_dist(y, z)


@pytest.mark.parametrize("x, y", [
    (BerkPoint(PAdic(3).zero, 0), BerkPoint(PAdic(5).zero, 0)),
    (BerkPoint(PAdic(3).zero, 0), BerkPoint(SeriesT(8).zero, 0)),
    (BerkPoint(SeriesT(8).zero, 0), BerkPoint(PAdic(3).zero, 0)),
], ids=["padic3-padic5", "padic-series", "series-padic"])
def test_mixed_backends(x, y):
    for op in (compare, hyp_dist):
        with pytest.raises(TypeError, match="^mixed backends$"):
            op(x, y)
    assert x != y
