
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedyn.berkovich import BerkPoint, Comparison, compare, hyp_dist, join
from tamedyn.errors import TypeIPoint
from tamedyn.valued_field import PAdic

Q3 = PAdic(3)


def pt(center, exp):
    return BerkPoint(Q3.scalar(center), exp)


def classical(center):
    return BerkPoint.classical(Q3.scalar(center))


GAUSS = BerkPoint(Q3.zero, 0)


class TestTypes:
    def test_equality_same_disk(self):
        # same closed disk under a different center
        assert pt(0, 1) == pt(3, 1)
        assert pt(0, 1) != pt(1, 1)
        assert classical(2) != classical(5)


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
        assert compare(classical(3), pt(0, 1)) is Comparison.LESS


class TestJoin:
    def test_classical_points(self):
        assert join(classical(0), classical(1)) == GAUSS
        assert join(classical(0), classical(3)) == pt(0, 1)

    def test_idempotent_commutative(self):
        x, y = pt(1, 2), pt(4, 3)
        assert join(x, x) == x
        assert join(x, y) == join(y, x)


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
            hyp_dist(classical(0), GAUSS)


small_fractions = st.fractions(max_denominator=9)
exps = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def points(draw):
    return pt(draw(small_fractions), draw(exps))


@st.composite
def points_or_classical(draw):
    """Points of few radii (classical ones among them) around centers that
    often agree to a high power of 3."""
    center = draw(st.sampled_from([0, 1, 3, 9, 27, Fraction(1, 3), Fraction(10, 3)]))
    return pt(center, draw(st.sampled_from([-1, 0, 1, 2, math.inf])))


class TestOrderJoinConsistency:
    @given(x=points(), y=points())
    @settings(max_examples=120)
    def test_less_iff_join_is_upper(self, x, y):
        rel = compare(x, y)
        j = join(x, y)
        if rel is Comparison.LESS:
            assert j == y and x != y
        if j == y and x != y:
            assert rel is Comparison.LESS

    @given(x=points_or_classical(), y=points_or_classical())
    @settings(max_examples=200)
    def test_compare_agrees_with_equality_and_is_antisymmetric(self, x, y):
        rel, back = compare(x, y), compare(y, x)
        assert (rel is Comparison.EQUAL) == (x == y) == (back is Comparison.EQUAL)
        assert (rel is Comparison.LESS) == (back is Comparison.GREATER)
        assert (rel is Comparison.GREATER) == (back is Comparison.LESS)

    @given(x=points(), y=points(), z=points())
    @settings(max_examples=120)
    def test_join_laws(self, x, y, z):
        assert join(x, join(y, z)) == join(join(x, y), z)
        assert join(x, y) == join(y, x)
        assert join(x, x) == x

    @given(x=points(), y=points(), z=points())
    @settings(max_examples=120)
    def test_triangle_inequality(self, x, y, z):
        assert hyp_dist(x, z) <= hyp_dist(x, y) + hyp_dist(y, z)

    def test_collinear_equality(self):
        x, y, z = pt(0, 3), pt(0, 2), pt(0, -1)
        assert hyp_dist(x, z) == hyp_dist(x, y) + hyp_dist(y, z)
