import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedyn.berkovich import BerkPoint
from tamedyn.errors import InvalidMarks, NotTame
from tamedyn.polynomial import CriticalMark, MarkedPolynomial, PiecewiseMonomial, poly_eval
from tamedyn.valued_field import INF, PAdic, SeriesT, Val, coprime_fraction

Q3 = PAdic(3)
Q5 = PAdic(5)
Q2 = PAdic(2)


def F(*args):
    return Fraction(*args)


def quad_third():
    """z^2 - 1/3 over PAdic(3)."""
    return MarkedPolynomial.from_critical_data(
        [(Q3.scalar(0), 2)], Q3.scalar(F(-1, 3))
    )


def cubic_sym():
    """z^3 - 3z over PAdic(5)."""
    return MarkedPolynomial.from_critical_data(
        [(Q5.scalar(1), 2), (Q5.scalar(-1), 2)], Q5.scalar(0)
    )


class TestFromCriticalData:
    def test_quadratic(self):
        f = quad_third()
        assert [c.rational for c in f.coeffs] == [F(-1, 3), 0, 1]

    def test_pure_power(self):
        f = MarkedPolynomial.from_critical_data([(Q3.scalar(0), 2)], Q3.scalar(0))
        assert [c.rational for c in f.coeffs] == [0, 0, 1]

    def test_cubic(self):
        f = cubic_sym()
        assert [c.rational for c in f.coeffs] == [0, -3, 0, 1]

    def test_rejects_coincident(self):
        with pytest.raises(InvalidMarks):
            MarkedPolynomial.from_critical_data(
                [(Q5.scalar(1), 2), (Q5.scalar(1), 2)], Q5.scalar(0)
            )

    def test_rejects_uncentered(self):
        with pytest.raises(InvalidMarks):
            MarkedPolynomial.from_critical_data([(Q5.scalar(1), 3)], Q5.scalar(0))

    def test_mark_roundtrip(self):
        # re-deriving marks from f' recovers the input marks
        f = cubic_sym()
        g = MarkedPolynomial.from_coefficients(f.coeffs, f.marks)
        assert g.coeffs == f.coeffs

    def test_from_coefficients_verifies(self):
        f = cubic_sym()
        with pytest.raises(InvalidMarks):
            MarkedPolynomial.from_coefficients(
                f.coeffs, [(Q5.scalar(2), 2), (Q5.scalar(-2), 2)]
            )


class TestBasePoint:
    def test_type_iii_base(self):
        f = quad_third()
        assert f.base_radius_exp == F(-1, 2)
        assert f.base_point() == BerkPoint(Q3.zero, Val(F(-1, 2)))

    def test_monomial(self):
        f = MarkedPolynomial.from_critical_data([(Q3.scalar(0), 2)], Q3.scalar(0))
        assert f.base_point() == BerkPoint(Q3.zero, 0)

    def test_cubic_gauss(self):
        assert cubic_sym().base_point() == BerkPoint(Q5.zero, 0)


class TestImagePoint:
    def test_base_point_image(self):
        f = quad_third()
        img, deg = f.image_point(f.base_point())
        assert img == BerkPoint(Q3.scalar(F(-1, 3)), Val(-1))
        assert img == BerkPoint(Q3.scalar(0), Val(-1))
        assert deg == 2

    def test_gauss_under_square(self):
        f = MarkedPolynomial.from_critical_data([(Q3.scalar(0), 2)], Q3.scalar(0))
        img, deg = f.image_point(BerkPoint(Q3.zero, 0))
        assert img == BerkPoint(Q3.zero, 0)
        assert deg == 2

    def test_classical_critical(self):
        f = quad_third()
        img, deg = f.image_point(BerkPoint.classical(Q3.scalar(0)))
        assert img == BerkPoint.classical(Q3.scalar(F(-1, 3)))
        assert deg == 2

    def test_classical_regular(self):
        f = quad_third()
        _, deg = f.image_point(BerkPoint.classical(Q3.scalar(1)))
        assert deg == 1


class TestLocalDegreeRH:
    def test_gauss(self):
        f = quad_third()
        assert f.local_degree_rh(BerkPoint(Q3.zero, 0)) == 2

    def test_cubic_off_center(self):
        f = cubic_sym()
        # only the mark at 1 lies in D(1, 5^-1): v(1-(-1)) = 0 < 1
        assert f.local_degree_rh(BerkPoint(Q5.scalar(1), 1)) == 2

    def test_above_base_full_degree(self):
        f = cubic_sym()
        above = BerkPoint(Q5.scalar(0), -2)
        assert f.local_degree_rh(above) == 3

    def test_cross_check_examples(self):
        for f in (quad_third(), cubic_sym()):
            for center, exp in [(0, 0), (1, 1), (0, F(-1, 2)), (2, 2), (0, -3)]:
                x = BerkPoint(f.backend.scalar(center), Fraction(exp))
                _, deg_taylor = f.image_point(x)
                assert deg_taylor == f.local_degree_rh(x)


class TestTameness:
    def test_quadratic_over_3(self):
        rep = quad_third().tameness_check()
        assert rep.tame
        assert rep.degrees == frozenset({2})

    def test_square_over_2_is_wild(self):
        f = MarkedPolynomial.from_critical_data([(Q2.scalar(0), 2)], Q2.scalar(0))
        rep = f.tameness_check()
        assert not rep.tame
        assert rep.witness == BerkPoint.classical(Q2.scalar(0))
        with pytest.raises(NotTame):
            f.local_degree_rh(BerkPoint(Q2.zero, 0))

    def test_cubic_over_3_is_wild(self):
        # the pair cluster realizes degree 3 at the join
        f = MarkedPolynomial.from_critical_data(
            [(Q3.scalar(1), 2), (Q3.scalar(-1), 2)], Q3.scalar(0)
        )
        rep = f.tameness_check()
        assert not rep.tame
        assert rep.witness_degree == 3

    def test_series_always_tame(self):
        qt = SeriesT(precision=10)
        f = MarkedPolynomial.from_critical_data(
            [(qt.scalar(1), 2), (qt.scalar(-1), 2)], qt.scalar(0)
        )
        assert f.tameness_check().tame


class TestSegmentDynamics:
    def test_quadratic_ray_at_zero(self):
        f = quad_third()
        seg = f.segment_dynamics(Q3.scalar(0))
        # f_1(0) = 0, f_2(0) = 1: single line of slope 2
        assert seg.lines == ((2, F(0)),)
        assert seg.image_exp(F(-1, 2)) == F(-1)
        img, _ = f.image_point(BerkPoint(Q3.scalar(0), F(-1, 2)))
        assert img.radius_exp == Val(-1)

    def test_pure_square(self):
        f = MarkedPolynomial.from_critical_data([(Q3.scalar(0), 2)], Q3.scalar(0))
        seg = f.segment_dynamics(Q3.scalar(0))
        for q in (F(-2), F(0), F(5, 2)):
            assert seg.image_exp(q) == 2 * q

    def test_cubic_breakpoint(self):
        f = cubic_sym()
        seg = f.segment_dynamics(Q5.scalar(1))
        # Taylor at 1: f_1 = 0, f_2 = 3 (unit), f_3 = 1: slopes 2 and 3 cross at 0
        assert seg.lines[0][0] == 2  # the local degree at the center
        assert seg.breakpoints() == [F(0)]
        assert _degree(seg, F(1)) == 2
        assert _degree(seg, F(-1)) == 3

    def test_inversion(self):
        f = cubic_sym()
        seg = f.segment_dynamics(Q5.scalar(1))
        for q in (F(-7, 3), F(-1), F(1, 4), F(2)):
            assert seg.invert(seg.image_exp(q)) == q

    def test_consistency_with_image_point(self):
        f = cubic_sym()
        seg = f.segment_dynamics(Q5.scalar(1))
        for q in (F(-3), F(-1, 2), F(0), F(1), F(7, 2)):
            img, deg = f.image_point(BerkPoint(Q5.scalar(1), q))
            assert img.radius_exp == Val(seg.image_exp(q))
            assert deg == _degree(seg, q)


EXPONENTS = st.fractions(min_value=-30, max_value=30, max_denominator=12)
LINES = st.lists(
    st.tuples(st.integers(min_value=1, max_value=6),
              st.fractions(min_value=-20, max_value=20, max_denominator=6)),
    min_size=1, max_size=6,
)


def _brute_min(lines, q):
    return min(k * q + v for k, v in lines)


def _degree(seg, q):
    """The local degree: the largest slope of a kept line attaining the minimum."""
    m = seg.image_exp(q)
    return max(k for k, v in seg.lines if k * q + v == m)


class TestRayMapAgainstAllLines:
    """The envelope kept by PiecewiseMonomial against a min over every line."""

    @settings(max_examples=50)
    @given(lines=LINES)
    def test_keeps_each_slope_of_the_envelope_once(self, lines):
        kept = PiecewiseMonomial(lines).lines
        slopes = [k for k, _ in kept]
        assert slopes == sorted(set(slopes))
        assert set(kept) <= {(k, min(v for k2, v in lines if k2 == k)) for k, _ in lines}

    @settings(max_examples=50)
    @given(lines=LINES, q=EXPONENTS)
    def test_image_and_degree(self, lines, q):
        seg = PiecewiseMonomial(lines)
        m = _brute_min(lines, q)
        assert seg.image_exp(q) == m
        assert _degree(seg, q) == max(k for k, v in lines if k * q + v == m)

    @settings(max_examples=50)
    @given(lines=LINES, t=EXPONENTS)
    def test_invert(self, lines, t):
        seg = PiecewiseMonomial(lines)
        q = seg.invert(t)
        assert q == max((t - v) / k for k, v in lines)
        assert _brute_min(lines, q) == t

    @settings(max_examples=50)
    @given(lines=LINES)
    def test_breakpoints(self, lines):
        crossings = {F(v1 - v2, k2 - k1) for k1, v1 in lines for k2, v2 in lines if k1 != k2}
        corners = sorted(
            q for q in crossings
            if len({k for k, v in lines if k * q + v == _brute_min(lines, q)}) > 1
        )
        assert PiecewiseMonomial(lines).breakpoints() == corners

    @settings(max_examples=50)
    @given(outer=LINES, inner=LINES, q=EXPONENTS)
    def test_compose(self, outer, inner, q):
        f, g = PiecewiseMonomial(outer), PiecewiseMonomial(inner)
        h = f.compose(g)
        assert h.image_exp(q) == f.image_exp(g.image_exp(q))
        assert _degree(h, q) == _degree(f, g.image_exp(q)) * _degree(g, q)
        assert h.invert(q) == g.invert(f.invert(q))


class TestExpansionLaw:
    def test_single_piece_expansion(self):
        # on a slope-k piece, distances expand exactly by k
        from tamedyn.berkovich import hyp_dist

        f = cubic_sym()
        seg = f.segment_dynamics(Q5.scalar(1))
        q1, q2 = F(1, 2), F(3, 2)  # both on the slope-2 piece
        x1 = BerkPoint(Q5.scalar(1), q1)
        x2 = BerkPoint(Q5.scalar(1), q2)
        y1, _ = f.image_point(x1)
        y2, _ = f.image_point(x2)
        assert hyp_dist(y1, y2) == 2 * hyp_dist(x1, x2)

    def test_growth_above_base(self):
        # strictly above the base point the radius exponent multiplies by d
        f = quad_third()
        for q in (F(-1), F(-3, 4), F(-2)):
            x = BerkPoint(Q3.scalar(0), q)
            img, _ = f.image_point(x)
            assert img.radius_exp == Val(2 * q)


# marks -> critical data of a monic centered polynomial: sum (d_i - 1) c_i = 0
SHAPES = [
    lambda c: [(0, 2)],
    lambda c: [(c, 2), (-c, 2)],
    lambda c: [(0, 3)],
    lambda c: [(0, 2), (c, 2), (-c, 2)],
    lambda c: [(-2 * c, 2), (c, 3)],
]


@st.composite
def shared_rationals(draw, p):
    """Rationals whose denominators are drawn from {2, 3, p}, times p^k for
    k in [-3, 3]: they share primes with each other and with p, and their
    valuations are of either sign."""
    den = 1
    for q in {2, 3, p}:
        den *= q ** draw(st.integers(0, 3))
    k = draw(st.integers(-3, 3))
    return Fraction(draw(st.integers(-40, 40)), den) * Fraction(p) ** k


@st.composite
def polynomial_and_point(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    backend = PAdic(p)
    c = draw(shared_rationals(p).filter(bool))
    marks = [(backend.scalar(m), k) for m, k in draw(st.sampled_from(SHAPES))(c)]
    f = MarkedPolynomial.from_critical_data(marks, backend.scalar(draw(shared_rationals(p))))
    return f, backend.scalar(draw(shared_rationals(p)))


def _same_rational(a: Fraction, b: Fraction):
    assert (a.numerator, a.denominator) == (b.numerator, b.denominator)
    assert a.denominator > 0


class TestIntegerEvaluation:
    """f(z) over PAdic is computed in integers and reduced by gcds against the
    lcm L of the coefficient denominators only; Horner over Fractions, which
    reduces every step, is the oracle."""

    @settings(max_examples=300)
    @given(case=polynomial_and_point())
    def test_matches_fraction_horner(self, case):
        f, z = case
        zero = f.backend.zero
        for _ in range(2):  # the point, then its image
            fz = f(z)
            _same_rational(fz.rational, poly_eval(list(f.coeffs), z, zero).rational)
            z = fz

    def test_zero_and_repeated_reduction(self):
        # z^2 - 1/4 at 1/2 is 0; z^2 + 1/4 at 1/2 is 8/16 before reduction,
        # and one division by gcd(gcd(8, 4), 16) = 4 leaves 2/4
        for b, expected in ((F(-1, 4), F(0)), (F(1, 4), F(1, 2))):
            f = MarkedPolynomial.from_critical_data([(Q3.scalar(0), 2)], Q3.scalar(b))
            _same_rational(f(Q3.scalar(F(1, 2))).rational, expected)

    def test_mixed_backends_rejected(self):
        with pytest.raises(TypeError):
            quad_third()(Q5.scalar(1))

    @given(n=st.integers(-10 ** 30, 10 ** 30), d=st.integers(1, 10 ** 30))
    def test_coprime_fraction(self, n, d):
        g = math.gcd(n, d)
        n, d = n // g, d // g
        q = coprime_fraction(n, d)
        assert type(q) is Fraction
        _same_rational(q, Fraction(n, d))
        assert q == Fraction(n, d) and hash(q) == hash(Fraction(n, d))
