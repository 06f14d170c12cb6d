import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamedyn import polynomial
from tamedyn.berkovich import BerkPoint
from tamedyn.errors import InvalidMarks, NotTame
from tamedyn.polynomial import CriticalMark, MarkedPolynomial, PiecewiseMonomial, poly_eval
from tamedyn.serialize import polynomial_from_json
from tamedyn.valued_field import PAdic, SeriesT, Val, coprime_fraction, nth_root_unit

from test_golden import _series_cubic

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
        # sum (d_i - 1) c_i = 2, and the message names the chart sum d_i c_i = 3
        with pytest.raises(InvalidMarks, match=re.escape(f"chart sum d_i c_i = {Q5.scalar(3)!r}")):
            MarkedPolynomial.from_critical_data([(Q5.scalar(1), 3)], Q5.scalar(0))

    def test_rejects_constant_term_over_another_backend(self):
        with pytest.raises(InvalidMarks):
            MarkedPolynomial.from_critical_data(
                [(Q5.scalar(1), 2), (Q5.scalar(-1), 2)], Q3.scalar(0)
            )

    def test_rejects_marks_over_two_backends(self):
        with pytest.raises(InvalidMarks):
            MarkedPolynomial.from_critical_data(
                [(Q3.scalar(1), 2), (Q5.scalar(-1), 2)], Q3.zero
            )

    def test_builds_the_derivative_once(self, monkeypatch):
        # one product per factor (z - c_i) of f'; the coefficients are
        # integrated from it, so nothing rebuilds it to check them
        calls = []
        original = polynomial.poly_mul
        monkeypatch.setattr(polynomial, "poly_mul",
                            lambda *args: calls.append(1) or original(*args))
        assert [c.rational for c in cubic_sym().coeffs] == [0, -3, 0, 1]
        assert len(calls) == 2


# a multiplicity or root index that is not an int is refused up front by a
# TypeError that names it, before a float, a bool or a string reaches arithmetic
NON_INT_ARGUMENTS = {
    "float multiplicity": (lambda: CriticalMark(Q5.scalar(1), 3.0), "multiplicity"),
    "string multiplicity": (lambda: CriticalMark(Q5.scalar(1), "3"), "multiplicity"),
    "bool multiplicity": (lambda: CriticalMark(Q5.scalar(1), True), "multiplicity"),
    "float multiplicity in a pair": (lambda: MarkedPolynomial.from_critical_data(
        [(Q5.scalar(1), 2.0), (Q5.scalar(-1), 2)], Q5.zero), "multiplicity"),
    "bool root index": (lambda: nth_root_unit(Q3.scalar(4), True, 10), "root index"),
    "float root index": (lambda: nth_root_unit(Q3.scalar(4), 2.0, 10), "root index"),
    "float root index over SeriesT": (lambda: nth_root_unit(
        SeriesT(8).scalar(terms=[(0, 1), (1, 1)]), 2.0, 8), "root index"),
}


@pytest.mark.parametrize("row", sorted(NON_INT_ARGUMENTS))
def test_non_int_multiplicity_or_root_index_is_refused(row):
    build, name = NON_INT_ARGUMENTS[row]
    with pytest.raises(TypeError, match=f"^{name} must be an int, not "):
        build()


# a mark point or constant term that is not a Scalar is refused by a TypeError
# that names it, before the backend check reads its `.backend`
NON_SCALAR_ARGUMENTS = {
    "int point": (lambda: CriticalMark(3, 2), "point"),
    "int point in a pair": (lambda: MarkedPolynomial.from_critical_data(
        [(1, 2), (Q5.scalar(-1), 2)], Q5.zero), "point"),
    "int constant term": (lambda: MarkedPolynomial.from_critical_data(
        [(Q5.scalar(1), 2), (Q5.scalar(-1), 2)], 0), "b"),
}


@pytest.mark.parametrize("row", sorted(NON_SCALAR_ARGUMENTS))
def test_non_scalar_point_or_constant_term_is_refused(row):
    build, name = NON_SCALAR_ARGUMENTS[row]
    with pytest.raises(TypeError, match=f"^{name} must be a Scalar, not "):
        build()


class TestBasePoint:
    def test_type_iii_base(self):
        f = quad_third()
        assert f.base_radius_exp == F(-1, 2)
        assert BerkPoint(f.backend.zero, f.base_radius_exp) == BerkPoint(Q3.zero, Val(F(-1, 2)))

    def test_monomial(self):
        f = MarkedPolynomial.from_critical_data([(Q3.scalar(0), 2)], Q3.scalar(0))
        assert BerkPoint(f.backend.zero, f.base_radius_exp) == BerkPoint(Q3.zero, 0)

    def test_cubic_gauss(self):
        f = cubic_sym()
        assert BerkPoint(f.backend.zero, f.base_radius_exp) == BerkPoint(Q5.zero, 0)


class TestImagePoint:
    def test_base_point_image(self):
        f = quad_third()
        img, deg = f.image_point(BerkPoint(f.backend.zero, f.base_radius_exp))
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
        img, deg = f.image_point(BerkPoint(Q3.scalar(0), math.inf))
        assert img == BerkPoint(Q3.scalar(F(-1, 3)), math.inf)
        assert deg == 2

    def test_classical_regular(self):
        f = quad_third()
        _, deg = f.image_point(BerkPoint(Q3.scalar(1), math.inf))
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


# the marks +-1 of z^3 - 3z + b over PAdic(3) join in a disk of local degree 3
WILD_CUBIC_MARKS = [(Q3.scalar(1), 2), (Q3.scalar(-1), 2)]
WILD_CUBIC_WITNESS = BerkPoint(Q3.scalar(1), 0)


class TestTameness:
    """A polynomial is built only when it is tame; a wild one raises NotTame
    with a witness disk, from each entry point."""

    def test_quadratic_over_3(self):
        assert quad_third().degree == 2

    def test_square_over_2_is_wild(self):
        with pytest.raises(NotTame, match="local degree 2 divisible") as err:
            MarkedPolynomial.from_critical_data([(Q2.scalar(0), 2)], Q2.scalar(0))
        assert err.value.witness == BerkPoint(Q2.scalar(0), math.inf)

    def test_cubic_over_3_is_wild(self):
        # the pair cluster realizes degree 3 at the join
        with pytest.raises(NotTame, match="local degree 3 divisible") as err:
            MarkedPolynomial.from_critical_data(WILD_CUBIC_MARKS, Q3.scalar(0))
        assert err.value.witness == WILD_CUBIC_WITNESS

    def test_series_always_tame(self):
        qt = SeriesT(precision=10)
        f = MarkedPolynomial.from_critical_data(
            [(qt.scalar(1), 2), (qt.scalar(-1), 2)], qt.scalar(0)
        )
        assert f.degree == 3

    def test_wild_document(self):
        doc = {"backend": {"kind": "padic", "p": 3},
               "marks": [{"c": "1", "mult": 2}, {"c": "-1", "mult": 2}], "b": "0"}
        with pytest.raises(NotTame, match="local degree 3 divisible") as err:
            polynomial_from_json(doc)
        assert err.value.witness == WILD_CUBIC_WITNESS

    def test_malformed_and_wild_is_invalid(self):
        # marks 0 and 1 join in a disk of degree 3 over PAdic(3), but they
        # do not center the antiderivative: the malformed input is named
        with pytest.raises(InvalidMarks):
            MarkedPolynomial.from_critical_data(
                [(Q3.scalar(0), 2), (Q3.scalar(1), 2)], Q3.scalar(0)
            )


def _tameness_by_clusters(marks, p):
    """Tameness by enumeration: every valuation-prefix cluster about each
    mark, repeats skipped, in order of first occurrence."""
    clusters = []
    for i, mi in enumerate(marks):
        joins = [((m.point - mi.point).valuation(), j) for j, m in enumerate(marks) if j != i]
        clusters.append((frozenset({i}), i, math.inf))
        for q in sorted({v for v, _ in joins}, reverse=True):
            clusters.append((frozenset({i} | {j for v, j in joins if v >= q}), i, q))
    witness, witness_degree, seen = None, None, set()
    for members, i, q in clusters:
        if members in seen:
            continue
        seen.add(members)
        deg = 1 + sum(marks[j].multiplicity - 1 for j in members)
        if deg % p == 0 and witness is None:
            witness, witness_degree = BerkPoint(marks[i].point, q), deg
    return witness is None, witness, witness_degree


@st.composite
def mark_sets(draw):
    """Distinct p-adic marks, multiplicities 2-4, translated to be centered."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    backend = PAdic(p)
    point = st.builds(lambda n, e: Fraction(n) * Fraction(p) ** e,
                      st.integers(-30, 30), st.integers(-2, 3))
    points = draw(st.lists(point, min_size=1, max_size=5, unique=True))
    mults = [draw(st.integers(2, 4)) for _ in points]
    shift = sum((d - 1) * c for c, d in zip(points, mults)) / sum(d - 1 for d in mults)
    return [(backend.scalar(c - shift), d) for c, d in zip(points, mults)]


@settings(max_examples=200, deadline=None)
@given(mark_sets())
def test_tameness_matches_the_cluster_enumeration(marks):
    backend = marks[0][0].backend
    tame, witness, witness_degree = _tameness_by_clusters(
        [CriticalMark(c, d) for c, d in marks], backend.p)
    if tame:
        MarkedPolynomial.from_critical_data(marks, backend.zero)
        return
    with pytest.raises(NotTame, match=f"local degree {witness_degree} divisible") as err:
        MarkedPolynomial.from_critical_data(marks, backend.zero)
    assert err.value.witness == witness


class TestSegmentDynamics:
    def test_quadratic_ray_at_zero(self):
        f = quad_third()
        seg = f.segment_dynamics(Q3.scalar(0))
        # f_1(0) = 0, f_2(0) = 1: single line of slope 2
        assert seg.lines == ((2, F(0)),)
        assert seg.image_exp(F(-1, 2)) == F(-1)
        img, _ = f.image_point(BerkPoint(Q3.scalar(0), F(-1, 2)))
        assert img.exponent == -1

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
            assert img.exponent == seg.image_exp(q)
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
    @given(lines=st.lists(st.tuples(st.integers(min_value=1, max_value=6),
                                    st.integers(min_value=-20, max_value=20)),
                          min_size=1, max_size=6),
           t=st.integers(min_value=-40, max_value=40))
    def test_invert_of_int_lines_is_exact(self, lines, t):
        q = PiecewiseMonomial(lines).invert(t)
        assert type(q) in (int, Fraction)
        assert _brute_min(lines, q) == t

    @settings(max_examples=50)
    @given(outer=LINES, inner=LINES, q=EXPONENTS)
    def test_compose(self, outer, inner, q):
        f, g = PiecewiseMonomial(outer), PiecewiseMonomial(inner)
        h = f.compose(g)
        assert h.image_exp(q) == f.image_exp(g.image_exp(q))
        assert _degree(h, q) == _degree(f, g.image_exp(q)) * _degree(g, q)
        assert h.invert(q) == g.invert(f.invert(q))


def _p_adic_rationals(p, min_exp):
    """0, or u/w * p^e with u, w prime to p and min_exp <= e <= 6."""
    prime_to_p = st.integers(min_value=-30, max_value=30).filter(lambda n: n % p)
    return st.one_of(st.just(Fraction(0)), st.builds(
        lambda u, w, e: Fraction(u, abs(w)) * Fraction(p) ** e,
        prime_to_p, prime_to_p, st.integers(min_value=min_exp, max_value=6)))


@st.composite
def ray_cases(draw):
    """A monic centered polynomial over PAdic(2|3|5|7) of degree 2-5 and a
    point z, with p in its denominator or not.  Zero coefficients, z = 0 and
    an a_1 drawn to make f'(z) = 0 give vanishing Taylor coefficients.  The
    Taylor identity holds for every monic polynomial, so no marks are given."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(min_value=2, max_value=5))
    coeffs = [draw(_p_adic_rationals(p, -4)) for _ in range(d - 1)] + [Fraction(0), Fraction(1)]
    z = draw(_p_adic_rationals(p, -6))
    if d >= 3 and draw(st.booleans()):
        coeffs[1] = -sum(i * coeffs[i] * z ** (i - 1) for i in range(2, d + 1))
    backend = PAdic(p)
    return MarkedPolynomial([backend.scalar(a) for a in coeffs], ()), backend.scalar(z)


@settings(max_examples=300)
@given(case=ray_cases())
def test_integer_ray_map_matches_taylor_valuations(case):
    f, z = case
    taylor = f.taylor_at(z)
    oracle = PiecewiseMonomial([(k, taylor[k].valuation())
                                for k in range(1, f.degree + 1) if not taylor[k].is_zero])
    assert f.segment_dynamics(z).lines == oracle.lines


UNITS = st.builds(lambda u, sign: sign * u, st.sampled_from([1, 2, 4, 8, 11, 13, 16, 17, 19]),
                  st.sampled_from([1, -1]))  # prime to 3, 5 and 7


def _value(backend, pairs):
    """sum c * pi^e over the (e, c) pairs, with pi = p over PAdic and t over SeriesT."""
    if isinstance(backend, PAdic):
        return backend.scalar(sum(c * Fraction(backend.p) ** e for e, c in pairs))
    return backend.scalar(terms=pairs)


@st.composite
def escaped_points(draw):
    """A tame f from critical data over PAdic(3|5|7) or SeriesT (ram_den
    1-3), of degree 2-5, and a point w with v(w) below its base exponent.
    d - 1 is split among up to three marks, the last one placed to center
    f; marks have exponents -2..2 and b -6..2.  Over SeriesT, f and w are
    built at the cutoff d*|v(w)| + 30: the Taylor shift by w carries a
    truncation down by up to d*|v(w)|, so the leading terms of the Taylor
    coefficients, which fix the oracle's lines, stay exact."""
    d = draw(st.integers(2, 5))
    parts, rest = [], d - 1  # local degree - 1 of each mark
    while rest and len(parts) < 2:
        parts.append(draw(st.integers(1, rest)))
        rest -= parts[-1]
    if rest:
        parts.append(rest)
    series = draw(st.booleans())
    r = draw(st.integers(1, 3)) if series else 1

    def pairs(low, high, size):
        ks = draw(st.lists(st.integers(low * r, high * r), min_size=1, max_size=size, unique=True))
        return [(Fraction(k, r), draw(UNITS)) for k in ks]

    marks = [pairs(-2, 2, 2) for _ in parts[:-1]]
    b = pairs(-6, 2, 3) if draw(st.booleans()) else []

    def build(backend):
        cs = [_value(backend, m) for m in marks]
        weighted = backend.zero
        for c, k in zip(cs, parts):
            weighted = weighted + c.scale(k)
        cs.append(weighted.scale(Fraction(-1, parts[-1])))
        assume(len(set(cs)) == len(cs))
        try:
            return MarkedPolynomial.from_critical_data(
                [(c, k + 1) for c, k in zip(cs, parts)], _value(backend, b))
        except NotTame:
            assume(False)

    backend = SeriesT(30, r) if series else PAdic(draw(st.sampled_from([3, 5, 7])))
    beta = build(backend).base_radius_exp
    lead = math.ceil(beta * r) - 1 - draw(st.integers(0, 4))
    w = [(Fraction(lead, r), draw(UNITS))]
    w += [(Fraction(k, r), c) for k, c in draw(st.dictionaries(
        st.integers(lead + 1, lead + 20 * r), UNITS, max_size=3)).items()]
    if series:
        backend = SeriesT(d * abs(w[0][0]) + 30, r)
    return build(backend), _value(backend, w)


@settings(max_examples=200)
@given(case=escaped_points())
def test_escaped_ray_map_matches_the_taylor_route(case):
    f, w = case
    assert w.valuation() < f.base_radius_exp
    assert polynomial.escaped_ray_map(f.degree, w.valuation()).lines == \
        f.segment_dynamics(w).lines


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
            assert img.exponent == 2 * q


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
    try:
        f = MarkedPolynomial.from_critical_data(marks, backend.scalar(draw(shared_rationals(p))))
    except NotTame:  # wild marks; test_tameness_matches_the_cluster_enumeration covers them
        assume(False)
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


@st.composite
def series_polynomials(draw):
    """The cubics of test_core's series trees: marks +-t^lead, b = t^b_exp."""
    ram_den = draw(st.integers(1, 3))
    lead, b_exp = (str(Fraction(draw(st.integers(lo * ram_den, hi * ram_den)), ram_den))
                   for lo, hi in ((-1, 1), (-5, 0)))
    return _series_cubic("20", ram_den, lead, b_exp)


class TestBaseExponentType:
    """The base exponent is an int exactly when it is integral, like every
    exponent of the exact core, and a Fraction otherwise."""

    @settings(max_examples=200)
    @given(f=st.one_of(polynomial_and_point().map(lambda case: case[0]), series_polynomials()))
    def test_an_int_exactly_when_integral(self, f):
        expected = min([Fraction(0)] + [Fraction(v, f.degree - i)
                                        for i, c in enumerate(f.coeffs[:-2])
                                        if (v := c.valuation()) != math.inf])
        assert f.base_radius_exp == expected
        assert type(f.base_radius_exp) is (int if expected.denominator == 1 else Fraction)

    @pytest.mark.parametrize("b_exp, expected", [("-4", F(-4, 3)), ("-3", -1), ("-6", -2)])
    def test_series_cubic(self, b_exp, expected):
        f = _series_cubic("30", 1, "-1", b_exp)
        assert f.base_radius_exp == expected and type(f.base_radius_exp) is type(expected)
