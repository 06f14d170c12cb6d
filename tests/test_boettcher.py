import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedyn import valued_field
from tamedyn.boettcher import phi_eval, rho_closeness
from tamedyn.errors import NotComparable, NotOutsideBaseDisk, NotTame
from tamedyn.polynomial import MarkedPolynomial
from tamedyn.valued_field import PAdic, SeriesT, nth_root_unit


def F(*args):
    return Fraction(*args)


Q3 = PAdic(3)


def quad(b):
    return MarkedPolynomial.from_critical_data([(Q3.scalar(0), 2)], Q3.scalar(b))


QUAD = quad(F(-1, 3))


class TestPhiEval:
    def test_monomial_identity(self):
        qt = SeriesT(precision=12)
        f = MarkedPolynomial.from_critical_data([(qt.scalar(0), 2)], qt.scalar(0))
        z = qt.scalar(terms=[(-1, 1)])  # 1/t
        assert phi_eval(f, z, 10) == z

    def test_monomial_identity_padic(self):
        f = quad(0)
        z = Q3.scalar(F(1, 9))
        assert phi_eval(f, z, 30) == z

    def test_functional_equation_residual(self):
        # the residual vanishes for the true values; computing both sides
        # at precision P + (d-1)|v(z)| certifies it at valuation P
        f = QUAD
        for z in (Q3.scalar(F(1, 3)), Q3.scalar(F(2, 3)), Q3.scalar(F(1, 27))):
            prec = 20 + (f.degree - 1) * max(0, -z.valuation())
            lhs = phi_eval(f, f(z), prec)
            rhs = phi_eval(f, z, prec)
            assert (lhs - rhs * rhs).valuation() >= 20

    def test_modulus_agreement(self):
        f = QUAD
        for z in (Q3.scalar(F(1, 3)), Q3.scalar(F(5, 9))):
            assert phi_eval(f, z, 25).valuation() == z.valuation()

    def test_asymptotic_to_identity(self):
        f = QUAD
        for z in (Q3.scalar(F(1, 3)), Q3.scalar(F(2, 9))):
            phi = phi_eval(f, z, 25)
            assert (phi / z - Q3.one).valuation() > 0

    def test_precision_scaling(self):
        f = QUAD
        z = Q3.scalar(F(1, 3))
        lo = phi_eval(f, z, 10)
        hi = phi_eval(f, z, 40)
        assert (lo - hi).valuation() >= 10

    def test_requires_outside_base_disk(self):
        with pytest.raises(NotOutsideBaseDisk):
            phi_eval(QUAD, Q3.scalar(1), 10)  # |1| = 1 < 3^(1/2)

    def test_wild_degree_rejected(self):
        # p | d makes the base disk a wild cluster of degree d, so no
        # polynomial reaching phi_eval has p | d
        Q2 = PAdic(2)
        with pytest.raises(NotTame):
            MarkedPolynomial.from_critical_data([(Q2.scalar(0), 2)], Q2.scalar(F(1, 2)))

    @pytest.mark.parametrize("precision", [0.1, 10.0, True, False])
    def test_float_or_bool_precision_is_refused(self, precision):
        # True ran at precision 1 and 0.1 at the binary fraction Fraction(0.1)
        f = quad(F(-1, 3))
        with pytest.raises(TypeError, match="precision must be an int or a Fraction"):
            phi_eval(f, Q3.scalar(F(1, 3)), precision)
        assert not f._phi

    def test_series_backend(self):
        qt = SeriesT(precision=14)
        f = MarkedPolynomial.from_critical_data(
            [(qt.scalar(0), 2)], qt.scalar(terms=[(-1, -1)])
        )  # z^2 - 1/t
        z = qt.scalar(terms=[(-1, 1)])
        phi = phi_eval(f, z, 10)
        lhs = phi_eval(f, f(z), 10)
        assert (lhs - phi * phi).valuation() >= 10


SMALL_RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 5, 7, 9, 25]))


@st.composite
def escaping_points(draw):
    """(f, w): z^d + b over PAdic(3|5|7|11) for d = 2 or 4, or a cubic over
    PAdic(5|7) with marks +-c, and a point w = u p^k strictly outside its base disk."""
    degree = draw(st.sampled_from([2, 3, 4]))
    p = draw(st.sampled_from([5, 7] if degree == 3 else [3, 5, 7, 11]))
    backend = PAdic(p)
    c = draw(SMALL_RATIONALS.filter(bool)) if degree == 3 else F(0)
    marks = [(backend.scalar(0), degree)] if degree != 3 else [(backend.scalar(c), 2),
                                                               (backend.scalar(-c), 2)]
    f = MarkedPolynomial.from_critical_data(marks, backend.scalar(draw(SMALL_RATIONALS)))
    k = math.ceil(f.base_radius_exp) - draw(st.integers(1, 3))
    u = draw(st.integers(-50, 50).filter(lambda n: n % p))
    return f, backend.scalar(u * F(p) ** k)


@settings(max_examples=60, deadline=None)
@given(case=escaping_points(), precision=st.sampled_from([7, 30, F(61, 2)]))
def test_phi_eval_is_certified_at_its_precision(case, precision):
    # each root is taken modulo p^ceil(rel_target): for p not dividing the
    # root index the root map on 1-units is an isometry, so no margin is needed
    f, w = case
    coarse = phi_eval(f, w, precision)
    fine = phi_eval(f, w, 2 * precision + 5)
    assert (coarse - fine).valuation() >= precision


def product_phi(f, z, precision):
    """phi(z) as the Böttcher product of the module docstring, one root per
    factor f^(n+1)(z) / f^n(z)^d over the same factor count: the oracle of
    the one-root form that phi_eval takes over PAdic."""
    d, base, v0 = f.degree, f.base_radius_exp, z.valuation()
    rel_target = precision - v0
    phi = w = z
    n = 0
    while 2 * (base - d ** n * v0) < rel_target:
        fw = f(w)
        phi = phi * nth_root_unit(fw / w ** d, d ** (n + 1), precision=rel_target)
        w, n = fw, n + 1
    return phi


@settings(max_examples=80)
@given(case=escaping_points(), precision=st.sampled_from([7, 30, F(61, 2)]))
def test_one_root_equals_the_product_of_roots(case, precision):
    # over PAdic the factors telescope: the product of N roots and the one
    # root of f^N(z)/z^(d^N) agree modulo p^ceil(rel_target)
    f, w = case
    assert (phi_eval(f, w, precision) - product_phi(f, w, precision)).valuation() >= precision


@pytest.mark.parametrize("z, precision, factors", [(F(1, 3), 25, 4), (F(2, 9), 25, 3)])
def test_padic_coordinate_takes_one_root(monkeypatch, z, precision, factors):
    calls = []
    root = valued_field._padic_nth_root_unit
    monkeypatch.setattr(valued_field, "_padic_nth_root_unit",
                        lambda *args: calls.append(args[1]) or root(*args))
    f = quad(F(-1, 3))
    z = Q3.scalar(z)
    product_phi(f, z, precision)
    assert calls == [2 ** (n + 1) for n in range(factors)]  # the oracle: one root per factor
    calls.clear()
    phi_eval(f, z, precision)
    phi_eval(f, z, precision)  # kept on the polynomial
    assert calls == [2 ** factors]


class TestRhoCloseness:
    def test_identical(self):
        rb = rho_closeness(QUAD, QUAD, precision=20)
        assert rb.rho_exp == math.inf

    def test_perturbed_pair(self):
        g = quad(F(-1, 3) + 3 ** 5)
        rb = rho_closeness(QUAD, g, precision=20)
        # frozen from the oracle run: the coordinates differ at valuation
        # gap 6 relative to the first-exit value (v = -1, diff at v = 5)
        assert rb.rho_exp == 6

    def test_zero_rho_for_direction_mismatch(self):
        g = quad(F(-2, 3))
        rb = rho_closeness(QUAD, g, precision=20)
        assert rb.rho_exp == 0

    def test_base_point_mismatch(self):
        with pytest.raises(NotComparable):
            rho_closeness(QUAD, quad(0), precision=20)

    def test_escape_pattern_mismatch(self):
        qt = SeriesT(precision=16)
        c1 = qt.scalar(terms=[(-1, 1)])
        c2 = qt.scalar(terms=[(-1, -1)])
        marks = [(c1, 2), (c2, 2)]
        # first critical point bounded (lands on a repelling fixed point)
        f = MarkedPolynomial.from_critical_data(
            marks, qt.scalar(terms=[(-3, 2), (-1, -2)])
        )
        # both critical points escape at the first step, same base exponent
        g = MarkedPolynomial.from_critical_data(
            marks, qt.scalar(terms=[(-3, 4)])
        )
        assert f.base_radius_exp == g.base_radius_exp
        with pytest.raises(NotComparable):
            rho_closeness(f, g, precision=10)

    def test_refinement_under_precision(self):
        g = quad(F(-1, 3) + 3 ** 5)
        lo = rho_closeness(QUAD, g, precision=12)
        hi = rho_closeness(QUAD, g, precision=30)
        assert lo.rho_exp == hi.rho_exp == 6

    def test_no_escaping_marks_is_infinite(self):
        f, g = quad(0), quad(-1)
        # no escaping critical points on either side: nothing to compare
        assert rho_closeness(f, quad(0), precision=10).rho_exp == math.inf
        assert rho_closeness(f, g, precision=10).rho_exp == math.inf

    @pytest.mark.parametrize("precision", [0.5, 20.0, True])
    def test_float_or_bool_precision_is_refused_before_any_orbit_work(self, precision):
        f, g = quad(F(-1, 3)), quad(F(-1, 3) + 3 ** 5)
        with pytest.raises(TypeError, match="precision must be an int or a Fraction"):
            rho_closeness(f, g, precision=precision)
        assert not f._records and not f._orbits and not g._records and not g._orbits


@pytest.mark.parametrize("fn", [phi_eval, rho_closeness, nth_root_unit])
def test_precision_is_required(fn):
    # the conjugacy check works at conjugacy.PRECISION; no second default
    assert inspect.signature(fn).parameters["precision"].default is inspect.Parameter.empty
