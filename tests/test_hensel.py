import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedyn import hensel
from tamedyn.errors import HypothesisViolated, MaxIterExceeded
from tamedyn.hensel import lift
from tamedyn.polynomial import poly_derivative, poly_eval
from tamedyn.valued_field import PAdic, SeriesT

Q3 = PAdic(3)


def F(*args):
    return Fraction(*args)


def poly(*coeffs, backend=Q3):
    return [backend.scalar(c) for c in coeffs]


class TestLift:
    @pytest.mark.parametrize("target", [0.1, True, "5"])
    def test_target_is_an_exact_rational(self, target):
        f = poly(0, 1, 1)
        with pytest.raises(TypeError, match="target must be an int or a Fraction"):
            lift(f, poly(27, 1, 1), Q3.scalar(0), target)

    def test_equal_polynomials_at_target_zero(self):
        f = poly(0, 1, 1)
        res = lift(f, f, Q3.scalar(3), target=0)
        assert res.value == Q3.scalar(3)
        assert res.iterations == ()
        assert res.certified_valuation == math.inf
        assert res.mu is None

    def test_reduction_beyond_the_target_is_no_stall(self):
        # v(f - g) = 20, so mu = 10, and v(f(x) - g(x)) = 24 < 25.  The one
        # Newton step gives residual valuation 48; reducing the iterate mod
        # 3^(25 + REDUCE_MARGIN) leaves 33 <= 24 + mu, which reaches the
        # target and is no stall of the iteration.
        x = F(1, 5)
        f = poly(0, 1, 1)
        g = poly(-3**20 * x + 3**24, 1 + 3**20, 1)
        res = lift(f, g, Q3.scalar(x), target=25)
        assert [step.residual_valuation for step in res.iterations] == [24]
        assert res.certified_valuation >= 25

    def test_identity_when_equal(self):
        f = poly(0, 1, 1)  # z^2 + z
        res = lift(f, f, Q3.scalar(0), target=20)
        assert res.value == Q3.scalar(0)
        assert res.iterations == ()
        assert res.certified_valuation == math.inf

    def test_spec_perturbation(self):
        f = poly(0, 1, 1)
        g = poly(27, 1, 1)  # f + 3^3
        res = lift(f, g, Q3.scalar(0), target=20)
        # first step is w_0 = -(f(0)-g(0))/f'(0) = 3^3
        assert res.iterations[0].w_valuation == 3
        assert res.certified_valuation >= 20
        assert res.displacement_valuation >= 3
        # certify independently
        fz = poly_eval(f, res.value, Q3.zero)
        gx = poly_eval(g, Q3.scalar(0), Q3.zero)
        assert (fz - gx).valuation() >= 20

    def test_per_step_quadratic_law(self):
        f = poly(0, 1, 1)
        g = poly(27, 1, 1)
        res = lift(f, g, Q3.scalar(0), target=40)
        ws = [st.w_valuation for st in res.iterations]
        for a, b in zip(ws, ws[1:]):
            assert b >= 2 * a  # unit derivative: exact doubling or better

    def test_trace_contractions(self):
        f = poly(1, 2, 0, 1)  # z^3 + 2z + 1, f' = 3z^2 + 2 unit at 0
        g = poly(1 + 81, 2, 0, 1)
        res = lift(f, g, Q3.scalar(0), target=36)
        mu = res.mu
        rs = [st.residual_valuation for st in res.iterations]
        for a, b in zip(rs, rs[1:]):
            assert b > a + mu
        assert res.certified_valuation >= 36

    def test_at_nonzero_points(self):
        f = poly(0, 1, 1)
        g = poly(27, 1, 1)
        for xval in (3, 9, F(1, 2)):  # f'(x) = 2x+1 is a unit at these
            res = lift(f, g, Q3.scalar(xval), target=24)
            assert res.certified_valuation >= 24
            assert res.displacement_valuation > 0

    def test_hypothesis_reduction_mismatch(self):
        f = poly(0, 1, 1)
        g = poly(1, 1, 1)  # constant differs by a unit
        with pytest.raises(HypothesisViolated) as e:
            lift(f, g, Q3.scalar(0), target=10)
        assert e.value.clause == 2

    def test_hypothesis_gauss_not_fixed(self):
        f = poly(0, F(1, 3), 1)
        with pytest.raises(HypothesisViolated) as e:
            lift(f, f, Q3.scalar(0), target=10)
        assert e.value.clause == 1

    def test_hypothesis_bad_derivative(self):
        f = poly(0, 3, 1)  # f' = 2z + 3: v(f'(0)) = 1
        g = poly(27, 3, 1)
        with pytest.raises(HypothesisViolated) as e:
            lift(f, g, Q3.scalar(0), target=10)
        assert e.value.clause == 3

    @pytest.mark.parametrize("where", ["g", "x"])
    @pytest.mark.parametrize("other", [PAdic(7), SeriesT(precision=24)])
    def test_hypothesis_one_backend(self, where, other):
        f = poly(0, 1, 1, backend=PAdic(5))
        g = poly(0, 1, 1, backend=other if where == "g" else PAdic(5))
        x = (other if where == "x" else PAdic(5)).scalar(0)
        with pytest.raises(HypothesisViolated) as e:
            lift(f, g, x, target=10)
        assert e.value.clause == "backend"

    def test_max_iter(self, monkeypatch):
        f = poly(0, 1, 1)
        g = poly(27, 1, 1)
        monkeypatch.setattr(hensel, "MAX_ITER", 1)
        with pytest.raises(MaxIterExceeded):
            lift(f, g, Q3.scalar(0), target=1000)

    def test_series_backend(self):
        qt = SeriesT(precision=24)
        f = [qt.scalar(0), qt.scalar(1), qt.scalar(1)]
        g = [qt.scalar(terms=[(3, 1)]), qt.scalar(1), qt.scalar(1)]
        res = lift(f, g, qt.scalar(0), target=20)
        assert res.certified_valuation >= 20

    def test_determinism(self):
        f = poly(0, 1, 1)
        g = poly(27, 1, 1)
        r1 = lift(f, g, Q3.scalar(0), target=20)
        r2 = lift(f, g, Q3.scalar(0), target=20)
        assert r1.value == r2.value and r1.iterations == r2.iterations


# -- drawn lifts: g = f + pi^k h ------------------------------------------------


@st.composite
def lift_cases(draw):
    """(f, g, x, target) with integral coefficients and f'(x) a unit."""
    if draw(st.booleans()):
        backend = PAdic(draw(st.sampled_from([3, 5, 7])))
        p = backend.p
        dens = st.sampled_from([m for m in range(1, 21) if m % p])
        integral = st.builds(lambda n, m: backend.scalar(F(n, m)), st.integers(-50, 50), dens)
        pi = backend.scalar(p)
        target = draw(st.integers(1, 40))
    else:
        ram_den = draw(st.integers(1, 2))
        backend = SeriesT(precision=40, ram_den=ram_den)
        terms = st.lists(st.tuples(st.integers(0, 3 * ram_den).map(lambda k: F(k, ram_den)),
                                   st.fractions(-9, 9, max_denominator=9)), max_size=3)
        integral = terms.map(lambda ts: backend.scalar(terms=ts))
        pi = backend.scalar(terms=[(F(1, ram_den), 1)])
        target = draw(st.integers(1, 30))
    degree = draw(st.integers(2, 4))
    fc = draw(st.lists(integral, min_size=degree + 1, max_size=degree + 1))
    h = draw(st.lists(integral, min_size=1, max_size=degree + 1))
    x = draw(integral)
    if poly_eval(poly_derivative(fc), x, backend.zero).valuation() > 0:
        fc[1] = fc[1] + backend.one  # adds 1 to f'(x)
    k = draw(st.integers(1, 4))
    gc = [c + pi ** k * hc for c, hc in zip(fc, h)] + fc[len(h):]
    return fc, gc, x, target


@settings(max_examples=150, deadline=None)
@given(lift_cases())
def test_drawn_lifts_contract_and_certify(case):
    fc, gc, x, target = case
    res = lift(fc, gc, x, target)
    for step in res.iterations:
        assert step.w_valuation == step.residual_valuation
    rs = [step.residual_valuation for step in res.iterations]
    for a, b in zip(rs, rs[1:]):
        assert b > a + res.mu
    assert res.certified_valuation >= target
    zero = fc[0].backend.zero
    assert (poly_eval(fc, res.value, zero) - poly_eval(gc, x, zero)).valuation() >= target


@settings(max_examples=100, deadline=None)
@given(lift_cases().filter(lambda case: isinstance(case[0][0].backend, PAdic)))
def test_padic_iterates_are_reduced_integers(case):
    fc, gc, x, target = case
    res = lift(fc, gc, x, target)
    if not res.iterations:
        assert res.value == x
        return
    value = res.value.rational
    assert value.denominator == 1
    assert 0 <= value < fc[0].backend.p ** (target + hensel.REDUCE_MARGIN)
