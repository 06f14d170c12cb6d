from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import multiplicity

from tamedyn.errors import (
    DivisionByZero,
    PrecisionExhausted,
    PreconditionViolated,
    RootUnavailable,
)
from tamedyn.valued_field import INF, PAdic, SeriesT, Val, int_valuation, nth_root_unit

Q3 = PAdic(3)
QT = SeriesT(precision=8, ram_den=2)


def F(*args):
    return Fraction(*args)


class TestVal:
    def test_ordering(self):
        assert Val(F(1, 2)) < Val(1) < INF
        assert max(Val(0), INF) == INF
        assert min(Val(-1), Val(F(-1, 2))) == Val(-1)

    def test_arithmetic(self):
        assert Val(1) + Val(F(1, 2)) == Val(F(3, 2))
        assert Val(3) - Val(1) == Val(2)
        assert (INF + Val(5)).is_infinite
        assert Val(F(1, 2)).scaled(4) == Val(2)
        with pytest.raises(ValueError):
            INF - INF


class TestValuation:
    def test_padic_examples(self):
        # v_3(1/3) = -1 by definition
        assert Q3.scalar(F(1, 3)).valuation() == Val(-1)
        assert Q3.scalar(0).valuation() == INF
        assert Q3.scalar(18).valuation() == Val(2)
        assert Q3.scalar(F(5, 7)).valuation() == Val(0)

    def test_series_examples(self):
        # order of the lowest term
        x = QT.scalar(terms=[(F(1, 2), 2), (1, 1)])
        assert x.valuation() == Val(F(1, 2))
        assert QT.zero.valuation() == INF


PRIMES = st.sampled_from([2, 3, 5, 7, 101])


class TestIntValuation:
    """int_valuation against sympy.multiplicity, an independent oracle."""

    @given(p=PRIMES, n=st.integers(min_value=-10**40, max_value=10**40).filter(bool))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, p, n):
        assert int_valuation(n, p) == multiplicity(p, abs(n))

    @given(p=PRIMES, e=st.integers(min_value=0, max_value=5000),
           u=st.integers(min_value=1, max_value=10**30), negative=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_large_valuations(self, p, e, u, negative):
        n = (-1 if negative else 1) * u * p ** e
        assert int_valuation(n, p) == multiplicity(p, abs(n)) == e + multiplicity(p, u)

    @given(p=PRIMES, e=st.integers(min_value=0, max_value=13))
    @settings(deadline=None)
    def test_powers_of_two_boundaries(self, p, e):
        # valuations 2^e - 1, 2^e and 2^e + 1 stop the squaring on either side
        for v in (2 ** e - 1, 2 ** e, 2 ** e + 1):
            assert int_valuation(p ** v * (p + 1), p) == v

    @given(p=PRIMES, u=st.integers(min_value=-10**12, max_value=10**12))
    def test_units(self, p, u):
        n = u * p + 1
        assert int_valuation(n, p) == 0

    def test_zero_rejected(self):
        for p in (2, 3, 101):
            with pytest.raises(ValueError):
                int_valuation(0, p)

    @given(p=PRIMES, q=st.fractions().filter(bool),
           scale=st.integers(min_value=-3000, max_value=3000))
    @settings(deadline=None)
    def test_fraction_valuation(self, p, q, scale):
        q = q * F(p) ** scale
        expected = multiplicity(p, abs(q.numerator)) - multiplicity(p, q.denominator)
        assert PAdic(p).scalar(q).valuation() == Val(expected)


class TestFieldOps:
    def test_padic_basic(self):
        x = Q3.scalar(F(1, 3))
        assert (x * Q3.scalar(3)) == Q3.one
        assert (x + Q3.scalar(F(2, 3))).valuation() == Val(0)

    def test_series_product(self):
        qt5 = SeriesT(precision=5)
        one_plus = qt5.scalar(terms=[(0, 1), (1, 1)])
        one_minus = qt5.scalar(terms=[(0, 1), (1, -1)])
        prod = one_plus * one_minus
        assert prod.terms == ((F(0), F(1)), (F(2), F(-1)))

    def test_series_truncation_and_precision_loss(self):
        qt = SeriesT(precision=3)
        t2 = qt.uniformizer_power(2)
        with pytest.raises(PrecisionExhausted):
            t2 * t2  # t^4 has no representable term below cutoff 3
        # cancellation to exact zero is fine
        assert (t2 - t2).is_zero

    def test_division(self):
        x = QT.scalar(terms=[(1, 1)])  # t
        y = QT.scalar(terms=[(0, 1), (1, 1)])  # 1 + t
        z = x / y
        # t/(1+t) = t - t^2 + t^3 - ...
        assert z.terms[:3] == ((F(1), F(1)), (F(2), F(-1)), (F(3), F(1)))
        with pytest.raises(DivisionByZero):
            x / QT.zero

    def test_integer_powers(self):
        x = Q3.scalar(F(2, 3))
        assert (x ** 3).rational == F(8, 27)
        assert (x ** -1).rational == F(3, 2)
        assert (x ** 0) == Q3.one


class TestUltrametric:
    @given(
        a=st.fractions(max_denominator=50),
        b=st.fractions(max_denominator=50),
    )
    @settings(max_examples=150, deadline=None)
    def test_padic_value_axioms(self, a, b):
        x, y = Q3.scalar(a), Q3.scalar(b)
        vx, vy = x.valuation(), y.valuation()
        assert (x * y).valuation() == vx + vy
        vsum = (x + y).valuation()
        assert vsum >= min(vx, vy)
        if vx != vy:
            assert vsum == min(vx, vy)

    @given(
        e1=st.integers(min_value=0, max_value=4),
        c1=st.fractions(max_denominator=10),
        e2=st.integers(min_value=0, max_value=4),
        c2=st.fractions(max_denominator=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_series_value_axioms(self, e1, c1, e2, c2):
        qt = SeriesT(precision=12)
        x = qt.scalar(terms=[(e1, c1), (e1 + 1, 1)])
        y = qt.scalar(terms=[(e2, c2), (e2 + 2, 3)])
        vx, vy = x.valuation(), y.valuation()
        assert (x * y).valuation() == vx + vy
        vsum = (x + y).valuation()
        assert vsum >= min(vx, vy)
        if vx != vy:
            assert vsum == min(vx, vy)


class TestNthRootUnit:
    def test_identity_index(self):
        u = Q3.scalar(F(7, 5))
        # n = 1 returns u even without the unit-closeness precondition bite
        assert nth_root_unit(Q3.scalar(4), 1) == Q3.scalar(4)

    def test_padic_square_root(self):
        u = Q3.scalar(1 + 3)
        w = nth_root_unit(u, 2, precision=6)
        # checked by squaring: the oracle is independent of the Newton path
        assert (w * w - u).valuation() >= Val(6)
        assert (w - Q3.one).valuation() >= Val(1)

    def test_padic_higher_roots(self):
        u = Q3.scalar(F(1 + 2 * 27, 1))
        w = nth_root_unit(u, 4, precision=12)
        assert (w ** 4 - u).valuation() >= Val(12)

    def test_root_unavailable(self):
        u = Q3.scalar(4)
        with pytest.raises(RootUnavailable):
            nth_root_unit(u, 3)

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            nth_root_unit(Q3.scalar(2), 2)  # v(2-1) = 0

    def test_series_binomial(self):
        qt = SeriesT(precision=6)
        u = qt.scalar(terms=[(0, 1), (1, 1)])  # 1 + t
        w = nth_root_unit(u, 2)
        # binomial series 1 + t/2 - t^2/8 + ..., verified coefficient-wise
        assert w.terms[0] == (F(0), F(1))
        assert w.terms[1] == (F(1), F(1, 2))
        assert w.terms[2] == (F(2), F(-1, 8))
        assert (w * w - u).is_zero

    def test_series_ramified(self):
        w = nth_root_unit(QT.scalar(terms=[(0, 1), (F(1, 2), 1)]), 3)
        assert (w ** 3 - QT.scalar(terms=[(0, 1), (F(1, 2), 1)])).is_zero


def test_determinism():
    u = Q3.scalar(1 + 3 ** 2)
    assert nth_root_unit(u, 2, precision=20) == nth_root_unit(u, 2, precision=20)
