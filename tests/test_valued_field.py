import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, QQ, Rational, isprime, multiplicity, nextprime, symbols

from tamedyn.errors import (
    DivisionByZero,
    PrecisionExhausted,
    PreconditionViolated,
    RootUnavailable,
)
from tamedyn.valued_field import (
    INF,
    PRIME_BOUND,
    PAdic,
    SeriesT,
    Val,
    int_valuation,
    is_prime,
    nth_root_unit,
)

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
    @settings(max_examples=300)
    def test_matches_oracle(self, p, n):
        assert int_valuation(n, p) == multiplicity(p, abs(n))

    @given(p=PRIMES, e=st.integers(min_value=0, max_value=5000),
           u=st.integers(min_value=1, max_value=10**30), negative=st.booleans())
    @settings(max_examples=100)
    def test_large_valuations(self, p, e, u, negative):
        n = (-1 if negative else 1) * u * p ** e
        assert int_valuation(n, p) == multiplicity(p, abs(n)) == e + multiplicity(p, u)

    @given(p=PRIMES, e=st.integers(min_value=0, max_value=13))
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
    def test_fraction_valuation(self, p, q, scale):
        q = q * F(p) ** scale
        expected = multiplicity(p, abs(q.numerator)) - multiplicity(p, q.denominator)
        assert PAdic(p).scalar(q).valuation() == Val(expected)


# composites that pass Fermat or Miller-Rabin tests to some prime bases: a
# Carmichael number (a Fermat pseudoprime to every base prime to it), and
# strong pseudoprimes to the bases 2..7, 2..31 and 2..37 (only base 41
# exposes the last)
PSEUDOPRIMES = [561, 3215031751, 3825123056546413051, 318665857834031151167461]
BELOW_BOUND = st.integers(min_value=2, max_value=PRIME_BOUND - 1)
LARGE_PRIMES = BELOW_BOUND.map(nextprime).filter(lambda n: n < PRIME_BOUND)


class TestIsPrime:
    """Miller-Rabin to the bases 2..41 against sympy.isprime."""

    @given(n=st.one_of(st.integers(min_value=-10, max_value=10**5), BELOW_BOUND,
                       LARGE_PRIMES, st.sampled_from(PSEUDOPRIMES),
                       st.tuples(LARGE_PRIMES, LARGE_PRIMES).map(lambda ab: ab[0] * ab[1])
                       .filter(lambda n: n < PRIME_BOUND)))
    @settings(max_examples=300)
    def test_matches_oracle(self, n):
        assert is_prime(n) == isprime(n)

    def test_pseudoprimes_are_composite(self):
        assert not any(is_prime(n) for n in PSEUDOPRIMES)

    def test_large_prime_backend(self):
        assert PAdic(10**18 + 3).p == 10**18 + 3

    def test_undecided_from_the_bound(self):
        # the bound itself is a strong pseudoprime to all thirteen bases
        with pytest.raises(ValueError):
            is_prime(PRIME_BOUND)
        with pytest.raises(ValueError):
            PAdic(PRIME_BOUND)


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
        t2 = qt.scalar(terms=[(2, 1)])
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
    @settings(max_examples=150)
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
    @settings(max_examples=100)
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


X = symbols("X")


def _sympy_poly(terms: dict[int, Fraction]):
    """A series sum c t^(k/r) as (Poly in X = t^(1/r) over QQ, lowest index k)."""
    low = min(terms)
    coeffs = {(k - low,): Rational(c.numerator, c.denominator) for k, c in terms.items()}
    return Poly.from_dict(coeffs, X, domain=QQ), low


def _oracle_terms(poly, shift: int, r: int, cutoff: Fraction):
    """The terms of X^shift * poly below the cutoff, as sorted (exponent, coeff) pairs."""
    return tuple(sorted(
        (Fraction(deg + shift, r), Fraction(int(c.p), int(c.q)))
        for (deg,), c in poly.terms()
        if c != 0 and Fraction(deg + shift, r) < cutoff
    ))


def _series(r: int, cutoff: Fraction, terms: dict[int, Fraction]):
    return SeriesT(cutoff, r).scalar(terms=[(Fraction(k, r), c) for k, c in terms.items()])


COEFFS = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 25)),
).filter(bool)


@st.composite
def series_terms(draw, r: int, top: int):
    """Index -> coefficient of one operand: indices k (exponent k/r) from -8r
    to top, sparse (a few anywhere) or dense (a run of consecutive indices)."""
    low = -8 * r
    if draw(st.booleans()):
        return draw(st.dictionaries(st.integers(low, top), COEFFS, min_size=1, max_size=6))
    start = draw(st.integers(low, top))
    stop = min(top, start + draw(st.integers(0, 30)))
    return {k: draw(COEFFS) for k in range(start, stop + 1)}


@st.composite
def series_pairs(draw, near_cutoff=False):
    """(r, cutoff, a, b): ram_den 1-3, a positive cutoff that need not be a
    multiple of 1/r, and two nonzero operands below it.  With near_cutoff
    the lowest exponents of a and b sum to within 2/r of the cutoff."""
    r = draw(st.integers(1, 3))
    cutoff = draw(st.fractions(min_value=Fraction(1, 5), max_value=10, max_denominator=7))
    top = math.ceil(cutoff * r) - 1  # the highest index below the cutoff
    a, b = draw(series_terms(r, top)), draw(series_terms(r, top))
    if near_cutoff:
        ka = draw(st.integers(-1, top))
        kb = min(top, top + 1 - ka + draw(st.integers(-2, 1)))
        a = {k: c for k, c in a.items() if k > ka} | {ka: draw(COEFFS)}
        b = {k: c for k, c in b.items() if k > kb} | {kb: draw(COEFFS)}
    return r, cutoff, a, b


class TestSeriesArithmeticOracle:
    """Series * and + against sympy polynomial arithmetic over Q in X = t^(1/r),
    an independent oracle."""

    @given(case=st.one_of(series_pairs(), series_pairs(near_cutoff=True)))
    @settings(max_examples=150)
    def test_product(self, case):
        r, cutoff, a, b = case
        x, y = _series(r, cutoff, a), _series(r, cutoff, b)
        (pa, sa), (pb, sb) = _sympy_poly(a), _sympy_poly(b)
        if Fraction(sa + sb, r) >= cutoff:
            # the two lowest exponents sum to the cutoff or beyond
            with pytest.raises(PrecisionExhausted):
                x * y
        else:
            assert (x * y).terms == _oracle_terms(pa * pb, sa + sb, r, cutoff)

    @given(case=series_pairs(), cancel=st.booleans())
    @settings(max_examples=150)
    def test_sum(self, case, cancel):
        r, cutoff, a, b = case
        if cancel:  # b takes -a's coefficient at the indices they share
            b = {k: -a.get(k, -c) for k, c in b.items()}
        (pa, sa), (pb, sb) = _sympy_poly(a), _sympy_poly(b)
        low = min(sa, sb)
        expected = _oracle_terms(pa * Poly(X ** (sa - low), X, domain=QQ)
                                 + pb * Poly(X ** (sb - low), X, domain=QQ), low, r, cutoff)
        assert (_series(r, cutoff, a) + _series(r, cutoff, b)).terms == expected

    @given(r=st.integers(1, 3), bits_a=st.integers(3, 60), length_bits=st.integers(2, 4),
           spare=st.integers(0, 7),
           signs=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
           start_a=st.integers(-6, 3), start_b=st.integers(-6, 3))
    @settings(max_examples=100)
    def test_product_digits_at_the_slot_boundary(self, r, bits_a, length_bits, spare, signs,
                                                  start_a, start_b):
        # Dense operands of length L = 2^j - 1 (j >= 2) with every coefficient
        # +-(2^m - 1) (m >= 3, all bits set, one sign per operand): the middle
        # digit of the product, L (2^m_a - 1)(2^m_b - 1), has m_a + m_b + j
        # bits, one below the slot width m_a + m_b + j + 1.  With that width
        # a whole number of bytes (spare = 0) the digit sets the highest bit
        # below the sign bit, as close to the boundary +-(2^(w-1) - 1) as
        # the width bound lets any digit come; the other byte alignments
        # make a slot one bit (or bits(L) bits) narrower than the bound a
        # whole byte narrower.
        length = (1 << length_bits) - 1
        bits_b = (spare - bits_a - length_bits - 1) % 8
        bits_b += 8 if bits_b < 3 else 0
        top = max(start_a + start_b + 2 * length, start_a + length, start_b + length, 1)
        cutoff = Fraction(top, r)
        a = {start_a + i: Fraction(signs[0] * ((1 << bits_a) - 1)) for i in range(length)}
        b = {start_b + i: Fraction(signs[1] * ((1 << bits_b) - 1)) for i in range(length)}
        product = (_series(r, cutoff, a) * _series(r, cutoff, b)).terms
        (pa, sa), (pb, sb) = _sympy_poly(a), _sympy_poly(b)
        assert product == _oracle_terms(pa * pb, sa + sb, r, cutoff)
        middle = product[length - 1][1]
        assert middle == signs[0] * signs[1] * length * ((1 << bits_a) - 1) * ((1 << bits_b) - 1)
        assert abs(middle).numerator.bit_length() == bits_a + bits_b + length_bits


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
