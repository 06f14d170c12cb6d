"""Exact arithmetic in the two supported valued fields.

Backends:

* ``PAdic(p)`` — rational numbers carrying the p-adic valuation.  The
  value group of representable scalars is Z.
* ``SeriesT(precision, ram_den)`` — truncated Puiseux series over Q in
  the variable t, with the t-adic order as valuation.  Exponents are
  rationals whose denominator divides ``ram_den``; every result is
  truncated to exponents strictly below ``precision`` (arithmetic modulo
  the truncation ideal).  This models a residue-characteristic-0 field,
  so every polynomial over it is tame.  A product is one big-integer
  multiplication (Kronecker substitution, see ``_series_product``) and a
  sum one merge of the two sorted term tuples.

Absolute values are never materialized: |x| = base^(-v(x)) is carried
around as the exact rational exponent v(x), wrapped in :class:`Val`.
Larger valuation means smaller absolute value; ``Val.INFINITY`` is the
valuation of 0.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Union

from tamedyn.errors import (
    DivisionByZero,
    PrecisionExhausted,
    PreconditionViolated,
    RootUnavailable,
)

Rat = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 and later
    coprime_fraction = Fraction._from_coprime_ints
else:
    def coprime_fraction(n: int, d: int) -> Fraction:
        """n/d for coprime ints n and d > 0, built without running gcd again."""
        return Fraction(n, d, _normalize=False)


def int_valuation(n: int, p: int) -> int:
    """Largest e with p^e | n, for n != 0.

    A unit costs one ``n % p``.  Otherwise the cost is O(log e) big-integer
    divisions, not e: divide n by p, p^2, p^4, ... while each divides; what
    is left of e is then below the exponent of the first power that did not
    divide, and its binary digits are taken from the top, one division each.
    """
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if n % p:
        return 0
    powers = [p]  # powers[k] = p^(2^k)
    v = 0
    while True:
        q, r = divmod(n, powers[-1])
        if r:
            break
        n = q
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for k in range(len(powers) - 2, -1, -1):
        q, r = divmod(n, powers[k])
        if r == 0:
            n = q
            v += 1 << k
    return v


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@functools.total_ordering
class Val:
    """Additive valuation value: an exact rational or infinity.

    Ordered with infinity as the unique maximum.  Supports addition,
    subtraction and scaling by exact rationals, with the usual
    conventions (inf + finite = inf); inf - inf is rejected.
    """

    __slots__ = ("_q",)

    def __init__(self, q: Rat | None):
        self._q = None if q is None else _as_fraction(q)

    @property
    def is_infinite(self) -> bool:
        return self._q is None

    @property
    def finite(self) -> Fraction:
        if self._q is None:
            raise ValueError("infinite valuation has no finite value")
        return self._q

    def __eq__(self, other):
        if not isinstance(other, Val):
            return NotImplemented
        return self._q == other._q

    def __lt__(self, other):
        if not isinstance(other, Val):
            return NotImplemented
        if self._q is None:
            return False
        if other._q is None:
            return True
        return self._q < other._q

    def __hash__(self):
        return hash(self._q)

    def __add__(self, other):
        o = other._q if isinstance(other, Val) else _as_fraction(other)
        if self._q is None or o is None:
            return INF
        return Val(self._q + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = other._q if isinstance(other, Val) else _as_fraction(other)
        if self._q is None and o is None:
            raise ValueError("inf - inf is undefined")
        if self._q is None:
            return INF
        if o is None:
            raise ValueError("finite - inf is undefined")
        return Val(self._q - o)

    def scaled(self, factor: Rat) -> "Val":
        if self._q is None:
            return INF
        return Val(self._q * _as_fraction(factor))

    def __repr__(self):
        return "Val(inf)" if self._q is None else f"Val({self._q})"

    def __str__(self):
        return "inf" if self._q is None else str(self._q)


INF = Val(None)


class PAdic:
    """Backend: Q with the p-adic valuation."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PAdic) and other.p == self.p

    def __hash__(self):
        return hash(("padic", self.p))

    def __repr__(self):
        return f"PAdic({self.p})"

    @property
    def residue_char(self) -> int:
        return self.p

    def scalar(self, value) -> "Scalar":
        return Scalar(self, rational=_as_fraction(value))

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    def uniformizer_power(self, exponent: Rat) -> "Scalar":
        """p^exponent; exponent must be an integer (value group is Z)."""
        e = _as_fraction(exponent)
        if e.denominator != 1:
            raise ValueError(f"p^{e} is not representable over the rationals")
        return self.scalar(Fraction(self.p) ** int(e))

    def in_value_group(self, q: Fraction) -> bool:
        return q.denominator == 1


class SeriesT:
    """Backend: truncated Puiseux series over Q with t-adic valuation."""

    __slots__ = ("precision", "ram_den")

    def __init__(self, precision: Rat, ram_den: int = 1):
        precision = _as_fraction(precision)
        if precision <= 0:
            raise ValueError("precision cutoff must be positive")
        if ram_den < 1:
            raise ValueError("ramification denominator must be >= 1")
        self.precision = precision
        self.ram_den = ram_den

    def __eq__(self, other):
        return (
            isinstance(other, SeriesT)
            and other.precision == self.precision
            and other.ram_den == self.ram_den
        )

    def __hash__(self):
        return hash(("series", self.precision, self.ram_den))

    def __repr__(self):
        return f"SeriesT(precision={self.precision}, ram_den={self.ram_den})"

    @property
    def residue_char(self) -> int:
        return 0

    def _check_exponent(self, e: Fraction):
        if self.ram_den % e.denominator != 0:
            raise ValueError(
                f"exponent {e} has denominator not dividing ram_den={self.ram_den}"
            )

    def scalar(self, value=0, terms: Iterable[tuple[Rat, Rat]] | None = None) -> "Scalar":
        """Build a series scalar from a constant or from (exponent, coeff) pairs."""
        if terms is None:
            c = _as_fraction(value)
            terms = [] if c == 0 else [(Fraction(0), c)]
        acc: dict[Fraction, Fraction] = {}
        for e, c in terms:
            e = _as_fraction(e)
            c = _as_fraction(c)
            self._check_exponent(e)
            if c != 0 and e < self.precision:
                acc[e] = acc.get(e, Fraction(0)) + c
        tup = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        return Scalar(self, terms=tup)

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    @property
    def t(self) -> "Scalar":
        return self.scalar(terms=[(1, 1)])

    def uniformizer_power(self, exponent: Rat) -> "Scalar":
        return self.scalar(terms=[(_as_fraction(exponent), 1)])

    def in_value_group(self, q: Fraction) -> bool:
        return self.ram_den % q.denominator == 0


Backend = Union[PAdic, SeriesT]


class Scalar:
    """An exact element of the backend field.

    Immutable.  PAdic scalars hold a Fraction; SeriesT scalars hold a
    sorted tuple of (exponent, coefficient) pairs with nonzero rational
    coefficients and exponents strictly below the cutoff.  Series
    arithmetic keeps the tuple sorted without sorting: ``+`` merges the two
    tuples and ``*`` reads the product's coefficients in exponent order from
    one big-integer product.
    """

    __slots__ = ("backend", "_rat", "_terms")

    def __init__(self, backend: Backend, rational: Fraction | None = None,
                 terms: tuple[tuple[Fraction, Fraction], ...] | None = None):
        self.backend = backend
        self._rat = rational
        self._terms = terms

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        if self._rat is not None:
            return self._rat == 0
        return not self._terms

    @property
    def rational(self) -> Fraction:
        if self._rat is None:
            raise TypeError("not a PAdic scalar")
        return self._rat

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        if self._terms is None:
            raise TypeError("not a SeriesT scalar")
        return self._terms

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.backend == other.backend
            and self._rat == other._rat
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.backend, self._rat, self._terms))

    def __repr__(self):
        if self._rat is not None:
            return f"Scalar({self._rat})"
        body = " + ".join(f"({c})*t^({e})" for e, c in self._terms) or "0"
        return f"Scalar({body})"

    def _require_same_backend(self, other: "Scalar"):
        if self.backend != other.backend:
            raise TypeError("mixed backends")

    # -- valuation ----------------------------------------------------

    def valuation(self) -> Val:
        if self._rat is not None:
            q = self._rat
            if q == 0:
                return INF
            p = self.backend.p
            return Val(int_valuation(q.numerator, p) - int_valuation(q.denominator, p))
        if not self._terms:
            return INF
        return Val(self._terms[0][0])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        self._require_same_backend(other)
        if self._rat is not None:
            return Scalar(self.backend, rational=self._rat + other._rat)
        return Scalar(self.backend, terms=_merge_sum(self._terms, other._terms))

    def __neg__(self) -> "Scalar":
        if self._rat is not None:
            return Scalar(self.backend, rational=-self._rat)
        return Scalar(self.backend, terms=tuple((e, -c) for e, c in self._terms))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._require_same_backend(other)
        if self._rat is not None:
            return Scalar(self.backend, rational=self._rat * other._rat)
        if not self._terms or not other._terms:
            return self.backend.zero
        return Scalar(self.backend, terms=_series_product(self.backend, self._terms, other._terms))

    def _series_inverse(self) -> "Scalar":
        e0, c0 = self._terms[0]
        backend = self.backend
        # x = c0 t^e0 (1 + h), v(h) > 0: invert the unit via 1/(1+h) = sum (-h)^k.
        lead_inv = backend.scalar(terms=[(-e0, 1 / c0)])
        h_terms = tuple((e - e0, c / c0) for e, c in self._terms[1:] if e - e0 < backend.precision)
        h = Scalar(backend, terms=h_terms)
        acc = backend.one
        if not h.is_zero:
            term = backend.one
            neg_h = -h
            while True:
                try:
                    term = term * neg_h
                except PrecisionExhausted:
                    break
                if term.is_zero:
                    break
                acc = acc + term
        return lead_inv * acc

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._require_same_backend(other)
        if other.is_zero:
            raise DivisionByZero("division by zero")
        if self._rat is not None:
            return Scalar(self.backend, rational=self._rat / other._rat)
        if self.is_zero:
            return self.backend.zero
        return self * other._series_inverse()

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("only integer powers")
        if n < 0:
            return (self.backend.one / self) ** (-n)
        result = self.backend.one
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            base_needed = e > 1
            if base_needed:
                base = base * base
            e >>= 1
        return result

    def scale(self, q: Rat) -> "Scalar":
        """Multiply by an exact rational constant."""
        q = _as_fraction(q)
        if self._rat is not None:
            return Scalar(self.backend, rational=self._rat * q)
        if q == 0:
            return self.backend.zero
        return Scalar(self.backend, terms=tuple((e, c * q) for e, c in self._terms))

    # -- p-adic representative reduction --------------------------------

    def mod_reduce(self, exponent: int) -> "Scalar":
        """A congruent scalar mod p^exponent with small height (PAdic only).

        Requires valuation >= 0.  Used to stop doubly-exponential digit
        growth in Newton/Hensel iterations; the result is an integer
        representative in [0, p^exponent).
        """
        if self._rat is None:
            return self
        p = self.backend.p
        q = self._rat
        if q == 0:
            return self
        if int_valuation(q.denominator, p) != 0:
            raise PreconditionViolated("mod_reduce needs a p-integral scalar")
        m = p ** exponent
        value = q.numerator * pow(q.denominator, -1, m) % m
        return Scalar(self.backend, rational=Fraction(value))


def _merge_sum(a: tuple, b: tuple) -> tuple:
    """The sum of two sorted series term tuples, merged in one pass."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ea, ca = a[i]
        eb, cb = b[j]
        if ea < eb:
            out.append(a[i])
            i += 1
        elif eb < ea:
            out.append(b[j])
            j += 1
        else:
            c = ca + cb
            if c:
                out.append((ea, c))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _integral(terms: tuple, ram_den: int, k0: int, slots: int):
    """The terms c*t^e of a series with index i = e*ram_den - k0 below `slots`,
    as (indices, numerators n, common denominator D) with c = n/D."""
    indices, coeffs = [], []
    for e, c in terms:
        i = e.numerator * (ram_den // e.denominator) - k0
        if i >= slots:
            break
        indices.append(i)
        coeffs.append(c)
    den = math.lcm(*(c.denominator for c in coeffs))
    return indices, [c.numerator * (den // c.denominator) for c in coeffs], den


def _pack(indices: list, nums: list, nbytes: int) -> int:
    """sum n * 2^(8*nbytes*i): the numerators in slots of `nbytes` bytes."""
    pos = bytearray(nbytes * (indices[-1] + 1))
    neg = bytearray(len(pos))
    for i, n in zip(indices, nums):
        if n > 0:
            pos[i * nbytes:(i + 1) * nbytes] = n.to_bytes(nbytes, "little")
        else:
            neg[i * nbytes:(i + 1) * nbytes] = (-n).to_bytes(nbytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _series_product(backend: SeriesT, a: tuple, b: tuple) -> tuple:
    """The terms of a*b below the cutoff, for nonzero series a and b.

    Kronecker substitution: with r = ram_den, each operand becomes an
    integer polynomial in X = t^(1/r) (exponents shifted by the lowest, the
    coefficients over one common denominator) and is packed into one big
    int by X = 2^w; a single big-int multiplication then gives every
    coefficient of the product as one w-bit slot.  Each coefficient is a
    sum of at most min(len a, len b) products n_a * n_b, so with w >=
    bits(max |n_a|) + bits(max |n_b|) + bits(min(len a, len b)) + 1 it lies
    strictly inside +-2^(w-1) and its slot holds it as a balanced signed
    digit.  Truncation at the cutoff is reading only the slots below it.
    """
    r = backend.ram_den
    ka0 = a[0][0].numerator * (r // a[0][0].denominator)
    kb0 = b[0][0].numerator * (r // b[0][0].denominator)
    k0 = ka0 + kb0
    slots = math.ceil(backend.precision * r) - k0
    if slots <= 0:
        # The lowest term of a product of nonzero series is nonzero, so
        # the product is zero only when all of it fell past the cutoff.
        raise PrecisionExhausted("product has no representable term below the cutoff")
    ia, na, da = _integral(a, r, ka0, slots)
    ib, nb, db = _integral(b, r, kb0, slots)
    width = (max(map(abs, na)).bit_length() + max(map(abs, nb)).bit_length()
             + min(len(na), len(nb)).bit_length() + 1)
    nbytes = (width + 7) // 8
    slots = min(slots, ia[-1] + ib[-1] + 1)  # the product has no higher term
    product = _pack(ia, na, nbytes) * _pack(ib, nb, nbytes)
    # the low slots of the product, in two's complement when it is negative
    raw = (product & ((1 << (8 * nbytes * slots)) - 1)).to_bytes(nbytes * slots, "little")
    half = 1 << (8 * nbytes - 1)
    den = da * db
    terms = []
    carry = 0
    for i in range(slots):
        n = int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little") + carry
        carry = n >= half
        if carry:
            n -= half << 1
        if n:
            terms.append((Fraction(k0 + i, r), Fraction(n, den)))
    return tuple(terms)


def _padic_nth_root_unit(u: Scalar, n: int, precision: int) -> Scalar:
    backend = u.backend
    p = backend.p
    if n % p == 0:
        raise RootUnavailable(f"{p} divides {n}")
    target = max(1, precision)
    # Work modulo p^K on integer representatives; the derivative n*w^(n-1)
    # is a unit so each Newton step at least doubles the residual valuation.
    K = target + 2
    m = p ** K
    q = u.rational
    U = q.numerator * pow(q.denominator, -1, m) % m
    w = 1
    n_inv_cache = None
    for _ in range(2 * K + 8):
        r = (pow(w, n, m) - U) % m
        if r == 0 or int_valuation(r, p) >= target:
            break
        deriv = n * pow(w, n - 1, m) % m
        w = (w - r * pow(deriv, -1, m)) % m
    else:
        raise PrecisionExhausted("Newton iteration failed to reach precision")
    return backend.scalar(Fraction(w))


def _series_nth_root_unit(u: Scalar, n: int) -> Scalar:
    backend = u.backend
    h = u - backend.one
    if h.is_zero:
        return backend.one
    # Binomial series (1+h)^(1/n); terminates because v(h) > 0 and the
    # cutoff kills high powers.  term carries C(1/n, k) h^k.
    acc = backend.one
    term = backend.one
    alpha = Fraction(1, n)
    k = 0
    while True:
        k += 1
        try:
            term = term * h
        except PrecisionExhausted:
            break
        if term.is_zero:
            break
        term = term.scale((alpha - (k - 1)) / k)
        if term.is_zero:
            break
        acc = acc + term
    return acc


def nth_root_unit(u: Scalar, n: int, precision: Rat = 40) -> Scalar:
    """The unique w with w^n = u and valuation(w - 1) > 0.

    Requires valuation(u - 1) > 0.  Over PAdic the root is computed by
    Newton iteration to the requested valuation precision (certified by
    the returned residual); over SeriesT it is exact up to the cutoff.
    Raises RootUnavailable when the residue characteristic divides n.
    """
    if n < 1:
        raise ValueError("root index must be >= 1")
    one = u.backend.one
    vdiff = (u - one).valuation()
    if not (vdiff > Val(0)):
        raise PreconditionViolated("nth_root_unit requires valuation(u - 1) > 0")
    if n == 1:
        return u
    if isinstance(u.backend, PAdic):
        prec = _as_fraction(precision)
        return _padic_nth_root_unit(u, n, int(prec.__ceil__()))
    return _series_nth_root_unit(u, n)
