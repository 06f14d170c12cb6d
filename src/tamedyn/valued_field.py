"""Exact arithmetic in the two supported valued fields.

Backends:

* ``PAdic(p)`` — rational numbers carrying the p-adic valuation.  The
  value group of representable scalars is Z.
* ``SeriesT(precision, ram_den)`` — truncated Puiseux series over Q in
  the variable t, with the t-adic order as valuation.  Exponents are
  rationals whose denominator divides ``ram_den``; every result is
  truncated to exponents strictly below ``precision`` (arithmetic modulo
  the truncation ideal).  This models a residue-characteristic-0 field,
  so every polynomial over it is tame.  A scalar is integer numerators
  over one denominator at integer exponent indices (see :class:`Scalar`);
  a product is a schoolbook convolution of the integer numerators (the
  products the program makes are short, see ``_series_product``) and a
  sum one addition of integer vectors.
  Inverses and n-th roots of 1-units are (1 + h)^alpha, alpha = -1 or 1/n,
  taken in one integer pass of the power recurrence (``_binomial_series``).

Absolute values are never materialized: |x| = base^(-v(x)) is carried
around as the exact exponent v(x).  Every exponent in the package (a
valuation, a radius, an edge length, a bound) is one plain type: an int, a
Fraction, or ``math.inf`` for the valuation of 0 and for a bound that no
difference reached.  Larger valuation means smaller absolute value.
Arithmetic on ints and Fractions is exact, but math.inf - math.inf is a
float nan, not an error, so no exponent is computed from two infinite
ones: ``rho_closeness`` skips a difference at or above its precision,
``phi_eval`` refuses a point with v(z) >= base, a Hensel lift returns once
its residual reaches the target, and every tree exponent is finite.
:class:`Val` wraps an exponent only as a ``BerkPoint``'s radius.
``residue`` is the one reduction of a p-adic scalar mod p^K, and
``valuation_table`` the one table of pairwise valuations v(x - y), over
either backend: the core tree's vertices and the tameness check read it.
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


def _as_fraction(x, lead: str = "expected an int or a Fraction") -> Fraction:
    """x as a Fraction; TypeError, its message led by `lead`, unless x is an
    int (not a bool) or a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"{lead}, not {x!r}")


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


PRIME_BOUND = 3_317_044_064_679_887_385_961_981
"""Miller-Rabin to the bases 2..41 decides primality exactly below this
bound (Sorenson and Webster, Math. Comp. 2017)."""

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is prime, for n < PRIME_BOUND (ValueError from there on)."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality of {n} is only decided below {PRIME_BOUND}")
    if n < 2:
        return False
    if n in _BASES:
        return True
    if any(n % a == 0 for a in _BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.total_ordering
class Val:
    """The radius exponent of a ``BerkPoint``: an exact rational, or infinity
    for a classical point.

    Built from a plain exponent (an int, a Fraction or ``math.inf``) and
    ordered with infinity as the unique maximum.  It has no arithmetic:
    exponents are computed as plain numbers (module docstring).
    """

    __slots__ = ("_q",)

    def __init__(self, q: Rat | float):
        self._q = None if q == math.inf else _as_fraction(q)

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

    def __repr__(self):
        return "Val(inf)" if self._q is None else f"Val({self._q})"

    def __str__(self):
        return "inf" if self._q is None else str(self._q)


class PAdic:
    """Backend: Q with the p-adic valuation."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if isinstance(p, bool) or not isinstance(p, int):
            raise TypeError(f"p must be an int, not {p!r}")
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


class SeriesT:
    """Backend: truncated Puiseux series over Q with t-adic valuation."""

    __slots__ = ("precision", "ram_den", "cutoff_index")

    def __init__(self, precision: Rat, ram_den: int = 1):
        precision = _as_fraction(precision)
        if precision <= 0:
            raise ValueError("precision cutoff must be positive")
        if isinstance(ram_den, bool) or not isinstance(ram_den, int):
            raise TypeError(f"ram_den must be an int, not {ram_den!r}")
        if ram_den < 1:
            raise ValueError("ramification denominator must be >= 1")
        self.precision = precision
        self.ram_den = ram_den
        # exponent k/ram_den is below the cutoff exactly when k < cutoff_index
        self.cutoff_index = math.ceil(precision * ram_den)

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

    def scalar(self, value=None, terms: Iterable[tuple[Rat, Rat]] | None = None) -> "Scalar":
        """Build a series scalar from a constant (zero when omitted) or from
        (exponent, coeff) pairs; TypeError when given both."""
        if terms is None:
            terms = [(0, 0 if value is None else value)]
        elif value is not None:
            raise TypeError("give a constant or terms, not both")
        acc = self.zero
        for e, c in terms:
            e = _as_fraction(e)
            c = _as_fraction(c)
            self._check_exponent(e)
            k = e.numerator * (self.ram_den // e.denominator)
            if c != 0 and k < self.cutoff_index:
                acc = acc + Scalar(self, series=(k, (c.numerator,), c.denominator))
        return acc

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, series=(0, (), 1))

    @property
    def one(self) -> "Scalar":
        return Scalar(self, series=(0, (1,), 1))


Backend = Union[PAdic, SeriesT]

MAX_SERIES_SPAN = 1 << 20
"""Most exponent indices a series sum may span: its numerators are stored
densely, so a wider sum raises PrecisionExhausted instead of allocating."""


class Scalar:
    """An exact element of the backend field.

    Immutable.  PAdic scalars hold a Fraction.  SeriesT scalars hold one
    canonical triple ``(k0, nums, den)`` standing for the series
    sum_i nums[i]/den * t^((k0 + i)/ram_den), every index below the
    cutoff: ``nums`` is a tuple of ints with nonzero first and last
    entries, ``den > 0`` and gcd(den, *nums) = 1; zero is ``(0, (), 1)``.
    Equal values have equal triples, so ``==`` and ``hash`` compare
    values.  ``terms`` is the derived (exponent, coefficient) view.
    """

    __slots__ = ("backend", "_rat", "_series")

    def __init__(self, backend: Backend, rational: Fraction | None = None,
                 series: tuple[int, tuple[int, ...], int] | None = None):
        self.backend = backend
        self._rat = rational
        self._series = series

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        if self._rat is not None:
            return self._rat == 0
        return not self._series[1]

    @property
    def rational(self) -> Fraction:
        if self._rat is None:
            raise TypeError("not a PAdic scalar")
        return self._rat

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The nonzero terms c*t^e as sorted (e, c) pairs (SeriesT only)."""
        if self._series is None:
            raise TypeError("not a SeriesT scalar")
        k0, nums, den = self._series
        r = self.backend.ram_den
        return tuple([(Fraction(k, r), Fraction(n, den)) for k, n in enumerate(nums, k0) if n])

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.backend == other.backend
            and self._rat == other._rat
            and self._series == other._series
        )

    def __hash__(self):
        return hash((self.backend, self._rat, self._series))

    def __repr__(self):
        if self._rat is not None:
            return f"Scalar({self._rat})"
        body = " + ".join(f"({c})*t^({e})" for e, c in self.terms) or "0"
        return f"Scalar({body})"

    def _require_same_backend(self, other: "Scalar"):
        if self.backend is not other.backend and self.backend != other.backend:
            raise TypeError("mixed backends")

    # -- valuation ----------------------------------------------------

    def valuation(self) -> int | Fraction | float:
        """v(self) as the package's one exponent type: an int over PAdic, a
        Fraction over SeriesT, and math.inf for zero.  math.inf - math.inf
        is nan, so callers never subtract two valuations that can both be
        infinite (module docstring)."""
        if self._rat is not None:
            q = self._rat
            if q == 0:
                return math.inf
            p = self.backend.p
            return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)
        k0, nums, _ = self._series
        if not nums:
            return math.inf
        return Fraction(k0, self.backend.ram_den)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        self._require_same_backend(other)
        if self._rat is not None:
            return Scalar(self.backend, rational=self._rat + other._rat)
        ka, na, da = self._series
        kb, nb, db = other._series
        if not na:
            return other
        if not nb:
            return self
        den = math.lcm(da, db)
        k0 = min(ka, kb)
        span = max(ka + len(na), kb + len(nb)) - k0
        if span > MAX_SERIES_SPAN:
            raise PrecisionExhausted(f"sum spans {span} exponent indices, above {MAX_SERIES_SPAN}")
        out = [0] * span
        for k, n, m in ((ka - k0, na, den // da), (kb - k0, nb, den // db)):
            for i, x in enumerate(n, k):
                out[i] += x * m
        return _series_scalar(self.backend, k0, out, den)

    def __neg__(self) -> "Scalar":
        if self._rat is not None:
            return Scalar(self.backend, rational=-self._rat)
        k0, nums, den = self._series
        # from a list: tuples built from generators are resized, then hoarded on free lists
        return Scalar(self.backend, series=(k0, tuple([-n for n in nums]), den))

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._require_same_backend(other)
        if self._rat is not None:
            return Scalar(self.backend, rational=self._rat - other._rat)
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._require_same_backend(other)
        if self._rat is not None:
            return Scalar(self.backend, rational=self._rat * other._rat)
        if not self._series[1] or not other._series[1]:
            return self.backend.zero
        return _series_product(self.backend, self._series, other._series)

    def _series_inverse(self) -> "Scalar":
        k0, nums, den = self._series
        backend = self.backend
        # x = c0 t^e0 (1 + h) with v(h) > 0, so 1/x = t^-e0 / c0 * (1 + h)^-1
        inv_c0 = Fraction(den, nums[0])
        lead_inv = backend.scalar(terms=[(Fraction(-k0, backend.ram_den), inv_c0)])
        h = _series_scalar(backend, 1, nums[1:backend.cutoff_index], den).scale(inv_c0)
        return lead_inv * _binomial_series(h, Fraction(-1))

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
        if self._rat is not None:  # Fraction ** n skips the gcds of repeated products
            return Scalar(self.backend, rational=self._rat ** n)
        result = self.backend.one
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            if e > 1:
                base = base * base
            e >>= 1
        return result

    def scale(self, q: Rat) -> "Scalar":
        """Multiply by an exact rational constant; a series by 1 or -1 without
        renormalizing, as derivatives and marks of local degree 2 scale by 1."""
        q = _as_fraction(q)
        if self._rat is not None:
            return Scalar(self.backend, rational=self._rat * q)
        if q == 1:
            return self
        if q == -1:
            return -self
        k0, nums, den = self._series
        return _series_scalar(self.backend, k0, [n * q.numerator for n in nums],
                              den * q.denominator)


def _series_scalar(backend: SeriesT, k0: int, nums: list, den: int) -> Scalar:
    """The canonical scalar sum_i nums[i]/den * t^((k0 + i)/ram_den), for
    den > 0 and indices below the cutoff: zeros trimmed at both ends and
    the common factor of den and the numerators divided out."""
    lo, hi = 0, len(nums)
    while hi > lo and not nums[hi - 1]:
        hi -= 1
    while lo < hi and not nums[lo]:
        lo += 1
    if lo == hi:
        return backend.zero
    nums = nums[lo:hi]
    g = math.gcd(den, *nums)
    if g > 1:
        nums = [n // g for n in nums]
    return Scalar(backend, series=(k0 + lo, tuple(nums), den // g))


def _series_product(backend: SeriesT, a: tuple, b: tuple) -> Scalar:
    """a*b below the cutoff, for the series forms a and b of nonzero scalars.

    A schoolbook convolution of the numerators, over the shorter operand's
    nonzero ones.  Products are short: of the 1,637 of a series-core corpus
    pass, 791 have an operand of at most 3 terms and 32 two of 32 or more.
    On such operands a Kronecker substitution (one product of packed big
    ints) took twice as long, and 1.3x as long with every cutoff tripled.
    """
    ka, na, da = a
    kb, nb, db = b
    k0 = ka + kb
    slots = backend.cutoff_index - k0
    if slots <= 0:
        # The lowest term of a product of nonzero series is nonzero, so
        # the product is zero only when all of it fell past the cutoff.
        raise PrecisionExhausted("product has no representable term below the cutoff")
    if len(na) > len(nb):
        na, nb = nb, na
    slots = min(slots, len(na) + len(nb) - 1)  # the product has no higher term
    nums = [0] * slots
    for i, x in enumerate(na[:slots]):
        if x:
            for j, y in enumerate(nb[:slots - i], i):
                nums[j] += x * y
    return _series_scalar(backend, k0, nums, da * db)


def valuation_table(values: list[Scalar]) -> list[list]:
    """table[x][y] = v(values[x] - values[y]) for distinct values, math.inf
    on the diagonal.  Where v(x) and v(y) differ the entry is their minimum
    (the ultrametric inequality); where they tie, one Scalar subtraction."""
    vals = [w.valuation() for w in values]
    table = [[math.inf] * len(values) for _ in values]
    for x, (a, va) in enumerate(zip(values, vals)):
        for y in range(x):
            vb = vals[y]
            table[x][y] = table[y][x] = min(va, vb) if va != vb else (a - values[y]).valuation()
    return table


def residue(q: Fraction, m: int) -> int:
    """The integer representative of q mod m, in [0, m), for q whose
    denominator is prime to m."""
    return q.numerator * pow(q.denominator, -1, m) % m


def _binomial_series(h: Scalar, alpha: Fraction) -> Scalar:
    """(1 + h)^alpha below the cutoff, for a series h with v(h) > 0.

    J.C.P. Miller's power recurrence (Knuth, TAOCP Vol. 2, 4.7): y = (1 + h)^alpha
    solves (1 + h) y' = alpha h' y, so with y_0 = 1 and h_j the coefficient
    at index j,

        k y_k = sum_{j >= 1} ((alpha + 1) j - k) h_j y_(k-j).

    It runs on integers over one denominator.  With alpha = a/b,
    h = sum_j H_j t^(j/ram_den) / den, k0 the lowest index of h, K the
    cutoff index and M = floor((K-1)/k0), the integers Y_k = E y_k for
    E = M! (b den)^M satisfy

        Y_0 = E,  Y_k = sum_j ((a + b) j - b k) H_j Y_(k-j) // (k b den).

    Y_k = 0 for 0 < k < k0, so the terms k - k0 < j < k are skipped, and the
    term j = k is a k H_k E.

    Exact division: y = sum_m C(alpha, m) h^m, and h^m has no term below
    index m k0, so y_k takes the terms m <= M.  There C(alpha, m) m! b^m =
    prod_{i<m} (a - i b) and den^m h^m are integral, so every Y_k below the
    cutoff is an integer, and the sum, k b den Y_k, divides exactly.  E, and
    with it Y_k, has about M log M bits, so Y is short only when k0 is near
    K: for v(h) = 1/ram_den, M = K - 1 and Y holds K integers of K log K bits.

    Same results as sum_m C(alpha, m) h^m summed term by term with each term
    cut at the cutoff: cutting at the cutoff is a ring map on series whose
    indices are all >= 0, so that sum is (1 + h)^alpha modulo the cutoff,
    which the recurrence computes, and canonical triples are unique.
    """
    backend = h.backend
    k0, nums, den = h._series
    if not nums:
        return backend.one
    a, b = alpha.numerator, alpha.denominator
    K = backend.cutoff_index
    M = (K - 1) // k0
    E = math.factorial(M) * (b * den) ** M
    terms = [(j, (a + b) * j, H) for j, H in enumerate(nums, k0) if H]
    Y = [E] + [0] * (K - 1)
    for k in range(k0, K):
        bk = b * k
        s = a * k * nums[k - k0] * E if k - k0 < len(nums) else 0
        for j, c, H in terms:
            if j > k - k0:
                break
            s += (c - bk) * H * Y[k - j]
        Y[k] = s // (bk * den)
    return _series_scalar(backend, 0, Y, E)


def _padic_nth_root_unit(u: Scalar, n: int, precision: int) -> Scalar:
    backend = u.backend
    p = backend.p
    if n % p == 0:
        raise RootUnavailable(f"{p} divides {n}")
    # The 1-units mod p^K form a group of order p^(K-1), prime to n, so
    # raising to the inverse of n modulo that order gives the unique root.
    K = max(1, precision)
    m = p ** K
    return backend.scalar(pow(residue(u.rational, m), pow(n, -1, p ** (K - 1)), m))


def _series_nth_root_unit(h: Scalar, n: int) -> Scalar:
    """The n-th root of the 1-unit 1 + h."""
    return _binomial_series(h, Fraction(1, n))


def nth_root_unit(u: Scalar, n: int, precision: Rat) -> Scalar:
    """The unique w with w^n = u and valuation(w - 1) > 0.

    Requires valuation(u - 1) > 0.  Over PAdic the root is computed in
    closed form modulo p^K, K = max(1, precision): valuation(w^n - u) >= K;
    over SeriesT it is exact up to the cutoff, whatever the precision.
    Raises RootUnavailable when the residue characteristic divides n.
    """
    if n < 1:
        raise ValueError("root index must be >= 1")
    backend = u.backend
    padic = isinstance(backend, PAdic)
    if padic:
        # u = m/d in lowest terms: v(u - 1) = v(m - d) - v(d), which is > 0
        # exactly when p does not divide d and divides m - d
        q, p = u.rational, backend.p
        one_unit = q.denominator % p and (q.numerator - q.denominator) % p == 0
    else:
        h = u - backend.one
        one_unit = h.valuation() > 0
    if not one_unit:
        raise PreconditionViolated("nth_root_unit requires valuation(u - 1) > 0")
    if n == 1:
        return u
    if padic:
        return _padic_nth_root_unit(u, n, math.ceil(_as_fraction(precision)))
    return _series_nth_root_unit(h, n)
