"""Monic centered polynomials with marked critical points.

The input chart is critical data: distinct marks c_i with local degrees
d_i >= 2 and a constant term b.  The polynomial is recovered exactly by
formal antidifferentiation of d * prod (z - c_i)^(d_i - 1), so no
root-finding ever happens.  Local degrees at disks are computed two
independent ways (Taylor-coefficient maximum and the Riemann-Hurwitz
critical count) and the test-suite cross-checks them.  Tameness is
checked once, when a polynomial is built: no MarkedPolynomial has a local
degree divisible by the residue characteristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from tamedyn.berkovich import BerkPoint
from tamedyn.errors import InvalidMarks, NotTame
from tamedyn.valued_field import (PAdic, Rat, Scalar, coprime_fraction, int_valuation,
                                  valuation_table)


# -- dense polynomial helpers over Scalar (ascending coefficients) -----


def poly_mul(a: list[Scalar], b: list[Scalar], zero: Scalar) -> list[Scalar]:
    """a * b for nonempty a and b, untrimmed: its top coefficient is 1 when
    both are monic, as every factor of f' is."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


def poly_eval(cs: list[Scalar], z: Scalar, zero: Scalar) -> Scalar:
    acc = zero
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def poly_derivative(cs: list[Scalar]) -> list[Scalar]:
    return [cs[k].scale(k) for k in range(1, len(cs))]


def taylor_coefficients(cs: list[Scalar], a: Scalar) -> list[Scalar]:
    """Coefficients of f(z + a) by repeated synthetic division by (z - a),
    over Scalars or over ints."""
    work = list(cs)
    out = []
    while work:
        acc = work[-1]
        quotient = [None] * (len(work) - 1)
        for k in range(len(work) - 2, -1, -1):
            quotient[k] = acc
            acc = work[k] + acc * a
        out.append(acc)
        work = quotient
    return out


@dataclass(frozen=True)
class CriticalMark:
    """A critical point with its local degree (multiplicity as a critical
    point is degree - 1)."""

    point: Scalar
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 2:
            raise InvalidMarks("mark multiplicity must be >= 2")


class PiecewiseMonomial:
    """Exact image of the ray of disks centered at c under f.

    The disk x_{c,q} maps to x_{f(c), F(q)} where F(q) is the minimum of
    the lines k*q + v(f_k(c)) over the nonvanishing Taylor coefficients,
    a strictly increasing concave piecewise-linear function.  The local
    degree at x_{c,q} is the largest slope attaining the minimum.

    Only the lines of the lower envelope are kept, sorted by slope, each
    one attaining the minimum on an interval: line i on
    [corner(i, i+1), corner(i-1, i)].  A line that attains it at one
    point at most changes neither F, nor the largest slope attaining
    it, nor the inverse.
    """

    __slots__ = ("lines",)

    def __init__(self, lines):
        if not lines:
            raise ValueError("no nonvanishing Taylor coefficients")
        lowest: dict[int, Fraction] = {}
        for k, v in lines:
            if k not in lowest or v < lowest[k]:
                lowest[k] = v
        hull: list[tuple[int, Fraction]] = []
        for k, v in sorted(lowest.items()):
            # the last line keeps an interval of its own only if the new
            # one crosses it below the corner where it meets the line before
            while len(hull) >= 2 and _corner(hull[-1], (k, v)) >= _corner(hull[-2], hull[-1]):
                hull.pop()
            hull.append((k, v))
        self.lines = tuple(hull)

    def image_exp(self, q: Fraction) -> Fraction:
        return min(k * q + v for k, v in self.lines)

    def invert(self, target: Fraction) -> Fraction:
        """The unique q with image_exp(q) = target, divided exactly: an int
        when the slope divides an int, a Fraction otherwise."""
        return max(_exact_quotient(target - v, k) for k, v in self.lines)

    def compose(self, inner: "PiecewiseMonomial") -> "PiecewiseMonomial":
        """q -> self(inner(q)); a min of lines since every slope is positive."""
        return PiecewiseMonomial([(k1 * k2, k1 * v2 + v1)
                                  for k1, v1 in self.lines for k2, v2 in inner.lines])


def escaped_ray_map(d: int, v: Rat) -> PiecewiseMonomial:
    """The ray map q -> min(d*q, q + (d-1)*v) of a tame monic centered f of
    degree d at a point w with v = v(w) below the base exponent.

    f_d = 1, and v(f'(w)) = (d-1)*v: every critical point lies in the base
    disk, and p does not divide d.  Every other line k*q + v(f_k) has
    v(f_k) >= (d-k)*v, so it meets these two only at q = v, and the hull
    drops it.  ``segment_dynamics`` is the Taylor-route oracle.
    """
    return PiecewiseMonomial(((1, (d - 1) * v), (d, 0)))


def _exact_quotient(a: Fraction, k: int) -> Fraction:
    """a / k for an int or Fraction a and an int k > 0, never a float."""
    if isinstance(a, int) and a % k == 0:
        return a // k
    return Fraction(a, k)


def _corner(a: tuple[int, Fraction], b: tuple[int, Fraction]) -> Fraction:
    """The exponent where the lines a and b (of distinct slopes) cross."""
    return Fraction(a[1] - b[1], b[0] - a[0])


def _check_tame(marks, backend):
    """Raise NotTame, with a witness disk, when a local degree is divisible
    by the residue characteristic p.  For p = 0 (SeriesT) none is.  Over
    PAdic the local degrees are the cluster sums 1 + sum_{i in S}(d_i - 1)
    over the mark sets S inside some disk, each a valuation-prefix about
    one of its members, so O(k^2) clusters suffice.
    """
    p = backend.residue_char
    if p == 0:
        return
    # the disk of radius exponent q about mi holds the marks with v >= q
    for mi, vals in zip(marks, valuation_table([m.point for m in marks])):
        for q in sorted(set(vals), reverse=True):
            deg = 1 + sum(m.multiplicity - 1 for m, v in zip(marks, vals) if v >= q)
            if deg % p == 0:
                raise NotTame(f"local degree {deg} divisible by residue characteristic",
                              witness=BerkPoint(mi.point, q))


class MarkedPolynomial:
    """A tame monic centered polynomial of degree >= 2 with marked critical
    data; tameness is checked once, when it is built."""

    def __init__(self, coeffs: list[Scalar], marks: tuple[CriticalMark, ...]):
        """Stores coefficients and marks as given, checking nothing: callers
        use `from_critical_data`, which validates."""
        self.coeffs = tuple(coeffs)
        self.marks = marks
        self.backend = coeffs[0].backend
        self.degree = len(coeffs) - 1
        self._records: dict = {}  # mark -> EscapeRecord, kept by escape.classify_critical
        self._orbits: dict = {}  # mark -> [c, f(c), f^2(c), ...], extended by orbit()
        # exponent of the base radius: min(0, v(a_i)/(d-i)), i <= d-2, an int when integral
        base = Fraction(0)
        for i in range(self.degree - 1):
            v = self.coeffs[i].valuation()
            if v != math.inf:
                base = min(base, Fraction(v, self.degree - i))
        self.base_radius_exp = base.numerator if base.denominator == 1 else base
        # over PAdic: the coefficients times L, the lcm of their denominators,
        # v_p(L), and L*R for R = 1 + sum_{i<d} |a_i|: an orbit value beyond
        # R escapes at the real place (see escape._wanders)
        self._int_coeffs: tuple[int, ...] | None = None
        if isinstance(self.backend, PAdic):
            rats = [c.rational for c in self.coeffs]
            self._den = math.lcm(*(a.denominator for a in rats))
            self._den_val = int_valuation(self._den, self.backend.p)
            self._int_coeffs = tuple(a.numerator * (self._den // a.denominator) for a in rats)
            self._real_bound = self._den + sum(abs(c) for c in self._int_coeffs[:-1])

    # -- construction ---------------------------------------------------

    @classmethod
    def from_critical_data(cls, marks, b: Scalar) -> "MarkedPolynomial":
        """The unique monic centered f with f' = d prod (z - c_i)^(d_i - 1), f(0) = b.
        InvalidMarks unless the marks (CriticalMarks or (point, multiplicity) pairs)
        are one or more, distinct, over b's backend and center f; NotTame unless f is tame."""
        marks = tuple(m if isinstance(m, CriticalMark) else CriticalMark(m[0], m[1]) for m in marks)
        if not marks:
            raise InvalidMarks("at least one mark required")
        backend = b.backend
        if any(m.point.backend != backend for m in marks):
            raise InvalidMarks("the marks and the constant term are over different backends")
        for i, m in enumerate(marks):
            for m2 in marks[i + 1:]:
                if m.point == m2.point:
                    raise InvalidMarks(f"coincident marks at {m.point!r}")
        zero, one = backend.zero, backend.one
        weighted = sum((m.point.scale(m.multiplicity - 1) for m in marks), zero)
        if not weighted.is_zero:
            chart = sum((m.point.scale(m.multiplicity) for m in marks), zero)
            raise InvalidMarks(
                "marks do not center the antiderivative: "
                f"sum (d_i-1)c_i = {weighted!r} (chart sum d_i c_i = {chart!r})"
            )
        crit = [one]  # prod (z - c_i)^(d_i - 1), of degree d - 1
        for m in marks:
            factor = [-m.point, one]
            for _ in range(m.multiplicity - 1):
                crit = poly_mul(crit, factor, zero)
        d = len(crit)
        coeffs = [b] + [crit[k - 1].scale(Fraction(d, k)) for k in range(1, d + 1)]
        _check_tame(marks, backend)
        return cls(coeffs, marks)

    # -- basic evaluation ------------------------------------------------

    def __call__(self, z: Scalar) -> Scalar:
        if self._int_coeffs is None:
            return poly_eval(list(self.coeffs), z, self.backend.zero)
        if z.backend is not self.backend and z.backend != self.backend:
            raise TypeError("mixed backends")
        return Scalar(self.backend, rational=self._eval_rational(z.rational))

    def _eval_rational(self, z: Fraction) -> Fraction:
        """f(n/D) = N/M in integers, with M = L*D^d and N = sum c_i n^i D^(d-i).

        f is monic and gcd(n, D) = 1, so N = L*n^d mod q for every prime q
        dividing D: a prime dividing both N and M divides L.  (When N = 0,
        n/D is a root of L*f, so D divides L.)  Dividing out gcd(gcd(N, L), M)
        until it is 1 therefore reduces N/M, and each gcd has the small
        argument L, so it costs one remainder of N, not a gcd of two huge
        integers.
        """
        n, D = z.numerator, z.denominator
        coeffs = self._int_coeffs
        num, D_power = coeffs[-1], 1  # Horner in n, with D^(d-i) at c_i
        for c in reversed(coeffs[:-1]):
            D_power *= D
            num *= n
            if c:
                num += c * D_power
        L = self._den
        den = L * D_power
        while (h := math.gcd(math.gcd(num, L), den)) > 1:
            num //= h
            den //= h
        return coprime_fraction(num, den)

    def orbit(self, mark: CriticalMark, n: int) -> list[Scalar]:
        """The stored orbit [c, f(c), f^2(c), ...] of the mark's point c,
        extended through f^n(c).  Each value is computed once per polynomial;
        the list may already run past f^n(c)."""
        values = self._orbits.setdefault(mark, [mark.point])
        while len(values) <= n:
            values.append(self(values[-1]))
        return values

    def taylor_at(self, a: Scalar) -> tuple[Scalar, ...]:
        return tuple(taylor_coefficients(self.coeffs, a))

    def __repr__(self):
        return f"MarkedPolynomial(degree={self.degree}, marks={len(self.marks)})"

    # -- local degrees ------------------------------------------------------

    def image_point(self, x: BerkPoint) -> tuple[BerkPoint, int]:
        """Image disk and local degree at x, from Taylor data at the center."""
        taylor = self.taylor_at(x.center)
        fa = taylor[0]
        if x.is_classical:
            deg = next(k for k in range(1, len(taylor)) if not taylor[k].is_zero)
            return BerkPoint.classical(fa), deg
        q = x.radius_exp.finite
        candidates = [(taylor[k].valuation() + k * q, k)
                      for k in range(1, len(taylor)) if not taylor[k].is_zero]
        best = min(c for c, _ in candidates)
        deg = max(k for c, k in candidates if c == best)
        return BerkPoint(fa, best), deg

    def local_degree_rh(self, x: BerkPoint) -> int:
        """Riemann-Hurwitz count: 1 + sum of (d_i - 1) over marks in the disk."""
        total = 1
        for m in self.marks:
            if x.contains_scalar(m.point):
                total += m.multiplicity - 1
        return total

    # -- ray dynamics -----------------------------------------------------------

    def segment_dynamics(self, c: Scalar) -> PiecewiseMonomial:
        """The exact piecewise map q -> image exponent on the ray at c: the
        lines (k, v(f_k)) over the nonvanishing Taylor coefficients f_k at c.

        Over PAdic these valuations are read in integers.  At c = n/D, with
        e_i = c_i D^(d-i) for the integer coefficients c_i = L a_i, the
        Taylor shift of sum e_i w^i by n has coefficients N_k = L D^(d-k) f_k,
        so v(f_k) = v_p(N_k) - v_p(L) - (d-k) v_p(D): no Fraction and no gcd.
        Over SeriesT they come from `taylor_at`.
        """
        if self._int_coeffs is None:
            taylor = self.taylor_at(c)
            return PiecewiseMonomial([(k, taylor[k].valuation())
                                      for k in range(1, len(taylor)) if not taylor[k].is_zero])
        n, D = c.rational.numerator, c.rational.denominator
        d, p = self.degree, self.backend.p
        # e_0 is left unscaled: it moves only N_0, which is never read
        e, D_power = list(self._int_coeffs), 1
        for i in range(d - 1, 0, -1):
            D_power *= D
            e[i] *= D_power
        N = taylor_coefficients(e, n)
        v_D = int_valuation(D, p)
        return PiecewiseMonomial([(k, int_valuation(N[k], p) - self._den_val - (d - k) * v_D)
                                  for k in range(1, d + 1) if N[k]])
