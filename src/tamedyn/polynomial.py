"""Monic centered polynomials with marked critical points.

The input chart is critical data: distinct marks c_i with local degrees
d_i >= 2 and a constant term b.  The polynomial is recovered exactly by
formal antidifferentiation of d * prod (z - c_i)^(d_i - 1), so no
root-finding ever happens.  Local degrees at disks are computed two
independent ways (Taylor-coefficient maximum and the Riemann-Hurwitz
critical count) and the test-suite cross-checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from tamedyn.berkovich import BerkPoint
from tamedyn.errors import InvalidMarks, NotTame
from tamedyn.valued_field import INF, PAdic, Scalar, Val, coprime_fraction


# -- dense polynomial helpers over Scalar (ascending coefficients) -----


def poly_trim(cs: list[Scalar]) -> list[Scalar]:
    while cs and cs[-1].is_zero:
        cs.pop()
    return cs


def poly_mul(a: list[Scalar], b: list[Scalar], zero: Scalar) -> list[Scalar]:
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return poly_trim(out)


def poly_eval(cs: list[Scalar], z: Scalar, zero: Scalar) -> Scalar:
    acc = zero
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def poly_derivative(cs: list[Scalar]) -> list[Scalar]:
    return [cs[k].scale(k) for k in range(1, len(cs))]


def taylor_coefficients(cs: list[Scalar], a: Scalar, zero: Scalar) -> list[Scalar]:
    """Coefficients of f(z + a) by repeated synthetic division by (z - a)."""
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


@dataclass(frozen=True)
class TamenessReport:
    tame: bool
    witness: BerkPoint | None = None
    witness_degree: int | None = None
    degrees: frozenset[int] = frozenset()


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
        """The unique q with image_exp(q) = target."""
        return max((target - v) / k for k, v in self.lines)

    def breakpoints(self) -> list[Fraction]:
        """Exponents where the attaining slope changes (envelope corners), ascending."""
        return [_corner(a, b) for a, b in zip(self.lines, self.lines[1:])][::-1]

    def compose(self, inner: "PiecewiseMonomial") -> "PiecewiseMonomial":
        """q -> self(inner(q)); a min of lines since every slope is positive."""
        return PiecewiseMonomial([(k1 * k2, k1 * v2 + v1)
                                  for k1, v1 in self.lines for k2, v2 in inner.lines])


def _corner(a: tuple[int, Fraction], b: tuple[int, Fraction]) -> Fraction:
    """The exponent where the lines a and b (of distinct slopes) cross."""
    return Fraction(a[1] - b[1], b[0] - a[0])


class MarkedPolynomial:
    """A monic centered polynomial of degree >= 2 with marked critical data."""

    def __init__(self, coeffs: list[Scalar], marks: tuple[CriticalMark, ...]):
        self.coeffs = tuple(coeffs)
        self.marks = marks
        self.backend = coeffs[0].backend
        self.degree = len(coeffs) - 1
        self._taylor_cache: dict[Scalar, tuple[Scalar, ...]] = {}
        self._tameness: TamenessReport | None = None
        self._records: dict = {}  # (mark, budget) -> EscapeRecord, kept by escape.classify_critical
        self._verify()
        # over PAdic: the coefficients times L, the lcm of their denominators
        self._int_coeffs: tuple[int, ...] | None = None
        if isinstance(self.backend, PAdic):
            rats = [c.rational for c in self.coeffs]
            self._den = math.lcm(*(a.denominator for a in rats))
            self._int_coeffs = tuple(a.numerator * (self._den // a.denominator) for a in rats)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_critical_data(cls, marks, b: Scalar) -> "MarkedPolynomial":
        """The unique monic centered f with f' = d prod(z-c_i)^(d_i-1), f(0) = b."""
        marks = tuple(
            m if isinstance(m, CriticalMark) else CriticalMark(m[0], m[1]) for m in marks
        )
        if not marks:
            raise InvalidMarks("at least one mark required")
        backend = marks[0].point.backend
        zero, one = backend.zero, backend.one
        d = 1 + sum(m.multiplicity - 1 for m in marks)
        if d < 2:
            raise InvalidMarks("degree must be >= 2")
        for i, m in enumerate(marks):
            for m2 in marks[i + 1:]:
                if m.point == m2.point:
                    raise InvalidMarks(f"coincident marks at {m.point!r}")
        weighted = zero
        chart = zero
        for m in marks:
            weighted = weighted + m.point.scale(m.multiplicity - 1)
            chart = chart + m.point.scale(m.multiplicity)
        if not weighted.is_zero:
            raise InvalidMarks(
                "marks do not center the antiderivative: "
                f"sum (d_i-1)c_i = {weighted!r} (chart sum d_i c_i = {chart!r})"
            )
        deriv = [one]
        for m in marks:
            factor = [-m.point, one]
            for _ in range(m.multiplicity - 1):
                deriv = poly_mul(deriv, factor, zero)
        deriv = [c.scale(d) for c in deriv]
        coeffs = [b] + [deriv[k - 1].scale(Fraction(1, k)) for k in range(1, d + 1)]
        return cls(coeffs, marks)

    @classmethod
    def from_coefficients(cls, coeffs, marks) -> "MarkedPolynomial":
        """Monic centered coefficients a_0..a_d plus caller-supplied marks,
        verified against the derivative factorization."""
        marks = tuple(
            m if isinstance(m, CriticalMark) else CriticalMark(m[0], m[1]) for m in marks
        )
        return cls(list(coeffs), marks)

    def _verify(self):
        d = self.degree
        zero, one = self.backend.zero, self.backend.one
        if d < 2:
            raise InvalidMarks("degree must be >= 2")
        if self.coeffs[d] != one:
            raise InvalidMarks("polynomial is not monic")
        if not self.coeffs[d - 1].is_zero:
            raise InvalidMarks("polynomial is not centered")
        if sum(m.multiplicity - 1 for m in self.marks) != d - 1:
            raise InvalidMarks("mark multiplicities do not sum to degree - 1")
        expected = [one]
        for m in self.marks:
            factor = [-m.point, one]
            for _ in range(m.multiplicity - 1):
                expected = poly_mul(expected, factor, zero)
        expected = [c.scale(d) for c in expected]
        actual = poly_derivative(list(self.coeffs))
        actual = actual + [zero] * (len(expected) - len(actual))
        for k, (e, a) in enumerate(zip(expected, actual)):
            if e != a:
                raise InvalidMarks(
                    f"derivative mismatch at degree {k}: marks are not the critical set"
                )

    # -- basic evaluation ------------------------------------------------

    def __call__(self, z: Scalar) -> Scalar:
        if self._int_coeffs is None:
            return poly_eval(list(self.coeffs), z, self.backend.zero)
        if z.backend != self.backend:
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

    def taylor_at(self, a: Scalar) -> tuple[Scalar, ...]:
        cached = self._taylor_cache.get(a)
        if cached is None:
            cached = tuple(taylor_coefficients(list(self.coeffs), a, self.backend.zero))
            self._taylor_cache[a] = cached
        return cached

    def __repr__(self):
        return f"MarkedPolynomial(degree={self.degree}, marks={len(self.marks)})"

    # -- base point -------------------------------------------------------

    @property
    def base_radius_exp(self) -> Fraction:
        """Exponent of the base radius: min(0, v(a_i)/(d-i)), i <= d-2."""
        d = self.degree
        best = Fraction(0)
        for i in range(d - 1):
            v = self.coeffs[i].valuation()
            if not v.is_infinite:
                best = min(best, v.finite / (d - i))
        return best

    def base_point(self) -> BerkPoint:
        return BerkPoint(self.backend.zero, Val(self.base_radius_exp))

    # -- local degrees ------------------------------------------------------

    def image_point(self, x: BerkPoint) -> tuple[BerkPoint, int]:
        """Image disk and local degree at x, from Taylor data at the center."""
        taylor = self.taylor_at(x.center)
        fa = taylor[0]
        if x.is_classical:
            deg = next(k for k in range(1, len(taylor)) if not taylor[k].is_zero)
            return BerkPoint.classical(fa), deg
        q = x.radius_exp.finite
        candidates = [
            (taylor[k].valuation().finite + k * q, k)
            for k in range(1, len(taylor))
            if not taylor[k].valuation().is_infinite
        ]
        best = min(c for c, _ in candidates)
        deg = max(k for c, k in candidates if c == best)
        return BerkPoint(fa, Val(best)), deg

    def local_degree_rh(self, x: BerkPoint) -> int:
        """Riemann-Hurwitz count: 1 + sum of (d_i - 1) over marks in the disk."""
        self.require_tame()
        total = 1
        for m in self.marks:
            if x.contains_scalar(m.point):
                total += m.multiplicity - 1
        return total

    # -- tameness ------------------------------------------------------------

    def tameness_check(self) -> TamenessReport:
        """Enumerate all achievable local degrees and test the residue
        characteristic against each.

        Over SeriesT (residue characteristic 0) every polynomial is tame.
        Over PAdic the achievable degrees are the cluster sums 1 +
        sum_{i in S}(d_i - 1) over mark subsets S realizable as the marks
        inside some disk; every such S is a valuation-prefix around one
        of its members, so O(k^2) clusters suffice.
        """
        if self._tameness is not None:
            return self._tameness
        backend = self.backend
        p = backend.residue_char
        degrees = set()
        witness = None
        witness_degree = None
        if p == 0:
            self._tameness = TamenessReport(True, degrees=frozenset({self.degree}))
            return self._tameness
        clusters: list[tuple[frozenset[int], int, Val]] = []
        k = len(self.marks)
        for i in range(k):
            ci = self.marks[i].point
            joins = []
            for j in range(k):
                if j != i:
                    joins.append(((self.marks[j].point - ci).valuation(), j))
            cuts = sorted({v for v, _ in joins}, reverse=True)
            # singleton cluster: the classical point itself
            clusters.append((frozenset({i}), i, INF))
            for q in cuts:
                members = frozenset({i} | {j for v, j in joins if v >= q})
                clusters.append((members, i, q))
        seen = set()
        for members, i, q in clusters:
            if members in seen:
                continue
            seen.add(members)
            deg = 1 + sum(self.marks[j].multiplicity - 1 for j in members)
            degrees.add(deg)
            if deg % p == 0 and witness is None:
                witness = BerkPoint(self.marks[i].point, q)
                witness_degree = deg
        tame = witness is None
        self._tameness = TamenessReport(tame, witness, witness_degree, frozenset(degrees))
        return self._tameness

    def require_tame(self):
        report = self.tameness_check()
        if not report.tame:
            raise NotTame(
                f"local degree {report.witness_degree} divisible by residue characteristic",
                witness=report.witness,
            )

    # -- ray dynamics -----------------------------------------------------------

    def segment_dynamics(self, c: Scalar) -> PiecewiseMonomial:
        """The exact piecewise map q -> image exponent on the ray at c."""
        self.require_tame()
        taylor = self.taylor_at(c)
        lines = []
        for k in range(1, len(taylor)):
            v = taylor[k].valuation()
            if not v.is_infinite:
                lines.append((k, v.finite))
        return PiecewiseMonomial(lines)
