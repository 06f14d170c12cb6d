"""Orbit classification of critical points and the basin-of-infinity tests.

Escape is decided by exact iteration: the orbit leaves the base disk or
it does not within BUDGET steps.  Each orbit value is computed once per
polynomial, by the store `MarkedPolynomial.orbit`, which classification,
the core tree and the first-exit values of `rho_closeness` read; a mark's
record is kept on the polynomial.  `phi_eval` iterates f again from the
value it is given, recomputing orbit values the store may hold.
Non-escape is certified in two ways.  An exact cycle of orbit values
makes the mark bounded; the kind of its bounded component is then
resolved by pulling the base point back along the orbit with exact
piecewise-linear inversions.  Over PAdic with base exponent 0 the unit
disk maps into itself, so every mark is bounded and the only question is
whether its orbit cycles.  A rational point is preperiodic only if its
orbit is bounded at every place of Q (Call-Silverman), so an orbit value
that escapes at the real place or at a prime q != p (see `_wanders`)
proves that the orbit never cycles, and the component is the whole disk.

For an eventually periodic orbit the ray maps of one period compose to
a single exact ray map F (a min of lines k*q + v, every k >= 1), and the
pullback over the period is its inverse W = F^-1, continuous and
increasing.  From the base exponent, where W does not move down, the
iterates of W rise to the least fixed point of W at or above it, or grow
without bound when there is none.  W and F have the same fixed points,
and G(q) = F(q) - q is nondecreasing, so the first zero of G is the base
exponent itself or the point -v/(k-1) where a line of slope k >= 2
meets the diagonal.  A finite limit exponent means the critical point
sits in a closed-disk component of that diameter; divergence means the
component is the point itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from tamedyn.polynomial import CriticalMark, MarkedPolynomial, PiecewiseMonomial
from tamedyn.valued_field import Scalar

BUDGET = 64  # orbit steps searched for an exit or a cycle, read at call time
MAX_HEIGHT_BITS = 100_000


@dataclass(frozen=True)
class Escaping:
    first_exit: int


@dataclass(frozen=True)
class Bounded:
    kind: str  # "disk" | "point"
    diam_exp: Fraction | None = None
    preperiod: int = 0
    period: int = 0


@dataclass(frozen=True)
class Unknown:
    budget_spent: int


EscapeRecord = Union[Escaping, Bounded, Unknown]


class Classification(Enum):
    SIMPLE = "Simple"
    TAME_SHIFT_LOCUS = "TameShiftLocus"
    JULIA_IN_AFFINE = "JuliaInAffine"
    HAS_BOUNDED_FATOU = "HasBoundedFatou"
    UNKNOWN = "Unknown"


def _height_bits(x: Scalar) -> int:
    if x._rat is not None:
        q = x._rat
        return q.numerator.bit_length() + q.denominator.bit_length()
    total = 0
    for _, c in x.terms:
        total += c.numerator.bit_length() + c.denominator.bit_length()
    return total


def iterate_pl_to_limit(F: PiecewiseMonomial, start: Fraction) -> Fraction | None:
    """Limit of r -> F.invert(r) from start, requiring F.invert(start) >= start.

    Returns the least fixed point of F at or above start, found among start
    and the points -v/(k-1) where a line of slope k >= 2 meets the
    diagonal, or None when the iteration diverges.
    """
    if F.invert(start) < start:
        raise AssertionError("pullback iteration must be nondecreasing")
    candidates = [start] + [Fraction(-v, k - 1) for k, v in F.lines if k > 1]
    return min((q for q in candidates if q >= start and F.image_exp(q) == q), default=None)


def _wanders(f: MarkedPolynomial, z: Fraction) -> bool:
    """Whether the orbit of z = N/M under a PAdic f of base exponent 0
    provably never repeats a value.

    With L the lcm of the coefficient denominators, either test shows that
    the orbit leaves every bounded set at some place other than p:
    - at the real place, |z| > R = 1 + sum_{i<d} |a_i|: then
      |f(z)| > |z|^(d-1) >= |z| > R, so the absolute values increase;
    - at a prime q, M does not divide L: then v_q(M) > v_q(L) for some q,
      which is not p since v_p(z) >= 0, and v_q(z) < -v_q(L) <= the
      q-adic base exponent, so v_q(f^n(z)) = d^n v_q(z) decreases.
    """
    n, m = z.numerator, z.denominator
    L = f._den
    return abs(n) * L > f._real_bound * m or m > L or L % m != 0


def _resolve_bounded(f: MarkedPolynomial, values, preperiod: int, period: int) -> Bounded:
    base = f.base_radius_exp
    maps = [f.segment_dynamics(values[j]) for j in range(preperiod + period)]
    # the ray map of one period from orbit position `preperiod`; the
    # pullback iterated below is its inverse
    F = maps[preperiod]
    for j in range(preperiod + 1, preperiod + period):
        F = maps[j].compose(F)
    q = iterate_pl_to_limit(F, base)
    if q is None:
        return Bounded("point", preperiod=preperiod, period=period)
    # pull the cycle limit back through the preperiod
    for j in reversed(range(preperiod)):
        q = maps[j].invert(q)
    return Bounded("disk", diam_exp=q, preperiod=preperiod, period=period)


def classify_critical(f: MarkedPolynomial, mark: CriticalMark) -> EscapeRecord:
    """EscapeRecord of a marked critical point under exact iteration.

    Each mark is classified once per polynomial, within the BUDGET read at
    that time: the record and the orbit are kept on f, so the
    classification report, the core tree and the conjugacy checks share
    one orbit per mark.
    """
    rec = f._records.get(mark)
    if rec is None:
        rec = f._records[mark] = _classify(f, mark)
    return rec


def _classify(f: MarkedPolynomial, mark: CriticalMark) -> EscapeRecord:
    """The record of the mark's stored orbit, read and extended step by
    step: Escaping(m) when f^m(c) is the first value outside the base disk,
    the resolved record of a cycle, or, when no cycle was found by step n
    (the budget ran out, the height guard tripped, or `_wanders` proved
    that none will come), the unit disk at base exponent 0 and Unknown(n)
    otherwise."""
    base = f.base_radius_exp
    certify = f._int_coeffs is not None and base == 0
    seen: dict[Scalar, int] = {}
    for n in range(BUDGET + 1):
        z = f.orbit(mark, n)[n]
        if z.valuation() < base:
            return Escaping(n)
        if z in seen:
            return _resolve_bounded(f, f.orbit(mark, n), seen[z], n - seen[z])
        if n and ((certify and _wanders(f, z.rational)) or _height_bits(z) > MAX_HEIGHT_BITS):
            break
        seen[z] = n
    if base == 0:
        # base exponent 0 forces integral coefficients, so the unit disk
        # maps into itself and equals the filled Julia set: the mark is
        # bounded with the full disk as its component, whether the
        # certificate, the height guard or the budget ended the search
        return Bounded("disk", diam_exp=Fraction(0))
    return Unknown(n)


def classification_report(f: MarkedPolynomial):
    """Per-mark EscapeRecords plus the aggregate classification.

    Aggregation order: all escaping -> TameShiftLocus; all bounded at a
    fixed critical point filling the base disk -> Simple; any witnessed
    disk component -> HasBoundedFatou; escaping/point components only ->
    JuliaInAffine; anything unresolved -> Unknown.
    """
    records = [classify_critical(f, m) for m in f.marks]
    base = f.base_radius_exp

    def is_fixed_full_disk(mark, rec):
        return (
            isinstance(rec, Bounded)
            and rec.kind == "disk"
            and rec.diam_exp == base
            and f.orbit(mark, 1)[1] == mark.point
        )

    if all(isinstance(r, Escaping) for r in records):
        return Classification.TAME_SHIFT_LOCUS, records
    if all(is_fixed_full_disk(m, r) for m, r in zip(f.marks, records)):
        return Classification.SIMPLE, records
    if any(isinstance(r, Bounded) and r.kind == "disk" for r in records):
        return Classification.HAS_BOUNDED_FATOU, records
    if all(
        isinstance(r, Escaping) or (isinstance(r, Bounded) and r.kind == "point")
        for r in records
    ):
        return Classification.JULIA_IN_AFFINE, records
    return Classification.UNKNOWN, records
