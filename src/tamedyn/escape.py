"""Orbit classification of critical points and the basin-of-infinity tests.

Escape is decided by exact iteration: the orbit leaves the base disk or
it does not within the budget.  Non-escape is only ever certified
structurally, from an exact cycle of orbit values; the kind of the
bounded component is then resolved by pulling the base point back along
the orbit with exact piecewise-linear inversions.

For an eventually periodic orbit the ray maps of one period compose to
a single exact ray map F (a min of lines k*q + v), and the pullback over
the period is its inverse W = F^-1, a convex increasing piecewise-linear
map (the max of the lines (q - v)/k).  Iterating W from the base
exponent is decidable in closed form: on each affine piece the
iteration either fixes, converges to the piece's affine fixed point
(geometric sum, exact), or crosses into the next piece after an exactly
computed number of steps.  A finite limit exponent means the critical
point sits in a closed-disk component of that diameter; divergence
means the component is the point itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from tamedyn.berkovich import BerkPoint
from tamedyn.errors import BudgetExhausted, NotInBasin
from tamedyn.polynomial import CriticalMark, MarkedPolynomial, PiecewiseMonomial
from tamedyn.valued_field import Scalar, Val

DEFAULT_BUDGET = 64
MAX_HEIGHT_BITS = 100_000


@dataclass(frozen=True)
class Escaping:
    first_exit: int


@dataclass(frozen=True)
class Bounded:
    kind: str  # "disk" | "point" | "undetermined"
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


def iterate_pl_to_limit(F: PiecewiseMonomial, start: Fraction):
    """Limit of r -> F.invert(r) from start, requiring F.invert(start) >= start.

    Returns ("fixed", limit) or ("diverges", None).  Exact and total:
    each affine piece is resolved in closed form.
    """
    # the inverse is the max of the lines r -> (r - v)/k; from the left
    # its pieces are F's lines from the largest slope down, split at the
    # images of F's corners
    inverse = [(Fraction(1, k), Fraction(-v, k)) for k, v in reversed(F.lines)]
    bounds = [F.image_exp(q) for q in F.breakpoints()]
    pieces = [(bounds[i - 1] if i > 0 else None, bounds[i] if i < len(bounds) else None, s, b)
              for i, (s, b) in enumerate(inverse)]
    r = start
    for _ in range(len(pieces) + 2):
        w = F.invert(r)
        if w == r:
            return "fixed", r
        if w < r:
            raise AssertionError("pullback iteration must be nondecreasing")
        # piece carrying the forward motion at r (highest slope attaining)
        idx = max(i for i, (lo, hi, s, b) in enumerate(pieces)
                  if (lo is None or r >= lo) and s * r + b == w)
        lo, hi, s, b = pieces[idx]
        if s == 1:
            if hi is None:
                return "diverges", None
            step = w - r
            n = -((r - hi) // step)  # ceil((hi - r)/step)
            r = r + n * step
        else:
            # s < 1 strictly on pullbacks; affine fixed point of the piece
            fix = b / (1 - s)
            if hi is None or fix <= hi:
                return "fixed", fix
            # cross hi after exactly n steps: (fix - r) s^n <= fix - hi
            gap = fix - r
            target = fix - hi
            n = 0
            while gap > target:
                gap *= s
                n += 1
            r = fix - gap
    raise AssertionError("piece-jumping failed to settle")


def _orbit_until_exit(f: MarkedPolynomial, start: Scalar, budget: int):
    """("escape", m, values) on first exit, ("cycle", (preperiod, period),
    values), or ("unknown", n, values)."""
    base = Val(f.base_radius_exp)
    values = [start]
    if start.valuation() < base:
        return "escape", 0, values
    seen = {start: 0}
    z = start
    for n in range(1, budget + 1):
        z = f(z)
        if z.valuation() < base:
            values.append(z)
            return "escape", n, values
        if z in seen:
            return "cycle", (seen[z], n - seen[z]), values
        if _height_bits(z) > MAX_HEIGHT_BITS:
            return "unknown", n, values
        seen[z] = n
        values.append(z)
    return "unknown", budget, values


def _resolve_bounded(f: MarkedPolynomial, values, preperiod: int, period: int) -> Bounded:
    base = f.base_radius_exp
    maps = [f.segment_dynamics(values[j]) for j in range(preperiod + period)]
    # the ray map of one period from orbit position `preperiod`; the
    # pullback iterated below is its inverse
    F = maps[preperiod]
    for j in range(preperiod + 1, preperiod + period):
        F = maps[j].compose(F)
    status, limit = iterate_pl_to_limit(F, base)
    if status == "diverges":
        return Bounded("point", preperiod=preperiod, period=period)
    # pull the cycle limit back through the preperiod
    q = limit
    for j in reversed(range(preperiod)):
        q = maps[j].invert(q)
    return Bounded("disk", diam_exp=q, preperiod=preperiod, period=period)


def classify_critical(f: MarkedPolynomial, mark: CriticalMark,
                      budget: int = DEFAULT_BUDGET) -> EscapeRecord:
    """EscapeRecord of a marked critical point under exact iteration.

    Each (mark, budget) is classified once per polynomial: the record is
    kept on f, so the classification report, the core tree and the
    conjugacy checks share one orbit per mark.
    """
    key = (mark, budget)
    rec = f._records.get(key)
    if rec is None:
        rec = f._records[key] = _classify(f, mark, budget)
    return rec


def _classify(f: MarkedPolynomial, mark: CriticalMark, budget: int) -> EscapeRecord:
    f.require_tame()
    status, data, values = _orbit_until_exit(f, mark.point, budget)
    if status == "escape":
        return Escaping(data)
    if status == "unknown":
        if f.base_radius_exp == 0:
            # base exponent 0 forces integral coefficients, so the unit
            # disk maps into itself and equals the filled Julia set: the
            # mark is bounded with the full disk as its component
            return Bounded("disk", diam_exp=Fraction(0))
        return Unknown(data)
    preperiod, period = data
    return _resolve_bounded(f, values, preperiod, period)


def boettcher_modulus(f: MarkedPolynomial, x, budget: int = DEFAULT_BUDGET) -> Val:
    """Exact exponent of the extended coordinate modulus at x.

    Iterates until the point leaves the base disk, then divides the exit
    exponent by the accumulated degree power; exact rational.
    """
    if isinstance(x, Scalar):
        x = BerkPoint.classical(x)
    base = Val(f.base_radius_exp)
    d = f.degree
    if f.base_radius_exp == 0 and x.modulus_exp() >= base:
        raise NotInBasin("the unit disk is the filled Julia set here")
    cur = x
    seen = []
    for n in range(budget + 1):
        e = cur.modulus_exp()
        if e < base:
            return Val(e.finite / d ** n)
        for old in seen:
            if old == cur:
                raise NotInBasin("orbit is periodic inside the base disk")
        seen.append(cur)
        if _height_bits(cur.center) > MAX_HEIGHT_BITS:
            raise BudgetExhausted("orbit values exceeded the height guard")
        img, _ = f.image_point(cur)
        cur = img
    raise BudgetExhausted(f"no exit from the base disk within {budget} iterations")


def classification_report(f: MarkedPolynomial, budget: int = DEFAULT_BUDGET):
    """Per-mark EscapeRecords plus the aggregate classification.

    Aggregation order: all escaping -> TameShiftLocus; all bounded at a
    fixed critical point filling the base disk -> Simple; any witnessed
    disk component -> HasBoundedFatou; escaping/point components only ->
    JuliaInAffine; anything unresolved -> Unknown.
    """
    f.require_tame()
    records = [classify_critical(f, m, budget) for m in f.marks]
    base = f.base_radius_exp

    def is_fixed_full_disk(mark, rec):
        return (
            isinstance(rec, Bounded)
            and rec.kind == "disk"
            and rec.diam_exp == base
            and f(mark.point) == mark.point
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
