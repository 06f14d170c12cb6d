"""Points of the Berkovich affine line of types I-III and their tree geometry.

A point is a closed disk D(a, r) in the field, stored as its center and
the exponent q with r = base^(-q), a ``Val`` built from a plain exponent
(an int, a Fraction or ``math.inf``).  Infinite exponent encodes radius 0,
i.e. a classical (type I) point.  Type IV points are unrepresentable by
design; the algorithms in this package never need them.

The partial order is disk containment, the join is the smallest disk
containing both arguments, and the hyperbolic metric on non-classical
points is measured in backend log units (one unit = log p for PAdic,
= 1 for SeriesT), stored as exact rationals.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from tamedyn.errors import TypeIPoint
from tamedyn.valued_field import Scalar, Val


class Comparison(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class BerkPoint:
    """A type I/II/III point: closed disk with exact radius exponent."""

    __slots__ = ("center", "radius_exp")

    def __init__(self, center: Scalar, radius_exp):
        self.center = center
        self.radius_exp = radius_exp if isinstance(radius_exp, Val) else Val(radius_exp)

    @classmethod
    def classical(cls, center: Scalar) -> "BerkPoint":
        return cls(center, math.inf)

    @property
    def backend(self):
        return self.center.backend

    @property
    def is_classical(self) -> bool:
        return self.radius_exp.is_infinite

    def contains_scalar(self, b: Scalar) -> bool:
        """Whether the classical point b lies in the closed disk."""
        return Val((b - self.center).valuation()) >= self.radius_exp

    def __eq__(self, other):
        if not isinstance(other, BerkPoint):
            return NotImplemented
        if self.backend != other.backend or self.radius_exp != other.radius_exp:
            return False
        return Val((self.center - other.center).valuation()) >= self.radius_exp

    def __hash__(self):
        # Equal points may carry different centers; hash only the backend
        # and radius data (trees here are small, collisions are harmless).
        return hash((self.backend, self.radius_exp))

    def __repr__(self):
        return f"BerkPoint({self.center!r}, exp={self.radius_exp})"


def compare(x: BerkPoint, y: BerkPoint) -> Comparison:
    """Partial order by disk containment.

    x < y iff the disk of x is strictly contained in the disk of y,
    i.e. radius_exp(x) >= radius_exp(y) and the centers agree at scale y.
    """
    if x.backend != y.backend:
        raise TypeError("mixed backends")
    centers = Val((x.center - y.center).valuation())
    if x.radius_exp >= y.radius_exp and centers >= y.radius_exp:
        return Comparison.EQUAL if x.radius_exp == y.radius_exp else Comparison.LESS
    if y.radius_exp >= x.radius_exp and centers >= x.radius_exp:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


def join(x: BerkPoint, y: BerkPoint) -> BerkPoint:
    """Least upper bound: the smallest disk containing both."""
    if x.backend != y.backend:
        raise TypeError("mixed backends")
    q = min(x.radius_exp, y.radius_exp, Val((x.center - y.center).valuation()))
    return BerkPoint(x.center, q)


def hyp_dist(x: BerkPoint, y: BerkPoint) -> Fraction:
    """Hyperbolic distance in backend log units (exact rational).

    Both points must be of type II/III; distance is additive along the
    path through the join.
    """
    if x.radius_exp.is_infinite or y.radius_exp.is_infinite:
        raise TypeIPoint("hyperbolic distance needs non-classical points")
    j = join(x, y)
    return x.radius_exp.finite + y.radius_exp.finite - 2 * j.radius_exp.finite
