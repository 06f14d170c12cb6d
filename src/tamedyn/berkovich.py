"""Points of the Berkovich affine line of types I-III.

A point is a closed disk D(a, r) in the field, stored as its center and
the plain exponent q with r = base^(-q): an int, a Fraction or
``math.inf``, like ``CoreVertex.exponent``.  Infinite exponent encodes
radius 0, i.e. a classical (type I) point.  Type IV points are
unrepresentable by design; the algorithms in this package never need them.
``radius_exp`` is the view of the exponent that ``bench/checks.py`` reads.

The module is kept for the partial order by disk containment, which the
core tree's parent search reads through ``compare``, and for the equality
and hyperbolic distance that the tree checks of ``bench/checks.py`` read.
Distances are exact rationals in backend log units (one unit = log p for
PAdic, = 1 for SeriesT).  Points over different backends are never equal,
and ``compare`` and ``hyp_dist`` raise TypeError("mixed backends") on them
when they subtract the centers.
"""

from __future__ import annotations

import enum
import math

from tamedyn.errors import TypeIPoint
from tamedyn.valued_field import Rat, Scalar, Val


class Comparison(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class BerkPoint:
    """A type I/II/III point: a closed disk with a plain exponent, or one given
    as a ``Val``; a float or a bool exponent raises TypeError."""

    __slots__ = ("center", "exponent")

    def __init__(self, center: Scalar, exponent):
        self.center = center
        self.exponent = (exponent if isinstance(exponent, Val) else Val(exponent)).q

    @property
    def radius_exp(self) -> Val:
        return Val(self.exponent)

    def __eq__(self, other):
        if not isinstance(other, BerkPoint):
            return NotImplemented
        if self.center.backend != other.center.backend or self.exponent != other.exponent:
            return False
        return (self.center - other.center).valuation() >= self.exponent

    def __repr__(self):
        return f"BerkPoint({self.center!r}, exp={self.exponent})"


def compare(x: BerkPoint, y: BerkPoint) -> Comparison:
    """Partial order by disk containment.

    x < y iff the disk of x is strictly contained in the disk of y,
    i.e. exponent(x) >= exponent(y) and the centers agree at scale y.
    """
    centers = (x.center - y.center).valuation()
    if x.exponent >= y.exponent and centers >= y.exponent:
        return Comparison.EQUAL if x.exponent == y.exponent else Comparison.LESS
    if y.exponent >= x.exponent and centers >= x.exponent:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


def hyp_dist(x: BerkPoint, y: BerkPoint) -> Rat:
    """Hyperbolic distance in backend log units, an int or a Fraction.

    Both points must be of type II/III; the path runs through the smallest
    disk containing both.
    """
    if x.exponent == math.inf or y.exponent == math.inf:
        raise TypeIPoint("hyperbolic distance needs non-classical points")
    q = min(x.exponent, y.exponent, (x.center - y.center).valuation())
    return x.exponent + y.exponent - 2 * q
