"""Exact dynamics of tame polynomials on the Berkovich affine line.

Two exactly representable non-Archimedean backends are supported: the
rationals with a p-adic valuation, and truncated Puiseux series over the
rationals with the t-adic valuation.  Every quantity is an exact rational
(valuations, radius exponents, hyperbolic lengths) or an exact field
element; no floating point is used anywhere.
"""

from tamedyn.valued_field import PAdic, SeriesT, Scalar, Val, nth_root_unit
from tamedyn.berkovich import BerkPoint, Comparison, compare, hyp_dist, join
from tamedyn.polynomial import CriticalMark, MarkedPolynomial

__all__ = [
    "PAdic",
    "SeriesT",
    "Scalar",
    "Val",
    "nth_root_unit",
    "BerkPoint",
    "Comparison",
    "compare",
    "join",
    "hyp_dist",
    "CriticalMark",
    "MarkedPolynomial",
]
