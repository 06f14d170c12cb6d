"""Pointwise evaluation of the coordinate conjugating f to z^d near infinity.

phi is the limit z * (f^N(z) / z^(d^N))^(1/d^N) (Benedetto, Dynamics in One
Non-Archimedean Variable, GSM 198), the telescoped form of the product

    z * prod_{n >= 0} ( f^(n+1)(z) / f^n(z)^d )^(1/d^(n+1)),

every root the 1-unit congruent to 1, which pins phi(z)/z -> 1.  With
v(z) = v0 strictly below the base exponent, factor n is a 1-unit of
valuation at least 2*(base - d^n*v0); N, the number of factors taken, is
the least that reaches the requested precision by that exact tail bound.

Over PAdic the roots are taken in the 1-units mod p^K, a group of order
p^(K-1) prime to d, where roots are unique; the d^N-th power of the product
of the first N factors is f^N(z)/z^(d^N), so that product is its one root.
Over SeriesT the cutoff is not closed under products of negative valuation
(ROADMAP item 1), so the product of N roots of neighbouring-iterate
quotients stays until series scalars carry their precision.

The closeness comparator evaluates both coordinates at each critical
point's first-exit orbit value and reports the minimal valuation gap,
relative to the value's own modulus.

Each value is kept on the polynomial (``MarkedPolynomial._phi``), so the
conjugacy check's coordinate clause reads the comparator's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from tamedyn.errors import (
    BudgetExhausted,
    NotComparable,
    NotOutsideBaseDisk,
    PrecisionExhausted,
)
from tamedyn.escape import Escaping, Unknown, classify_critical
from tamedyn.polynomial import MarkedPolynomial
from tamedyn.valued_field import PAdic, Scalar, SeriesT, _as_fraction, nth_root_unit


def _check_precision(precision) -> Fraction:
    """The precision as a Fraction; TypeError unless an int (not a bool) or a Fraction."""
    return _as_fraction(precision, "precision must be an int or a Fraction")


def phi_eval(f: MarkedPolynomial, z: Scalar, precision) -> Scalar:
    """phi(z) to the given absolute valuation precision, an int or a Fraction,
    computed once per polynomial, point and precision.

    Requires |z| strictly outside the closed base disk.  One root over PAdic;
    the SeriesT product goes once series scalars carry precision (item 1).
    """
    precision = _check_precision(precision)
    if (z, precision) in f._phi:
        return f._phi[z, precision]
    backend = f.backend
    d = f.degree
    base = f.base_radius_exp
    v0 = z.valuation()
    if not v0 < base:
        raise NotOutsideBaseDisk("phi is only evaluated strictly outside the base disk")
    if isinstance(backend, SeriesT) and precision > backend.precision:
        raise PrecisionExhausted(
            f"requested precision {precision} exceeds the series cutoff"
        )
    rel_target = precision - v0
    padic = isinstance(backend, PAdic)
    phi = w = z
    n = 0
    while 2 * (base - d ** n * v0) < rel_target:
        fw = f(w)
        if not padic:
            phi = phi * nth_root_unit(fw / w ** d, d ** (n + 1), precision=rel_target)
        w = fw
        n += 1
    if padic and n:
        phi = z * nth_root_unit(w / z ** d ** n, d ** n, precision=rel_target)
    f._phi[z, precision] = phi
    return phi


@dataclass(frozen=True)
class RhoBound:
    """Lower bound on the valuation gap between the two coordinates along
    first-exit critical values, relative to their modulus: an int or a
    Fraction, or math.inf when no difference was detected at the working
    precision (the spec's operational reading of equal coordinates), so
    that ``rho_exp < rho`` is false for every rho."""

    rho_exp: int | Fraction | float


def _first_exits(f: MarkedPolynomial):
    out = []
    for mark in f.marks:
        rec = classify_critical(f, mark)
        if isinstance(rec, Unknown):
            raise BudgetExhausted(
                f"critical mark at {mark.point!r} unresolved within budget"
            )
        out.append(rec.first_exit if isinstance(rec, Escaping) else None)
    return out


def rho_closeness(f: MarkedPolynomial, g: MarkedPolynomial, precision) -> RhoBound:
    """Compare the two coordinates along index-aligned escaping marks.

    Preconditions: equal degree, equal base exponent, index-aligned mark
    multiplicities, and matching escape patterns (same escaping indices
    with the same first-exit times); otherwise NotComparable.  Only the
    first-exit iterates are evaluated; beyond them the comparison is
    propagated by the degree-d isometry off the axis.  A precision that
    is not an int or a Fraction raises TypeError before any orbit work.
    """
    precision = _check_precision(precision)
    if f.backend != g.backend:
        raise NotComparable("different backends")
    if f.degree != g.degree:
        raise NotComparable("different degrees")
    if len(f.marks) != len(g.marks) or any(
        mf.multiplicity != mg.multiplicity for mf, mg in zip(f.marks, g.marks)
    ):
        raise NotComparable("marks are not index-aligned")
    if f.base_radius_exp != g.base_radius_exp:
        raise NotComparable("base points differ")
    exits_f = _first_exits(f)
    exits_g = _first_exits(g)
    if exits_f != exits_g:
        raise NotComparable(
            f"escape patterns differ: {exits_f} vs {exits_g}"
        )
    rho = math.inf
    for mark_f, mark_g, m in zip(f.marks, g.marks, exits_f):
        if m is None:
            continue
        wf = f.orbit(mark_f, m)[m]
        wg = g.orbit(mark_g, m)[m]
        pf = phi_eval(f, wf, precision)
        pg = phi_eval(g, wg, precision)
        diff_v = (pf - pg).valuation()
        if diff_v >= precision:
            continue  # indistinguishable at this precision
        rho = min(rho, diff_v - wf.valuation())
    return RhoBound(rho)
