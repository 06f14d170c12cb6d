"""Newton lifting of one polynomial to another near the Gauss point.

Given coefficient lists f and g fixing the Gauss point with equal
reductions, and a point x of the unit region where f has unit derivative,
the scheme

    z_0 = x,   w_n = -(f(z_n) - g(x)) / f'(z_n),   z_{n+1} = z_n + w_n

converges quadratically to the value h(x) of the conjugating map with
f(h(x)) = g(x).  With s = v(f - g), the Gauss valuation of the coefficient
difference, each residual still below the target is checked to exceed
the one before by more than the contraction gap mu = s/2.  Since f'(z_n)
is a unit, v(w_n) equals the residual valuation of the same step, so this
one check also bounds the step sizes.  The returned residual valuation is
certified by direct evaluation.
Over PAdic every iterate is p-integral (x and the coefficients are, and
f'(z_n) is a unit), and each is reduced to its ``valued_field.residue``
mod p^(ceil(target) + REDUCE_MARGIN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from tamedyn.errors import ContractionFailed, HypothesisViolated, MaxIterExceeded
from tamedyn.polynomial import poly_derivative, poly_eval
from tamedyn.valued_field import PAdic, Rat, Scalar, _as_fraction, residue

MAX_ITER = 32
REDUCE_MARGIN = 8


@dataclass(frozen=True)
class LiftStep:
    index: int
    w_valuation: Rat
    residual_valuation: Rat


@dataclass(frozen=True)
class LiftResult:
    value: Scalar
    iterations: tuple[LiftStep, ...]
    certified_valuation: Rat | float  # math.inf for an exact root
    displacement_valuation: Rat | float  # v(h(x) - x), math.inf when h(x) = x
    mu: Fraction | None  # contraction gap s/2 the trace was checked against; None when f = g


def _check_gauss_fixed(coeffs: list[Scalar], name: str):
    has_unit = False  # a unit coefficient of degree >= 1
    for k, c in enumerate(coeffs):
        v = c.valuation()
        if v < 0:
            raise HypothesisViolated(
                f"{name} does not preserve the unit disk: v(coeff {k}) < 0", clause=1
            )
        if k >= 1 and v == 0:
            has_unit = True
    if not has_unit:
        raise HypothesisViolated(
            f"{name} does not fix the Gauss point: no unit coefficient of degree >= 1",
            clause=1,
        )


def lift(fc: list[Scalar], gc: list[Scalar], x: Scalar, target) -> LiftResult:
    """Solve f(h(x)) = g(x) for h(x) near x, with certified residual.

    Hypotheses checked: (1) both polynomials fix the Gauss point,
    (2) their reductions agree (coefficientwise positive valuation of
    the difference), (3) unit derivative at x; plus unit-region
    membership v(x) >= 0.  f, g and x must share one backend (checked
    first, as hypothesis "backend").
    """
    target = _as_fraction(target, "target must be an int or a Fraction")
    backend = fc[0].backend
    if any(c.backend != backend for c in (*fc, *gc, x)):
        raise HypothesisViolated("f, g and x are not over one backend", clause="backend")
    zero = backend.zero
    _check_gauss_fixed(fc, "f")
    _check_gauss_fixed(gc, "g")
    width = max(len(fc), len(gc))
    fpad = fc + [zero] * (width - len(fc))
    gpad = gc + [zero] * (width - len(gc))
    s = min((cf - cg).valuation() for cf, cg in zip(fpad, gpad))
    if not s > 0:
        raise HypothesisViolated("reductions of f and g differ", clause=2)
    if x.valuation() < 0:
        raise HypothesisViolated("x lies outside the unit region", clause="region")
    mu = None if s == math.inf else Fraction(s, 2)
    fprime = poly_derivative(fc)

    reduce_exp = math.ceil(target) + REDUCE_MARGIN
    gx = poly_eval(gc, x, zero)
    z = x
    steps: list[LiftStep] = []
    for n in range(MAX_ITER + 1):
        residual = poly_eval(fc, z, zero) - gx
        res_v = residual.valuation()
        if res_v >= target:
            displacement = (z - x).valuation()
            return LiftResult(z, tuple(steps), res_v, displacement, mu)
        # below the target the reduction (at target + REDUCE_MARGIN) cannot
        # have moved the residual, so a stall here is one of the iteration
        if steps and not (res_v > steps[-1].residual_valuation + mu):
            raise ContractionFailed(
                f"residual stalled at step {n}: {res_v} vs {steps[-1].residual_valuation} + {mu}"
            )
        deriv = poly_eval(fprime, z, zero)
        if deriv.valuation() != 0:
            raise HypothesisViolated(
                f"derivative is not a unit at iterate {n}", clause=3
            )
        w = -residual / deriv
        steps.append(LiftStep(n, w.valuation(), res_v))
        z = z + w
        if isinstance(backend, PAdic):
            z = backend.scalar(residue(z.rational, backend.p ** reduce_exp))
    raise MaxIterExceeded(f"no convergence to valuation {target} in {MAX_ITER} steps")
