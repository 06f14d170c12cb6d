"""JSON encoding of scalars, points, polynomials and reports.

Every numeric field is an exact rational string ("a/b", "inf"); series
scalars are sorted (exponent, coefficient) pair lists.  Encoders keep a
stable field order so reports are byte-identical across runs.
"""

from __future__ import annotations

import re
from fractions import Fraction

from tamedyn.berkovich import BerkPoint
from tamedyn.errors import TamedynError
from tamedyn.polynomial import CriticalMark, MarkedPolynomial
from tamedyn.valued_field import INF, PAdic, Scalar, SeriesT, Val


class InputError(TamedynError):
    """Malformed input file or inconsistent backends."""


# str() and int() refuse integers of more than sys.get_int_max_str_digits()
# decimal digits (4300 by default, 640 at the least), and escaped orbit
# values exceed that at moderate depths: longer integers are converted in
# halves split at a power of ten.
_SAFE_DIGITS = 640
_SAFE_INT = 10 ** _SAFE_DIGITS
_INT_RATIO = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def _int_str(n: int) -> str:
    if n < 0:
        return "-" + _int_str(-n)
    if n < _SAFE_INT:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half of the decimal digits
    high, low = divmod(n, 10 ** half)
    return _int_str(high) + _int_str(low).zfill(half)


def _int_from_digits(digits: str) -> int:
    if len(digits) <= _SAFE_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _int_from_digits(digits[:-half]) * 10 ** half + _int_from_digits(digits[-half:])


def _rational_str(q: Fraction) -> str:
    """str(q) for a rational of any size."""
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def _parse_rational(x) -> Fraction:
    """Fraction(x), also for strings "a" and "a/b" of integers of any length."""
    m = _INT_RATIO.fullmatch(x) if isinstance(x, str) else None
    if m is None:
        return Fraction(x)
    sign, num, den = m.groups()
    value = Fraction(_int_from_digits(num), 1 if den is None else _int_from_digits(den))
    return -value if sign == "-" else value


def val_str(v: Val) -> str:
    return "inf" if v.is_infinite else str(v.finite)


def val_from_str(s: str) -> Val:
    if s == "inf":
        return INF
    return Val(Fraction(s))


def backend_to_json(backend) -> dict:
    if isinstance(backend, PAdic):
        return {"kind": "padic", "p": backend.p}
    return {
        "kind": "series",
        "precision": str(backend.precision),
        "ram_den": backend.ram_den,
    }


def backend_from_json(data: dict):
    try:
        kind = data["kind"]
        if kind == "padic":
            return PAdic(int(data["p"]))
        if kind == "series":
            return SeriesT(Fraction(data["precision"]), int(data.get("ram_den", 1)))
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad backend spec: {exc}") from exc
    raise InputError(f"unknown backend kind: {kind!r}")


def scalar_to_json(x: Scalar):
    if x._rat is not None:
        return _rational_str(x._rat)
    return [[str(e), _rational_str(c)] for e, c in x.terms]


def scalar_from_json(backend, data) -> Scalar:
    try:
        if isinstance(data, (str, int)):
            return backend.scalar(_parse_rational(data))
        if isinstance(data, list):
            if isinstance(backend, PAdic):
                raise InputError("series literal for a p-adic backend")
            return backend.scalar(terms=[(Fraction(e), _parse_rational(c)) for e, c in data])
    except InputError:
        raise
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad scalar literal {data!r}: {exc}") from exc
    raise InputError(f"bad scalar literal {data!r}")


def point_to_json(x: BerkPoint) -> dict:
    return {"center": scalar_to_json(x.center), "radius_exp": val_str(x.radius_exp)}


def point_from_json(backend, data) -> BerkPoint:
    return BerkPoint(
        scalar_from_json(backend, data["center"]), val_from_str(data["radius_exp"])
    )


def polynomial_to_json(f: MarkedPolynomial) -> dict:
    return {
        "backend": backend_to_json(f.backend),
        "degree": f.degree,
        "marks": [
            {"c": scalar_to_json(m.point), "mult": m.multiplicity} for m in f.marks
        ],
        "b": scalar_to_json(f.coeffs[0]),
    }


def polynomial_from_json(data: dict) -> MarkedPolynomial:
    """Accepts {"backend", "marks", "b"} or {"backend", "coeffs", "marks"}."""
    backend = backend_from_json(data.get("backend", {}))
    try:
        marks = [
            CriticalMark(scalar_from_json(backend, m["c"]), int(m["mult"]))
            for m in data["marks"]
        ]
        if "coeffs" in data:
            coeffs = [scalar_from_json(backend, c) for c in data["coeffs"]]
            f = MarkedPolynomial.from_coefficients(coeffs, marks)
        else:
            b = scalar_from_json(backend, data["b"])
            f = MarkedPolynomial.from_critical_data(marks, b)
    except KeyError as exc:
        raise InputError(f"missing polynomial field: {exc}") from exc
    if "degree" in data and int(data["degree"]) != f.degree:
        raise InputError(
            f"declared degree {data['degree']} does not match computed {f.degree}"
        )
    return f


def raw_coefficients_from_json(data: dict) -> list[Scalar]:
    """Coefficient list for operations that need no critical data."""
    backend = backend_from_json(data.get("backend", {}))
    if "coeffs" not in data:
        raise InputError("raw polynomial input needs a coeffs list")
    return [scalar_from_json(backend, c) for c in data["coeffs"]]
