"""JSON encoding of scalars and exponents, and parsing of polynomial documents.

Every numeric field is an exact rational string ("a/b", "inf"); series
scalars are sorted (exponent, coefficient) pair lists.  Encoders keep a
stable field order so reports are byte-identical across runs.  Parsers
also take a JSON integer for a rational field, and refuse floats, booleans
and decimal strings with InputError.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from tamedyn.errors import TamedynError
from tamedyn.polynomial import CriticalMark, MarkedPolynomial
from tamedyn.valued_field import PAdic, Scalar, SeriesT, _as_fraction


class InputError(TamedynError):
    """Malformed input file or inconsistent backends."""


# what the backends, Fraction(a, 0) and indexing raise on a malformed document
_MALFORMED = (KeyError, TypeError, ValueError, ZeroDivisionError)


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


def _json_rational(x) -> Fraction:
    """A rational JSON field: an integer (not true/false), or a string "a" or
    "a/b" of integers of any length.  Floats are refused (0.1 is not the
    rational 1/10), and so are decimal strings: "1e10000000" alone would
    build a 33-million-bit integer."""
    if type(x) is int:
        return Fraction(x)
    m = _INT_RATIO.fullmatch(x) if isinstance(x, str) else None
    if m is None:
        raise InputError(f'expected a JSON integer or a string "a/b", not {x!r}')
    sign, num, den = m.groups()
    value = Fraction(_int_from_digits(num), 1 if den is None else _int_from_digits(den))
    return -value if sign == "-" else value


def _json_int(value) -> int:
    """A JSON integer field: an int, not true/false, a float or a string."""
    if type(value) is not int:
        raise InputError(f"expected a JSON integer, not {value!r}")
    return value


def val_str(v) -> str:
    """An exponent as text: "inf" for math.inf, else the exact rational of any size;
    TypeError unless v is math.inf, an int (not a bool) or a Fraction."""
    if type(v) is int:
        return _int_str(v)
    if v == math.inf:
        return "inf"
    return _rational_str(_as_fraction(v, "an exponent is an int, a Fraction or math.inf"))


def backend_from_json(data: dict):
    try:
        kind = data["kind"]
        if kind == "padic":
            return PAdic(_json_int(data["p"]))
        if kind == "series":
            return SeriesT(_json_rational(data["precision"]), _json_int(data.get("ram_den", 1)))
    except _MALFORMED as exc:
        raise InputError(f"bad backend spec: {exc}") from exc
    raise InputError(f"unknown backend kind: {kind!r}")


def scalar_to_json(x: Scalar):
    if x._rat is not None:
        return _rational_str(x._rat)
    return [[str(e), _rational_str(c)] for e, c in x.terms]


def scalar_from_json(backend, data) -> Scalar:
    try:
        if not isinstance(data, list):
            return backend.scalar(_json_rational(data))
        if isinstance(backend, PAdic):
            raise InputError("series literal for a p-adic backend")
        if not all(type(term) is list and len(term) == 2 for term in data):
            raise InputError(f"bad scalar literal {data!r}: a term is [exponent, coefficient]")
        return backend.scalar(terms=[(_json_rational(e), _json_rational(c)) for e, c in data])
    except _MALFORMED as exc:
        raise InputError(f"bad scalar literal {data!r}: {exc}") from exc


def polynomial_from_json(data: dict) -> MarkedPolynomial:
    """Accepts {"backend", "marks", "b"} or {"backend", "coeffs", "marks"},
    each with an optional "degree".  A document with both "coeffs" and "b",
    or with neither, raises InputError."""
    if not isinstance(data, dict):
        raise InputError(f"a polynomial is a JSON object, not {type(data).__name__}")
    backend = backend_from_json(data.get("backend", {}))
    if "coeffs" in data and "b" in data:
        raise InputError('a polynomial has "coeffs" or "b", not both')
    try:
        marks = [
            CriticalMark(scalar_from_json(backend, m["c"]), _json_int(m["mult"]))
            for m in data["marks"]
        ]
        if "coeffs" in data:
            coeffs = [scalar_from_json(backend, c) for c in data["coeffs"]]
        else:
            b = scalar_from_json(backend, data["b"])
        degree = _json_int(data["degree"]) if "degree" in data else None
    except _MALFORMED as exc:
        raise InputError(f"bad polynomial field: {type(exc).__name__}: {exc}") from exc
    if "coeffs" in data:
        if not coeffs:
            raise InputError("empty coeffs list")
        f = MarkedPolynomial.from_coefficients(coeffs, marks)
    else:
        f = MarkedPolynomial.from_critical_data(marks, b)
    if degree is not None and degree != f.degree:
        raise InputError(f"declared degree {degree} does not match computed {f.degree}")
    return f


def raw_coefficients_from_json(data: dict) -> list[Scalar]:
    """Coefficient list for operations that need no critical data."""
    if not isinstance(data, dict) or "coeffs" not in data:
        raise InputError("raw polynomial input needs a coeffs list")
    backend = backend_from_json(data.get("backend", {}))
    try:
        coeffs = [scalar_from_json(backend, c) for c in data["coeffs"]]
    except _MALFORMED as exc:
        raise InputError(f"bad coeffs list: {exc}") from exc
    if not coeffs:
        raise InputError("empty coeffs list")
    return coeffs
