"""JSON encoding of scalars and exponents, and parsing of polynomial documents.

Every numeric field is an exact rational string ("a/b", "inf"); series
scalars are [exponent, coefficient] lists with strictly increasing
exponents.  Encoders keep a stable field order so reports are
byte-identical across runs.  Parsers also take a JSON integer for a
rational field, and refuse floats, booleans and decimal strings with
InputError.  Each object has one form, and a missing or unknown field
raises InputError: a polynomial {"backend", "marks": [mark], "b"}, a mark
{"c", "mult"}, a backend {"kind": "padic", "p"} or {"kind": "series",
"precision"} with "ram_den" optional, and raw coefficients {"backend",
"coeffs": [nonempty]}.
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


def _fields(data, what: str, required: tuple, optional: tuple = ()) -> list:
    """The values of the required fields, in order, when data is a JSON object
    with each of them and no field but these and the optional ones."""
    if not isinstance(data, dict):
        raise InputError(f"{what} is a JSON object, not {type(data).__name__}")
    try:
        values = [data[key] for key in required]
    except KeyError as exc:
        raise InputError(f"{what} lacks the field {exc}") from None
    if len(data) > len(required) and not data.keys() <= {*required, *optional}:
        raise InputError(f"{what} has the fields {list(data)}, not {[*required, *optional]}")
    return values


def backend_from_json(data: dict):
    """PAdic(p) or SeriesT(precision, ram_den), with ram_den 1 when it is absent."""
    kind = data.get("kind") if isinstance(data, dict) else None
    try:
        if kind == "padic":
            _, p = _fields(data, "a p-adic backend", ("kind", "p"))
            return PAdic(_json_int(p))
        if kind == "series":
            _, precision = _fields(data, "a series backend", ("kind", "precision"), ("ram_den",))
            return SeriesT(_json_rational(precision), _json_int(data.get("ram_den", 1)))
    except _MALFORMED as exc:
        raise InputError(f"bad backend spec: {exc}") from exc
    raise InputError(f"unknown backend kind: {kind!r}")


def scalar_to_json(x: Scalar):
    if x._rat is not None:
        return _rational_str(x._rat)
    return [[str(e), _rational_str(c)] for e, c in x.terms]


def scalar_from_json(backend, data) -> Scalar:
    """A rational literal, or over SeriesT a list of [exponent, coefficient]
    terms whose exponents strictly increase, as `scalar_to_json` writes them."""
    try:
        if not isinstance(data, list):
            return backend.scalar(_json_rational(data))
        if isinstance(backend, PAdic):
            raise InputError("series literal for a p-adic backend")
        if not all(type(term) is list and len(term) == 2 for term in data):
            raise InputError(f"bad scalar literal {data!r}: a term is [exponent, coefficient]")
        terms = [(_json_rational(e), _json_rational(c)) for e, c in data]
        if any(a[0] >= b[0] for a, b in zip(terms, terms[1:])):
            raise InputError(f"bad scalar literal {data!r}: exponents must strictly increase")
        return backend.scalar(terms=terms)
    except _MALFORMED as exc:
        raise InputError(f"bad scalar literal {data!r}: {exc}") from exc


def polynomial_from_json(data: dict) -> MarkedPolynomial:
    """`MarkedPolynomial.from_critical_data` of {"backend", "marks": [{"c", "mult"}], "b"}."""
    spec, marks, b = _fields(data, "a polynomial", ("backend", "marks", "b"))
    backend = backend_from_json(spec)
    if type(marks) is not list:
        raise InputError(f'"marks" is a JSON list, not {marks!r}')
    marks = [_fields(m, "a mark", ("c", "mult")) for m in marks]
    return MarkedPolynomial.from_critical_data(
        [CriticalMark(scalar_from_json(backend, c), _json_int(mult)) for c, mult in marks],
        scalar_from_json(backend, b))


def raw_coefficients_from_json(data: dict) -> list[Scalar]:
    """The coefficients a_0..a_d, for operations that need no critical data."""
    spec, coeffs = _fields(data, "raw coefficients", ("backend", "coeffs"))
    backend = backend_from_json(spec)
    if type(coeffs) is not list or not coeffs:
        raise InputError(f'"coeffs" is a nonempty JSON list, not {coeffs!r}')
    return [scalar_from_json(backend, c) for c in coeffs]
