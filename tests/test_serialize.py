import json
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamedyn.berkovich import BerkPoint
from tamedyn.core import build_core, export_core
from tamedyn.errors import InvalidMarks, PrecisionExhausted, TamedynError
from tamedyn.polynomial import MarkedPolynomial
from tamedyn.serialize import (
    InputError,
    backend_from_json,
    point_from_json,
    point_to_json,
    polynomial_from_json,
    polynomial_to_json,
    raw_coefficients_from_json,
    scalar_from_json,
    scalar_to_json,
)
from tamedyn.valued_field import PAdic, SeriesT

Q5 = PAdic(5)
QT = SeriesT(precision=8)


def _decimal_str(q: Fraction) -> str:
    # Decimal converts integers of any size, so it is an oracle for str()
    if q.denominator == 1:
        return str(Decimal(q.numerator))
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


class TestLongIntegers:
    @given(q=st.fractions())
    def test_small_values_match_str(self, q):
        assert scalar_to_json(Q5.scalar(q)) == str(q)
        assert scalar_from_json(Q5, str(q)).rational == q

    @given(num=st.integers(min_value=4000, max_value=30000),
           den=st.integers(min_value=0, max_value=30000), negative=st.booleans())
    @settings(max_examples=40)
    def test_round_trip_past_the_digit_limit(self, num, den, negative):
        q = Fraction(7 ** num + 3, 5 ** den) * (-1 if negative else 1)
        text = scalar_to_json(Q5.scalar(q))
        assert text == _decimal_str(q)
        assert scalar_from_json(Q5, text).rational == q

    def test_series_coefficients(self):
        c = Fraction(-(3 ** 20000), 7 ** 9000)
        x = QT.scalar(terms=[(1, c), (2, 5)])
        data = scalar_to_json(x)
        assert data == [["1", _decimal_str(c)], ["2", "5"]]
        assert scalar_from_json(QT, data) == x

    def test_interpreter_limit_unchanged(self):
        limit = sys.get_int_max_str_digits()
        scalar_from_json(Q5, scalar_to_json(Q5.scalar(11 ** 20000)))
        assert sys.get_int_max_str_digits() == limit

    def test_lowest_interpreter_limit(self):
        q = Fraction(-(10 ** 700) + 1, 3 ** 2000)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            text = scalar_to_json(Q5.scalar(q))
            assert scalar_from_json(Q5, text).rational == q
        finally:
            sys.set_int_max_str_digits(limit)
        assert text == _decimal_str(q)

    @pytest.mark.parametrize("literal", ["1/2/3", "--1", "1.2.3", "", "abc", "5 5"])
    def test_malformed_literals(self, literal):
        with pytest.raises(InputError):
            scalar_from_json(Q5, literal)

    def test_export_past_the_digit_limit(self):
        f = polynomial_from_json({"backend": {"kind": "padic", "p": 5},
                                  "marks": [{"c": "35/3", "mult": 2},
                                            {"c": "-35/3", "mult": 2}],
                                  "b": "-13/25"})
        tree = build_core(f, depth=6)
        vertices = json.loads(export_core(tree))["vertices"]
        assert max(len(v["center"]) for v in vertices) > 4300
        for v, exported in zip(tree.vertices, vertices):
            assert scalar_from_json(f.backend, exported["center"]) == v.point.center


P5 = {"kind": "padic", "p": 5}


def _cubic(**fields):
    return {"backend": P5, "marks": [{"c": "1/5", "mult": 2}, {"c": "-1/5", "mult": 2}],
            "b": "1/25", **fields}


# each once let a ZeroDivisionError, ValueError, TypeError or AttributeError out
MALFORMED = {
    "zero denominator": lambda: scalar_from_json(Q5, "1/0"),
    "zero denominator in a series exponent": lambda: scalar_from_json(QT, [["1/0", "1"]]),
    "zero denominator in a series precision":
        lambda: backend_from_json({"kind": "series", "precision": "1/0"}),
    "mult not an integer": lambda: polynomial_from_json(
        _cubic(marks=[{"c": "1/5", "mult": "x"}, {"c": "-1/5", "mult": 2}])),
    "degree not an integer": lambda: polynomial_from_json(_cubic(degree="z")),
    "mark not an object": lambda: polynomial_from_json(_cubic(marks=["1/5"])),
    "marks not a list": lambda: polynomial_from_json(_cubic(marks=5)),
    "coeffs not a list": lambda: raw_coefficients_from_json({"backend": P5, "coeffs": 5}),
    "polynomial not an object": lambda: polynomial_from_json([]),
    "radius exponent not a number":
        lambda: point_from_json(Q5, {"center": "0", "radius_exp": "x"}),
    # each once parsed as a different input (int() of 5.7 is 5) or raised IndexError
    "empty coeffs": lambda: polynomial_from_json(
        {"backend": P5, "coeffs": [], "marks": [{"c": "0", "mult": 2}]}),
    "empty raw coeffs": lambda: raw_coefficients_from_json({"backend": P5, "coeffs": []}),
    "p a non-integral float": lambda: backend_from_json({"kind": "padic", "p": 5.7}),
    "p a bool": lambda: backend_from_json({"kind": "padic", "p": True}),
    "p a string": lambda: backend_from_json({"kind": "padic", "p": "5"}),
    # once took minutes of trial division; primality is decided below this bound only
    "p at the primality bound":
        lambda: backend_from_json({"kind": "padic", "p": 3317044064679887385961981}),
    "ram_den a non-integral float":
        lambda: backend_from_json({"kind": "series", "precision": "8", "ram_den": 2.5}),
    "ram_den a bool":
        lambda: backend_from_json({"kind": "series", "precision": "8", "ram_den": True}),
    "mult a non-integral float": lambda: polynomial_from_json(
        _cubic(marks=[{"c": "1/5", "mult": 2.9}, {"c": "-1/5", "mult": 2}])),
    "mult a bool": lambda: polynomial_from_json(
        _cubic(marks=[{"c": "1/5", "mult": True}, {"c": "-1/5", "mult": 2}])),
    "degree a non-integral float": lambda: polynomial_from_json(_cubic(degree=3.5)),
    "degree a bool": lambda: polynomial_from_json(_cubic(degree=True)),
    # each once let an OverflowError out (Fraction of an infinite float)
    "series precision an infinite float":
        lambda: backend_from_json({"kind": "series", "precision": float("inf")}),
    "series exponent an infinite float": lambda: scalar_from_json(QT, [[float("inf"), "1"]]),
    "series coefficient an infinite float": lambda: scalar_from_json(QT, [["1", float("-inf")]]),
    "radius exponent an infinite float":
        lambda: point_from_json(Q5, {"center": "0", "radius_exp": float("inf")}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_input_error(case):
    with pytest.raises(InputError):
        MALFORMED[case]()


def test_domain_errors_keep_their_class():
    with pytest.raises(InvalidMarks):
        polynomial_from_json(_cubic(marks=[{"c": "1/5", "mult": 1}]))


# -- JSON round trips ------------------------------------------------------------

# marks -> critical data of a monic centered polynomial: sum (d_i - 1) c_i = 0
SHAPES = [
    lambda c: [(c, 2), (-c, 2)],
    lambda c: [(c, 2), (-c, 2), (c.scale(0), 2)],
    lambda c: [(c.scale(-2), 2), (c, 3)],
]
SMALL_RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=50)


@st.composite
def padic_scalars(draw, backend):
    return backend.scalar(draw(SMALL_RATIONALS) * Fraction(backend.p) ** draw(st.integers(-3, 3)))


@st.composite
def series_scalars(draw, backend):
    exponents = st.integers(-2 * backend.ram_den, backend.ram_den).map(
        lambda k: Fraction(k, backend.ram_den))
    terms = draw(st.lists(st.tuples(exponents, SMALL_RATIONALS), max_size=4))
    return backend.scalar(terms=terms)


@st.composite
def backends_and_scalars(draw):
    if draw(st.booleans()):
        backend = PAdic(draw(st.sampled_from([3, 5, 7])))
        return backend, padic_scalars(backend)
    backend = SeriesT(Fraction(draw(st.integers(6, 24)), draw(st.integers(1, 3))),
                      draw(st.integers(1, 3)))
    return backend, series_scalars(backend)


@st.composite
def polynomials(draw):
    _, scalars = draw(backends_and_scalars())
    c = draw(scalars.filter(lambda x: not x.is_zero))
    marks = draw(st.sampled_from(SHAPES))(c)
    try:
        return MarkedPolynomial.from_critical_data(marks, draw(scalars))
    except PrecisionExhausted:  # a series product with no term below the cutoff
        assume(False)


def _via_json_text(data):
    return json.loads(json.dumps(data))


class TestRoundTrip:
    @settings(max_examples=150)
    @given(f=polynomials())
    def test_polynomial(self, f):
        g = polynomial_from_json(_via_json_text(polynomial_to_json(f)))
        assert g.backend == f.backend
        assert g.coeffs == f.coeffs
        assert g.marks == f.marks

    @settings(max_examples=150)
    @given(data=st.data())
    def test_point(self, data):
        backend, scalars = data.draw(backends_and_scalars())
        radius = data.draw(st.one_of(st.none(), SMALL_RATIONALS))
        x = BerkPoint(data.draw(scalars), radius)
        y = point_from_json(backend, _via_json_text(point_to_json(x)))
        assert (y.center, y.radius_exp) == (x.center, x.radius_exp)


# -- mutated polynomial documents ----------------------------------------------------

VALID_DOCUMENTS = [
    _cubic(),
    _cubic(degree=3),
    {"backend": {"kind": "series", "precision": "12", "ram_den": 2},
     "marks": [{"c": [["-1/2", "1"]], "mult": 2}, {"c": [["-1/2", "-1"]], "mult": 2}],
     "b": [["-2", "1"], ["1", "3/4"]]},
    {"backend": P5, "coeffs": ["1/25", "-3/25", "0", "1"],
     "marks": [{"c": "1/5", "mult": 2}, {"c": "-1/5", "mult": 2}]},
]
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-6, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 2.5, 1e300]),
    st.sampled_from(["", "x", "0", "1", "-1", "1/0", "0/0", "1/3", "inf", "-inf", "nan",
                     "1e3", "2.5", "a/b", "padic", "series", "c", "mult", "b"]),
    st.lists(st.sampled_from(["0", "1", "1/5", 1, None]), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "p", "c", "mult", "precision"]),
                    st.sampled_from(["padic", 5, "1", 2, None]), max_size=2),
)


def _paths(node, path=()):
    """Every position in a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCUMENTS))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JUNK)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if draw(st.booleans()):
            parent[path[-1]] = draw(JUNK)
        else:
            del parent[path[-1]]
    return doc


@settings(max_examples=1000)
@given(doc=mutated_documents())
def test_mutated_polynomial_raises_only_package_errors(doc):
    try:
        polynomial_from_json(doc)
    except TamedynError:
        pass
