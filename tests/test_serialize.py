import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tamedyn import escape
from tamedyn.core import build_core, export_core
from tamedyn.errors import InvalidMarks, NotTame, PrecisionExhausted, TamedynError
from tamedyn.polynomial import MarkedPolynomial
from tamedyn.serialize import (
    InputError,
    backend_from_json,
    polynomial_from_json,
    raw_coefficients_from_json,
    scalar_from_json,
    scalar_to_json,
    val_str,
)
from tamedyn.valued_field import PAdic, SeriesT, Val

from test_core import LATE_TREES, SERIES_TREES, TREES

Q5 = PAdic(5)
QT = SeriesT(precision=8)


def _padic_polynomial(p, marks, b):
    """Over PAdic(p), with every mark of multiplicity 2."""
    return polynomial_from_json({"backend": {"kind": "padic", "p": p},
                                 "marks": [{"c": c, "mult": 2} for c in marks], "b": b})


def _tree_past_the_digit_limit():
    """A depth-6 tree with vertex centers of more than 4,300 decimal digits."""
    return build_core(_padic_polynomial(5, ["35/3", "-35/3"], "-13/25"), depth=6)


def _tree_with_rho_past_the_digit_limit():
    """A rho-trimmed tree whose rho, and so each cut, has more than 4,300 digits."""
    return build_core(_padic_polynomial(5, ["1/5", "-1/5"], "1/625"),
                      rho=Fraction(10 ** 4400 + 1, 3), depth=1)


def _decimal_str(q: Fraction) -> str:
    # Decimal converts integers of any size, so it is an oracle for str()
    if q.denominator == 1:
        return str(Decimal(q.numerator))
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


@pytest.mark.parametrize("v, text", [(3, "3"), (-2, "-2"), (Fraction(-7, 2), "-7/2"),
                                     (Fraction(4), "4"), (math.inf, "inf"), (0, "0"),
                                     (-10 ** 700, "-1" + "0" * 700)])
def test_val_str_writes_an_exponent(v, text):
    assert val_str(v) == text


@pytest.mark.parametrize("v", [Val(3), Val(math.inf), 0.5, math.nan, -math.inf, True, "3"])
def test_val_str_refuses_anything_else(v):
    with pytest.raises(TypeError, match="an exponent is an int, a Fraction or math.inf"):
        val_str(v)


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
        tree = _tree_past_the_digit_limit()
        vertices = json.loads(export_core(tree))["vertices"]
        assert max(len(v["center"]) for v in vertices) > 4300
        for v, exported in zip(tree.vertices, vertices):
            assert scalar_from_json(tree.f.backend, exported["center"]) == v.point.center

    def test_rho_past_the_digit_limit(self):
        tree = _tree_with_rho_past_the_digit_limit()
        assert any(b.kind == "trimmed" for b in tree.boundary)
        exported = json.loads(export_core(tree))
        assert scalar_from_json(Q5, exported["rho"]).rational == tree.rho


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
    # each once parsed as a different input (int() of 5.7 is 5) or raised IndexError
    "empty coeffs": lambda: polynomial_from_json(
        {"backend": P5, "coeffs": [], "marks": [{"c": "0", "mult": 2}]}),
    "empty raw coeffs": lambda: raw_coefficients_from_json({"backend": P5, "coeffs": []}),
    # once parsed with its constant term taken from coeffs and b dropped
    "both coeffs and b": lambda: polynomial_from_json(
        {"backend": P5, "coeffs": ["1/25", "-3/25", "0", "1"],
         "marks": [{"c": "1/5", "mult": 2}, {"c": "-1/5", "mult": 2}], "b": "7"}),
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
    # each once parsed as a rational: true as 1, 0.1 as 3602879701896397/2^55
    "scalar a bool": lambda: scalar_from_json(Q5, True),
    "b a bool": lambda: polynomial_from_json(_cubic(b=True)),
    "series precision a bool": lambda: backend_from_json({"kind": "series", "precision": True}),
    "series precision a float": lambda: backend_from_json({"kind": "series", "precision": 8.5}),
    "series exponent a bool": lambda: scalar_from_json(QT, [[True, "1"]]),
    "series exponent a float": lambda: scalar_from_json(QT, [[1.0, "1"]]),
    "series coefficient a bool": lambda: scalar_from_json(QT, [["1", True]]),
    "series coefficient a float": lambda: scalar_from_json(QT, [["1", 0.1]]),
    # once parsed by Fraction, which builds 10^e for a string "1e<e>"
    "scalar a decimal string": lambda: scalar_from_json(Q5, "1e3"),
    # each once unpacked as a term: "12" as 2 t^1, the object as its two keys
    "series term a two-character string": lambda: scalar_from_json(QT, ["12"]),
    "series term a two-key object": lambda: scalar_from_json(QT, [{"1": "1", "2": "1"}]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_input_error(case):
    with pytest.raises(InputError):
        MALFORMED[case]()


def test_domain_errors_keep_their_class():
    with pytest.raises(InvalidMarks):
        polynomial_from_json(_cubic(marks=[{"c": "1/5", "mult": 1}]))


@pytest.mark.parametrize("data", [{"coeffs": ["0", "0", "0", "1"]}, {"b": "0"}])
def test_coincident_marks_are_refused_on_both_construction_paths(data):
    # z^3 has the one critical point 0 of local degree 3, not two of degree 2
    marks = [{"c": "0", "mult": 2}, {"c": "0", "mult": 2}]
    with pytest.raises(InvalidMarks, match="coincident marks"):
        polynomial_from_json({"backend": {"kind": "padic", "p": 5}, "marks": marks, **data})


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
    except NotTame:  # wild marks; tests/test_polynomial.py covers them
        assume(False)


def _via_json_text(data):
    return json.loads(json.dumps(data))


def _backend_json(backend):
    if isinstance(backend, PAdic):
        return {"kind": "padic", "p": backend.p}
    return {"kind": "series", "precision": str(backend.precision), "ram_den": backend.ram_den}


class TestRoundTrip:
    @settings(max_examples=150)
    @given(f=polynomials())
    def test_polynomial(self, f):
        doc = {
            "backend": _backend_json(f.backend),
            "degree": f.degree,
            "marks": [{"c": scalar_to_json(m.point), "mult": m.multiplicity} for m in f.marks],
            "b": scalar_to_json(f.coeffs[0]),
        }
        g = polynomial_from_json(_via_json_text(doc))
        assert g.backend == f.backend
        assert g.coeffs == f.coeffs
        assert g.marks == f.marks

    @settings(max_examples=150)
    @given(f=polynomials())
    def test_coefficients_and_marks_rebuild_the_polynomial(self, f):
        assert MarkedPolynomial.from_coefficients(f.coeffs, f.marks).coeffs == f.coeffs


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
# a mark about 2*10^10 exponent indices below the other one
@example(doc={"backend": {"kind": "series", "precision": "12", "ram_den": 2},
              "marks": [{"c": [[-22677249774.0, "1"]], "mult": 2},
                        {"c": [["-1/2", "-1"]], "mult": 2}],
              "b": [["-2", "1"], ["1", "3/4"]]})
def test_mutated_polynomial_raises_only_package_errors(doc):
    try:
        polynomial_from_json(doc)
    except TamedynError:
        pass


def _core_dict(tree) -> dict:
    """The export as a dict: ``export_core`` must write the text that
    json.dumps(indent=2, sort_keys=True) makes of it."""
    return {
        "schema": 1,
        "rho": "inf" if tree.rho is None else val_str(tree.rho),
        "depth": tree.depth,
        "budget": escape.BUDGET,
        "fwd_depth": tree.fwd_depth,
        "base_radius_exp": val_str(tree.f.base_radius_exp),
        "vertices": [{"center": scalar_to_json(v.center), "radius_exp": val_str(v.exponent),
                      "level": v.level, "witnesses": [[i, n] for i, n in v.witnesses]}
                     for v in tree.vertices],
        "edges": [{"lower": e.lower, "upper": e.upper, "degree": e.degree,
                   "length": val_str(e.length)} for e in tree.edges],
        "dynamics": list(tree.dynamics),
        "boundary": [{"kind": b.kind, "vertex": b.vertex, "detail": b.detail}
                     for b in tree.boundary],
        "warnings": list(tree.warnings),
    }


def _assert_export_is_the_json_text(tree):
    assert export_core(tree) == json.dumps(_core_dict(tree), indent=2, sort_keys=True) + "\n"


@settings(max_examples=80)
@given(tree=st.one_of(TREES, SERIES_TREES))
def test_export_of_drawn_trees_is_the_json_text(tree):
    _assert_export_is_the_json_text(tree)


@settings(max_examples=15)
@given(tree=LATE_TREES)
def test_export_of_late_exit_trees_is_the_json_text(tree):
    _assert_export_is_the_json_text(tree)


# tree -> what makes it a case of its own
EXPORT_CASES = {
    "rho-trimmed": (lambda: build_core(_padic_polynomial(5, ["1/5", "-1/5"], "1/625"),
                                       rho=Fraction(2), depth=1),
                    lambda t: any(b.kind == "trimmed" for b in t.boundary)),
    "depth-truncated": (lambda: build_core(_padic_polynomial(5, ["1/5", "-1/5"], "2/125"),
                                           depth=1),
                        lambda t: t.warnings == ("vertices beyond level 1 were pruned",)),
    "unresolved mark": (lambda: build_core(_padic_polynomial(3, ["0", "1/3", "-1/3"], "9"),
                                           depth=2),
                        lambda t: "unresolved" in t.warnings[0] and t.vertices),
    "axis only": (lambda: build_core(_padic_polynomial(5, ["0"], "1"), depth=2),
                  lambda t: not t.vertices and not t.edges and not t.dynamics),
    "rho past the digit limit": (_tree_with_rho_past_the_digit_limit,
                                 lambda t: len(val_str(t.rho)) > 4300),
    "past the digit limit": (_tree_past_the_digit_limit,
                             lambda t: max(len(scalar_to_json(v.center))
                                           for v in t.vertices) > 4300),
}


@pytest.mark.parametrize("case", sorted(EXPORT_CASES))
def test_export_of_fixed_trees_is_the_json_text(case):
    build, is_the_case = EXPORT_CASES[case]
    tree = build()
    assert is_the_case(tree)
    _assert_export_is_the_json_text(tree)


def test_equal_orbit_values_of_two_marks_share_their_vertices():
    # f' = 4z(z - 1/5)(z + 1/5) is odd, so f is even and f(1/5) = f(-1/5):
    # from iterate 1 on, marks 1 and 2 have one orbit, one pool value per step
    f = _padic_polynomial(5, ["0", "1/5", "-1/5"], "1/25")
    assert [m.point.rational for m in f.marks] == [0, Fraction(1, 5), Fraction(-1, 5)]
    tree = build_core(f, depth=3)
    shared = [(v, n) for v in tree.vertices for i, n in v.witnesses if i == 1 and n >= 1]
    assert shared
    for v, n in shared:
        assert (2, n) in v.witnesses
    _assert_export_is_the_json_text(tree)
