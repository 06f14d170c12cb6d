import json
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedyn.core import build_core, export_core
from tamedyn.serialize import (
    InputError,
    polynomial_from_json,
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
    @settings(max_examples=40, deadline=None)
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
