"""Conjugacy between two core trees: passing pairs, incomparable pairs, and the
two ways label transport can fail to be well defined."""

from fractions import Fraction

import pytest

from tamedyn.conjugacy import build_conjugacy, verify_extendable
from tamedyn.errors import NotComparable, WellDefinednessFailure
from tamedyn.serialize import polynomial_from_json


def cubic5(c, b):
    """Cubic over PAdic(5) with marks +-c of local degree 2 and constant term b."""
    return polynomial_from_json({
        "backend": {"kind": "padic", "p": 5},
        "marks": [{"c": str(c), "mult": 2}, {"c": str(-c), "mult": 2}],
        "b": str(b),
    })


BASELINE = (Fraction(1, 5), Fraction(1, 25))


@pytest.mark.parametrize("depth", [2, 4])
@pytest.mark.parametrize("shift", [0, 5 ** 4])
def test_self_and_translate_pass(depth, shift):
    c, b = BASELINE
    h = build_conjugacy(cubic5(c, b), cubic5(c, b + shift), None, depth=depth)
    report = verify_extendable(h)
    assert report.overall, report.to_dict()
    assert sorted(h.vertex_map) == sorted(h.vertex_map.values()) == list(range(len(h.source.vertices)))


def test_mark_moved_beyond_rho_is_not_comparable():
    c, b = BASELINE
    with pytest.raises(NotComparable):
        build_conjugacy(cubic5(c, b), cubic5(c + 1, b), Fraction(3), depth=4)


def test_labels_that_coincide_on_the_source_only():
    with pytest.raises(WellDefinednessFailure) as err:
        build_conjugacy(cubic5(Fraction(2, 5), Fraction(1, 125)),
                        cubic5(Fraction(2, 5), Fraction(2, 125)), None, depth=3)
    assert (err.value.witness_a, err.value.witness_b) == ((0, 0), (0, 4))
    assert "coincide on the source" in str(err.value)


def test_target_vertex_without_source_counterpart():
    with pytest.raises(WellDefinednessFailure, match="no source counterpart"):
        build_conjugacy(cubic5(Fraction(1, 5), Fraction(1, 25)),
                        cubic5(Fraction(2, 5), Fraction(1, 125)), None, depth=3)


@pytest.mark.parametrize("rho", [Fraction(0), Fraction(-1)])
def test_non_positive_rho_is_refused_before_any_orbit_work(rho):
    # z^4 - (2/9)z^2 + 9 over PAdic(3): the orbits of its critical marks hit
    # the height guard, so comparing the coordinates first would end in
    # BudgetExhausted instead
    f = polynomial_from_json({
        "backend": {"kind": "padic", "p": 3},
        "marks": [{"c": c, "mult": 2} for c in ("0", "1/3", "-1/3")],
        "b": "9",
    })
    with pytest.raises(NotComparable, match="rho must be positive"):
        build_conjugacy(f, f, rho)
