"""Conjugacy between two core trees: passing pairs, incomparable pairs, the
ways label transport can fail to be well defined, and the key map checked
on drawn pairs against label-by-label transport."""

import copy
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tamedyn import valued_field
from tamedyn.berkovich import BerkPoint
from tamedyn.boettcher import phi_eval, rho_closeness
from tamedyn.conjugacy import (
    PRECISION,
    ClauseResult,
    VerificationReport,
    build_conjugacy,
    verify_extendable,
)
from tamedyn.core import build_core
from tamedyn.errors import NotComparable, TamedynError, WellDefinednessFailure
from tamedyn.polynomial import MarkedPolynomial
from tamedyn.serialize import polynomial_from_json
from tamedyn.valued_field import PAdic
from test_core import _p_adic_number


def cubic5(c, b):
    """Cubic over PAdic(5) with marks +-c of local degree 2 and constant term b."""
    return polynomial_from_json({
        "backend": {"kind": "padic", "p": 5},
        "marks": [{"c": str(c), "mult": 2}, {"c": str(-c), "mult": 2}],
        "b": str(b),
    })


BASELINE = (Fraction(1, 5), Fraction(1, 25))


@pytest.mark.parametrize("depth", [0, 2, 4])
@pytest.mark.parametrize("shift", [0, 5 ** 4])
def test_self_and_translate_pass(depth, shift):
    c, b = BASELINE
    h = build_conjugacy(cubic5(c, b), cubic5(c, b + shift), None, depth=depth)
    report = verify_extendable(h)
    assert report.overall, report.to_dict()
    assert h.vertex_map == {i: i for i in range(len(h.source.vertices))}


@pytest.mark.parametrize("b_g", [-1, 0])
def test_maps_with_no_escaping_mark_pass(b_g):
    # z^2 - 1 over PAdic(3), whose mark cycles 0 -> -1 -> 0, against itself
    # and against z^2: both basins are {|z| > 1}, conjugated by the
    # coordinates at infinity, and both trees are empty.  Clause (iv) was
    # "skipped" for want of an axis vertex, and the report a Fail.
    Q3 = PAdic(3)
    f, g = (MarkedPolynomial.from_critical_data([(Q3.zero, 2)], Q3.scalar(b)) for b in (-1, b_g))
    h = build_conjugacy(f, g, None)
    assert h.source.vertices == h.target.vertices == ()
    report = verify_extendable(h)
    assert report.overall and report.boettcher_at_infinity == ClauseResult("pass")


def _with_target(h, **changes):
    """h with a copy of its target tree in which the named attributes are replaced."""
    target = copy.copy(h.target)
    for name, value in changes.items():
        setattr(target, name, value)
    return dataclasses.replace(h, target=target)


def test_isometry_fails_at_the_first_edge_whose_degree_differs():
    # f against itself at depth 2: edges 1->0, 2->1, 3->2, each of degree 3
    h = build_conjugacy(cubic5(*BASELINE), cubic5(*BASELINE), None, depth=2)
    edges = list(h.target.edges)
    edges[1] = dataclasses.replace(edges[1], degree=2)
    report = verify_extendable(_with_target(h, edges=tuple(edges)))
    assert report == VerificationReport(ClauseResult("fail", "edge 2->1: degree 3 vs 2"),
                                        ClauseResult("pass"), ClauseResult("pass"),
                                        ClauseResult("pass"))


@pytest.mark.parametrize("vertex, image, witness", [
    (2, 3, "vertex 2: map(f(v)) = 1 but g(map(v)) = 3"),
    (3, None, "vertex 3: dynamics truncation mismatch"),
    (0, 1, "vertex 0: dynamics truncation mismatch"),
])
def test_equivariance_fails_at_the_first_vertex_whose_image_differs(vertex, image, witness):
    # f against itself at depth 2: dynamics (None, 0, 1, 2)
    h = build_conjugacy(cubic5(*BASELINE), cubic5(*BASELINE), None, depth=2)
    dynamics = list(h.target.dynamics)
    dynamics[vertex] = image
    report = verify_extendable(_with_target(h, dynamics=tuple(dynamics)))
    assert report == VerificationReport(ClauseResult("pass"), ClauseResult("fail", witness),
                                        ClauseResult("pass"), ClauseResult("pass"))


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


@pytest.mark.parametrize("rho", [0.5, True])
def test_float_or_bool_rho_is_refused_before_any_orbit_work(rho):
    f = cubic5(*BASELINE)
    with pytest.raises(TypeError, match="rho must be None, an int or a Fraction"):
        build_conjugacy(f, f, rho)
    assert not f._records and not f._orbits


@pytest.mark.parametrize("depth, error", [(-1, ValueError), (2.5, TypeError), (True, TypeError)])
def test_invalid_depth_is_refused_before_any_orbit_work(depth, error):
    # unchecked, depth -1 gives empty trees and a Fail of f against itself,
    # and depth 2.5 a slicing TypeError after the coordinate comparison
    f = cubic5(*BASELINE)
    with pytest.raises(error, match="depth must be"):
        build_conjugacy(f, f, None, depth=depth)
    assert not f._records and not f._orbits and not f._phi


def series_cubic(precision, b_exp):
    """Cubic over SeriesT(precision) with marks +-1/t and constant term t^b_exp."""
    return polynomial_from_json({
        "backend": {"kind": "series", "precision": precision, "ram_den": 1},
        "marks": [{"c": [["-1", c]], "mult": 2} for c in ("1", "-1")],
        "b": [[str(b_exp), "1"]],
    })


PASS_PAIRS = {
    "padic": (lambda: cubic5(BASELINE[0], BASELINE[1]),
              lambda: cubic5(BASELINE[0], BASELINE[1] + 5 ** 4), "_padic_nth_root_unit"),
    "series": (lambda: series_cubic("40", -4), lambda: series_cubic("40", -4),
               "_series_nth_root_unit"),
}


@pytest.mark.parametrize("backend", sorted(PASS_PAIRS))
def test_one_coordinate_per_point(backend, monkeypatch):
    """Clause (iv) reads the coordinates rho_closeness computed, so the whole
    check takes as many roots as rho_closeness alone, and every kept value
    equals the one computed on a freshly built copy of the polynomial."""
    make_f, make_g, root = PASS_PAIRS[backend]
    roots = []
    original = getattr(valued_field, root)
    monkeypatch.setattr(valued_field, root, lambda *args: roots.append(args) or original(*args))
    rho_closeness(make_f(), make_g(), precision=PRECISION)
    alone, roots[:] = len(roots), []
    f, g = make_f(), make_g()
    report = verify_extendable(build_conjugacy(f, g, None))
    assert report.overall and report.boettcher_at_infinity.status == "pass"
    assert len(roots) == alone > 0
    for poly, make in ((f, make_f), (g, make_g)):
        assert poly._phi
        for (z, precision), value in poly._phi.items():
            assert phi_eval(make(), z, precision) == value


# -- the key map against label-by-label transport --------------------------------

def _label_transport(f, g, rho, depth):
    """Label-by-label transport, kept as an oracle: every further witness of a
    source vertex is compared with its first one as a disk on the target,
    the target vertex is found by disk equality, and each may be hit once."""
    if rho is not None and rho <= 0:
        raise NotComparable("rho must be positive")
    bound = rho_closeness(f, g, precision=PRECISION)
    if rho is not None and bound.rho_exp < rho:
        raise NotComparable(f"coordinates are only {bound.rho_exp}-close, below required {rho}")
    source = build_core(f, rho=rho, depth=depth)
    target = build_core(g, rho=rho, depth=depth)
    vertex_map, translations, used = {}, {}, set()
    for si, sv in enumerate(source.vertices):
        q = sv.exponent
        first = sv.witnesses[0]
        t_point = BerkPoint(target.orbit_value(*first), q)
        for other in sv.witnesses[1:]:
            if BerkPoint(target.orbit_value(*other), q) != t_point:
                raise WellDefinednessFailure(
                    f"labels {first} and {other} coincide on the source at "
                    f"exponent {q} but separate on the target",
                    witness_a=first, witness_b=other, level=sv.level)
        ti = next((ti for ti, tv in enumerate(target.vertices) if tv.point == t_point), None)
        if ti is None:
            raise WellDefinednessFailure(
                f"image of source vertex {si} (label {first}, exponent {q}) "
                "is not a target vertex", witness_a=first, level=sv.level)
        tv = target.vertices[ti]
        if tv.witnesses != sv.witnesses:
            pick = sorted(set(tv.witnesses) ^ set(sv.witnesses))[0]
            raise WellDefinednessFailure(
                f"label {pick} separates on one side only at exponent {q}",
                witness_a=first, witness_b=pick, level=sv.level)
        if ti in used:
            raise WellDefinednessFailure(f"two source vertices map to target vertex {ti}",
                                         witness_a=first, level=sv.level)
        used.add(ti)
        vertex_map[si] = ti
        translations[si] = target.orbit_value(*first) - source.orbit_value(*first)
    if len(used) != len(target.vertices):
        raise WellDefinednessFailure("target tree has vertices with no source counterpart")
    return source, target, vertex_map, translations, bound


def _isometry_by_edges(src, tgt, fmap):
    """Clause (i) checked edge by edge: existence, length and degree."""
    tgt_edges = {(e.lower, e.upper): e for e in tgt.edges}
    for e in src.edges:
        key = (fmap.get(e.lower), fmap.get(e.upper))
        te = tgt_edges.get(key)
        if te is None:
            return ClauseResult("fail", f"source edge {e.lower}->{e.upper} has no target edge {key}")
        if te.length != e.length:
            return ClauseResult("fail", f"edge {e.lower}->{e.upper}: length {e.length} vs {te.length}")
        if te.degree != e.degree:
            return ClauseResult("fail", f"edge {e.lower}->{e.upper}: degree {e.degree} vs {te.degree}")
    return ClauseResult("pass")


def _translation_with_children(src, tgt, fmap, translations):
    """Clause (iii) over the witnesses of each vertex and of its children."""
    children = {si: [] for si in fmap}
    for e in src.edges:
        children.setdefault(e.upper, []).append(e.lower)
    for si in fmap:
        sv = src.vertices[si]
        pool = list(sv.witnesses)
        for child in children.get(si, ()):
            pool.extend(src.vertices[child].witnesses)
        for label in pool:
            moved = tgt.orbit_value(*label) - (src.orbit_value(*label) + translations[si])
            if not moved.valuation() > sv.exponent:
                return ClauseResult(
                    "fail", f"vertex {si}: witness {label} leaves its direction under the translation")
    return ClauseResult("pass")


@st.composite
def conjugacy_pairs(draw):
    """Escaping cubics (marks +-c) and quartics (marks c1, c2, -c1-c2) over
    PAdic(5|7), against the same map with b and/or a pair of marks moved by
    a power of p, with rho None or 1-3 and depth 2-4."""
    p = draw(st.sampled_from([5, 7]))
    unit = st.integers(min_value=-12, max_value=12).filter(bool)
    backend = PAdic(p)
    b = _p_adic_number(p, draw(unit), -draw(st.integers(1, 4)))
    cs = [_p_adic_number(p, draw(unit), -draw(st.integers(0, 2)))
          for _ in range(draw(st.integers(1, 2)))]
    cs.append(-sum(cs))
    how = draw(st.sampled_from(["b", "marks", "marks", "both", "none"]))
    b2, cs2 = b, list(cs)
    if how in ("b", "both"):
        b2 = b + _p_adic_number(p, draw(unit), draw(st.integers(-1, 6)))
    if how in ("marks", "both"):
        shift = _p_adic_number(p, draw(unit), draw(st.integers(-1, 2)))
        cs2[0] += shift
        cs2[-1] -= shift
    assume(len(set(cs)) == len(cs) and len(set(cs2)) == len(cs2))

    def poly(marks, b):
        return MarkedPolynomial.from_critical_data([(backend.scalar(c), 2) for c in marks],
                                                   backend.scalar(b))

    # label transport fails mostly on untrimmed trees
    rho = draw(st.sampled_from([None, None, None, Fraction(1), Fraction(2), Fraction(3)]))
    return poly(cs, b), poly(cs2, b2), rho, draw(st.integers(2, 4))


def _padic_pair(p, marks, b, marks2, b2, rho=None, depth=3):
    def poly(marks, b):
        return MarkedPolynomial.from_critical_data(
            [(PAdic(p).scalar(Fraction(c)), 2) for c in marks], PAdic(p).scalar(Fraction(b)))
    return poly(marks, b), poly(marks2, b2), rho, depth


def _outcome(run):
    try:
        return run(), None
    except TamedynError as e:
        return None, (type(e), str(e), getattr(e, "witness_a", None),
                      getattr(e, "witness_b", None), getattr(e, "level", None))


# clause (iii) fails at vertex 1 (exponent -162) on the gap -162 of labels
# (0, 0) and (1, 5), which vertex 0 (exponent -243) computed and passed
GAP_SEEN_BEFORE = _padic_pair(5, ["-11/5", "11/5"], "-8/125", ["-31/5", "31/5"], "-8/125",
                              depth=4)


@settings(max_examples=150)
@given(pair=conjugacy_pairs())
# one pair for each way the transport fails, and one for clause (iii)
@example(pair=_padic_pair(5, ["9", "-9"], "-7/125", ["51/5", "-51/5"], "-7/125"))
@example(pair=_padic_pair(5, ["9/5", "-6/5", "-3/5"], "8/125", ["69/5", "-6/5", "-63/5"],
                          "-367/125", depth=2))
@example(pair=_padic_pair(7, ["8", "5/7", "-61/7"], "6/49", ["78", "5/7", "-551/7"], "6/49"))
@example(pair=_padic_pair(5, ["-6", "6", "0"], "7/125", ["39", "6", "-45"], "-43/125", depth=4))
@example(pair=_padic_pair(7, ["4/7", "-4/7"], "1/2401", ["-8/7", "8/7"], "1/2401"))
@example(pair=GAP_SEEN_BEFORE)
def test_key_map_matches_label_transport(pair):
    f, g, rho, depth = pair
    h, err = _outcome(lambda: build_conjugacy(f, g, rho, depth=depth))
    oracle, oracle_err = _outcome(lambda: _label_transport(f, g, rho, depth))
    assert err == oracle_err
    if err is not None:
        return
    src, tgt, fmap, translations, bound = oracle
    assert (h.vertex_map, h.rho_bound) == (fmap, bound)
    assert fmap == {i: i for i in range(len(src.vertices))}  # the trees list their keys alike
    report = verify_extendable(h)
    expected = VerificationReport(_isometry_by_edges(src, tgt, fmap), report.equivariance,
                                  _translation_with_children(src, tgt, fmap, translations),
                                  report.boettcher_at_infinity)
    assert report.to_dict() == expected.to_dict()
    # the key map carries the source edges onto the target edges, lengths kept
    assert ({(fmap[e.lower], fmap[e.upper]): e.length for e in src.edges}
            == {(e.lower, e.upper): e.length for e in tgt.edges})
