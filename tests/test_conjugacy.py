"""Conjugacy between two core trees: passing pairs, incomparable pairs, the
ways label transport can fail to be well defined, the key map checked on
drawn pairs against label-by-label transport, and the clauses that equal
keys imply kept as oracles, run on every drawn pair the map accepts."""

import copy
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tamedyn import boettcher, conjugacy, valued_field
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

# the entry every report keeps for each clause that equal keys imply
IMPLIED_ENTRY = {"status": "pass", "witness": ""}
IMPLIED = ("isometry", "equivariance", "boettcher_at_infinity")


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
    # coordinates at infinity, and both trees are empty.  The coordinate
    # clause was once "skipped" for want of an axis vertex, and the report a Fail.
    Q3 = PAdic(3)
    f, g = (MarkedPolynomial.from_critical_data([(Q3.zero, 2)], Q3.scalar(b)) for b in (-1, b_g))
    h = build_conjugacy(f, g, None)
    assert h.source.vertices == h.target.vertices == ()
    report = verify_extendable(h)
    assert report.overall and all(report.to_dict()[name] == IMPLIED_ENTRY for name in IMPLIED)


def _with_target(h, **changes):
    """h with a copy of its target tree in which the named attributes are replaced."""
    target = copy.copy(h.target)
    for name, value in changes.items():
        setattr(target, name, value)
    return dataclasses.replace(h, target=target)


def test_isometry_fails_at_the_first_edge_whose_degree_differs():
    # f against itself at depth 2: edges 1->0, 2->1, 3->2, each of degree 3.
    # The clause is an oracle: verify_extendable reads no edge and still passes.
    h = build_conjugacy(cubic5(*BASELINE), cubic5(*BASELINE), None, depth=2)
    edges = list(h.target.edges)
    edges[1] = dataclasses.replace(edges[1], degree=2)
    edited = _with_target(h, edges=tuple(edges))
    assert (_isometry_by_edges(edited.source, edited.target, edited.vertex_map)
            == ClauseResult("fail", "edge 2->1: degree 3 vs 2"))
    assert verify_extendable(edited) == VerificationReport(ClauseResult("pass"))


@pytest.mark.parametrize("vertex, image, witness", [
    (2, 3, "vertex 2: map(f(v)) = 1 but g(map(v)) = 3"),
    (3, None, "vertex 3: dynamics truncation mismatch"),
    (0, 1, "vertex 0: dynamics truncation mismatch"),
])
def test_equivariance_fails_at_the_first_vertex_whose_image_differs(vertex, image, witness):
    # f against itself at depth 2: dynamics (None, 0, 1, 2).  The clause is an
    # oracle: verify_extendable reads no dynamics and still passes.
    h = build_conjugacy(cubic5(*BASELINE), cubic5(*BASELINE), None, depth=2)
    dynamics = list(h.target.dynamics)
    dynamics[vertex] = image
    edited = _with_target(h, dynamics=tuple(dynamics))
    assert (_equivariance_by_vertices(edited.source, edited.target, edited.vertex_map)
            == ClauseResult("fail", witness))
    assert verify_extendable(edited) == VerificationReport(ClauseResult("pass"))


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
def test_invalid_depth_is_refused_before_any_orbit_work(depth, error, monkeypatch):
    # unchecked, depth -1 gives empty trees and a Fail of f against itself,
    # and depth 2.5 a slicing TypeError after the coordinate comparison
    roots = []
    root = valued_field._padic_nth_root_unit
    monkeypatch.setattr(valued_field, "_padic_nth_root_unit",
                        lambda *args: roots.append(args) or root(*args))
    f = cubic5(*BASELINE)
    with pytest.raises(error, match="depth must be"):
        build_conjugacy(f, f, None, depth=depth)
    assert not f._records and not f._orbits and not roots


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
               "_binomial_series"),
}


@pytest.mark.parametrize("backend", sorted(PASS_PAIRS))
def test_verify_extendable_takes_no_root_and_calls_no_phi_eval(backend, monkeypatch):
    """Equal keys imply the coordinate clause (module docstring), so the
    check reads no coordinate: every one is taken by rho_closeness, inside
    build_conjugacy, where the same spies see them."""
    make_f, make_g, root = PASS_PAIRS[backend]
    calls = []
    original = getattr(valued_field, root)
    monkeypatch.setattr(valued_field, root, lambda *args: calls.append(root) or original(*args))
    for module in (boettcher, conjugacy):
        monkeypatch.setattr(module, "phi_eval",
                            lambda *args: calls.append("phi_eval") or phi_eval(*args))
    h = build_conjugacy(make_f(), make_g(), None)
    assert {"phi_eval", root} <= set(calls)
    calls.clear()
    report = verify_extendable(h)
    assert report.overall and calls == []


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


def _equivariance_by_vertices(src, tgt, fmap):
    """Clause (ii) checked vertex by vertex: map(f(v)) = g(map(v)), and the two
    images are both recorded or both not."""
    for si, ds in enumerate(src.dynamics):
        dt = tgt.dynamics[fmap[si]]
        if (ds is None) != (dt is None):
            return ClauseResult("fail", f"vertex {si}: dynamics truncation mismatch")
        if ds is not None and fmap[ds] != dt:
            return ClauseResult("fail", f"vertex {si}: map(f(v)) = {fmap[ds]} but g(map(v)) = {dt}")
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


@st.composite
def bounded_mark_pairs(draw):
    """Quartics over PAdic(5|7) with marks of local degree 2 of which mark j is a
    superattracting fixed point of both maps, each b solved from f(c_j) = c_j:
    c_j of valuation e = -1 or -2, a second mark at valuation e..e+2 from it
    (so that in most accepted pairs the two share a vertex below the base
    point), and the third; g moves the other two marks by opposite powers of p.
    rho None or 1-3, depth 2-4."""
    p = draw(st.sampled_from([5, 7]))
    unit = st.integers(min_value=-12, max_value=12).filter(bool)
    backend = PAdic(p)
    e = -draw(st.integers(1, 2))
    bounded = _p_adic_number(p, draw(unit), e)
    near = bounded + _p_adic_number(p, draw(unit), e + draw(st.integers(0, 2)))
    shift = _p_adic_number(p, draw(unit), draw(st.integers(-1, 4)))
    j = draw(st.integers(0, 2))
    cs, cs2 = ([*others[:j], bounded, *others[j:]]
               for others in ([near, -bounded - near], [near + shift, -bounded - near - shift]))
    assume(len(set(cs)) == len(set(cs2)) == 3)

    def poly(marks):
        points = [(backend.scalar(c), 2) for c in marks]
        c = points[j][0]
        return MarkedPolynomial.from_critical_data(
            points, c - MarkedPolynomial.from_critical_data(points, backend.zero)(c))

    rho = draw(st.sampled_from([None, None, None, Fraction(1), Fraction(2), Fraction(3)]))
    return poly(cs), poly(cs2), rho, draw(st.integers(2, 4))


PAIRS = st.one_of(conjugacy_pairs(), bounded_mark_pairs())


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
@given(pair=PAIRS)
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
    # the key map carries the source edges onto the target edges, lengths and
    # degrees kept, and the recorded dynamics onto the target's
    assert _isometry_by_edges(src, tgt, fmap) == ClauseResult("pass")
    assert _equivariance_by_vertices(src, tgt, fmap) == ClauseResult("pass")
    assert verify_extendable(h) == VerificationReport(
        _translation_with_children(src, tgt, fmap, translations))


# -- the clauses that equal keys imply -----------------------------------------

def _is_axis(v):
    """An axis vertex: a disk D(0, q) outside the base disk."""
    return v.level == 0 and v.center.valuation() >= v.exponent


def _boettcher_clause(h):
    """The coordinate clause that verify_extendable no longer computes, kept as
    an oracle: at the first two axis vertices, the coordinates at infinity of
    the first witness that escaped the base disk agree to the vertex's exponent."""
    src, tgt = h.source, h.target
    base = src.f.base_radius_exp
    axis = [(sv.exponent, si) for si, sv in enumerate(src.vertices) if _is_axis(sv)]
    for q, si in axis[:2]:
        label = next((cand for cand in src.vertices[si].witnesses
                      if src.orbit_value(*cand).valuation() < base), None)
        if label is None:
            continue
        pf = phi_eval(src.f, src.orbit_value(*label), PRECISION)
        pg = phi_eval(tgt.f, tgt.orbit_value(*label), PRECISION)
        if not (pf - pg).valuation() >= q:
            return ClauseResult(
                "fail", f"axis vertex {si}: transported coordinate differs at exponent {q}")
    return ClauseResult("pass")


@settings(max_examples=100)
@given(pair=PAIRS)
@example(pair=(PASS_PAIRS["padic"][0](), PASS_PAIRS["padic"][1](), None, 3))
@example(pair=(PASS_PAIRS["series"][0](), PASS_PAIRS["series"][1](), None, 3))
def test_equal_keys_imply_the_coordinate_clause(pair):
    # the conjugacy module docstring's proof: the target vertex at a source
    # axis position is an axis vertex, so the clause cannot fail
    f, g, rho, depth = pair
    h, err = _outcome(lambda: build_conjugacy(f, g, rho, depth=depth))
    assume(err is None)
    assert _boettcher_clause(h) == ClauseResult("pass")
    assert all(_is_axis(tv) for sv, tv in zip(h.source.vertices, h.target.vertices)
               if _is_axis(sv))


def test_the_coordinate_clause_fails_on_a_target_value_outside_the_axis_disk():
    # f against itself at depth 2: the axis vertex 0 is D(0, -27), and the
    # clause reads its first escaped witness (0, 1), of valuation -3 on both
    # sides; on the edited target that value has valuation -28
    h = build_conjugacy(cubic5(*BASELINE), cubic5(*BASELINE), None, depth=2)
    assert h.source.vertices[0].exponent == -27 and _boettcher_clause(h) == ClauseResult("pass")
    outside = PAdic(5).scalar(Fraction(1, 5 ** 28))
    edited = _with_target(h, _orbit={**h.target._orbit, (0, 1): outside})
    assert _boettcher_clause(edited) == ClauseResult(
        "fail", "axis vertex 0: transported coordinate differs at exponent -27")


@settings(max_examples=100)
@given(pair=PAIRS)
# the fixed mark 0 and mark 1 share vertex 11, of level 2, whose edge has
# degree 3: a Pass, then a Fail on clause (iii)
@example(pair=_padic_pair(5, ["1/5", "6/5", "-7/5"], "42/625",
                          ["1/5", "131/5", "-132/5"], "-34458/625"))
@example(pair=_padic_pair(5, ["1/5", "6/5", "-7/5"], "42/625",
                          ["1/5", "11/5", "-12/5"], "-138/625"))
def test_equal_keys_imply_isometry_and_equivariance(pair):
    # the conjugacy module docstring's proof, on both strategies: a bounded
    # mark is no witness, and may share an edge's lower disk with escaping ones
    f, g, rho, depth = pair
    h, err = _outcome(lambda: build_conjugacy(f, g, rho, depth=depth))
    assume(err is None)
    assert _isometry_by_edges(h.source, h.target, h.vertex_map) == ClauseResult("pass")
    assert _equivariance_by_vertices(h.source, h.target, h.vertex_map) == ClauseResult("pass")


# -- a pair whose report changes with the depth ----------------------------------

@pytest.mark.parametrize("depth, vertices, local_translation", [
    (1, 11, ClauseResult("pass")),
    (2, 13, ClauseResult("pass")),
    (3, 17, ClauseResult("fail", "vertex 16: witness (2, 0) leaves its direction"
                                 " under the translation")),
    (4, 20, ClauseResult("fail", "vertex 19: witness (2, 0) leaves its direction"
                                 " under the translation")),
    (5, 23, ClauseResult("fail", "vertex 22: witness (2, 0) leaves its direction"
                                 " under the translation")),
])
def test_a_pass_at_a_shallow_depth_fails_deeper(depth, vertices, local_translation):
    # today's reports: a Pass holds only at the depth it was built to, and the
    # critical mark (2, 0) is the witness that the deeper trees reach
    f, g, rho, depth = _padic_pair(7, ["-12/49", "-11/49", "23/49"], "4",
                                   ["-54/49", "-11/49", "65/49"], "-4", depth=depth)
    h = build_conjugacy(f, g, rho, depth=depth)
    assert len(h.source.vertices) == vertices
    assert verify_extendable(h) == VerificationReport(local_translation)


# drawn from conjugacy_pairs at seed 3 (32 of 3,000 draws flip): a cubic with its
# marks and b moved that flips from depth 2 on, and a quartic with b moved that
# flips from depth 3 on; each depth's vertex count and failing vertex, if any
FLIPPED_PAIRS = {
    "cubic7": ((7, ["4", "-4"], "-8/7", ["8", "-8"], "-400/7"), (1, 0),
               [(7, None), (8, 6), (10, 8), (12, 10), (14, 12)]),
    "quartic5": ((5, ["-7/5", "-1", "12/5"], "-8/25", ["-7/5", "-1", "12/5"], "-33/25"), (2, 0),
                 [(13, None), (16, None), (22, 20), (27, 24), (32, 28)]),
}


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(FLIPPED_PAIRS))
def test_drawn_pairs_that_pass_at_a_shallow_depth_fail_deeper(name, depth):
    # today's reports, pinned like the pair above: Pass up to the flip, then
    # clause (iii) fails with a critical mark as the witness
    args, witness, reports = FLIPPED_PAIRS[name]
    vertices, failing = reports[depth - 1]
    f, g, rho, depth = _padic_pair(*args, depth=depth)
    h = build_conjugacy(f, g, rho, depth=depth)
    assert len(h.source.vertices) == len(h.target.vertices) == vertices
    expected = ClauseResult("pass") if failing is None else ClauseResult(
        "fail", f"vertex {failing}: witness {witness} leaves its direction under the translation")
    assert verify_extendable(h) == VerificationReport(expected)


@pytest.mark.parametrize("pair, overall", [
    ((cubic5(*BASELINE), cubic5(BASELINE[0], BASELINE[1] + 5 ** 4), None, 3), "Pass"),
    (_padic_pair(7, ["-12/49", "-11/49", "23/49"], "4", ["-54/49", "-11/49", "65/49"], "-4"),
     "Fail"),
])
def test_the_report_keeps_an_entry_for_each_implied_clause(pair, overall):
    # the same keys on a Pass and on a Fail, so that no entry that the corpus
    # references hash goes missing
    f, g, rho, depth = pair
    report = verify_extendable(build_conjugacy(f, g, rho, depth=depth)).to_dict()
    assert set(report) == {*IMPLIED, "local_translation", "overall"}
    assert all(report[name] == IMPLIED_ENTRY for name in IMPLIED)
    assert report["overall"] == overall
