"""Properties of the core tree on small escaping p-adic polynomials of degree 2-4.

Each tree is checked against brute-force searches over its own vertices
with ``compare`` and ``BerkPoint ==``: levels, parents, vertex lookup,
witnesses (every orbit value inside the disk), distinct vertices, and
the paper's invariants (Riemann-Hurwitz degree = Taylor degree, edge images
of length degree x length, dynamics maps ancestors to ancestors).
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamedyn.berkovich import BerkPoint, Comparison, compare, hyp_dist
from tamedyn.core import build_core
from tamedyn.polynomial import MarkedPolynomial
from tamedyn.valued_field import PAdic, Val

AT_MOST = (Comparison.LESS, Comparison.EQUAL)


def _p_adic_number(p, unit, exp):
    # unit * p^exp, with the unit prime to p
    return Fraction(unit if unit % p else unit + 1) * Fraction(p) ** exp


@st.composite
def escaping_polynomials(draw):
    """Quadratics z^2 + b with v(b) < 0 (p = 3, 5, 7), and cubics with marks
    +-c and quartics with marks c1, c2, -c1-c2, all of local degree 2, with
    b non-integral (p = 5, 7, where degrees 3 and 4 are tame)."""
    unit = st.integers(min_value=-9, max_value=9).filter(bool)
    marks = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.sampled_from([3, 5, 7] if marks == 1 else [5, 7]))
    backend = PAdic(p)
    b = _p_adic_number(p, draw(unit), -draw(st.integers(min_value=1, max_value=4)))
    cs = [_p_adic_number(p, draw(unit), -draw(st.integers(0, 2))) for _ in range(marks - 1)]
    cs.append(-sum(cs))
    assume(len(set(cs)) == len(cs))
    return MarkedPolynomial.from_critical_data([(backend.scalar(c), 2) for c in cs],
                                               backend.scalar(b))


TREES = st.builds(
    lambda f, rho, depth: build_core(f, rho=rho, depth=depth, budget=12),
    escaping_polynomials(),
    st.sampled_from([None, Fraction(1), Fraction(2), Fraction(7, 2)]),
    st.integers(min_value=1, max_value=4),
)


def _linear_index(tree, point):
    return next((i for i, v in enumerate(tree.vertices) if v.point == point), None)


def _seg_count(tree, x):
    """Vertices on the segment [x, base point]; 0 when x is not below the base point."""
    base = tree.base_point
    if compare(x, base) not in AT_MOST:
        return 0
    return sum(1 for u in tree.vertices
               if compare(x, u.point) in AT_MOST and compare(u.point, base) in AT_MOST)


@settings(max_examples=40)
@given(tree=TREES)
def test_levels_count_the_vertices_up_to_the_base_point(tree):
    assert [v.level for v in tree.vertices] == [_seg_count(tree, v.point) for v in tree.vertices]


@settings(max_examples=40)
@given(tree=TREES)
def test_edges_go_to_the_closest_strict_ancestor(tree):
    uppers = {e.lower: e.upper for e in tree.edges}
    assert len(uppers) == len(tree.edges)
    for vi, v in enumerate(tree.vertices):
        ancestors = [ui for ui, u in enumerate(tree.vertices)
                     if compare(v.point, u.point) is Comparison.LESS]
        closest = max(ancestors, key=lambda ui: tree.vertices[ui].point.radius_exp, default=None)
        assert uppers.get(vi) == closest


@settings(max_examples=40)
@given(tree=TREES)
def test_vertex_at_agrees_with_a_linear_search(tree):
    labels = sorted({label for v in tree.vertices for label in v.witnesses})
    radii = sorted({v.point.radius_exp for v in tree.vertices})
    for q in radii:
        for label in labels:
            point = BerkPoint(tree.orbit_value(*label), q)
            assert tree.vertex_at(q, label) == _linear_index(tree, point)
    for vi, target in enumerate(tree.dynamics):
        if target is not None:
            image, _ = tree.f.image_point(tree.vertices[vi].point)
            assert _linear_index(tree, image) == target
            assert any(tree.vertex_at(image.radius_exp, label) == target
                       for label in tree.vertices[target].witnesses)


@settings(max_examples=40)
@given(tree=TREES)
def test_witnesses_are_the_orbit_values_inside(tree):
    labels = sorted(tree._orbit)  # every materialized (mark, iterate)
    for v in tree.vertices:
        inside = [label for label in labels
                  if (tree.orbit_value(*label) - v.point.center).valuation() >= v.point.radius_exp]
        assert list(v.witnesses) == inside


@settings(max_examples=40)
@given(tree=TREES)
def test_no_two_vertices_are_equal(tree):
    points = [v.point for v in tree.vertices]
    assert not any(points[i] == points[j] for i in range(len(points)) for j in range(i))


@settings(max_examples=40)
@given(tree=TREES)
def test_riemann_hurwitz_degree_equals_taylor_degree(tree):
    f = tree.f
    for e in tree.edges:
        lo, up = tree.vertices[e.lower].point, tree.vertices[e.upper].point
        mid = BerkPoint(lo.center, Val((lo.radius_exp.finite + up.radius_exp.finite) / 2))
        assert e.degree == f.local_degree_rh(mid) == f.image_point(mid)[1]


@settings(max_examples=40)
@given(tree=TREES)
def test_edge_images_have_degree_times_length(tree):
    f = tree.f
    for e in tree.edges:
        assert e.length == hyp_dist(tree.vertices[e.lower].point, tree.vertices[e.upper].point)
        img_lo, _ = f.image_point(tree.vertices[e.lower].point)
        img_up, _ = f.image_point(tree.vertices[e.upper].point)
        assert hyp_dist(img_lo, img_up) == e.degree * e.length


@settings(max_examples=40)
@given(tree=TREES)
def test_dynamics_maps_ancestors_to_ancestors(tree):
    for e in tree.edges:
        dv, du = tree.dynamics[e.lower], tree.dynamics[e.upper]
        if dv is not None and du is not None:
            assert compare(tree.vertices[dv].point, tree.vertices[du].point) in AT_MOST
