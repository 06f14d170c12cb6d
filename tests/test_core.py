"""Properties of the core tree on small escaping p-adic polynomials of degree 2-4,
and of its edge degrees on SeriesT cubics too.

Each tree is checked against brute-force searches over its own vertices
with ``compare`` and ``BerkPoint ==``: levels, parents, image vertices,
witnesses (every orbit value inside the disk), distinct vertices, their
order, and the paper's invariants (Riemann-Hurwitz degree = Taylor
degree, edge images of length degree x length, dynamics maps ancestors to
ancestors).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tamedyn import escape
from tamedyn.berkovich import BerkPoint, Comparison, compare, hyp_dist
from tamedyn.core import CoreEdge, _joins, build_core
from tamedyn.escape import Escaping, classify_critical
from tamedyn.polynomial import MarkedPolynomial
from tamedyn.valued_field import PAdic, SeriesT, valuation_table
from test_golden import _series_cubic, baseline_cubic5

AT_MOST = (Comparison.LESS, Comparison.EQUAL)


def _p_adic_number(p, unit, exp):
    # unit * p^exp, with the unit prime to p
    return Fraction(unit if unit % p else unit + 1) * Fraction(p) ** exp


@st.composite
def escaping_polynomials(draw):
    """Quadratics z^2 + b with v(b) < 0 (p = 3, 5, 7); cubics with marks +-c and
    quartics with marks c1, c2, -c1-c2, all of local degree 2; z^3 + b and
    z^4 + b (one mark at 0, of local degree 3 or 4); and quartics with marks
    c of local degree 3 and -2c of local degree 2.  Beyond quadratics, b is
    non-integral and p = 5, 7, where degrees 3 and 4 are tame."""
    unit = st.integers(min_value=-9, max_value=9).filter(bool)
    shape = draw(st.integers(min_value=1, max_value=6))
    p = draw(st.sampled_from([3, 5, 7] if shape == 1 else [5, 7]))
    backend = PAdic(p)
    b = _p_adic_number(p, draw(unit), -draw(st.integers(min_value=1, max_value=4)))
    if shape <= 3:  # shape marks, each of local degree 2
        cs = [_p_adic_number(p, draw(unit), -draw(st.integers(0, 2))) for _ in range(shape - 1)]
        cs.append(-sum(cs))
        assume(len(set(cs)) == len(cs))
        marks = [(c, 2) for c in cs]
    elif shape <= 5:
        marks = [(Fraction(0), shape - 1)]
    else:
        c = _p_adic_number(p, draw(unit), -draw(st.integers(0, 2)))
        marks = [(c, 3), (-2 * c, 2)]
    return MarkedPolynomial.from_critical_data([(backend.scalar(c), k) for c, k in marks],
                                               backend.scalar(b))


def _tree(f, rho, depth):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(escape, "BUDGET", 12)
        return build_core(f, rho=rho, depth=depth)


TREES = st.builds(
    _tree,
    escaping_polynomials(),
    st.sampled_from([None, Fraction(1), Fraction(2), Fraction(7, 2)]),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def series_trees(draw, max_depth=4):
    """Trees of the ``_series_cubic``s over SeriesT(20|30, ram_den 1-3), with the
    mark exponent in -1..1 and b's in -5..0, both on the 1/ram_den grid, at
    depths 1..max_depth."""
    ram_den = draw(st.integers(min_value=1, max_value=3))
    lead = Fraction(draw(st.integers(-ram_den, ram_den)), ram_den)
    b_exp = Fraction(draw(st.integers(-5 * ram_den, 0)), ram_den)
    f = _series_cubic(draw(st.sampled_from(["20", "30"])), ram_den, str(lead), str(b_exp))
    return _tree(f, draw(st.sampled_from([None, Fraction(1), Fraction(2), Fraction(7, 2)])),
                 draw(st.integers(min_value=1, max_value=max_depth)))


SERIES_TREES = series_trees()


@st.composite
def late_trees(draw):
    """Trees whose mark 0 first exits late: the cubic with marks +-c and
    b = 2c^3 - 2c + pi^k, where f(c) = -2c + pi^k lies pi^k-close to the
    repelling fixed point -2c of the unperturbed map, so the orbit of c
    first leaves the base disk after about k/2 steps.  c = 1/p over
    PAdic(5|7) with k in 1-12, and c = 1/t over SeriesT(60) with k in 1-20;
    rho None, 1 or 2.  Past the exit, orbit values reach a million bits,
    and their ray maps are the closed form.  Depth 4 is drawn only up to
    k = 10, which keeps a tree and its oracle under about two seconds."""
    if draw(st.booleans()):
        p = draw(st.sampled_from([5, 7]))
        backend = PAdic(p)
        c, pi = backend.scalar(Fraction(1, p)), backend.scalar(p)
        k = draw(st.integers(1, 12))
    else:
        backend = SeriesT(60)
        c, pi = backend.scalar(terms=[(-1, 1)]), backend.scalar(terms=[(1, 1)])
        k = draw(st.integers(1, 20))
    b = (c * c * c).scale(2) - c.scale(2) + pi ** k
    f = MarkedPolynomial.from_critical_data([(c, 2), (-c, 2)], b)
    return _tree(f, draw(st.sampled_from([None, Fraction(1), Fraction(2)])),
                 draw(st.integers(min_value=1, max_value=4 if k <= 10 else 3)))


LATE_TREES = late_trees()


def _linear_index(tree, point):
    return next((i for i, v in enumerate(tree.vertices) if v.point == point), None)


def _seg_count(tree, x):
    """Vertices on the segment [x, base point]; 0 when x is not below the base point."""
    base = BerkPoint(tree.f.backend.zero, tree.f.base_radius_exp)
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
        closest = max(ancestors, key=lambda ui: tree.vertices[ui].exponent, default=None)
        assert uppers.get(vi) == closest


@settings(max_examples=40)
@given(tree=TREES)
def test_dynamics_is_the_image_point(tree):
    for vi, target in enumerate(tree.dynamics):
        if target is not None:
            image, _ = tree.f.image_point(tree.vertices[vi].point)
            assert _linear_index(tree, image) == target


def _marks_of_degree_two(p, cs, b):
    return MarkedPolynomial.from_critical_data(
        [(PAdic(p).scalar(Fraction(c)), 2) for c in cs], PAdic(p).scalar(Fraction(b)))


@settings(max_examples=40)
@given(tree=st.one_of(TREES, SERIES_TREES, LATE_TREES))
# two disks of one exponent whose labels interleave: ordered by last witness,
# ((0, 1), (2, 1)) would come after ((1, 1),)
@example(tree=_tree(_marks_of_degree_two(5, ["2/25", "6/25", "-8/25"], "8/5"), Fraction(7, 2), 4))
@example(tree=_tree(_marks_of_degree_two(7, ["1/7", "-1/7"],
                                         Fraction(2, 343) - Fraction(2, 7) + 7 ** 7), None, 1))
def test_vertices_are_in_strict_exponent_then_first_witness_order(tree):
    # conjugacy.build_conjugacy reads its key map off this order
    keys = [(v.exponent, v.witnesses[0]) for v in tree.vertices]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@settings(max_examples=40)
@given(tree=TREES)
def test_witnesses_are_the_orbit_values_inside(tree):
    labels = sorted(tree._orbit)  # every materialized (mark, iterate)
    for v in tree.vertices:
        inside = [label for label in labels
                  if (tree.orbit_value(*label) - v.center).valuation() >= v.exponent]
        assert list(v.witnesses) == inside


@settings(max_examples=40)
@given(tree=TREES)
def test_no_two_vertices_are_equal(tree):
    points = [v.point for v in tree.vertices]
    assert not any(points[i] == points[j] for i in range(len(points)) for j in range(i))


def _assert_edge_degrees(tree):
    # build_core reads each degree off its valuation table; local_degree_rh
    # and image_point compute it again from the marks and from Taylor data
    f = tree.f
    for e in tree.edges:
        lo, up = tree.vertices[e.lower], tree.vertices[e.upper]
        mid = BerkPoint(lo.center, Fraction(lo.exponent + up.exponent, 2))
        assert e.degree == f.local_degree_rh(mid) == f.image_point(mid)[1]


@settings(max_examples=40)
@given(tree=TREES)
def test_riemann_hurwitz_degree_equals_taylor_degree(tree):
    _assert_edge_degrees(tree)


@settings(max_examples=40)
@given(tree=SERIES_TREES)
def test_riemann_hurwitz_degree_equals_taylor_degree_over_series(tree):
    _assert_edge_degrees(tree)


@settings(max_examples=40)
@given(tree=st.one_of(TREES, SERIES_TREES, LATE_TREES))
def test_an_edge_holds_the_same_marks_at_its_midpoint_and_its_lower_end(tree):
    # build_core reads each degree at the lower exponent q, by the core
    # docstring's lemma: a mark between the two would make a closer parent
    marks = [m.point for m in tree.f.marks]
    for e in tree.edges:
        lo, up = tree.vertices[e.lower], tree.vertices[e.upper]

        def inside(q):
            return [i for i, m in enumerate(marks) if (m - lo.center).valuation() >= q]
        assert inside(Fraction(lo.exponent + up.exponent, 2)) == inside(lo.exponent)


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


@settings(max_examples=200)
@given(tree=st.one_of(
    st.builds(_tree, escaping_polynomials(), st.sampled_from([None, Fraction(1), Fraction(2)]),
              st.integers(min_value=1, max_value=5)),
    series_trees(max_depth=5),
    LATE_TREES))
def test_images_in_the_base_disk_are_the_shallowest_vertices_of_the_next_label(tree):
    """The lemma of the conjugacy docstring: for a label l with a successor l+,
    the recorded images of the vertices in the base disk that hold l are, in
    exponent order, the shallowest vertices that hold l+ inside f(base disk),
    the disk of exponent d*beta.  Late trees come at their own depths, 1-4: at
    depth 5 their orbit heights make each tree slow to build."""
    floor = tree.f.degree * tree.f.base_radius_exp
    labels = {label for v in tree.vertices for label in v.witnesses}
    for i, n in labels:
        if (i, n + 1) not in labels:
            continue
        held = [vi for vi, v in enumerate(tree.vertices) if v.level >= 1 and (i, n) in v.witnesses]
        successors = [vi for vi, v in enumerate(tree.vertices)
                      if v.exponent >= floor and (i, n + 1) in v.witnesses]
        assert [tree.dynamics[vi] for vi in held] == successors[:len(held)]


@settings(max_examples=15)
@given(tree=st.one_of(TREES, LATE_TREES))
def test_depth_acts_only_as_a_level_filter(tree):
    """At depths 0 and 1 the tree is the depth-2 tree's vertices of level at
    most the depth, with edges and dynamics renumbered: fwd_depth is 2 at all
    three, so the closure is the same and only the level filter differs."""
    full = _tree(tree.f, tree.rho, 2)
    for depth in (0, 1):
        cut = _tree(tree.f, tree.rho, depth)
        assert cut.fwd_depth == full.fwd_depth == 2
        kept = [vi for vi, v in enumerate(full.vertices) if v.level <= depth]
        number = {vi: k for k, vi in enumerate(kept)}
        assert cut.vertices == tuple(full.vertices[vi] for vi in kept)
        assert cut.edges == tuple(CoreEdge(number[e.lower], number[e.upper], e.degree, e.length)
                                  for e in full.edges if e.lower in number)
        assert cut.dynamics == tuple(None if full.dynamics[vi] is None
                                     else number[full.dynamics[vi]] for vi in kept)


def test_the_parent_search_compares_with_kept_vertices_only(monkeypatch):
    """On a late tree cut at depth 1, every candidate ancestor that build_core
    hands to compare is a vertex of the tree, never a disk the level filter
    skipped (b = 2c^3 - 2c + 5 with c = 1/5, the k = 1 tree of LATE_TREES)."""
    backend = PAdic(5)
    c = backend.scalar(Fraction(1, 5))
    f = MarkedPolynomial.from_critical_data(
        [(c, 2), (-c, 2)], (c * c * c).scale(2) - c.scale(2) + backend.scalar(5))
    candidates = []
    monkeypatch.setattr("tamedyn.core.compare", lambda x, y: candidates.append(y) or compare(x, y))
    tree = _tree(f, None, 1)
    assert "vertices beyond level 1 were pruned" in tree.warnings
    assert candidates and all(any(y == v.point for v in tree.vertices) for y in candidates)


def test_no_taylor_data_at_the_last_orbit_value(monkeypatch):
    """The last materialized value of each escaping orbit has no successor,
    so the tree never reads its ray map (both marks of the cubic escape)."""
    f = baseline_cubic5()
    expanded = []
    original = MarkedPolynomial.segment_dynamics
    monkeypatch.setattr(MarkedPolynomial, "segment_dynamics",
                        lambda self, a: expanded.append(a) or original(self, a))
    exits = {i: classify_critical(f, mark).first_exit for i, mark in enumerate(f.marks)}
    for rho in (None, Fraction(2)):
        tree = build_core(f, rho=rho, depth=3)
        last = {tree.orbit_value(i, m + tree.fwd_depth) for i, m in exits.items()}
        assert expanded and last.isdisjoint(expanded)


@pytest.mark.parametrize("rho", [0.5, 2.0, True, False])
def test_float_or_bool_rho_is_refused_before_any_orbit_work(rho):
    f = baseline_cubic5()
    with pytest.raises(TypeError, match="rho must be None, an int or a Fraction"):
        build_core(f, rho=rho)
    assert not f._records and not f._orbits


@pytest.mark.parametrize("rho", [0, -1, Fraction(-10)])
def test_nonpositive_rho_is_refused_before_any_orbit_work(rho):
    # unchecked, rho = -10 gave the rho = 1 tree
    f = baseline_cubic5()
    with pytest.raises(ValueError, match="rho must be positive"):
        build_core(f, rho=rho)
    assert not f._records and not f._orbits


@pytest.mark.parametrize("depth, error", [(1.5, TypeError), (True, TypeError), (-1, ValueError)])
def test_invalid_depth_is_refused_before_any_orbit_work(depth, error):
    # unchecked, a float depth reaches the export as a JSON float
    f = baseline_cubic5()
    with pytest.raises(error, match="depth must be"):
        build_core(f, depth=depth)
    assert not f._records and not f._orbits


@st.composite
def padic_pools(draw, p):
    """Pools of 0 and values of exponents -3..3 (many of one valuation), plus
    values x + u p^j, which cancel with x to a higher valuation when j > v(x)."""
    prime_to_p = st.integers(min_value=-20, max_value=20).filter(lambda n: n % p)
    xs = draw(st.lists(st.builds(lambda u, w, e: Fraction(u, abs(w)) * Fraction(p) ** e,
                                 prime_to_p, prime_to_p, st.integers(-3, 3)),
                       min_size=1, max_size=6))
    shifts = draw(st.lists(st.tuples(st.integers(0, len(xs) - 1), st.integers(-3, 6),
                                     prime_to_p), max_size=4))
    values = [Fraction(0), *xs, *(xs[i] + u * Fraction(p) ** j for i, j, u in shifts)]
    return [PAdic(p).scalar(a) for a in dict.fromkeys(values)]


@st.composite
def series_pools(draw):
    """The same shape over SeriesT(6, ram_den 1-2): 0, sums of up to three
    terms of exponents -3..3, and values x + u t^j."""
    backend = SeriesT(6, draw(st.integers(min_value=1, max_value=2)))
    term = st.tuples(st.integers(-3 * backend.ram_den, 3 * backend.ram_den),
                     st.integers(-4, 4).filter(bool))
    xs = [backend.scalar(terms=[(Fraction(k, backend.ram_den), c) for k, c in x])
          for x in draw(st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=6))]
    shifts = draw(st.lists(st.tuples(st.integers(0, len(xs) - 1), term), max_size=4))
    values = [backend.zero, *xs,
              *(xs[i] + backend.scalar(terms=[(Fraction(k, backend.ram_den), c)])
                for i, (k, c) in shifts)]
    return list(dict.fromkeys(values))


@settings(max_examples=200)
@given(pool=st.one_of(st.sampled_from([2, 3, 5, 7]).flatmap(padic_pools), series_pools()))
def test_valuation_table_matches_scalar_subtraction(pool):
    """The table against v(x - y) by Scalar subtraction: the pools' values
    x + u p^j (or t^j) tie with x and cancel, so a table that always took
    min(v(x), v(y)) fails here.  math.inf is on the diagonal only."""
    table = valuation_table(pool)
    exponent_type = int if isinstance(pool[0].backend, PAdic) else Fraction
    for x, a in enumerate(pool):
        assert table[x][x] == math.inf
        for y, b in enumerate(pool[:x]):
            assert table[x][y] == table[y][x] == (a - b).valuation() != math.inf
            assert type(table[x][y]) is exponent_type


@settings(max_examples=60)
@given(f=escaping_polynomials())
# the polynomials of core-series30-cubic-d2.json and core-series10-r2-cubic-d2.json
@example(f=_series_cubic("30", 1, "-1", "-4"))
@example(f=_series_cubic("10", 2, "-1/2", "-2"))
def test_base_point_sits_at_the_fastest_critical_escape_rate(f):
    # past the first exit m, v(f^(n+1)(c)) = d v(f^n(c)), so v(f^m(c))/d^m
    # is the escape rate of the mark; the fastest one is the base exponent
    rates = []
    for mark in f.marks:
        rec = classify_critical(f, mark)
        if isinstance(rec, Escaping):
            m = rec.first_exit
            rates.append(Fraction(f.orbit(mark, m)[m].valuation(), f.degree ** m))
    assume(rates)
    assert min(rates) == f.base_radius_exp


@settings(max_examples=150)
@given(pool=st.one_of(st.sampled_from([3, 5, 7]).flatmap(padic_pools), series_pools()))
def test_joins_are_every_pairwise_join(pool):
    """The dendrogram's joins against all pairwise joins D(pool[a], table[a][b]),
    each named by (least pool index inside, exponent)."""
    table = valuation_table(pool)
    pairwise = {(next(c for c, e in enumerate(table[a]) if e >= table[a][b]), table[a][b])
                for a in range(len(pool)) for b in range(a + 1, len(pool))}
    assert set(_joins(table)) == pairwise
