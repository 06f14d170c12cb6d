"""``build_core`` against the definition-level builder of ``tree_oracle.py``.

The two trees are matched as disks: a vertex of ``build_core`` matches the
oracle vertex of the same exponent and witnesses whose center lies in its
disk, one to one.  Through that matching the parents, edge degrees, levels,
dynamics and boundary kinds must agree.  The trees are drawn over PAdic and
SeriesT, late first exits among them, and every golden core tree is checked too.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from tamedyn import escape
from tamedyn.core import build_core, export_core
from test_core import LATE_TREES, SERIES_TREES, TREES
from test_golden import (GOLDEN, _poly, _series_cubic, baseline_cubic5, late_cubic7_k8,
                         late_series60_k10)
from tree_oracle import oracle_tree


def assert_matches_oracle(tree, budget=escape.BUDGET):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(escape, "BUDGET", budget)
        oracle = oracle_tree(tree.f, tree.rho, tree.depth)
    match = []
    for v in tree.vertices:
        hits = [oi for oi, (c, q, witnesses, _) in enumerate(oracle.vertices)
                if q == v.exponent and witnesses == v.witnesses
                and (c - v.center).valuation() >= q]
        assert len(hits) == 1, f"vertex {v} has {len(hits)} oracle matches"
        match.append(hits[0])
    assert sorted(match) == list(range(len(oracle.vertices)))
    back = {oi: vi for vi, oi in enumerate(match)}
    back[None] = None
    parents = {e.lower: e.upper for e in tree.edges}
    degrees = {e.lower: e.degree for e in tree.edges}
    for vi, oi in enumerate(match):
        assert tree.vertices[vi].level == oracle.vertices[oi][3]
        assert parents.get(vi) == back[oracle.parents[oi]]
        assert degrees.get(vi) == oracle.degrees[oi]
        assert tree.dynamics[vi] == back.get(oracle.dynamics[oi], "missing")
    assert sorted((b.kind, None if b.vertex is None else match[b.vertex])
                  for b in tree.boundary) == oracle.boundary


@settings(max_examples=150)
@given(tree=TREES)
def test_padic_trees_match_the_oracle(tree):
    assert_matches_oracle(tree, budget=12)


@settings(max_examples=40)
@given(tree=SERIES_TREES)
def test_series_trees_match_the_oracle(tree):
    assert_matches_oracle(tree, budget=12)


@settings(max_examples=20)
@given(tree=LATE_TREES)
def test_late_exit_trees_match_the_oracle(tree):
    assert_matches_oracle(tree, budget=12)


GOLDEN_TREES = {
    **{f"core-cubic5-d{d}.json": (baseline_cubic5, d) for d in range(2, 6)},
    "core-quartic7-d3.json": (lambda: _poly(7, ["2/7", "-5/7", "3/7"], "-3/49"), 3),
    "core-series30-cubic-d2.json": (lambda: _series_cubic("30", 1, "-1", "-4"), 2),
    "core-series10-r2-cubic-d2.json": (lambda: _series_cubic("10", 2, "-1/2", "-2"), 2),
    "core-late-cubic7-k8-d3.json": (late_cubic7_k8, 3),
    "core-late-series60-k10-d3.json": (late_series60_k10, 3),
}


def test_every_golden_tree_is_checked():
    assert sorted(GOLDEN_TREES) == sorted(p.name for p in GOLDEN.glob("core-*.json"))


@pytest.mark.parametrize("name", sorted(GOLDEN_TREES))
def test_golden_trees_match_the_oracle(name):
    make, depth = GOLDEN_TREES[name]
    tree = build_core(make(), depth=depth)
    assert export_core(tree) == (GOLDEN / name).read_text()
    assert_matches_oracle(tree)
