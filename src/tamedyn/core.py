"""Finite truncations of the invariant tree spanned by escaping critical orbits.

The tree is the union of the axis (the segment from the base point to
infinity) with the rays from every materialized escaping orbit point to
infinity, trimmed to the points whose forward images stay within
hyperbolic distance rho of the axis, and truncated three ways: orbit
rays at first-exit + fwd_depth iterates, the axis at the outermost
branch point, and the part inside the base disk at the requested level
depth.  All three truncations are recorded so tests can distinguish
absent from truncated.

Vertices are the base point, all joins of materialized rays and critical
marks (local degree is constant between consecutive mark joins, which
keeps every edge at a single degree), and the forward/backward closure
of these under the exact ray dynamics.  Every vertex is a disk
D(a, q) around a value of the pool {0, orbit values, marks}.  The metric
is ultrametric, so a disk is fixed by its exponent q and the pool values
it contains: ``build_core`` numbers it once, when it is first found, under
(q, least pool index b with v(a - pool[b]) >= q), reading one row of a table
of pairwise valuations.  A vertex holds the disk's first center, its
exponent q (a finite int or Fraction, like every exponent here;
``CoreVertex.point`` is the same disk as a ``BerkPoint``) and its orbit
witnesses (mark index, iterate), the orbit values inside.  The image of
each vertex is recorded by the closure's forward step.

The joins come from the pool's dendrogram (``_joins``): for each pool index
a >= 1, q = max(table[a][:a]) and the join D(pool[a], q), centered at its
least index.  These n - 1 joins are all of them.  Let K be a join at exponent q,
l its least index, and a the least index in K outside the open ball of
radius q around l.  Every earlier index in K lies in that ball, so its
distance to a is exactly q, and every earlier index outside K is farther,
so max(table[a][:a]) = q and D(pool[a], q) = K.

The closure of the seeds, the base point and the joins, needs no count of
steps.  f maps a preimage disk onto the disk it was pulled back from, so every
disk found is a chain of preimages of a forward image of a seed.  A seed has
finitely many forward images: each disk holds an escaping orbit value, so some
image contains the base disk or lies outside it, and from there each step takes
the exponent q to d*q, or to q + (d - 1)*v(w) with v(w) < beta, until q is below
the top exponent, the least v(w) (only the base point is fixed, when beta = 0).
A chain of k preimages of a disk X holds an orbit value whose k-th image lies
in X, and an escaping orbit enters X only finitely often.  So depth acts only
through fwd_depth and the level filter of the one pass below.  A disk is pulled
back along one label per component of its preimage: a label whose predecessor
lies in a preimage already found is skipped, as that preimage is its component.

The table is ``valued_field.valuation_table``, one loop for both backends:
an entry is min(v(x), v(y)) where the two valuations differ (89-93% of the
pairs in the benchmark's corpus) and one subtraction where they tie.  Over
PAdic the ray maps are integer kernels: each comes from integer Taylor data
(``MarkedPolynomial.segment_dynamics``), so an exponent stays an int until
a ray map divides by a slope that does not divide it, or rho is added.
Outside the base disk a ray map is the closed form of ``escaped_ray_map``
at the table's v(w), exact because f is tame and every critical point lies
in the base disk; so no Taylor shift runs on a value past its first exit,
whose height grows d-fold per step.

One pass over the disks, in (radius exponent, first witness) order, gives each
its parent, level, vertex and edge; the order is strict, as disks of one radius
that share a witness are equal, and it is the vertices' order.  The level counts
the vertices on the segment from the disk to the base point: 0 outside the base
disk, 1 at the base point, and one more than its parent's strictly inside.  A
disk of level above the depth is skipped.  The parent is the last kept vertex
before the disk, of smaller exponent, that ``compare`` finds containing it (the
benchmark's traced run counts those calls; reading the table instead waits for
its next change, see ROADMAP.md).  Ancestors have no higher level, so a kept
disk's closest ancestor is kept and is found.  A skipped disk is at least as
deep as the child, on its chain, of its closest kept ancestor u; that child is
skipped, so the level 1 + level(u) read off u, the child's, exceeds the depth
(inside the base disk levels rise by one per step, and the 0/1 rules read no
parent).  Vertex 0 is the root.  An edge's degree, the Riemann-Hurwitz count at
its midpoint, is read off its lower vertex's row (the marks are in the pool) at
the lower exponent q: a mark in D(a, mid) but not in D(a, q) would make
D(a, v(a - mark)) a join strictly between the edge's two ends, and that join is
on the tree (it holds the lower disk, whose labels are not trimmed above q, or
the base disk), so it would be a closer parent.  The tests' oracle for it is
``MarkedPolynomial.local_degree_rh``.

``export_core`` writes its text directly, one template per record, and the
text is byte-identical to ``json.dumps`` with sorted keys and indent 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from tamedyn.berkovich import BerkPoint, Comparison, compare
from tamedyn import escape
from tamedyn.escape import Escaping, Unknown, classify_critical
from tamedyn.polynomial import MarkedPolynomial, escaped_ray_map
from tamedyn.serialize import scalar_to_json, val_str
from tamedyn.valued_field import Rat, Scalar, _as_fraction, _as_int, valuation_table

DEFAULT_DEPTH = 3


def _fwd_depth(depth: int) -> int:
    return max(2, depth)


@dataclass(frozen=True)
class CoreVertex:
    """The disk D(center, base^-exponent), with the orbit values inside it."""

    center: Scalar
    exponent: Rat
    witnesses: tuple[tuple[int, int], ...]  # (mark index, iterate), sorted
    level: int

    @property
    def point(self) -> BerkPoint:
        """The disk as a BerkPoint: the parent search of ``build_core`` compares
        with it, and so do the oracles of the tests and the benchmark."""
        return BerkPoint(self.center, self.exponent)


@dataclass(frozen=True)
class CoreEdge:
    lower: int  # index of the smaller disk (larger exponent)
    upper: int
    degree: int
    length: Rat


@dataclass(frozen=True)
class BoundaryMark:
    kind: str  # "to_infinity" | "classical_end" | "trimmed" | "depth_truncated" | "julia_base"
    vertex: int | None
    detail: str = ""


class CoreTree:
    def __init__(self, f, rho, depth, vertices, edges, dynamics, boundary, warnings, orbit):
        self.f = f
        self.rho = rho  # Fraction or None (= untrimmed)
        self.depth = depth
        self.fwd_depth = _fwd_depth(depth)  # iterates materialized past each first exit
        self.vertices: tuple[CoreVertex, ...] = vertices
        self.edges: tuple[CoreEdge, ...] = edges
        self.dynamics: tuple[int | None, ...] = dynamics  # image vertex of each vertex
        self.boundary: tuple[BoundaryMark, ...] = boundary
        self.warnings: tuple[str, ...] = warnings
        self._orbit = orbit  # (mark, iterate) -> Scalar

    def orbit_value(self, mark: int, iterate: int) -> Scalar:
        return self._orbit[(mark, iterate)]


def _joins(table: list[list]):
    """(least pool index inside, exponent) of the join of each pool index a >= 1
    with its nearest earlier values: every join, as the module docstring shows."""
    for a in range(1, len(table)):
        q = max(table[a][:a])
        yield next(b for b, e in enumerate(table[a]) if e >= q), q


def check_rho(rho) -> None:
    """Raise TypeError unless rho is None, an int (not a bool) or a Fraction."""
    if rho is not None:
        _as_fraction(rho, "rho must be None, an int or a Fraction")


def check_depth(depth) -> None:
    """Raise TypeError unless depth is an int (not a bool), ValueError if < 0."""
    if _as_int(depth, "depth") < 0:
        raise ValueError(f"depth must be >= 0, not {depth}")


def build_core(f: MarkedPolynomial, rho: Fraction | None = None,
               depth: int = DEFAULT_DEPTH) -> CoreTree:
    """Construct the truncated tree; rho = None means untrimmed.  A rho that
    is not None, an int or a Fraction, or not positive, or a depth that is not
    an int >= 0, raises TypeError or ValueError before any orbit work."""
    check_rho(rho)
    check_depth(depth)
    if rho is not None and rho <= 0:
        raise ValueError("rho must be positive")
    base = f.base_radius_exp
    zero = f.backend.zero
    warnings: list[str] = []

    exits: dict[int, int] = {}
    for i, mark in enumerate(f.marks):
        rec = classify_critical(f, mark)
        if isinstance(rec, Escaping):
            exits[i] = rec.first_exit
        elif isinstance(rec, Unknown):
            warnings.append(
                f"mark {i} unresolved within budget; tree is a verified subtree"
            )
    if not exits:
        boundary = (BoundaryMark("julia_base", None, "base point bounds the tree from below"),
                    BoundaryMark("to_infinity", None, "open axis toward infinity"))
        return CoreTree(f, rho, depth, (), (), (), boundary, tuple(warnings), {})

    fwd = _fwd_depth(depth)
    orbit: dict[tuple[int, int], Scalar] = {
        (i, n): w for i, m in exits.items()
        for n, w in enumerate(f.orbit(f.marks[i], m + fwd)[:m + fwd + 1])}
    # candidate vertex centers: 0, the materialized orbit values and every
    # critical mark position, each distinct value once; disks and orbit
    # keys refer to them by index, and table[x][y] = v(pool[x] - pool[y])
    # is computed once per pair (infinite on the diagonal only)
    slot_of: dict[Scalar, int] = {zero: 0}
    slots = {key: slot_of.setdefault(w, len(slot_of)) for key, w in orbit.items()}
    mark_slots = [(slot_of.setdefault(m.point, len(slot_of)), m.multiplicity - 1)
                  for m in f.marks]
    pool: list[Scalar] = list(slot_of)
    keys_at: list[list[tuple[int, int]]] = [[] for _ in pool]
    for key, s in slots.items():
        keys_at[s].append(key)
    table = valuation_table(pool)
    # ray maps on every value with a successor, in closed form outside the base disk:
    # the last one of each orbit is never stepped from, forward, backward or by a rho cut
    segs = {(i, n): escaped_ray_map(f.degree, v) if (v := table[slots[(i, n)]][0]) < base
            else f.segment_dynamics(w) for (i, n), w in orbit.items() if n < exits[i] + fwd}

    # rho cuts: v(w) + rho from the first exit m on; before m, the next cut pulled back
    cuts: dict[tuple[int, int], Rat] = {}
    if rho is not None:
        for i, m in exits.items():
            for n in range(m + fwd, -1, -1):
                cuts[(i, n)] = (table[slots[(i, n)]][0] + rho if n >= m
                                else segs[(i, n)].invert(cuts[(i, n + 1)]))

    top_exp = min(table[s][0] for s in slots.values() if s != 0)

    # the disks on the tree as (center slot, exponent, orbit keys inside, sorted),
    # numbered in the order they were found, and each number by (q, least index)
    disks: list[tuple[int, Rat, tuple[tuple[int, int], ...]]] = []
    number: dict[tuple[Rat, int], int] = {}

    def disk(a: int, q: Rat) -> int:
        """The number of D(pool[a], q), or -1 when it is off the tree.  A disk is
        on it when q is at least the top exponent, and the disk either contains
        the base disk or an orbit value whose ray is not trimmed at q."""
        row = table[a]
        key = (q, next(b for b, e in enumerate(row) if e >= q))
        if key in number or q < top_exp:
            return number.get(key, -1)
        labels = tuple(sorted(k for b in range(key[1], len(row)) if row[b] >= q
                              for k in keys_at[b]))
        if (q <= base and row[0] >= q) or any(cuts.get(k, math.inf) > q for k in labels):
            if not labels:
                raise AssertionError("vertex without an orbit witness")
            number[key] = len(disks)
            disks.append((a, q, labels))
        return number.get(key, -1)

    # the base point plus every join of the pool
    disk(0, base)
    for least, q in _joins(table):
        disk(least, q)

    # closure under the exact ray dynamics, forward and backward, walking the list
    # as it grows.  The forward step goes along the first label with a materialized
    # successor; its image disk (-1 when off the tree) is the vertex's recorded image.
    images: list[int | None] = []
    for a, q, labels in disks:
        if len(images) >= 100_000:
            raise AssertionError("tree closure failed to stabilize")
        images.append(None)
        for i, n in labels:
            succ = slots.get((i, n + 1))
            if succ is not None:
                q_img = segs[(i, n)].image_exp(q)
                if q_img >= top_exp:
                    images[-1] = disk(succ, q_img)
                break
        # preimages on every materialized ray, one per component of f^-1(D)
        found: list[tuple[int, Rat]] = []  # (center slot, exponent) of each preimage
        for j, n in labels:
            s = slots.get((j, n - 1))  # None at n = 0
            if s is not None and not any(table[a][s] >= q_a for a, q_a in found):
                found.append((s, segs[(j, n - 1)].invert(q)))
                disk(*found[-1])

    # one pass in (exponent, first label) order, the parent searched among kept vertices
    vertex_of: dict[int, int] = {}  # kept disk -> vertex number
    vertices, edges = [], []
    for d in sorted(range(len(disks)), key=lambda d: (disks[d][1], disks[d][2][0])):
        a, q, labels = disks[d]
        point = BerkPoint(pool[a], q)
        u = next((u for u in reversed(range(len(vertices))) if vertices[u].exponent < q
                  and compare(point, vertices[u].point) is Comparison.LESS), None)
        level = (0 if min(table[a][0], q) < base  # outside the base disk
                 else 1 if q == base else 1 + vertices[u].level)
        if level > depth:
            continue
        vertex_of[d] = len(vertices)
        vertices.append(CoreVertex(pool[a], q, labels, level))
        if u is not None:
            # degree: 1 + sum (d_i - 1) over the marks in D(pool[a], q), as at the midpoint
            degree = 1 + sum(k for s, k in mark_slots if table[a][s] >= q)
            edges.append(CoreEdge(vertex_of[d], u, degree, q - vertices[u].exponent))
    if any(images[d] is not None and images[d] not in vertex_of for d in vertex_of):
        raise AssertionError("image of a vertex is missing from the tree")
    dynamics = [None if images[d] is None else vertex_of[images[d]] for d in vertex_of]
    depth_truncated = len(vertex_of) < len(disks)  # some disk was skipped

    # boundary markers
    boundary = [BoundaryMark("to_infinity", 0, "axis continues upward")]
    children = {e.upper for e in edges}
    for vi, v in enumerate(vertices):
        if vi in children:
            continue
        i, n = v.witnesses[0]
        if v.level > 0:
            boundary.append(BoundaryMark(
                "depth_truncated" if depth_truncated or v.level == depth else "classical_end",
                vi, f"below-base ray toward mark {i}"))
        else:
            key_cut = cuts.get((i, n))
            if key_cut is not None:
                boundary.append(BoundaryMark("trimmed", vi,
                                             f"ray ({i},{n}) cut at {val_str(key_cut)}"))
            else:
                boundary.append(BoundaryMark("classical_end", vi, f"orbit value ({i},{n})"))
    if depth_truncated:
        warnings.append(f"vertices beyond level {depth} were pruned")

    return CoreTree(f, rho, depth, tuple(vertices), tuple(edges), tuple(dynamics),
                    tuple(boundary), tuple(warnings), orbit)


# the records of the export, as json.dumps(indent=2, sort_keys=True) lays them out
_TREE = ('{\n  "base_radius_exp": %s,\n  "boundary": %s,\n  "budget": %d,\n  "depth": %d,\n'
         '  "dynamics": %s,\n  "edges": %s,\n  "fwd_depth": %d,\n  "rho": %s,\n  "schema": 1,\n'
         '  "vertices": %s,\n  "warnings": %s\n}\n')
_VERTEX = ('{\n      "center": %s,\n      "level": %d,\n      "radius_exp": %s,\n'
           '      "witnesses": %s\n    }')
_EDGE = '{\n      "degree": %d,\n      "length": %s,\n      "lower": %d,\n      "upper": %d\n    }'
_BOUNDARY = '{\n      "detail": %s,\n      "kind": %s,\n      "vertex": %s\n    }'
_PAIR = '[\n          %s,\n          %s\n        ]'  # a witness or a series term


def _json_list(items: list[str], indent: int) -> str:
    """The encoded items as a JSON list, one per line at `indent` spaces: "[]" when empty."""
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]" if items else "[]"


def _json_center(x: Scalar) -> str:
    data = scalar_to_json(x)  # a rational or the (exponent, coefficient) pairs of a series
    return _quote(data) if isinstance(data, str) else _json_list(
        [_PAIR % (_quote(e), _quote(c)) for e, c in data], 8)


def export_core(tree: CoreTree) -> str:
    vertices = [_VERTEX % (_json_center(v.center), v.level, _quote(val_str(v.exponent)),
                           _json_list([_PAIR % label for label in v.witnesses], 8))
                for v in tree.vertices]
    edges = [_EDGE % (e.degree, _quote(val_str(e.length)), e.lower, e.upper) for e in tree.edges]
    boundary = [_BOUNDARY % (_quote(b.detail), _quote(b.kind),
                             "null" if b.vertex is None else b.vertex) for b in tree.boundary]
    dynamics = ["null" if d is None else str(d) for d in tree.dynamics]
    return _TREE % (
        _quote(val_str(tree.f.base_radius_exp)), _json_list(boundary, 4), escape.BUDGET,
        tree.depth, _json_list(dynamics, 4), _json_list(edges, 4), tree.fwd_depth,
        _quote("inf" if tree.rho is None else val_str(tree.rho)), _json_list(vertices, 4),
        _json_list([_quote(w) for w in tree.warnings], 4))
