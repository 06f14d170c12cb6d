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
it contains: ``build_core`` names it once, as (q, least pool index b with
v(a - pool[b]) >= q), reading one row of a table of pairwise valuations,
and keeps its first center and its orbit witnesses (mark index,
iterate), the orbit values inside.  Two disks of one radius are equal
exactly when they share a witness, so a finished tree looks a vertex up
by its radius exponent and any one of its labels.  The image of each
vertex is recorded by the closure's forward step.

Each vertex's parent is its closest strict ancestor, the upper end of
its edge, found with ``compare`` over the larger disks (the benchmark's
traced run counts those calls; reading the table instead waits for its
next change, see ROADMAP.md).  Its level counts the vertices on the
segment from it to the base point: 0 outside the base disk, 1 at the
base point, and one more than its parent's strictly inside.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from tamedyn.berkovich import BerkPoint, Comparison, compare
from tamedyn.escape import Escaping, Unknown, classify_critical
from tamedyn.polynomial import MarkedPolynomial
from tamedyn.valued_field import Scalar, Val

DEFAULT_DEPTH = 3
DEFAULT_BUDGET = 64

DiskKey = tuple[Fraction, int]  # (radius exponent, least pool index inside)


@dataclass(frozen=True)
class CoreVertex:
    point: BerkPoint
    witnesses: tuple[tuple[int, int], ...]  # (mark index, iterate), sorted
    level: int


@dataclass(frozen=True)
class CoreEdge:
    lower: int  # index of the smaller disk (larger exponent)
    upper: int
    degree: int
    length: Fraction


@dataclass(frozen=True)
class BoundaryMark:
    kind: str  # "to_infinity" | "classical_end" | "trimmed" | "depth_truncated" | "julia_base"
    vertex: int | None
    detail: str = ""


class CoreTree:
    def __init__(self, f, rho, depth, budget, fwd_depth, vertices, edges,
                 dynamics, boundary, warnings, orbit):
        self.f = f
        self.rho = rho  # Fraction or None (= untrimmed)
        self.depth = depth
        self.budget = budget
        self.fwd_depth = fwd_depth
        self.vertices: tuple[CoreVertex, ...] = vertices
        self.edges: tuple[CoreEdge, ...] = edges
        self.dynamics: tuple[int | None, ...] = dynamics  # image vertex of each vertex
        self.boundary: tuple[BoundaryMark, ...] = boundary
        self.warnings: tuple[str, ...] = warnings
        self._orbit = orbit  # (mark, iterate) -> Scalar
        self._index = {(v.point.radius_exp, label): vi
                       for vi, v in enumerate(vertices) for label in v.witnesses}

    @property
    def base_point(self) -> BerkPoint:
        return self.f.base_point()

    def vertex_at(self, radius_exp: Val, label: tuple[int, int]) -> int | None:
        """Index of the vertex of this radius exponent around orbit value `label`."""
        return self._index.get((radius_exp, label))

    def orbit_value(self, mark: int, iterate: int) -> Scalar:
        return self._orbit[(mark, iterate)]

    # -- exports ----------------------------------------------------------

    def to_dict(self) -> dict:
        from tamedyn.serialize import scalar_to_json, val_str

        verts = []
        for v in self.vertices:
            verts.append({
                "center": scalar_to_json(v.point.center),
                "radius_exp": val_str(v.point.radius_exp),
                "level": v.level,
                "witnesses": [[i, n] for i, n in v.witnesses],
            })
        edges = [
            {"lower": e.lower, "upper": e.upper, "degree": e.degree,
             "length": str(e.length)}
            for e in self.edges
        ]
        return {
            "schema": 1,
            "rho": "inf" if self.rho is None else str(self.rho),
            "depth": self.depth,
            "budget": self.budget,
            "fwd_depth": self.fwd_depth,
            "base_radius_exp": str(self.f.base_radius_exp),
            "vertices": verts,
            "edges": edges,
            "dynamics": [d for d in self.dynamics],
            "boundary": [
                {"kind": b.kind, "vertex": b.vertex, "detail": b.detail}
                for b in self.boundary
            ],
            "warnings": list(self.warnings),
        }


def _axis_only_tree(f, rho, depth, budget, warnings) -> CoreTree:
    boundary = (
        BoundaryMark("julia_base", None, "base point bounds the tree from below"),
        BoundaryMark("to_infinity", None, "open axis toward infinity"),
    )
    return CoreTree(f, rho, depth, budget, max(2, depth), (), (), (), boundary,
                    tuple(warnings), {})


def build_core(f: MarkedPolynomial, rho: Fraction | None = None,
               depth: int = DEFAULT_DEPTH, budget: int = DEFAULT_BUDGET) -> CoreTree:
    """Construct the truncated tree; rho = None means untrimmed."""
    f.require_tame()
    base = f.base_radius_exp
    zero = f.backend.zero
    warnings: list[str] = []

    exits: dict[int, int] = {}
    for i, mark in enumerate(f.marks):
        rec = classify_critical(f, mark, budget)
        if isinstance(rec, Escaping):
            exits[i] = rec.first_exit
        elif isinstance(rec, Unknown):
            warnings.append(
                f"mark {i} unresolved within budget; tree is a verified subtree"
            )
    if not exits:
        return _axis_only_tree(f, rho, depth, budget, warnings)

    fwd = max(2, depth)
    orbit: dict[tuple[int, int], Scalar] = {}
    for i, m in exits.items():
        w = f.marks[i].point
        orbit[(i, 0)] = w
        for n in range(1, m + fwd + 1):
            w = f(w)
            orbit[(i, n)] = w
    segs = {key: f.segment_dynamics(w) for key, w in orbit.items()}

    # candidate vertex centers: 0, the materialized orbit values and every
    # critical mark position, each distinct value once; disks and orbit
    # keys refer to them by index, and table[x][y] = v(pool[x] - pool[y])
    # is computed once per pair (infinite on the diagonal only)
    pool: list[Scalar] = [zero]
    slot_of: dict[Scalar, int] = {zero: 0}
    for w in [*orbit.values(), *(mark.point for mark in f.marks)]:
        if w not in slot_of:
            slot_of[w] = len(pool)
            pool.append(w)
    slots = {key: slot_of[w] for key, w in orbit.items()}
    keys_at: list[list[tuple[int, int]]] = [[] for _ in pool]
    for key, s in slots.items():
        keys_at[s].append(key)
    table = [[math.inf] * len(pool) for _ in pool]
    for x in range(len(pool)):
        for y in range(x):
            table[x][y] = table[y][x] = (pool[x] - pool[y]).valuation().finite

    cuts: dict[tuple[int, int], Fraction] = {}
    if rho is not None:
        for (i, n), s in slots.items():
            m = exits[i]
            if n >= m:
                cuts[(i, n)] = table[s][0] + rho
            else:
                t = table[slots[(i, m)]][0] + rho
                for k in range(m - 1, n - 1, -1):
                    t = segs[(i, k)].invert(t)
                cuts[(i, n)] = t

    top_exp = min(table[s][0] for s in slots.values() if s != 0)

    # the disks on the tree -> (center, orbit keys inside, sorted), in the
    # order they were found; each one is also queued once for the closure,
    # with its count of steps below the base
    disks: dict[DiskKey, tuple[int, tuple[tuple[int, int], ...]]] = {}
    pending: list[tuple[DiskKey, int]] = []

    def disk(a: int, q: Fraction, counter: int) -> DiskKey:
        """The key of D(pool[a], q).  A new disk is recorded and queued when
        it is on the tree: q is at least the top exponent, and the disk either
        contains the base disk or an orbit value whose ray is not trimmed at q."""
        row = table[a]
        least = next(b for b, e in enumerate(row) if e >= q)
        key = (q, least)
        if key in disks or q < top_exp:
            return key
        labels = tuple(sorted(k for b in range(least, len(row)) if row[b] >= q
                              for k in keys_at[b]))
        if (q <= base and row[0] >= q) or any(cuts.get(k, math.inf) > q for k in labels):
            if not labels:
                raise AssertionError("vertex without an orbit witness")
            disks[key] = (a, labels)
            pending.append((key, counter))
        return key

    # the base point plus all pairwise joins of the pool
    disk(0, base, 0)
    for a in range(len(pool)):
        for b in range(a + 1, len(pool)):
            disk(a, table[a][b], 0)

    # closure under the exact ray dynamics, forward and backward; backward
    # steps inside the base disk are counted against `depth`.  The forward
    # step goes along the first label with a materialized successor, and
    # its image disk is the vertex's recorded image.
    images: dict[DiskKey, DiskKey | None] = {}
    guard = 0
    while pending:
        guard += 1
        if guard > 100_000:
            raise AssertionError("tree closure failed to stabilize")
        key, counter = pending.pop()
        q, labels = key[0], disks[key][1]
        images[key] = None
        for i, n in labels:
            succ = slots.get((i, n + 1))
            if succ is not None:
                q_img = segs[(i, n)].image_exp(q)
                if q_img >= top_exp:
                    images[key] = disk(succ, q_img, 0)
                break
        # preimages on every materialized ray
        for j, n in labels:
            if n > 0:
                s = slots[(j, n - 1)]
                q_pre = segs[(j, n - 1)].invert(q)
                below_base = min(table[s][0], q_pre) >= base
                new_counter = counter + (1 if below_base else 0)
                if new_counter <= depth + 1:
                    disk(s, q_pre, new_counter)

    # parents: the closest strict ancestor of a disk is the first of the
    # larger disks, from the smallest up, that contains it
    pts = {key: BerkPoint(pool[a], Val(key[0])) for key, (a, _) in disks.items()}
    by_radius = sorted(disks, key=lambda key: key[0])
    parent: dict[DiskKey, DiskKey | None] = {}
    level: dict[DiskKey, int] = {}
    for pos, key in enumerate(by_radius):
        q = key[0]
        parent[key] = next((u for u in reversed(by_radius[:pos])
                            if u[0] < q and compare(pts[key], pts[u]) is Comparison.LESS), None)
        if min(table[disks[key][0]][0], q) < base:  # level 0 outside the base disk
            level[key] = 0
        else:
            level[key] = 1 if q == base else 1 + level[parent[key]]

    # ancestors have no higher level, so the kept disks keep their parents
    depth_truncated = any(lv > depth for lv in level.values())
    order = sorted((key for key in disks if level[key] <= depth),
                   key=lambda key: (key[0], disks[key][1][0]))
    vertex_of = {key: vi for vi, key in enumerate(order)}
    vertices = tuple(CoreVertex(pts[key], disks[key][1], level[key]) for key in order)
    parents = [None if parent[key] is None else vertex_of[parent[key]] for key in order]
    dynamics = []
    for key in order:
        if images[key] is not None and images[key] not in vertex_of:
            raise AssertionError("image of a vertex is missing from the tree")
        dynamics.append(None if images[key] is None else vertex_of[images[key]])

    # edges: each vertex to its parent
    edges = []
    for vi, pi in enumerate(parents):
        if pi is None:
            continue
        v, u = vertices[vi], vertices[pi]
        length = v.point.radius_exp.finite - u.point.radius_exp.finite
        mid = (v.point.radius_exp.finite + u.point.radius_exp.finite) / 2
        degree = f.local_degree_rh(BerkPoint(v.point.center, Val(mid)))
        edges.append(CoreEdge(vi, pi, degree, length))

    # boundary markers
    boundary = []
    roots = [vi for vi, pi in enumerate(parents) if pi is None]
    if roots:
        boundary.append(BoundaryMark("to_infinity", roots[0], "axis continues upward"))
    children = {pi for pi in parents if pi is not None}
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
                boundary.append(BoundaryMark("trimmed", vi, f"ray ({i},{n}) cut at {key_cut}"))
            else:
                boundary.append(BoundaryMark("classical_end", vi, f"orbit value ({i},{n})"))
    if depth_truncated:
        warnings.append(f"vertices beyond level {depth} were pruned")

    return CoreTree(f, rho, depth, budget, fwd, vertices, tuple(edges), tuple(dynamics),
                    tuple(boundary), tuple(warnings), orbit)


def export_core(tree: CoreTree) -> str:
    return json.dumps(tree.to_dict(), indent=2, sort_keys=True) + "\n"
