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
of these under the exact ray dynamics.  Each vertex carries orbit
witnesses (mark index, iterate): the vertex is the disk of its radius
exponent around that orbit value.  Two disks of one radius are equal
exactly when they share a witness, so a vertex is looked up by its
radius exponent and any one of its labels.

Each vertex's parent is its closest strict ancestor, the upper end of
its edge.  Its level counts the vertices on the segment from it to the
base point: 0 outside the base disk, 1 at the base point, and one more
than its parent's strictly inside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from tamedyn.berkovich import BerkPoint, Comparison, compare
from tamedyn.escape import Escaping, Unknown, classify_critical
from tamedyn.polynomial import MarkedPolynomial
from tamedyn.valued_field import INF, Scalar, Val

DEFAULT_DEPTH = 3
DEFAULT_BUDGET = 64


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
                 boundary, warnings, orbit):
        self.f = f
        self.rho = rho  # Fraction or None (= untrimmed)
        self.depth = depth
        self.budget = budget
        self.fwd_depth = fwd_depth
        self.vertices: tuple[CoreVertex, ...] = vertices
        self.edges: tuple[CoreEdge, ...] = edges
        self.dynamics: tuple[int | None, ...] = ()  # set once vertices can be looked up
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
    return CoreTree(f, rho, depth, budget, max(2, depth), (), (), boundary,
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
    # critical mark position, each distinct value once; points and orbit
    # keys refer to them by index, so that each valuation v(x - y) between
    # two of them is computed at most once
    pool: list[Scalar] = [zero]
    slot_of: dict[Scalar, int] = {zero: 0}
    for w in [*orbit.values(), *(mark.point for mark in f.marks)]:
        if w not in slot_of:
            slot_of[w] = len(pool)
            pool.append(w)
    slots = {key: slot_of[w] for key, w in orbit.items()}
    dists: dict[tuple[int, int], Val] = {}

    def dist(x: int, y: int) -> Val:
        """v(pool[x] - pool[y]); dist(x, 0) is v(pool[x])."""
        if x == y:
            return INF
        key = (x, y) if x < y else (y, x)
        e = dists.get(key)
        if e is None:
            e = dists[key] = (pool[key[1]] - pool[key[0]]).valuation()
        return e

    cuts: dict[tuple[int, int], Fraction] = {}
    if rho is not None:
        for (i, n), s in slots.items():
            m = exits[i]
            if n >= m:
                cuts[(i, n)] = dist(s, 0).finite + rho
            else:
                t = dist(slots[(i, m)], 0).finite + rho
                for k in range(m - 1, n - 1, -1):
                    t = segs[(i, k)].invert(t)
                cuts[(i, n)] = t

    top_exp = min(dist(s, 0).finite for s in slots.values() if s != 0)

    def on_tree(a: int, q: Fraction) -> bool:
        if q < top_exp:
            return False
        vq = Val(q)
        if q <= base and dist(a, 0) >= vq:
            return True
        for key, s in slots.items():
            if dist(s, a) >= vq:
                cut = cuts.get(key)
                if cut is None or q < cut:
                    return True
        return False

    points: list[tuple[int, Fraction]] = []

    def add_point(a: int, q: Fraction) -> bool:
        if not on_tree(a, q):
            return False
        vq = Val(q)
        for b, r in points:
            if r == q and dist(a, b) >= vq:
                return False
        points.append((a, q))
        return True

    # the base point plus all pairwise joins of the pool
    add_point(0, base)
    for a in range(len(pool)):
        for b in range(a + 1, len(pool)):
            add_point(a, dist(a, b).finite)

    # closure under the exact ray dynamics, forward and backward;
    # backward steps inside the base disk are counted against `depth`
    vbase = Val(base)
    pending = [(a, q, 0) for a, q in points]
    guard = 0
    while pending:
        guard += 1
        if guard > 100_000:
            raise AssertionError("tree closure failed to stabilize")
        a, q, counter = pending.pop()
        vq = Val(q)
        # forward step along any witness with a materialized successor
        for (i, n), s in slots.items():
            if dist(s, a) >= vq and (i, n + 1) in slots:
                q_img = segs[(i, n)].image_exp(q)
                a_img = slots[(i, n + 1)]
                if q_img >= top_exp and add_point(a_img, q_img):
                    pending.append((a_img, q_img, 0))
                break
        # backward steps: preimages on every materialized ray
        for (j, k), s in slots.items():
            succ = slots.get((j, k + 1))
            if succ is not None and dist(succ, a) >= vq:
                q_pre = segs[(j, k)].invert(q)
                below_base = min(dist(s, 0), Val(q_pre)) >= vbase
                new_counter = counter + (1 if below_base else 0)
                if new_counter <= depth + 1 and add_point(s, q_pre):
                    pending.append((s, q_pre, new_counter))

    # witnesses and levels
    witnesses: list[tuple[tuple[int, int], ...]] = []
    for a, q in points:
        vq = Val(q)
        wits = tuple(sorted(key for key, s in slots.items() if dist(s, a) >= vq))
        if not wits:
            raise AssertionError("vertex without an orbit witness")
        witnesses.append(wits)

    # parents: the closest strict ancestor of a point is the first of the
    # larger disks, from the smallest up, that contains it
    pts = [BerkPoint(pool[a], Val(q)) for a, q in points]
    by_radius = sorted(range(len(points)), key=lambda i: points[i][1])
    parent: list[int | None] = [None] * len(points)
    levels = [0] * len(points)
    for pos, idx in enumerate(by_radius):
        a, q = points[idx]
        for u in reversed(by_radius[:pos]):
            if points[u][1] < q and compare(pts[idx], pts[u]) is Comparison.LESS:
                parent[idx] = u
                break
        if min(dist(a, 0), Val(q)) >= vbase:  # level 0 outside the base disk
            levels[idx] = 1 if q == base else 1 + levels[parent[idx]]

    # ancestors have no higher level, so the kept points keep their parents
    depth_truncated = any(lv > depth for lv in levels)
    keep = [i for i, lv in enumerate(levels) if lv <= depth]
    order = sorted(
        keep,
        key=lambda i: (points[i][1], witnesses[i][0]),
    )
    vertices = tuple(
        CoreVertex(pts[i], witnesses[i], levels[i]) for i in order
    )
    vertex_of = {i: vi for vi, i in enumerate(order)}
    parents = [None if parent[i] is None else vertex_of[parent[i]] for i in order]

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

    tree = CoreTree(f, rho, depth, budget, fwd, vertices, tuple(edges),
                    tuple(boundary), tuple(warnings), orbit)

    # dynamics: image through any witness with materialized successor
    dynamics: list[int | None] = []
    for v in vertices:
        target = None
        for i, n in v.witnesses:
            if (i, n + 1) in orbit:
                q_img = segs[(i, n)].image_exp(v.point.radius_exp.finite)
                if q_img >= top_exp:
                    target = tree.vertex_at(Val(q_img), (i, n + 1))
                    if target is None:
                        raise AssertionError(
                            "image of a vertex is missing from the tree"
                        )
                break
        dynamics.append(target)
    tree.dynamics = tuple(dynamics)
    return tree


def export_core(tree: CoreTree) -> str:
    return json.dumps(tree.to_dict(), indent=2, sort_keys=True) + "\n"
