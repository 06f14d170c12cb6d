"""A definition-level builder of the core tree, the tests' oracle for ``build_core``.

It follows the definition in the ``tamedyn.core`` docstring and shares none
of ``build_core``'s kernels: no valuation table, no ray maps from
``segment_dynamics``, no disk keys.  A disk is a (center, exponent) pair and
containment is read from ``(a - b).valuation()`` on ``Scalar``s.  Forward
images come from ``image_point``, and the preimage of a disk along a ray
from the Newton polygon of ``taylor_at`` at the ray's orbit value.

The tree is the base point and every pairwise join of the pool {0, orbit
values, marks}, closed under forward images (along rays with a materialized
successor) and preimages along every materialized ray, with no count of
steps.  A disk is on the tree when its exponent is at least the least
valuation of a nonzero orbit value and it contains the base disk or an orbit
value whose ray is not cut at its exponent.  Parents and levels are read off
containment, and the vertices of level above the depth are dropped.

    oracle = oracle_tree(f, rho, depth)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from tamedyn.berkovich import BerkPoint
from tamedyn.escape import Escaping, classify_critical

Disk = tuple  # (center Scalar, exponent)


@dataclass
class OracleTree:
    vertices: list  # (center, exponent, witnesses, level), in the order found
    parents: list  # index of the closest strict ancestor, or None
    degrees: list  # Riemann-Hurwitz degree of the edge to the parent, or None
    dynamics: list  # index of the image vertex, or None
    boundary: list  # sorted (kind, vertex index or None)


def _inside(x: Disk, y: Disk) -> bool:
    """Whether the disk x lies in the disk y."""
    return x[1] >= y[1] and (x[0] - y[0]).valuation() >= y[1]


def _pullback(f, c, t):
    """The exponent q with f(D(c, q)) = D(f(c), t): the Newton polygon of
    f(c + z) - f(c) = sum f_k z^k takes the value t where its lowest line does,
    at q = max_k (t - v(f_k)) / k."""
    taylor = f.taylor_at(c)
    return max(Fraction(t - taylor[k].valuation(), k)
               for k in range(1, len(taylor)) if not taylor[k].is_zero)


def oracle_tree(f, rho, depth) -> OracleTree:
    records = [classify_critical(f, mark) for mark in f.marks]
    exits = {i: rec.first_exit for i, rec in enumerate(records) if isinstance(rec, Escaping)}
    if not exits:
        return OracleTree([], [], [], [], sorted([("julia_base", None), ("to_infinity", None)]))
    fwd = max(2, depth)
    base = f.base_radius_exp
    zero = f.backend.zero
    orbit = {(i, n): w for i, m in exits.items()
             for n, w in enumerate(f.orbit(f.marks[i], m + fwd)[:m + fwd + 1])}
    pool = list(dict.fromkeys([zero, *orbit.values(), *(m.point for m in f.marks)]))
    top = min(w.valuation() for w in orbit.values() if not w.is_zero)

    # a ray is cut where its image at the first exit m leaves the
    # rho-neighbourhood of the axis: at v(w) + rho from m on, pulled back before m
    cut = {}
    if rho is not None:
        for i, m in exits.items():
            for n in range(m + fwd, -1, -1):
                cut[(i, n)] = (orbit[(i, n)].valuation() + rho if n >= m
                               else _pullback(f, orbit[(i, n)], cut[(i, n + 1)]))

    found: list[tuple] = []  # (disk, witnesses)
    queue: list[int] = []

    def add(disk: Disk) -> int | None:
        """Index of the disk among those found, adding it when it is on the tree."""
        c, q = disk
        for k, (other, _) in enumerate(found):
            if other[1] == q and _inside(disk, other):
                return k
        witnesses = tuple(sorted(key for key, w in orbit.items() if (w - c).valuation() >= q))
        if q < top or not ((q <= base and c.valuation() >= q)
                           or any(cut.get(key, math.inf) > q for key in witnesses)):
            return None
        assert witnesses, "vertex without an orbit witness"
        found.append((disk, witnesses))
        queue.append(len(found) - 1)
        return len(found) - 1

    add((zero, base))
    for a, x in enumerate(pool):
        for y in pool[a + 1:]:
            add((x, (x - y).valuation()))

    images: dict[int, Disk] = {}
    steps = 0
    while queue:
        steps += 1
        assert steps < 100_000, "oracle closure failed to stabilize"
        k = queue.pop()
        (c, q), witnesses = found[k]
        if any(n < exits[i] + fwd for i, n in witnesses):
            image, _ = f.image_point(BerkPoint(c, q))
            if image.radius_exp.finite >= top:
                images[k] = (image.center, image.radius_exp.finite)
                add(images[k])
        for j, n in witnesses:
            if n > 0:
                w = orbit[(j, n - 1)]
                add((w, _pullback(f, w, q)))

    disks = [d for d, _ in found]
    base_disk = (zero, base)

    def level(x: Disk) -> int:
        if not _inside(x, base_disk):
            return 0
        return sum(1 for y in disks if _inside(x, y) and _inside(y, base_disk))

    levels = [level(x) for x in disks]
    kept = [k for k in range(len(disks)) if levels[k] <= depth]
    number = {k: vi for vi, k in enumerate(kept)}
    vertices, parents, degrees, dynamics = [], [], [], []
    for k in kept:
        (c, q), witnesses = found[k]
        vertices.append((c, q, witnesses, levels[k]))
        ancestors = [u for u in kept if u != k and _inside(disks[k], disks[u])]
        parent = max(ancestors, key=lambda u: disks[u][1], default=None)
        parents.append(None if parent is None else number[parent])
        if parent is None:
            degrees.append(None)
        else:
            mid = Fraction(q + disks[parent][1], 2)
            degrees.append(1 + sum(m.multiplicity - 1 for m in f.marks
                                   if (m.point - c).valuation() >= mid))
        image = images.get(k)
        dynamics.append(None if image is None else next(
            (number[u] for u in kept if disks[u][1] == image[1] and _inside(image, disks[u])),
            "missing"))

    truncated = len(kept) < len(disks)
    boundary = [("to_infinity", parents.index(None))]
    for vi, (_, _, _, lv) in enumerate(vertices):
        if vi in parents:
            continue
        if lv > 0:
            kind = "depth_truncated" if truncated or lv == depth else "classical_end"
        else:
            kind = "classical_end" if rho is None else "trimmed"
        boundary.append((kind, vi))
    return OracleTree(vertices, parents, degrees, dynamics, sorted(boundary))
