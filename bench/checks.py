"""Untimed invariant checks on every core tree a job produces.

* Each edge's degree (Riemann-Hurwitz count at the edge midpoint, as
  ``build_core`` records it) equals the degree from Taylor data
  (``image_point``) at the same point.
* The image of each edge has length degree x length.
* The recorded dynamics maps each vertex to the vertex at its image, and
  maps ancestors to ancestors.
"""

from __future__ import annotations

from tamedyn import berkovich
from tamedyn.berkovich import BerkPoint, Comparison
from tamedyn.valued_field import Val


def tree_violations(tree) -> list[str]:
    """Descriptions of the invariants the tree breaks; empty when it is sound."""
    f = tree.f
    verts = tree.vertices
    out = []
    for e in tree.edges:
        lo, up = verts[e.lower].point, verts[e.upper].point
        mid = (lo.radius_exp.finite + up.radius_exp.finite) / 2
        _, taylor_degree = f.image_point(BerkPoint(lo.center, Val(mid)))
        if taylor_degree != e.degree:
            out.append(f"edge {e.lower}->{e.upper}: Riemann-Hurwitz degree {e.degree}"
                       f" but Taylor degree {taylor_degree}")
        img_lo, _ = f.image_point(lo)
        img_up, _ = f.image_point(up)
        img_len = berkovich.hyp_dist(img_lo, img_up)
        if img_len != e.degree * e.length:
            out.append(f"edge {e.lower}->{e.upper}: image length {img_len}"
                       f" is not {e.degree} x {e.length}")
    for i, target in enumerate(tree.dynamics):
        if target is not None and f.image_point(verts[i].point)[0] != verts[target].point:
            out.append(f"vertex {i}: recorded image {target} is not its image point")
    for e in tree.edges:
        dv, du = tree.dynamics[e.lower], tree.dynamics[e.upper]
        if dv is None or du is None:
            continue
        if berkovich.compare(verts[dv].point, verts[du].point) not in (
                Comparison.LESS, Comparison.EQUAL):
            out.append(f"edge {e.lower}->{e.upper}: images {dv}, {du} are not nested")
    return out
