"""Candidate conjugacies between two trees and the extendability checks.

The map is built on orbit labels: the source vertex that is the disk of
exponent q around f^n(c_i(f)) goes to the disk of exponent q around
g^n(c_i(g)).  Well-definedness is exactly label-coincidence transfer:
whenever two labels denote the same source vertex they must denote the
same target vertex, and conversely; any violation is returned as a
minimal witness (the two labels, their exponent, the level).

Verification on the truncation checks four clauses: exact edge isometry
(with matching local degrees), equivariance of the recorded dynamics,
the locally-a-translation property (every witness of the vertex and its
children is moved into the correct direction by the single translation
z + b_x, an exact strict-valuation check), and agreement with the
coordinate change at infinity on the outermost axis vertices, at the
working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tamedyn.berkovich import BerkPoint
from tamedyn.boettcher import RhoBound, phi_eval, rho_closeness
from tamedyn.core import CoreTree, build_core
from tamedyn.errors import NotComparable, WellDefinednessFailure
from tamedyn.polynomial import MarkedPolynomial
from tamedyn.valued_field import Scalar, Val

PRECISION = Fraction(30)  # working precision of the coordinates at infinity


@dataclass(frozen=True)
class ClauseResult:
    status: str  # "pass" | "fail" | "skipped"
    witness: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class VerificationReport:
    isometry: ClauseResult
    equivariance: ClauseResult
    local_translation: ClauseResult
    boettcher_at_infinity: ClauseResult

    @property
    def overall(self) -> bool:
        return all(
            c.passed
            for c in (self.isometry, self.equivariance, self.local_translation,
                      self.boettcher_at_infinity)
        )

    def to_dict(self) -> dict:
        def enc(c: ClauseResult) -> dict:
            return {"status": c.status, "witness": c.witness}

        return {
            "isometry": enc(self.isometry),
            "equivariance": enc(self.equivariance),
            "local_translation": enc(self.local_translation),
            "boettcher_at_infinity": enc(self.boettcher_at_infinity),
            "overall": "Pass" if self.overall else "Fail",
        }


@dataclass
class ConjugacyMap:
    source: CoreTree
    target: CoreTree
    vertex_map: dict[int, int]
    translations: dict[int, Scalar]
    rho_bound: RhoBound


def build_conjugacy(f: MarkedPolynomial, g: MarkedPolynomial, rho: Fraction | None,
                    depth: int = 4) -> ConjugacyMap:
    """Construct the label-transport map between the two trimmed trees.

    Precondition: rho is None or positive, and the coordinates are
    rho-close (both checked first); raises NotComparable otherwise,
    WellDefinednessFailure when label coincidences fail to transfer at
    this closeness.
    """
    if rho is not None and rho <= 0:
        raise NotComparable("rho must be positive")
    bound = rho_closeness(f, g, precision=PRECISION)
    if rho is not None and not bound.is_infinite and bound.rho_exp < Val(rho):
        raise NotComparable(
            f"coordinates are only {bound.rho_exp}-close, below required {rho}"
        )
    source = build_core(f, rho=rho, depth=depth)
    target = build_core(g, rho=rho, depth=depth)

    vertex_map: dict[int, int] = {}
    translations: dict[int, Scalar] = {}
    used: set[int] = set()
    for si, sv in enumerate(source.vertices):
        q = sv.point.radius_exp
        first = sv.witnesses[0]
        t_point = BerkPoint(target.orbit_value(*first), q)
        for other in sv.witnesses[1:]:
            candidate = BerkPoint(target.orbit_value(*other), q)
            if candidate != t_point:
                raise WellDefinednessFailure(
                    f"labels {first} and {other} coincide on the source at "
                    f"exponent {q} but separate on the target",
                    witness_a=first, witness_b=other, level=sv.level,
                )
        ti = target.vertex_at(q, first)
        if ti is None:
            raise WellDefinednessFailure(
                f"image of source vertex {si} (label {first}, exponent {q}) "
                "is not a target vertex",
                witness_a=first, level=sv.level,
            )
        tv = target.vertices[ti]
        if tv.witnesses != sv.witnesses:
            extra = set(tv.witnesses) ^ set(sv.witnesses)
            pick = sorted(extra)[0]
            raise WellDefinednessFailure(
                f"label {pick} separates on one side only at exponent {q}",
                witness_a=first, witness_b=pick, level=sv.level,
            )
        if ti in used:
            raise WellDefinednessFailure(
                f"two source vertices map to target vertex {ti}",
                witness_a=first, level=sv.level,
            )
        used.add(ti)
        vertex_map[si] = ti
        translations[si] = target.orbit_value(*first) - source.orbit_value(*first)
    if len(used) != len(target.vertices):
        raise WellDefinednessFailure(
            "target tree has vertices with no source counterpart",
        )
    return ConjugacyMap(source, target, vertex_map, translations, bound)


def verify_extendable(h: ConjugacyMap) -> VerificationReport:
    """Check the four extendability clauses on the truncations."""
    src, tgt = h.source, h.target
    fmap = h.vertex_map

    # (i) exact isometry with matching local degrees on edges
    isometry = ClauseResult("pass")
    tgt_edges = {(e.lower, e.upper): e for e in tgt.edges}
    for e in src.edges:
        key = (fmap.get(e.lower), fmap.get(e.upper))
        te = tgt_edges.get(key)
        if te is None:
            isometry = ClauseResult(
                "fail", f"source edge {e.lower}->{e.upper} has no target edge {key}"
            )
            break
        if te.length != e.length:
            isometry = ClauseResult(
                "fail",
                f"edge {e.lower}->{e.upper}: length {e.length} vs {te.length}",
            )
            break
        if te.degree != e.degree:
            isometry = ClauseResult(
                "fail",
                f"edge {e.lower}->{e.upper}: degree {e.degree} vs {te.degree}",
            )
            break

    # (ii) equivariance of the recorded dynamics
    equivariance = ClauseResult("pass")
    for si, ti in fmap.items():
        ds = src.dynamics[si]
        dt = tgt.dynamics[ti]
        if (ds is None) != (dt is None):
            equivariance = ClauseResult(
                "fail", f"vertex {si}: dynamics truncation mismatch"
            )
            break
        if ds is not None and fmap.get(ds) != dt:
            equivariance = ClauseResult(
                "fail",
                f"vertex {si}: map(f(v)) = {fmap.get(ds)} but g(map(v)) = {dt}",
            )
            break

    # (iii) locally a translation: all witnesses of the vertex and of its
    # children are transported strictly inside their directions
    local = ClauseResult("pass")
    children: dict[int, list[int]] = {si: [] for si in fmap}
    for e in src.edges:
        children.setdefault(e.upper, []).append(e.lower)
    done = False
    for si, ti in fmap.items():
        if done:
            break
        sv = src.vertices[si]
        q = sv.point.radius_exp
        shift = h.translations[si]
        wit_pool = list(sv.witnesses)
        for child in children.get(si, ()):
            wit_pool.extend(src.vertices[child].witnesses)
        for label in wit_pool:
            wf = src.orbit_value(*label)
            wg = tgt.orbit_value(*label)
            if not ((wg - (wf + shift)).valuation() > q):
                local = ClauseResult(
                    "fail",
                    f"vertex {si}: witness {label} leaves its direction under "
                    f"the translation",
                )
                done = True
                break

    # (iv) coordinate agreement near infinity at the outermost axis vertices
    boettcher = ClauseResult("skipped", "no axis vertices")
    axis = [
        (sv.point.radius_exp.finite, si)
        for si, sv in enumerate(src.vertices)
        if sv.level == 0 and sv.point.center.valuation() >= sv.point.radius_exp
    ]
    axis.sort()
    checked = []
    base = Val(src.f.base_radius_exp)
    for q, si in axis[:2]:
        # need a witness whose orbit value escaped the base disk, so that
        # the coordinate is defined at it
        label = None
        for cand in src.vertices[si].witnesses:
            if src.orbit_value(*cand).valuation() < base:
                label = cand
                break
        if label is None:
            continue
        wf = src.orbit_value(*label)
        wg = tgt.orbit_value(*label)
        pf = phi_eval(src.f, wf, PRECISION)
        pg = phi_eval(tgt.f, wg, PRECISION)
        if not ((pf - pg).valuation() >= Val(q)):
            boettcher = ClauseResult(
                "fail",
                f"axis vertex {si}: transported coordinate differs at exponent {q}",
            )
            break
        checked.append(si)
    else:
        if checked:
            boettcher = ClauseResult("pass")

    return VerificationReport(isometry, equivariance, local, boettcher)
