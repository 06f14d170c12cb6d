"""Candidate conjugacies between two trees and the extendability checks.

A tree vertex is fixed by its key, (radius exponent q, witnesses): the
witnesses are the orbit labels (mark index, iterate) whose values lie in
the disk.  The map sends the source vertex of exponent q around
f^n(c_i(f)) to the target vertex of exponent q around g^n(c_i(g)).  It is
well defined exactly when that vertex exists and has the same witnesses,
and it is then a bijection of keys; any violation is returned as a
minimal witness (the two labels, their exponent, the level).  The
bijection is the identity on positions: ``build_core`` lists vertices in
strictly increasing (exponent, first witness) order, which a key fixes, so
the clauses read the two trees position by position.

``verify_extendable`` takes ``build_conjugacy``'s output and checks four
clauses on the truncations.  (i) Isometry: one disk contains another
exactly when its exponent is not larger and they share a witness, so a
key bijection sends each vertex's closest strict ancestor to its image's
(a target vertex strictly between the images would be the image of a
source vertex strictly between the originals).  Every source edge is thus
a target edge of the same length, and only local degrees are compared.
(ii) Equivariance of the recorded dynamics.  (iii) Locally a translation:
every witness of a vertex (its children's are among them) is moved into
the correct direction by the single translation z + b_x, b_x the move
g^n(c) - f^n(c) of its first witness: v(move(label) - move(first)) > q,
exact over PAdic and over SeriesT (truncation at the cutoff is linear).
Each pair's gap is computed once, for every vertex it meets.  (iv)
Agreement with the coordinate change at infinity on the outermost axis
vertices, at the working precision (values the closeness check kept).
Each clause passes when it has nothing to check: two maps with no
escaping mark have empty trees, and their basins {|z| > base} are
conjugate by the coordinates at infinity alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from tamedyn.boettcher import RhoBound, phi_eval, rho_closeness
from tamedyn.core import DEFAULT_DEPTH, CoreTree, CoreVertex, build_core, check_depth, check_rho
from tamedyn.errors import NotComparable, WellDefinednessFailure
from tamedyn.polynomial import MarkedPolynomial

PRECISION = Fraction(30)  # working precision of the coordinates at infinity


@dataclass(frozen=True)
class ClauseResult:
    status: str  # "pass" | "fail"
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
        return {**asdict(self), "overall": "Pass" if self.overall else "Fail"}


@dataclass
class ConjugacyMap:
    """The two trees; ``vertex_map`` is {i: i}, as trees with equal keys list them alike."""
    source: CoreTree
    target: CoreTree
    vertex_map: dict[int, int]
    rho_bound: RhoBound


def build_conjugacy(f: MarkedPolynomial, g: MarkedPolynomial, rho: Fraction | None,
                    depth: int = DEFAULT_DEPTH) -> ConjugacyMap:
    """Construct the key map between the two trimmed trees.

    Precondition: rho is None or positive, and the coordinates are
    rho-close (both checked first); raises NotComparable otherwise,
    WellDefinednessFailure when label coincidences fail to transfer at
    this closeness.  A rho that is not None, an int or a Fraction, or a
    depth that is not an int >= 0, raises TypeError or ValueError, as in
    `build_core`, before any orbit work.
    """
    check_rho(rho)
    check_depth(depth)
    if rho is not None and rho <= 0:
        raise NotComparable("rho must be positive")
    bound = rho_closeness(f, g, precision=PRECISION)
    if rho is not None and bound.rho_exp < rho:
        raise NotComparable(
            f"coordinates are only {bound.rho_exp}-close, below required {rho}"
        )
    source = build_core(f, rho=rho, depth=depth)
    target = build_core(g, rho=rho, depth=depth)

    keys = {(tv.exponent, tv.witnesses) for tv in target.vertices}
    for si, sv in enumerate(source.vertices):
        if (sv.exponent, sv.witnesses) not in keys:
            raise _transport_failure(si, sv, target)
    if len(source.vertices) != len(target.vertices):
        raise WellDefinednessFailure("target tree has vertices with no source counterpart")
    return ConjugacyMap(source, target, {i: i for i in range(len(source.vertices))}, bound)


def _transport_failure(si: int, sv: CoreVertex, target: CoreTree) -> WellDefinednessFailure:
    """Why source vertex si has no target vertex with its key: a label leaves
    the target disk of the first, there is no such disk, or they differ."""
    q, first = sv.exponent, sv.witnesses[0]
    t_first = target.orbit_value(*first)
    for other in sv.witnesses[1:]:
        if (target.orbit_value(*other) - t_first).valuation() < q:
            return WellDefinednessFailure(
                f"labels {first} and {other} coincide on the source at "
                f"exponent {q} but separate on the target",
                witness_a=first, witness_b=other, level=sv.level,
            )
    tv = next((tv for tv in target.vertices if tv.exponent == q and first in tv.witnesses), None)
    if tv is None:
        return WellDefinednessFailure(
            f"image of source vertex {si} (label {first}, exponent {q}) "
            "is not a target vertex",
            witness_a=first, level=sv.level,
        )
    pick = min(set(tv.witnesses) ^ set(sv.witnesses))
    return WellDefinednessFailure(
        f"label {pick} separates on one side only at exponent {q}",
        witness_a=first, witness_b=pick, level=sv.level,
    )


def verify_extendable(h: ConjugacyMap) -> VerificationReport:
    """Check the four extendability clauses on the truncations of a map
    made by ``build_conjugacy``."""
    src, tgt = h.source, h.target

    # (i) each source edge is a target edge of the same length (module
    # docstring), at the same position, so only the local degrees can differ
    isometry = _first_failure(
        f"edge {e.lower}->{e.upper}: degree {e.degree} vs {te.degree}"
        for e, te in zip(src.edges, tgt.edges, strict=True) if te.degree != e.degree)

    # (ii) equivariance of the recorded dynamics
    def equivariance_failures():
        for si, (ds, dt) in enumerate(zip(src.dynamics, tgt.dynamics, strict=True)):
            if (ds is None) != (dt is None):
                yield f"vertex {si}: dynamics truncation mismatch"
            elif ds != dt:
                yield f"vertex {si}: map(f(v)) = {ds} but g(map(v)) = {dt}"
    equivariance = _first_failure(equivariance_failures())

    # (iii) locally a translation: every witness of the vertex is moved
    # strictly inside its direction by the vertex's own shift, the move of
    # its first witness; each move and each (first, label) gap is computed once
    moved = {label: tgt.orbit_value(*label) - src.orbit_value(*label)
             for label in {w for sv in src.vertices for w in sv.witnesses}}
    gaps: dict = {}  # (first, label) -> v(moved[label] - moved[first])

    def translation_failures():
        for si, sv in enumerate(src.vertices):
            q, first = sv.exponent, sv.witnesses[0]
            for label in sv.witnesses[1:]:
                if (first, label) not in gaps:
                    gaps[first, label] = (moved[label] - moved[first]).valuation()
                if not gaps[first, label] > q:
                    yield (f"vertex {si}: witness {label} leaves its direction"
                           " under the translation")
    local = _first_failure(translation_failures())

    # (iv) coordinate agreement near infinity at the first two axis vertices
    # (one per exponent, so the outermost), at a witness whose orbit value
    # escaped the base disk, so that the coordinate is defined at it; it passes
    # when there is none, as clauses (i)-(iii) pass on empty trees
    def boettcher_failures():
        base = src.f.base_radius_exp
        axis = [(sv.exponent, si) for si, sv in enumerate(src.vertices)
                if sv.level == 0 and sv.center.valuation() >= sv.exponent]
        for q, si in axis[:2]:
            label = next((cand for cand in src.vertices[si].witnesses
                          if src.orbit_value(*cand).valuation() < base), None)
            if label is None:
                continue
            pf = phi_eval(src.f, src.orbit_value(*label), PRECISION)
            pg = phi_eval(tgt.f, tgt.orbit_value(*label), PRECISION)
            if not (pf - pg).valuation() >= q:
                yield f"axis vertex {si}: transported coordinate differs at exponent {q}"
    boettcher = _first_failure(boettcher_failures())

    return VerificationReport(isometry, equivariance, local, boettcher)


def _first_failure(witnesses) -> ClauseResult:
    """Fail with the first witness text the generator yields; pass when it yields none."""
    witness = next(witnesses, None)
    return ClauseResult("pass") if witness is None else ClauseResult("fail", witness)
