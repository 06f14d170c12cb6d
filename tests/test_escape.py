from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamedyn import boettcher, escape
from tamedyn.boettcher import rho_closeness
from tamedyn.conjugacy import build_conjugacy
from tamedyn.core import build_core
from tamedyn.escape import (
    Bounded,
    Classification,
    Escaping,
    Unknown,
    classification_report,
    classify_critical,
    iterate_pl_to_limit,
)
from tamedyn.polynomial import CriticalMark, MarkedPolynomial, PiecewiseMonomial
from tamedyn.serialize import polynomial_from_json
from tamedyn.valued_field import PAdic, SeriesT

Q3 = PAdic(3)


def F(*args):
    return Fraction(*args)


def quad(b_num, b_den=1, backend=Q3):
    return MarkedPolynomial.from_critical_data(
        [(backend.scalar(0), 2)], backend.scalar(F(b_num, b_den))
    )


def julia_cubic():
    """z^3 - 3t^-2 z + (2t^-3 - 2t^-1) over SeriesT.

    The critical point 1/t maps onto the repelling fixed point -2/t, so
    its filled-Julia component is a single point; the critical point
    -1/t escapes at the first step.
    """
    qt = SeriesT(precision=16)
    c1 = qt.scalar(terms=[(-1, 1)])
    c2 = qt.scalar(terms=[(-1, -1)])
    b = qt.scalar(terms=[(-3, 2), (-1, -2)])
    return MarkedPolynomial.from_critical_data([(c1, 2), (c2, 2)], b)


class TestClassifyCritical:
    def test_escaping(self):
        f = quad(-1, 3)
        rec = classify_critical(f, f.marks[0])
        # |f(0)| = 3 > R_f = 3^(1/2)
        assert rec == Escaping(1)

    def test_fixed_superattracting(self):
        f = quad(0)
        rec = classify_critical(f, f.marks[0])
        assert isinstance(rec, Bounded)
        assert rec.kind == "disk"
        assert rec.diam_exp == 0

    def test_two_cycle(self):
        f = quad(-1)
        rec = classify_critical(f, f.marks[0])
        assert rec == Bounded("disk", diam_exp=F(0), preperiod=0, period=2)

    def test_strict_subdisk_component(self):
        # z^4 - (2/9)z^2: the component of the fixed critical point 0 is
        # D(0, 3^-2): preimage exponents 1/2, 5/4, 13/8, ... -> 2
        f = MarkedPolynomial.from_critical_data(
            [
                (Q3.scalar(0), 2),
                (Q3.scalar(F(1, 3)), 2),
                (Q3.scalar(F(-1, 3)), 2),
            ],
            Q3.scalar(0),
        )
        rec = classify_critical(f, f.marks[0])
        assert rec == Bounded("disk", diam_exp=F(2), preperiod=0, period=1)

    def test_point_component(self):
        f = julia_cubic()
        rec1 = classify_critical(f, f.marks[0])
        rec2 = classify_critical(f, f.marks[1])
        assert rec1 == Bounded("point", preperiod=1, period=1)
        assert rec2 == Escaping(1)

    def test_invariant_unit_disk_certificate(self, monkeypatch):
        # orbit of 0 under z^2 + 3 never cycles exactly, but the unit disk
        # is the filled Julia set (base exponent 0), certifying boundedness
        monkeypatch.setattr(escape, "BUDGET", 12)
        f = quad(3)
        rec = classify_critical(f, f.marks[0])
        assert rec == Bounded("disk", diam_exp=F(0))

    def test_unknown_without_cycle(self, monkeypatch):
        # orbit of 0: valuations lock at 2 (no escape), values never
        # cycle, and the base exponent is -1 so no structural certificate
        monkeypatch.setattr(escape, "BUDGET", 12)
        f = MarkedPolynomial.from_critical_data(
            [
                (Q3.scalar(0), 2),
                (Q3.scalar(F(1, 3)), 2),
                (Q3.scalar(F(-1, 3)), 2),
            ],
            Q3.scalar(9),
        )
        rec = classify_critical(f, f.marks[0])
        assert isinstance(rec, Unknown)

    def test_escape_stable_under_budget(self, monkeypatch):
        records = []
        for budget in (8, 128):
            monkeypatch.setattr(escape, "BUDGET", budget)
            f = quad(-1, 3)
            records.append(classify_critical(f, f.marks[0]))
        assert records[0] == records[1]


class TestClassificationSuite:
    def test_tame_shift_locus(self):
        assert classification_report(quad(-1, 3))[0] is Classification.TAME_SHIFT_LOCUS

    def test_simple(self):
        assert classification_report(quad(0))[0] is Classification.SIMPLE

    def test_has_bounded_fatou(self):
        assert classification_report(quad(-1))[0] is Classification.HAS_BOUNDED_FATOU

    def test_julia_in_affine(self):
        assert classification_report(julia_cubic())[0] is Classification.JULIA_IN_AFFINE

    def test_certified_invariant_disk_classifies(self, monkeypatch):
        # not a fixed critical point, so the disk verdict wins
        monkeypatch.setattr(escape, "BUDGET", 12)
        assert classification_report(quad(3))[0] is Classification.HAS_BOUNDED_FATOU

    def test_unknown(self, monkeypatch):
        monkeypatch.setattr(escape, "BUDGET", 12)
        f = MarkedPolynomial.from_critical_data(
            [
                (Q3.scalar(0), 2),
                (Q3.scalar(F(1, 3)), 2),
                (Q3.scalar(F(-1, 3)), 2),
            ],
            Q3.scalar(9),
        )
        assert classification_report(f)[0] is Classification.UNKNOWN

    def test_report_contains_records(self):
        cls, records = classification_report(quad(-1, 3))
        assert cls is Classification.TAME_SHIFT_LOCUS
        assert records == [Escaping(1)]


RAY_LINES = st.lists(st.tuples(st.integers(min_value=1, max_value=4),
                               st.fractions(min_value=-12, max_value=12, max_denominator=4)),
                     min_size=1, max_size=4)


class TestPullbackIteration:
    @settings(max_examples=50)
    @given(
        lines=st.lists(st.tuples(st.integers(min_value=1, max_value=5),
                                 st.fractions(min_value=-12, max_value=12, max_denominator=4)),
                       min_size=1, max_size=5),
        start=st.fractions(min_value=-20, max_value=20, max_denominator=3),
    )
    def test_agrees_with_naive_iteration(self, lines, start):
        seg = PiecewiseMonomial(lines)
        assume(seg.invert(start) >= start)
        limit = iterate_pl_to_limit(seg, start)
        rs = [start]
        for _ in range(40):
            rs.append(seg.invert(rs[-1]))
        assert rs == sorted(rs)
        settled = next((r for r, s in zip(rs, rs[1:]) if r == s), None)
        if settled is not None:
            assert limit == settled
        elif limit is not None:
            # approached from below, never reached
            assert seg.invert(limit) == limit and rs[-1] < limit
        else:
            # only a slope-1 inverse piece to the right moves without bound
            assert seg.lines[0][0] == 1

    @settings(max_examples=100)
    @given(outer=RAY_LINES, inner=RAY_LINES,
           start=st.fractions(min_value=-20, max_value=20, max_denominator=3))
    def test_least_fixed_point_of_a_period_map(self, outer, inner, start):
        # composed as _resolve_bounded composes the ray maps of a period
        seg = PiecewiseMonomial(outer).compose(PiecewiseMonomial(inner))
        assume(seg.invert(start) >= start)
        limit = iterate_pl_to_limit(seg, start)
        # where the iteration can first stop: start, or a line meeting the diagonal
        candidates = [start] + [F(-v, k - 1) for k, v in seg.lines if k > 1]
        if limit is not None:
            assert limit >= start and seg.image_exp(limit) == limit
            assert all(seg.image_exp(q) != q for q in candidates if start <= q < limit)
            # F(q) - q is nondecreasing, so it is negative on [start, limit)
            # when a line of slope >= 2 attains F at the limit from the left
            assert limit == start or any(k > 1 and k * limit + v == limit for k, v in seg.lines)
        else:
            assert all(seg.image_exp(q) != q for q in candidates if q >= start)
            # the last piece has slope 1 and lies below the diagonal
            k, v = seg.lines[0]
            assert k == 1 and v < 0


def _padic(p, marks, b):
    return polynomial_from_json({"backend": {"kind": "padic", "p": p},
                                 "marks": [{"c": c, "mult": 2} for c in marks], "b": b})


# escaping marks, orbits that trip the height guard in the unit disk, and an
# unresolved mark next to two escaping ones
ONCE_CASES = {
    "escaping cubic": (5, ["1/5", "-1/5"], "1/25"),
    "guarded quadratic": (3, ["0"], "-1/2"),
    "guarded cubic": (5, ["1/2", "-1/2"], "-1/3"),
    "unknown quartic": (3, ["0", "1/3", "-1/3"], "9"),
}


class TestClassifyOnce:
    """Each mark is classified once per polynomial, and the records shared
    through the cache are those of a fresh classification."""

    @staticmethod
    def _count_orbits(monkeypatch):
        started = []
        original = escape._classify

        def counted(f, mark):
            started.append((id(f), mark.point))
            return original(f, mark)

        monkeypatch.setattr(escape, "_classify", counted)
        return started

    @staticmethod
    def _fresh_records(case):
        f = _padic(*case)
        return [escape._classify(f, m) for m in f.marks]

    @pytest.mark.parametrize("name", sorted(ONCE_CASES))
    def test_report_and_core_share_one_orbit_per_mark(self, monkeypatch, name):
        f = _padic(*ONCE_CASES[name])
        started = self._count_orbits(monkeypatch)
        _, records = classification_report(f)
        build_core(f, depth=2)
        assert Counter(started) == Counter((id(f), m.point) for m in f.marks)
        assert records == self._fresh_records(ONCE_CASES[name])
        assert [classify_critical(f, m) for m in f.marks] == records

    def test_conjugacy_shares_one_orbit_per_mark(self, monkeypatch):
        case = ONCE_CASES["escaping cubic"]
        moved = (5, case[1], str(Fraction(case[2]) + 5 ** 4))
        f, g = _padic(*case), _padic(*moved)
        started = self._count_orbits(monkeypatch)
        build_conjugacy(f, g, None, depth=2)
        assert Counter(started) == Counter([(id(f), m.point) for m in f.marks]
                                           + [(id(g), m.point) for m in g.marks])
        assert [classify_critical(f, m) for m in f.marks] == self._fresh_records(case)
        assert [classify_critical(g, m) for m in g.marks] == self._fresh_records(moved)


SERIES30 = {"kind": "series", "precision": "30", "ram_den": 1}


def _series30_cubic(b):
    """Cubic over SeriesT(30) with marks +-t^-1 and b given as a series literal."""
    return polynomial_from_json({"backend": SERIES30, "b": b,
                                 "marks": [{"c": [["-1", c]], "mult": 2} for c in ("1", "-1")]})


# (f, g): both marks escape; a quadratic 2-cycle, whose record reaches the
# fixed-point check of the report; the series baseline.  g moves b a little.
STORE_CASES = {
    "escaping cubic": lambda: (_padic(5, ["1/5", "-1/5"], "1/25"),
                               _padic(5, ["1/5", "-1/5"], str(Fraction(1, 25) + 5 ** 4))),
    "quad(-1)": lambda: (quad(-1), quad(-1 + 3 ** 4)),
    "series cubic": lambda: (_series30_cubic([["-4", "1"]]),
                             _series30_cubic([["-4", "1"], ["20", "1"]])),
}


class TestOrbitStore:
    """Each critical orbit value is computed once per polynomial: the
    report, the core tree and the coordinate comparison read the mark's
    stored orbit instead of iterating f again."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []
        original = MarkedPolynomial.__call__
        monkeypatch.setattr(MarkedPolynomial, "__call__",
                            lambda self, z: calls.append(z) or original(self, z))
        return calls

    @pytest.mark.parametrize("name", sorted(STORE_CASES))
    def test_report_and_core_evaluate_each_orbit_value_once(self, monkeypatch, name):
        f, _ = STORE_CASES[name]()
        calls = self._count_calls(monkeypatch)
        classification_report(f)
        build_core(f, depth=3)
        assert len(calls) == sum(len(f.orbit(m, 0)) - 1 for m in f.marks)

    @pytest.mark.parametrize("name", sorted(STORE_CASES))
    def test_rho_closeness_reads_the_stored_orbits(self, monkeypatch, name):
        f, g = STORE_CASES[name]()
        classification_report(f)
        classification_report(g)
        calls = self._count_calls(monkeypatch)
        monkeypatch.setattr(boettcher, "phi_eval", lambda f, z, precision: z)
        rho_closeness(f, g, precision=40)
        assert calls == []


def _guard_only_record(f, mark, budget=escape.BUDGET):
    """The record of exact iteration without the wandering certificate: a
    cycle, an exit, or the whole unit disk once the height guard or the
    budget stops the orbit (base exponent 0 only)."""
    base = f.base_radius_exp
    z = mark.point
    values, seen = [z], {z: 0}
    for n in range(1, budget + 1):
        z = f(z)
        if z.valuation() < base:
            return Escaping(n)
        if z in seen:
            return escape._resolve_bounded(f, values, seen[z], n - seen[z])
        if escape._height_bits(z) > escape.MAX_HEIGHT_BITS:
            break
        seen[z] = n
        values.append(z)
    return Bounded("disk", diam_exp=F(0))


SMALL_RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4]))


@st.composite
def base0_padic_maps(draw):
    """z^2 + b over PAdic(3|5|7), or a cubic over PAdic(5|7) with marks +-c
    (z^3 + b when c = 0), of base exponent 0."""
    degree = draw(st.sampled_from([2, 3]))
    backend = PAdic(draw(st.sampled_from([3, 5, 7] if degree == 2 else [5, 7])))
    c = draw(SMALL_RATIONALS) if degree == 3 else F(0)
    if c == 0:
        marks = [(backend.scalar(0), degree)]
    else:
        marks = [(backend.scalar(c), 2), (backend.scalar(-c), 2)]
    f = MarkedPolynomial.from_critical_data(marks, backend.scalar(draw(SMALL_RATIONALS)))
    assume(f.base_radius_exp == 0)
    return f


class TestWanderingCertificate:
    """At base exponent 0 over PAdic an orbit that escapes at the real place
    or at a prime q != p is certified never to cycle."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("b, orbit", [
        # 0 -> -2 -> 2 -> 2: every value inside |z| <= R = 3
        (F(-2), [F(0), F(-2), F(2)]),
        # fixed points 3/2 and -1/2: denominator 2 divides L = 4
        (F(-3, 4), [F(3, 2), F(-1, 2)]),
        # -1 -> 1 -> 1: the fixed point 1 lies on the circle |z| = R = 1
        (F(0), [F(-1), F(1)]),
    ])
    def test_never_fires_on_a_cycle(self, p, b, orbit):
        f = quad(b.numerator, b.denominator, backend=PAdic(p))
        for z in orbit:
            assert not escape._wanders(f, z)
            values = [f.backend.scalar(z)]
            while f(values[-1]) not in values:
                values.append(f(values[-1]))
            preperiod = values.index(f(values[-1]))
            rec = escape._classify(f, CriticalMark(values[0], 2))
            assert isinstance(rec, Bounded)
            assert (rec.preperiod, rec.period) == (preperiod, len(values) - preperiod)

    @settings(max_examples=60, deadline=None)
    @given(f=base0_padic_maps())
    def test_records_match_the_guard_only_loop(self, f):
        for mark in f.marks:
            assert classify_critical(f, mark) == _guard_only_record(f, mark)

    @settings(max_examples=60, deadline=None)
    @given(f=base0_padic_maps())
    def test_certified_orbits_never_repeat(self, f):
        for mark in f.marks:
            orbit, certified_at = [mark.point], None
            while len(orbit) <= escape.BUDGET:
                z = f(orbit[-1])
                if certified_at is None:
                    if z in orbit:
                        break
                    if escape._wanders(f, z.rational):
                        certified_at = len(orbit)
                orbit.append(z)
                if certified_at is not None and len(orbit) > certified_at + 6:
                    assert len(set(orbit)) == len(orbit)
                    break

    @pytest.mark.parametrize("name", ["guarded quadratic", "guarded cubic"])
    def test_guarded_orbits_stop_within_four_steps(self, monkeypatch, name):
        # the polynomials of classify-quad3-guard.json and
        # classify-cubic5-guard.json, whose orbits take 16-19 steps to
        # reach the height guard
        f = _padic(*ONCE_CASES[name])
        evaluated = []
        original = MarkedPolynomial.__call__

        def counted(self, z):
            evaluated.append(z)
            return original(self, z)

        monkeypatch.setattr(MarkedPolynomial, "__call__", counted)
        for mark in f.marks:
            evaluated.clear()
            assert classify_critical(f, mark) == Bounded("disk", diam_exp=F(0))
            assert len(evaluated) <= 4
