from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamedyn import escape
from tamedyn.berkovich import BerkPoint
from tamedyn.conjugacy import build_conjugacy
from tamedyn.core import build_core
from tamedyn.errors import BudgetExhausted, NotInBasin
from tamedyn.escape import (
    Bounded,
    Classification,
    Escaping,
    Unknown,
    boettcher_modulus,
    classification_report,
    classify_critical,
    iterate_pl_to_limit,
)
from tamedyn.polynomial import MarkedPolynomial, PiecewiseMonomial
from tamedyn.serialize import polynomial_from_json
from tamedyn.valued_field import PAdic, SeriesT, Val

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

    def test_invariant_unit_disk_certificate(self):
        # orbit of 0 under z^2 + 3 never cycles exactly, but the unit disk
        # is the filled Julia set (base exponent 0), certifying boundedness
        f = quad(3)
        rec = classify_critical(f, f.marks[0], budget=12)
        assert rec == Bounded("disk", diam_exp=F(0))

    def test_unknown_without_cycle(self):
        # orbit of 0: valuations lock at 2 (no escape), values never
        # cycle, and the base exponent is -1 so no structural certificate
        f = MarkedPolynomial.from_critical_data(
            [
                (Q3.scalar(0), 2),
                (Q3.scalar(F(1, 3)), 2),
                (Q3.scalar(F(-1, 3)), 2),
            ],
            Q3.scalar(9),
        )
        rec = classify_critical(f, f.marks[0], budget=12)
        assert isinstance(rec, Unknown)

    def test_escape_stable_under_budget(self):
        f = quad(-1, 3)
        assert classify_critical(f, f.marks[0], budget=8) == classify_critical(
            f, f.marks[0], budget=128
        )


class TestBoettcherModulus:
    def test_at_escaping_critical(self):
        f = quad(-1, 3)
        assert boettcher_modulus(f, Q3.scalar(0)) == Val(F(-1, 2))

    def test_equals_modulus_outside(self):
        f = quad(0)
        x = BerkPoint(Q3.scalar(0), -2)
        assert boettcher_modulus(f, x) == Val(-2)

    def test_functional_equation(self):
        f = quad(-1, 3)
        pts = [Q3.scalar(F(1, 3)), Q3.scalar(F(2, 9)), Q3.scalar(5)]
        for z in pts:
            lhs = boettcher_modulus(f, f(z))
            rhs = boettcher_modulus(f, z)
            assert lhs.finite == rhs.finite * f.degree

    def test_base_identity_for_nonsimple(self):
        # base exponent = min over escaping marks of the modulus exponent
        f = quad(-1, 3)
        exps = [
            boettcher_modulus(f, m.point).finite
            for m in f.marks
            if isinstance(classify_critical(f, m), Escaping)
        ]
        assert min(exps) == f.base_radius_exp

    def test_not_in_basin(self):
        f = quad(0)
        with pytest.raises(NotInBasin):
            boettcher_modulus(f, Q3.scalar(0))

    def test_budget_exhausted(self):
        f = MarkedPolynomial.from_critical_data(
            [
                (Q3.scalar(0), 2),
                (Q3.scalar(F(1, 3)), 2),
                (Q3.scalar(F(-1, 3)), 2),
            ],
            Q3.scalar(9),
        )
        with pytest.raises(BudgetExhausted):
            boettcher_modulus(f, Q3.scalar(0), budget=10)


class TestClassificationSuite:
    def test_tame_shift_locus(self):
        assert classification_report(quad(-1, 3))[0] is Classification.TAME_SHIFT_LOCUS

    def test_simple(self):
        assert classification_report(quad(0))[0] is Classification.SIMPLE

    def test_has_bounded_fatou(self):
        assert classification_report(quad(-1))[0] is Classification.HAS_BOUNDED_FATOU

    def test_julia_in_affine(self):
        assert classification_report(julia_cubic())[0] is Classification.JULIA_IN_AFFINE

    def test_certified_invariant_disk_classifies(self):
        # not a fixed critical point, so the disk verdict wins
        assert classification_report(quad(3), budget=12)[0] is Classification.HAS_BOUNDED_FATOU

    def test_unknown(self):
        f = MarkedPolynomial.from_critical_data(
            [
                (Q3.scalar(0), 2),
                (Q3.scalar(F(1, 3)), 2),
                (Q3.scalar(F(-1, 3)), 2),
            ],
            Q3.scalar(9),
        )
        assert classification_report(f, budget=12)[0] is Classification.UNKNOWN

    def test_report_contains_records(self):
        cls, records = classification_report(quad(-1, 3))
        assert cls is Classification.TAME_SHIFT_LOCUS
        assert records == [Escaping(1)]


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
        status, limit = iterate_pl_to_limit(seg, start)
        rs = [start]
        for _ in range(40):
            rs.append(seg.invert(rs[-1]))
        assert rs == sorted(rs)
        settled = next((r for r, s in zip(rs, rs[1:]) if r == s), None)
        if settled is not None:
            assert (status, limit) == ("fixed", settled)
        elif status == "fixed":
            # approached from below, never reached
            assert seg.invert(limit) == limit and rs[-1] < limit
        else:
            # only a slope-1 inverse piece to the right moves without bound
            assert limit is None and seg.lines[0][0] == 1


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
    """Each mark's orbit is iterated once per polynomial, and the records
    shared through the cache are those of a fresh classification."""

    @staticmethod
    def _count_orbits(monkeypatch):
        started = []
        original = escape._orbit_until_exit

        def counted(f, start, budget):
            started.append((id(f), start))
            return original(f, start, budget)

        monkeypatch.setattr(escape, "_orbit_until_exit", counted)
        return started

    @staticmethod
    def _fresh_records(case):
        f = _padic(*case)
        return [escape._classify(f, m, escape.DEFAULT_BUDGET) for m in f.marks]

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

    def test_each_budget_is_its_own_record(self):
        f = _padic(*ONCE_CASES["unknown quartic"])
        assert classify_critical(f, f.marks[0], budget=3) == Unknown(3)
        assert classify_critical(f, f.marks[0]) == Unknown(9)
