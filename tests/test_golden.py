"""Golden outputs: exported core trees and verification reports stay byte-identical.

The files under ``tests/golden/`` pin the exact text of ``export_core``, of
``VerificationReport.to_dict()`` and of the ``classification_report`` records
for a few fixed inputs.  Any change to the core tree, the conjugacy checks,
the orbit classification or the serialization that alters a single byte
fails here.  Regenerate them only on purpose, from the commit whose outputs
are the reference:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tamedyn.conjugacy import build_conjugacy, verify_extendable
from tamedyn.core import build_core, export_core
from tamedyn.escape import Bounded, Escaping, classification_report
from tamedyn.serialize import polynomial_from_json

GOLDEN = Path(__file__).resolve().parent / "golden"


def _poly(p, marks, b):
    return polynomial_from_json({
        "backend": {"kind": "padic", "p": p},
        "marks": [{"c": c, "mult": 2} for c in marks],
        "b": b,
    })


def _series_cubic(precision, ram_den, lead, b_exp):
    """Cubic over SeriesT(precision, ram_den): marks +-t^lead of multiplicity 2, b = t^b_exp."""
    return polynomial_from_json({
        "backend": {"kind": "series", "precision": precision, "ram_den": ram_den},
        "marks": [{"c": [[lead, c]], "mult": 2} for c in ("1", "-1")],
        "b": [[b_exp, "1"]],
    })


def baseline_cubic5():
    """Cubic over PAdic(5): marks +-1/5 of multiplicity 2, b = 1/25."""
    return _poly(5, ["1/5", "-1/5"], "1/25")


def late_cubic7_k8():
    """Cubic over PAdic(7): marks +-1/7 of multiplicity 2, b = 2c^3 - 2c + 7^8 at c = 1/7."""
    return _poly(7, ["1/7", "-1/7"], "1977326647/343")


def late_series60_k10():
    """Cubic over SeriesT(60): marks +-t^-1 of multiplicity 2, b = 2t^-3 - 2t^-1 + t^10."""
    return polynomial_from_json({
        "backend": {"kind": "series", "precision": "60", "ram_den": 1},
        "marks": [{"c": [[-1, c]], "mult": 2} for c in ("1", "-1")],
        "b": [[-3, "2"], [-1, "-2"], [10, "1"]],
    })


def _core_text(f, depth):
    return export_core(build_core(f, depth=depth))


def _report_text(f, g):
    report = verify_extendable(build_conjugacy(f, g, None, depth=4))
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _record_json(rec) -> dict:
    if isinstance(rec, Escaping):
        return {"escaping": rec.first_exit}
    if isinstance(rec, Bounded):
        return {"bounded": rec.kind,
                "diam_exp": None if rec.diam_exp is None else str(rec.diam_exp),
                "preperiod": rec.preperiod, "period": rec.period}
    return {"unknown": rec.budget_spent}


def _classification_text(f):
    classification, records = classification_report(f)
    summary = {"classification": classification.value,
               "records": [_record_json(r) for r in records]}
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


CASES = {
    **{f"core-cubic5-d{d}.json": (lambda d=d: _core_text(baseline_cubic5(), d))
       for d in range(2, 6)},
    "core-quartic7-d3.json": lambda: _core_text(_poly(7, ["2/7", "-5/7", "3/7"], "-3/49"), 3),
    # the series baseline: SeriesT(30), marks +-t^-1, b = t^-4
    "core-series30-cubic-d2.json": lambda: _core_text(_series_cubic("30", 1, "-1", "-4"), 2),
    # half-integral exponents: SeriesT(10, ram_den=2), marks +-t^(-1/2), b = t^-2
    "core-series10-r2-cubic-d2.json": lambda: _core_text(_series_cubic("10", 2, "-1/2", "-2"), 2),
    # late first exits: b = 2c^3 - 2c + pi^k puts f(c) pi^k-close to the repelling
    # fixed point -2c, so mark 0 first exits at step 6 (PAdic) and 7 (SeriesT), and
    # the closure finds disks below the depth that the level filter drops
    "core-late-cubic7-k8-d3.json": lambda: _core_text(late_cubic7_k8(), 3),
    "core-late-series60-k10-d3.json": lambda: _core_text(late_series60_k10(), 3),
    # orbits that stay in the unit disk until the height guard trips: the
    # base exponent 0 certifies the whole disk
    "classify-quad3-guard.json": lambda: _classification_text(_poly(3, ["0"], "-1/2")),
    "classify-cubic5-guard.json": lambda: _classification_text(_poly(5, ["1/2", "-1/2"], "-1/3")),
    # base exponent -1: the step where the height guard trips is the output
    "classify-quartic3-unknown.json": lambda: _classification_text(
        _poly(3, ["0", "1/3", "-1/3"], "9")),
    # b moved by 5^4: conjugate, every clause passes
    "report-conjugate.json": lambda: _report_text(
        baseline_cubic5(), _poly(5, ["1/5", "-1/5"], str(Fraction(1, 25) + 5 ** 4))),
    # marks moved to +-2/5: the local-translation clause fails
    "report-nonconjugate.json": lambda: _report_text(
        baseline_cubic5(), _poly(5, ["2/5", "-2/5"], "1/25")),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert CASES[name]() == (GOLDEN / name).read_text()


def test_fail_report_fails():
    report = json.loads((GOLDEN / "report-nonconjugate.json").read_text())
    assert report["overall"] == "Fail"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in CASES.items():
        (GOLDEN / name).write_text(make())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
