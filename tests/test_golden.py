"""Golden outputs: exported core trees and verification reports stay byte-identical.

The files under ``tests/golden/`` pin the exact text of ``export_core`` and of
``VerificationReport.to_dict()`` for a few fixed inputs.  Any change to the
core tree, the conjugacy checks or the serialization that alters a single byte
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


def _core_text(f, depth):
    return export_core(build_core(f, depth=depth))


def _report_text(f, g):
    report = verify_extendable(build_conjugacy(f, g, None, depth=4))
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


CASES = {
    **{f"core-cubic5-d{d}.json": (lambda d=d: _core_text(baseline_cubic5(), d))
       for d in range(2, 6)},
    "core-quartic7-d3.json": lambda: _core_text(_poly(7, ["2/7", "-5/7", "3/7"], "-3/49"), 3),
    # the series baseline: SeriesT(30), marks +-t^-1, b = t^-4
    "core-series30-cubic-d2.json": lambda: _core_text(_series_cubic("30", 1, "-1", "-4"), 2),
    # half-integral exponents: SeriesT(10, ram_den=2), marks +-t^(-1/2), b = t^-2
    "core-series10-r2-cubic-d2.json": lambda: _core_text(_series_cubic("10", 2, "-1/2", "-2"), 2),
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
