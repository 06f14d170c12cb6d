"""Every exponent the exact core produces is an int or a Fraction, never a
float or NaN, and math.inf only where a valuation or a bound can be infinite.

    python3 -m pytest tests/test_exponents.py

Each job of ``bench/corpus/*.json`` (only read, as in ``tests/test_corpus.py``)
and each drawn tree of ``tests/test_core.py``, late first exits among them,
runs under a trace that sees every tamedyn function return.  It checks
- what the functions that make exponents return: ``Scalar.valuation`` (math.inf
  for zero), every off-diagonal entry of ``valuation_table`` (all finite),
  every ray-map line of ``segment_dynamics`` and of ``escaped_ray_map``, the
  vertex exponents, edge lengths and base exponent of ``build_core``,
  ``rho_closeness``'s ``rho_exp`` (math.inf when no difference shows),
  ``Bounded.diam_exp`` from ``escape._classify``, and the valuations of a
  Hensel ``lift`` (math.inf only for its certified and displacement
  valuations);
- every local variable of every returning tamedyn frame: none is a float but
  math.inf, so an exponent that never leaves its function (an edge midpoint,
  say) is checked too.
"""

import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamedyn
from tamedyn import escape, hensel, polynomial, valued_field
from tamedyn.boettcher import rho_closeness
from tamedyn.core import build_core
from tamedyn.polynomial import MarkedPolynomial

from test_core import LATE_TREES, SERIES_TREES, TREES

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402

SRC = str(Path(tamedyn.__file__).resolve().parent)

JOBS = {job["id"]: job
        for path in sorted((BENCH / "corpus").glob("*.json"))
        for stratum in json.loads(path.read_text())["strata"]
        for job in stratum["jobs"]}


def _exact(x, infinite: bool = False) -> bool:
    """x is an int (not a bool) or a Fraction, or math.inf when `infinite`."""
    if infinite and isinstance(x, float) and x == math.inf:
        return True
    return isinstance(x, Fraction) or (isinstance(x, int) and not isinstance(x, bool))


def _tree_exponents(tree):
    yield "base_radius_exp", tree.f.base_radius_exp, False
    for v in tree.vertices:
        yield "vertex exponent", v.exponent, False
    for e in tree.edges:
        yield "edge length", e.length, False


def _lift_exponents(res):
    for step in res.iterations:
        yield "lift w_valuation", step.w_valuation, False
        yield "lift residual_valuation", step.residual_valuation, False
    yield "lift certified_valuation", res.certified_valuation, True
    yield "lift displacement_valuation", res.displacement_valuation, True


def _record_exponents(rec):
    if isinstance(rec, escape.Bounded) and rec.diam_exp is not None:
        yield "diam_exp", rec.diam_exp, False


def _table_exponents(table):
    for x, row in enumerate(table):
        for y, v in enumerate(row):
            if y != x:
                yield "pairwise valuation", v, False


def _ray_map_exponents(seg):
    for k, v in seg.lines:
        yield "ray-map slope", k, False
        yield "ray-map value", v, False


# code object -> the (name, exponent, may be infinite) triples of its result
RESULTS = {
    valued_field.Scalar.valuation.__code__: lambda v: [("valuation", v, True)],
    valued_field.valuation_table.__code__: _table_exponents,
    MarkedPolynomial.segment_dynamics.__code__: _ray_map_exponents,
    polynomial.escaped_ray_map.__code__: _ray_map_exponents,
    build_core.__code__: _tree_exponents,
    rho_closeness.__code__: lambda bound: [("rho_exp", bound.rho_exp, True)],
    escape._classify.__code__: _record_exponents,
    hensel.lift.__code__: _lift_exponents,
}


class _Trace:
    """A trace function that checks each tamedyn frame when it returns."""

    def __init__(self):
        self.violations: list[str] = []

    def __call__(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(SRC):
            return None
        frame.f_trace_lines = False
        return self._on_event

    def _on_event(self, frame, event, arg):
        if event != "return":
            return self._on_event
        code = frame.f_code
        where = f"{code.co_name} ({Path(code.co_filename).name})"
        for name, value in frame.f_locals.items():
            if isinstance(value, float) and value != math.inf:
                self.violations.append(f"{where}: local {name} = {value!r}")
        check = RESULTS.get(code)
        if check is not None and arg is not None:
            for name, value, infinite in check(arg):
                if not _exact(value, infinite):
                    self.violations.append(f"{where}: {name} = {value!r}")
        return self._on_event


@contextmanager
def _traced():
    trace = _Trace()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield trace.violations
    finally:
        sys.settrace(previous)


@pytest.mark.parametrize("job_id", sorted(JOBS))
def test_corpus_job_exponents_are_exact(job_id):
    expect = JOBS[job_id]["expect"]
    with _traced() as violations:
        try:
            jobs.execute(JOBS[job_id]["input"])
        except Exception as exc:  # only the error its reference records
            if type(exc).__name__ not in (expect.get("error"), expect.get("known_defect")):
                raise
    assert not violations[:5]


@settings(max_examples=40)
@given(data=st.data())
def test_drawn_tree_exponents_are_exact(data):
    with _traced() as violations:
        data.draw(st.one_of(TREES, SERIES_TREES))
    assert not violations[:5]


@settings(max_examples=15)
@given(data=st.data())
def test_late_exit_tree_exponents_are_exact(data):
    with _traced() as violations:
        data.draw(LATE_TREES)
    assert not violations[:5]
