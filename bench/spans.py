"""Spans and counters for the traced run, recorded from the benchmark's side.

``installed(tracer)`` replaces the public functions of each tamedyn module
(and the two scalar kernels, ``Scalar.valuation`` and ``Scalar.__mul__``)
with timing wrappers, at every name they are bound to, and restores them
on exit.  Nothing in ``src/tamedyn`` changes; with the wrappers removed
the untraced run calls the original functions.

A wrapper records a span (job id, span id, parent id, layer, start, end)
while a job is open.  The two scalar kernels run far too often to keep
one span per call, so their calls and time are summed into the layer's
totals and into the enclosing span's child time.  A layer's self time is
the time of its spans minus the time covered by their children.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter_ns

from tamedyn import berkovich, boettcher, conjugacy, core, escape, hensel, serialize, valued_field
from tamedyn.polynomial import MarkedPolynomial
from tamedyn.valued_field import PAdic, Scalar


class Tracer:
    """Per-layer call counts, self times, counters and spans of one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters = {"max_height_bits": 0, "max_series_terms": 0, "orbit_steps": 0,
                         "vertices": 0, "edges": 0, "lift_iterations": 0,
                         "taylor_repeats": 0, "marks": 0}
        self.spans: list[tuple] = []  # (job id, span id, parent id, layer, start, end)
        self._stack: list[list] = []  # [span id, layer, start ns, child ns]
        self._job = None
        self._next_id = 0
        self._taylor_seen: set = set()

    def begin_job(self, job_id: str):
        if self._stack:
            raise RuntimeError("a job is already open")
        self._job = job_id
        self._taylor_seen = set()
        self._enter("job")

    def end_job(self, marks: int):
        self._exit(self._stack[-1])
        if self._stack:
            raise RuntimeError("unbalanced spans at the end of a job")
        self.counters["marks"] += marks
        self._job = None

    def _enter(self, layer: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, layer, perf_counter_ns(), 0, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list):
        end = perf_counter_ns()
        if self._stack.pop() is not frame:
            raise RuntimeError("spans closed out of order")
        span_id, layer, start, child, parent = frame
        dur = end - start
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_ns[layer] = self.self_ns.get(layer, 0) + dur - child
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((self._job, span_id, parent, layer, start, end))

    def self_ms(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e6


# -- counters taken from results ----------------------------------------------


def _after_mul(tracer, args, result):
    c = tracer.counters
    if isinstance(result.backend, PAdic):
        q = result.rational
        bits = q.numerator.bit_length() + q.denominator.bit_length()
    else:
        terms = result.terms
        if len(terms) > c["max_series_terms"]:
            c["max_series_terms"] = len(terms)
        bits = sum(v.numerator.bit_length() + v.denominator.bit_length() for _, v in terms)
    if bits > c["max_height_bits"]:
        c["max_height_bits"] = bits


def _after_classify(tracer, args, rec):
    if isinstance(rec, escape.Escaping):
        steps = rec.first_exit
    elif isinstance(rec, escape.Bounded):
        steps = rec.preperiod + rec.period
    else:
        steps = rec.budget_spent
    tracer.counters["orbit_steps"] += steps


def _after_build_core(tracer, args, tree):
    tracer.counters["vertices"] += len(tree.vertices)
    tracer.counters["edges"] += len(tree.edges)


def _after_lift(tracer, args, res):
    tracer.counters["lift_iterations"] += len(res.iterations)


def _before_taylor(tracer, args):
    key = (id(args[0]), args[1])
    if key in tracer._taylor_seen:
        tracer.counters["taylor_repeats"] += 1
    else:
        tracer._taylor_seen.add(key)


# layer -> (kind, [(owner, attribute)], before hook, after hook)
LAYERS = {
    "valued_field.valuation": ("leaf", [(Scalar, "valuation")], None, None),
    "valued_field.mul": ("leaf", [(Scalar, "__mul__")], None, _after_mul),
    "valued_field.nth_root_unit": (
        "span", [(valued_field, "nth_root_unit"), (boettcher, "nth_root_unit")], None, None),
    "boettcher.phi_eval": ("span", [(boettcher, "phi_eval"), (conjugacy, "phi_eval")],
                           None, None),
    "boettcher.rho_closeness": (
        "span", [(boettcher, "rho_closeness"), (conjugacy, "rho_closeness")], None, None),
    "polynomial.eval": ("span", [(MarkedPolynomial, "__call__")], None, None),
    "polynomial.taylor_at": ("span", [(MarkedPolynomial, "taylor_at")], _before_taylor, None),
    "escape.classify_critical": (
        "span", [(escape, "classify_critical"), (boettcher, "classify_critical"),
                 (core, "classify_critical")], None, _after_classify),
    "berkovich.compare": ("span", [(berkovich, "compare"), (core, "compare")], None, None),
    "core.build_core": ("span", [(core, "build_core"), (conjugacy, "build_core")],
                        None, _after_build_core),
    "conjugacy.build_conjugacy": ("span", [(conjugacy, "build_conjugacy")], None, None),
    "conjugacy.verify_extendable": ("span", [(conjugacy, "verify_extendable")], None, None),
    "hensel.lift": ("span", [(hensel, "lift")], None, _after_lift),
    "serialize.parse": ("span", [(serialize, "polynomial_from_json"),
                                 (serialize, "raw_coefficients_from_json")], None, None),
    "serialize.export": ("span", [(core, "export_core"),
                                  (conjugacy.VerificationReport, "to_dict")], None, None),
}


def _span_wrapper(tracer, layer, fn, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer._stack:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args)
        frame = tracer._enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer._exit(frame)
        if after is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _leaf_wrapper(tracer, layer, fn, before, after):
    calls, self_ns = tracer.calls, tracer.self_ns
    calls.setdefault(layer, 0)
    self_ns.setdefault(layer, 0)

    @functools.wraps(fn)
    def wrapper(*args):
        stack = tracer._stack
        if not stack:
            return fn(*args)
        start = perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            dur = perf_counter_ns() - start
            calls[layer] += 1
            self_ns[layer] += dur
            stack[-1][3] += dur
        if after is not None:
            after(tracer, args, result)
        return result
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every layer's public functions through `tracer` for the block."""
    saved = []
    try:
        for layer, (kind, bindings, before, after) in LAYERS.items():
            make = _leaf_wrapper if kind == "leaf" else _span_wrapper
            for owner, attr in bindings:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(tracer, layer, original, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
