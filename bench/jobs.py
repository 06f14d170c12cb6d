"""One benchmark job: a corpus entry taken from JSON text to its exported result.

A job's input is a JSON document naming its kind and parameters:

* ``core``: ``{"kind": "core", "poly": {...}, "depth": n, "phi_precision": s|null}``
  runs ``classification_report``, ``build_core`` and ``export_core``; with a
  ``phi_precision`` it also evaluates ``phi_eval`` at each first-exit value.
* ``pair``: ``{"kind": "pair", "f": {...}, "g": {...}, "rho": s|null,
  "depth": n}`` runs ``build_conjugacy``, ``verify_extendable`` and ``to_dict``.
* ``lift``: ``{"kind": "lift", "f": {...}, "g": {...}, "x": s, "target": s}``
  runs the Hensel ``lift`` on raw coefficient lists.

The exported result is text: one line of sorted-key JSON summary, followed
by the ``export_core`` text for core jobs.  Its SHA-256 digest is compared
with the reference recorded in the corpus.

Every tamedyn function is looked up through its module at call time, so
the traced run's wrappers (see ``spans.py``) see the calls.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from tamedyn import boettcher, conjugacy, core, escape, hensel, serialize
from tamedyn.errors import EXHAUSTION_ERRORS, NotComparable, NotTame, WellDefinednessFailure

EXPECTED_ERRORS = EXHAUSTION_ERRORS + (NotComparable, WellDefinednessFailure, NotTame)
"""Errors a job may end in when its reference records that error."""


@dataclass
class Output:
    text: str
    trees: tuple  # CoreTree objects for the invariant checks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def execute(text: str) -> Output:
    """Run one job from its JSON input text; exceptions propagate."""
    spec = json.loads(text)
    kind = spec["kind"]
    if kind == "core":
        return _core_job(spec)
    if kind == "pair":
        return _pair_job(spec)
    if kind == "lift":
        return _lift_job(spec)
    raise ValueError(f"unknown job kind {kind!r}")


def _record_json(rec) -> dict:
    if isinstance(rec, escape.Escaping):
        return {"escaping": rec.first_exit}
    if isinstance(rec, escape.Bounded):
        return {"bounded": rec.kind,
                "diam_exp": None if rec.diam_exp is None else str(rec.diam_exp),
                "preperiod": rec.preperiod, "period": rec.period}
    return {"unknown": rec.budget_spent}


def truncate_series(value, cutoff: Fraction):
    """A series literal ([[e, c], ...]) without its terms at exponent >= cutoff;
    other values unchanged."""
    if isinstance(value, list) and all(
        isinstance(t, list) and len(t) == 2 and all(isinstance(s, str) for s in t)
        for t in value
    ):
        return [t for t in value if Fraction(t[0]) < cutoff]
    return value


def _core_job(spec: dict) -> Output:
    f = serialize.polynomial_from_json(spec["poly"])
    classification, records = escape.classification_report(f)
    tree = core.build_core(f, depth=spec["depth"])
    core_text = core.export_core(tree)
    phi = []
    if spec.get("phi_precision") is not None:
        precision = Fraction(spec["phi_precision"])
        for mark, rec in zip(f.marks, records):
            if isinstance(rec, escape.Escaping):
                w = mark.point
                for _ in range(rec.first_exit):
                    w = f(w)
                value = boettcher.phi_eval(f, w, precision)
                # only the terms below the requested precision are certified
                phi.append(truncate_series(serialize.scalar_to_json(value), precision))
    summary = {
        "classification": classification.value,
        "records": [_record_json(r) for r in records],
        "phi": phi,
    }
    return Output(json.dumps(summary, sort_keys=True) + "\n" + core_text, (tree,))


def _pair_job(spec: dict) -> Output:
    f = serialize.polynomial_from_json(spec["f"])
    g = serialize.polynomial_from_json(spec["g"])
    rho = None if spec["rho"] is None else Fraction(spec["rho"])
    h = conjugacy.build_conjugacy(f, g, rho, depth=spec["depth"])
    report = conjugacy.verify_extendable(h)
    summary = {
        "report": report.to_dict(),
        "rho_bound": serialize.val_str(h.rho_bound.rho_exp),
        "vertex_map": sorted(h.vertex_map.items()),
    }
    return Output(json.dumps(summary, sort_keys=True) + "\n", (h.source, h.target))


def _lift_job(spec: dict) -> Output:
    fc = serialize.raw_coefficients_from_json(spec["f"])
    gc = serialize.raw_coefficients_from_json(spec["g"])
    x = serialize.scalar_from_json(fc[0].backend, spec["x"])
    res = hensel.lift(fc, gc, x, Fraction(spec["target"]))
    summary = {
        "value": serialize.scalar_to_json(res.value),
        "steps": [[serialize.val_str(s.w_valuation), serialize.val_str(s.residual_valuation)]
                  for s in res.iterations],
        "certified": serialize.val_str(res.certified_valuation),
        "displacement": serialize.val_str(res.displacement_valuation),
    }
    return Output(json.dumps(summary, sort_keys=True) + "\n", ())


def judge(expect: dict, out: Output | None, exc: BaseException | None) -> str | None:
    """None when the job's result matches its reference, else the failure class.

    A job may end in one of EXPECTED_ERRORS only when its reference records
    that error; any other exception is a failure named by its class.
    """
    if exc is not None:
        name = type(exc).__name__
        if isinstance(exc, EXPECTED_ERRORS) and expect.get("error") == name:
            return None
        return name
    if expect.get("digest") is None:
        return "UnexpectedSuccess" if "error" in expect else "NoReference"
    if digest(out.text) != expect["digest"]:
        return "DigestMismatch"
    return None
