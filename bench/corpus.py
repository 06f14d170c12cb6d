"""Generate the benchmark corpus and its reference outputs.

    python3 bench/corpus.py

writes ``bench/corpus/<workload>.json`` for every workload.  Each workload
is a list of strata; a stratum is one job recipe (family, prime, depth,
...) with a few seeded variants, or a single named job such as a ROADMAP
baseline case.  A benchmark run takes every job of its workload, so the
job mix is the same whatever ``--seed`` the run uses.  The corpus is
regenerated only on purpose, and the baseline is measured again after it
changes.

Each job records its reference: the SHA-256 digest of its exported
result, or the documented error it ends in.  References are computed with
Python's integer-to-string digit limit lifted.  ``SeriesT`` jobs are run
again at twice and at four times their cutoff; the reference is the
result cut below the cutoff, pinned only where the two agree.  When the
result at the seed differs from its reference, the job keeps the
reference and records the failure the seed shows instead as
``known_defect``: it counts as failed, and its wrong value is not pinned.
Each stratum also records how its variants fare at the seed
(``outcomes``) and how many draws were malformed inputs and drawn again
(``redrawn``), both by class.
"""

from __future__ import annotations

import collections
import contextlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from jobs import EXPECTED_ERRORS, digest, execute, judge, truncate_series  # noqa: E402
from tamedyn import escape, serialize  # noqa: E402
from tamedyn.errors import TamedynError  # noqa: E402

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
POOL_SEED = 0  # seeds the draws of every stratum
# variants per random stratum: series jobs cost ten times more than the others
VARIANTS = {"padic-core": 6, "series-core": 3, "conjugacy-pairs": 6, "bounded-grid": 6}
# phi_eval precision of a random series job, as a share of its cutoff: one
# third, or two thirds as in the named item-2 case (20 of 30), on alternate strata
PHI_SHARES = (Fraction(1, 3), Fraction(2, 3))


# -- literals -------------------------------------------------------------


def padic(p):
    return {"kind": "padic", "p": p}


def series(precision, ram_den=1):
    return {"kind": "series", "precision": str(precision), "ram_den": ram_den}


def poly(backend, marks, b):
    return {"backend": backend, "marks": [{"c": c, "mult": m} for c, m in marks], "b": b}


# -- recipes: rng -> job spec ---------------------------------------------
# A stratum fixes everything that sets a job's cost (family, prime,
# valuations, depth); its variants differ in units and signs only.


def unit(rng, p):
    return rng.choice([1, -1]) * rng.choice([u for u in range(1, 10) if u % p])


def pv(rng, p, v):
    """A rational of p-adic valuation v with a small random unit."""
    return Fraction(unit(rng, p)) * Fraction(p) ** v


def padic_quad(p, vb, depth):
    def make(rng):
        return {"kind": "core", "poly": poly(padic(p), [("0", 2)], str(pv(rng, p, vb))),
                "depth": depth}
    return make


def padic_cubic(p, vc, vb, depth):
    def make(rng):
        c = pv(rng, p, vc)
        return {"kind": "core",
                "poly": poly(padic(p), [(str(c), 2), (str(-c), 2)], str(pv(rng, p, vb))),
                "depth": depth}
    return make


def padic_quartic(p, va, vb, v0, depth):
    def make(rng):
        a, b = pv(rng, p, va), pv(rng, p, vb)
        if len({a, b, -a - b}) < 3:
            return None
        marks = [(str(a), 2), (str(b), 2), (str(-a - b), 2)]
        return {"kind": "core", "poly": poly(padic(p), marks, str(pv(rng, p, v0))),
                "depth": depth}
    return make


def st(rng, exps, r):
    """A series literal with the given exponents (multiples of 1/r) and
    small random coefficients."""
    return [[str(Fraction(e, r)), str(rng.choice([1, -1, 2, -2, 3]) if i == 0
                                      else rng.randint(-3, 3) or 1)]
            for i, e in enumerate(exps)]


def series_neg(a):
    return [[e, str(-Fraction(c))] for e, c in a]


def series_cubic(r, precision, depth, phi_share):
    """Marks +-(lead t^(-1/r) + one higher term), b of valuation -3/r."""
    def make(rng):
        c = st(rng, [-1, rng.randint(1, precision * r // 2)], r)
        b = st(rng, [-3, rng.randint(-2, 0)], r)
        return {"kind": "core", "poly": poly(series(precision, r), [(c, 2), (series_neg(c), 2)], b),
                "depth": depth, "phi_precision": str(precision * phi_share)}
    return make


def pair_job(degree, p, how, depth):
    """f against g = f with b moved by p^k, or its marks moved by p^k."""
    def make(rng):
        b = pv(rng, p, -2)
        if degree == 2:
            f = poly(padic(p), [("0", 2)], str(b))
        else:
            c = pv(rng, p, -1)
            f = poly(padic(p), [(str(c), 2), (str(-c), 2)], str(b))
        k, rho = {"b": (rng.randint(2, 5), None), "c": (rng.randint(2, 4), "1"),
                  "shift": (0, "3"), "far": (-1, None)}[how]
        delta = Fraction(p) ** k * unit(rng, p)
        if how == "b":
            g = dict(f, b=str(b + delta))
        else:
            g = dict(f, marks=[{"c": str(c + delta), "mult": 2},
                               {"c": str(-c - delta), "mult": 2}])
        return {"kind": "pair", "f": f, "g": g, "rho": rho, "depth": depth}
    return make


def bounded_core(degree, primes, guard):
    """Orbits inside the unit base disk: `guard` picks those stopped by the
    height guard, otherwise those that cycle."""
    def make(rng):
        p = rng.choice(primes)
        # the quadratic cycles are at b = 0, -1, -2; fractions all reach the guard
        small = [Fraction(n, m) for n in range(-3, 4) for m in ((1, 2, 3, 4) if guard else (1,))
                 if m % p]
        b = rng.choice(small)
        if degree == 2:
            marks = [("0", 2)]
        else:
            c = rng.choice([s for s in small if s])
            marks = [(str(c), 2), (str(-c), 2)]
        spec = {"kind": "core", "poly": poly(padic(p), marks, str(b)), "depth": 2}
        try:
            f = serialize.polynomial_from_json(spec["poly"])
            records = escape.classification_report(f)[1]
        except TamedynError:
            return None
        cycles = all(isinstance(r, escape.Bounded) and r.period > 0 for r in records)
        stopped = all(isinstance(r, escape.Bounded) and r.period == 0 for r in records)
        return spec if (stopped if guard else cycles) else None
    return make


def lift_job(p, target):
    def make(rng):
        f = [rng.randint(-4, 4) for _ in range(rng.choice([3, 4]))]
        f[1] = unit(rng, p)
        k = rng.randint(1, 3)
        g = [a + p ** k * rng.randint(-2, 2) for a in f]
        return {"kind": "lift", "f": {"backend": padic(p), "coeffs": [str(a) for a in f]},
                "g": {"backend": padic(p), "coeffs": [str(a) for a in g]},
                "x": str(p * rng.randint(-2, 2)), "target": str(target)}
    return make


# -- named jobs -------------------------------------------------------------

BASELINE_CUBIC5 = poly(padic(5), [("1/5", 2), ("-1/5", 2)], "1/25")
T30 = series(30)
BASELINE_SERIES = poly(T30, [([["-1", "1"]], 2), ([["-1", "-1"]], 2)], [["-4", "1"]])
ITEM2_SERIES = poly(T30, [([["-1", "1"], ["25", "1"]], 2), ([["-1", "-1"], ["25", "-1"]], 2)],
                    [["-4", "1"], ["28", "1"]])
SERIES_QUARTIC = poly(series(8), [([["-1", "-2"], ["3", "1"]], 2), ([["-1", "-1"]], 2),
                                   ([["-1", "3"], ["3", "-1"]], 2)], [["-4", "3"], ["-2", "-2"]])
# its export holds integers over Python's 4300-digit str() limit
DIGIT_LIMIT_CUBIC = poly(padic(5), [("35/3", 2), ("-35/3", 2)], "-13/25")


def named(spec):
    return lambda rng: spec


def workloads():
    """Workload name -> list of (stratum name, recipe, kind), kind being
    "loop" (a random stratum), "named" (one fixed job in every pass) or
    "once" (one fixed job run once per run, outside the timed passes)."""
    padic_core = [(f"baseline-cubic5-d{d}",
                   named({"kind": "core", "poly": BASELINE_CUBIC5, "depth": d}), "named")
                  for d in range(2, 7)]
    padic_core += [("baseline-cubic5-d7",
                    named({"kind": "core", "poly": BASELINE_CUBIC5, "depth": 7}), "once"),
                   ("digit-limit-cubic5-d6",
                    named({"kind": "core", "poly": DIGIT_LIMIT_CUBIC, "depth": 6}), "once")]
    # 17 strata in the passes: the 77 jobs are 38 below 20 ms, 18 of 23-30 ms
    # and 21 dearer ones, so that job_ms_p50 falls in the middle of the 23-30 ms
    # group; with the median at the group's edge, it jumped between groups
    padic_core += [(f"quad-p{p}-v{vb}-d{d}", padic_quad(p, vb, d), "loop")
                   for p, vb, d in ((7, -3, 6), (3, -3, 7))]
    padic_core += [(f"cubic-p{p}-v{vc}{vb}-d{d}", padic_cubic(p, vc, vb, d), "loop")
                   for p, vc, vb, d in ((5, -1, -2, 3), (5, -1, -2, 4), (5, -1, -2, 5),
                                        (7, 0, -2, 4), (5, -1, -2, 6))]
    padic_core += [(f"quartic-p{p}-d{d}", padic_quartic(p, -1, -1, -2, d), "loop")
                   for p, d in ((5, 2), (7, 2), (5, 3), (7, 3), (5, 4))]

    series_core = [
        ("baseline-series30-cubic-d3",
         named({"kind": "core", "poly": BASELINE_SERIES, "depth": 3,
                "phi_precision": "10"}), "once"),
        ("baseline-series30-cubic-d2",
         named({"kind": "core", "poly": BASELINE_SERIES, "depth": 2,
                "phi_precision": "10"}), "named"),
        ("item2-truncation-d2",
         named({"kind": "core", "poly": ITEM2_SERIES, "depth": 2,
                "phi_precision": "20"}), "named"),
        # a quartic costs several cubics: one fixed job keeps the pass short
        ("quartic-series8-d1",
         named({"kind": "core", "poly": SERIES_QUARTIC, "depth": 1, "phi_precision": "8/3"}),
         "named"),
    ]
    series_core += [(f"cubic-r{r}-t{t}-d{d}", series_cubic(r, t, d, PHI_SHARES[i % 2]), "loop")
                    for i, (r, t, d) in enumerate(((1, 12, 1), (1, 16, 2), (1, 12, 3), (2, 10, 1),
                                                   (2, 8, 2), (3, 6, 1), (3, 8, 2), (1, 20, 2)))]

    pairs = [
        ("baseline-conjugate-pair",
         named({"kind": "pair", "f": BASELINE_CUBIC5,
                "g": dict(BASELINE_CUBIC5, b=str(Fraction(1, 25) + 5 ** 4)),
                "rho": None, "depth": 4}), "named"),
        ("baseline-nonconjugate-pair",
         named({"kind": "pair", "f": BASELINE_CUBIC5,
                "g": poly(padic(5), [("2/5", 2), ("-2/5", 2)], "1/25"),
                "rho": None, "depth": 4}), "named"),
        ("baseline-notcomparable-rho3",
         named({"kind": "pair", "f": BASELINE_CUBIC5,
                "g": poly(padic(5), [("6/5", 2), ("-6/5", 2)], "1/25"),
                "rho": "3", "depth": 4}), "named"),
    ]
    # the 75 jobs are 16 cheap ones (about 2 ms), 12 quadratics (6-12 ms), 29
    # cubics of about 20 ms and 18 dearer ones: job_ms_p50 falls in the middle
    # of the 20 ms group, not between two groups
    pairs += [(f"cubic-p{p}-{how}-d{d}", pair_job(3, p, how, d), "loop")
              for p, how, d in ((5, "b", 4), (5, "b", 5), (7, "b", 4), (5, "c", 4), (7, "c", 4),
                                (5, "shift", 4), (7, "shift", 4), (5, "far", 4), (7, "far", 5),
                                (7, "b", 5))]
    pairs += [(f"quad-p{p}-b-d{d}", pair_job(2, p, "b", d), "loop")
              for p, d in ((5, 4), (7, 6))]

    # 5 strata of lifts and cycles (about 1 ms), 3 quadratic guard strata
    # (about 12 ms) and 5 cubic guard strata (about 70 ms): job_ms_p50 falls
    # in the middle of the quadratic guard jobs, not between two strata
    bounded = [(f"quad-cycle-{i}", bounded_core(2, (3, 5, 7), False), "loop") for i in (1, 2)]
    bounded += [(f"quad-guard-p{p}", bounded_core(2, (p,), True), "loop") for p in (3, 5, 7)]
    bounded += [(f"cubic-guard-{i}", bounded_core(3, (5, 7), True), "loop") for i in range(1, 6)]
    bounded += [(f"lift-p{p}-t{t}", lift_job(p, t), "loop")
                for p, t in ((3, 20), (5, 80), (7, 80))]

    return {"padic-core": padic_core, "series-core": series_core,
            "conjugacy-pairs": pairs, "bounded-grid": bounded}


# -- references ---------------------------------------------------------------


@contextlib.contextmanager
def unlimited_int_digits():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _attempt(text):
    try:
        return execute(text), None
    except Exception as exc:  # every failure is recorded by class
        return None, exc


def _polys(spec):
    return [spec[k] for k in ("poly", "f", "g") if k in spec]


def _series_cutoff(spec):
    backend = _polys(spec)[0]["backend"]
    return Fraction(backend["precision"]) if backend["kind"] == "series" else None


def _walk_truncate(value, cutoff):
    value = truncate_series(value, cutoff)
    if isinstance(value, dict):
        return {k: _walk_truncate(v, cutoff) for k, v in value.items()}
    if isinstance(value, list):
        return [_walk_truncate(v, cutoff) for v in value]
    return value


def truncated_text(text, cutoff):
    """An exported result with every series literal cut below `cutoff`."""
    summary, rest = text.split("\n", 1)
    out = json.dumps(_walk_truncate(json.loads(summary), cutoff), sort_keys=True) + "\n"
    if rest:
        out += json.dumps(_walk_truncate(json.loads(rest), cutoff), indent=2,
                          sort_keys=True) + "\n"
    return out


def _expect(out, exc, cutoff):
    """The reference an outcome gives: its digest (with series cut below
    `cutoff`), its documented error, or no digest at all."""
    if exc is None:
        text = out.text if cutoff is None else truncated_text(out.text, cutoff)
        return {"digest": digest(text)}
    if isinstance(exc, EXPECTED_ERRORS):
        return {"error": type(exc).__name__}
    return {"digest": None}


def _at_cutoff(spec, cutoff):
    """The outcome of a job with its series backends set to `cutoff`."""
    spec = json.loads(json.dumps(spec))
    for p in _polys(spec):
        p["backend"]["precision"] = str(cutoff)
    with unlimited_int_digits():
        return _attempt(json.dumps(spec, sort_keys=True))


def reference(spec) -> dict:
    """The expected outcome of a job, and the failure the seed shows if it
    differs."""
    text = json.dumps(spec, sort_keys=True)
    cutoff = _series_cutoff(spec)
    if cutoff is None:
        with unlimited_int_digits():
            expect = _expect(*_attempt(text), None)
    else:
        expect = _expect(*_at_cutoff(spec, 2 * cutoff), cutoff)
        if expect != _expect(*_at_cutoff(spec, 4 * cutoff), cutoff):
            # the result below the cutoff has not settled at twice the cutoff
            expect = {"digest": None, "unverified": True}
    defect = judge(expect, *_attempt(text))
    if defect is not None:
        expect["known_defect"] = defect
    return expect


# malformed draws are redrawn: they are input errors, not program results
REDRAW = ("NotTame", "HypothesisViolated", "InvalidMarks", "ContractionFailed")


def build_workload(name, strata):
    """Draw every stratum's variants and compute their references.

    A random stratum keeps its first VARIANTS valid draws, whatever their
    cost or outcome; malformed draws are drawn again and counted.
    """
    out = []
    for stratum, make, kind in strata:
        rng = random.Random(f"{POOL_SEED}/{name}/{stratum}")
        want = VARIANTS[name] if kind == "loop" else 1
        texts, redrawn = [], collections.Counter()
        for _ in range(40 * want):
            if len(texts) == want:
                break
            spec = make(rng)
            text = None if spec is None else json.dumps(spec, sort_keys=True)
            if text is None or text in texts:
                continue
            error = type(_attempt(text)[1]).__name__
            if kind == "loop" and error in REDRAW:
                redrawn[error] += 1
                continue
            texts.append(text)
        if len(texts) < want:
            raise RuntimeError(f"{name}/{stratum}: too few usable variants")
        jobs = [{"id": f"{name}/{stratum}/{i}", "input": text,
                 "expect": reference(json.loads(text))} for i, text in enumerate(texts)]
        outcomes = collections.Counter(j["expect"].get("known_defect", "ok") for j in jobs)
        out.append({"name": stratum, "kind": kind,
                    "outcomes": dict(sorted(outcomes.items())),
                    "redrawn": dict(sorted(redrawn.items())), "jobs": jobs})
        print(f"{name}/{stratum}: {len(jobs)} jobs, outcomes {dict(outcomes)}", flush=True)
    return {"workload": name, "strata": out}


def main():
    CORPUS_DIR.mkdir(exist_ok=True)
    for name, strata in workloads().items():
        data = build_workload(name, strata)
        (CORPUS_DIR / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
