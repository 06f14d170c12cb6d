"""The tamedyn benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads and their strata live in ``bench/corpus/<workload>.json``
(made by ``bench/corpus.py``).  Every run takes the same jobs; ``--seed``
sets only the order in which they run.

With ``--trace 0`` the benchmark runs every job of the workload in passes,
one job at a time, for ``--seconds`` (the first pass always ends; the last
stops at the deadline), and reports the end-to-end metrics; a job's time is
the mean of its passes.  With ``--trace 1`` it runs the first job of every
stratum alternately without and with the span wrappers of ``spans.py`` for
about ``--seconds`` and reports the per-layer metrics and the tracing overhead.

Every job's output is checked against its reference digest, or its
documented error, outside the timed region; every core tree it builds
is checked for the invariants in ``checks.py`` once per run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 9
# Other tenants of a shared host slow this process down by up to 2.6x, in
# spells that last from a fraction of a second to many minutes; a run of
# half a minute cannot average them out, so raw times of the same code spread
# by up to 30% between runs.  The benchmark therefore times a fixed piece of
# pure-Python work, the gauge, between every two jobs, and divides each job's
# wall time by the mean of the slow-downs the gauges on either side of it
# show: times are reported at the speed of a quiet host.  The gauge has one
# part for each of the program's two kinds of arithmetic, which contention
# slows differently: Fraction arithmetic, like the interpreter-bound work of
# series mul (slowed most), and repeated division of a huge integer by a
# small prime, like the valuations of p-adic orbit heights (C loops, slowed
# least).  A series job is slowed as the first part is; a p-adic job, whose
# exact rationals grow into huge integers next to interpreter-bound work, as
# the geometric mean of both parts.  The gauge runs no tamedyn code, so a
# change to the program moves the scaled times by the same share as the raw
# ones.  A job's time is the mean of its passes.
GAUGE_REF_NS = (650_000, 900_000)  # the two parts' times on a 2 GHz Xeon core of a quiet host
_GAUGE_INT = (5 ** 3000 * 2 ** 9000 + 1) * 5 ** 100
# A fresh process that gets ready for the first job: it imports tamedyn through
# jobs.py, loads the corpus and prints the time.  perf_counter is the
# system-wide monotonic clock, so its reading compares with the parent's.
SETUP_CHILD = ("import json, sys, time; sys.path[:0] = sys.argv[1:3]; import jobs; "
               "json.loads(open(sys.argv[3]).read()); print(time.perf_counter())")

END_TO_END_UNITS = {"throughput_jobs_s": "1/s", "job_ms_p50": "ms", "job_ms_tail": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def gauge() -> tuple[float, float]:
    """How many times slower than on a quiet host each gauge part runs now."""
    t0 = time.perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 200):
        acc = (Fraction(acc.numerator % 100_003, acc.denominator % 100_019 + 1)
               + Fraction(i % 7 + 1, i % 11 + 1))
    t1 = time.perf_counter_ns()
    n = _GAUGE_INT
    while n % 5 == 0:
        n //= 5
    t2 = time.perf_counter_ns()
    return (t1 - t0) / GAUGE_REF_NS[0], (t2 - t1) / GAUGE_REF_NS[1]


def bigint_share(job: dict) -> float:
    """The weight, in log space, of the huge-integer gauge part in a job's
    slow-down: none for series jobs, half for p-adic ones."""
    spec = json.loads(job["input"])
    backend = spec["poly" if "poly" in spec else "f"]["backend"]
    return 0.0 if backend["kind"] == "series" else 0.5


def scaled(wall, before: tuple, after: tuple, share: float = 0.0):
    """A wall time at the speed of a quiet host, from the gauges around it."""
    frac, big = ((b + a) / 2 for b, a in zip(before, after))
    return wall / (frac ** (1 - share) * big ** share)


def setup_seconds(src: Path, corpus_path: Path) -> tuple[float, float]:
    """Median, over SETUP_REPEATS fresh processes, of the time from process
    start until tamedyn is imported and the corpus loaded: (scaled, raw).
    Starting a process mixes work in C with interpreted imports, so it is
    scaled like a p-adic job."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = gauge()
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(src), str(BENCH),
                                str(corpus_path)], capture_output=True, text=True, check=True)
        raw.append(float(child.stdout) - start)
        times.append(scaled(raw[-1], before, gauge(), 0.5))
    return statistics.median(times), statistics.median(raw)


def timed_jobs(corpus: dict) -> list[dict]:
    """The jobs a run times: every job of every stratum not run once."""
    return [job for s in corpus["strata"] if s["kind"] != "once" for job in s["jobs"]]


def marks_of(job: dict) -> int:
    spec = json.loads(job["input"])
    return sum(len(spec[k]["marks"]) for k in ("poly", "f", "g") if "marks" in spec.get(k, {}))


class Runner:
    """Runs jobs, times them and keeps every job's verdict."""

    def __init__(self, jobs_mod, checks_mod):
        self.jobs = jobs_mod
        self.checks = checks_mod
        self.violations: dict[str, list[str]] = {}  # job id -> invariant violations

    def run(self, job: dict, tracer=None):
        """(wall ns, failure class or None, whether that failure is a known defect)."""
        out = exc = None
        if tracer is not None:
            tracer.begin_job(job["id"])
        start = time.perf_counter_ns()
        try:
            out = self.jobs.execute(job["input"])
        except Exception as e:  # the verdict below names every failure by class
            exc = e
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.end_job(marks_of(job))
        failure = self.jobs.judge(job["expect"], out, exc)
        if failure is None and out is not None:
            if job["id"] not in self.violations:
                self.violations[job["id"]] = [
                    v for tree in out.trees for v in self.checks.tree_violations(tree)]
            if self.violations[job["id"]]:
                failure = "InvariantViolated"
        known = failure is not None and failure == job["expect"].get("known_defect")
        return elapsed, failure, known


def tail(durations: list[int]):
    """(value, percentile, jobs beyond it): the job time at the highest
    percentile with at least ten jobs beyond it, or the maximum when there
    are ten jobs or fewer."""
    ordered = sorted(durations)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def report_failures(results):
    counts = collections.Counter(
        (f, known) for _, _, f, known in results if f is not None)
    for (failure, known), n in sorted(counts.items()):
        print(f"  failure {failure}: {n}" + (" (known defect at the seed)" if known else ""))
    for job_id in sorted({j for j, _, f, k in results if f is not None and not k}):
        print(f"  unexpected failure in {job_id}")
    return all(known for _, _, f, known in results if f is not None)


def job_time_metrics(times: dict) -> tuple[dict, float, int]:
    """throughput_jobs_s, job_ms_p50 and job_ms_tail of {job id: [ns of each
    pass]}, a job's time being the mean of its passes; with the tail's
    percentile and the number of jobs beyond it."""
    durations = [statistics.fmean(ns) for ns in times.values()]
    tail_ns, tail_pct, beyond = tail(durations)
    return {"throughput_jobs_s": len(durations) / (sum(durations) / 1e9),
            "job_ms_p50": statistics.median(durations) / 1e6,
            "job_ms_tail": tail_ns / 1e6}, tail_pct, beyond


def run_timed(args, corpus, runner, setup):
    once = [s["jobs"][0] for s in corpus["strata"] if s["kind"] == "once"]
    once_results = [(job["id"], *runner.run(job)) for job in once]
    jobs = timed_jobs(corpus)
    rng = random.Random(f"{args.seed}/{corpus['workload']}")
    times = collections.defaultdict(list)  # job id -> scaled ns of each pass
    raw = collections.defaultdict(list)  # job id -> wall ns of each pass
    shares = {job["id"]: bigint_share(job) for job in jobs}
    gauges = [gauge()]
    verdicts = {}  # job id -> (failure, known) of its first failing pass, else of its first
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for job in rng.sample(jobs, len(jobs)):
            if passes and time.perf_counter() >= deadline:
                break
            ns, failure, known = runner.run(job)
            gauges.append(gauge())
            times[job["id"]].append(scaled(ns, gauges[-2], gauges[-1], shares[job["id"]]))
            raw[job["id"]].append(ns)
            if verdicts.get(job["id"], (None,))[0] is None:
                verdicts[job["id"]] = (failure, known)
        passes += 1
    runs = sum(len(ns) for ns in times.values())
    metrics, tail_pct, beyond = job_time_metrics(times)
    raw_metrics, _, _ = job_time_metrics(raw)
    metrics["setup_s"], raw_metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = [(job_id, statistics.fmean(ns), *verdicts[job_id]) for job_id, ns in times.items()]
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(results)} jobs, each timed in {runs / len(results):.2f} passes on average"
          f" ({passes} begun); the gauge parts ran"
          f" {statistics.median(g[0] for g in gauges):.4g}x (Fraction) and"
          f" {statistics.median(g[1] for g in gauges):.4g}x (huge integer) slower than on a"
          f" quiet host (medians of {len(gauges)})")
    for name, value in metrics.items():
        note = f" (wall time unscaled: {raw_metrics[name]:.6g})" if name in raw_metrics else ""
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}{note}")
    print(f"  job_ms_tail is p{tail_pct:.1f} of {len(results)} jobs ({beyond} beyond it)")
    all_results = results + once_results
    attempted = len(all_results)
    failed = sum(1 for r in all_results if r[2] is not None)
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed}/{attempted}: the timed jobs"
          f" and {len(once_results)} run once)")
    for job_id, ns, _, _ in once_results:
        print(f"  named {job_id}: job_ms = {ns / 1e6:.6g} (wall time, run once, outside the passes)")
    for s in corpus["strata"]:
        if s["kind"] == "named":
            job_id = s["jobs"][0]["id"]
            print(f"  named {job_id}: job_ms = {statistics.fmean(times[job_id]) / 1e6:.6g}"
                  f" (mean of {len(times[job_id])} passes; wall time unscaled:"
                  f" {statistics.fmean(raw[job_id]) / 1e6:.6g})")
    correct = report_failures(all_results)
    return correct, attempted, failed, {
        k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


# layers whose call counts and self times the traced run reports
CALLS = ("valued_field.valuation", "valued_field.mul", "valued_field.nth_root_unit",
         "boettcher.phi_eval", "polynomial.eval", "polynomial.taylor_at",
         "escape.classify_critical", "berkovich.compare", "core.build_core", "hensel.lift")
SELF_MS = ("valued_field.valuation", "valued_field.mul", "valued_field.nth_root_unit",
           "boettcher.phi_eval", "boettcher.rho_closeness", "polynomial.eval",
           "escape.classify_critical", "berkovich.compare", "core.build_core",
           "conjugacy.build_conjugacy", "conjugacy.verify_extendable", "hensel.lift",
           "serialize.parse", "serialize.export")


def layer_values(t) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    c = t.counters
    values = {f"{layer}.calls": (t.calls.get(layer, 0), "count") for layer in CALLS}
    values.update({f"{layer}.self_ms": (t.self_ms(layer), "ms") for layer in SELF_MS})
    taylor = values["polynomial.taylor_at.calls"][0]
    classify = values["escape.classify_critical.calls"][0]
    values.update({
        "valued_field.max_height_bits": (c["max_height_bits"], "bits"),
        "valued_field.max_series_terms": (c["max_series_terms"], "count"),
        "polynomial.taylor_at.repeat_ratio": (
            c["taylor_repeats"] / taylor if taylor else 0.0, "ratio"),
        "escape.classify_per_mark": (classify / c["marks"] if c["marks"] else 0.0,
                                     "calls/mark"),
        "escape.orbit_steps": (c["orbit_steps"], "count"),
        "core.vertices": (c["vertices"], "count"),
        "core.edges": (c["edges"], "count"),
        "hensel.lift.iterations": (c["lift_iterations"], "count"),
    })
    return values


def run_traced(args, corpus, runner, spans_mod):
    """Alternate untraced and traced passes over the first job of every stratum."""
    sample = [s["jobs"][0] for s in corpus["strata"] if s["kind"] != "once"]
    random.Random(f"{args.seed}/{corpus['workload']}").shuffle(sample)
    results, plain_ns, tracers = [], [], []
    start = time.perf_counter()
    last_s = 0.0
    # another pair of passes starts only when it is expected to end in time
    while not tracers or time.perf_counter() - start + last_s <= args.seconds:
        pair_start = time.perf_counter()
        plain = [(job["id"], *runner.run(job)) for job in sample]
        plain_ns.append(sum(ns for _, ns, _, _ in plain))
        tracer = spans_mod.Tracer()
        with spans_mod.installed(tracer):
            results += [(job["id"], *runner.run(job, tracer)) for job in sample]
        results += plain
        tracers.append(tracer)
        last_s = time.perf_counter() - pair_start
    passes = [layer_values(t) for t in tracers]
    metrics = {}
    for name, (value, unit) in passes[0].items():
        if name.endswith("_ms"):
            value = statistics.median(p[name][0] for p in passes)
        metrics[name] = {"value": value, "unit": unit}
    traced_ns = [sum(e - s for j, _, parent, _, s, e in t.spans if parent is None)
                 for t in tracers]
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced_ns) / statistics.median(plain_ns), "unit": "ratio"}
    print(f"workload {args.workload}, seed {args.seed}: traced run, {len(sample)} jobs "
          f"per pass, {len(tracers)} traced and {len(plain_ns)} untraced passes, "
          f"{len(tracers[0].spans)} spans per traced pass")
    mismatched = [n for n in passes[0] if not n.endswith("_ms")
                  if any(p[n] != passes[0][n] for p in passes)]
    for name in mismatched:
        print(f"  counter {name} differs between traced passes")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    selfs = {n: m["value"] for n, m in metrics.items() if n.endswith(".self_ms")}
    top = max(selfs, key=selfs.get)
    print(f"  largest self time: {top}")
    correct = report_failures(results) and not mismatched
    failed = sum(1 for r in results if r[2] is not None)
    return correct, len(results), failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tamedyn benchmark (closed loop, 1 client)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if not (src / "tamedyn" / "__init__.py").is_file():
        print(f"no tamedyn sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    corpus_path = BENCH / "corpus" / f"{args.workload}.json"
    if not corpus_path.is_file():
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    corpus = json.loads(corpus_path.read_text())
    import checks
    import jobs
    import spans

    runner = Runner(jobs, checks)
    if args.trace:
        correct, attempted, failed, metrics = run_traced(args, corpus, runner, spans)
    else:
        correct, attempted, failed, metrics = run_timed(
            args, corpus, runner, setup_seconds(src, corpus_path))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
