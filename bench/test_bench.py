"""Tests of the benchmark's traced run and of its time scaling.

    python3 -m pytest bench/test_bench.py

The counters a later change is judged by must repeat exactly between two
traced passes, the recorded spans must form one properly nested tree per
job, and a job's wall time is divided by the slow-down of its gauges.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402
from run import Runner, bigint_share, layer_values, scaled  # noqa: E402

# cheap jobs that together reach every layer
SAMPLE = {
    "padic-core": ["baseline-cubic5-d2", "baseline-cubic5-d4", "quad-p7-v-3-d6", "quartic-p5-d2"],
    "series-core": ["cubic-r1-t12-d1", "cubic-r3-t6-d1"],
    "conjugacy-pairs": ["baseline-conjugate-pair", "baseline-notcomparable-rho3",
                        "cubic-p5-b-d4"],
    "bounded-grid": ["quad-cycle-1", "quad-guard-p3", "lift-p3-t20"],
}
EXACT = ("valued_field.max_height_bits", "valued_field.max_series_terms", "core.vertices",
         "core.edges", "escape.orbit_steps", "escape.classify_per_mark",
         "polynomial.taylor_at.repeat_ratio", "hensel.lift.iterations")


def sample_jobs():
    out = []
    for workload, strata in SAMPLE.items():
        corpus = json.loads((BENCH / "corpus" / f"{workload}.json").read_text())
        by_name = {s["name"]: s["jobs"] for s in corpus["strata"]}
        out += [by_name[name][0] for name in strata]
    return out


def traced_pass(job_list):
    runner = Runner(jobs, checks)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        verdicts = [runner.run(job, tracer)[1:] for job in job_list]
    return tracer, verdicts


def test_counters_repeat_between_traced_runs():
    job_list = sample_jobs()
    first, verdicts = traced_pass(job_list)
    second, _ = traced_pass(job_list)
    a, b = layer_values(first), layer_values(second)
    repeatable = [n for n in a if n.endswith(".calls") or n in EXACT]
    assert {n: a[n] for n in repeatable} == {n: b[n] for n in repeatable}
    assert a["core.vertices"][0] > 0 and a["valued_field.max_series_terms"][0] > 0
    assert all(failure is None or known for failure, known in verdicts)


def test_spans_nest_with_one_job_id_per_job():
    job_list = sample_jobs()
    tracer, _ = traced_pass(job_list)
    by_id = {s[1]: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s[2] is None]
    assert [s[0] for s in roots] == [job["id"] for job in job_list]
    assert all(s[3] == "job" for s in roots)
    for job_id, span_id, parent, layer, start, end in tracer.spans:
        assert start <= end
        if parent is None:
            continue
        p_job, _, _, _, p_start, p_end = by_id[parent]
        assert p_job == job_id
        assert p_start <= start and end <= p_end
    assert set(tracer.calls) >= set(spans.LAYERS)


def test_wrappers_are_removed_after_the_traced_pass():
    from tamedyn import core
    from tamedyn.valued_field import Scalar

    original_mul, original_build = Scalar.__mul__, core.build_core
    traced_pass(sample_jobs()[:1])
    assert Scalar.__mul__ is original_mul and core.build_core is original_build


def test_scaling_divides_by_the_slow_down_of_the_gauges():
    assert scaled(100, (2.0, 1.0), (2.0, 1.0)) == 50
    assert scaled(100, (3.0, 1.0), (1.0, 1.0)) == 50  # the mean of the gauges around a job
    assert scaled(100, (4.0, 1.0), (4.0, 1.0), 0.5) == 50  # geometric mean of the parts
    by_id = {job["id"]: job for job in sample_jobs()}
    assert bigint_share(by_id["series-core/cubic-r1-t12-d1/0"]) == 0.0
    assert bigint_share(by_id["conjugacy-pairs/cubic-p5-b-d4/0"]) == 0.5
    assert bigint_share(by_id["bounded-grid/lift-p3-t20/0"]) == 0.5
