"""Every job of the benchmark's pinned corpus against its recorded reference.

    python3 -m pytest tests/test_corpus.py

Each job of ``bench/corpus/*.json`` runs once through ``bench/jobs.py`` and is
judged as the benchmark judges it: its export's digest or its error against
the reference, and every core tree it builds against the invariants of
``bench/checks.py``.  A job passes when it has no failure, or exactly the
failure the corpus records as its known defect.  The corpus files are only
read.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import jobs  # noqa: E402

JOBS = {job["id"]: job
        for path in sorted((BENCH / "corpus").glob("*.json"))
        for stratum in json.loads(path.read_text())["strata"]
        for job in stratum["jobs"]}


@pytest.mark.parametrize("job_id", sorted(JOBS))
def test_job_matches_its_reference(job_id):
    job = JOBS[job_id]
    out = exc = None
    try:
        out = jobs.execute(job["input"])
    except Exception as e:  # judged below, by class
        exc = e
    failure = jobs.judge(job["expect"], out, exc)
    if failure is None and out is not None:
        violations = [v for tree in out.trees for v in checks.tree_violations(tree)]
        assert not violations
    assert failure is None or failure == job["expect"].get("known_defect")
