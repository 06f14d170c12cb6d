"""Today's outputs of the corpus jobs recorded with a known defect.

These are ROADMAP item 1's wrong outputs: the series-core jobs whose
reference ``tests/test_corpus.py`` and the benchmark accept any
``DigestMismatch`` or ``PreconditionViolated`` for, because ``SeriesT``
has no real precision model yet.  They are pinned only to catch an
unintended change: a change that alters them on purpose updates the pins
here and lists the old and new values.  Each pin is the SHA-256 of the
job's output text, or its exception class and message.
"""

import hashlib

import pytest

from test_corpus import JOBS, jobs  # the corpus and its job runner, from bench/

NO_ROOT = ("PreconditionViolated", "nth_root_unit requires valuation(u - 1) > 0")

PINNED = {
    "series-core/item2-truncation-d2/0": NO_ROOT,
    "series-core/quartic-series8-d1/0": NO_ROOT,
    "series-core/cubic-r1-t12-d1/0":
        "04a06d4733a5cfb1c32401a75243d9e26d7f2cdaa2166807aabc799588a3e2e8",
    "series-core/cubic-r1-t12-d1/1":
        "1eb2ba88c8075c4bbaa4b984af84ff9ef4b4f278494cd2aa64bce4dedf76a3a5",
    "series-core/cubic-r1-t12-d1/2":
        "d8bded7def238b18b3472858318bea9c754dea51a880790f2d708573782382fd",
    "series-core/cubic-r1-t16-d2/0":
        "6511775e7302d6a3e4ff708622e5b7d2c747dd49396deb0dcb9b836f5fdbb0cf",
    "series-core/cubic-r1-t16-d2/1":
        "03bef89cd39268dfe699521ca0761a3c3c5a457956ae1d7981f65447559910e4",
    "series-core/cubic-r1-t16-d2/2":
        "fe8e7987b84ae0891747034eabd3590fc8f7693c5eac7dd54c99f574bd989376",
    "series-core/cubic-r1-t12-d3/0":
        "618ca8618b7bd7e2786fa15bed5ccf78b43347664305f3de7785b79f56877942",
    "series-core/cubic-r1-t12-d3/1":
        "11b369eb31b0a55a32b581bbef72ff1c62e48af2fa7204cea7713f7cb47be9ea",
    "series-core/cubic-r1-t12-d3/2":
        "7ece13b557dac69a6794e6e2935a6022aab0b9beb1b231e9a702903f894a99a0",
    "series-core/cubic-r2-t10-d1/0": NO_ROOT,
    "series-core/cubic-r2-t10-d1/1": NO_ROOT,
    "series-core/cubic-r2-t10-d1/2": NO_ROOT,
    "series-core/cubic-r2-t8-d2/0":
        "f6c7e75cf39b7d36520e6457226f2c95d96cf223d3e3a6e9acc497745914e262",
    "series-core/cubic-r2-t8-d2/1":
        "5f63ab7d7f16a4bffcb4d0b32a21bfc10c7822fdea23b5673401c9467cabcc20",
    "series-core/cubic-r2-t8-d2/2":
        "29f6444747b64313465caa1201cb6274158b0f14a63be0dca66d92757422e68e",
    "series-core/cubic-r3-t6-d1/0":
        "d1e0db30b356dc7f846fa98f4191ad4e78c2e941d850792076346aedefe34218",
    "series-core/cubic-r3-t6-d1/1":
        "dd77ba2de60253df3fefd0108b925df7c1349f39eaf839b4c60f6ad91a7c9c7b",
    "series-core/cubic-r3-t6-d1/2":
        "2f09738f774855489efc31ed29b50f862500772e347a6a4dfc7125d2c0680f4c",
    "series-core/cubic-r1-t20-d2/0": NO_ROOT,
    "series-core/cubic-r1-t20-d2/1": NO_ROOT,
    "series-core/cubic-r1-t20-d2/2": NO_ROOT,
}


def test_the_pins_are_the_known_defects():
    assert sorted(PINNED) == sorted(j for j, job in JOBS.items() if j.startswith("series-core/")
                                    and "known_defect" in job["expect"])


@pytest.mark.parametrize("job_id", sorted(PINNED))
def test_known_defect_output_is_unchanged(job_id):
    try:
        out = hashlib.sha256(jobs.execute(JOBS[job_id]["input"]).text.encode()).hexdigest()
    except Exception as e:  # the pin records the exception
        out = (type(e).__name__, str(e))
    assert out == PINNED[job_id]
