"""Every fixed benchmark job prints exactly its recorded golden output.

The jobs are the non-seeded ones of perfbench/workloads.json; the records
(exit code, SHA-256 and size of stdout, and stdout itself when short) are
perfbench/golden.json.  Both files are only read here.  This is the check
the benchmark makes on every job, run once in the test suite so that a
change to any printed number fails here first.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from scalg.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
JOBS = [argv for workload in WORKLOADS.values() for argv in workload["jobs"]
        if argv[0] != "property-test"]  # seeded: no golden record


def test_every_fixed_job_has_a_golden_record():
    assert JOBS and all(" ".join(argv) in GOLDEN for argv in JOBS)


@pytest.mark.parametrize("argv", JOBS, ids=[" ".join(argv) for argv in JOBS])
def test_job_matches_golden(argv):
    want = GOLDEN[" ".join(argv)]
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    text = out.getvalue()
    assert code == want["exit"]
    if want["stdout"] is not None:
        assert text == want["stdout"]
    data = text.encode("utf-8")
    assert len(data) == want["bytes"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]
