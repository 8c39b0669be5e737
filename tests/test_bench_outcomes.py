"""Same behaviour as the recorded reference, checked in tier-1: a
stratified sample of the benchmark pools (``bench/corpus.py``) must give
the outcomes recorded in ``bench/seed_digests.json``.

The sample is the first 120 problems of each workload's seed-1 order, and
the whole ``chains`` pool, which runs every phase of ``unifseq``.  An
``ok:`` or ``no:`` outcome is checked by the digest of the trace's
``steps``, ``witnesses`` and ``verdict``; a recorded escape by the type of
the exception it raised.  Every recorded escape of a pool is checked too,
since the seed-1 sample holds none.  The files are only read."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from valmono.trace import run_problem

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402  (bench/ is not a package)

SAMPLE = 120
RECORDED = json.loads((BENCH / "seed_digests.json").read_text(encoding="utf-8"))


def _outcome(problem: dict) -> str:
    try:
        trace = run_problem(problem)
    except Exception as exc:  # an escape is a recorded outcome
        return f"raise:{type(exc).__name__}"
    return ("ok:" if trace["verdict"]["ok"] else "no:") + corpus.outcome_digest(trace)


@pytest.fixture(scope="module", params=corpus.WORKLOADS)
def workload(request):
    name = request.param
    pool = corpus.pool(name)
    record = RECORDED["workloads"][name]
    assert corpus.pool_digest(pool) == record["pool_digest"]  # the generators did not drift
    return name, pool, record["outcomes"]


def test_seed_one_sample_matches_recorded_outcomes(workload):
    name, pool, outcomes = workload
    picked = corpus.order(name, 1, pool)[:SAMPLE]
    got = {k: _outcome(pool[k]) for k in picked}
    assert got == {k: outcomes[k] for k in picked}


def test_recorded_escapes_keep_their_type(workload):
    _, pool, outcomes = workload
    escapes = [k for k, o in enumerate(outcomes) if o.startswith("raise:")]
    assert {k: _outcome(pool[k]) for k in escapes} == {k: outcomes[k] for k in escapes}


def test_every_chains_problem_matches_recorded_outcome():
    pool = corpus.pool("chains")
    record = RECORDED["workloads"]["chains"]
    assert corpus.pool_digest(pool) == record["pool_digest"]
    assert [_outcome(p) for p in pool] == record["outcomes"]
