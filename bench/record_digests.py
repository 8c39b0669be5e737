"""Record the seed commit's outcome for every pool problem.

    PYTHONPATH=src python3 bench/record_digests.py

Writes ``bench/seed_digests.json``: per workload, the digest of the
generated pool and one outcome per pool entry (``ok:`` or ``no:`` plus a
digest of ``steps``, ``witnesses`` and ``verdict``, or ``raise:<type>``
for an exception that escaped ``run_problem``).  ``run.py`` compares every
run against this file, so rerun it only at a commit whose outputs are the
reference.
"""

from __future__ import annotations

import json
from pathlib import Path

import corpus
from worker import attempt

OUT = Path(__file__).resolve().parent / "seed_digests.json"


def main() -> None:
    record = {"pool_seed": corpus.POOL_SEED, "workloads": {}}
    for name in corpus.WORKLOADS:
        pool = corpus.pool(name)
        outcomes = []
        for problem in pool:
            _, outcome = attempt(problem)
            outcomes.append(outcome.split(": ")[0])  # drop an escape's message
        record["workloads"][name] = {"pool_digest": corpus.pool_digest(pool), "outcomes": outcomes}
        print(name, len(pool), sum(o.startswith("raise:") for o in outcomes), "escapes")
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
