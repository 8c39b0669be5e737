"""One hash per benchmark pool of the full traces of its problems.

Every problem of the three pools of ``bench/corpus.py`` (6800 in all) goes
through ``trace.run_problem`` of the checkout that holds this script.  Each
trace, with ``header.created`` dropped, is written as sorted compact JSON
and fed in pool order into one SHA-256 per pool.  A problem whose run
raises is fed as its exception's type name and message instead.

    python tools/pool_hashes.py

Two checkouts that print the same three lines write byte-identical traces
for the whole pool, refusals and escapes included.  The script only reads
``bench/corpus.py`` and writes nothing.  It takes a few seconds, and the
test suite does not run it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pool_hash(problems, run_problem) -> tuple[str, int]:
    """(hex SHA-256 of the problems' traces, number of escapes)."""
    h = hashlib.sha256()
    escapes = 0
    for problem in problems:
        try:
            trace = run_problem(problem)
            del trace["header"]["created"]
            record = trace
        except Exception as exc:  # an escape is part of the behaviour
            escapes += 1
            record = {"escape": type(exc).__name__, "message": str(exc)}
        h.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest(), escapes


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import corpus
    from valmono.trace import run_problem

    for workload in corpus.WORKLOADS:
        problems = corpus.pool(workload)
        digest, escapes = pool_hash(problems, run_problem)
        print(f"{workload} {len(problems)} problems, {escapes} escapes: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
