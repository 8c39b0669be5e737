"""One hash per benchmark pool of the full traces of its problems.

Every problem of the three pools of ``bench/corpus.py`` (6800 in all) goes
through ``trace.run_problem`` of the checkout that holds this script.  Each
trace, with ``header.created`` dropped, is written as sorted compact JSON
and fed in pool order into one SHA-256 per pool.  A problem whose run
raises is fed as its exception's type name and message instead.

    python tools/pool_hashes.py [--workload NAME] [--verify]

Two checkouts that print the same three lines write byte-identical traces
for the whole pool, refusals and escapes included.  ``--workload NAME``
hashes that pool alone.  ``--verify`` also replays every ``ok`` trace
through ``trace.verify_trace`` and prints, after each pool's line, how many
it replayed and how many failed (0 when every run reproduces itself).
The script only reads ``bench/corpus.py`` and writes nothing.  It takes a
few seconds (half as long again with ``--verify``), and the test
suite does not run it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pool_hash(problems, run_problem, verify_trace=None) -> tuple[str, int, int, int]:
    """(hex SHA-256 of the problems' traces, number of escapes, number of
    ``ok`` traces replayed by ``verify_trace`` when one is given, number of
    those that failed)."""
    h = hashlib.sha256()
    escapes = replayed = failed = 0
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
        if verify_trace is not None and record.get("verdict", {}).get("ok"):
            replayed += 1
            try:
                verify_trace(record)
            except Exception:
                failed += 1
    return h.hexdigest(), escapes, replayed, failed


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import corpus
    from valmono.trace import run_problem, verify_trace

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, help="hash this pool alone")
    parser.add_argument("--verify", action="store_true", help="replay every ok trace")
    args = parser.parse_args(argv)
    for workload in [args.workload] if args.workload else corpus.WORKLOADS:
        problems = corpus.pool(workload)
        digest, escapes, replayed, failed = pool_hash(
            problems, run_problem, verify_trace if args.verify else None
        )
        print(f"{workload} {len(problems)} problems, {escapes} escapes: {digest}")
        if args.verify:
            print(f"{workload} verify: {replayed} ok traces replayed, {failed} failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
