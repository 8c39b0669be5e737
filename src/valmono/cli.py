"""Batch front-end: run problems, emit replayable traces, re-verify traces.

Exit codes: 0 success, 2 schema error or an unreadable or unwritable file,
3 algorithm error, 4 trace mismatch during verification.  On an algorithm
error the trace is still written, with its header, input and failure
verdict but no step records (``"steps": []``).
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys
from pathlib import Path

from .errors import SchemaError, TraceMismatchError
from .game import DEFAULT_BUDGET
from .trace import run_problem, verify_trace

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_ALGORITHM = 3
EXIT_MISMATCH = 4


def _load_json(path: str):
    """The decoded file.  The cyclic collector is paused while ``json``
    decodes: the result is an acyclic tree, so a pass could free nothing,
    and a large batch would otherwise trigger many."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # such as an integer longer than int() reads
        raise SchemaError(f"malformed JSON: {exc}") from None
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from None
    finally:
        if enabled:
            gc.enable()


def _unwritable(path: str) -> str | None:
    """Why ``path`` cannot be written, as far as can be told before the
    batch runs (a missing parent directory, or a directory as the target);
    None when it looks writable."""
    target = Path(path)
    if target.is_dir():
        return os.strerror(errno.EISDIR)
    if not target.parent.is_dir():
        return os.strerror(errno.ENOTDIR if target.parent.exists() else errno.ENOENT)
    return None


def _run_one(args) -> tuple[dict, str]:
    """Run one problem and serialize its trace where it ran, so a worker
    hands back one string instead of a nested object graph.  The text is
    compact ``json.dumps(trace)``: only without ``indent`` does ``json``
    use its C encoder."""
    problem, budget = args
    trace = run_problem(problem, budget)
    return trace["verdict"], json.dumps(trace)


def _batch_text(texts: list[str]) -> str:
    """The bytes of ``json.dumps(traces)`` from the traces' own texts,
    joined by its default item separator."""
    return "[" + ", ".join(texts) + "]"


def worker_count(jobs: int, items: int, cpus: int | None) -> int:
    """Worker processes for a batch: never more than requested, than there
    are items, or than the machine has CPUs (at least one)."""
    return max(1, min(jobs, items, cpus or 1))


def chunk_size(items: int, workers: int) -> int:
    """Problems sent to a worker at a time: about eight chunks per worker,
    enough to keep the workers evenly busy to the end of the batch while
    paying the inter-process round trip once per chunk, not per problem."""
    return max(1, items // (8 * workers))


def cmd_run(args) -> int:
    try:
        if args.jobs < 1:
            raise SchemaError(f"--jobs must be at least 1, not {args.jobs}")
        if args.budget < 0:
            raise SchemaError(f"--budget must not be negative, not {args.budget}")
        reason = _unwritable(args.out) if args.out else None
        if reason:
            raise SchemaError(f"cannot write {args.out}: {reason}")
        payload = _load_json(args.file)
        batch = isinstance(payload, list)
        problems = payload if batch else [payload]
        work = [(p, args.budget) for p in problems]
        workers = worker_count(args.jobs, len(work), os.cpu_count())
        if workers > 1:
            # imported here: a one-process run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_one, work, chunksize=chunk_size(len(work), workers)))
        else:
            results = list(map(_run_one, work))
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    texts = [text for _, text in results]
    text = _batch_text(texts) if batch else texts[0]
    if args.out:
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_SCHEMA
    else:
        sys.stdout.write(text + "\n")
    failed = [verdict for verdict, _ in results if not verdict["ok"]]
    for verdict in failed:
        print(f"error: {verdict.get('message') or verdict['code']}", file=sys.stderr)
    return EXIT_ALGORITHM if failed else EXIT_OK


def cmd_verify(args) -> int:
    try:
        payload = _load_json(args.trace)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    batch = isinstance(payload, list)
    traces = payload if batch else [payload]
    # the loaded batch lives until the end: out of the collector's
    # generations, the collections that replay triggers do not walk it.
    # gc.unfreeze() thaws all that is frozen, so when a caller has frozen
    # objects of its own the collector is left as it is.
    freeze = not gc.get_freeze_count()
    if freeze:
        gc.freeze()
    try:
        for idx, trace in enumerate(traces):
            try:
                verify_trace(trace)
            except TraceMismatchError as exc:
                print(f"trace {idx}: {exc}", file=sys.stderr)
                return EXIT_MISMATCH
            except SchemaError as exc:
                where = f"trace {idx}: " if batch else ""
                print(f"error: {where}{exc}", file=sys.stderr)
                return EXIT_SCHEMA
    finally:
        if freeze:
            gc.unfreeze()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valmono",
        description="Framed blow-up sequences, key-polynomial chains and "
        "monomialization, with replayable JSON traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a problem file and emit a trace")
    run_p.add_argument("file", help="problem JSON (object or array for batch)")
    run_p.add_argument("--out", help="write the trace(s) to this path")
    run_p.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="step budget per run"
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for batch input (at most one per item and per CPU)",
    )
    run_p.set_defaults(func=cmd_run)

    ver_p = sub.add_parser("verify", help="replay a trace and check every witness")
    ver_p.add_argument("trace", help="trace JSON produced by `valmono run`")
    ver_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
