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
    except ValueError:  # an integer longer than int() reads
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"malformed JSON: an integer has more than {limit} digits") from None
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


class _ChildTraceback(Exception):
    """The traceback text of an exception raised in a child process: the
    ``__cause__`` of that exception when the parent raises it again."""


def _run_share(work: list, k: int, workers: int) -> tuple:
    """``("ok", results)`` for items ``k, k + workers, …`` of ``work``, or
    ``("raised", index, exc)`` for the first of them that raises."""
    results = []
    for index in range(k, len(work), workers):
        try:
            results.append(_run_one(work[index]))
        except Exception as exc:
            return "raised", index, exc
    return "ok", results


def _child(work: list, k: int, workers: int, write: int) -> None:
    """In a forked child: run share ``k`` of the inherited batch, write
    its outcome to the pipe ``write`` as one pickle, a raised exception
    followed by its traceback text, and end the process; never returns."""
    import pickle

    code = 1
    try:
        outcome = _run_share(work, k, workers)
        if outcome[0] == "raised":
            import traceback

            outcome += ("\n" + "".join(traceback.format_exception(outcome[2])).rstrip(),)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _run_forked(work: list, workers: int) -> list:
    """``_run_one`` over ``work`` in ``workers`` processes, results in
    input order: this process runs share 0 and ``workers - 1`` forked
    children the others, each on the batch it inherited.  When items
    raise, the exception of the first of them in input order is raised
    again, as a one-process run raises it.  Every child has ended when
    this returns or raises.  The CLI process starts no thread, so forking
    it copies no lock held by another thread."""
    import fcntl  # imported here: a one-process run never loads them
    import pickle

    children = []  # (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            # 1 MiB, the most Linux grants an unprivileged process by
            # default: through a 64 KiB pipe a 1.1 MB result took 10-13 ms
            # to hand over on a 2-CPU Linux VM, through this one 1-4 ms
            try:
                fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 1 << 20)
            except (AttributeError, OSError):  # not Linux, or over the user's limit
                pass
            pid = os.fork()
            if pid == 0:
                os.close(read)
                for _, pipe in children:
                    pipe.close()
                _child(work, k, workers, write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        outcomes = [_run_share(work, 0, workers)]
        received = [pipe.read() for _, pipe in children]
    finally:
        # read ends closed first, so that a child still writing fails and ends
        for _, pipe in children:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    for data, code in zip(received, codes):
        if not data:
            raise ChildProcessError(f"a worker process ended without a result (exit code {code})")
        outcome = pickle.loads(data)
        if outcome[0] == "raised":
            outcome[2].__cause__ = _ChildTraceback(outcome[3])
        outcomes.append(outcome)
    raised = [o for o in outcomes if o[0] == "raised"]
    if raised:
        raise min(raised, key=lambda o: o[1])[2]
    results = [None] * len(work)
    for k, (_, share) in enumerate(outcomes):
        results[k::workers] = share
    return results


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
        if workers > 1 and hasattr(os, "fork"):
            results = _run_forked(work, workers)
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
