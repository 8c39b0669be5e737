"""Census of the ``raise`` statements in ``src/valmono`` that never run.

Every line of the package is traced with ``sys.settrace`` while the test
suite runs in this process and every problem of the three benchmark pools
(``bench/corpus.py``) goes through ``trace.run_problem``.  The script then
prints each ``raise`` whose line never ran, with its module, line, the
function around it and its source, and a summary count.

    python tools/raise_census.py

The census needs the standard library and the pytest that runs the test
suite.  It only reads ``bench/corpus.py``.  Code that runs in another
interpreter is invisible to it: the CLI tests start ``valmono.cli`` in
child interpreters, and a forked batch worker's lines are lost with the
child.  A full census takes a few minutes, so the test suite does not run
it.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "valmono"


def raise_sites() -> list[tuple[str, int, str, str]]:
    """(module file name, line, enclosing function, source) of every
    ``raise`` of an exception in the package, in file and line order."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    # the innermost function wins: ast.walk visits outer ones first
                    owners[id(child)] = node.name
        for node in ast.walk(tree):
            # a bare ``raise`` hands on what its handler caught: not a site
            if isinstance(node, ast.Raise) and node.exc is not None:
                source = ast.get_source_segment(text, node).split("\n")[0]
                sites.append((path.name, node.lineno, owners.get(id(node), "<module>"), source))
    return sorted(sites)


def traced(run) -> set[tuple[str, int]]:
    """The (module file name, line) pairs of the package that ``run()``
    executes."""
    package = str(PACKAGE) + os.sep
    seen: set[tuple[str, int]] = set()
    ours: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            seen.add((ours[frame.f_code.co_filename], frame.f_lineno))
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            real = os.path.realpath(filename)
            ours[filename] = Path(real).name if real.startswith(package) else None
        name = ours[filename]
        if name is None:
            return None
        seen.add((name, frame.f_lineno))
        return local

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def _run_suite() -> None:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    print(f"test suite exit code {int(code)}", file=sys.stderr)


def _run_pools() -> None:
    import corpus
    from valmono.trace import run_problem

    for workload in corpus.WORKLOADS:
        for problem in corpus.pool(workload):
            try:
                run_problem(problem)
            except Exception:  # an escape still ran the lines before it
                pass


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    os.chdir(ROOT)
    # read the sites when the package is about to be imported: read after
    # the run, an edit made during it would shift their lines
    sites = raise_sites()
    seen = traced(_run_suite) | traced(_run_pools)
    missed = [site for site in sites if site[:2] not in seen]
    for name, line, function, source in missed:
        print(f"{name}:{line} {function}: {source}")
    print(f"{len(missed)} of {len(sites)} raise sites never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
