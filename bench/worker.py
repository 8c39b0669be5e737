"""In-process half of the benchmark, run in a fresh interpreter per round.

    PYTHONPATH=src python3 bench/worker.py <job.json>

The job file names the problem list, the mode and the output paths
(``run.py`` writes it).  Mode ``run`` is one measuring round: it times
each sequential ``run_problem`` call with tracing off, then each
``verify_trace`` replay.  Mode ``trace`` runs the batch twice untraced
(timing the second pass) and once under ``layers.Tracer`` and reports the
per-layer numbers.  Results go to the job's ``out`` file.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from corpus import outcome_digest
from reference import Pacer
# called through the module, so the tracer's rebinding reaches these calls
from valmono import trace as vtrace


def attempt(problem: dict) -> tuple[dict | None, str]:
    """(trace or None, outcome): ``ok:<digest>``, ``no:<digest>`` for a
    refusal verdict, or ``raise:<exception>`` when run_problem escapes."""
    try:
        trace = vtrace.run_problem(problem)
    except Exception as exc:  # an escape is a measured outcome, not a crash
        return None, f"raise:{type(exc).__name__}: {exc}"[:120]
    return trace, ("ok:" if trace["verdict"]["ok"] else "no:") + outcome_digest(trace)


def replay(trace: dict, k: int, errors: dict) -> None:
    try:
        vtrace.verify_trace(trace)
    except Exception as exc:  # a failed replay is a measured outcome
        errors[k] = f"{type(exc).__name__}: {exc}"[:200]


def peak_rss_mb() -> float:
    # VmHWM belongs to this process image; ru_maxrss can carry the forking
    # parent's high-water mark across exec
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _strip_created(traces: list) -> list:
    for t in traces:
        if t is not None:
            t["header"].pop("created", None)
    return traces


def run_mode(job: dict, problems: list) -> dict:
    """One round: time every run_problem call, then every verify_trace
    replay of the traces this round produced, one call at a time."""
    clock = time.perf_counter
    pacer = Pacer()
    starts, latencies, outcomes, traces = [], [], [], []
    for problem in problems:
        t0 = clock()
        trace, outcome = attempt(problem)
        starts.append(t0)
        latencies.append(clock() - t0)
        pacer.after(latencies[-1])
        outcomes.append(outcome)
        traces.append(trace)
    verify_starts, verify_latencies, verify_errors = [], [], {}
    for k, trace in enumerate(traces):
        t0 = clock()
        verify_starts.append(t0)
        if trace is None:
            verify_latencies.append(None)
            continue
        replay(trace, k, verify_errors)
        verify_latencies.append(clock() - t0)
        pacer.after(verify_latencies[-1])
    return {
        "reference_samples": pacer.samples,
        "starts": starts,
        "latencies": latencies,
        "verify_starts": verify_starts,
        "verify_latencies": verify_latencies,
        "outcomes": outcomes,
        "verify_errors": verify_errors,
        "traces": _strip_created(traces) if job["keep_traces"] else None,
        "peak_rss_mb": peak_rss_mb(),
    }


def _verdict_name(trace: dict | None) -> str:
    if trace is None:
        return "raised"
    if trace["verdict"]["ok"]:
        return "ok"
    code = trace["verdict"]["code"]
    return code.replace(" ", "-") if code in ("requires completion", "internal error") else "other"


def trace_mode(job: dict, batch: list) -> dict:
    from layers import Tracer

    clock = time.perf_counter
    for p in batch:  # warm-up: a fresh interpreter's first pass runs slower
        attempt(p)
    t0 = clock()
    for p in batch:
        attempt(p)
    untraced_s = clock() - t0

    tracer = Tracer()
    tracer.install()
    outcomes, traces = [], []
    t0 = clock()
    for k, p in enumerate(batch):
        tracer.start_problem(k)
        trace, outcome = attempt(p)
        outcomes.append(outcome)
        traces.append(trace)
    traced_s = clock() - t0
    t0 = clock()
    verify_errors: dict = {}
    for k, trace in enumerate(traces):
        if trace is not None:
            tracer.start_problem(k)
            replay(trace, k, verify_errors)
    traced_verify_s = clock() - t0
    calls, self_s = tracer.by_name()

    present = [t for t in traces if t is not None]
    t0 = clock()
    text = json.dumps(present, indent=1)  # exactly as cli._emit serializes
    emit_s = clock() - t0
    t0 = clock()
    json.loads(text)
    parse_s = clock() - t0

    steps = Counter()
    for t in present:
        for rec in t["steps"]:
            steps["translation" if "translation" in rec else "monomial"] += 1

    with open(job["spans"], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh, separators=(",", ":"))

    return {
        "outcomes": outcomes,
        "verify_errors": verify_errors,
        "traces": _strip_created(traces),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "traced_verify_s": traced_verify_s,
        "calls": dict(calls),
        "self_s": dict(self_s),
        "counts": dict(tracer.counts),
        "json_emit_s": emit_s,
        "json_bytes": len(text.encode()) + 1,
        "json_parse_s": parse_s,
        "steps": dict(steps),
        "verdicts": dict(Counter(_verdict_name(t) for t in traces)),
        "span_count": len(tracer.spans),
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    with open(job["problems"], encoding="utf-8") as fh:
        problems = json.load(fh)
    result = (trace_mode if job["mode"] == "trace" else run_mode)(job, problems)
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
