"""valmono benchmark: end-to-end and per-layer metrics for seeded workloads.

    python3 bench/run.py [--workload descent|chains|expand|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is taken from
``src/`` through ``PYTHONPATH``, never from an installed copy.  Each
workload runs its in-process loop in a fresh interpreter (``worker.py``)
and its CLI runs as ``python -m valmono.cli`` subprocesses, so peak memory
and lazy caches do not leak between workloads.  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
Metric names, units and directions are read from ``BENCHMARK.json``.

The load is a closed loop from one caller: one problem at a time in one
process; the CLI runs use ``--jobs`` up to ``min(2, os.cpu_count())``.
Exit status: 0 when every output is correct, 1 when a check failed (the
result line is still printed), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus
import reference

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent

# problems per run; one pass over a batch takes under two seconds at the
# seed commit, and every seed draws the batch with the same mix of strata
BATCH = {"descent": 720, "chains": 300, "expand": 240}
JOBS1_PROBES = 60  # problems --jobs 1 reruns in an untraced run; a traced run reruns all
ROUND_SECONDS = 3.0  # --seconds S makes max(3, S / 3) rounds
SETUP_PER_ROUND = 2
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)
_SETUP_CODE = "import json, sys, valmono; json.load(open(sys.argv[1], encoding='utf-8'))"
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, a hung process)."""


class Run:
    """One workload, one seed: owns the work directory and the deadline."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.trace = trace
        self.work = WORK / f"{workload}-s{seed}-t{int(trace)}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        self.jobs = min(2, os.cpu_count() or 1)

    def rel(self, name: str) -> str:
        return str((self.work / name).relative_to(ROOT))

    def spawn(self, *args: str, cpu: int | None = None) -> tuple[float, subprocess.CompletedProcess]:
        """Run one subprocess in its own session and return (wall s, result);
        on timeout the whole session, pool workers included, is killed.
        ``cpu`` pins the subprocess to that CPU."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting " + " ".join(args[:4]))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        if cpu is not None:
            try:
                os.sched_setaffinity(proc.pid, {cpu})
            except ProcessLookupError:  # it has already exited
                pass
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("timed out: " + " ".join(args[:4])) from None
        wall = time.perf_counter() - t0
        return wall, subprocess.CompletedProcess(proc.args, proc.returncode, out, err)

    def spawn_sampled(self, *args: str, single: bool = False) -> tuple[float, float, subprocess.CompletedProcess]:
        """``spawn`` while threads of this process, one pinned to each CPU
        the subprocess may use, time one reference unit every 20 ms; returns
        (wall s, speed factor, result).  A ``single`` (one-process)
        subprocess is pinned to one CPU together with its sampler."""
        cpus = sorted(os.sched_getaffinity(0))
        pins = cpus[-1:] if single else cpus
        samples: list[float] = []
        done = threading.Event()

        def sample(cpu: int) -> None:
            os.sched_setaffinity(0, {cpu})  # this thread only
            while not done.wait(0.02):
                samples.append(reference.timed_unit()[1])

        threads = [threading.Thread(target=sample, args=(c,), daemon=True) for c in pins]
        for t in threads:
            t.start()
        try:
            wall, r = self.spawn(*args, cpu=pins[0] if single else None)
        finally:
            done.set()
            for t in threads:
                t.join()
        speed = statistics.fmean(samples) / reference.REFERENCE_UNIT_S if samples else 1.0
        return wall, speed, r

    def setup_once(self, batch_file: str) -> float:
        """Normalized wall time of a fresh interpreter importing valmono and
        loading the batch, the set-up every CLI invocation pays."""
        wall, speed, r = self.spawn_sampled("-c", _SETUP_CODE, batch_file, single=True)
        if r.returncode != 0:
            raise BenchError("importing valmono failed:\n" + r.stderr[-2000:])
        return wall / speed

    def worker(self, batch_file: str, keep_traces: bool) -> dict:
        job = {
            "mode": "trace" if self.trace else "run",
            "problems": batch_file,
            "keep_traces": keep_traces,
            "out": self.rel("worker_out.json"),
            "spans": self.rel("spans.json"),
        }
        _, r = self.spawn(str(BENCH / "worker.py"), self.write("job.json", job))
        if r.returncode != 0:
            raise BenchError("worker failed:\n" + r.stderr[-3000:])
        with open(ROOT / job["out"], encoding="utf-8") as fh:
            return json.load(fh)

    def cli_round(self, main: list, crash: list, traces: list, checks: list, verify: bool) -> dict:
        """One ``valmono run --jobs N`` over the batch (escaped items in a
        batch of their own), its comparison with the in-process traces, and
        a ``valmono verify`` of its output."""
        out = {"unmatched": set()}
        wall, speed, r = self.spawn_sampled("-m", "valmono.cli", "run", self.rel("main.json"),
                                            "--out", self.rel("cli_jobs2.json"), "--jobs", str(self.jobs))
        if crash:
            wall += self.spawn("-m", "valmono.cli", "run", self.rel("crash.json"),
                               "--out", self.rel("cli_crash.json"), "--jobs", str(self.jobs))[0]
        out["jobs2_s"], out["jobs2_speed"] = wall, speed
        got = load_cli_traces(self.work / "cli_jobs2.json")
        if got is None or len(got) != len(main):
            checks.append(f"CLI --jobs {self.jobs} wrote no complete output (exit {r.returncode}): {r.stderr.strip()[-300:]}")
            out["unmatched"] = set(main)
        else:
            for k, t in zip(main, got):
                d = first_diff(traces[k], t)
                if d is not None:
                    out["unmatched"].add(k)
                    checks.append(f"problem {k}: CLI trace differs from the in-process trace at {d}")
        out["matched"] = len(main) - len(out["unmatched"])
        if verify:
            out["verify_s"], out["verify_speed"], rv = self.spawn_sampled(
                "-m", "valmono.cli", "verify", self.rel("cli_jobs2.json"), single=True)
            if rv.returncode != 0:
                checks.append(f"valmono verify exited {rv.returncode}: {rv.stderr.strip()[-300:]}")
        return out

    def cli_jobs1(self, batch: list, main: list, checks: list) -> float:
        """``valmono run --jobs 1`` over the batch (its first JOBS1_PROBES
        problems in an untraced run); the output must equal the last
        ``--jobs N`` output."""
        probe = main if self.trace else main[:JOBS1_PROBES]
        wall, r = self.spawn("-m", "valmono.cli", "run", self.write("jobs1.json", [batch[k] for k in probe]),
                             "--out", self.rel("cli_jobs1.json"), "--jobs", "1")
        one = load_cli_traces(self.work / "cli_jobs1.json")
        many = load_cli_traces(self.work / "cli_jobs2.json")
        if one is None or many is None or len(one) != len(probe):
            checks.append(f"CLI --jobs 1 output missing or of another length (exit {r.returncode})")
            return wall
        for k, a, b in zip(probe, one, many):
            d = first_diff(a, b)
            if d is not None:
                checks.append(f"problem {k}: --jobs 1 and --jobs {self.jobs} differ at {d}")
                break
        return wall

    def write(self, name: str, obj) -> str:
        with open(self.work / name, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return self.rel(name)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def first_diff(a, b, path: str = "") -> str | None:
    """Key path of the first difference between two JSON values."""
    if type(a) is not type(b):
        return path or "<root>"
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                return f"{path}.{k}".lstrip(".")
            d = first_diff(a[k], b[k], f"{path}.{k}")
            if d:
                return d.lstrip(".")
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            d = first_diff(x, y, f"{path}[{i}]")
            if d:
                return d
        return None if len(a) == len(b) else f"{path}[len]"
    return None if a == b else (path or "<root>")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest ladder percentile
    with at least 10 samples above it (nearest-rank)."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 50.0, xs[(n - 1) // 2], n // 2


def load_cli_traces(path: Path) -> list | None:
    try:
        with open(path, encoding="utf-8") as fh:
            traces = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    for t in traces:
        t["header"].pop("created", None)
    return traces


def _changed_fields(outcome: str, ref: str) -> str:
    """Name the digest fields in which an outcome differs from the seed's."""
    if not outcome.startswith(("ok:", "no:")):
        return f"all fields ({outcome})"
    a, b = outcome[3:], ref[3:]
    fields = [f for i, f in enumerate(corpus.DIGEST_FIELDS) if a[6 * i: 6 * i + 6] != b[6 * i: 6 * i + 6]]
    return "/".join(fields or ["verdict"])


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "valmono").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if (ROOT / ".git").exists():
        r = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if r.returncode == 0:
            return r.stdout.strip()
    return "unknown"


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def seed_outcomes(workload: str, problems: list) -> list[str]:
    with open(BENCH / "seed_digests.json", encoding="utf-8") as fh:
        rec = json.load(fh)["workloads"][workload]
    if rec["pool_digest"] != corpus.pool_digest(problems):
        raise BenchError(f"{workload}: generated pool differs from the recorded one")
    return rec["outcomes"]


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, trace)
    shutil.rmtree(WORK, ignore_errors=True)  # only the latest run's files stay
    run.work.mkdir(parents=True)

    pool = corpus.pool(workload)
    seeded = seed_outcomes(workload, pool)
    order = corpus.order(workload, seed, pool)[: BATCH[workload]]
    batch = [pool[k] for k in order]
    batch_file = run.write("batch.json", batch)
    n = len(batch)

    # Rounds interleave every measurement, so each metric's samples spread
    # over the whole run and a median outlasts a burst of foreign load.
    # Each round's worker is a fresh interpreter: nothing cached carries
    # from one round to the next.
    rounds = 1 if trace else max(3, round(seconds / ROUND_SECONDS))
    setup, rounds_out, cli_rounds = [], [], []
    checks: list[str] = []
    traces = main = crash = None
    for r in range(rounds):
        if not trace:
            setup += [run.setup_once(batch_file) for _ in range(SETUP_PER_ROUND)]
        res = run.worker(batch_file, keep_traces=(r == 0))
        rounds_out.append(res)
        if r == 0:
            traces = res["traces"]
            # items that escaped in process form their own CLI batch, so one
            # escape does not void the batch's throughput; it still counts
            main = [k for k in range(n) if traces[k] is not None]
            crash = [k for k in range(n) if traces[k] is None]
            run.write("main.json", [batch[k] for k in main])
            if crash:
                run.write("crash.json", [batch[k] for k in crash])
        elif res["outcomes"] != rounds_out[0]["outcomes"]:
            k = next(i for i, (a, b) in enumerate(zip(res["outcomes"], rounds_out[0]["outcomes"])) if a != b)
            checks.append(f"problem {k}: round {r} gave {res['outcomes'][k]}, round 0 gave {rounds_out[0]['outcomes'][k]}")
        cli_rounds.append(run.cli_round(main, crash, traces, checks, verify=not trace))

    outcomes = rounds_out[0]["outcomes"]
    verify_errors = {int(k): m for res in rounds_out for k, m in res["verify_errors"].items()}
    jobs1_s = run.cli_jobs1(batch, main, checks)

    # -- failures (fail_share) and correctness ---------------------------------
    failed_at = {k for k, o in enumerate(outcomes) if o.startswith(("raise:", "no:"))}
    for k, o in enumerate(outcomes):
        ref = seeded[order[k]]
        if ref.startswith("ok:") and o != ref:
            failed_at.add(k)
            checks.append(f"problem {k} (pool {order[k]}): {_changed_fields(o, ref)} differ from the seed commit's")
    for k, msg in sorted(verify_errors.items()):
        failed_at.add(k)
        checks.append(f"problem {k}: verify_trace raised {msg}")
    for c in cli_rounds:
        failed_at.update(c["unmatched"])

    info = {
        "workload": workload, "seed": seed, "trace": int(trace), "commit": commit(),
        "src_digest": src_digest(), "python": platform.python_version(),
        "platform": platform.platform(), "cpu_count": os.cpu_count(), "cli_jobs": run.jobs,
        "rounds": rounds, "attempted": n, "failed": len(failed_at),
        "fail_share": len(failed_at) / n,
        "known_seed_failures": sum(seeded[k].startswith("raise:") for k in order),
        "crash_batch": len(crash),
    }
    if trace:
        res = rounds_out[0]
        specs = metric_specs()["per_layer"]
        cli = {"jobs1_s": jobs1_s, "jobs2_s": cli_rounds[0]["jobs2_s"]}
        values = layer_values([m["name"] for m in specs], res, cli)
        info.update({k: res[k] for k in ("span_count", "untraced_s", "traced_s", "traced_verify_s")})
    else:
        # every timing divided by the machine speed measured around it, then
        # per problem the median over rounds
        lat_rounds, ver_rounds = [], []
        for res in rounds_out:
            sp = reference.local_speed(res["reference_samples"], res["starts"])
            lat_rounds.append([x / f for x, f in zip(res["latencies"], sp)])
            sp = reference.local_speed(res["reference_samples"], res["verify_starts"])
            ver_rounds.append([x if x is None else x / f for x, f in zip(res["verify_latencies"], sp)])
        lat = [statistics.median(r[k] for r in lat_rounds) for k in range(n)]
        ver = [statistics.median(r[k] for r in ver_rounds) for k in main]
        p, v, beyond = tail(lat)
        info["tail"] = {"percentile": p, "samples": n, "beyond": beyond}
        raw = [statistics.median(res["latencies"][k] for res in rounds_out) for k in range(n)]
        info["raw"] = {
            "run_problems_per_s": n / sum(raw),
            "cli_jobs_s": [c["jobs2_s"] for c in cli_rounds],
            "cli_verify_s": [c["verify_s"] for c in cli_rounds],
            "cli_speed": [(c["jobs2_speed"], c["verify_speed"]) for c in cli_rounds],
        }
        specs = metric_specs()["end_to_end"]
        values = {
            "run_problems_per_s": n / sum(lat),
            "run_p50_ms": statistics.median(lat) * 1000,
            "run_tail_ms": v * 1000,
            "verify_problems_per_s": len(ver) / sum(ver),
            "cli_problems_per_s": statistics.median(c["matched"] * c["jobs2_speed"] / c["jobs2_s"] for c in cli_rounds),
            "cli_verify_s": statistics.median(c["verify_s"] / c["verify_speed"] for c in cli_rounds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in rounds_out),
        }
    metrics = {}
    for m in specs:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} is not computed")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    with open(run.work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "metrics": metrics, "checks": checks}, fh, indent=1)
    return {"info": info, "metrics": metrics, "checks": checks, "correct": not checks}


_COUNT_STATS = ("term_pairs", "tower_calls", "steps", "digits", "terms")


def layer_values(names: list[str], res: dict, cli: dict) -> dict:
    """Resolve each per-layer metric name against the traced run."""
    calls, self_s, counts = res["calls"], res["self_s"], res["counts"]
    out = {
        "trace.json_emit_s": res["json_emit_s"],
        "trace.json_bytes": res["json_bytes"],
        "trace.json_parse_s": res["json_parse_s"],
        "framing.steps.monomial": res["steps"].get("monomial", 0),
        "framing.steps.translation": res["steps"].get("translation", 0),
        "cli.jobs1_s": cli["jobs1_s"],
        "cli.jobs2_s": cli["jobs2_s"],
        "cli.jobs2_speedup": cli["jobs1_s"] / cli["jobs2_s"],
        "bench.trace_overhead_share": res["traced_s"] / res["untraced_s"] - 1,
    }
    for name in names:
        if name in out:
            continue
        prefix, stat = name.rsplit(".", 1)
        if prefix == "trace.verdict":
            out[name] = res["verdicts"].get(stat, 0)
        elif stat == "calls":
            out[name] = calls.get(prefix, 0)
        elif stat == "self_s":
            out[name] = self_s.get(prefix, 0.0)
        elif stat == "refine_share":
            out[name] = counts.get(prefix + ".refine", 0) / max(calls.get(prefix, 0), 1)
        elif stat == "repeat_share":
            out[name] = counts.get(prefix + ".repeats", 0) / max(counts.get(prefix + ".repeat_total", 0), 1)
        elif stat in _COUNT_STATS:
            out[name] = counts.get(name, 0)
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(result: dict) -> None:
    info = result["info"]
    print(
        f"== {info['workload']}  seed={info['seed']} trace={info['trace']}  commit={info['commit']} "
        f"src={info['src_digest']}  python={info['python']}  platform={info['platform']}  "
        f"cpu_count={info['cpu_count']}  cli_jobs={info['cli_jobs']}"
    )
    for name, m in result["metrics"].items():
        extra = ""
        if name == "run_tail_ms":
            t = info["tail"]
            extra = f"  (p{t['percentile']:g} of {t['samples']} samples, {t['beyond']} beyond)"
        print(f"  {name:<52} {_fmt(m['value']):>14} {m['unit']}{extra}")
    print(
        f"  {'fail_share':<52} {info['fail_share']:>14.6g} ratio  ({info['failed']} of "
        f"{info['attempted']} attempted; {info['known_seed_failures']} escaped at the seed commit too)"
    )
    verdict = "true" if result["correct"] else "FALSE"
    print(f"  correct: {verdict}  (seed digests, verify replay, in-process = CLI, --jobs 1 = --jobs {info['cli_jobs']})")
    for i, msg in enumerate(result["checks"][:5]):
        print(f"    {'first failing check' if i == 0 else 'then'}: {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*corpus.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "valmono" / "__init__.py").is_file():
        print(f"error: no valmono sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        r = results[0]
        line = {"correct": r["correct"], "attempted": r["info"]["attempted"],
                "failed": r["info"]["failed"], "metrics": r["metrics"]}
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["info"]["attempted"] for r in results),
            "failed": sum(r["info"]["failed"] for r in results),
            "metrics": {f"{r['info']['workload']}.{k}": m for r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
