"""Trace production, replay verification, and the CLI contract."""

import copy
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CHILD_ENV
from valmono.errors import SchemaError, TraceMismatchError
from valmono.trace import ALGORITHMS, canonical_digest, run_problem, verify_trace

GROUP2 = {"rank": 2, "ordering": "sqrt-primes", "labels": ["g1", "g2"]}
SPEC2 = {
    "vars": ["u1", "u2"],
    "weights": [{"coords": ["1", "0"]}, {"coords": ["0", "1"]}],
}


def pair_problem(alpha=(0, 1), gamma=(2, 0)):
    return {
        "schema": 1,
        "algorithm": "pair",
        "group": copy.deepcopy(GROUP2),
        "spec": copy.deepcopy(SPEC2),
        "alpha": list(alpha),
        "gamma": list(gamma),
    }


def cusp_uniformize_problem():
    return {
        "schema": 1,
        "algorithm": "uniformize",
        "group": {"rank": 1, "ordering": "sqrt-primes", "labels": ["g1"]},
        "problem": {
            "w_vars": ["w1"],
            "w_weights": [{"coords": ["2"]}],
            "wn_var": "wn",
            "beta_n": {"coords": ["3"]},
            "residue": {"kind": "algebraic", "minpoly": ["-1", "1"]},
        },
    }


def cusp_chain_json():
    return {
        "ground": {"vars": ["u"], "weights": [{"coords": ["1"]}]},
        "x": "x",
        "entries": [
            {
                "Q": {"vars": ["u", "x"], "terms": [{"e": [0, 1], "c": "1"}]},
                "beta": {"coords": ["3/2"]},
            },
            {
                "Q": {
                    "vars": ["u", "x"],
                    "terms": [{"e": [3, 0], "c": "-1"}, {"e": [0, 2], "c": "1"}],
                },
                "beta": {"coords": ["4"]},
            },
        ],
    }


def test_run_and_verify_round_trip():
    trace = run_problem(pair_problem())
    assert trace["verdict"]["ok"]
    assert trace["witnesses"]["divides"]
    verify_trace(trace)  # no exception


def test_verify_detects_tampered_step():
    trace = run_problem(pair_problem())
    bad = copy.deepcopy(trace)
    bad["steps"][0]["alpha"][0] += 1
    with pytest.raises(TraceMismatchError) as err:
        verify_trace(bad)
    assert err.value.step == 1


def test_verify_detects_tampered_witness():
    trace = run_problem(pair_problem())
    bad = copy.deepcopy(trace)
    bad["witnesses"]["alpha_final"][0] += 1
    with pytest.raises(TraceMismatchError):
        verify_trace(bad)


def _mismatch(bad: dict) -> TraceMismatchError:
    with pytest.raises(TraceMismatchError) as err:
        verify_trace(bad)
    return err.value


def test_verify_names_a_differing_list_element():
    trace = run_problem(pair_problem())
    bad = copy.deepcopy(trace)
    bad["steps"][1]["J"][1] = 1
    err = _mismatch(bad)
    assert (err.step, err.path) == (2, "steps[1].J[1]")
    assert str(err) == "trace mismatch at step 2, first difference at steps[1].J[1]"
    bad = copy.deepcopy(trace)
    bad["witnesses"]["sequence"]["steps"][0]["N"][1][0] = 5
    err = _mismatch(bad)
    assert err.path == "witnesses.sequence.steps[0].N[1][0]"
    assert str(err).startswith("trace mismatch at witnesses, ")
    bad = copy.deepcopy(trace)
    bad["steps"].append(copy.deepcopy(bad["steps"][-1]))  # a step too many
    assert _mismatch(bad).path == f"steps[{len(trace['steps'])}]"
    bad = copy.deepcopy(trace)
    bad["steps"][0]["J"].append(3)  # an element too many
    assert _mismatch(bad).path == "steps[0].J[2]"


def test_verify_names_a_differing_dict_key():
    trace = run_problem(pair_problem())
    bad = copy.deepcopy(trace)
    bad["witnesses"]["sequence"]["steps"][1]["kind"] = "translation"
    assert _mismatch(bad).path == "witnesses.sequence.steps[1].kind"
    bad = copy.deepcopy(trace)
    bad["witnesses"]["divides"] = False
    assert _mismatch(bad).path == "witnesses.divides"
    bad = copy.deepcopy(trace)
    bad["verdict"] = {"ok": False, "code": "invalid input"}
    err = _mismatch(bad)
    assert err.path == "verdict.ok" and str(err).startswith("trace mismatch at verdict, ")


def test_verify_names_a_missing_key():
    trace = run_problem(pair_problem())
    bad = copy.deepcopy(trace)
    del bad["steps"][0]["tau"]
    assert _mismatch(bad).path == "steps[0].tau"
    bad = copy.deepcopy(trace)
    del bad["witnesses"]["sequence"]["independent_of"]
    assert _mismatch(bad).path == "witnesses.sequence.independent_of"
    bad = copy.deepcopy(trace)
    bad["witnesses"]["final_frame"]["extra"] = 1  # a key the replay lacks
    assert _mismatch(bad).path == "witnesses.final_frame.extra"


def test_verify_ignores_header_fields():
    trace = run_problem(pair_problem())
    other = copy.deepcopy(trace)
    other["header"]["version"] = "9.9.9"
    other["header"]["created"] = "2001-01-01T00:00:00+00:00"
    verify_trace(other)
    del other["header"]["schema"]  # read as schema 1
    verify_trace(other)


def test_determinism_modulo_timestamp():
    a = run_problem(pair_problem())
    b = run_problem(pair_problem())
    a["header"].pop("created")
    b["header"].pop("created")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_error_trace_records_code_and_verifies():
    bad = pair_problem()
    bad["spec"] = {
        "vars": ["u1", "u2"],
        "weights": [{"coords": ["0", "0"]}, {"coords": ["0", "1"]}],
    }
    trace = run_problem(bad)
    assert trace["verdict"] == {
        "ok": False,
        "code": "weights must be positive",
        "message": "weights must be positive",
    }
    verify_trace(trace)


def test_unknown_selector_is_schema_error():
    with pytest.raises(SchemaError):
        run_problem({"algorithm": "frobnicate"})


def all_selector_problems():
    """One solvable problem for each algorithm selector."""
    return [
        pair_problem(),
        {
            "schema": 1,
            "algorithm": "principalize",
            "group": GROUP2,
            "spec": SPEC2,
            "generators": [[3, 0], [0, 2], [1, 1]],
        },
        {
            "schema": 1,
            "algorithm": "nondegenerate",
            "group": GROUP2,
            "spec": SPEC2,
            "poly": {
                "vars": ["u1", "u2"],
                "terms": [{"e": [2, 0], "c": "1"}, {"e": [0, 1], "c": "1"}],
            },
        },
        cusp_uniformize_problem(),
        {
            "schema": 1,
            "algorithm": "keypoly-expand",
            "group": {"rank": 1, "ordering": "sqrt-primes", "labels": ["g1"]},
            "chain": cusp_chain_json(),
            "poly": {"vars": ["u", "x"], "terms": [{"e": [0, 3], "c": "1"}]},
            "level": 2,
        },
        {
            "schema": 1,
            "algorithm": "keypoly-monomialize",
            "group": {"rank": 1, "ordering": "sqrt-primes", "labels": ["g1"]},
            "chain": cusp_chain_json(),
        },
        {
            "schema": 1,
            "algorithm": "polynomial",
            "group": {"rank": 1, "ordering": "sqrt-primes", "labels": ["g1"]},
            "chain": cusp_chain_json(),
            "poly": {"vars": ["u", "x"], "terms": [{"e": [0, 3], "c": "1"}]},
        },
    ]


def test_cusp_chain_level_is_the_matching_uniformize_run():
    """The one level of the cusp chain is the uniformize problem with w = u
    at weight 1, wn = x at 3/2, residue X - 1 and the chain's beta 4: both
    log the same blow-up centers and the same translation record, and their
    sequences give the new parameter the same weight."""
    chain = run_problem(all_selector_problems()[-2])
    problem = {
        "w_vars": ["u"],
        "w_weights": [{"coords": ["1"]}],
        "wn_var": "x",
        "beta_n": {"coords": ["3/2"]},
        "residue": {"kind": "algebraic", "minpoly": ["-1", "1"]},
        "beta_new": {"coords": ["4"]},
    }
    uniformize = run_problem({**cusp_uniformize_problem(), "problem": problem})
    assert chain["input"]["algorithm"] == "keypoly-monomialize"

    def log(trace):
        return [
            (r["J"], r["j"]) if "J" in r else r["translation"]
            for r in trace["steps"]
            if "J" in r or "translation" in r
        ]

    assert log(chain) == log(uniformize)
    assert [r for r in log(chain) if isinstance(r, dict)] == [log(chain)[-1]]
    assert len(log(chain)) >= 2
    steps = [t["witnesses"]["sequence"]["steps"] for t in (chain, uniformize)]
    assert steps[0] == steps[1] and steps[0][-1]["translations"][0]["new_weight"] == ["1"]


def test_all_selectors_produce_verifiable_traces():
    for p in all_selector_problems():
        trace = run_problem(p)
        assert trace["verdict"]["ok"], (p["algorithm"], trace["verdict"])
        verify_trace(trace)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "valmono.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def test_cli_exit_codes(tmp_path):
    pf = tmp_path / "p.json"
    tf = tmp_path / "t.json"
    pf.write_text(json.dumps(pair_problem()))
    r = _cli("run", str(pf), "--out", str(tf))
    assert r.returncode == 0
    r = _cli("verify", str(tf))
    assert r.returncode == 0
    # tamper: flip one exponent
    trace = json.loads(tf.read_text())
    trace["steps"][0]["gamma"][0] += 2
    tf.write_text(json.dumps(trace))
    r = _cli("verify", str(tf))
    assert r.returncode == 4
    assert "trace mismatch at step" in r.stderr
    # malformed JSON
    pf.write_text("{not json")
    assert _cli("run", str(pf)).returncode == 2
    # unknown selector, and one that is no string: exit 2 naming the field
    for algorithm in ("nope", [], {}):
        pf.write_text(json.dumps({"algorithm": algorithm}))
        r = _cli("run", str(pf))
        assert r.returncode == 2 and "algorithm" in r.stderr and "Traceback" not in r.stderr
    # verify replays the embedded input through the same check
    tf.write_text(json.dumps({"header": {"tool": "valmono"}, "input": {"algorithm": []}}))
    r = _cli("verify", str(tf))
    assert r.returncode == 2 and "algorithm must be a string" in r.stderr
    # algorithm error: zero weight
    bad = pair_problem()
    bad["spec"]["weights"][0] = {"coords": ["0", "0"]}
    pf.write_text(json.dumps(bad))
    r = _cli("run", str(pf), "--out", str(tf))
    assert r.returncode == 3
    assert "weights must be positive" in r.stderr


@pytest.mark.parametrize("algorithm", ["nope", [], {}, None, 3])
def test_an_unknown_algorithm_is_a_schema_error(algorithm):
    with pytest.raises(SchemaError, match="algorithm"):
        run_problem({**pair_problem(), "algorithm": algorithm})
    trace = run_problem(pair_problem())
    trace["input"]["algorithm"] = algorithm
    with pytest.raises(SchemaError, match="algorithm"):
        verify_trace(trace)


def test_cli_batch_and_jobs(tmp_path):
    pf = tmp_path / "batch.json"
    tf = tmp_path / "traces.json"
    batch = [pair_problem((0, k), (k + 1, 0)) for k in range(1, 7)]
    pf.write_text(json.dumps(batch))
    r = _cli("run", str(pf), "--out", str(tf), "--jobs", "3")
    assert r.returncode == 0
    traces = json.loads(tf.read_text())
    assert len(traces) == 6
    digests = [t["header"]["input_digest"] for t in traces]
    assert digests == [canonical_digest(p) for p in batch]  # order preserved
    assert _cli("verify", str(tf)).returncode == 0


def _blank_created(text):
    return re.sub(r'"created": "[^"]*"', '"created": ""', text)


def _expected_bytes(payload):
    """What `valmono run` must write: json.dumps of the in-process traces."""
    if isinstance(payload, list):
        obj = [run_problem(p) for p in payload]
    else:
        obj = run_problem(payload)
    return _blank_created(json.dumps(obj) + "\n")


def _refused_pair():
    bad = pair_problem()
    bad["spec"]["weights"][0] = {"coords": ["0", "0"]}
    return bad


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_cli_output_bytes_match_in_process_dumps(tmp_path, jobs):
    # 36 items, shared out item by item; a 2-item batch has fewer items
    # than --jobs 3 asks workers for
    batch = (all_selector_problems() + [_refused_pair(), pair_problem((0, 5), (7, 0))]) * 4
    cases = [
        (batch, 3),
        (all_selector_problems()[0], 0),
        ([], 0),
        ([_refused_pair()], 3),
        (all_selector_problems()[:2], 0),
    ]
    for k, (payload, code) in enumerate(cases):
        pf = tmp_path / f"p{k}.json"
        tf = tmp_path / f"t{k}.json"
        pf.write_text(json.dumps(payload))
        r = _cli("run", str(pf), "--out", str(tf), "--jobs", jobs)
        assert r.returncode == code, r.stderr
        assert _blank_created(tf.read_text(encoding="utf-8")) == _expected_bytes(payload)
    # without --out the same bytes go to stdout
    r = _cli("run", str(tmp_path / "p0.json"), "--jobs", jobs)
    assert r.returncode == 3
    assert _blank_created(r.stdout) == _expected_bytes(batch)
    assert r.stderr == "error: weights must be positive\n" * 4


def test_json_tool_indent_view_is_the_indented_dump(tmp_path):
    batch = all_selector_problems() + [_refused_pair()]
    pf = tmp_path / "p.json"
    tf = tmp_path / "t.json"
    pf.write_text(json.dumps(batch))
    assert _cli("run", str(pf), "--out", str(tf), "--jobs", "2").returncode == 3
    view = subprocess.run(
        [sys.executable, "-m", "json.tool", "--indent", "1", str(tf)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    traces = [run_problem(p) for p in batch]
    assert _blank_created(view) == _blank_created(json.dumps(traces, indent=1) + "\n")


def test_cli_verifies_indented_batches(tmp_path):
    # the layout `valmono run` wrote before it switched to compact JSON
    tf = tmp_path / "old.json"
    tf.write_text(json.dumps([run_problem(p) for p in all_selector_problems()], indent=1) + "\n")
    for path in (tf, OFF_TRACES):  # FRAMED_TRACES: test_cli_verifies_framed_traces
        r = _cli("verify", str(path))
        assert r.returncode == 0, (path.name, r.stderr)


# each case: the CLI arguments, given a directory that holds a valid
# problem p.json and a file bytes.json that is not UTF-8
FILE_FAULTS = {
    "run-directory": lambda d: ("run", str(d)),
    "verify-directory": lambda d: ("verify", str(d)),
    "run-not-utf8": lambda d: ("run", str(d / "bytes.json")),
    "verify-not-utf8": lambda d: ("verify", str(d / "bytes.json")),
    "out-missing-directory": lambda d: ("run", str(d / "p.json"), "--out", str(d / "no" / "t.json")),
    "out-is-directory": lambda d: ("run", str(d / "p.json"), "--out", str(d)),
}


@pytest.mark.parametrize("case", list(FILE_FAULTS))
def test_cli_file_faults_exit_2(tmp_path, case):
    (tmp_path / "p.json").write_text(json.dumps(pair_problem()))
    (tmp_path / "bytes.json").write_bytes(b"\xff\xfe[")
    r = _cli(*FILE_FAULTS[case](tmp_path))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    verb = "write" if case.startswith("out-") else "read"
    assert r.stderr.startswith(f"error: cannot {verb} ") and r.stderr.count("\n") == 1
    assert r.stdout == ""


@pytest.mark.parametrize("out, reason", [
    ("nodir/t.json", "No such file or directory"),
    ("afile/t.json", "Not a directory"),
    (".", "Is a directory"),
])
def test_cli_unwritable_out_fails_before_any_problem_runs(tmp_path, monkeypatch, capsys, out, reason):
    from valmono import cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a problem ran before --out was checked")

    monkeypatch.setattr(cli, "run_problem", must_not_run)
    (tmp_path / "afile").write_text("")
    pf = tmp_path / "batch.json"
    pf.write_text(json.dumps([pair_problem(), pair_problem()]))
    target = str(tmp_path / out)
    assert cli.main(["run", str(pf), "--out", target]) == 2
    assert capsys.readouterr().err == f"error: cannot write {target}: {reason}\n"


def test_cli_write_fault_after_the_run_exits_2(tmp_path, monkeypatch, capsys):
    from valmono import cli

    def full_disk(self, *args, **kwargs):
        raise OSError(28, "No space left on device")

    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(pair_problem()))
    monkeypatch.setattr(cli.Path, "write_text", full_disk)
    target = str(tmp_path / "t.json")
    assert cli.main(["run", str(pf), "--out", target]) == 2
    assert capsys.readouterr().err == f"error: cannot write {target}: No space left on device\n"


def test_one_process_commands_load_no_process_pool(tmp_path):
    pf, tf = tmp_path / "p.json", tmp_path / "t.json"
    pf.write_text(json.dumps([pair_problem(), pair_problem()]))
    tf.write_text(json.dumps([run_problem(pair_problem())]))
    script = (
        "import sys\n"
        "from valmono import cli\n"
        f"assert cli.main(['verify', {str(tf)!r}]) == 0\n"
        f"assert cli.main(['run', {str(pf)!r}, '--jobs', '1', '--out', {str(tf)!r}]) == 0\n"
        "assert 'concurrent.futures' not in sys.modules, 'pool loaded'\n"
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing loaded'\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("text, code", [(None, 0), ("{not json", 2)])
@pytest.mark.parametrize("enabled", [True, False])
def test_load_json_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, text, code, enabled):
    from valmono import cli

    seen = []
    load = json.load
    monkeypatch.setattr(cli.json, "load", lambda fh: seen.append(gc.isenabled()) or load(fh))
    tf = tmp_path / "t.json"
    tf.write_text(text or json.dumps(run_problem(pair_problem())))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert cli.main(["verify", str(tf)]) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


def _coefficient_edited(literal):
    """The polynomial run's trace with its first coefficient literal,
    ``"1"``, replaced in the embedded input."""
    trace = run_problem(all_selector_problems()[-1])
    terms = trace["input"]["poly"]["terms"]
    assert trace["input"]["algorithm"] == "polynomial" and terms[0]["c"] == "1"
    terms[0]["c"] = literal
    return trace


def test_verify_checks_the_input_digest():
    # "2/2" is the same rational, so the replay reproduces every step and
    # witness: only the digest tells that the input is not the one run
    bad = _coefficient_edited("2/2")
    err = _mismatch(bad)
    assert err.path == "header.input_digest" and err.step == 0
    assert str(err) == "trace mismatch at the input, first difference at header.input_digest"
    del bad["header"]["input_digest"]
    verify_trace(bad)


@pytest.mark.parametrize("literal", ["2/2", "3"])
def test_cli_verify_names_an_edited_input(tmp_path, literal):
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps(_coefficient_edited(literal)))
    r = _cli("verify", str(tf))
    assert r.returncode == 4
    assert r.stderr == "trace 0: trace mismatch at the input, first difference at header.input_digest\n"


# -- the fork runner: each share's exception reaches the caller ------------

def _numbered_batch(n=5):
    """``n`` pair problems, item ``k`` with ``alpha == [0, k]``: under
    ``--jobs 2`` the caller runs the even items and one child the odd."""
    return [pair_problem((0, k), (k + 1, 0)) for k in range(n)]


def _failing_run_one(monkeypatch, failing, fail):
    """``cli._run_one`` patched to call ``fail(k)`` for the items ``k`` in
    ``failing``; the machine is taken to have 4 CPUs, so that ``--jobs``
    forks whatever the CPUs."""
    from valmono import cli

    run_one = cli._run_one

    def patched(item):
        k = item[0]["alpha"][1]
        if k in failing:
            fail(k)
        return run_one(item)

    monkeypatch.setattr(cli, "_run_one", patched)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise_arithmetic(k):
    raise ArithmeticError(f"item {k}")


# item 3 is the child's, item 2 the caller's; of items 1 and 2 the first
# in input order wins, as in one process
@pytest.mark.parametrize("failing, raised", [({3}, 3), ({2}, 2), ({1, 2}, 1), ({2, 3}, 2)])
def test_an_exception_of_any_share_reaches_the_caller(tmp_path, monkeypatch, failing, raised):
    from valmono import cli

    pf, tf = tmp_path / "p.json", tmp_path / "t.json"
    pf.write_text(json.dumps(_numbered_batch()))
    _failing_run_one(monkeypatch, failing, _raise_arithmetic)
    with pytest.raises(ArithmeticError, match=f"^item {raised}$") as err:
        cli.main(["run", str(pf), "--jobs", "2", "--out", str(tf)])
    _assert_no_child_left()
    assert not tf.exists()
    cause = err.value.__cause__
    if raised % 2:  # raised in the child: its traceback comes along
        assert isinstance(cause, cli._ChildTraceback)
        assert "in _raise_arithmetic" in str(cause)
        assert str(cause).endswith(f"ArithmeticError: item {raised}")
    else:
        assert cause is None


@pytest.mark.parametrize("failing", [{1}, {2}])
def test_a_schema_error_of_any_share_exits_2(tmp_path, monkeypatch, capsys, failing):
    from valmono import cli

    def fail(k):
        raise SchemaError(f"item {k} is malformed")

    pf, tf = tmp_path / "p.json", tmp_path / "t.json"
    pf.write_text(json.dumps(_numbered_batch()))
    _failing_run_one(monkeypatch, failing, fail)
    assert cli.main(["run", str(pf), "--jobs", "2", "--out", str(tf)]) == 2
    _assert_no_child_left()
    assert capsys.readouterr().err == f"error: item {min(failing)} is malformed\n"
    assert not tf.exists()


def test_a_child_that_ends_without_a_result_is_an_error(tmp_path, monkeypatch):
    from valmono import cli

    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(_numbered_batch()))
    _failing_run_one(monkeypatch, {3}, lambda k: os._exit(7))
    with pytest.raises(ChildProcessError, match=r"without a result \(exit code 7\)$"):
        cli.main(["run", str(pf), "--jobs", "2", "--out", str(tmp_path / "t.json")])
    _assert_no_child_left()


def test_a_pipe_that_cannot_grow_still_carries_the_result(tmp_path, monkeypatch):
    """Where a pipe keeps its default size the child's result is handed
    over in pieces: the output is the same."""
    import fcntl

    from valmono import cli

    def refuse(fd, cmd, arg=0):
        raise OSError(1, "Operation not permitted")

    pf, tf = tmp_path / "p.json", tmp_path / "t.json"
    batch = all_selector_problems() * 24  # about 170 kB of traces for the child
    pf.write_text(json.dumps(batch))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(fcntl, "fcntl", refuse)
    assert cli.main(["run", str(pf), "--jobs", "2", "--out", str(tf)]) == 0
    _assert_no_child_left()
    assert _blank_created(tf.read_text(encoding="utf-8")) == _expected_bytes(batch)


def test_without_fork_the_batch_runs_in_process(tmp_path, monkeypatch):
    from valmono import cli

    pf, tf = tmp_path / "p.json", tmp_path / "t.json"
    pf.write_text(json.dumps(_numbered_batch()))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.delattr(cli.os, "fork")
    monkeypatch.setattr(cli, "_run_forked", None)  # would fail if called
    assert cli.main(["run", str(pf), "--jobs", "2", "--out", str(tf)]) == 0
    assert _blank_created(tf.read_text(encoding="utf-8")) == _expected_bytes(_numbered_batch())


def test_worker_count_is_clamped():
    from valmono.cli import worker_count

    assert worker_count(5000, 2, 2) == 2  # never more than the batch
    assert worker_count(5000, 100, 4) == 4  # nor than the CPUs
    assert worker_count(2, 100, 64) == 2  # nor than requested
    assert worker_count(3, 0, 2) == 1  # an empty batch runs in process
    assert worker_count(3, 10, None) == 1  # unknown CPU count


@pytest.mark.parametrize("flag", [("--jobs", "0"), ("--jobs", "-3"), ("--budget", "-1")])
def test_cli_rejects_bad_jobs_and_budget(tmp_path, flag):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps([pair_problem(), pair_problem()]))
    r = _cli("run", str(pf), *flag)
    assert r.returncode == 2
    assert flag[0] in r.stderr and "Traceback" not in r.stderr


def test_cli_budget_flag(tmp_path):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(pair_problem((0, 7), (10, 0))))  # needs 6 steps
    r = _cli("run", str(pf), "--budget", "2")
    assert r.returncode == 3
    assert "budget" in r.stderr


def budget_polynomial_problem():
    """A polynomial run of 10 blow-ups: 5 for the key polynomials, then 5
    to principalize the exponents of u1^4 + u2^3 in their final frame."""
    q = {"vars": ["u1", "u2", "x"], "terms": [{"e": [0, 0, 1], "c": "1"}]}
    q2 = {"vars": ["u1", "u2", "x"], "terms": [{"e": [0, 0, 2], "c": "1"}, {"e": [3, 3, 0], "c": "-1"}]}
    return {
        "schema": 1,
        "algorithm": "polynomial",
        "group": copy.deepcopy(GROUP2),
        "chain": {
            "ground": copy.deepcopy(SPEC2),
            "x": "x",
            "entries": [
                {"Q": q, "beta": {"coords": ["3/2", "3/2"]}},
                {"Q": q2, "beta": {"coords": ["3", "4"]}},
            ],
        },
        "poly": {"vars": ["u1", "u2", "x"], "terms": [{"e": [4, 0, 0], "c": "1"}, {"e": [0, 3, 0], "c": "1"}]},
    }


def test_cli_budget_bounds_the_whole_run(tmp_path):
    # the principalization after the key-polynomial phase spends the same budget
    pf, tf = tmp_path / "p.json", tmp_path / "t.json"
    pf.write_text(json.dumps(budget_polynomial_problem()))
    r = _cli("run", str(pf), "--budget", "5", "--out", str(tf))
    assert r.returncode == 3 and "step budget exceeded (5 steps)" in r.stderr
    assert json.loads(tf.read_text())["verdict"]["message"] == "step budget exceeded (5 steps)"
    assert _cli("run", str(pf), "--budget", "10", "--out", str(tf)).returncode == 0
    steps = json.loads(tf.read_text())["witnesses"]["sequence"]["steps"]
    assert sum(len(s["J"]) > 1 for s in steps) == 10


def test_keypoly_expand_witness_values():
    trace = run_problem(
        {
            "schema": 1,
            "algorithm": "keypoly-expand",
            "group": {"rank": 1, "ordering": "sqrt-primes", "labels": ["g1"]},
            "chain": cusp_chain_json(),
            "poly": {"vars": ["u", "x"], "terms": [{"e": [0, 3], "c": "1"}]},
            "level": 2,
        }
    )
    w = trace["witnesses"]
    # x^3 = (u^3 x) + x * Q_2: coefficients u^3 x and x; value min(3 + 3/2,
    # 4 + 3/2) = 9/2 attained only at j = 0
    assert w["reassembles"] is True
    assert w["truncated_value"] == {"coords": ["9/2"]}
    assert w["delta"] == 0
    assert w["epsilon"] == 1
    assert w["coefficients"][0]["terms"] == [{"e": [3, 1], "c": "1"}]
    assert w["coefficients"][1]["terms"] == [{"e": [0, 1], "c": "1"}]


def test_cli_output_bytes_deterministic(tmp_path):
    pf = tmp_path / "p.json"
    t1 = tmp_path / "a.json"
    t2 = tmp_path / "b.json"
    pf.write_text(json.dumps(pair_problem((0, 5), (7, 0))))
    assert _cli("run", str(pf), "--out", str(t1)).returncode == 0
    assert _cli("run", str(pf), "--out", str(t2)).returncode == 0
    a = json.loads(t1.read_text())
    b = json.loads(t2.read_text())
    a["header"].pop("created")
    b["header"].pop("created")
    assert json.dumps(a, sort_keys=True).encode() == json.dumps(b, sort_keys=True).encode()


def test_cli_batch_of_100_pairs(tmp_path):
    import random

    rng = random.Random(99)
    batch = [pair_problem((rng.randint(1, 8), 0), (0, rng.randint(1, 8))) for _ in range(100)]
    pf = tmp_path / "batch100.json"
    tf = tmp_path / "t100.json"
    pf.write_text(json.dumps(batch))
    assert _cli("run", str(pf), "--out", str(tf), "--jobs", "4").returncode == 0
    traces = json.loads(tf.read_text())
    assert len(traces) == 100
    assert all(t["verdict"]["ok"] for t in traces)
    assert _cli("verify", str(tf)).returncode == 0


def test_negative_exponents_rejected():
    bad = pair_problem()
    bad["alpha"] = [-1, 0]
    with pytest.raises(SchemaError):
        run_problem(bad)


def test_tower_chain_through_trace_layer():
    trace = run_problem({
        "algorithm": "keypoly-monomialize",
        "group": {"rank": 1, "ordering": "sqrt-primes", "labels": ["g1"]},
        "chain": {
            "ground": {"vars": ["u"], "weights": [{"coords": ["1"]}]},
            "x": "x",
            "entries": [
                {"Q": {"vars": ["u", "x"], "terms": [{"e": [0, 1], "c": "1"}]},
                 "beta": {"coords": ["1"]}},
                {"Q": {"vars": ["u", "x"],
                       "terms": [{"e": [2, 0], "c": "-2"}, {"e": [0, 2], "c": "1"}]},
                 "beta": {"coords": ["5/2"]}},
            ],
        },
    })
    assert trace["verdict"]["ok"]
    verify_trace(trace)
    w = trace["witnesses"]
    assert w["final_frame"]["tower"]["extensions"][0]["sym"] == "t1"
    assert w["entries"][-1]["x_multiplicity"] == 1
    assert w["level_data"][0]["minpoly"] == ["-2", "0", "1"]


BAD_RATIONALS = [0.1, True, "abc", "3/0", "0.5", "1e3", " 7 ", "1_000"]


def test_rational_literals():
    from valmono.values import rational_from_str

    assert rational_from_str("-07/14") == (-7, 14)
    assert rational_from_str("0") == (0, 1)
    for literal in ("3/00", "+1", "1/-2", "", "1\n", "\u0663", "1" * 5000, "1/" + "1" * 5000):
        with pytest.raises(SchemaError, match="bad rational"):
            rational_from_str(literal)


def _with_bad_coordinate(literal):
    problem = pair_problem()
    problem["spec"]["weights"][1]["coords"][0] = literal
    return problem


def _with_bad_beta_n(literal):
    problem = cusp_uniformize_problem()
    problem["problem"]["beta_n"]["coords"][0] = literal
    return problem


@pytest.mark.parametrize("literal", BAD_RATIONALS)
def test_bad_rational_is_schema_error(literal):
    for problem in (_with_bad_coordinate(literal), _with_bad_beta_n(literal)):
        with pytest.raises(SchemaError) as err:
            run_problem(problem)
        assert repr(literal) in str(err.value)


@pytest.mark.parametrize("literal", BAD_RATIONALS)
def test_cli_bad_rational_exits_2(tmp_path, literal):
    pf = tmp_path / "p.json"
    tf = tmp_path / "t.json"
    pf.write_text(json.dumps(_with_bad_coordinate(literal)))
    r = _cli("run", str(pf), "--out", str(tf))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert repr(literal) in r.stderr
    assert not tf.exists()


# -- unbounded input: quoted short in messages, past the digit limit -------

def _with_huge(field, value, problem=None):
    problem = problem or pair_problem()
    target = problem["spec"] if field in ("vars", "weights") else problem
    target[field] = value
    return problem


# each case: an input whose shape fault sits in a field of 5000 characters
# or 10000 entries, as read by rational_from_str, _pairs, _names, _values
# and _poly
HUGE_FIELDS = {
    "literal": lambda: _with_huge(
        "weights", [{"coords": ["1", "0"]}, {"coords": ["1" * 5000 + "x", "1"]}]
    ),
    "pairs": lambda: _with_huge("weights", [{"coords": ["1", "0"]}, ["1"] * 10000]),
    "names": lambda: _with_huge("vars", ["u"] * 9999 + [5]),
    "values": lambda: _with_huge("weights", {str(i): "1" for i in range(10000)}),
    "poly": lambda: _with_huge(
        "poly", {"vars": ["u", "x"], "terms": [{"e": [0, 1], "c": 1}] * 10000}, _expand_problem()
    ),
}


@pytest.mark.parametrize("case", list(HUGE_FIELDS))
def test_messages_quote_at_most_a_bounded_part_of_the_input(case):
    with pytest.raises(SchemaError) as err:
        run_problem(HUGE_FIELDS[case]())
    message = str(err.value)
    assert len(message) < 160 and message.endswith("…"), message


def test_a_huge_variable_name_is_quoted_short():
    (problem,) = [p for p in all_selector_problems() if p["algorithm"] == "nondegenerate"]
    problem["poly"]["vars"][-1] = "v" * 5000
    verdict = run_problem(problem)["verdict"]
    assert verdict["code"] == "invalid input" and len(verdict["message"]) < 160
    assert verdict["message"].endswith("… disappears but occurs")


def test_cli_json_integer_past_the_digit_limit_exits_2(tmp_path):
    pf = tmp_path / "big.json"
    pf.write_text("[" + "1" * 5000 + "]")
    for command in ("run", "verify"):
        r = _cli(command, str(pf))
        assert r.returncode == 2 and "Traceback" not in r.stderr
        assert r.stderr.startswith("error: malformed JSON: ") and r.stdout == ""


def test_cli_digit_limit_message_names_the_limit(tmp_path, capsys):
    """The message names the interpreter's limit, not a call the CLI
    offers no way to make."""
    from valmono import cli

    pf = tmp_path / "big.json"
    pf.write_text("[" + "1" * 5000 + "]")
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (4300, 1000):
            sys.set_int_max_str_digits(digits)
            assert cli.main(["run", str(pf)]) == 2
            message = f"error: malformed JSON: an integer has more than {digits} digits\n"
            assert capsys.readouterr() == ("", message)
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_huge_level_is_quoted_short():
    level = int("1" * 4000)
    verdict = run_problem(_expand_problem(level=level))["verdict"]
    assert verdict["code"] == "invalid input"
    assert len(verdict["message"]) <= 100 and verdict["message"].endswith("… outside the chain")


def _long_result_problem():
    """A pair run whose pushed weight has a denominator of about 6000
    digits, more than the interpreter writes as a string."""
    return {
        "algorithm": "pair",
        "group": {"rank": 1},
        "spec": {
            "vars": ["x", "y"],
            "weights": [{"coords": ["1/" + "7" * 3000]}, {"coords": ["1/" + "3" * 2999 + "1"]}],
        },
        "alpha": [1, 0],
        "gamma": [0, 1],
    }


TOO_LONG = {
    "ok": False, "code": "invalid input", "message": "a rational has too many digits to write"
}


def test_a_result_too_long_to_write_is_invalid_input():
    trace = run_problem(_long_result_problem())
    assert trace["verdict"] == TOO_LONG and trace["steps"] == []
    verify_trace(trace)


def test_cli_result_too_long_to_write_exits_3(tmp_path):
    pf = tmp_path / "p.json"
    tf = tmp_path / "t.json"
    pf.write_text(json.dumps(_long_result_problem()))
    r = _cli("run", str(pf), "--out", str(tf))
    assert r.returncode == 3 and "Traceback" not in r.stderr
    assert json.loads(tf.read_text())["verdict"] == TOO_LONG
    assert _cli("verify", str(tf)).returncode == 0


def _expand_problem(**level):
    return dict(
        {
            "schema": 1,
            "algorithm": "keypoly-expand",
            "group": {"rank": 1, "ordering": "sqrt-primes", "labels": ["g1"]},
            "chain": cusp_chain_json(),
            "poly": {"vars": ["u", "x"], "terms": [{"e": [0, 3], "c": "1"}]},
        },
        **level,
    )


BAD_LEVELS = ["abc", None, True, 1.9, "2", [2]]


@pytest.mark.parametrize("level", BAD_LEVELS)
def test_keypoly_expand_bad_level_is_schema_error(level):
    with pytest.raises(SchemaError) as err:
        run_problem(_expand_problem(level=level))
    assert repr(level) in str(err.value)


def test_keypoly_expand_level_default_and_range():
    assert run_problem(_expand_problem())["witnesses"]["level"] == 2
    assert run_problem(_expand_problem(level=1))["witnesses"]["level"] == 1
    for level in (0, 3, -1):
        verdict = run_problem(_expand_problem(level=level))["verdict"]
        assert verdict["ok"] is False and verdict["code"] == "invalid input"


@pytest.mark.parametrize("level", ["abc", None, True, 1.9])
def test_cli_bad_level_exits_2(tmp_path, level):
    pf = tmp_path / "p.json"
    tf = tmp_path / "t.json"
    pf.write_text(json.dumps(_expand_problem(level=level)))
    r = _cli("run", str(pf), "--out", str(tf))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "level" in r.stderr
    assert not tf.exists()


def test_numeric_minpoly_coefficient_is_schema_error(tmp_path):
    # residue coefficients are 'p/q' strings like every rational literal
    p = cusp_uniformize_problem()
    p["problem"]["residue"]["minpoly"] = [-1, "1"]
    with pytest.raises(SchemaError, match="-1"):
        run_problem(p)
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(p))
    r = _cli("run", str(pf))
    assert r.returncode == 2 and "Traceback" not in r.stderr


BAD_SPECS = [
    ("weights", 5),
    ("vars", 5),
    ("vars", [1, 2]),
    ("weights", ["1", "0"]),
    ("weights", [{"coords": "1"}, {"coords": ["0", "1"]}]),
    ("weights", [{}, {"coords": ["0", "1"]}]),
]


@pytest.mark.parametrize("field,value", BAD_SPECS)
def test_malformed_spec_is_schema_error(field, value):
    problem = pair_problem()
    problem["spec"][field] = value
    with pytest.raises(SchemaError, match=field):
        run_problem(problem)


@pytest.mark.parametrize("field", ["w_vars", "w_weights"])
def test_malformed_uniformize_weights_is_schema_error(field):
    problem = cusp_uniformize_problem()
    problem["problem"][field] = 5
    with pytest.raises(SchemaError, match=field):
        run_problem(problem)


# the other uniformize fields, residue.minpoly included: 5, or a minimal
# polynomial with numeric coefficients, is a schema error naming the field
BAD_UNIFORMIZE = [
    ("v_vars", 5),
    ("v_vars", ["v1", 2]),
    ("v_weights", 5),
    ("v_weights", ["1"]),
    ("wn_var", 5),
    ("residue", 5),
    ("minpoly", 5),
    ("minpoly", [-1, 1]),
    ("h", {"vars": ["w1", "wn"], "terms": [{"e": [0, 3], "c": 5}]}),
    ("kind", "banana"),
]


def _with_bad_uniformize(field, value):
    problem = cusp_uniformize_problem()
    prob = problem["problem"]
    (prob["residue"] if field in ("minpoly", "kind") else prob)[field] = value
    return problem


@pytest.mark.parametrize("field,value", BAD_UNIFORMIZE)
def test_malformed_uniformize_field_is_schema_error(field, value):
    with pytest.raises(SchemaError, match=field):
        run_problem(_with_bad_uniformize(field, value))


def test_uniformize_optional_fields_still_parse():
    problem = cusp_uniformize_problem()
    problem["problem"].update({"v_vars": ["v1"], "v_weights": [None]})
    assert run_problem(problem)["verdict"]["ok"]
    problem["problem"]["v_weights"] = [{"coords": ["1"]}]
    assert run_problem(problem)["verdict"]["ok"]
    del problem["problem"]["residue"]["kind"]  # read as algebraic
    trace = run_problem(problem)
    assert trace["verdict"]["ok"]
    assert trace["witnesses"]["residue"] == {"kind": "algebraic", "minpoly": ["-1", "1"]}


def test_residue_witness_echoes_the_input_literals():
    # the run reads -2/2 and 2/2 as -1 and 1; the witness keeps the literals
    problem = cusp_uniformize_problem()
    problem["problem"]["residue"]["minpoly"] = ["-2/2", "2/2"]
    trace = run_problem(problem)
    assert trace["verdict"]["ok"]
    assert trace["witnesses"]["residue"] == {"kind": "algebraic", "minpoly": ["-2/2", "2/2"]}
    canonical = run_problem(cusp_uniformize_problem())
    assert trace["steps"] == canonical["steps"]
    verify_trace(trace)


# w_vars and w_weights of the right JSON type, but no w-variable or counts
# that disagree: an invalid-input verdict, not a traceback or an ok run
@pytest.mark.parametrize(
    "w_vars,w_weights,message",
    [
        ([], [], "at least one w-variable"),
        (["a"], ["2", "5"], r"differ in length \(1 and 2\)"),
        (["a", "b"], ["2"], r"differ in length \(2 and 1\)"),
    ],
)
def test_cli_uniformize_w_shape_is_invalid_input(tmp_path, w_vars, w_weights, message):
    problem = cusp_uniformize_problem()
    problem["problem"]["w_vars"] = w_vars
    problem["problem"]["w_weights"] = [{"coords": [w]} for w in w_weights]
    pf = tmp_path / "p.json"
    tf = tmp_path / "t.json"
    pf.write_text(json.dumps(problem))
    r = _cli("run", str(pf), "--out", str(tf))
    assert r.returncode == 3 and "Traceback" not in r.stderr
    verdict = json.loads(tf.read_text())["verdict"]
    assert verdict["code"] == "invalid input" and re.search(message, verdict["message"])

def _assert_cli_schema_error(tmp_path, bad, good, field):
    """``bad`` alone and inside a ``--jobs 2`` batch exits 2 naming the
    field, with no traceback and no output file."""
    tf = tmp_path / "t.json"
    for payload, jobs in ((bad, "1"), ([good, bad, good], "2")):
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps(payload))
        r = _cli("run", str(pf), "--out", str(tf), "--jobs", jobs)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr and field in r.stderr
        assert not tf.exists()


@pytest.mark.parametrize("field,value", [BAD_SPECS[0], BAD_SPECS[1], BAD_SPECS[3]])
def test_cli_malformed_spec_exits_2(tmp_path, field, value):
    bad = pair_problem()
    bad["spec"][field] = value
    _assert_cli_schema_error(tmp_path, bad, pair_problem(), field)


@pytest.mark.parametrize("field,value", [BAD_UNIFORMIZE[k] for k in (0, 2, 4, 5, 6)])
def test_cli_malformed_uniformize_field_exits_2(tmp_path, field, value):
    bad = _with_bad_uniformize(field, value)
    _assert_cli_schema_error(tmp_path, bad, cusp_uniformize_problem(), field)


# a chain's ground takes the spec's fields; x and the entries are checked too
BAD_CHAINS = BAD_SPECS + [
    ("x", ["x"]),
    ("x", 5),
    ("entries", 3),
    ("entries", [5]),
    ("entries", [{"beta": {"coords": ["3/2"]}}]),
    ("entries", [{"Q": {"vars": ["u", "x"], "terms": [{"e": [0, 1], "c": "1"}]}}]),
]


def _with_bad_chain(field, value):
    problem = _expand_problem()
    chain = problem["chain"]
    (chain["ground"] if field in ("vars", "weights") else chain)[field] = value
    return problem


@pytest.mark.parametrize("field,value", BAD_CHAINS)
def test_malformed_chain_is_schema_error(field, value):
    with pytest.raises(SchemaError, match=field):
        run_problem(_with_bad_chain(field, value))


@pytest.mark.parametrize("field,value", [BAD_CHAINS[0], BAD_CHAINS[6], BAD_CHAINS[8], BAD_CHAINS[10]])
def test_cli_malformed_chain_exits_2(tmp_path, field, value):
    _assert_cli_schema_error(tmp_path, _with_bad_chain(field, value), _expand_problem(), field)


# a polynomial (the problem's poly, an entry's Q) or an entry's beta of the
# wrong JSON type is a schema error naming the field, not a TypeError
BAD_POLYS = [
    ("poly", 5),
    ("poly", []),
    ("poly", {"vars": "ux", "terms": []}),
    ("poly", {"vars": ["u", 1], "terms": []}),
    ("poly", {"vars": ["u", "x"], "terms": [{"e": ["a", 1], "c": "1"}]}),
    ("poly", {"vars": ["u", "x"], "terms": [{"e": [0, 3]}]}),
    ("Q", 5),
    ("Q", {"vars": ["u", "x"], "terms": 5}),
    ("beta", 5),
    ("beta", {"coords": "4"}),
    # a coefficient is a 'p/q' string, like every rational literal
    ("poly", {"vars": ["u", "x"], "terms": [{"e": [0, 3], "c": 5}]}),
    ("Q", {"vars": ["u", "x"], "terms": [{"e": [0, 2], "c": ["1"]}]}),
    ("poly", {"vars": ["u", "x"], "terms": [{"e": [0, 3], "c": None}]}),
]


def _with_bad_poly(field, value, problem=None):
    problem = problem or _expand_problem()
    (problem if field == "poly" else problem["chain"]["entries"][1])[field] = value
    return problem


@pytest.mark.parametrize("field,value", BAD_POLYS)
def test_malformed_polynomial_is_schema_error(field, value):
    with pytest.raises(SchemaError, match=field):
        run_problem(_with_bad_poly(field, value))


@pytest.mark.parametrize("algorithm", ["nondegenerate", "polynomial"])
def test_malformed_poly_of_other_selectors_is_schema_error(algorithm):
    (problem,) = [p for p in all_selector_problems() if p["algorithm"] == algorithm]
    with pytest.raises(SchemaError, match="poly"):
        run_problem(_with_bad_poly("poly", 5, problem))


@pytest.mark.parametrize("field,value", [BAD_POLYS[k] for k in (0, 7, 8, 10)])
def test_cli_malformed_polynomial_exits_2(tmp_path, field, value):
    _assert_cli_schema_error(tmp_path, _with_bad_poly(field, value), _expand_problem(), field)


# a group field of the wrong JSON type is a schema error naming the field
BAD_GROUPS = [
    ("group", 5),
    ("group", ["rank", 1]),
    ("rank", "1"),
    ("rank", 1.9),
    ("rank", True),
    ("rank", None),
    ("ordering", 5),
    ("ordering", None),
    ("labels", "a"),
    ("labels", [5]),
    ("labels", None),
]


def _with_bad_group(field, value):
    problem = cusp_uniformize_problem()
    if field == "group":
        problem["group"] = value
    else:
        problem["group"][field] = value
    return problem


@pytest.mark.parametrize("field,value", BAD_GROUPS)
def test_malformed_group_is_schema_error(field, value):
    with pytest.raises(SchemaError, match=field):
        run_problem(_with_bad_group(field, value))


@pytest.mark.parametrize("field,value", [BAD_GROUPS[k] for k in (0, 2, 6, 8, 9)])
def test_cli_malformed_group_exits_2(tmp_path, field, value):
    bad = _with_bad_group(field, value)
    _assert_cli_schema_error(tmp_path, bad, cusp_uniformize_problem(), field)


@pytest.mark.parametrize(
    "field,value",
    [("rank", 0), ("rank", -1), ("ordering", "dense"), ("labels", ["a", "a"]), ("ordering", "lex")],
)
def test_group_out_of_range_is_invalid_input(field, value):
    verdict = run_problem(_with_bad_group(field, value))["verdict"]
    assert verdict["ok"] is False and verdict["code"] == "invalid input"


def test_cli_lex_ordering_exits_3_and_writes_the_trace(tmp_path):
    pf = tmp_path / "p.json"
    tf = tmp_path / "t.json"
    pf.write_text(json.dumps(_with_bad_group("ordering", "lex")))
    r = _cli("run", str(pf), "--out", str(tf))
    assert r.returncode == 3 and "Traceback" not in r.stderr
    assert r.stderr == "error: unknown ordering 'lex'\n"
    trace = json.loads(tf.read_text())
    assert trace["steps"] == [] and trace["witnesses"] is None
    assert trace["verdict"] == {
        "ok": False, "code": "invalid input", "message": "unknown ordering 'lex'"
    }
    assert _cli("verify", str(tf)).returncode == 0


def test_group_defaults_still_parse():
    problem = cusp_uniformize_problem()
    problem["group"] = {"rank": 1}
    trace = run_problem(problem)
    assert trace["verdict"]["ok"]
    assert trace["witnesses"]["sequence"]["header"]["group"] == {
        "rank": 1, "ordering": "sqrt-primes", "labels": ["g1"]
    }


# -- the trace's own fields ------------------------------------------------

BAD_TRACE_FIELDS = [
    ("header", [1]),
    ("budget", "abc"),
    ("budget", 2.5),
    ("budget", -1),
    ("budget", True),
    ("steps", {"x": 1}),
    ("steps", 5),
    ("verdict", "x"),
    ("auto_independence", "off"),
    ("auto_independence", 0),
    ("schema", 2),
    ("schema", "one"),
    ("schema", None),
    ("schema", True),
]


def _with_bad_trace_field(field, value):
    trace = run_problem(pair_problem())
    if field in ("budget", "auto_independence", "schema"):
        trace["header"][field] = value
    else:
        trace[field] = value
    return trace


@pytest.mark.parametrize("field,value", BAD_TRACE_FIELDS)
def test_malformed_trace_field_is_schema_error(field, value):
    with pytest.raises(SchemaError, match=field):
        verify_trace(_with_bad_trace_field(field, value))


@pytest.mark.parametrize("field,value", BAD_TRACE_FIELDS)
def test_cli_verify_malformed_trace_field_exits_2(tmp_path, field, value):
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps(_with_bad_trace_field(field, value)))
    r = _cli("verify", str(tf))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr and field in r.stderr


def test_cli_verify_names_the_batch_trace_with_a_schema_fault(tmp_path):
    good = run_problem(pair_problem())
    cases = [
        ([{"a": 1}, 5], "error: trace 0: missing field 'header'"),
        ([good, _with_bad_trace_field("budget", -1)], "error: trace 1: budget must be"),
        ({"a": 1}, "error: missing field 'header'"),  # one object: no index
    ]
    for k, (payload, message) in enumerate(cases):
        tf = tmp_path / f"t{k}.json"
        tf.write_text(json.dumps(payload))
        r = _cli("verify", str(tf))
        assert r.returncode == 2
        assert r.stderr.startswith(message) and r.stderr.count("\n") == 1, r.stderr


def test_missing_or_null_steps_and_verdict_read_as_empty():
    refused = run_problem(_refused_pair())
    assert refused["steps"] == []
    for steps in (None, "missing"):
        trace = copy.deepcopy(refused)
        if steps == "missing":
            del trace["steps"]
        else:
            trace["steps"] = steps
        verify_trace(trace)
    # an empty verdict claims nothing, so it differs from the replayed one
    for verdict in (None, "missing"):
        trace = run_problem(pair_problem())
        if verdict == "missing":
            del trace["verdict"]
        else:
            trace["verdict"] = verdict
        with pytest.raises(TraceMismatchError, match="verdict"):
            verify_trace(trace)


# -- traces written with the independence claim switched off ----------------

# Written by `valmono run --auto-independence off` before that option was
# removed: one ok trace per selector, then two uniformize traces with a
# passive variable v1, the first with a perturbation touching v1 (no
# independence set either way), the second with one that leaves it alone.
OFF_TRACES = Path(__file__).resolve().parent / "data" / "traces_independence_off.json"


def _off_traces():
    return json.loads(OFF_TRACES.read_text())


def test_off_fixture_covers_every_selector():
    traces = _off_traces()
    assert len(traces) == 9
    assert {t["header"]["algorithm"] for t in traces} == set(ALGORITHMS)
    assert all(t["header"]["auto_independence"] is False for t in traces)
    assert all("independent_of" not in (t["witnesses"] or {}).get("sequence", {}) for t in traces)
    *_, touching, free = traces
    assert "independent_of" not in run_problem(touching["input"])["witnesses"]["sequence"]
    assert run_problem(free["input"])["witnesses"]["sequence"]["independent_of"] == [2]


@pytest.mark.parametrize("k", range(9))
def test_independence_off_traces_verify(k):
    trace = _off_traces()[k]
    verify_trace(trace)
    fresh = run_problem(trace["input"])
    sequence = (fresh["witnesses"] or {}).get("sequence")
    if sequence is None or "independent_of" not in sequence:
        # nothing to drop: the flag changes nothing either way
        del trace["header"]["auto_independence"]
        verify_trace(trace)
        return
    # the independence set of today's run, restored under the old flag
    restored = copy.deepcopy(trace)
    restored["witnesses"]["sequence"]["independent_of"] = sequence["independent_of"]
    with pytest.raises(TraceMismatchError, match="witnesses"):
        verify_trace(restored)
    # the flag dropped: the replay claims the set the trace lacks
    del trace["header"]["auto_independence"]
    with pytest.raises(TraceMismatchError, match="witnesses"):
        verify_trace(trace)
    restored["header"] = trace["header"]
    verify_trace(restored)


def test_cli_verifies_independence_off_traces(tmp_path):
    assert _cli("verify", str(OFF_TRACES)).returncode == 0
    traces = _off_traces()
    free = traces[-1]
    restored = copy.deepcopy(free)
    restored["witnesses"]["sequence"]["independent_of"] = [2]
    flagless = copy.deepcopy(free)
    del flagless["header"]["auto_independence"]
    for k, bad in enumerate((restored, flagless)):
        tf = tmp_path / f"t{k}.json"
        tf.write_text(json.dumps(traces[:-1] + [bad]))
        r = _cli("verify", str(tf))
        assert r.returncode == 4
        assert "trace 8: trace mismatch at witnesses" in r.stderr


def test_cli_has_no_auto_independence_option(tmp_path):
    assert "--auto-independence" not in _cli("run", "--help").stdout
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(pair_problem()))
    r = _cli("run", str(pf), "--auto-independence", "off")
    assert r.returncode == 2 and "unrecognized arguments" in r.stderr
    trace = run_problem(pair_problem())
    assert "auto_independence" not in trace["header"]


def test_library_has_no_independence_switch_or_problem_tower():
    import inspect

    from valmono.game import monomialize_nondegenerate, monomialize_pair, principalize_monomial_ideal
    from valmono.unifseq import UniformizingProblem, elementary_uniformizing_sequence

    for f in (
        monomialize_pair,
        principalize_monomial_ideal,
        monomialize_nondegenerate,
        elementary_uniformizing_sequence,
        run_problem,
    ):
        assert "auto_independence" not in inspect.signature(f).parameters, f.__name__
    assert "tower" not in UniformizingProblem._fields


# -- traces written while results held a FramedSequence --------------------

# Written by `valmono run` before the push path became the one holder of a
# run's sequence: one ok trace per selector, then two uniformize traces with
# passive v1, v2, the first with a perturbation that leaves them alone
# (independent_of [2, 3]), the second with one touching v2 (no set).
FRAMED_TRACES = Path(__file__).resolve().parent / "data" / "traces_framed_sequence.json"


def _framed_traces():
    return json.loads(FRAMED_TRACES.read_text())


def test_framed_fixture_covers_every_selector_and_independence_shape():
    traces = _framed_traces()
    assert len(traces) == 9
    assert {t["header"]["algorithm"] for t in traces} == set(ALGORITHMS)
    assert all(t["verdict"] == {"ok": True} for t in traces)
    *_, free, touching = traces
    assert free["witnesses"]["sequence"]["independent_of"] == [2, 3]
    assert "independent_of" not in touching["witnesses"]["sequence"]


@pytest.mark.parametrize("k", range(9))
def test_framed_traces_verify_and_rerun_the_same_sequence(k):
    trace = _framed_traces()[k]
    verify_trace(trace)
    fresh = run_problem(trace["input"])
    old, new = trace["witnesses"].get("sequence"), fresh["witnesses"].get("sequence")
    canonical = lambda x: json.dumps(x, sort_keys=True, separators=(",", ":"))
    assert canonical(new) == canonical(old)


def test_cli_verifies_framed_traces():
    r = _cli("verify", str(FRAMED_TRACES))
    assert r.returncode == 0, r.stderr


# -- traces written while groups had a "lex" ordering ----------------------

# Written by `valmono run` when a group could be ordered lexicographically:
# a pair run and a keypoly-expand run, both ok.  Only "sqrt-primes" is an
# ordering now, so their replay ends in an invalid input, with no steps
# and no witnesses, and verify reports the verdict that says so.
LEX_TRACES = Path(__file__).resolve().parent / "data" / "traces_lex_ordering.json"


@pytest.mark.parametrize("k", [0, 1])
def test_lex_traces_no_longer_verify(k):
    trace = json.loads(LEX_TRACES.read_text())[k]
    assert trace["input"]["group"]["ordering"] == "lex" and trace["verdict"] == {"ok": True}
    assert run_problem(trace["input"])["verdict"] == {
        "ok": False, "code": "invalid input", "message": "unknown ordering 'lex'"
    }
    with pytest.raises(TraceMismatchError) as err:
        verify_trace(trace)
    assert err.value.path == "verdict.ok"


def test_cli_lex_traces_exit_4():
    r = _cli("verify", str(LEX_TRACES))
    assert r.returncode == 4
    assert r.stderr == "trace 0: trace mismatch at verdict, first difference at verdict.ok\n"


# The JSON boundary reads a spec straight into integer weight rows.  Each
# row of this table holds an input with several faults and what the run
# does with it: it raises the named error, or it ends in the failure
# verdict with that code and message.
def _faulty_pair(vars_, weights, rank=2):
    p = pair_problem()
    p["group"] = {"rank": rank}
    p["spec"] = {"vars": vars_, "weights": [{"coords": c} for c in weights]}
    return p


def _faulty_poly(terms):
    return {
        "algorithm": "nondegenerate",
        "group": {"rank": 1},
        "spec": {"vars": ["a", "b"], "weights": [{"coords": ["1"]}, {"coords": ["2"]}]},
        "poly": {"vars": ["a", "b"], "terms": [{"e": e, "c": c} for e, c in terms]},
    }


def _faulty_group(**group):
    p = pair_problem()
    p["group"] = group
    return p


RANK = ("invalid input", "coordinate count must equal the group rank")
SEVERAL_FAULTS = [
    # a rank mismatch in weight 1 wins over a bad literal in weight 2
    (_faulty_pair(["a", "b"], [["1"], ["1", "x"]]), RANK),
    # a wrong rank wins over a wrong weight count
    (_faulty_pair(["a", "b"], [["1", "0", "0"]]), RANK),
    (_faulty_pair(["a", "b"], [[], ["1", "x"]]), RANK),
    # duplicate variables win over a zero weight
    (_faulty_pair(["a", "a"], [["0", "0"], ["1", "0"]]), ("invalid input", "variables must be distinct")),
    (_faulty_pair(["a", "b"], [["1", "1"], ["1", "-1"]]), ("weights must be positive",) * 2),
    # every schema error comes before the first bad exponent
    (_faulty_poly([([1], "1"), ([0, 1], "1/0")]), (SchemaError, "bad rational '1/0'")),
    (
        _faulty_poly([([1, 0], "1"), ([1], "1"), ([-1, 0], "2")]),
        ("invalid input", "exponent length must match the variable count"),
    ),
    (_faulty_poly([([-1, 0], "1"), ([1], "1")]), ("invalid input", "exponents must be nonnegative")),
    # in a group, a wrong JSON type wins over every invalid input; then the
    # rank wins over the ordering, and the ordering over the labels
    (
        _faulty_group(rank=0, ordering="lex", labels=5),
        (SchemaError, "labels must be an array of generator labels, not 5"),
    ),
    (_faulty_group(rank=0, ordering="lex"), ("invalid input", "rank must be >= 1")),
    (
        _faulty_group(rank=1, ordering="dense", labels=["a", "a"]),
        ("invalid input", "unknown ordering 'dense'"),
    ),
    (
        _faulty_group(rank=2, ordering="lex", labels=["a", "a"]),
        ("invalid input", "unknown ordering 'lex'"),
    ),
]


@pytest.mark.parametrize("problem, outcome", SEVERAL_FAULTS)
def test_the_first_fault_of_an_input_wins(problem, outcome):
    kind, message = outcome
    if kind is SchemaError:
        with pytest.raises(SchemaError) as err:
            run_problem(problem)
        assert str(err.value) == message
    else:
        assert run_problem(problem)["verdict"] == {"ok": False, "code": kind, "message": message}


@pytest.mark.parametrize(
    "coords, rows, den",
    [
        # unreduced literals over several denominators
        (
            [["2/4", "1/3"], ["6/8", "0"], ["-1/6", "1/1"], ["3", "-3/9"], ["5/24", "14/24"]],
            ((12, 8), (18, 0), (-4, 24), (72, -8), (5, 14)),
            24,
        ),
        # the literals' common denominator 8 is above the lowest one, 4
        ([["2/8", "0"], ["6/4", "4/8"]], ((1, 0), (6, 2)), 4),
        ([["4/2", "2"], ["6/3", "0"]], ((2, 2), (2, 0)), 1),
    ],
)
def test_a_spec_read_from_json_is_the_one_the_constructor_builds(coords, rows, den):
    from valmono.game import MonomialValuationSpec
    from valmono.trace import _parse_group, _spec

    names = tuple("abcde"[: len(coords)])
    problem = _faulty_pair(list(names), coords)
    group = _parse_group(problem)
    read = _spec(problem, "spec", group)
    built = MonomialValuationSpec(names, tuple(group.value(c) for c in coords))
    assert read == built and hash(read) == hash(built)
    assert (read.frame().rows, read.frame().den) == (built.frame().rows, built.frame().den) == (rows, den)
    assert read.weights == built.weights
    assert read.frame() == built.frame()
    assert read.frame().to_json() == built.frame().to_json()
    assert MonomialValuationSpec(names[:1], built.weights[:1]) != built


@pytest.mark.parametrize("k", [0, 1])
def test_pair_and_principalize_runs_build_no_value(monkeypatch, k):
    from valmono.values import Value

    built = []
    init = Value.__init__
    monkeypatch.setattr(Value, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    problem = all_selector_problems()[k]
    assert problem["algorithm"] == ("pair", "principalize")[k]
    trace = run_problem(problem)
    assert trace["verdict"] == {"ok": True} and trace["steps"]
    assert built == []
    verify_trace(trace)
    assert built == []


@pytest.mark.parametrize("edit, code", [(None, 0), ("alpha_final", 4)])
def test_verify_freezes_the_batch_and_thaws_it(tmp_path, monkeypatch, edit, code):
    from valmono import cli

    trace = run_problem(pair_problem())
    if edit:
        trace["witnesses"][edit] = [9, 9]
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps([trace, trace]))
    frozen = []
    replay = cli.verify_trace
    monkeypatch.setattr(cli, "verify_trace", lambda t: frozen.append(gc.get_freeze_count()) or replay(t))
    assert gc.get_freeze_count() == 0
    assert cli.main(["verify", str(tf)]) == code
    assert gc.get_freeze_count() == 0
    assert frozen and all(frozen)

    # a caller that froze objects of its own finds them still frozen
    frozen.clear()
    gc.freeze()
    try:
        before = gc.get_freeze_count()
        assert before
        assert cli.main(["verify", str(tf)]) == code
        assert gc.get_freeze_count() == before
        assert frozen and set(frozen) == {before}
    finally:
        gc.unfreeze()
