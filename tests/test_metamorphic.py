"""Metamorphic relations over the benchmark's pools (``bench/corpus.py``,
only read): two inputs whose outcomes must agree, without a recorded
answer for either.

- The game reads weights only through the signs of their integer
  combinations, so scaling every spec weight by one positive rational
  leaves the step records unchanged.
- A pair's reduced parts are the two sides of alpha - gamma, and a
  blow-up acts linearly on exponents, so adding one to every coordinate
  of both leaves every tau and center unchanged.
- The same holds for every value of a chain or a uniformizing problem:
  the engines order and solve value rows over one denominator, and a
  common positive factor changes no sign and no lattice relation.  So
  the ``chains`` runs keep their steps and verdicts, and a truncation of
  the ``expand`` pool keeps its expansion and invariants while its value
  scales by the factor.
- Each truncation of a key-polynomial chain is a valuation (MacLane,
  Trans. AMS 40, 1936), so at every level i of an ``expand`` chain
  ``v_i(f·g) = v_i(f) + v_i(g)``."""

from __future__ import annotations

import copy
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from valmono.trace import _parse_group, _poly, chain_from_json, run_problem

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402  (bench/ is not a package)

from valmono import keypoly, trace  # noqa: E402

FACTOR = Fraction(7, 3)


@pytest.fixture(scope="module")
def descent_pool():
    return corpus.pool("descent")


def _scale(value: dict, factor: Fraction) -> None:
    value["coords"] = [str(Fraction(c) * factor) for c in value["coords"]]


def _scaled(problem: dict, factor: Fraction) -> dict:
    out = copy.deepcopy(problem)
    for w in out["spec"]["weights"]:
        _scale(w, factor)
    return out


def test_scaling_every_weight_keeps_the_steps(descent_pool):
    kinds = set()
    for problem in descent_pool:
        before, after = run_problem(problem), run_problem(_scaled(problem, FACTOR))
        assert before["verdict"] == after["verdict"] == {"ok": True}
        assert after["steps"] == before["steps"]
        kinds.add(problem["algorithm"])
    assert kinds == {"pair", "principalize", "nondegenerate"}


def _centers(trace: dict) -> list:
    return [(r["J"], r["j"]) for r in trace["steps"]]


def test_a_common_factor_keeps_the_pair_centers(descent_pool):
    pairs = [p for p in descent_pool if p["algorithm"] == "pair"]
    moved = 0
    for problem in pairs:
        shifted = dict(
            problem,
            alpha=[x + 1 for x in problem["alpha"]],
            gamma=[x + 1 for x in problem["gamma"]],
        )
        before = run_problem(problem)
        assert _centers(run_problem(shifted)) == _centers(before)
        moved += bool(before["steps"])
    assert len(pairs) == 263 and moved > 100


# -- every value of a chain or a uniformizing problem ---------------------


@pytest.fixture(scope="module")
def chains_pool():
    return corpus.pool("chains")


@pytest.fixture(scope="module")
def expand_pool():
    return corpus.pool("expand")


def _scaled_values(problem: dict, factor: Fraction) -> dict:
    """The problem with every value times ``factor``: a chain's ground
    weights and betas, or a uniformizing problem's ``w_weights``,
    ``v_weights``, ``beta_n`` and ``beta_new``."""
    out = copy.deepcopy(problem)
    if "chain" in out:
        chain = out["chain"]
        found = chain["ground"]["weights"] + [e["beta"] for e in chain["entries"]]
    else:
        prob = out["problem"]
        found = prob["w_weights"] + prob.get("v_weights", []) + [prob["beta_n"], prob.get("beta_new")]
    for value in found:
        if value is not None:
            _scale(value, factor)
    return out


def _outcome(problem: dict):
    """The steps and verdict of a run, or the type and message of what
    escaped it (the pool holds escapes, ROADMAP item 1)."""
    try:
        trace = run_problem(problem)
    except Exception as err:
        return type(err), str(err)
    return trace["steps"], trace["verdict"]


def _chains_breaks(problems) -> tuple[list[int], int]:
    """The indices of the problems whose outcome moves when every value is
    scaled by ``FACTOR``, and how many of the runs escaped."""
    breaks, escapes = [], 0
    for k, p in enumerate(problems):
        before = _outcome(p)
        escapes += isinstance(before[0], type)
        if _outcome(_scaled_values(p, FACTOR)) != before:
            breaks.append(k)
    return breaks, escapes


def test_scaling_every_value_keeps_the_chains_outcomes(chains_pool):
    assert _chains_breaks(chains_pool) == ([], 29)
    kinds = {p["algorithm"] for p in chains_pool}
    assert kinds == {"keypoly-monomialize", "polynomial", "uniformize"}


def test_scaling_every_value_scales_the_truncated_value(expand_pool):
    for problem in expand_pool:
        before = run_problem(problem)
        after = run_problem(_scaled_values(problem, FACTOR))
        assert before["verdict"] == after["verdict"] == {"ok": True}
        b, a = before["witnesses"], after["witnesses"]
        assert [a[k] for k in ("coefficients", "delta", "epsilon")] == [
            b[k] for k in ("coefficients", "delta", "epsilon")
        ]
        want = dict(b["truncated_value"])
        _scale(want, FACTOR)
        assert a["truncated_value"] == want


_ROWS_OVER = trace._rows_over


def _rows_over_their_own_denominators(values, den):
    """``trace._rows_over``, where a JSON chain's betas become rows, with a
    defect: each row keeps the denominator of its own value, so rows over
    two denominators are ordered as if they shared the common one."""
    _, den = _ROWS_OVER(values, den)
    return tuple(_ROWS_OVER([w], 1)[0][0] for w in values), den


def test_the_scaling_relation_sees_rows_over_two_denominators(monkeypatch, chains_pool):
    problems = [p for p in chains_pool[:300] if "chain" in p]
    monkeypatch.setattr(trace, "_rows_over", _rows_over_their_own_denominators)
    breaks, _ = _chains_breaks(problems)
    assert len(breaks) > 10, breaks


# -- each truncation is a valuation ----------------------------------------


def _additivity_breaks(problems, polys) -> tuple[int, list]:
    """How many ``v_i(f·g) = v_i(f) + v_i(g)`` checks the ``expand``
    ``problems`` make, one per level of each chain, and the (index, level)
    of each that fails; ``g`` is drawn from ``polys`` with a fixed seed."""
    rng, checks, breaks = random.Random(5), 0, []
    for k, (problem, f) in enumerate(zip(problems, polys)):
        chain = chain_from_json(problem["chain"], _parse_group(problem))
        g = rng.choice(polys)
        fg = f * g
        for i in range(1, len(chain) + 1):
            v = keypoly.truncated_valuation
            checks += 1
            if v(fg, chain, i) != v(f, chain, i) + v(g, chain, i):
                breaks.append((k, i))
    return checks, breaks


@pytest.fixture(scope="module")
def expand_polys(expand_pool):
    return [_poly(p, "poly") for p in expand_pool]


def test_every_truncation_is_additive(expand_pool, expand_polys):
    assert _additivity_breaks(expand_pool, expand_polys) == (6870, [])


def test_the_additivity_relation_sees_a_wrong_order(monkeypatch, expand_pool, expand_polys):
    monkeypatch.setattr(keypoly, "_order", lambda a, b: 1)
    checks, breaks = _additivity_breaks(expand_pool[:300], expand_polys)
    assert checks == 688 and len(breaks) > 100, breaks
