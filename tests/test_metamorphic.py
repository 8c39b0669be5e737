"""Metamorphic relations of the descent game over the benchmark's
``descent`` pool (``bench/corpus.py``, only read): two inputs that must
give the same blow-ups, without a recorded answer for either.

- The game reads weights only through the signs of their integer
  combinations, so scaling every spec weight by one positive rational
  leaves the step records unchanged.
- A pair's reduced parts are the two sides of alpha - gamma, and a
  blow-up acts linearly on exponents, so adding one to every coordinate
  of both leaves every tau and center unchanged."""

from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from valmono.trace import run_problem

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402  (bench/ is not a package)


@pytest.fixture(scope="module")
def descent_pool():
    return corpus.pool("descent")


def _scaled(problem: dict, factor: Fraction) -> dict:
    out = copy.deepcopy(problem)
    for w in out["spec"]["weights"]:
        w["coords"] = [str(Fraction(c) * factor) for c in w["coords"]]
    return out


def test_scaling_every_weight_keeps_the_steps(descent_pool):
    factor = Fraction(7, 3)
    kinds = set()
    for problem in descent_pool:
        before, after = run_problem(problem), run_problem(_scaled(problem, factor))
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
