"""Elementary uniformizing sequences and the monomialization drivers."""

import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    active_indices,
    apply_step_to_frame,
    extend_path,
    factorization_after_shift,
    initial_form,
    monomial_valuation,
    binomial_chain,
    forward_product,
    identity,
    old_inverse_int,
    old_mat_mul,
    poly,
    push_polynomial_through_step,
    random_poly,
    rational_spec,
    tower_elem,
    trace_matrix,
)
from valmono import _linalg, framing, unifseq
from valmono.errors import (
    InvalidInputError,
    NotInDivisibleHullError,
    PositiveWeightError,
    RequiresCompletionError,
    StepBudgetExceededError,
)
from valmono.framing import Frame, PushPath
from valmono.keypoly import KeyPolyChain, validate_chain
from valmono.polyalg import MultiPoly, QQ, taylor_shift
from valmono.game import MonomialValuationSpec, reduced_parts
from valmono.unifseq import (
    UniformizingProblem,
    elementary_uniformizing_sequence,
    monomialize_key_polys,
    monomialize_polynomial,
)
from valmono.trace import run_problem
from valmono.values import Value, ValueGroup

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import corpus  # noqa: E402  (bench/ is not a package)

G1 = ValueGroup(1)
UV = ("u", "x")


def cusp_problem(**kw):
    return UniformizingProblem(
        w_names=("w1",),
        w_weights=(G1.rational(2),),
        wn_name="wn",
        beta_n=G1.rational(3),
        residue=(-1, 1),
        **kw,
    )


def test_perturbation_over_another_tower_is_invalid_input():
    h = MultiPoly.build(("w1", "wn"), {(4, 0): QQ.from_rational(1)})
    prob = cusp_problem(h=h)
    assert elementary_uniformizing_sequence(prob, PushPath(prob.frame())).witness["exact"] is False
    sqrt2 = QQ.extend("t1", [QQ.from_rational(-2), QQ.zero(), QQ.one()])
    prob = cusp_problem(h=h.with_tower(sqrt2))
    with pytest.raises(InvalidInputError, match="rational coefficients"):
        elementary_uniformizing_sequence(prob, PushPath(prob.frame()))


G2 = ValueGroup(2)


def lattice_problem(w_coords, beta):
    return UniformizingProblem(
        w_names=tuple(f"w{i + 1}" for i in range(len(w_coords))),
        w_weights=tuple(G2.value(c) for c in w_coords),
        wn_name="wn",
        beta_n=G2.value(beta),
        residue=None,
    )


@pytest.mark.parametrize(
    "w_coords,beta,error,match",
    [
        # a dependent basis is reported whatever the sign of the target
        ([(1, 0), (2, 0)], (3, 0), InvalidInputError, "not Q-linearly independent"),
        ([(1, 0), (2, 0)], (-3, 0), InvalidInputError, "not Q-linearly independent"),
        # then a non-positive target, inside the span or outside it
        ([(1, 0)], (-1, 0), PositiveWeightError, "positive"),
        ([(1, 0)], (0, -1), PositiveWeightError, "positive"),
        # then a positive target outside the span
        ([(1, 0)], (0, 1), NotInDivisibleHullError, "divisible hull"),
    ],
)
def test_lattice_faults_are_reported_in_order(w_coords, beta, error, match):
    prob = lattice_problem(w_coords, beta)
    with pytest.raises(error, match=match):
        elementary_uniformizing_sequence(prob, PushPath(prob.frame()))


def test_lattice_data_eliminates_once(monkeypatch):
    calls = []
    reduce = _linalg._reduce
    monkeypatch.setattr(_linalg, "_reduce", lambda m, cols: calls.append(cols) or reduce(m, cols))
    cases = [([(3, 0), (0, 2)], (Fraction(3, 2), 1), 2), ([(1, 0), (2, 0)], (3, 0), None)]
    for w_coords, beta, abar in cases:
        frame = lattice_problem(w_coords, beta).frame()
        calls.clear()
        if abar is None:
            with pytest.raises(InvalidInputError, match="not Q-linearly independent"):
                unifseq._lattice(frame, (0, 1), 2)
        else:
            assert unifseq._lattice(frame, (0, 1), 2) == (abar, (1, 1))
        assert len(calls) == 1


def test_one_lattice_solve_per_level(monkeypatch):
    calls = []
    solve = unifseq._row_lattice
    monkeypatch.setattr(unifseq, "_row_lattice", lambda t, b: calls.append(t) or solve(t, b))
    prob = cusp_problem()
    res = elementary_uniformizing_sequence(prob, PushPath(prob.frame()))
    assert res.new_var is not None and len(calls) == 1
    calls.clear()
    # three entries, two levels: x + u over x, then x + u + u^2 over it
    q2 = poly(UV, {(0, 1): 1, (1, 0): 1})
    chain = KeyPolyChain(
        rational_spec([1], names=("u",)),
        "x",
        (
            (MultiPoly.variable(UV, "x"), G1.rational(1)),
            (q2, G1.rational(2)),
            (q2 + poly(UV, {(2, 0): 1}), G1.rational(3)),
        ),
    )
    res = monomialize_key_polys(chain, PushPath(chain.initial_frame()))
    assert len(res.level_data) == len(calls) == 2


def test_absorb_advances_each_exponent_from_its_start():
    # a^2 against c, c^2 and b^2 (weights 2, 3, 5): the descent that makes
    # a^2 divide c also makes it divide c^2, so only b^2 needs a second one
    frame = Frame(("a", "b", "c"), tuple(G1.rational(k) for k in (2, 3, 5)))
    target, exps = (2, 0, 0), [(0, 0, 1), (0, 0, 2), (0, 2, 0)]
    assert unifseq._absorb(PushPath(frame), exps[:2], target) == 2
    path = PushPath(frame)
    count = unifseq._absorb(path, exps, target)
    assert count == len(path) == len(path.records) == 3
    t = path.advance([target])[0]
    for e in exps:
        at, _ = reduced_parts(t, path.advance([e])[0], path.frame.units)
        assert sum(at) == 0


def test_uniformize_needs_a_w_variable():
    prob = lattice_problem([], (1, 0))
    with pytest.raises(InvalidInputError, match="at least one w-variable"):
        elementary_uniformizing_sequence(prob, PushPath(prob.frame()))


@pytest.mark.parametrize(
    "w_names,w_weights,message",
    [(("a",), (2, 5), r"differ in length \(1 and 2\)"), (("a", "b"), (2,), r"differ in length \(2 and 1\)")],
)
def test_w_weight_count_must_match_w_vars(w_names, w_weights, message):
    # one weight too many used to end ok, solved against the stray weight;
    # one too few was reported as a dependent basis
    prob = UniformizingProblem(
        w_names=w_names,
        w_weights=tuple(G1.rational(w) for w in w_weights),
        wn_name="x",
        beta_n=G1.rational(3),
        residue=(-1, 1),
    )
    with pytest.raises(InvalidInputError, match=message):
        elementary_uniformizing_sequence(prob, PushPath(prob.frame()))

def test_linear_case():
    # Q = w_n - w_1 with beta_n = beta_1: abar = 1, one blow-up,
    # w_n^(l) = z - 1, residue polynomial X - 1
    prob = UniformizingProblem(
        w_names=("w1",),
        w_weights=(G1.rational(1),),
        wn_name="wn",
        beta_n=G1.rational(1),
        residue=(-1, 1),
    )
    path = PushPath(prob.frame())
    res = elementary_uniformizing_sequence(prob, path)
    assert res.abar == 1 and res.alpha_coeffs == (1,)
    matrix_steps = [s for s in path.steps if trace_matrix(s) != identity(2)]
    assert len(matrix_steps) == 1
    assert res.witness["exact"] is True
    # quotient is exactly the new variable (z - 1)
    assert res.witness["quotient"]["terms"] == [{"e": [0, 1], "c": "1"}]
    assert path.steps[-1].translation_data[0].minpoly == (-1, 1)


def test_cusp_all_conclusions():
    prob = cusp_problem()
    path = PushPath(prob.frame())
    res = elementary_uniformizing_sequence(prob, path)
    n = 2
    # (1) every step before the final collision is monomial
    assert not any(s.translation_data for s in path.steps[:-2])
    assert path.steps[-1].translation_data
    # (2) P != 0: official dimension stays n
    assert len(active_indices(path.frame)) == n
    # (3) w_1 and w_n are monomials in the final actives times a unit
    assert res.images["w1"]["monomial"] == [2, 0] and res.images["w1"]["z_power"] == 1
    assert res.images["wn"]["monomial"] == [3, 0] and res.images["wn"]["z_power"] == 2
    # (4) final variables are Laurent monomials in the old ones (unimodular)
    total = forward_product(path.steps, n)
    inv = old_inverse_int(total)
    assert inv is not None and old_mat_mul(total, inv) == identity(n)
    # (5) image(Q) = y * (image of w_n^(l)) exactly: unit cofactor 1
    assert res.witness["exact"] is True
    assert res.witness["unit_constant"] == "1"
    assert res.witness["quotient"]["terms"] == [{"e": [0, 1], "c": "1"}]
    assert res.witness["monomial_exponent"] == [6, 3]
    # (6) residue extension is k[X]/(X - 1) = k
    assert path.steps[-1].translation_data[0].minpoly == (-1, 1)
    assert path.frame.tower == QQ
    assert res.d == 1 and res.abar == 2 and res.alpha_coeffs == (3,)


def test_transcendental_case_drops_dimension():
    prob = UniformizingProblem(
        w_names=("w1",),
        w_weights=(G1.rational(2),),
        wn_name="wn",
        beta_n=G1.rational(3),
        residue=None,
    )
    path = PushPath(prob.frame())
    res = elementary_uniformizing_sequence(prob, path)
    assert res.new_var is None
    assert len(active_indices(path.frame)) == 1  # n - 1
    assert path.frame.units == frozenset({res.z_column})
    assert res.witness == {"kind": "transcendental"}


def _passive_cusp_json(**extra):
    """The cusp with a passive variable v1 of weight 5, as a problem."""
    problem = {
        "w_vars": ["w1"],
        "w_weights": [{"coords": ["2"]}],
        "wn_var": "wn",
        "beta_n": {"coords": ["3"]},
        "residue": {"kind": "algebraic", "minpoly": ["-1", "1"]},
        "v_vars": ["v1"],
        "v_weights": [{"coords": ["5"]}],
        **extra,
    }
    return {"algorithm": "uniformize", "group": {"rank": 1}, "problem": problem}


def test_passive_variables_ride_along():
    prob = UniformizingProblem(
        w_names=("w1",),
        w_weights=(G1.rational(2),),
        wn_name="wn",
        beta_n=G1.rational(3),
        residue=(-1, 1),
        v_names=("v1",),
        v_weights=(G1.rational(5),),
    )
    path = PushPath(prob.frame())
    res = elementary_uniformizing_sequence(prob, path)
    assert path.to_json((1,))["independent_of"] == [2]
    for s in path.steps:
        assert 1 not in s.J
    # the runner claims the passive column over the same steps
    sequence = run_problem(_passive_cusp_json())["witnesses"]["sequence"]
    assert sequence["independent_of"] == [2]
    assert sequence["steps"] == [s.to_json() for s in path.steps]
    # v column untouched in the composed matrix
    total = forward_product(path.steps, 3)
    assert tuple(row[1] for row in total) == (0, 1, 0)
    assert total[1] == (0, 1, 0)


def test_perturbed_cusp():
    # Q~ = (wn^2 - w1^3) + w1^4, nu_0(h) = 8 > 6 = nu_0(Q)
    h = MultiPoly.build(("w1", "wn"), {(4, 0): QQ.from_rational(1)})
    prob = cusp_problem(h=h)
    res = elementary_uniformizing_sequence(prob, PushPath(prob.frame()))
    assert res.witness["exact"] is False
    assert res.witness["kind"] == "algebraic"
    # the factorization divided exactly and the tail stays in the ideal
    assert "perturbation_tail" in res.witness
    # the perturbation value condition is enforced
    bad = cusp_problem(h=MultiPoly.build(("w1", "wn"), {(3, 0): QQ.from_rational(1)}))
    with pytest.raises(InvalidInputError):
        elementary_uniformizing_sequence(bad, PushPath(bad.frame()))


def test_degree_two_residue_extends_tower():
    # Q = wn^2 - 2 w1^2 with beta = (1, 1): abar = 1, z = wn/w1,
    # z-bar^2 = 2: minimal polynomial X^2 - 2
    prob = UniformizingProblem(
        w_names=("w1",),
        w_weights=(G1.rational(1),),
        wn_name="wn",
        beta_n=G1.rational(1),
        residue=(-2, 0, 1),
    )
    path = PushPath(prob.frame())
    res = elementary_uniformizing_sequence(prob, path)
    assert res.d == 2 and res.abar == 1
    assert path.frame.tower.depth == 1
    sym = path.frame.tower.extensions[0][0]
    # unit cofactor is X + 2 theta, constant part 2 theta, P'(theta) != 0
    assert res.witness["exact"] is True
    tower = path.frame.tower
    const = tower_elem(res.witness["unit_constant"])
    assert const == tower.mul(tower.generator(sym), tower.from_rational(2))
    # verify the full identity by reconstruction: image(Q) = w^div * X * U
    q_poly = MultiPoly.build(
        ("w1", "wn"), {(0, 2): QQ.from_rational(1), (2, 0): QQ.from_rational(-2)}
    )
    frame0 = prob.frame()
    img = q_poly
    fr = frame0
    for s in path.steps:
        img = push_polynomial_through_step(img, fr, s)
        fr = apply_step_to_frame(fr, s)
        img = MultiPoly(fr.names, img.terms, img.tower)
    div = res.witness["monomial_exponent"]
    x_var = MultiPoly.variable(fr.names, res.new_var, tower)
    mono = MultiPoly.monomial(fr.names, div, 1, tower)
    cof_terms = res.witness["unit_cofactor"]["terms"]
    cof = MultiPoly.build(
        fr.names, [(t["e"], tower_elem(t["c"])) for t in cof_terms], tower
    )
    assert mono * x_var * cof == img


def test_inverted_direction():
    # beta_n < beta_1 puts z on the other side: 1/z is the unit variable
    prob = UniformizingProblem(
        w_names=("w1",),
        w_weights=(G1.rational(3),),
        wn_name="wn",
        beta_n=G1.rational(2),
        residue=(-1, 1),
    )
    res = elementary_uniformizing_sequence(prob, PushPath(prob.frame()))
    assert res.witness["exact"] is True
    assert res.z_sign in (-1, 1)


def test_keypoly_driver_cusp():
    chain_ = cusp()
    path = PushPath(chain_.initial_frame())
    res = monomialize_key_polys(chain_, path)
    assert [w.entry for w in res.witnesses] == [1, 2]
    top = res.witnesses[-1]
    assert top.x_multiplicity == 1
    # image of Q_2 = monomial * unit with the unit's constant term nonzero
    unit_const = top.unit.constant_term()
    assert not top.unit.tower.is_zero(unit_const)
    # new parameter has the declared jump value 4 - 3 = 1
    assert path.frame.weights[res.x_column].coords == (Fraction(1),)


def cusp():
    ground = rational_spec([1], names=("u",))
    q1 = MultiPoly.variable(UV, "x")
    q2 = poly(UV, {(0, 2): 1, (3, 0): -1})
    return KeyPolyChain(
        ground, "x", ((q1, G1.rational(Fraction(3, 2))), (q2, G1.rational(4)))
    )


def test_keypoly_claims_are_checked(monkeypatch):
    # the run checks its own claims: a wrong top multiplicity and a wrong
    # beta are each an internal error, never an ok result
    chain_ = cusp()
    path = PushPath(chain_.initial_frame())
    res = monomialize_key_polys(chain_, path)
    frame = path.frame
    unifseq._check_key_claims(chain_, res.witnesses, frame)
    twice = res.witnesses[:-1] + [res.witnesses[-1]._replace(x_multiplicity=2)]
    with pytest.raises(AssertionError, match="x multiplicity 2, not 1"):
        unifseq._check_key_claims(chain_, twice, frame)
    (q1, b1), (q2, _) = chain_.entries
    wrong = KeyPolyChain(chain_.ground, "x", ((q1, b1), (q2, G1.rational(5))))
    with pytest.raises(AssertionError, match="key polynomial 2 has least term value"):
        unifseq._check_key_claims(wrong, res.witnesses, frame)
    # wired into the driver: a translation that records the wrong jump fails
    translate = unifseq._translate
    monkeypatch.setattr(
        unifseq,
        "_translate",
        lambda path, q, sign, mp, jump: translate(path, q, sign, mp, jump + jump),
    )
    with pytest.raises(AssertionError, match="key polynomial 2 has least term value"):
        monomialize_key_polys(chain_, PushPath(chain_.initial_frame()))


def test_keypoly_driver_translation_chain():
    # alpha_2 = 1: Q_2 = x + u, handled by the translation branch
    ground = rational_spec([1], names=("u",))
    q1 = MultiPoly.variable(UV, "x")
    q2 = poly(UV, {(0, 1): 1, (1, 0): 1})
    chain = KeyPolyChain(ground, "x", ((q1, G1.rational(1)), (q2, G1.rational(2))))
    assert validate_chain(chain) == []
    res = monomialize_key_polys(chain, PushPath(chain.initial_frame()))
    assert res.witnesses[-1].x_multiplicity == 1
    assert res.level_data[0]["abar"] == 1 and res.level_data[0]["d"] == 1


def test_keypoly_driver_single_entry():
    ground = rational_spec([1], names=("u",))
    chain = KeyPolyChain(
        ground, "x", ((MultiPoly.variable(UV, "x"), G1.rational(Fraction(3, 2))),)
    )
    path = PushPath(chain.initial_frame())
    res = monomialize_key_polys(chain, path)
    assert len(path.steps) == 0
    assert res.witnesses[0].monomial[res.x_column] == 1


def test_keypoly_driver_invalid_chain_rejected():
    ground = rational_spec([1], names=("u",))
    q1 = MultiPoly.variable(UV, "x")
    q2 = poly(UV, {(0, 2): 1, (3, 0): -1})
    bad = KeyPolyChain(ground, "x", ((q1, G1.rational(2)), (q2, G1.rational(1))))
    with pytest.raises(InvalidInputError):
        monomialize_key_polys(bad, PushPath(bad.initial_frame()))


def test_keypoly_driver_random_binomials(rng):
    for _ in range(15):
        chain = binomial_chain(rng, allow_extension=False)
        path = PushPath(chain.initial_frame())
        res = monomialize_key_polys(chain, path)
        assert res.witnesses[-1].x_multiplicity == 1
        for w in res.witnesses:
            assert any(
                all(x == 0 for i, x in enumerate(e) if i not in path.frame.units)
                for e in w.unit.terms
            )


def test_monomialize_polynomial_examples():
    chain = cusp()
    # f = Q_top delegates to the chain driver
    path = PushPath(chain.initial_frame())
    res = monomialize_polynomial(chain.Q(2), chain, path)
    assert res.exponent[path.frame.names.index("x'")] == 1
    # f = u^3 x: monomial after pushing, no recursion
    f = poly(UV, {(3, 1): 1})
    res2 = monomialize_polynomial(f, chain, PushPath(chain.initial_frame()))
    mono = MultiPoly.monomial(res2.image.vars, res2.exponent, 1, res2.image.tower)
    assert mono * res2.unit_witness == res2.image
    # f = x^3: single minimal term at mu'_2 = 9/2
    res3 = monomialize_polynomial(poly(UV, {(0, 3): 1}), chain, PushPath(chain.initial_frame()))
    assert [d["attains_min"] for d in res3.expansion_values] == [True, False]
    mono3 = MultiPoly.monomial(res3.image.vars, res3.exponent, 1, res3.image.tower)
    assert mono3 * res3.unit_witness == res3.image
    const = res3.unit_witness.constant_term()
    assert not res3.unit_witness.tower.is_zero(const)


def test_polynomial_run_spends_one_budget():
    # 5 blow-ups monomialize the key polynomials and 5 more principalize
    # u1^4 + u2^3 after them: the run needs a budget of 10, not 5
    g2 = ValueGroup(2)
    ground = MonomialValuationSpec(("u1", "u2"), (g2.value([1, 0]), g2.value([0, 1])))
    vars_ = ("u1", "u2", "x")
    chain = KeyPolyChain(ground, "x", (
        (MultiPoly.variable(vars_, "x"), g2.value(["3/2", "3/2"])),
        (poly(vars_, {(0, 0, 2): 1, (3, 3, 0): -1}), g2.value([3, 4])),
    ))
    f = poly(vars_, {(4, 0, 0): 1, (0, 3, 0): 1})
    path = PushPath(chain.initial_frame(), 5)
    monomialize_key_polys(chain, path)
    assert sum(len(s.J) > 1 for s in path.steps) == 5
    with pytest.raises(StepBudgetExceededError, match=r"step budget exceeded \(5 steps\)"):
        monomialize_polynomial(f, chain, PushPath(chain.initial_frame(), 5))
    path = PushPath(chain.initial_frame(), 10)
    monomialize_polynomial(f, chain, path)
    assert path.blowups == sum(len(s.J) > 1 for s in path.steps) == 10


def test_monomialize_polynomial_random(rng):
    for _ in range(15):
        chain = binomial_chain(rng, allow_extension=False)
        f = poly(UV, {(rng.randint(0, 4), rng.randint(0, 4)): rng.choice([1, 2, -1]),
                      (rng.randint(0, 4), rng.randint(0, 4)): rng.choice([1, 3, -2])})
        if f.is_zero():
            continue
        path = PushPath(chain.initial_frame())
        res = monomialize_polynomial(f, chain, path)
        mono = MultiPoly.monomial(res.image.vars, res.exponent, 1, res.image.tower)
        assert mono * res.unit_witness == res.image
        assert any(
            all(x == 0 for i, x in enumerate(e) if i not in path.frame.units)
            for e in res.unit_witness.terms
        )


def test_keypoly_driver_translation_tower():
    # depth-3 tower of translation keys stays polynomial-exact
    ground = rational_spec([1], names=("u",))
    q1 = MultiPoly.variable(UV, "x")
    q2 = poly(UV, {(0, 1): 1, (1, 0): 1})  # x + u
    q3 = q2 + poly(UV, {(2, 0): 1})  # x + u + u^2
    chain = KeyPolyChain(
        ground,
        "x",
        ((q1, G1.rational(1)), (q2, G1.rational(2)), (q3, G1.rational(3))),
    )
    assert validate_chain(chain) == []
    path = PushPath(chain.initial_frame())
    res = monomialize_key_polys(chain, path)
    assert res.witnesses[-1].x_multiplicity == 1
    for w in res.witnesses:
        assert any(
            all(x == 0 for i, x in enumerate(e) if i not in path.frame.units)
            for e in w.unit.terms
        )


def test_keypoly_driver_completion_boundary():
    # an extension on top of a ramified level leaves residual terms that
    # only a formal-series parameter absorbs: the run must say so
    from valmono.errors import RequiresCompletionError

    ground = rational_spec([1], names=("u",))
    q1 = MultiPoly.variable(UV, "x")
    q2 = poly(UV, {(0, 2): 1, (7, 0): 1})
    q3 = q2 + poly(UV, {(8, 0): 2})
    chain = KeyPolyChain(
        ground,
        "x",
        (
            (q1, G1.rational(Fraction(7, 2))),
            (q2, G1.rational(8)),
            (q3, G1.rational(11)),
        ),
    )
    assert validate_chain(chain) == []
    with pytest.raises(RequiresCompletionError):
        monomialize_key_polys(chain, PushPath(chain.initial_frame()))


def test_rank_two_uniformizing_sequence():
    # Q = wn - w1 w2 over weights (1, sqrt 2), beta_n = 1 + sqrt 2
    from valmono.polyalg import QQ as base

    g2 = ValueGroup(2)
    prob = UniformizingProblem(
        w_names=("w1", "w2"),
        w_weights=(g2.value([1, 0]), g2.value([0, 1])),
        wn_name="wn",
        beta_n=g2.value([1, 1]),
        residue=(-1, 1),
    )
    path = PushPath(prob.frame())
    res = elementary_uniformizing_sequence(prob, path)
    assert res.abar == 1 and res.alpha_coeffs == (1, 1)
    assert res.witness["exact"] is True
    assert path.frame.tower == base


def test_perturbation_touching_passive_variable():
    h = MultiPoly.build(
        ("w1", "v1", "wn"), {(2, 1, 0): QQ.from_rational(1)}
    )
    prob = UniformizingProblem(
        w_names=("w1",),
        w_weights=(G1.rational(2),),
        wn_name="wn",
        beta_n=G1.rational(3),
        residue=(-1, 1),
        v_names=("v1",),
        v_weights=(G1.rational(5),),
        h=h,
    )
    path = PushPath(prob.frame())
    res = elementary_uniformizing_sequence(prob, path)
    assert res.witness["exact"] is False
    assert res.aux_steps >= 1
    # auxiliary work touched the passive variable: no independence claim
    with pytest.raises(InvalidInputError, match="touches its independence set"):
        path.to_json((1,))
    h_json = {"vars": ["w1", "v1", "wn"], "terms": [{"e": [2, 1, 0], "c": "1"}]}
    sequence = run_problem(_passive_cusp_json(h=h_json))["witnesses"]["sequence"]
    assert "independent_of" not in sequence
    assert sequence["steps"] == [s.to_json() for s in path.steps]


def test_keypoly_driver_rank_two_ground():
    from valmono.game import MonomialValuationSpec

    g2 = ValueGroup(2)
    spec = MonomialValuationSpec(("u1", "u2"), (g2.value([1, 0]), g2.value([0, 1])))
    vars_ = ("u1", "u2", "x")
    q1 = MultiPoly.variable(vars_, "x")
    q2 = MultiPoly.build(
        vars_, {(0, 0, 2): QQ.from_rational(1), (2, 2, 0): QQ.from_rational(-1)}
    )
    chain = KeyPolyChain(spec, "x", ((q1, g2.value([1, 1])), (q2, g2.value([3, 2]))))
    assert validate_chain(chain) == []
    res = monomialize_key_polys(chain, PushPath(chain.initial_frame()))
    assert res.witnesses[-1].x_multiplicity == 1


def test_beta_outside_span_rejected():
    from valmono.errors import NotInDivisibleHullError

    g2 = ValueGroup(2)
    prob = UniformizingProblem(
        w_names=("w1",),
        w_weights=(g2.value([1, 0]),),
        wn_name="wn",
        beta_n=g2.value([0, 1]),  # sqrt 2, not in Q * 1
        residue=(-1, 1),
    )
    with pytest.raises(NotInDivisibleHullError):
        elementary_uniformizing_sequence(prob, PushPath(prob.frame()))


# -- the push path against step-by-step pushing --------------------------------


def _extension_chain(rng: random.Random) -> KeyPolyChain:
    """Q_2 = x^2 - c u^(2k) with c not a square: a degree-2 residue, so the
    level-2 translation extends the tower."""
    k = rng.randint(1, 3)
    c = rng.choice([2, 3, 5, -1])
    ground = rational_spec([1], names=("u",))
    q1 = MultiPoly.variable(UV, "x")
    q2 = poly(UV, {(0, 2): 1, (2 * k, 0): -c})
    beta2 = Fraction(2 * k) + Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return KeyPolyChain(ground, "x", ((q1, G1.rational(k)), (q2, G1.rational(beta2))))


def _stepwise(f, frame0, steps):
    fr = frame0
    for s in steps:
        f = push_polynomial_through_step(f, fr, s)
        fr = apply_step_to_frame(fr, s)
    return f


def _chain_runs():
    rng = random.Random(43)
    chains = [binomial_chain(rng) for _ in range(24)] + [_extension_chain(rng) for _ in range(12)]
    runs = []
    for chain in chains:
        path = PushPath(chain.initial_frame())
        try:
            monomialize_key_polys(chain, path)
        except RequiresCompletionError:
            continue
        polys = [chain.Q(i) for i in range(1, len(chain) + 1)]
        polys += [random_poly(rng, UV, max_terms=4, max_exp=5) for _ in range(2)]
        runs.append((chain, path, polys, rng.randrange(1 << 30)))
    return runs


def test_push_path_prefixes_equal_whole_sequence():
    runs = _chain_runs()
    assert len(runs) >= 20
    assert any(path.frame.tower.depth for _, path, _, _ in runs)  # a tower extension
    for chain, path, polys, seed in runs:
        steps = path.steps
        frame0 = chain.initial_frame()
        whole_path = extend_path(PushPath(frame0), steps)
        cut_rng = random.Random(seed)
        for f in polys:
            want = _stepwise(f, frame0, steps)
            got = whole_path.push(f)
            assert got == want and list(got.terms) == list(want.terms)
            # advanced through random prefixes, one piece at a time
            cuts = sorted(cut_rng.sample(range(len(steps) + 1), min(3, len(steps) + 1)))
            img, start = f, 0
            for cut in cuts + [len(steps)]:
                img = whole_path.push(img, start, cut)
                start = cut
            assert img == want and list(img.terms) == list(want.terms)
            # a path that grows step by step, the image advanced after each
            growing = PushPath(frame0)
            img = f
            for s in steps:
                img = extend_path(growing, (s,)).push(img, len(growing) - 1)
            assert img == want
        # frames recomputed from the steps agree with those the run handed in
        assert whole_path.frames == path.frames


def test_initial_form_matches_the_oracle(rng):
    """``unifseq._initial_form`` against the ``initial_form`` oracle on
    seeded polynomials in a, b and a unit column u of weight 0, in a frame
    whose column v, which no polynomial uses, has no declared weight.  The
    oracle takes positive weights only, so it reads the polynomial with u
    set to 1; positive coefficients keep that from cancelling a term."""
    g = ValueGroup(2)
    for _ in range(200):
        wa, wb = (
            g.value(c)
            for c in rng.sample([(1, 0), (0, 1), (1, 1), (2, 1), (1, 3), (3, 0), (0, 2)], 2)
        )
        frame = Frame(("a", "b", "u", "v"), (wa, wb, g.rational(0), None), frozenset({2}))
        terms = {}
        while not any(sum(e) for e in terms):
            terms = {
                tuple(rng.randint(0, 4) for _ in range(3)) + (0,): rng.randint(1, 9)
                for _ in range(rng.randint(1, 6))
            }
        f = poly(frame.names, terms)
        least, at, above = unifseq._initial_form(f, frame)
        assert sorted(at + above) == sorted(f.terms)
        for part in (at, above):  # each in term order
            assert part == [e for e in f.terms if e in part]
        spec = MonomialValuationSpec(("a", "b"), (wa, wb))
        flat = MultiPoly.build(("a", "b"), [(e[:2], f.coeff(e)) for e in f.terms])
        initial = set(initial_form(flat, spec).terms)
        assert Value(least, frame.den, frame.group) == monomial_valuation(flat, spec)
        assert {e[:2] for e in at} == initial
        assert {e[:2] for e in above} == set(flat.terms) - initial
    with pytest.raises(InvalidInputError, match="no declared weight"):
        frame.row(3)


# -- the factorization identity, decided before the translation -------------


def _quadratic_problem():
    """A degree-2 residue over Q: the translation extends the tower."""
    return UniformizingProblem(
        w_names=("w1",),
        w_weights=(G1.rational(2),),
        wn_name="wn",
        beta_n=G1.rational(3),
        residue=(Fraction(-2), 0, 1),
    )


@pytest.mark.parametrize("make", [cusp_problem, _quadratic_problem])
def test_a_quotient_off_by_one_term_is_caught_before_the_shift(monkeypatch, make):
    """Each term of the cleared Q-tilde in turn gets its coefficient
    doubled, so that the quotient differs from P(u_q) in that one term:
    the check raises, and before ``_verify_factorization`` makes any Taylor
    shift.  Unaltered, the problem verifies."""
    problem = make()
    assert elementary_uniformizing_sequence(problem, PushPath(problem.frame())).witness["exact"]
    real = unifseq._verify_factorization
    shifts = Counter()

    def counted(f, x, theta):
        shifts[x] += 1
        return taylor_shift(f, x, theta)

    for k in range(sum(1 for c in problem.residue if c)):

        def planted(path, start, q_cleared, gamma, problem, k=k):
            e = list(q_cleared.terms)[k]
            altered = q_cleared + MultiPoly.monomial(q_cleared.vars, e, q_cleared.coeff(e))
            assert list(altered.terms) == list(q_cleared.terms) and altered != q_cleared
            # ``PushPath.push`` makes every Taylor shift of the package
            monkeypatch.setattr(framing, "taylor_shift", counted)
            return real(path, start, altered, gamma, problem)

        monkeypatch.setattr(unifseq, "_verify_factorization", planted)
        with pytest.raises(AssertionError, match=r"^factorization: quotient differs from P\(z\)$"):
            elementary_uniformizing_sequence(problem, PushPath(problem.frame()))
        monkeypatch.undo()
    assert not shifts


def test_the_identity_before_the_shift_decides_as_after_it(monkeypatch):
    """On every algebraic, unperturbed ``uniformize`` problem of the
    ``chains`` bench pool, ``W = P(theta + X)`` decided as ``w_pre =
    P(u_q)`` before the translation gives the decision of the same
    identity after it (``conftest.factorization_after_shift``), and each
    run ends as it did: verified, or the escape with its message."""
    real = unifseq._is_minpoly_of_the_unit
    decided = Counter()

    def both(path, w_pre):
        got = real(path, w_pre)
        assert got == factorization_after_shift(path, w_pre)
        decided[got] += 1
        return got

    monkeypatch.setattr(unifseq, "_is_minpoly_of_the_unit", both)
    ends = Counter()
    for p in corpus.pool("chains"):
        prob = p.get("problem", {})
        if p["algorithm"] != "uniformize" or prob.get("h") is not None:
            continue
        if prob["residue"].get("kind", "algebraic") != "algebraic":
            continue
        before = sum(decided.values())
        try:
            ok = run_problem(p)["verdict"]["ok"]
        except AssertionError as exc:
            ok = str(exc)
        if sum(decided.values()) > before:
            ends[ok] += 1
    # the 23 escapes, whose check misses a factor b_0 (ROADMAP item 1(a)),
    # keep their type and message
    assert decided == Counter({True: 657, False: 23})
    assert ends == Counter({True: 657, "factorization: quotient differs from P(z)": 23})


# -- a path over a tower ----------------------------------------------------


SQRT3 = QQ.extend("t1", [QQ.from_rational(-3), QQ.zero(), QQ.one()])


def _cusp_frame_problem(residue, h=None):
    """The cusp's frame (w1 of weight 2, wn of weight 3) with another residue."""
    return UniformizingProblem(("w1",), (G1.rational(2),), "wn", G1.rational(3), residue, h=h)


def _uniformize_over(problem, tower):
    """(centers, z column, exact flag) of the run on a path whose first
    frame is the problem's over ``tower``, or the refusal it ends in."""
    f0 = problem.frame()
    path = PushPath(Frame(f0.names, f0.weights, tower=tower))
    try:
        res = elementary_uniformizing_sequence(problem, path)
    except InvalidInputError as exc:
        return f"refused: {exc}"
    assert path.frame.tower.extensions[:tower.depth] == tower.extensions
    return [(s.J, s.j) for s in path.steps], res.z_column, res.witness["exact"]


@pytest.mark.parametrize("residue", [(-1, 1), (Fraction(-2), 0, 1), (3, 1)], ids=["cusp", "X^2-2", "X+3"])
@pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "w1^5"])
def test_uniformizing_on_a_path_over_a_tower_matches_q(residue, perturbed):
    """Engines compose on one path, so a uniformizing run may start in a
    chart over Q(sqrt 3): its Q-tilde is built over that tower, and it
    takes the centers, the z column and the exactness of the run over Q,
    or ends in the same refusal (w1^5 lies below the X^2 - 2 part)."""
    h = MultiPoly.build(("w1", "wn"), {(5, 0): QQ.from_rational(1)}) if perturbed else None
    problem = _cusp_frame_problem(residue, h)
    over_q = _uniformize_over(problem, QQ)
    assert _uniformize_over(problem, SQRT3) == over_q
    assert (over_q == "refused: perturbation must have monomial value above the "
            "quasi-homogeneous part") == (perturbed and len(residue) == 3)


# -- each internal check of the sequence, on a planted defect ----------------


_REAL = {
    name: getattr(unifseq, name)
    for name in ("_divide_monomial", "_minpoly_in", "_z_exponents", "run_pair_descent")
}


def _second_division(change):
    """A ``_divide_monomial`` whose second call divides by w^change(mono):
    the first call divides by w^div, the second divides W by X."""
    calls = []

    def planted(poly, mono):
        calls.append(mono)
        return _REAL["_divide_monomial"](poly, mono if len(calls) == 1 else change(mono))

    return planted


def _transcendental_with_passive():
    """The cusp frame with a passive v of w1's weight and no residue."""
    return UniformizingProblem(
        ("w1",), (G1.rational(2),), "wn", G1.rational(3), None, ("v",), (G1.rational(2),)
    )


# (message, problem, helper of ``unifseq``, the planted helper)
PLANTED = [
    # a divisor one higher in every column
    ("factorization: monomial division failed", cusp_problem, "_divide_monomial",
     lambda: lambda poly, mono: _REAL["_divide_monomial"](poly, [m + 1 for m in mono])),
    # W divided by X^2
    ("factorization: new parameter fails to divide", _quadratic_problem, "_divide_monomial",
     lambda: _second_division(lambda mono: [2 * m for m in mono])),
    # W left undivided by X
    ("factorization: cofactor is not a unit", _quadratic_problem, "_divide_monomial",
     lambda: _second_division(lambda mono: [0] * len(mono))),
    # P + 1 subtracted from the perturbed quotient
    ("perturbation escaped the maximal ideal",
     lambda: cusp_problem(h=MultiPoly.build(("w1", "wn"), {(4, 0): QQ.from_rational(1)})),
     "_minpoly_in",
     lambda: lambda vars_, q, minpoly, tower: _REAL["_minpoly_in"](
         vars_, q, (minpoly[0] + 1, *minpoly[1:]), tower)),
    # z^2 for z
    ("z column carries a non-primitive exponent", lambda: _cusp_frame_problem(None), "_z_exponents",
     lambda: lambda *a: tuple(tuple(2 * x for x in e) for e in _REAL["_z_exponents"](*a))),
    # wn alone for z
    ("z column is not unit-tagged", lambda: _cusp_frame_problem(None), "_z_exponents",
     lambda: lambda n, w_cols, x_col, lattice: (tuple(int(i == x_col) for i in range(n)), (0,) * n)),
    # wn^3 / (w1^2 v^2) for z, not of value zero: w1 and v tie first
    ("weight collision before the end of the main game", _transcendental_with_passive, "_z_exponents",
     lambda: lambda *a: ((0, 0, 3), (2, 2, 0))),
    # the perturbation's pair game played with its sides swapped
    ("auxiliary phase failed to land divisibility on y^d",
     lambda: cusp_problem(h=MultiPoly.build(("w1", "wn"), {(0, 3): QQ.from_rational(1)})),
     "run_pair_descent",
     lambda: lambda alpha, gamma, path: _REAL["run_pair_descent"](gamma, alpha, path)),
]


@pytest.mark.parametrize(
    "message, make, helper, plant", PLANTED, ids=[m.split(": ")[-1] for m, *_ in PLANTED]
)
def test_each_internal_check_fires_on_its_planted_defect(monkeypatch, message, make, helper, plant):
    """Each internal check of ``elementary_uniformizing_sequence`` raises
    its message when one helper is planted with a defect; unplanted, the
    problem runs through."""
    problem = make()
    elementary_uniformizing_sequence(problem, PushPath(problem.frame()))
    monkeypatch.setattr(unifseq, helper, plant())
    with pytest.raises(AssertionError) as caught:
        elementary_uniformizing_sequence(problem, PushPath(problem.frame()))
    assert str(caught.value) == message
