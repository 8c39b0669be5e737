"""The tau-descent game: descent, pairs, ideals, monomial valuations."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    NothingToDoError,
    descent_center,
    initial_form,
    is_constant,
    monomial_valuation,
    poly,
    push_by_matrices,
    random_poly,
    rational_spec,
    scan_antichain,
    scan_best_pair,
    sqrt_prime_spec,
    tau,
    tuple_greedy_center,
)
from valmono import game
from valmono.errors import InvalidInputError, PositiveWeightError, ZeroPolynomialError
from valmono.framing import Frame, PushPath
from valmono.polyalg import MultiPoly
from valmono.game import (
    MonomialValuationSpec,
    monomialize_nondegenerate,
    principalize_exponents,
    run_pair_descent,
    split_monomial,
)
from valmono.trace import run_problem
from valmono.values import ValueGroup, compare, value_of_exponent


def test_tau_examples():
    assert tau((2, 1), (2, 1)) == (0, 0)
    assert tau((2, 0, 1), (1, 3, 1)) == (1, 3)
    assert tau((0, 1), (2, 0)) == (1, 2)
    # a pair run records the tau pair of the exponents each step starts from
    path = PushPath(rational_spec((1, 1)).frame())
    run_pair_descent((0, 1), (2, 0), path)
    assert path.records[0]["tau"] == [1, 2]


def test_spec_rejects_nonpositive_weights():
    g = ValueGroup(1)
    with pytest.raises(PositiveWeightError):
        MonomialValuationSpec(("a",), (g.rational(0),))


def test_descent_center_examples():
    # alpha~ = (1,0), gamma~ = (0,2) -> J = {1,2}
    spec = sqrt_prime_spec(2)
    assert descent_center((1, 0), (0, 2), spec)[0] == (0, 1)
    # alpha~ = (2,0,0), gamma~ = (0,1,3) -> J = {1,3}
    spec3 = sqrt_prime_spec(3)
    J, j = descent_center((2, 0, 0), (0, 1, 3), spec3)
    assert J == (0, 2)
    # tie order: alpha~ = (1,0,0), gamma~ = (0,1,1) -> J = {1,2}
    J, j = descent_center((1, 0, 0), (0, 1, 1), spec3)
    assert J == (0, 1)
    with pytest.raises(NothingToDoError):
        descent_center((1, 0), (2, 0), spec)


def test_monomialize_pair_divisibility_at_input():
    spec = sqrt_prime_spec(2)
    path = PushPath(spec.frame())
    res = run_pair_descent((1, 0), (2, 1), path)
    assert len(path.steps) == 0
    assert res.alpha_divides


def test_monomialize_pair_spec_example():
    # n = 2, alpha = (0,1), gamma = (2,0), weights (1, sqrt2)
    spec = sqrt_prime_spec(2)
    path = PushPath(spec.frame())
    res = run_pair_descent((0, 1), (2, 0), path)
    assert res.alpha_divides  # nu(w^alpha) = sqrt2 <= 2 = nu(w^gamma)
    assert all(a <= g for a, g in zip(res.alpha, res.gamma))
    # tau strictly decreases along the records
    taus = [tuple(r["tau"]) for r in path.records]
    assert all(taus[i + 1] < taus[i] for i in range(len(taus) - 1))


def test_monomialize_pair_equal_values():
    # equal values: both divide, exponents agree up to unit columns
    g = ValueGroup(1)
    spec = MonomialValuationSpec(("a", "b"), (g.rational(1), g.rational(1)))
    path = PushPath(spec.frame())
    res = run_pair_descent((1, 0), (0, 1), path)
    assert res.alpha_divides and res.gamma_divides
    units = path.frame.units
    assert units
    assert all(
        x == y for i, (x, y) in enumerate(zip(res.alpha, res.gamma)) if i not in units
    )


def test_monomialize_pair_direction_matches_value_order():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(2, 5)
        spec = sqrt_prime_spec(n)
        a = tuple(rng.randint(0, 7) for _ in range(n))
        g = tuple(rng.randint(0, 7) for _ in range(n))
        path = PushPath(spec.frame())
        res = run_pair_descent(a, g, path)
        va = value_of_exponent(a, spec.weights)
        vg = value_of_exponent(g, spec.weights)
        cmp = compare(va, vg)
        if cmp < 0:
            assert res.alpha_divides and not res.gamma_divides
        elif cmp > 0:
            assert res.gamma_divides and not res.alpha_divides
        else:
            assert res.alpha_divides and res.gamma_divides
        # step-count bound from the tau components
        assert len(path.steps) <= sum(tau(a, g)) + 1


def test_principalize_examples():
    spec = sqrt_prime_spec(2)
    path = PushPath(spec.frame())
    res = principalize_exponents([(1, 2)], path)
    assert res.survivor == 0 and len(path.steps) == 0
    # two generators behave like the pair game
    res2 = principalize_exponents([(0, 1), (2, 0)], PushPath(spec.frame()))
    pair = run_pair_descent((0, 1), (2, 0), PushPath(spec.frame()))
    assert res2.survivor == 0  # sqrt2 < 2
    assert res2.exponents[0] == pair.alpha and res2.exponents[1] == pair.gamma
    # three generators: survivor is the min-value one
    gens = [(3, 0), (0, 2), (1, 1)]
    path3 = PushPath(spec.frame())
    res3 = principalize_exponents(gens, path3)
    vals = [value_of_exponent(e, spec.weights) for e in gens]
    best = min(range(3), key=lambda i: (vals[i], i))
    assert res3.survivor == best
    surv = res3.exponents[res3.survivor]
    for e in res3.exponents:
        assert all(
            x <= y for i, (x, y) in enumerate(zip(surv, e)) if i not in path3.frame.units
        )


def test_independence_sets():
    # the runners claim the sets: only they know the path is the whole run
    problem = {
        "algorithm": "pair",
        "group": {"rank": 3},
        "spec": {
            "vars": ["u1", "u2", "u3"],
            "weights": [
                {"coords": ["1", "0", "0"]}, {"coords": ["0", "1", "0"]}, {"coords": ["0", "0", "1"]},
            ],
        },
        "alpha": [0, 1, 4],
        "gamma": [2, 0, 4],
    }
    # the pair agrees on the last variable, which no blow-up centre holds
    pair = run_problem(problem)
    assert pair["verdict"] == {"ok": True}
    assert pair["witnesses"]["sequence"]["independent_of"] == [3]
    problem["algorithm"] = "principalize"
    problem["generators"] = [[3, 0, 0], [0, 2, 0], [1, 1, 0]]
    ideal = run_problem(problem)
    assert ideal["verdict"] == {"ok": True}
    assert ideal["witnesses"]["sequence"]["independent_of"] == [3]
    # the nondegenerate runner reads the set from the antichain it played:
    # u3 appears only in a term that u2 divides
    problem["algorithm"] = "nondegenerate"
    problem["poly"] = {"vars": ["u1", "u2", "u3"], "terms": [
        {"e": [2, 0, 0], "c": "1"}, {"e": [0, 1, 0], "c": "1"}, {"e": [0, 1, 1], "c": "1"},
    ]}
    nondeg = run_problem(problem)
    assert nondeg["verdict"] == {"ok": True}
    assert nondeg["witnesses"]["sequence"]["independent_of"] == [3]


def test_engines_compose_on_one_path():
    # a pair game blows up u2 and u3, then the nondegenerate engine plays
    # on from that chart; only a runner, which knows the path is the whole
    # run, states an independence set
    spec = sqrt_prime_spec(3)
    path = PushPath(spec.frame())
    run_pair_descent((0, 1, 0), (0, 0, 2), path)
    start = len(path)
    assert start > 0 and any(2 in s.J for s in path.steps)
    # u1^2 + u2 in the chart the pair game ended in
    f = poly(spec.vars, {(2, 0, 0): 1, (0, 1, 0): 1})
    res = monomialize_nondegenerate(f, path)
    assert res.generators == [(0, 1, 0), (2, 0, 0)]
    assert len(path) > start and all(2 not in s.J for s in path.steps[start:])
    assert res.unit_witness.constant_term() == res.unit_witness.tower.one()
    mono = MultiPoly.monomial(spec.vars, res.exponent, 1)
    assert mono * res.unit_witness == res.image == path.push(f, start)
    # u3 is free in the second segment, not in the whole path
    with pytest.raises(InvalidInputError, match="touches its independence set"):
        path.to_json((2,))


@pytest.mark.parametrize("run", [
    lambda spec: run_pair_descent((1,), (0,), PushPath(spec.frame())),
    lambda spec: principalize_exponents([(1,), (0,)], PushPath(spec.frame())),
], ids=["pair", "principalize"])
def test_exponents_shorter_than_the_frame_are_invalid_input(run):
    with pytest.raises(InvalidInputError, match="exponent length must match the frame"):
        run(sqrt_prime_spec(2))


@pytest.mark.parametrize("run", [
    lambda spec: run_pair_descent((2, -3), (0, 1), PushPath(spec.frame())),
    lambda spec: principalize_exponents([(2, 0), (0, -1), (1, 1)], PushPath(spec.frame())),
    lambda spec: run_pair_descent((1.5, 0), (0, 1), PushPath(spec.frame())),
    lambda spec: principalize_exponents([(True, 0), (0, 1)], PushPath(spec.frame())),
], ids=["negative-pair", "negative-ideal", "float", "bool"])
def test_exponents_other_than_nonnegative_ints_are_invalid_input(run):
    with pytest.raises(InvalidInputError, match="exponents must be nonnegative integers"):
        run(sqrt_prime_spec(2))


@pytest.mark.parametrize("run", [
    lambda spec: run_pair_descent((1, 0, 0, 0), (0, 1, 0, 0), PushPath(spec.frame(), 50)),
    lambda spec: principalize_exponents(
        [(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)], PushPath(spec.frame(), 50)
    ),
], ids=["pair", "ideal"])
def test_a_step_that_keeps_tau_is_caught(monkeypatch, run):
    # a center on the two columns no generator involves leaves every
    # exponent, and so tau(I, w), as it was; without the check the game
    # would repeat that step until the budget runs out
    monkeypatch.setattr(game, "_greedy_center", lambda at, gt: (2, 3))
    with pytest.raises(AssertionError, match="tau failed to decrease strictly"):
        run(sqrt_prime_spec(4))


def test_principalize_tau_log_strictly_decreases():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 4)
        spec = sqrt_prime_spec(n)
        gens = {tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(1, 5))}
        # keep the minimal antichain only (precondition)
        gens = [
            e for e in gens
            if not any(all(x <= y for x, y in zip(o, e)) and o != e for o in gens)
        ]
        path = PushPath(spec.frame())
        principalize_exponents(gens, path)
        log = [tuple((r["tau_ideal"][0], tuple(r["tau_ideal"][1]))) for r in path.records]
        assert all(log[i + 1] < log[i] for i in range(len(log) - 1))


def test_principalize_scans_each_state_once(monkeypatch):
    # the tau(I, w) scan after a blow-up is the next blow-up's pair choice
    # when nothing is dropped: no two consecutive scans see the same state
    from valmono import game

    scans = []
    real = game._best_pair

    def spy(exps, active, units):
        scans.append((tuple(exps), tuple(active), units))
        return real(exps, active, units)

    monkeypatch.setattr(game, "_best_pair", spy)
    rng = random.Random(17)
    blowups = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        gens = {tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(2, 5))}
        gens = [e for e in gens if not any(all(x <= y for x, y in zip(o, e)) and o != e for o in gens)]
        scans.clear()
        path = PushPath(sqrt_prime_spec(n).frame())
        principalize_exponents(gens, path)
        blowups += sum(r["event"] == "blowup" for r in path.records)
        assert all(a != b for a, b in zip(scans, scans[1:]))
    assert blowups >= 40


def test_monomial_valuation_examples():
    spec = sqrt_prime_spec(2)
    f = poly(("u1", "u2"), {(2, 0): 1, (0, 1): 1})
    v = monomial_valuation(f, spec)
    assert v.coords == (Fraction(0), Fraction(1))  # sqrt2
    m = poly(("u1", "u2"), {(3, 4): 5})
    assert monomial_valuation(m, spec) == value_of_exponent((3, 4), spec.weights)
    assert monomial_valuation(f.scale(7), spec) == v
    with pytest.raises(ZeroPolynomialError):
        monomial_valuation(poly(("u1", "u2"), {}), spec)


def test_initial_form_examples():
    spec = sqrt_prime_spec(2)
    f = poly(("u1", "u2"), {(2, 0): 1, (0, 1): 1})
    assert initial_form(f, spec) == poly(("u1", "u2"), {(0, 1): 1})
    g = poly(("u1", "u2"), {(3, 4): 5})
    assert initial_form(g, spec) == g
    spec11 = rational_spec([1, 1], names=("u1", "u2"))
    h = poly(("u1", "u2"), {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert initial_form(h, spec11) == poly(("u1", "u2"), {(1, 0): 1, (0, 1): 1})


def test_valuation_and_initial_form_multiplicative():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(2, 3)
        spec = sqrt_prime_spec(n)
        vars_ = spec.vars
        f = random_poly(rng, vars_, max_terms=4, max_exp=4)
        g = random_poly(rng, vars_, max_terms=4, max_exp=4)
        vf, vg = monomial_valuation(f, spec), monomial_valuation(g, spec)
        assert compare(monomial_valuation(f * g, spec), vf + vg) == 0
        assert initial_form(f * g, spec) == initial_form(f, spec) * initial_form(g, spec)
        s = f + g
        if not s.is_zero():
            assert compare(monomial_valuation(s, spec), min(vf, vg)) >= 0


def test_monomialize_nondegenerate_monomial_input():
    spec = sqrt_prime_spec(2)
    f = poly(("u1", "u2"), {(2, 3): 5})
    path = PushPath(spec.frame())
    res = monomialize_nondegenerate(f, path)
    assert len(path.steps) == 0
    assert res.exponent == (2, 3)
    assert is_constant(res.unit_witness)


def test_monomialize_nondegenerate_cusp_shape():
    # f = u2 + u1^2 with weights (1, sqrt2): after the sequence the image
    # of u2's exponent carries f
    spec = sqrt_prime_spec(2)
    f = poly(("u1", "u2"), {(0, 1): 1, (2, 0): 1})
    path = PushPath(spec.frame())
    res = monomialize_nondegenerate(f, path)
    assert res.unit_witness.constant_term() == res.unit_witness.tower.one()
    # exponent * unit reproduces the pushed-through f
    img = push_by_matrices(f, path.steps)
    mono = MultiPoly.monomial(f.vars, res.exponent, 1)
    assert mono * res.unit_witness == img


def test_monomialize_nondegenerate_tie_example():
    # f = u1 + u2, weights (1,1): one blow-up; unit = 1 + u2'
    spec = rational_spec([1, 1], names=("u1", "u2"))
    f = poly(("u1", "u2"), {(1, 0): 1, (0, 1): 1})
    path = PushPath(spec.frame())
    res = monomialize_nondegenerate(f, path)
    assert len(path.steps) == 1
    assert res.exponent == (1, 0)
    assert res.unit_witness == poly(("u1", "u2"), {(0, 0): 1, (0, 1): 1})
    assert res.unit_witness.constant_term() == res.unit_witness.tower.one()


def test_nondegenerate_image_matches_stepwise_push():
    rng = random.Random(61)
    ties = 0
    for trial in range(120):
        n = rng.randint(2, 4)
        names = tuple(f"u{i + 1}" for i in range(n))
        if trial % 2:
            spec = rational_spec([rng.randint(1, 3) for _ in range(n)], names)
        else:
            spec = sqrt_prime_spec(n, names)
        f = random_poly(rng, names, max_terms=5, max_exp=4)
        path = PushPath(spec.frame())
        res = monomialize_nondegenerate(f, path)
        ties += any(s.J_times for s in path.steps)
        want = push_by_matrices(f, path.steps)
        assert res.image == want and list(res.image.terms) == list(want.terms)
    assert ties >= 10


def test_divisibility_direction_with_random_rational_weights():
    # randomized weights (positive rationals, ties possible): the final
    # divisibility direction still matches the value comparison
    from valmono.values import ValueGroup

    rng = random.Random(55)
    g1 = ValueGroup(1)
    for _ in range(120):
        n = rng.randint(2, 4)
        weights = tuple(
            g1.rational(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
            for _ in range(n)
        )
        spec = MonomialValuationSpec(tuple(f"u{i}" for i in range(n)), weights)
        a = tuple(rng.randint(0, 6) for _ in range(n))
        b = tuple(rng.randint(0, 6) for _ in range(n))
        res = run_pair_descent(a, b, PushPath(spec.frame()))
        va = value_of_exponent(a, weights)
        vb = value_of_exponent(b, weights)
        cmp = compare(va, vb)
        assert res.alpha_divides == (cmp <= 0)
        assert res.gamma_divides == (cmp >= 0)


# -- reference bodies of the tau bookkeeping --------------------------------


def old_reduced_parts(alpha, gamma, units=frozenset()):
    at, gt = [], []
    for i, (a, g) in enumerate(zip(alpha, gamma)):
        if i in units:
            at.append(0)
            gt.append(0)
        else:
            d = min(a, g)
            at.append(a - d)
            gt.append(g - d)
    return tuple(at), tuple(gt)


def old_reduced_divides(a, b, units):
    return all(x <= y for i, (x, y) in enumerate(zip(a, b)) if i not in units)


def old_best_pair(exps, active, units):
    best = None
    for p in range(len(active)):
        for q in range(p + 1, len(active)):
            at, gt = old_reduced_parts(exps[active[p]], exps[active[q]], units)
            tv = tuple(sorted((sum(at), sum(gt))))
            if best is None or tv < best[0]:
                best = (tv, at, gt)
    return best


def test_tau_bookkeeping_matches_reference():
    rng = random.Random(20261018)
    ties = 0  # scans where several pairs attain the minimal tau
    for trial in range(600):
        n = rng.randint(1, 8)
        units = frozenset(rng.sample(range(n), rng.randint(1, n))) if trial % 2 else frozenset()
        hi = rng.choice((1, 2, 12))
        exps = [tuple(rng.randint(0, hi) for _ in range(n)) for _ in range(rng.randint(2, 6))]
        for a, b in zip(exps, exps[1:]):
            assert game.reduced_parts(a, b, units) == old_reduced_parts(a, b, units)
            assert game._reduced_divides(a, b, units) is old_reduced_divides(a, b, units)
        assert game.reduced_parts(exps[0], exps[1]) == old_reduced_parts(exps[0], exps[1])
        active = sorted(rng.sample(range(len(exps)), rng.randint(2, len(exps))))
        got = game._best_pair(exps, active, units)
        assert got == old_best_pair(exps, active, units)
        assert type(got[0]) is tuple
        taus = [
            sorted(map(sum, old_reduced_parts(exps[p], exps[q], units)))
            for p in active for q in active if p < q
        ]
        ties += taus.count(min(taus)) > 1
    assert ties > 100


def test_best_pair_tie_goes_to_the_least_index_pair():
    exps = [(2, 0, 0), (0, 1, 0), (0, 0, 2), (0, 1, 0)]
    # pairs (0, 1), (1, 2) and (2, 3) all have tau (1, 2), and (1, 3) has (0, 0)
    assert game._best_pair(exps, [0, 1, 2], frozenset()) == ((1, 2), (2, 0, 0), (0, 1, 0))
    assert game._best_pair(exps, [1, 2], frozenset()) == ((1, 2), (0, 1, 0), (0, 0, 2))
    assert game._best_pair(exps, [0, 1, 3], frozenset()) == ((0, 0), (0, 0, 0), (0, 0, 0))


def helper_mismatches(best_pair, greedy_center, antichain) -> tuple[list, Counter]:
    """The cases of a seeded sweep where ``best_pair``, ``greedy_center``
    or ``antichain`` differ from the oracles of ``tests/conftest.py``, and
    how often the sweep met each tie: several pairs at the least tau
    (the least-index pair rule), two generators of one degree off the
    units, and equal gt_i on both sides of where the center stops."""
    rng = random.Random(20261022)
    bad, seen = [], Counter()
    for trial in range(1500):
        n = rng.randint(2, 6)
        units = frozenset(rng.sample(range(n), rng.randint(1, n - 1))) if trial % 3 == 0 else frozenset()
        hi = rng.choice((1, 2, 3, 6))
        exps = [tuple(rng.randint(0, hi) for _ in range(n)) for _ in range(rng.randint(2, 6))]
        if rng.random() < 0.3:  # a permuted copy: one degree, many ties
            exps.append(tuple(rng.sample(exps[0], n)))
        active = sorted(rng.sample(range(len(exps)), rng.randint(2, len(exps))))
        got, want = best_pair(exps, active, units), scan_best_pair(exps, active, units)
        if got != want:
            bad.append(("best_pair", exps, active, units, got, want))
        taus = [scan_best_pair(exps, [p, q], units)[0] for p, q in combinations(active, 2)]
        seen["least tau ties"] += len(active) > 2 and taus.count(min(taus)) > 1
        degrees = [sum(x for i, x in enumerate(exps[k]) if i not in units) for k in active]
        seen["equal degrees"] += len(set(degrees)) < len(degrees)
        # the center of the winning pair, as _descend orients it, and one
        # of two random sides whose gt holds repeated values
        centers = []
        (s, _), at, gt = want
        if s:
            centers.append((at, gt) if sum(at) == s else (gt, at))
        gt = tuple(rng.choice((0, 1, 2, 2, 3)) for _ in range(n))
        if sum(gt):
            at = [0] * n
            for _ in range(rng.randint(1, sum(gt))):
                at[rng.randrange(n)] += 1
            centers.append((tuple(at), gt))
        for at, gt in centers:
            got, want = greedy_center(at, gt), tuple_greedy_center(at, gt)
            if got != want:
                bad.append(("greedy_center", at, gt, got, want))
            taken = set(want) - {i for i, a in enumerate(at) if a}
            left = [gt[i] for i in range(n) if i not in want and gt[i]]
            seen["gt ties"] += any(gt[i] in left for i in taken)
        terms = set(exps)
        got, want = antichain(terms), scan_antichain(terms)
        if got != want:
            bad.append(("antichain", terms, got, want))
        seen["dropped"] += len(want) < len(terms)
    return bad, seen


def test_the_game_helpers_match_their_oracles():
    bad, seen = helper_mismatches(game._best_pair, game._greedy_center, game._antichain)
    assert bad == []
    assert min(seen.values()) > 150, seen


def _center_ties_to_the_larger_index(at, gt):
    target, got = sum(at), 0
    J = [i for i, a in enumerate(at) if a > 0]
    for i in sorted(range(len(gt)), key=lambda i: (gt[i], i), reverse=True):
        if got >= target:
            break
        J.append(i)
        got += gt[i]
    return tuple(sorted(J))


def _best_pair_ties_to_the_last_pair(exps, active, units):
    best = None
    for p, q in combinations(active, 2):
        at, gt = game.reduced_parts(exps[p], exps[q], units)
        pair_tau = tuple(sorted((sum(at), sum(gt))))
        if best is None or pair_tau <= best[0]:
            best = pair_tau, at, gt
    return best


@pytest.mark.parametrize("helper", ["greedy_center", "best_pair"])
def test_the_helper_sweep_fails_on_a_reversed_tie_rule(helper):
    """The sweep above sees a tie broken the other way: to the larger
    index in the center, or to the last pair at the least tau."""
    best_pair, center = game._best_pair, game._greedy_center
    if helper == "greedy_center":
        center = _center_ties_to_the_larger_index
    else:
        best_pair = _best_pair_ties_to_the_last_pair
    bad, _ = helper_mismatches(best_pair, center, game._antichain)
    assert len({b[0] for b in bad}) == 1 and len(bad) > 20, bad[:3]


def old_drop_divisible(exps, active, units, on_drop):
    # the scan of all ordered pairs, restarted after every drop
    changed = True
    while changed and len(active) > 1:
        changed = False
        for p in range(len(active)):
            for q in range(len(active)):
                if p == q:
                    continue
                a, b = exps[active[p]], exps[active[q]]
                if old_reduced_divides(a, b, units) and (
                    not old_reduced_divides(b, a, units) or active[p] < active[q]
                ):
                    on_drop(active.pop(q))
                    changed = True
                    break
            if changed:
                break


def _drop_record(dropped, active, exps, units):
    # what principalize_exponents writes for a drop: the generator and tau(I, w)
    if len(active) == 1:
        return dropped, (0, 0, 1)
    return dropped, (len(active) - 1, *old_best_pair(exps, active, units)[0])


def test_drop_divisible_matches_the_restarting_scan():
    rng = random.Random(20261019)
    drops = mutual = 0
    for trial in range(800):
        n = rng.randint(1, 5)
        units = frozenset(rng.sample(range(n), rng.randint(1, n))) if trial % 2 else frozenset()
        hi = rng.choice((1, 2, 4))
        exps = [tuple(rng.randint(0, hi) for _ in range(n)) for _ in range(rng.randint(1, 7))]
        active = sorted(rng.sample(range(len(exps)), rng.randint(1, len(exps))))
        want, ref = [], list(active)
        old_drop_divisible(exps, ref, units, lambda d: want.append(_drop_record(d, ref, exps, units)))
        got, new = [], list(active)
        for d in game._divisible_drops(exps, new, units):
            got.append(_drop_record(d, new, exps, units))
        assert got == want and new == ref
        drops += len(got)
        mutual += any(
            old_reduced_divides(exps[p], exps[q], units) and old_reduced_divides(exps[q], exps[p], units)
            for p in active for q in active if p < q
        )
    assert drops > 800 and mutual > 200


def test_split_monomial_divides_exactly_or_refuses():
    """``split_monomial`` against a term-by-term oracle: the monomial is the
    exponent with unit columns zeroed, and the cofactor holds each term's
    exponent minus it, in term order, or is None when one term falls short,
    by one or more, in a single column."""
    rng = random.Random(41)
    names = ("a", "b", "c")
    refused = 0
    for k in range(300):
        frame = Frame(names, (None,) * 3, frozenset(rng.sample(range(3), rng.randint(0, 2))))
        f = random_poly(rng, names, max_terms=5, max_exp=4)
        least = [min(col) for col in zip(*f.terms)]
        exponent = [m + rng.choice((0, 0, 1, 2)) if k % 2 else m for m in least]
        mono = tuple(0 if i in frame.units else x for i, x in enumerate(exponent))
        want = [tuple(x - m for x, m in zip(e, mono)) for e in f.terms]
        got_mono, cofactor = split_monomial(f, exponent, frame)
        assert got_mono == mono
        if min(map(min, want)) < 0:
            refused += 1
            assert cofactor is None
        else:
            assert list(cofactor.terms) == want
            assert list(cofactor.terms.values()) == list(f.terms.values()) and cofactor.den == f.den
    assert refused > 50
    # one column short by exactly one
    f = poly(names, {(2, 1, 0): 1, (1, 1, 1): 3})
    assert split_monomial(f, (2, 1, 0), Frame(names, (None,) * 3))[1] is None
    assert split_monomial(f, (2, 1, 0), Frame(names, (None,) * 3, frozenset({0})))[1] is not None


# -- each internal check of the game, on a planted defect --------------------


_REAL_SPLIT = game.split_monomial

# (message, helper of ``game``, the planted helper), each on u1^2 + u2^3
GAME_PLANTED = [
    # a descent that plays no round: the first generator survives unchecked
    ("survivor does not divide generator 1 after principalization", "_descend",
     lambda exps, path: iter(())),
    # a divisor one higher in every column
    ("survivor fails to divide a term of the image", "split_monomial",
     lambda poly, exponent, frame: _REAL_SPLIT(poly, [x + 1 for x in exponent], frame)),
    # nothing divided out: the cofactor is the whole image
    ("unit witness has no invertible part", "split_monomial",
     lambda poly, exponent, frame: _REAL_SPLIT(poly, [0] * len(exponent), frame)),
]


@pytest.mark.parametrize("message, helper, plant", GAME_PLANTED, ids=[m for m, *_ in GAME_PLANTED])
def test_each_internal_check_fires_on_its_planted_defect(monkeypatch, message, helper, plant):
    """Each internal check of ``principalize_exponents`` and
    ``monomialize_nondegenerate`` raises its message when one helper is
    planted with a defect; unplanted, the problem runs through."""
    spec = rational_spec((1, 1))
    f = poly(spec.vars, {(2, 0): 1, (0, 3): 1})
    res = monomialize_nondegenerate(f, PushPath(spec.frame()))
    assert MultiPoly.monomial(spec.vars, res.exponent, 1) * res.unit_witness == res.image
    monkeypatch.setattr(game, helper, plant)
    with pytest.raises(AssertionError) as caught:
        monomialize_nondegenerate(f, PushPath(spec.frame()))
    assert str(caught.value) == message
