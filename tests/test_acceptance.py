"""Acceptance criteria.

One test per criterion, each at its stated size and tolerance (everything
is exact integer/rational arithmetic; "tolerance" means bit-exact).  Each
test prints one pass line; run with `pytest tests/test_acceptance.py -v -s`.
"""

import copy
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    active_indices,
    binomial_chain,
    forward_product,
    horner,
    identity,
    json_digest,
    old_det,
    old_inverse_int,
    old_mat_mul,
    poly,
    push_by_matrices,
    random_poly,
    rational_spec,
    sqrt_prime_spec,
    trace_matrix,
)
from valmono.errors import TraceMismatchError
from valmono.framing import PushPath
from valmono.game import (
    monomialize_nondegenerate,
    principalize_exponents,
    run_pair_descent,
)
from valmono.keypoly import (
    KeyPolyChain,
    truncate,
    truncated_valuation,
)
from valmono.polyalg import MultiPoly, QQ
from valmono.trace import canonical_digest, run_problem, verify_trace
from valmono.unifseq import (
    UniformizingProblem,
    elementary_uniformizing_sequence,
    monomialize_key_polys,
)
from valmono.values import ValueGroup, compare, value_of_exponent

SEED = 20260809


@pytest.fixture(scope="module")
def pair_corpus():
    """1000 randomized pairs in dimensions 2..6 with sqrt-prime weights."""
    rng = random.Random(SEED)
    runs = []
    t0 = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(2, 6)
        spec = sqrt_prime_spec(n)
        alpha = tuple(rng.randint(0, 10) for _ in range(n))
        gamma = tuple(rng.randint(0, 10) for _ in range(n))
        path = PushPath(spec.frame())
        res = run_pair_descent(alpha, gamma, path)
        runs.append((alpha, gamma, spec, res, path))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


@pytest.fixture(scope="module")
def ideal_corpus():
    """300 random monomial ideals, <= 5 generators, dimension <= 4."""
    rng = random.Random(SEED + 1)
    runs = []
    for _ in range(300):
        n = rng.randint(2, 4)
        spec = sqrt_prime_spec(n)
        gens = list({tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(1, 5))})
        gens = [
            e for e in gens
            if not any(all(x <= y for x, y in zip(o, e)) and o != e for o in gens)
        ]
        gens.sort()
        path = PushPath(spec.frame())
        res = principalize_exponents(gens, path)
        runs.append((gens, spec, res, path))
    return runs


def test_criterion_1_tau_descent_termination(pair_corpus):
    runs, elapsed = pair_corpus
    budget_hits = 0
    for alpha, gamma, spec, res, path in runs:
        taus = [tuple(r["tau"]) for r in path.records]
        for a, b in zip(taus, taus[1:]):
            assert b < a, "tau failed to decrease strictly"
        assert res.alpha_divides or res.gamma_divides
        budget_hits += len(path.steps)
    assert elapsed < 10.0, f"corpus took {elapsed:.2f}s (target < 10s)"
    print(
        f"\nPASS criterion 1: 1000 runs terminated, tau strictly lex-decreasing "
        f"({budget_hits} steps, {elapsed:.2f}s)"
    )


def test_criterion_2_divisibility_iff_value_order(pair_corpus):
    runs, _ = pair_corpus
    mismatches = 0
    for alpha, gamma, spec, res, _ in runs:
        va = value_of_exponent(alpha, spec.weights)
        vg = value_of_exponent(gamma, spec.weights)
        cmp = compare(va, vg)
        expect_alpha = cmp <= 0
        expect_gamma = cmp >= 0
        if res.alpha_divides != expect_alpha or res.gamma_divides != expect_gamma:
            mismatches += 1
    assert mismatches == 0
    print("\nPASS criterion 2: divisibility direction equals value order, 0 mismatches")


def test_criterion_3_principalization(ideal_corpus):
    for gens, spec, res, path in ideal_corpus:
        surv = res.exponents[res.survivor]
        units = path.frame.units
        for e in res.exponents:
            assert all(
                x <= y for i, (x, y) in enumerate(zip(surv, e)) if i not in units
            ), "survivor fails to divide a generator image"
        log = [
            (r["tau_ideal"][0], tuple(r["tau_ideal"][1])) for r in path.records
        ]
        for a, b in zip(log, log[1:]):
            assert b < a, "tau(I, w) failed to decrease strictly"
        # the survivor is the minimal-value generator
        vals = [value_of_exponent(e, spec.weights) for e in gens]
        best = min(range(len(gens)), key=lambda i: (vals[i], i))
        assert res.survivor == best
    print("\nPASS criterion 3: 300 ideals principalized, tau(I,w) strictly decreasing")


def test_criterion_4_unimodularity(pair_corpus, ideal_corpus):
    checked = 0
    sequences = [path for *_, path in pair_corpus[0]]
    sequences += [path for *_, path in ideal_corpus]
    for seq in sequences:
        n = seq.frames[0].n
        total = identity(n)
        for s in seq.steps:
            # the trace matrices: det N = 1 and N * M = identity
            N, M = trace_matrix(s), trace_matrix(s, "M")
            assert old_mat_mul(N, M) == identity(n) and old_det(N) == 1
            total = old_mat_mul(N, total)
            checked += 1
        if seq.steps:
            d = old_det(total)
            assert d == 1
            inv = old_inverse_int(total)
            assert inv is not None
            assert old_mat_mul(total, inv) == identity(n)
    print(f"\nPASS criterion 4: {checked} steps and all composites unimodular")


def test_criterion_5_expansion_fidelity():
    rng = random.Random(SEED + 2)
    pairs = 0
    while pairs < 500:
        chain = binomial_chain(rng)
        f = random_poly(rng, ("u", "x"), max_terms=4, max_exp=5)
        g = random_poly(rng, ("u", "x"), max_terms=3, max_exp=4)
        for i in range(1, len(chain) + 1):
            exp = truncate(f, chain, i).expansion
            assert exp.reassembles(f) and horner(exp) == f, "expansion failed to reassemble"
            for c in exp.coefficients:
                assert c.is_zero() or c.degree_in("x") < chain.Q(i).degree_in("x")
            vf = truncated_valuation(f, chain, i)
            vg = truncated_valuation(g, chain, i)
            vfg = truncated_valuation(f * g, chain, i)
            assert compare(vfg, vf + vg) == 0, "not multiplicative"
        for lo, hi in zip(range(1, len(chain)), range(2, len(chain) + 1)):
            assert (
                compare(
                    truncated_valuation(f, chain, lo),
                    truncated_valuation(f, chain, hi),
                )
                <= 0
            ), "truncations not monotone"
        for i in range(1, len(chain)):
            # alpha_(i+1) = deg Q_(i+1) / deg Q_i
            alpha = chain.Q(i + 1).degree_in("x") // chain.Q(i).degree_in("x")
            assert alpha * truncate(f, chain, i + 1).delta <= truncate(
                f, chain, i
            ).delta, "delta descent violated"
        pairs += 1
    print("\nPASS criterion 5: 500 expansions exact, monotone, multiplicative, delta-descent")


def test_criterion_6_cusp_uniformizing_sequence():
    g1 = ValueGroup(1)
    t0 = time.perf_counter()
    prob = UniformizingProblem(
        w_names=("w1",),
        w_weights=(g1.rational(2),),
        wn_name="wn",
        beta_n=g1.rational(3),
        residue=(-1, 1),
    )
    path = PushPath(prob.frame())
    res = elementary_uniformizing_sequence(prob, path)
    elapsed = time.perf_counter() - t0
    # (1) all steps before the final collision/translation are monomial
    assert not any(s.translation_data for s in path.steps[:-2])
    # (2) P != 0 keeps the dimension
    assert len(active_indices(path.frame)) == 2
    # (3) w_1, w_n are monomials in the final actives times a unit (z-powers)
    assert res.images["w1"] == {
        "monomial": [2, 0], "unit_exponents": {}, "z_power": 1,
    }
    assert res.images["wn"] == {
        "monomial": [3, 0], "unit_exponents": {}, "z_power": 2,
    }
    # (4) the composed exponent map is unimodular both ways
    total = forward_product(path.steps, 2)
    inv = old_inverse_int(total)
    assert inv is not None and old_det(total) == 1
    # (5) image(Q) = y * (image of w_n^(l)) exactly, unit cofactor 1
    assert res.witness["exact"] is True
    assert res.witness["monomial_exponent"] == [6, 3]
    assert res.witness["quotient"]["terms"] == [{"e": [0, 1], "c": "1"}]
    assert res.witness["unit_constant"] == "1"
    # (6) residue polynomial X - 1, trivial extension
    assert path.steps[-1].translation_data[0].minpoly == (-1, 1)
    assert path.frame.tower == QQ
    assert elapsed < 1.0
    print(f"\nPASS criterion 6: cusp sequence satisfies all six conclusions ({elapsed:.3f}s)")


def test_criterion_7_keypoly_monomialization():
    g1 = ValueGroup(1)
    rng = random.Random(SEED + 3)
    # fixture family of valid 2-entry chains: classic binomials (several
    # ramification indices and residues, one tower case), plus translations
    fixtures = []
    ground = rational_spec([1], names=("u",))
    uv = ("u", "x")
    x_poly = MultiPoly.variable(uv, "x")
    fixtures.append(  # the cusp
        KeyPolyChain(ground, "x", (
            (x_poly, g1.rational(Fraction(3, 2))),
            (poly(uv, {(0, 2): 1, (3, 0): -1}), g1.rational(4)),
        ))
    )
    fixtures.append(  # translation type
        KeyPolyChain(ground, "x", (
            (x_poly, g1.rational(1)),
            (poly(uv, {(0, 1): 1, (1, 0): 1}), g1.rational(2)),
        ))
    )
    fixtures.append(  # degree-2 residue extension: x^2 - 2u^2
        KeyPolyChain(ground, "x", (
            (x_poly, g1.rational(1)),
            (poly(uv, {(0, 2): 1, (2, 0): -2}), g1.rational(Fraction(5, 2))),
        ))
    )
    for _ in range(22):
        fixtures.append(binomial_chain(rng, allow_extension=False))
    assert len(fixtures) == 25
    for chain in fixtures:
        path = PushPath(chain.initial_frame())
        res = monomialize_key_polys(chain, path)
        top = res.witnesses[-1]
        # division by the distinguished parameter succeeds exactly once
        assert top.x_multiplicity == 1, "first division must succeed, second must fail"
        for w in res.witnesses:
            assert any(
                all(x == 0 for i, x in enumerate(e) if i not in path.frame.units)
                for e in w.unit.terms
            ), "image is not monomial times unit"
    print(f"\nPASS criterion 7: {len(fixtures)} chains, parameter divides top entry exactly once")


def test_criterion_8_nondegenerate_monomialization():
    rng = random.Random(SEED + 4)
    for _ in range(300):
        n = rng.randint(2, 4)
        spec = sqrt_prime_spec(n)
        f = random_poly(rng, spec.vars, max_terms=5, max_exp=6)
        path = PushPath(spec.frame())
        res = monomialize_nondegenerate(f, path)
        const = res.unit_witness.constant_term()
        assert not res.unit_witness.tower.is_zero(const), "unit lacks constant term"
        img = push_by_matrices(f, path.steps)
        mono = MultiPoly.monomial(f.vars, res.exponent, 1, f.tower)
        assert mono * res.unit_witness == img, "exponent * unit != pushed f"
    print("\nPASS criterion 8: 300 runs, unit witnesses invertible, exact factorization")


@pytest.fixture(scope="module")
def trace_corpus():
    rng = random.Random(SEED + 5)
    group2 = {"rank": 2, "ordering": "sqrt-primes", "labels": ["g1", "g2"]}
    spec2 = {
        "vars": ["u1", "u2"],
        "weights": [{"coords": ["1", "0"]}, {"coords": ["0", "1"]}],
    }
    group1 = {"rank": 1, "ordering": "sqrt-primes", "labels": ["g1"]}
    cusp_chain = {
        "ground": {"vars": ["u"], "weights": [{"coords": ["1"]}]},
        "x": "x",
        "entries": [
            {"Q": {"vars": ["u", "x"], "terms": [{"e": [0, 1], "c": "1"}]},
             "beta": {"coords": ["3/2"]}},
            {"Q": {"vars": ["u", "x"],
                   "terms": [{"e": [3, 0], "c": "-1"}, {"e": [0, 2], "c": "1"}]},
             "beta": {"coords": ["4"]}},
        ],
    }
    problems = []
    for _ in range(55):
        # disjoint supports: neither monomial divides the other, so every
        # trace records at least one blow-up (mutation targets)
        problems.append({
            "algorithm": "pair", "group": copy.deepcopy(group2),
            "spec": copy.deepcopy(spec2),
            "alpha": [rng.randint(1, 8), 0],
            "gamma": [0, rng.randint(1, 8)],
        })
    for _ in range(20):
        gens = list({(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(3)})
        gens = [list(e) for e in gens
                if not any(all(x <= y for x, y in zip(o, e)) and o != e for o in gens)]
        problems.append({
            "algorithm": "principalize", "group": copy.deepcopy(group2),
            "spec": copy.deepcopy(spec2), "generators": gens,
        })
    for _ in range(20):
        terms = [{"e": [rng.randint(0, 4), rng.randint(0, 4)], "c": str(rng.randint(1, 5))}
                 for _ in range(rng.randint(1, 4))]
        dedup = {tuple(t["e"]): t for t in terms}
        problems.append({
            "algorithm": "nondegenerate", "group": copy.deepcopy(group2),
            "spec": copy.deepcopy(spec2),
            "poly": {"vars": ["u1", "u2"], "terms": list(dedup.values())},
        })
    problems.append({
        "algorithm": "uniformize", "group": copy.deepcopy(group1),
        "problem": {
            "w_vars": ["w1"], "w_weights": [{"coords": ["2"]}],
            "wn_var": "wn", "beta_n": {"coords": ["3"]},
            "residue": {"kind": "algebraic", "minpoly": ["-1", "1"]},
        },
    })
    problems.append({
        "algorithm": "keypoly-monomialize", "group": copy.deepcopy(group1),
        "chain": copy.deepcopy(cusp_chain),
    })
    problems.append({
        "algorithm": "keypoly-expand", "group": copy.deepcopy(group1),
        "chain": copy.deepcopy(cusp_chain),
        "poly": {"vars": ["u", "x"], "terms": [{"e": [0, 3], "c": "1"}]},
        "level": 2,
    })
    problems.append({
        "algorithm": "polynomial", "group": copy.deepcopy(group1),
        "chain": copy.deepcopy(cusp_chain),
        "poly": {"vars": ["u", "x"], "terms": [{"e": [0, 3], "c": "1"}]},
    })
    return [run_problem(p) for p in problems]


def _flip_one_exponent(trace: dict) -> bool:
    """Mutate one exponent-like integer inside the recorded steps."""
    for rec in trace.get("steps", []):
        for key in ("alpha", "gamma", "exponents"):
            if key in rec:
                target = rec[key]
                if key == "exponents":
                    if target and target[0]:
                        target[0][0] += 1
                        return True
                elif target:
                    target[0] += 1
                    return True
    return False


def test_input_digests_of_the_corpus_keep_their_bytes(trace_corpus):
    for trace in trace_corpus:
        inp = trace["input"]
        assert trace["header"]["input_digest"] == canonical_digest(inp) == json_digest(inp)


def test_criterion_9_trace_round_trip(trace_corpus):
    for trace in trace_corpus:
        assert trace["verdict"]["ok"], trace["verdict"]
        verify_trace(trace)
    mutatable = [t for t in trace_corpus if any(
        k in r for r in t.get("steps", []) for k in ("alpha", "gamma", "exponents")
    )]
    assert len(mutatable) >= 50, "corpus must offer at least 50 mutatable traces"
    failures = 0
    for trace in mutatable[:50]:
        bad = copy.deepcopy(trace)
        assert _flip_one_exponent(bad)
        try:
            verify_trace(bad)
        except TraceMismatchError:
            failures += 1
    assert failures == 50
    print(
        f"\nPASS criterion 9: {len(trace_corpus)} traces verify; 50/50 mutations detected"
    )


def _log_matches_sequence(trace: dict) -> None:
    """The step log numbers its records 1..N, and its blow-up and
    translation records are the sequence's steps, one to one and in order."""
    log = trace["steps"]
    assert [r["step"] for r in log] == list(range(1, len(log) + 1))
    moves = [r for r in log if "J" in r or "translation" in r]
    steps = ((trace["witnesses"] or {}).get("sequence") or {}).get("steps", [])
    assert len(moves) == len(steps)
    for rec, step in zip(moves, steps):
        if "translation" in rec:
            assert step["J"] == [rec["translation"]["target"]]
        else:
            assert (rec["J"], rec["j"], rec.get("Jx", [])) == (step["J"], step["j"], step["Jx"])


def test_step_log_matches_the_sequence(trace_corpus):
    group1 = {"rank": 1, "ordering": "sqrt-primes", "labels": ["g1"]}
    group2 = {"rank": 2, "ordering": "sqrt-primes", "labels": ["g1", "g2"]}
    uvx = ["u1", "u2", "x"]
    # several phases on one path: 5 blow-ups for the key polynomials, then
    # 5 to principalize the image of u1^4 + u2^3
    polynomial = {
        "algorithm": "polynomial", "group": group2,
        "chain": {
            "ground": {"vars": ["u1", "u2"],
                       "weights": [{"coords": ["1", "0"]}, {"coords": ["0", "1"]}]},
            "x": "x",
            "entries": [
                {"Q": {"vars": uvx, "terms": [{"e": [0, 0, 1], "c": "1"}]},
                 "beta": {"coords": ["3/2", "3/2"]}},
                {"Q": {"vars": uvx, "terms": [{"e": [0, 0, 2], "c": "1"},
                                              {"e": [3, 3, 0], "c": "-1"}]},
                 "beta": {"coords": ["3", "4"]}},
            ],
        },
        "poly": {"vars": uvx, "terms": [{"e": [4, 0, 0], "c": "1"}, {"e": [0, 3, 0], "c": "1"}]},
    }
    # the auxiliary game, the main game and the translation on one path
    perturbed = {
        "algorithm": "uniformize", "group": group1,
        "problem": {
            "w_vars": ["w1"], "w_weights": [{"coords": ["2"]}],
            "wn_var": "wn", "beta_n": {"coords": ["3"]},
            "residue": {"kind": "algebraic", "minpoly": ["-1", "1"]},
            "v_vars": ["v1"], "v_weights": [{"coords": ["5"]}],
            "h": {"vars": ["w1", "v1", "wn"], "terms": [{"e": [2, 1, 0], "c": "1"}]},
        },
    }
    extra = [run_problem(polynomial), run_problem(perturbed)]
    assert all(t["verdict"]["ok"] for t in extra)
    assert any("event" in r for r in extra[0]["steps"]) and any("tau" in r for r in extra[0]["steps"])
    assert extra[1]["witnesses"]["aux_steps"] >= 1
    assert "translation" in extra[1]["steps"][-1]
    for trace in trace_corpus + extra:
        _log_matches_sequence(trace)
