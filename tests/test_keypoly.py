"""Key-polynomial chains: expansions, truncations, invariants, augmentation."""

import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

from conftest import (
    CHILD_ENV,
    binomial_chain,
    horner,
    monomial_valuation,
    poly,
    random_chain,
    random_poly,
    rational_spec,
    value_truncation,
)
from valmono.errors import (
    InvalidInputError,
    NonMonicDivisorError,
    UnnormalizedLeadingCoefficientError,
    ZeroPolynomialError,
)
from valmono import keypoly
from valmono.keypoly import (
    KeyPolyChain,
    StandardExpansion,
    next_key_char0,
    truncate,
    truncated_valuation,
    validate_chain,
)
from valmono.polyalg import QQ, MultiPoly, euclid_divide, q_adic_expansion
from valmono.trace import _parse_group, _poly, chain_from_json, run_problem, verify_trace
from valmono.values import Value, ValueGroup, compare, value_of_exponent

UV = ("u", "x")
G1 = ValueGroup(1)


def cusp_chain() -> KeyPolyChain:
    ground = rational_spec([1], names=("u",))
    q1 = MultiPoly.variable(UV, "x")
    q2 = poly(UV, {(0, 2): 1, (3, 0): -1})
    return KeyPolyChain(
        ground, "x", ((q1, G1.rational(Fraction(3, 2))), (q2, G1.rational(4)))
    )


def test_validate_cusp_chain():
    assert validate_chain(cusp_chain()) == []


def test_validate_catches_violations():
    ground = rational_spec([1], names=("u",))
    q1 = MultiPoly.variable(UV, "x")
    q2 = poly(UV, {(0, 2): 1, (3, 0): -1})
    bad_beta = KeyPolyChain(
        ground, "x", ((q1, G1.rational(Fraction(3, 2))), (q2, G1.rational(1)))
    )
    issues = validate_chain(bad_beta)
    assert any(v.startswith("beta-not-increasing") for v in issues)
    q2_nonmonic = poly(UV, {(0, 2): 2, (3, 0): -1})
    bad_monic = KeyPolyChain(
        ground, "x", ((q1, G1.rational(Fraction(3, 2))), (q2_nonmonic, G1.rational(4)))
    )
    assert any(v.startswith("non-monic") for v in issues + validate_chain(bad_monic))
    # no value jump: beta_2 equals 3, the level-1 value of Q_2, and that
    # is 2 * beta_1, so the slope check names it
    bad_jump = KeyPolyChain(
        ground, "x", ((q1, G1.rational(Fraction(3, 2))), (q2, G1.rational(3)))
    )
    assert validate_chain(bad_jump) == ["slope-not-increasing:Q_2"]


def test_standard_expansion_examples():
    chain = cusp_chain()
    # f = Q_2 -> single term j = 1
    exp = truncate(chain.Q(2), chain, 2).expansion
    assert [c.is_zero() for c in exp.coefficients] == [True, False]
    assert exp.coefficients[1] == poly(UV, {(0, 0): 1})
    # f = x^3 at level 2: c_0 = u^3 x, c_1 = x
    exp = truncate(poly(UV, {(0, 3): 1}), chain, 2).expansion
    assert exp.coefficients[0] == poly(UV, {(3, 1): 1})
    assert exp.coefficients[1] == poly(UV, {(0, 1): 1})
    # deg_x f < deg_x Q_2: only j = 0
    exp = truncate(poly(UV, {(1, 1): 2}), chain, 2).expansion
    assert len(exp.coefficients) == 1
    assert exp.reassembles(poly(UV, {(1, 1): 2}))
    assert horner(exp) == poly(UV, {(1, 1): 2})


def test_truncated_valuation_examples():
    chain = cusp_chain()
    q2 = chain.Q(2)
    # mu'_1(x^2 - u^3) = min(2 * 3/2, 3) = 3
    assert truncated_valuation(q2, chain, 1) == G1.rational(3)
    # mu'_2(x^2 - u^3) = beta_2 = 4
    assert truncated_valuation(q2, chain, 2) == G1.rational(4)
    # f = Q_i -> beta_i
    assert truncated_valuation(chain.Q(1), chain, 1) == G1.rational(Fraction(3, 2))
    with pytest.raises(ZeroPolynomialError):
        truncated_valuation(MultiPoly(UV, {}), chain, 1)


def test_delta_invariant_examples():
    chain = cusp_chain()
    assert truncate(chain.Q(2), chain, 2).delta == 1
    assert truncate(poly(UV, {(2, 1): 1}), chain, 2).delta == 0
    # both j = 0 and j = 2 attain mu'_1 = 3 for x^2 - u^3
    assert truncate(chain.Q(2), chain, 1).delta == 2


def test_epsilon_invariant_examples():
    chain = cusp_chain()
    # single expansion term -> none
    assert truncate(poly(UV, {(1, 0): 1}), chain, 1).epsilon is None
    # f = Q_2 + c with value(c) > beta_2: delta = 1, no j > delta at level 2
    t = truncate(chain.Q(2) + poly(UV, {(5, 0): 1}), chain, 2)
    assert (t.delta, t.epsilon) == (1, None)
    # the mu'_1 example: delta = 2 = top -> none
    assert truncate(chain.Q(2), chain, 1).epsilon is None
    # a genuine secondary minimum
    g = poly(UV, {(0, 2): 1, (1, 1): 1, (3, 0): 1})  # x^2 + u x + u^3
    # values at level 1: j=2: 3, j=1: 1 + 3/2 = 5/2, j=0: 3 -> delta = 1? min is 5/2 at j=1
    t = truncate(g, chain, 1)
    assert (t.delta, t.epsilon) == (1, 2)
    # a tie above delta: 1 + u^3 x + x^3 has values 0, 9/2, 9/2 at j = 0, 1, 3
    h = poly(UV, {(0, 0): 1, (3, 1): 1, (0, 3): 1})
    t = truncate(h, chain, 1)
    assert (t.delta, t.epsilon) == (0, 1)


def test_next_key_char0():
    # chain Q_1 = x with beta_1 = 1 over ground u of weight 1
    ground = rational_spec([1], names=("u",))
    chain = KeyPolyChain(ground, "x", ((MultiPoly.variable(UV, "x"), G1.rational(1)),))
    f = poly(UV, {(0, 2): 1, (1, 1): 1, (2, 0): 1})  # x^2 + u x + u^2
    z, q_next = next_key_char0(chain, f)
    assert z == poly(UV, {(1, 0): Fraction(1, 2)})  # u/2
    assert q_next == poly(UV, {(0, 1): 1, (1, 0): Fraction(1, 2)})  # x + u/2
    # unnormalized leading coefficient rejected
    g = poly(UV, {(0, 2): 2, (1, 1): 1})
    with pytest.raises(UnnormalizedLeadingCoefficientError):
        next_key_char0(chain, g)


def test_quadratic_completion_shape():
    # f = Q^2 + 2 c Q + (heavy rest), delta = 2 -> z = c
    ground = rational_spec([1], names=("u",))
    chain = KeyPolyChain(ground, "x", ((MultiPoly.variable(UV, "x"), G1.rational(1)),))
    c = poly(UV, {(1, 0): 1})
    f = poly(UV, {(0, 2): 1}) + c.scale(2) * poly(UV, {(0, 1): 1}) + poly(UV, {(5, 0): 1})
    z, q_next = next_key_char0(chain, f)
    assert z == c


def test_truncation_monotone_and_multiplicative(rng):
    for _ in range(60):
        chain = binomial_chain(rng)
        f = random_poly(rng, UV, max_terms=4, max_exp=5)
        g = random_poly(rng, UV, max_terms=3, max_exp=4)
        levels = range(1, len(chain) + 1)
        vals = [truncated_valuation(f, chain, i) for i in levels]
        for lo, hi in zip(vals, vals[1:]):
            assert compare(lo, hi) <= 0
        for i in levels:
            vf = truncated_valuation(f, chain, i)
            vg = truncated_valuation(g, chain, i)
            assert compare(truncated_valuation(f * g, chain, i), vf + vg) == 0


def test_delta_descent_inequality(rng):
    for _ in range(60):
        chain = binomial_chain(rng)
        if len(chain) < 2:
            continue
        f = random_poly(rng, UV, max_terms=4, max_exp=5)
        for i in range(1, len(chain)):
            # alpha_(i+1) = deg Q_(i+1) / deg Q_i
            alpha = chain.Q(i + 1).degree_in("x") // chain.Q(i).degree_in("x")
            d_i = truncate(f, chain, i).delta
            d_next = truncate(f, chain, i + 1).delta
            assert alpha * d_next <= d_i


def test_monomial_valuation_below_truncations(rng):
    # nu_0(f) <= mu'_1(f) <= mu'_top(f): the chain refines the monomial data
    for _ in range(40):
        chain = binomial_chain(rng)
        spec = rational_spec([1, chain.beta(1).coords[0]], names=UV)
        f = random_poly(rng, UV, max_terms=4, max_exp=5)
        v0 = monomial_valuation(f, spec)
        v1 = truncated_valuation(f, chain, 1)
        vtop = truncated_valuation(f, chain, len(chain))
        assert compare(v0, v1) <= 0
        assert compare(v1, vtop) <= 0


def test_chain_json_round_trip():
    # trace is the one reader of chain JSON; nothing below it writes a chain
    chain = cusp_chain()
    back = chain_from_json(
        {
            "ground": {"vars": ["u"], "weights": [{"coords": ["1"]}]},
            "x": "x",
            "entries": [
                {"Q": {"vars": ["u", "x"], "terms": [{"e": [0, 1], "c": "1"}]}, "beta": {"coords": ["3/2"]}},
                {
                    "Q": {"vars": ["u", "x"], "terms": [{"e": [0, 2], "c": "1"}, {"e": [3, 0], "c": "-1"}]},
                    "beta": {"coords": ["4"]},
                },
            ],
        },
        G1,
    )
    assert back.entries == chain.entries
    assert back.ground == chain.ground


def test_validate_q1_not_x():
    ground = rational_spec([1], names=("u",))
    not_x = poly(UV, {(0, 1): 1, (1, 0): 1})  # x + u, monic but not x
    chain = KeyPolyChain(ground, "x", ((not_x, G1.rational(1)),))
    assert "q1-not-x" in validate_chain(chain)


def test_next_key_delta_zero_rejected():
    ground = rational_spec([1], names=("u",))
    chain = KeyPolyChain(ground, "x", ((MultiPoly.variable(UV, "x"), G1.rational(1)),))
    f = poly(UV, {(2, 0): 1})  # x-free: delta = 0
    with pytest.raises(Exception):
        next_key_char0(chain, f)


# -- the one-pass truncation against the separate per-invariant functions ---


def _digits(f, chain, i):
    """The coefficients of the level-i standard expansion, by q-adic
    expansion of f in Q_i."""
    return q_adic_expansion(f.with_vars(chain.all_vars), chain.Q(i), chain.x)


def _oracle_truncated_valuation(f, chain, i):
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no value")
    return min(v for _, v in _oracle_term_values(f, chain, i))


def _oracle_term_values(f, chain, i):
    out = []
    for j, c in enumerate(_digits(f, chain, i)):
        if c.is_zero():
            continue
        if i == 1:
            cv = monomial_valuation(c.with_vars(chain.ground.vars), chain.ground)
        else:
            cv = _oracle_truncated_valuation(c, chain, i - 1)
        out.append((j, chain.beta(i).scale(j) + cv))
    return out


def _oracle_delta_epsilon(f, chain, i):
    vals = _oracle_term_values(f, chain, i)
    best = min(v for _, v in vals)
    delta = max(j for j, v in vals if compare(v, best) == 0)
    above = [(j, v) for j, v in vals if j > delta]
    if not above:
        return delta, None
    mu_plus = min(v for _, v in above)
    return delta, min(j for j, v in above if compare(v, mu_plus) == 0)


def test_truncate_matches_separate_invariants():
    rng = random.Random(41)
    for _ in range(80):
        chain = binomial_chain(rng)
        f = random_poly(rng, UV, max_terms=6, max_exp=9)
        for i in range(1, len(chain) + 1):
            t = truncate(f, chain, i)
            assert t.expansion == StandardExpansion(i, chain.Q(i), tuple(_digits(f, chain, i)))
            assert t.terms == tuple(_oracle_term_values(f, chain, i))
            assert t.value == _oracle_truncated_valuation(f, chain, i)
            assert (t.delta, t.epsilon) == _oracle_delta_epsilon(f, chain, i)
            assert t.value == truncated_valuation(f, chain, i)


def test_truncate_zero_polynomial():
    chain = cusp_chain()
    for i in (1, 2):
        with pytest.raises(ZeroPolynomialError):
            truncate(MultiPoly(UV, {}), chain, i)


def test_ground_value_matches_monomial_valuation():
    # the level-0 value read off the ground columns equals the monomial
    # valuation of the digit rebuilt over the ground variables
    local = random.Random(53)
    seen = 0
    for _ in range(40):
        chain = binomial_chain(local)
        f = random_poly(local, UV, max_terms=6, max_exp=8)
        pending = [f]
        while pending:
            g = pending.pop()
            for c in _digits(g, chain, 1):
                if c.is_zero():
                    continue
                want = monomial_valuation(c.with_vars(chain.ground.vars), chain.ground)
                rows = chain._rows
                got = rows.ground_value([sum(map(mul, e, rows.places)) for e in c.terms])
                assert Value(got, rows.den, rows.group) == want
                seen += 1
            for level in range(2, len(chain) + 1):
                pending += [c for c in _digits(g, chain, level) if not c.is_zero() and c != g]
    assert seen > 100


# -- the row truncation against the MultiPoly one it replaced --------------


def _old_ground_value(c, chain):
    weights = chain.ground.weights
    n = len(weights)
    best = None
    for e in c.terms:
        v = value_of_exponent(e[:n], weights)
        if best is None or compare(v, best) < 0:
            best = v
    return best


def _old_truncate(f, chain, i):
    """The MultiPoly truncation: every level expanded into polynomials,
    every coefficient valued by a truncation one level down."""
    f = f.with_vars(chain.all_vars)
    digits = q_adic_expansion(f, chain.Q(i), chain.x)
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no value")
    below = (
        (lambda c: _old_ground_value(c, chain))
        if i == 1
        else (lambda c: _old_truncate(c, chain, i - 1)[1])
    )
    terms = tuple(
        (j, chain.beta(i).scale(j) + below(c)) for j, c in enumerate(digits) if not c.is_zero()
    )
    delta, best = terms[0]
    for j, v in terms[1:]:
        order = compare(v, best)
        if order <= 0:
            delta = j
            if order < 0:
                best = v
    above = [(j, v) for j, v in terms if j > delta]
    epsilon = None
    if above:
        epsilon, mu_plus = above[0]
        for j, v in above[1:]:
            if compare(v, mu_plus) < 0:
                epsilon, mu_plus = j, v
    return digits, best, delta, epsilon, terms


def _rational_chain(rng):
    """A binomial chain whose Q_i above x have non-integral lower terms."""
    chain = binomial_chain(rng)
    scale = Fraction(rng.choice([1, -2, 5]), rng.choice([3, 7]))
    entries = [chain.entries[0]]
    for q, beta in chain.entries[1:]:
        d = q.degree_in("x")
        lead = {e: q.coeff(e) for e in q.terms if e[1] == d}
        rest = {e: q.coeff(e) * scale for e in q.terms if e[1] < d}
        entries.append((MultiPoly(q.vars, lead | rest, q.tower), beta))
    return KeyPolyChain(chain.ground, chain.x, tuple(entries))


def test_row_truncation_matches_multipoly_truncation():
    rng = random.Random(59)
    integral = rational = 0
    for k in range(150):
        chain = _rational_chain(rng) if k % 3 == 0 else binomial_chain(rng)
        if all(q.coeff(e).denominator == 1 for q, _ in chain.entries for e in q.terms):
            integral += 1
        else:
            rational += 1
        f = random_poly(rng, UV, max_terms=6, max_exp=11)
        for i in range(1, len(chain) + 1):
            digits, value, delta, epsilon, terms = _old_truncate(f, chain, i)
            t = truncate(f, chain, i)
            assert t.expansion.coefficients == tuple(digits)
            assert (t.value, t.delta, t.epsilon, t.terms) == (value, delta, epsilon, terms)
            assert t.expansion.reassembles(f)
    assert integral >= 90 and rational >= 40


SQRT2 = QQ.extend("t1", [QQ.from_rational(-2), QQ.zero(), QQ.one()])


def _tower_chain(rng):
    """A binomial chain over Q(sqrt 2) whose Q_i above x have their lower
    terms times sqrt 2."""
    chain = binomial_chain(rng)
    t = MultiPoly.constant(UV, SQRT2.generator("t1"), SQRT2)
    entries = [(chain.Q(1).with_tower(SQRT2), chain.beta(1))]
    for q, beta in chain.entries[1:]:
        lead = MultiPoly.monomial(UV, (0, q.degree_in("x")), 1, SQRT2)
        entries.append((lead + (q.with_tower(SQRT2) - lead) * t, beta))
    return KeyPolyChain(chain.ground, chain.x, tuple(entries))


_CHAIN_KINDS = {"integral": binomial_chain, "rational": _rational_chain, "tower": _tower_chain}


def test_reassembles_rejects_a_corrupted_digit():
    """At every level, the pure-power level Q_1 = x included, a perturbed
    digit or a perturbed f makes the check fail, on integral chains, on
    chains with non-integral Q_i and on chains over a tower."""
    rng = random.Random(61)
    seen = Counter()
    for k in range(60):
        kind = list(_CHAIN_KINDS)[k % 3]
        chain = _CHAIN_KINDS[kind](rng)
        tower = chain.Q(1).tower
        t = MultiPoly.constant(UV, tower.generator("t1") if tower.depth else 1, tower)
        f = random_poly(rng, UV, max_terms=6, max_exp=9).with_tower(tower)
        for i in range(1, len(chain) + 1):
            exp = truncate(f, chain, i).expansion
            assert exp.reassembles(f)
            coefficients = list(exp.coefficients)
            j = rng.randrange(len(coefficients))
            bump = poly(UV, {(rng.randint(0, 3), 0): Fraction(1, rng.randint(1, 4))}).with_tower(tower)
            if k % 2:
                bump = bump * t
            coefficients[j] = coefficients[j] + bump
            assert not StandardExpansion(exp.level, exp.base, tuple(coefficients)).reassembles(f)
            assert not exp.reassembles(f + bump)
            seen[kind, i] += 1
    assert set(seen) == {(kind, i) for kind in _CHAIN_KINDS for i in (1, 2, 3)}


def test_reassembles_decides_non_standard_digits():
    """A digit of x-degree deg Q_i or more is not standard, and the check
    still decides sum c_j Q_i^j = f exactly, as ``conftest.horner`` does:
    (f,) and (f - g Q_i, g) reassemble f at every level, (f, 1) and
    (f - g Q_i, g + 1) do not."""
    rng = random.Random(67)
    for k in range(30):
        chain = _rational_chain(rng) if k % 2 else binomial_chain(rng)
        f = random_poly(rng, UV, max_terms=6, max_exp=9)
        g = random_poly(rng, UV, max_terms=3, max_exp=4)
        one = MultiPoly.constant(UV, 1)
        for i in range(1, len(chain) + 1):
            q = chain.Q(i)
            cases = (
                ((f,), True),
                ((f, one), False),
                ((f - g * q, g), True),
                ((f - g * q, g + one), False),
            )
            for digits, holds in cases:
                exp = StandardExpansion(i, q, digits)
                assert (horner(exp) == f) is holds
                assert exp.reassembles(f) is holds


def test_chain_over_reordered_variables_truncates():
    """A chain whose Q_1 = x is built over ("x", "u") is valid, and its
    truncations and augmentation step run over the chain's variables
    ("u", "x"), as for the same chain built over them."""
    ground = rational_spec([1], names=("u",))
    q1 = MultiPoly.variable(("x", "u"), "x")
    q2 = poly(UV, {(0, 2): 1, (3, 0): -1})
    chain = KeyPolyChain(ground, "x", ((q1, G1.rational(Fraction(3, 2))), (q2, G1.rational(4))))
    assert validate_chain(chain) == []
    same = cusp_chain()
    f = poly(UV, {(0, 5): 1, (2, 3): -1, (7, 0): 2})
    for i in (1, 2):
        for p in (q2, f):
            t = truncate(p, chain, i)
            assert t == truncate(p, same, i)
            assert t.expansion.base.vars == UV and t.expansion.reassembles(p)
    assert truncate(q2, chain, 1).value == G1.rational(3)
    # the augmentation step of test_next_key_char0, on Q_1 built over ("x", "u")
    first = KeyPolyChain(ground, "x", ((q1, G1.rational(1)),))
    z, q_next = next_key_char0(first, poly(UV, {(0, 2): 1, (1, 1): 1, (2, 0): 1}))
    assert q_next == poly(UV, {(0, 1): 1, (1, 0): Fraction(1, 2)})


def test_a_chain_is_the_same_over_any_order_of_its_variables():
    ground = rational_spec([1], names=("u",))
    q2 = poly(UV, {(0, 2): 1, (3, 0): -1})
    betas = G1.rational(Fraction(3, 2)), G1.rational(4)
    xu = KeyPolyChain(ground, "x", ((MultiPoly.variable(("x", "u"), "x"), betas[0]), (q2, betas[1])))
    assert xu == cusp_chain() and hash(xu) == hash(cusp_chain())
    assert all(q.vars == UV for q, _ in xu.entries)


def test_a_chain_over_two_towers_is_refused_when_built():
    ground = rational_spec([1], names=("u",))
    q2 = poly(UV, {(0, 2): 1, (3, 0): -1}).with_tower(SQRT2)
    entries = ((MultiPoly.variable(UV, "x"), G1.rational(Fraction(3, 2))), (q2, G1.rational(4)))
    with pytest.raises(InvalidInputError, match="^polynomials live in different rings$"):
        KeyPolyChain(ground, "x", entries)


# -- the row recursion against the Value recursion it replaced -------------

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402  (bench/ is not a package)


def _assert_matches_value_oracle(f, chain, i):
    t = truncate(f, chain, i)
    terms, value, delta, epsilon = value_truncation(f, chain, i)
    assert (t.terms, t.value, t.delta, t.epsilon) == (terms, value, delta, epsilon)
    return t


def _pool_chain(problem):
    return chain_from_json(problem["chain"], _parse_group(problem))


def test_truncate_matches_the_value_oracle_on_the_expand_pool():
    pool = corpus.pool("expand")
    for problem in pool:
        chain = _pool_chain(problem)
        f = _poly(problem, "poly")
        _assert_matches_value_oracle(f, chain, problem.get("level", len(chain)))
    assert len(pool) == 3000


def _division_loop(f, q, x):
    """The q-adic digits of f by repeated ``euclid_divide``: each remainder
    is a digit, and the quotient is divided again until it is zero."""
    digits = []
    while True:
        f, r = euclid_divide(f, q, x)
        digits.append(r)
        if f.is_zero():
            return digits


def test_written_coefficients_are_the_division_loop_digits_on_the_expand_pool():
    """Every coefficient a ``keypoly-expand`` run writes, each zero digit
    included, is the JSON of the digit that ``q_adic_expansion`` and the
    division loop give, and a zero digit is written with no terms."""
    pool = corpus.pool("expand")
    zero = 0
    for problem in pool:
        chain = _pool_chain(problem)
        f = _poly(problem, "poly").with_vars(chain.all_vars)
        q = chain.Q(problem["level"])
        digits = q_adic_expansion(f, q, chain.x)
        assert digits == _division_loop(f, q, chain.x)
        written = run_problem(problem)["witnesses"]["coefficients"]
        assert written == [d.to_json() for d in digits]
        zero += sum(c["terms"] == [] for c in written)
    # every zero digit of the pool is at level 1, where Q_1 = x
    assert len(pool) == 3000 and zero == 12052


def test_reassembles_rejects_each_bumped_zero_digit_on_the_expand_pool():
    """At level 1 of every problem of the ``expand`` pool, where Q_1 = x
    leaves about half the digits zero, the expansion reassembles f, and
    putting a 1 in place of any one zero digit makes the check fail."""
    bumped = 0
    for problem in corpus.pool("expand"):
        if problem["level"] != 1:
            continue
        chain = _pool_chain(problem)
        f = _poly(problem, "poly").with_vars(chain.all_vars)
        exp = truncate(f, chain, 1).expansion
        assert exp.reassembles(f)
        one = MultiPoly.constant(f.vars, 1, f.tower)
        for j, c in enumerate(exp.coefficients):
            if c.is_zero():
                coefficients = list(exp.coefficients)
                coefficients[j] = one
                assert not StandardExpansion(1, exp.base, tuple(coefficients)).reassembles(f)
                bumped += 1
    assert bumped == 12052


def test_truncate_matches_the_value_oracle_on_every_chain_level():
    """Q_i at level i - 1, for every chain of the pool."""
    levels = 0
    for problem in corpus.pool("chains"):
        if "chain" not in problem:
            continue
        chain = _pool_chain(problem)
        for i in range(2, len(chain) + 1):
            _assert_matches_value_oracle(chain.Q(i), chain, i - 1)
            levels += 1
    assert levels > 2000


def test_every_valid_chain_jumps_above_the_level_below():
    """Why ``validate_chain`` has no value-jump check: on every chain that
    it accepts, the ``Value`` oracle puts the level-(i-1) value of Q_i
    below beta_i.  The chains are those of the ``chains`` pool and 1000
    random ones that validate."""
    chains = [_pool_chain(p) for p in corpus.pool("chains") if "chain" in p]
    assert len(chains) == 2008 and all(validate_chain(c) == [] for c in chains)
    rng = random.Random(73)
    drawn = valid = 0
    while valid < 1000:
        chain = random_chain(rng)
        drawn += 1
        if validate_chain(chain) == []:
            chains.append(chain)
            valid += 1
    assert drawn > 2000  # the generator also draws invalid chains
    for chain in chains:
        for i in range(2, len(chain) + 1):
            assert value_truncation(chain.Q(i), chain, i - 1)[1] < chain.beta(i)


def _planted_q2_chains():
    """The cusp chain with Q_2 replaced by a polynomial that is not monic
    in x, and by two monic ones; over Q(sqrt 2), Q_1 lies there too."""
    ground = rational_spec([1], names=("u",))

    def root2(e, c=1):
        return MultiPoly.monomial(UV, e, c, SQRT2)

    t = SQRT2.generator("t1")
    q2s = [
        poly(UV, {(0, 2): 2, (3, 0): -1}),  # leading coefficient 2
        poly(UV, {(1, 2): 1, (3, 0): -1}),  # u x^2 leading
        poly(UV, {(0, 2): 1, (1, 2): 1, (3, 0): -1}),  # two leading terms
        poly(UV, {(3, 0): 1}),  # x-free
        root2((0, 2), t) - root2((3, 0)),  # t1 x^2 leading
        poly(UV, {(0, 2): 1, (3, 0): -1}),  # monic: the cusp
        root2((0, 2)) - root2((3, 0), t),  # monic over Q(sqrt 2)
    ]
    for q2 in q2s:
        q1 = MultiPoly.variable(UV, "x", q2.tower)
        yield KeyPolyChain(ground, "x", ((q1, G1.rational(Fraction(3, 2))), (q2, G1.rational(4))))


def test_validate_chain_tags_non_monic_where_truncation_refuses():
    """One definition of monic in x: ``validate_chain`` tags Q_i exactly
    where truncation at level i refuses it, on every chain of the
    ``chains`` and ``expand`` pools and on planted Q_2s."""
    pools = corpus.pool("chains") + corpus.pool("expand")
    chains = [_pool_chain(p) for p in pools if "chain" in p] + list(_planted_q2_chains())
    refused = 0
    for chain in chains:
        issues = validate_chain(chain)
        for i in range(1, len(chain) + 1):
            try:
                truncate(chain.Q(i), chain, i)
            except NonMonicDivisorError:
                refused += 1
                assert f"non-monic:Q_{i}" in issues
            else:
                assert f"non-monic:Q_{i}" not in issues
    assert refused == 5 and len(chains) == 5015


# One reproducer per ``validate_chain`` tag that no other test reaches
# through a run: each ends a keypoly-monomialize run in the invalid-input
# verdict, in process and through the CLI.
def _chain_problem(entries) -> dict:
    """keypoly-monomialize over the ground u of weight 1; ``entries`` holds
    (terms of Q_i as {(u, x) exponent: coefficient}, beta_i literal)."""
    return {
        "algorithm": "keypoly-monomialize",
        "group": {"rank": 1},
        "chain": {
            "ground": {"vars": ["u"], "weights": [{"coords": ["1"]}]},
            "x": "x",
            "entries": [
                {
                    "Q": {"vars": ["u", "x"], "terms": [{"e": list(e), "c": c} for e, c in q.items()]},
                    "beta": {"coords": [beta]},
                }
                for q, beta in entries
            ],
        },
    }


X = {(0, 1): "1"}
CUSP = {(0, 2): "1", (3, 0): "-1"}
INVALID_CHAINS = [
    ("beta-not-positive", _chain_problem([(X, "-1"), (CUSP, "4")])),
    # Q_3 of x-degree 3 over Q_2 of x-degree 2
    (
        "degree-ratio",
        _chain_problem([(X, "1"), ({(0, 2): "1", (1, 0): "1"}, "3"), ({(0, 3): "1", (1, 0): "1"}, "5")]),
    ),
    # an x-free Q_2 has no leading coefficient in x
    ("non-monic:Q_2", _chain_problem([(X, "1"), ({(1, 0): "1"}, "2")])),
]


@pytest.mark.parametrize("tag, problem", INVALID_CHAINS)
def test_each_chain_tag_ends_in_the_invalid_input_verdict(tmp_path, tag, problem):
    assert validate_chain(_pool_chain(problem)) == [tag]
    message = f"chain invalid: {tag}"
    trace = run_problem(problem)
    assert trace["verdict"] == {"ok": False, "code": "invalid input", "message": message}
    pf, tf = tmp_path / "p.json", tmp_path / "t.json"
    pf.write_text(json.dumps(problem))
    r = subprocess.run(
        [sys.executable, "-m", "valmono.cli", "run", str(pf), "--out", str(tf)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert r.returncode == 3 and "Traceback" not in r.stderr
    assert r.stderr == f"error: {message}\n"
    assert json.loads(tf.read_text())["verdict"] == trace["verdict"]


def _independent_chain_problem(rank, a, b, beta2):
    """keypoly-monomialize on the chain x, x^a - u^b over the ground u1..u_rank
    weighted 1, sqrt 2, sqrt 3, ...: beta_1 = value(u^b) / a, and beta_2
    the given coordinates."""
    names = [f"u{k + 1}" for k in range(rank)]
    unit = [{"coords": [str(int(i == k)) for i in range(rank)]} for k in range(rank)]
    x = {"vars": names + ["x"], "terms": [{"e": [0] * rank + [1], "c": "1"}]}
    q2 = {
        "vars": names + ["x"],
        "terms": [{"e": [0] * rank + [a], "c": "1"}, {"e": list(b) + [0], "c": "-1"}],
    }
    return {
        "algorithm": "keypoly-monomialize",
        "group": {"rank": rank},
        "chain": {
            "ground": {"vars": names, "weights": unit},
            "x": "x",
            "entries": [
                {"Q": x, "beta": {"coords": [f"{e}/{a}" for e in b]}},
                {"Q": q2, "beta": {"coords": beta2}},
            ],
        },
    }


INDEPENDENT_CHAINS = [
    _independent_chain_problem(2, 2, (1, 1), ["2", "1"]),
    _independent_chain_problem(2, 3, (1, 2), ["2", "2"]),
    _independent_chain_problem(3, 2, (1, 1, 1), ["2", "1", "1"]),
    _independent_chain_problem(3, 2, (3, 1, 1), ["4", "1", "1"]),
]


def _mixed(v, w):
    """Whether v - w has coordinates of both signs, so that ``_sign``
    brackets the square roots to order them."""
    d = [x * w.den - y * v.den for x, y in zip(v.nums, w.nums)]
    return min(d) < 0 < max(d)


@pytest.mark.parametrize("problem", INDEPENDENT_CHAINS)
def test_truncations_over_independent_grounds_match_the_value_oracle(problem):
    chain = _pool_chain(problem)
    assert validate_chain(chain) == []
    rng = random.Random(67)
    refined = 0
    for _ in range(60):
        f = random_poly(rng, chain.all_vars, max_terms=6, max_exp=7)
        if f.is_zero():
            continue
        for i in (1, 2):
            t = _assert_matches_value_oracle(f, chain, i)
            refined += any(_mixed(v, w) for _, v in t.terms for _, w in t.terms)
    assert refined > 20


@pytest.mark.parametrize("problem", INDEPENDENT_CHAINS)
def test_keypoly_monomialize_over_an_independent_ground_ends_ok(tmp_path, problem):
    trace = run_problem(problem)
    assert trace["verdict"] == {"ok": True}
    verify_trace(trace)
    pf, tf = tmp_path / "p.json", tmp_path / "t.json"
    pf.write_text(json.dumps(problem))
    r = subprocess.run(
        [sys.executable, "-m", "valmono.cli", "run", str(pf), "--out", str(tf)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert r.returncode == 0, r.stderr
    out = json.loads(tf.read_text())
    assert out["verdict"] == {"ok": True}
    assert {k: out[k] for k in ("steps", "witnesses")} == {k: trace[k] for k in ("steps", "witnesses")}


# -- level-1 values over a pure power, read off the rows -------------------


def _power_chains():
    """Library chains whose Q_1 is x^2, x^3 or x + u, with levels above it.
    ``validate_chain`` tags each ``q1-not-x``; ``truncate`` takes them as
    given.  Over x^d a level-1 value is read off the rows
    (``_ChainRows.power_value``); over x + u it runs the division loop."""
    ground = rational_spec([1], names=("u",))
    x2 = [
        (poly(UV, {(0, 2): 1}), Fraction(3, 2)),
        (poly(UV, {(0, 4): 1, (3, 0): -1}), Fraction(7)),
        (poly(UV, {(0, 8): 1, (3, 4): -2, (6, 0): 1, (5, 1): 1}), Fraction(20)),
    ]
    x3 = [
        (poly(UV, {(0, 3): 1}), Fraction(5, 3)),
        (poly(UV, {(0, 6): 1, (1, 3): 1, (5, 0): -1}), Fraction(11)),
    ]
    xu = [
        (poly(UV, {(0, 1): 1, (1, 0): 1}), Fraction(1)),
        (poly(UV, {(0, 2): 1, (3, 0): -1}), Fraction(4)),
        (poly(UV, {(0, 4): 1, (2, 3): 1, (7, 0): -1}), Fraction(9)),
    ]
    return [
        KeyPolyChain(ground, "x", tuple((q, G1.rational(b)) for q, b in entries))
        for entries in (x2, x3, xu)
    ]


def _power_chain_mismatches() -> tuple[int, int]:
    """(checks, mismatches) of ``truncate`` against the ``Value`` oracle at
    every level of every ``_power_chains`` chain, on random polynomials of
    x-degree up to 12."""
    rng = random.Random(41)
    checks = mismatches = 0
    for chain in _power_chains():
        assert validate_chain(chain)[0] == "q1-not-x"
        for _ in range(60):
            f = random_poly(rng, UV, max_terms=6, max_exp=12)
            for i in range(1, len(chain) + 1):
                t = truncate(f, chain, i)
                checks += 1
                terms, value, delta, epsilon = value_truncation(f, chain, i)
                mismatches += (t.terms, t.value, t.delta, t.epsilon) != (terms, value, delta, epsilon)
    return checks, mismatches


def test_level_one_values_over_a_pure_power_match_the_value_oracle():
    assert _power_chain_mismatches() == (480, 0)


def test_level_one_values_over_a_pure_power_test_catches_k_for_k_div_d(monkeypatch):
    """The mutation self-test of the test above: row k read as digit k, not
    digit k // d, makes it fail."""
    power_value = keypoly._ChainRows.power_value
    monkeypatch.setattr(
        keypoly._ChainRows, "power_value", lambda self, c, d: power_value(self, c, 1)
    )
    checks, mismatches = _power_chain_mismatches()
    assert mismatches > 50


# -- the augmentation check fires on a planted defect ----------------------


def test_an_augmentation_off_its_expected_value_is_caught(monkeypatch):
    """``next_key_char0`` values Q_next by ``truncated_valuation``; a defect
    that puts it off beta_top trips the check before Q_next is returned."""
    ground = rational_spec([1], names=("u",))
    chain = KeyPolyChain(ground, "x", ((MultiPoly.variable(UV, "x"), G1.rational(1)),))
    f = poly(UV, {(0, 2): 1, (1, 1): 1, (2, 0): 1})  # x^2 + u x + u^2
    truncated = keypoly.truncated_valuation
    monkeypatch.setattr(
        keypoly, "truncated_valuation", lambda g, c, i: truncated(g, c, i) + G1.rational(1)
    )
    with pytest.raises(AssertionError) as err:
        next_key_char0(chain, f)
    assert type(err.value) is AssertionError
    assert str(err.value) == "augmented polynomial does not sit at the expected value"
