"""Polynomial arithmetic, Euclidean machinery, substitutions, towers."""

import copy
import json
import random
from decimal import Decimal
from fractions import Fraction
from math import comb, gcd

import pytest

from conftest import (
    poly,
    poly_power,
    random_poly,
    rational_spec,
    schoolbook_mul,
    substitute_variable,
    tower_elem,
    tuple_euclid_divide,
    tuple_q_adic_expansion,
    tuple_reassembles,
    value_truncation,
)
from valmono import keypoly, polyalg
from valmono.errors import InvalidInputError, NonMonicDivisorError, ReducibleDefinerError, SchemaError
from valmono.polyalg import (
    FieldTower,
    MultiPoly,
    QQ,
    _divide_rows,
    _expand_rows,
    _reassembles,
    _row_ops,
    euclid_divide,
    q_adic_expansion,
    taylor_shift,
)
from valmono.keypoly import KeyPolyChain, truncate
from valmono.trace import _poly
from valmono.values import ValueGroup

UV = ("u", "x")
G1 = ValueGroup(1)


def test_euclid_divide_examples():
    # f = x^2 + x + 1, g = x
    f = poly(UV, {(0, 2): 1, (0, 1): 1, (0, 0): 1})
    g = poly(UV, {(0, 1): 1})
    q, r = euclid_divide(f, g, "x")
    assert q == poly(UV, {(0, 1): 1, (0, 0): 1})
    assert r == poly(UV, {(0, 0): 1})
    # f = x^3, g = x^2 + 1 -> q = x, r = -x
    f = poly(UV, {(0, 3): 1})
    g = poly(UV, {(0, 2): 1, (0, 0): 1})
    q, r = euclid_divide(f, g, "x")
    assert q == poly(UV, {(0, 1): 1})
    assert r == poly(UV, {(0, 1): -1})
    # deg f < deg g
    f = poly(UV, {(3, 1): 5})
    g = poly(UV, {(0, 2): 1})
    q, r = euclid_divide(f, g, "x")
    assert q.is_zero() and r == f


def test_euclid_divide_non_monic():
    f = poly(UV, {(0, 2): 1})
    g = poly(UV, {(0, 1): 2})
    with pytest.raises(NonMonicDivisorError):
        euclid_divide(f, g, "x")
    g2 = poly(UV, {(1, 1): 1})  # leading coefficient u, not 1
    with pytest.raises(NonMonicDivisorError):
        euclid_divide(f, g2, "x")


def test_euclid_divide_reconstruction_randomized():
    rng = random.Random(2)
    for _ in range(200):
        f = random_poly(rng, UV, max_terms=6, max_exp=5)
        d = rng.randint(1, 3)
        g = poly(UV, {(0, d): 1}) + random_poly(rng, UV, max_terms=3, max_exp=d - 1 if d > 1 else 0)
        # force g monic in x of degree d: strip terms of x-degree >= d, re-add x^d
        g = MultiPoly.build(
            UV,
            {e: g.coeff(e) for e in g.terms if e[1] < d} | {(0, d): QQ.from_rational(1)},
        )
        q, r = euclid_divide(f, g, "x")
        assert q * g + r == f
        assert r.is_zero() or r.degree_in("x") < d


def test_q_adic_expansion_examples():
    Q = poly(UV, {(0, 2): 1, (3, 0): -1})  # x^2 - u^3
    # f = Q -> (0, 1)
    digits = q_adic_expansion(Q, Q, "x")
    assert digits == [MultiPoly(UV, {}), poly(UV, {(0, 0): 1})]
    # f = x^3 -> a_0 = u^3 x, a_1 = x
    digits = q_adic_expansion(poly(UV, {(0, 3): 1}), Q, "x")
    assert digits == [poly(UV, {(3, 1): 1}), poly(UV, {(0, 1): 1})]
    # constant f -> (f,)
    c = poly(UV, {(2, 0): 7})
    assert q_adic_expansion(c, Q, "x") == [c]


def test_q_adic_reconstruction_randomized():
    rng = random.Random(3)
    Q = poly(UV, {(0, 2): 1, (1, 0): -1, (0, 0): 2})
    for _ in range(100):
        f = random_poly(rng, UV, max_terms=6, max_exp=7)
        digits = q_adic_expansion(f, Q, "x")
        acc = MultiPoly(UV, {})
        power = poly(UV, {(0, 0): 1})
        for a in digits:
            assert a.is_zero() or a.degree_in("x") < 2
            acc = acc + a * power
            power = power * Q
        assert acc == f


def _division_loop_digits(r, d, ops):
    """The digits of ``r`` for Q = x^d by repeated long division, the loop
    that ``_expand_rows`` runs for a divisor with lower rows."""
    digits = []
    while True:
        quo = _divide_rows(r, d, {}, ops)
        digits.append(r)
        if not quo:
            return digits
        r = quo


def _seeded_rows(rng, top, fractions):
    """Rows of one x-free variable up to x-degree ``top``, top row present."""
    rows = {}
    for k in {top, *rng.sample(range(top + 1), rng.randint(0, top))}:
        rows[k] = {
            (rng.randint(0, 3),): Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
            if fractions else rng.choice([-3, -1, 2, 5])
            for _ in range(rng.randint(1, 3))
        }
    return rows


def test_pure_power_expansion_matches_the_division_loop():
    """For Q = x^d the expansion splits the rows into blocks of d, and the
    blocks are the division loop's digits: empty middle digits, one empty
    digit for no rows, a top row that is a multiple of d, Fractions."""
    ops = _row_ops(QQ)
    rng = random.Random(37)
    cases = [(d, {}) for d in range(1, 5)]
    for k in range(200):
        d = 1 + k % 4
        top = d * rng.randint(0, 3) if k % 2 else rng.randint(0, 12)
        cases.append((d, _seeded_rows(rng, top, fractions=k % 3 == 0)))
    for d, rows in cases:
        want = _division_loop_digits(copy.deepcopy(rows), d, ops)
        assert _expand_rows(copy.deepcopy(rows), d, {}, ops) == want
    assert sum(max(rows, default=0) % d == 0 for d, rows in cases) > 100
    row = {(1,): 2}
    assert _expand_rows({}, 3, {}, ops) == [{}]
    assert _expand_rows({6: row}, 3, {}, ops) == [{}, {}, {0: row}]
    assert _expand_rows({1: row, 7: {(0,): Fraction(1, 2)}}, 3, {}, ops) == [
        {1: row}, {}, {1: {(0,): Fraction(1, 2)}},
    ]


def test_q_adic_expansion_by_a_pure_power():
    rng = random.Random(41)
    for vars_ in (UV, ("x", "u")):
        x3 = MultiPoly.monomial(vars_, [3 if v == "x" else 0 for v in vars_])
        for _ in range(40):
            f = random_poly(rng, vars_, max_terms=6, max_exp=11)
            digits = q_adic_expansion(f, x3, "x")
            assert digits == _oracle_q_adic(f, x3, "x")
            assert _reassembles(f, x3, digits, "x")
    f = poly(UV, {(2, 9): 1, (0, 1): Fraction(-1, 2)})
    x3 = poly(UV, {(0, 3): 1})
    assert q_adic_expansion(f, x3, "x") == [
        poly(UV, {(0, 1): Fraction(-1, 2)}), MultiPoly(UV, {}), MultiPoly(UV, {}), poly(UV, {(2, 0): 1}),
    ]


def test_substitute_variable_examples():
    f = poly(UV, {(0, 2): 1})
    x = poly(UV, {(0, 1): 1})
    assert substitute_variable(f, "x", x) == f
    assert substitute_variable(f, "x", poly(UV, {(0, 1): 1, (0, 0): 1})) == poly(
        UV, {(0, 2): 1, (0, 1): 2, (0, 0): 1}
    )
    # f = x^2 - u^3, g = u^3 (x + 1) -> u^6 (x+1)^2 - u^3
    f = poly(UV, {(0, 2): 1, (3, 0): -1})
    g = poly(UV, {(3, 1): 1, (3, 0): 1})
    want = poly(UV, {(6, 2): 1, (6, 1): 2, (6, 0): 1, (3, 0): -1})
    assert substitute_variable(f, "x", g) == want


def test_tower_sqrt2():
    t = QQ.extend("t1", [QQ.from_rational(-2), QQ.from_rational(0), QQ.from_rational(1)])
    s = t.generator("t1")
    assert t.mul(s, s) == t.from_rational(2)
    inv = t.inv(s)
    assert t.mul(s, inv) == t.one()


def test_tower_inversion_randomized():
    rng = random.Random(6)
    t = QQ.extend("t1", [QQ.from_rational(-2), QQ.from_rational(0), QQ.from_rational(1)])
    t = t.extend("t2", [t.neg(t.generator("t1")), t.zero(), t.one()])  # t2^2 = sqrt 2
    for _ in range(50):
        e = tower_elem(
            [
                [str(rng.randint(-4, 4)), str(rng.randint(-4, 4))],
                [str(rng.randint(-4, 4)), str(rng.randint(-4, 4))],
            ]
        )
        if t.is_zero(e):
            continue
        assert t.mul(e, t.inv(e)) == t.one()


def test_tower_reducible_definer_detected():
    # X^2 - 1 is reducible; inverting theta - 1 must fail with the factor
    t = QQ.extend("t1", [QQ.from_rational(-1), QQ.from_rational(0), QQ.from_rational(1)])
    bad = t.add(t.generator("t1"), t.neg(t.one()))
    with pytest.raises(ReducibleDefinerError):
        t.inv(bad)


def test_tower_json_round_trip():
    t = QQ.extend("t1", [QQ.from_rational(-2), QQ.from_rational(0), QQ.from_rational(1)])
    e = t.generator("t1")
    assert tower_elem(t.elem_to_json(e)) == e


def test_poly_json_round_trip():
    # trace is the one reader of polynomial JSON
    f = poly(UV, {(0, 2): Fraction(3, 2), (3, 0): -1})
    assert _poly({"f": f.to_json()}, "f") == f


# -- differential tests of the x-dense division kernel ----------------------


def _oracle_coefficient_in(f, x, degree):
    """The coefficient of x**degree in f, with that exponent zeroed."""
    xi = f.var_index(x)
    out = {e[:xi] + (0,) + e[xi + 1:]: c for e, c in f.terms.items() if e[xi] == degree}
    return MultiPoly(f.vars, out, f.tower, f.den)


def _oracle_euclid_divide(f, g, x):
    """The term-by-term MultiPoly loop the division kernel replaced."""
    d = g.degree_in(x)
    xi = f.var_index(x)
    q = MultiPoly(f.vars, {}, f.tower)
    r = f
    while not r.is_zero() and r.degree_in(x) >= d:
        e = r.degree_in(x)
        c = _oracle_coefficient_in(r, x, e)
        shift = tuple(e - d if i == xi else 0 for i in range(len(f.vars)))
        t = c * MultiPoly.monomial(f.vars, shift, 1, f.tower)
        q = q + t
        r = r - t * g
    return q, r


def _oracle_q_adic(f, Q, x):
    digits = []
    cur = f
    while True:
        cur, r = _oracle_euclid_divide(cur, Q, x)
        digits.append(r)
        if cur.is_zero():
            break
    return digits


SQRT2 = QQ.extend("t1", [QQ.from_rational(-2), QQ.zero(), QQ.one()])
CBRT2 = QQ.extend("t1", [QQ.from_rational(-2), QQ.zero(), QQ.zero(), QQ.one()])
TOWERS = [QQ, SQRT2, CBRT2]


def _random_elem(rng, tower):
    def build(level):
        if level == 0:
            return str(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        return [build(level - 1) for _ in range(tower.degree_at(level))]

    e = tower_elem(build(tower.depth))
    return tower.one() if tower.is_zero(e) else e


def _random_tower_poly(rng, vars_, tower, x_degree, max_terms):
    xi = vars_.index("x")
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [rng.randint(0, 3) for _ in vars_]
        e[xi] = rng.randint(0, x_degree)
        terms[tuple(e)] = _random_elem(rng, tower)
    return MultiPoly.build(vars_, terms, tower)


def _random_monic(rng, vars_, tower, d):
    xi = vars_.index("x")
    lead = tuple(d if i == xi else 0 for i in range(len(vars_)))
    low = _random_tower_poly(rng, vars_, tower, d - 1, 4)
    return MultiPoly(vars_, {e: low.coeff(e) for e in low.terms} | {lead: tower.one()}, tower)


def _division_cases():
    """(f, g) pairs over every tower, with the edge cases spelled out."""
    rng = random.Random(31)
    cases = []
    for k in range(300):
        tower = TOWERS[k % len(TOWERS)]
        vars_ = UV if k % 3 else ("u", "x", "v")  # x in the middle too
        d = 1 + k % 3
        g = _random_monic(rng, vars_, tower, d)
        f = _random_tower_poly(rng, vars_, tower, rng.randint(0, 8), 6)
        cases.append((f, g))
    for tower in TOWERS:
        x = MultiPoly.variable(UV, "x", tower)
        u = MultiPoly.variable(UV, "u", tower)
        one = MultiPoly.constant(UV, 1, tower)
        theta = MultiPoly.constant(UV, tower.generator("t1") if tower.depth else 3, tower)
        cases += [
            (MultiPoly(UV, {}, tower), x * x + u),  # f = 0
            (u * x + theta, x * x * x + u),  # deg_x f < deg_x g
            (poly_power(x, 7) + u * poly_power(x, 2) + theta, x + u * theta),  # deg_x g = 1
            # quotient rows 2 and 1 are empty in f and filled by the loop
            (poly_power(x, 5) + theta, x * x + u * x + one),
            (poly_power(x, 6), poly_power(x, 3) + theta * u * poly_power(x, 2) + u * u),
        ]
    # an integral divisor clears the dividend to integer rows over one
    # denominator; a non-integral one keeps Fraction rows
    mixed = poly(UV, {(0, 7): Fraction(1, 2), (1, 4): Fraction(-2, 3), (3, 1): Fraction(5, 7), (2, 0): Fraction(1, 6)})
    third = poly(UV, {(0, 2): 1, (1, 0): Fraction(1, 3)})  # x^2 + u/3
    cases += [
        (mixed, third),
        (poly(UV, {(0, 5): 1, (1, 2): 2, (4, 0): -3}), third),
        (mixed, poly(UV, {(0, 3): 1, (2, 1): Fraction(-3, 4), (1, 0): Fraction(5, 2)})),
        (mixed, poly(UV, {(0, 2): 1, (1, 1): -2, (0, 0): 3})),
        (poly(UV, {(0, 6): Fraction(-7, 9), (5, 2): Fraction(3, 8)}), poly(UV, {(0, 1): 1, (2, 0): -5})),
    ]
    # depth 1 with rational coordinates: (1/2 + t/3) x^5 - (5/4) t u x + 3/7
    # divided by x^2 + (t/2) u and by x - 2/5 t
    elem = tower_elem
    xs, us = MultiPoly.variable(UV, "x", SQRT2), MultiPoly.variable(UV, "u", SQRT2)
    f = (
        poly_power(xs, 5) * MultiPoly.constant(UV, elem(["1/2", "1/3"]), SQRT2)
        + us * xs * MultiPoly.constant(UV, elem(["0", "-5/4"]), SQRT2)
        + MultiPoly.constant(UV, Fraction(3, 7), SQRT2)
    )
    cases += [
        (f, xs * xs + us * MultiPoly.constant(UV, elem(["0", "1/2"]), SQRT2)),
        (f, xs + MultiPoly.constant(UV, elem(["0", "-2/5"]), SQRT2)),
    ]
    # t^2 - 1 is reducible: (t + 1)(t - 1) = 0 must leave no zero coefficient
    red = QQ.extend("t1", [QQ.from_rational(-1), QQ.zero(), QQ.one()])
    t = MultiPoly.constant(UV, red.generator("t1"), red)
    x = MultiPoly.variable(UV, "x", red)
    one = MultiPoly.constant(UV, 1, red)
    cases.append(((t + one) * poly_power(x, 3), x * x + (t - one) * x))
    return cases


def test_division_kernel_matches_term_loop():
    cases = _division_cases()
    assert len(cases) >= 300
    for f, g in cases:
        assert euclid_divide(f, g, "x") == _oracle_euclid_divide(f, g, "x")
        digits = q_adic_expansion(f, g, "x")
        assert digits == _oracle_q_adic(f, g, "x")
        assert _reassembles(f, g, digits, "x")


def test_division_kernel_does_not_mutate_inputs():
    f = poly(UV, {(0, 5): 1, (2, 0): 3})
    g = poly(UV, {(0, 2): 1, (1, 1): 1, (0, 0): 1})
    before = (dict(f.terms), dict(g.terms))
    euclid_divide(f, g, "x")
    q_adic_expansion(f, g, "x")
    assert (dict(f.terms), dict(g.terms)) == before


def test_q_adic_digits_match_sympy():
    sympy = pytest.importorskip("sympy")
    u, x = sympy.symbols("u x")

    def to_sympy(p):
        expr = sum(
            sympy.Rational(c.numerator, c.denominator) * u ** e[0] * x ** e[1]
            for e, c in zip(p.terms, map(p.coeff, p.terms))
        )
        return sympy.Poly(expr, x, domain="QQ[u]")

    rng = random.Random(37)
    for _ in range(60):
        d = rng.randint(1, 3)
        Q = _random_monic(rng, UV, QQ, d)
        f = random_poly(rng, UV, max_terms=6, max_exp=9)
        cur = to_sympy(f)
        want = []
        while True:
            cur, r = sympy.div(cur, to_sympy(Q))
            want.append(r)
            if cur.is_zero:
                break
        assert [to_sympy(a) for a in q_adic_expansion(f, Q, "x")] == want


# -- Taylor shift against generic substitution --------------------------------

# QQ(sqrt 2)(2^(1/4)): t2^2 = t1 over the sqrt-2 level
FOURTH2 = SQRT2.extend("t2", [SQRT2.neg(SQRT2.generator("t1")), SQRT2.zero(), SQRT2.one()])
# non-integral definers, which keep the shift on Fraction coordinates:
# t1^2 = 1/2, and t2^2 = t1/2 over the sqrt-2 level
HALF = QQ.extend("t1", [QQ.from_rational(Fraction(-1, 2)), QQ.zero(), QQ.one()])
HALF_FOURTH2 = SQRT2.extend("t2", [tower_elem(["0", "-1/2"]), SQRT2.zero(), SQRT2.one()])
# reducible t1^2 = 1: (t1 - 1)(t1 + 1) = 0
RED = QQ.extend("t1", [QQ.from_rational(-1), QQ.zero(), QQ.one()])


def _taylor_shift_edge_cases() -> list:
    """(f, theta) pairs: rational theta at depths 0 to 2, mixed denominators
    in f, sums that cancel, x-degree 20, and products of zero divisors under
    t1^2 = 1."""

    def q(tower, c):
        return MultiPoly.constant(UV, c, tower)

    cases = []
    for tower in (QQ, SQRT2, HALF, RED):
        x = MultiPoly.variable(UV, "x", tower)
        u = MultiPoly.variable(UV, "u", tower)
        mixed = q(tower, Fraction(1, 2)) * poly_power(x, 3) + q(tower, Fraction(-2, 3)) * u * x + q(tower, Fraction(5, 7))
        thetas = [tower.from_rational(Fraction(3, 4))]
        if tower.depth:
            thetas.append(tower_elem(["1/2", "-2/3"]))
        for theta in thetas:
            cases += [
                (mixed, theta),
                (poly_power(x - q(tower, theta), 5) + u, theta),  # every lower term cancels
                (poly_power(x, 20) + q(tower, Fraction(1, 3)) * u * poly_power(x, 13) + q(tower, -4) * poly_power(u, 2) * poly_power(x, 7) + u, theta),
            ]
    for tower in (FOURTH2, HALF_FOURTH2):
        x = MultiPoly.variable(UV, "x", tower)
        u = MultiPoly.variable(UV, "u", tower)
        theta = tower_elem([["1/3", "2"], ["0", "-1/2"]])
        cases += [
            (poly_power(x, 5) + q(tower, Fraction(3, 5)) * u * poly_power(x, 2) + q(tower, Fraction(-1, 6)), theta),
            (poly_power(x, 12) + u * poly_power(x, 11) + q(tower, tower.generator("t2")) * poly_power(x, 4), tower.generator("t2")),
        ]
    t = RED.generator("t1")
    one = RED.one()
    plus, minus = RED.add(t, one), RED.add(t, RED.neg(one))  # plus * minus = 0
    x = MultiPoly.variable(UV, "x", RED)
    u = MultiPoly.variable(UV, "u", RED)
    cases += [
        (q(RED, plus) * poly_power(x, 3) + q(RED, minus) * u * x + q(RED, plus) * u, minus),
        (q(RED, plus) * (poly_power(x, 4) + u * poly_power(x, 2)) + q(RED, minus) * poly_power(x, 3), minus),
        (q(RED, minus) * poly_power(x, 6) + q(RED, plus) * poly_power(x, 5) + u, tower_elem(["1/2", "-1/2"])),
    ]
    return cases


def test_taylor_shift_matches_substitution():
    rng = random.Random(41)
    towers = TOWERS + [FOURTH2, HALF, HALF_FOURTH2, RED]
    cases = []
    for k in range(40 * len(towers)):  # 40 random cases per tower
        tower = towers[k % len(towers)]
        vars_ = UV if k % 2 else ("u", "x", "v")
        f = _random_tower_poly(rng, vars_, tower, rng.randint(0, 7), 6)
        cases.append((f, _random_elem(rng, tower)))
    for tower in towers:
        theta = tower.generator(tower.extensions[-1][0]) if tower.depth else tower.from_rational(3)
        x = MultiPoly.variable(UV, "x", tower)
        u = MultiPoly.variable(UV, "u", tower)
        cases += [
            (MultiPoly(UV, {}, tower), theta),  # zero polynomial
            (u * u + MultiPoly.constant(UV, 2, tower), theta),  # x^0 only
            (poly_power(x, 6) + u * x, tower.zero()),  # theta = 0
            (poly_power(x, 5) + u * poly_power(x, 2) + u, theta),
        ]
    cases += _taylor_shift_edge_cases()
    for tower in towers:
        # x^2 - theta^2 + x, in that term order: the constant cancels the
        # first term's x^0 image, and the last term's x^0 image adds it
        # back at the end
        theta = _random_elem(rng, tower)
        minus_square = tower.neg(tower.mul(theta, theta))
        for rest in ((0,), (2,)):
            at = {k: rest + (k,) for k in range(3)}
            f = MultiPoly.build(UV, [(at[2], tower.one()), (at[0], minus_square), (at[1], tower.one())], tower)
            assert list(f.terms) == [at[2], at[0], at[1]]
            assert list(taylor_shift(f, "x", theta).terms) == [at[1], at[2], at[0]]
            cases.append((f, theta))
    for f, theta in cases:
        tower = f.tower
        g = MultiPoly.constant(f.vars, theta, tower) + MultiPoly.variable(f.vars, "x", tower)
        want = substitute_variable(f, "x", g)
        got = taylor_shift(f, "x", theta)
        assert got == want
        # traces depend on term order: the shift keeps substitution's order
        assert list(got.terms) == list(want.terms)
        assert got.to_json() == want.to_json()  # Fraction coordinates throughout


# -- the level-1 tower product against the schoolbook oracle ------------------

# one-level towers of degree 1 to 3, integral, non-integral and reducible,
# and two-level towers whose products recurse onto level 1
PRODUCT_TOWERS = {
    "degree-1": QQ.extend("t1", [QQ.from_rational(Fraction(-3, 2)), QQ.one()]),
    "SQRT2": SQRT2,
    "CBRT2": CBRT2,
    "cubic": QQ.extend("t1", [QQ.from_rational(5), QQ.from_rational(-1), QQ.from_rational(3), QQ.one()]),
    "HALF": HALF,
    "RED": RED,
    "FOURTH2": FOURTH2,
    "HALF_FOURTH2": HALF_FOURTH2,
    "RED_HALF": RED.extend("t2", [tower_elem(["1/3", "-1"]), tower_elem(["0", "1/2"]), RED.one()]),
}


def _random_coords(rng, tower, level, kind):
    """A random element of ``tower`` at ``level``: int, Fraction or mixed
    coordinates, each zero with probability 1/4."""
    if level == 0:
        n = rng.choice((0, rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)))
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return n
        return Fraction(n, rng.randint(1, 4))
    return tuple(_random_coords(rng, tower, level - 1, kind) for _ in range(tower.degree_at(level)))


@pytest.mark.parametrize("name", PRODUCT_TOWERS)
def test_tower_product_matches_the_schoolbook_oracle(name):
    tower = PRODUCT_TOWERS[name]
    rng = random.Random(f"product:{name}")
    t = tower.generator(tower.extensions[-1][0])
    pairs = [(t, t), (tower.zero(), t), (tower.one(), t)]
    for kind in ("int", "Fraction", "mixed"):
        for _ in range(60):
            pairs.append(tuple(_random_coords(rng, tower, tower.depth, kind) for _ in "ab"))
    for a, b in pairs:
        got, want = tower.mul(a, b), schoolbook_mul(tower, a, b)
        assert isinstance(got, tuple) and got == want
        # level 1 of a two-level tower, through the same entry point
        if tower.depth == 2:
            assert tower._mul(a[0], b[0], 1) == schoolbook_mul(tower, a[0], b[0], 1)


def test_a_reducible_definer_gives_zero_products():
    t = RED.generator("t1")
    plus, minus = RED.add(t, RED.one()), RED.add(t, RED.neg(RED.one()))
    assert RED.mul(plus, minus) == schoolbook_mul(RED, plus, minus) == (0, 0)


# -- exact inputs for the constructors ----------------------------------------


@pytest.mark.parametrize("bad", [0.1, 1.0, float("nan"), True, False, None, 1j, Decimal("0.5")])
def test_inexact_coefficients_are_rejected(bad):
    with pytest.raises(InvalidInputError):
        MultiPoly.constant(["x"], bad)
    with pytest.raises(InvalidInputError):
        MultiPoly.monomial(UV, (1, 2), bad)
    with pytest.raises(InvalidInputError):
        poly(UV, {(0, 1): 1}).scale(bad)
    with pytest.raises(InvalidInputError):
        QQ.from_rational(bad)
    with pytest.raises(InvalidInputError):
        SQRT2.from_rational(bad)
    with pytest.raises(InvalidInputError):  # a coordinate of a tower element
        MultiPoly.constant(UV, (Fraction(1), bad), SQRT2)


@pytest.mark.parametrize("literal", ["1e3", " 7 ", "0.5", "1/0", "+1", "1/-2", ""])
def test_coefficient_strings_follow_the_literal_grammar(literal):
    with pytest.raises(SchemaError, match="bad rational"):
        MultiPoly.constant(["x"], literal)
    with pytest.raises(SchemaError, match="bad rational"):
        MultiPoly.monomial(UV, (0, 1), literal)
    with pytest.raises(SchemaError, match="bad rational"):
        poly(UV, {(0, 1): 1}).scale(literal)
    with pytest.raises(SchemaError, match="bad rational"):
        QQ.from_rational(literal)


def test_exact_coefficients_are_accepted():
    third = MultiPoly.constant(["x"], "2/6")
    assert third == MultiPoly.constant(["x"], Fraction(1, 3))
    assert (third.terms, third.den) == ({(0,): 1}, 3)
    assert third.coeff((0,)) == Fraction(1, 3) and third.coeff((1,)) == 0
    assert MultiPoly.monomial(UV, (2, 1), "-10/4") == poly(UV, {(2, 1): Fraction(-5, 2)})
    assert poly(UV, {(0, 1): 2}).scale("1/4") == poly(UV, {(0, 1): Fraction(1, 2)})
    assert poly(UV, {(0, 1): 2}).scale(0).is_zero()
    assert QQ.from_rational("-10/2") == -5
    assert SQRT2.from_rational(Fraction(1, 2)) == (Fraction(1, 2), 0)
    half_t = MultiPoly.constant(UV, ("0", "1/2"), SQRT2)
    assert half_t.coeff((0, 0)) == (0, Fraction(1, 2)) and half_t.den == 2


# -- the integer representation against a Fraction oracle --------------------
#
# The oracle holds a polynomial as it was held before integer coordinates:
# a dict of exponents to rational tower elements, with tower algebra on
# Fractions.

PROPERTY_TOWERS = [QQ, SQRT2, FOURTH2, HALF, HALF_FOURTH2, RED]
WIDER = {QQ: SQRT2, SQRT2: FOURTH2, HALF: HALF}


def _o_add(tw, a, b):
    out = dict(a)
    for e, c in b.items():
        s = tw.add(out[e], c) if e in out else c
        if tw.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _o_neg(tw, a):
    return {e: tw.neg(c) for e, c in a.items()}


def _o_mul(tw, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = _o_add(tw, out, {tuple(x + y for x, y in zip(e1, e2)): tw.mul(c1, c2)})
    return out


def _o_one(tw, n):
    return {(0,) * n: tw.one()}


def _o_divmod(tw, f, g, xi):
    d = max(e[xi] for e in g)
    q, r = {}, dict(f)
    while r and max(e[xi] for e in r) >= d:
        k = max(e[xi] for e in r)
        lead = {e[:xi] + (k - d,) + e[xi + 1:]: c for e, c in r.items() if e[xi] == k}
        q = _o_add(tw, q, lead)
        r = _o_add(tw, r, _o_neg(tw, _o_mul(tw, lead, g)))
    return q, r


def _o_shift(tw, f, xi, theta):
    out = {}
    for e, c in f.items():
        power = tw.one()
        for i in range(e[xi], -1, -1):  # power = theta^(k - i)
            term = tw.mul(c, tw.mul(tw.from_rational(comb(e[xi], i)), power))
            out = _o_add(tw, out, {e[:xi] + (i,) + e[xi + 1:]: term})
            power = tw.mul(power, theta)
    return out


def _o_json(vars_, terms):
    def elem(c):
        return [elem(x) for x in c] if isinstance(c, tuple) else str(Fraction(c))

    order = sorted(terms, key=lambda e: (sum(e), e))
    return json.dumps({"vars": list(vars_), "terms": [{"e": list(e), "c": elem(terms[e])} for e in order]})


def _coordinates(c):
    return [n for x in c for n in _coordinates(x)] if isinstance(c, tuple) else [c]


def _same(p, terms):
    """p holds exactly the oracle's terms, in lowest terms, and writes the
    oracle's JSON bytes."""
    assert {e: p.coeff(e) for e in p.terms} == terms
    coords = [n for c in p.terms.values() for n in _coordinates(c)]
    assert p.den > 0 and all(type(n) is int for n in coords)
    assert gcd(p.den, *coords) == 1
    assert not any(p.tower.is_zero(c) for c in p.terms.values())
    assert json.dumps(p.to_json()) == _o_json(p.vars, terms)


def _random_terms(rng, vars_, tower, x_degree, max_terms):
    xi = vars_.index("x")
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [rng.randint(0, 2) for _ in vars_]
        e[xi] = rng.randint(0, x_degree)
        terms[tuple(e)] = _random_elem(rng, tower)
    return terms


def test_with_tower_keeps_the_coordinates_reduced():
    """Embedding in a taller tower only adds zero coordinates: the result
    is what the reducing constructor makes of them, ``den`` included."""
    rng = random.Random(26)
    for tw in PROPERTY_TOWERS:
        top = WIDER.get(tw, tw)
        for _ in range(10):
            f = MultiPoly.build(UV, _random_terms(rng, UV, tw, rng.randint(0, 4), 4), tw)
            g = f.with_tower(top)
            again = MultiPoly(g.vars, dict(g.terms), top, g.den)
            assert g == again and g.den == again.den == f.den


def _embedded(c, tower, level):
    """c, an element at ``level``, embedded in ``tower`` by hand."""
    for lv in range(level + 1, tower.depth + 1):
        below = FieldTower(tower.extensions[: lv - 1])
        c = (c,) + (below.zero(),) * (tower.degree_at(lv) - 1)
    return c


def test_integer_representation_matches_fraction_oracle():
    rng = random.Random(83)
    for k in range(20 * len(PROPERTY_TOWERS)):
        tw = PROPERTY_TOWERS[k % len(PROPERTY_TOWERS)]
        vars_ = UV if k % 2 else ("u", "x", "v")
        n, xi = len(vars_), vars_.index("x")
        ft, gt = (_random_terms(rng, vars_, tw, rng.randint(0, 4), 4) for _ in range(2))
        f, g = MultiPoly.build(vars_, ft, tw), MultiPoly.build(vars_, gt, tw)
        _same(f, ft)
        _same(f + g, _o_add(tw, ft, gt))
        _same(f - g, _o_add(tw, ft, _o_neg(tw, gt)))
        _same(f * g, _o_mul(tw, ft, gt))
        power = _o_one(tw, n)
        for m in range(4):
            _same(poly_power(f, m), power)
            power = _o_mul(tw, power, ft)
        c = _random_elem(rng, tw)
        _same(f.scale(c), _o_mul(tw, ft, {(0,) * n: c}))
        _same(f.scale(Fraction(-3, 4)), _o_mul(tw, ft, {(0,) * n: tw.from_rational(Fraction(-3, 4))}))
        wider = vars_[::-1] + ("w",)
        _same(f.with_vars(wider), {tuple(e[vars_.index(v)] if v in vars_ else 0 for v in wider): c for e, c in ft.items()})
        top = WIDER.get(tw, tw)
        _same(f.with_tower(top), {e: _embedded(c, top, tw.depth) for e, c in ft.items()})
        # a divisor monic in x, and the kernels on it
        d = 1 + k % 3
        mt = _random_terms(rng, vars_, tw, d - 1, 3)
        mt[tuple(d if i == xi else 0 for i in range(n))] = tw.one()
        monic = MultiPoly.build(vars_, mt, tw)
        q, r = euclid_divide(f, monic, "x")
        oq, orr = _o_divmod(tw, ft, mt, xi)
        _same(q, oq)
        _same(r, orr)
        digits = q_adic_expansion(f, monic, "x")
        want, rest = [], ft
        while True:
            rest, digit = _o_divmod(tw, rest, mt, xi)
            want.append(digit)
            if not rest:
                break
        assert len(digits) == len(want)
        for got, digit in zip(digits, want):
            _same(got, digit)
        assert _reassembles(f, monic, digits, "x")
        j = rng.randrange(len(digits))
        bumped = digits[:j] + [digits[j] + MultiPoly.constant(vars_, Fraction(1, 3), tw)] + digits[j + 1:]
        assert not _reassembles(f, monic, bumped, "x")
        theta = _random_elem(rng, tw)
        _same(taylor_shift(f, "x", theta), _o_shift(tw, ft, xi, theta))


def _times_by(c, k):
    return tuple(_times_by(x, k) for x in c) if isinstance(c, tuple) else c * k


def test_polynomials_built_along_different_paths_are_equal():
    rng = random.Random(89)
    for k in range(60):
        tw = PROPERTY_TOWERS[k % len(PROPERTY_TOWERS)]
        ft, gt = (_random_terms(rng, UV, tw, 3, 4) for _ in range(2))
        f, g = MultiPoly.build(UV, ft, tw), MultiPoly.build(UV, gt, tw)
        one = MultiPoly.constant(UV, 1, tw)
        x = MultiPoly.variable(UV, "x", tw)
        others = [
            (f + g) - g,
            f * one,
            f.scale(6).scale(Fraction(1, 6)),
            MultiPoly(UV, {e: _times_by(c, 6) for e, c in f.terms.items()}, tw, 6 * f.den),
            MultiPoly(UV, {e: f.coeff(e) for e in f.terms}, tw),
            taylor_shift(taylor_shift(f, "x", tw.one()), "x", tw.neg(tw.one())),
            substitute_variable(f, "x", x),
        ]
        if not tw.depth:
            others.append(_poly({"f": f.to_json()}, "f"))
        for other in others:
            assert other == f and hash(other) == hash(f)
            assert (other.terms, other.den) == (f.terms, f.den)
        # another type is unequal, never an error
        for other in (None, f.terms, (f.vars, f.terms, f.tower, f.den), tw):
            assert (f == other) is False and f != other
    # unreduced integer coordinates over a denominator other than 1, either sign
    half = MultiPoly(UV, {(1, 0): 1, (0, 2): -3}, QQ, 2)
    for k in (3, -3, 10, -1):
        other = MultiPoly(UV, {(1, 0): k, (0, 2): -3 * k}, QQ, 2 * k)
        assert other == half and hash(other) == hash(half) and other.den == 2
    # a tower equals and hashes as the same tower with Fraction definer
    # coordinates, and holds those coordinates as ints
    for tw in PROPERTY_TOWERS:
        fractions = FieldTower(
            tuple((s, tuple(_times_by(c, Fraction(1)) for c in mp)) for s, mp in tw.extensions)
        )
        assert fractions == tw and hash(fractions) == hash(tw) and repr(fractions) == repr(tw)
        assert (tw == None) is False and tw != tw.extensions


# -- the packed row kernel against the tuple-keyed one ----------------------


def _full_exponents(p: MultiPoly) -> bool:
    """Whether every exponent of p is a tuple of ints, one per variable."""
    n = len(p.vars)
    return all(type(e) is tuple and len(e) == n and all(type(v) is int for v in e) for e in p.terms)


def _packed_case(rng, m: int, lower: int = 3, top: int = 3) -> tuple:
    """(f, [Q_1, ...], chain) over m ground variables, x at a random place:
    f of x-degree up to 9, and one to three Q_i monic in x of x-degree 1,
    2, 4 with integer coefficients whose lower rows have fields up to
    ``lower``, in a chain of rank-1 ground weights and betas."""
    ground = tuple(f"u{i}" for i in range(1, m + 1))
    vars_ = list(ground)
    vars_.insert(rng.randint(0, m), "x")
    xi = vars_.index("x")

    def mono(k, most):
        e = [rng.randint(0, most) for _ in vars_]
        e[xi] = k
        return tuple(e)

    f = {mono(rng.randint(0, 9), top): Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
         for _ in range(rng.randint(1, 6))}
    qs = []
    for d in (1, 2, 4)[: rng.randint(1, 3)]:
        low = {mono(rng.randint(0, d - 1), lower): rng.choice([-2, -1, 1, 3]) for _ in range(rng.randint(1, 3))}
        qs.append(poly(vars_, {**low, mono(d, 0): 1}))
    f = poly(vars_, f)
    return f, qs, _chain_of(ground, qs, rng)


def _chain_of(ground, qs, rng=None) -> KeyPolyChain:
    rng = rng or random.Random(0)
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in ground]
    betas = [Fraction(3 * i + rng.randint(0, 2), rng.randint(1, 3)) for i in range(1, len(qs) + 1)]
    entries = [(q, G1.rational(b)) for q, b in zip(qs, betas)]
    return KeyPolyChain(rational_spec(weights, ground), "x", entries)


def _exact_bound_cases() -> list[tuple]:
    """Cases whose remainder or level-1 digit 0 has a field of exactly
    F + D L, the bound ``polyalg._radix`` proves for f = u^F x^D and a
    divisor x - u^L: u1 with a free u2 above it, and u2 between u1 and
    the free u3."""
    cases = []
    for ground, u in ((("u1", "u2"), "u1"), (("u1", "u2", "u3"), "u2")):
        vars_ = ground + ("x",)

        def mono(k, d):  # u^k x^d
            return tuple(k if v == u else d if v == "x" else 0 for v in vars_)

        f = poly(vars_, {mono(7, 5): 1})
        q = poly(vars_, {mono(0, 1): 1, mono(3, 0): -1})
        cases.append((f, [q], _chain_of(ground, [q])))
    return cases


def _packed_cases() -> list[tuple]:
    """Seeded cases over 1-3 ground variables, then one with a lower field
    above 2^64 for each, then the exact-bound ones (last)."""
    rng = random.Random(97)
    cases = [_packed_case(rng, 1 + k % 3) for k in range(90)]
    cases += [_packed_case(rng, m, lower=2**64 + 5, top=2**64 + 9) for m in (1, 2, 3)]
    return cases + _exact_bound_cases()


def _packed_mismatches(cases) -> tuple[int, list[int]]:
    """(checks, indices of the cases where it differs): ``euclid_divide``,
    ``q_adic_expansion`` and ``reassembles`` (on the digits, and on one
    digit bumped) by each Q_i, and ``truncate`` at each level, against the
    tuple-keyed kernel and the ``Value`` oracle of ``tests/conftest.py``.
    Every polynomial returned has full-length tuple exponents."""
    checks, bad = 0, []
    for k, (f, qs, chain) in enumerate(cases):
        got, want = [], []
        for q in qs:
            digits = q_adic_expansion(f, q, "x")
            bump = MultiPoly.monomial(f.vars, [1] * len(f.vars))
            bumped = [digits[0] + bump, *digits[1:]]
            got += [
                euclid_divide(f, q, "x"),
                digits,
                _reassembles(f, q, digits, "x"),
                _reassembles(f, q, bumped, "x"),
            ]
            want += [
                tuple_euclid_divide(f, q, "x"),
                tuple_q_adic_expansion(f, q, "x"),
                tuple_reassembles(f, q, digits, "x"),
                tuple_reassembles(f, q, bumped, "x"),
            ]
            assert all(map(_full_exponents, [*got[-4], *digits]))
        g = f.with_vars(chain.all_vars)
        for i in range(1, len(chain) + 1):
            t = truncate(f, chain, i)
            got.append((t.expansion.coefficients, t.terms, t.value, t.delta, t.epsilon))
            coefficients = tuple(tuple_q_adic_expansion(g, chain.Q(i), "x"))
            want.append((coefficients, *value_truncation(f, chain, i)))
            assert all(map(_full_exponents, t.expansion.coefficients))
        checks += len(got)
        if got != want:
            bad.append(k)
    return checks, bad


def test_the_packed_kernel_matches_the_tuple_kernel():
    cases = _packed_cases()
    assert {len(f.vars) - 1 for f, _, _ in cases} == {1, 2, 3}
    assert _packed_mismatches(cases) == (910, [])
    # each exact-bound case packs with a radix one above its largest field
    for f, (q,), _ in _exact_bound_cases():
        xi = f.vars.index("x")
        _, r = euclid_divide(f, q, "x")
        (e,) = r.terms
        assert polyalg._radix([f], [q], xi, f.degree_in("x")) == max(e) + 1 == 23


def test_the_packed_sweep_fails_with_a_radix_one_below_the_bound(monkeypatch):
    """The mutation self-test of the sweep above: a radix one below the
    proven bound carries a field into the next one, and each exact-bound
    case then differs from the tuple kernel."""
    radix = polyalg._radix

    def below(*args):
        r = radix(*args)
        return None if r is None else r - 1

    monkeypatch.setattr(polyalg, "_radix", below)
    monkeypatch.setattr(keypoly, "_radix", below)
    cases = _packed_cases()
    _, bad = _packed_mismatches(cases)
    assert {len(cases) - 2, len(cases) - 1} <= set(bad)
