"""Value-group arithmetic, ordering, and lattice membership."""

import operator
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt

import pytest

from conftest import numeric_value, old_solve
from valmono import values
from valmono.errors import (
    QUOTE_LIMIT,
    DegenerateBasisError,
    GroupMismatchError,
    InvalidInputError,
    NotInDivisibleHullError,
    SchemaError,
    quote,
)
from valmono.values import (
    SQRT_PRIMES,
    Value,
    ValueGroup,
    compare,
    min_integer_multiple_in_lattice,
    rational_from_str,
    value_of_exponent,
)
from valmono.trace import _parse_group, _value


def test_compare_spec_examples():
    g = ValueGroup(2)
    # 1 < sqrt(2)
    assert compare(g.value([1, 0]), g.value([0, 1])) == -1
    assert compare(g.value([0, 0]), g.value([0, 0])) == 0
    # 2 > sqrt(2)
    assert compare(g.value([2, 0]), g.value([0, 1])) == 1


def test_compare_matches_numeric_oracle():
    from decimal import Decimal

    rng = random.Random(11)
    for _ in range(300):
        r = rng.randint(1, 5)
        g = ValueGroup(r)
        a = g.value([Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(r)])
        b = g.value([Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(r)])
        got = compare(a, b)
        if a.coords == b.coords:
            assert got == 0
        else:
            diff = numeric_value(a) - numeric_value(b)
            assert abs(diff) > Decimal(10) ** -40, (a, b)
            assert got == (1 if diff > 0 else -1)


def test_compare_group_mismatch():
    with pytest.raises(GroupMismatchError):
        compare(ValueGroup(2).rational(0), ValueGroup(3).rational(0))


def test_compare_total_order_properties():
    rng = random.Random(5)
    g = ValueGroup(3)

    def rand():
        return g.value([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)])

    for _ in range(120):
        a, b, c = rand(), rand(), rand()
        ab, ba = compare(a, b), compare(b, a)
        assert ab == -ba  # antisymmetry
        # translation invariance
        assert compare(a + c, b + c) == ab
        # transitivity on a sorted triple
        lo, mid, hi = sorted([a, b, c])
        assert compare(lo, hi) in (-1, 0)
        # equality iff coordinates agree
        assert (compare(a, b) == 0) == (a.coords == b.coords)


def test_value_of_exponent():
    g = ValueGroup(2)
    w = [g.value([1, 0]), g.value([0, 1])]
    assert value_of_exponent((0, 0), w) == g.rational(0)
    assert value_of_exponent((2, 3), w).coords == (Fraction(2), Fraction(3))
    w2 = [g.value([Fraction(1, 2), 0]), g.value([Fraction(1, 2), 0])]
    assert value_of_exponent((1, 1), w2).coords == (Fraction(1), Fraction(0))


def test_value_of_exponent_matches_plain_sum():
    """Integer numerators over one denominator give the sum of the weights
    scaled by the exponent, coordinate for coordinate."""
    rng = random.Random(23)
    for _ in range(300):
        g = ValueGroup(rng.randint(1, 4))
        n = rng.randint(1, 5)
        weights = [
            g.value([Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(g.rank)])
            for _ in range(n)
        ]
        alpha = [rng.choice((0, 0, 1, rng.randint(2, 30))) for _ in range(n)]
        want = g.rational(0)
        for a, w in zip(alpha, weights):
            want = want + w.scale(a)
        got = value_of_exponent(alpha, weights)
        assert got == want and got.group is g
        assert all(type(c) is Fraction for c in got.coords)


def test_lattice_identity_case():
    g = ValueGroup(3)
    basis = [g.value([1, 0, 0]), g.value([0, 1, 0]), g.value([0, 0, 1])]
    m, coeffs = min_integer_multiple_in_lattice(basis[0], basis)
    assert (m, coeffs) == (1, (1, 0, 0))


def test_lattice_rank_one_brute_force_oracle():
    g = ValueGroup(1)
    basis = [g.value([1])]
    target = g.value([Fraction(3, 2)])
    m, coeffs = min_integer_multiple_in_lattice(target, basis)
    # brute-force oracle: smallest m with m * 3/2 integral
    oracle = next(m for m in range(1, 65) if (Fraction(3, 2) * m).denominator == 1)
    assert m == oracle == 2
    assert coeffs == (3,)


def test_lattice_rank_two_example():
    g = ValueGroup(2)
    basis = [g.value([1, 0]), g.value([0, 1])]
    target = g.value([Fraction(1, 2), Fraction(1, 3)])
    m, coeffs = min_integer_multiple_in_lattice(target, basis)
    # brute force over m <= 6
    oracle = next(
        m
        for m in range(1, 7)
        if (Fraction(1, 2) * m).denominator == 1 and (Fraction(1, 3) * m).denominator == 1
    )
    assert m == oracle == 6
    assert coeffs == (3, 2)


def test_lattice_minimality_randomized():
    rng = random.Random(31)
    g = ValueGroup(2)
    basis = [g.value([1, 0]), g.value([0, 1])]
    for _ in range(60):
        target = g.value(
            [Fraction(rng.randint(0, 9), rng.randint(1, 8)) for _ in range(2)]
        )
        m, coeffs = min_integer_multiple_in_lattice(target, basis)
        assert m <= 64
        for k in range(1, m):
            assert any((c * k).denominator != 1 for c in target.coords)
        assert tuple(Fraction(c, m) for c in coeffs) == target.coords


def test_lattice_with_rational_bases_matches_a_fraction_solve():
    # bases whose coordinates have denominators: the integer elimination on
    # numerators against the Fraction Gauss-Jordan oracle on coordinates
    rng = random.Random(37)
    for rank in (1, 2, 3) * 20:
        g = ValueGroup(rank)
        while True:
            basis = [
                g.value([Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rank)])
                for _ in range(rng.randint(1, rank))
            ]
            if old_solve(tuple(zip(*(b.coords for b in basis))), (0,) * rank)[1] == len(basis):
                break
        weights = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in basis]
        target = g.value([sum(w * b.coords[i] for w, b in zip(weights, basis)) for i in range(rank)])
        x, _ = old_solve(tuple(zip(*(b.coords for b in basis))), target.coords)
        want = next(m for m in range(1, 10**4) if all((q * m).denominator == 1 for q in x))
        assert min_integer_multiple_in_lattice(target, basis) == (want, tuple(int(q * want) for q in x))


def test_lattice_errors():
    g = ValueGroup(2)
    with pytest.raises(NotInDivisibleHullError):
        min_integer_multiple_in_lattice(g.value([0, 1]), [g.value([1, 0])])
    # a degenerate basis is reported first, also for a target outside its span
    for target in ([1, 0], [0, 1]):
        with pytest.raises(DegenerateBasisError):
            min_integer_multiple_in_lattice(
                g.value(target), [g.value([1, 0]), g.value([2, 0])]
            )


def test_json_round_trip():
    g = ValueGroup(2, labels=("a", "b"))
    v = g.value([Fraction(1, 2), Fraction(-3)])
    assert v.to_json() == {"coords": ["1/2", "-3"]}
    # trace is the one reader of value and group JSON
    assert _value(v.to_json(), g, "v") == v
    assert _parse_group({"group": g.to_json()}) == g


def test_default_labels_are_written_not_held():
    """A group holds its default labels ``g1..gr`` as nothing: a rank of a
    million costs no memory per generator, and the group equals, hashes
    and writes as the one given those labels explicitly."""
    tracemalloc.start()
    try:
        big = ValueGroup(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert big.rank == 10**6 and peak < 2**20
    for rank in (1, 2, 5):
        default = [f"g{i + 1}" for i in range(rank)]
        named = ValueGroup(rank, labels=tuple(default))
        g = ValueGroup(rank)
        h = _parse_group({"group": {"rank": rank, "ordering": SQRT_PRIMES, "labels": default}})
        assert g == h and hash(g) == hash(h)
        want = {"rank": rank, "ordering": SQRT_PRIMES, "labels": default}
        assert g.to_json() == h.to_json() == want
        assert named == ValueGroup(rank) and hash(named) == hash(ValueGroup(rank))
        assert named.value([1] * rank) == ValueGroup(rank).value([1] * rank)
        assert (named == None) is False and named != rank
    assert ValueGroup(2, labels=("g2", "g1")) != ValueGroup(2)
    assert ValueGroup(2, labels=("g1", "b")).to_json()["labels"] == ["g1", "b"]
    with pytest.raises(InvalidInputError, match="labels"):
        ValueGroup(2, labels=("g1",))


# ---------------------------------------------------------------------------
# the integer sign kernel against an independent oracle


def _oracle_radicands(rank):
    primes, n = [], 2
    while len(primes) < rank - 1:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return [1] + primes


def _oracle_sqrt_interval(radicand, bits):
    scaled = radicand << (2 * bits)
    lo = isqrt(scaled)
    den = 1 << bits
    if lo * lo == scaled:
        return Fraction(lo, den), Fraction(lo, den)
    return Fraction(lo, den), Fraction(lo + 1, den)


def oracle_sign(coords):
    """Sign of the sqrt-primes value with these Fraction coordinates, by
    Fraction interval refinement: 64 bits, doubled until the bracket
    excludes zero."""
    if all(d == 0 for d in coords):
        return 0
    bits = 64
    while True:
        lo = hi = Fraction(0)
        for c, rad in zip(coords, _oracle_radicands(len(coords))):
            slo, shi = _oracle_sqrt_interval(rad, bits)
            lo += c * (slo if c > 0 else shi)
            hi += c * (shi if c > 0 else slo)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def oracle_compare(a, b):
    """Sign of a - b over the raw coordinates."""
    return oracle_sign([x - y for x, y in zip(a.coords, b.coords)])


def _pell(d, norm, min_x):
    """A solution of x**2 - d*y**2 == norm with x >= min_x, by multiplying a
    fundamental solution by powers of the fundamental unit."""
    unit = {2: (3, 2), 3: (2, 1)}[d]
    base = {(2, 1): (3, 2), (2, -1): (1, 1), (3, 1): (2, 1), (3, -2): (1, 1)}[(d, norm)]
    x, y = base
    while x < min_x:
        x, y = x * unit[0] + d * y * unit[1], x * unit[1] + y * unit[0]
    assert x * x - d * y * y == norm
    return x, y


@pytest.fixture
def refinement_bits(monkeypatch):
    """Record the bit counts at which the kernel asks for sqrt floors."""
    seen = []
    floor_row = values._floor_row

    def spy(bits, rank):
        seen.append(bits)
        return floor_row(bits, rank)

    monkeypatch.setattr(values, "_floor_row", spy)
    return seen


@pytest.mark.parametrize("norm", [1, -1])
def test_pell_near_tie_needs_refinement(norm, refinement_bits):
    x, y = _pell(2, norm, 2**70)
    g = ValueGroup(2)
    rational, irrational = g.value([x, 0]), g.value([0, y])
    # x - y*sqrt(2) = norm / (x + y*sqrt(2)): below 2**-70 in size, sign of norm
    expect = 1 if norm > 0 else -1
    assert compare(rational, irrational) == expect
    assert max(refinement_bits) > 64
    assert compare(irrational, rational) == -expect
    assert (rational - irrational).sign() == expect
    assert (irrational - rational).sign() == -expect
    # the same near-tie with scaled, non-integer coordinates
    a = g.value([Fraction(x, 7), 0])
    b = g.value([0, Fraction(y, 7)])
    assert compare(a, b) == expect == oracle_compare(a, b)


@pytest.mark.parametrize("norms, expect", [((1, 1), 1), ((-1, -2), -1)])
def test_three_term_near_tie_rank_three(norms, expect, refinement_bits):
    x2, y2 = _pell(2, norms[0], 2**70)
    x3, y3 = _pell(3, norms[1], 2**72)
    g = ValueGroup(3)
    # (x2 - y2*sqrt 2) + (x3 - y3*sqrt 3): two residuals of the same sign
    a = g.value([x2 + x3, 0, 0])
    b = g.value([0, y2, y3])
    assert compare(a, b) == expect
    assert max(refinement_bits) > 64
    assert compare(b, a) == -expect
    assert oracle_compare(a, b) == expect


def _random_pair(rng, rank):
    g = ValueGroup(rank)

    def coord():
        return Fraction(rng.randint(-(10**6), 10**6), rng.choice((1, 2, 3, 7, 12, 10**9 + 7)))

    a = [coord() for _ in range(rank)]
    roll = rng.random()
    if roll < 0.1:
        b = list(a)
    elif roll < 0.4:
        # one coordinate differs: the difference is a single nonzero term
        b = list(a)
        b[rng.randrange(rank)] = coord()
    else:
        b = [coord() for _ in range(rank)]
    return g.value(a), g.value(b)


def test_compare_differential_against_fraction_oracle():
    rng = random.Random(20261017)
    for _ in range(1000):
        a, b = _random_pair(rng, rng.randint(1, 6))
        expect = oracle_compare(a, b)
        assert compare(a, b) == expect, (a, b)
        assert compare(b, a) == -expect, (a, b)
        assert (a - b).sign() == expect, (a, b)


def test_sign_kernel_on_mixed_sign_vectors(refinement_bits):
    # integer vectors straight into the kernel: every sign pattern of the
    # tail (the pads' shortcuts and their brackets), plus Pell near ties
    rng = random.Random(20261022)
    cases = []
    for _ in range(600):
        rank = rng.randint(1, 6)
        top = rng.choice((1, 3, 10**6, 10**30))
        pattern = rng.choice(((-top, top), (0, top), (-top, 0), (-1, 1)))
        cases.append([rng.randint(-top, top)] + [rng.randint(*pattern) for _ in range(rank - 1)])
    for norm in (1, -1):
        x, y = _pell(2, norm, 2**70)
        cases += [[x, -y], [-x, y], [3 * x, -3 * y, 0]]
    for norms in ((1, 1), (-1, -2)):
        (x2, y2), (x3, y3) = _pell(2, norms[0], 2**70), _pell(3, norms[1], 2**72)
        cases += [[x2 + x3, -y2, -y3], [-x2 - x3, y2, y3]]
    for n in cases:
        assert values._sign(n) == oracle_sign(n), n
        assert values._sign([-c for c in n]) == -oracle_sign(n), n
    assert max(refinement_bits) > 64


def test_rank_one_order_is_the_sign_of_the_difference():
    """``_order`` on rank-1 rows compares two integers; it agrees with
    ``_sign`` of the difference, for zero, equal rows, small ints either
    way and ints of 5000 digits, as tuples and as lists."""
    rng = random.Random(20261020)
    huge = 10**4999
    ints = [0, 1, -1, 2, -7, huge, -huge, huge + 1, -huge - 1, 3 * huge]
    ints += [rng.randint(-(10**6), 10**6) for _ in range(40)]
    ints += [rng.randint(-10 * huge, 10 * huge) for _ in range(20)]
    pairs = [(a, b) for a in ints for b in rng.sample(ints, 12)] + [(a, a) for a in ints]
    for a, b in pairs:
        want = values._sign([a - b])
        assert values._order((a,), (b,)) == values._order([a], [b]) == want, (a, b)
    assert {values._order((a,), (b,)) for a, b in pairs} == {-1, 0, 1}
    assert huge.bit_length() > 16600  # 5000 decimal digits


def test_radicand_cache_grows_out_of_order(monkeypatch):
    rng = random.Random(77)
    cases = [_random_pair(rng, 6) for _ in range(40)] + [_random_pair(rng, 2) for _ in range(40)]
    expected = [oracle_compare(a, b) for a, b in cases]

    def fresh_answers(order):
        monkeypatch.setattr(values, "_RADICANDS", [1])
        monkeypatch.setattr(values, "_FLOOR_ROWS", {})
        got = {k: compare(*cases[k]) for k in order}
        return [got[k] for k in range(len(cases))], list(values._RADICANDS)

    rank6_first = fresh_answers(range(len(cases)))
    rank2_first = fresh_answers(range(len(cases) - 1, -1, -1))
    assert rank6_first == rank2_first == (expected, [1, 2, 3, 5, 7, 11])


def test_radicands_are_the_primes(monkeypatch):
    """The radicands are 1 and then the primes in order, as a sieve lists
    them, however the list is grown."""
    limit = 20000
    composite = bytearray(limit)
    for p in range(2, isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p::p] = b"\1" * len(range(p * p, limit, p))
    primes = [p for p in range(2, limit) if not composite[p]]
    assert len(primes) > 2000
    monkeypatch.setattr(values, "_RADICANDS", [1])
    for rank in (2, 3, 10, 2001):
        assert values._radicands(rank) == [1] + primes[:rank - 1]


def test_sign_of_values():
    g = ValueGroup(3)
    assert g.rational(0).sign() == 0
    assert g.value([Fraction(-1, 3), 0, 0]).sign() == -1
    assert g.value([0, Fraction(1, 5), Fraction(2, 7)]).sign() == 1
    # 3/2 > sqrt 2 and 7/4 > sqrt 3
    assert g.value([Fraction(3, 2), -1, 0]).sign() == 1
    assert g.value([Fraction(-7, 4), 0, 1]).sign() == -1
    assert not g.value([Fraction(-7, 4), 0, 1]).is_positive()


def test_a_value_next_to_a_non_value_is_a_type_error():
    """The order and ``+``/``-`` take values only: beside an int, a
    Fraction, a literal or None they return NotImplemented, so Python
    raises TypeError from either side."""
    v = ValueGroup(1).rational(2)
    ops = (operator.lt, operator.le, operator.gt, operator.ge, operator.add, operator.sub)
    for other in (3, Fraction(3), "3", None):
        for op in ops:
            with pytest.raises(TypeError):
                op(v, other)
            with pytest.raises(TypeError):
                op(other, v)
        assert v != other and not v == other
    for method in ("__lt__", "__le__", "__gt__", "__ge__", "__add__", "__sub__"):
        assert getattr(v, method)(3) is NotImplemented


def test_group_check_is_by_equality():
    # equal groups built separately compare
    assert compare(ValueGroup(2).value([1, 0]), ValueGroup(2).value([0, 1])) == -1
    g = ValueGroup(2, labels=("a", "b"))
    h = ValueGroup(2, labels=("x", "y"))
    with pytest.raises(GroupMismatchError):
        compare(g.value([1, 0]), h.value([0, 1]))
    with pytest.raises(GroupMismatchError):
        compare(g.rational(0), h.rational(0))
    with pytest.raises(GroupMismatchError):
        compare(ValueGroup(2).rational(0), ValueGroup(2, labels=("g1", "b")).rational(0))
    with pytest.raises(GroupMismatchError):
        g.value([1, 0]) - h.value([1, 0])


# ---------------------------------------------------------------------------
# integer numerators over one denominator, against a Fraction reference


def _assert_canonical(v):
    assert type(v.den) is int and v.den > 0
    assert all(type(n) is int for n in v.nums) and len(v.nums) == v.group.rank
    assert gcd(v.den, *v.nums) == 1
    assert all(type(c) is Fraction for c in v.coords)
    assert v.coords == tuple(Fraction(n, v.den) for n in v.nums)


# "sqrt-primes" stays a parameter: it is part of the case's id and seed
@pytest.mark.parametrize("ordering", [SQRT_PRIMES])
def test_value_arithmetic_matches_fraction_reference(ordering):
    rng = random.Random(f"20261018:{ordering}")

    def coord():
        return Fraction(rng.randint(-60, 60), rng.choice((1, 1, 2, 3, 4, 6, 9, 12, 10**9 + 7)))

    for _ in range(300):
        rank = rng.randint(1, 6)
        g = ValueGroup(rank)
        xs = [coord() for _ in range(rank)]
        ys = list(xs) if rng.random() < 0.15 else [coord() for _ in range(rank)]
        if rng.random() < 0.3:  # one coordinate apart
            ys[rng.randrange(rank)] = coord()
        a, b = g.value(xs), g.value(ys)
        q = coord()
        weights = [[coord() for _ in range(rank)] for _ in range(rng.randint(1, 4))]
        alpha = [rng.choice((0, 1, rng.randint(2, 40))) for _ in weights]
        cases = [
            (a + b, [x + y for x, y in zip(xs, ys)]),
            (a - b, [x - y for x, y in zip(xs, ys)]),
            (a - a, [Fraction(0)] * rank),
            (a.scale(-1), [-x for x in xs]),
            (a.scale(q), [q * x for x in xs]),
            (a.scale(q.numerator), [q.numerator * x for x in xs]),
            (
                value_of_exponent(alpha, [g.value(w) for w in weights]),
                [sum(k * w[i] for k, w in zip(alpha, weights)) for i in range(rank)],
            ),
        ]
        for got, want in cases:
            _assert_canonical(got)
            assert got.coords == tuple(want)
            assert got.to_json() == {"coords": [str(c) for c in want]}
            assert got.sign() == oracle_sign(want)
        diff = oracle_sign([x - y for x, y in zip(xs, ys)])
        assert compare(a, b) == diff
        assert compare(b, a) == -diff


def test_equal_values_built_along_different_paths():
    g = ValueGroup(1)
    half = [
        g.value(["2/4"]),
        g.value([Fraction(1, 2)]),
        g.rational(1) - g.rational(Fraction(1, 2)),
        g.rational("3/6"),
        g.rational(Fraction(1, 4)).scale(2),
        g.rational(3).scale("1/6"),
        g.rational("-1/2").scale(-1),
        value_of_exponent((3,), [g.value(["1/6"])]),
        Value((-5,), -10, g),
    ]
    for v in half:
        assert (v.nums, v.den) == ((1,), 2)
        assert v == half[0] and hash(v) == hash(half[0])
    assert len(set(half)) == 1
    # another type is unequal, never an error
    for other in (None, "1/2", Fraction(1, 2), ((1,), 2), g):
        assert (half[0] == other) is False and half[0] != other
    g3 = ValueGroup(3)
    a, b = g3.value(["2/6", 0, "-4/2"]), g3.value([Fraction(1, 3), Fraction(0), -2])
    assert a == b and hash(a) == hash(b) and (a.nums, a.den) == ((1, 0, -6), 3)
    zeros = [g3.rational(0), g3.value(["0/5", 0, "0"]), a - b, a.scale(0), g3.value([0, 0, 0]) + g3.rational(0)]
    for z in zeros:
        assert (z.nums, z.den) == ((0, 0, 0), 1) and z == zeros[0] and hash(z) == hash(zeros[0])


def test_direct_construction_is_brought_to_lowest_terms():
    g = ValueGroup(2)
    v = Value((4, -6), -8, g)
    assert (v.nums, v.den) == ((-2, 3), 4)
    assert v.coords == (Fraction(-1, 2), Fraction(3, 4))
    _assert_canonical(v)
    with pytest.raises(InvalidInputError, match="denominator"):
        Value((1, 0), 0, g)
    with pytest.raises(InvalidInputError, match="coordinate count"):
        Value((1,), 1, g)


@pytest.mark.parametrize("bad", [0.1, 1.0, float("nan"), True, False, None, 1j, Decimal("0.5")])
def test_inexact_inputs_are_rejected(bad):
    g = ValueGroup(1)
    with pytest.raises(InvalidInputError):
        g.value([bad])
    with pytest.raises(InvalidInputError):
        g.rational(bad)
    with pytest.raises(InvalidInputError):
        g.rational(1).scale(bad)
    with pytest.raises(InvalidInputError):
        ValueGroup(2).value([0, bad])


@pytest.mark.parametrize("literal", ["1e3", " 7 ", "0.5", "1/0", "+1", "1/-2", ""])
def test_string_inputs_follow_the_literal_grammar(literal):
    g = ValueGroup(1)
    with pytest.raises(SchemaError, match="bad rational"):
        g.value([literal])
    with pytest.raises(SchemaError, match="bad rational"):
        g.rational(literal)
    with pytest.raises(SchemaError, match="bad rational"):
        g.rational(1).scale(literal)


def test_exact_literals_are_accepted():
    g = ValueGroup(2)
    assert g.value(["2/6", "-10/2"]) == g.value([Fraction(1, 3), -5])
    assert g.value(["2/6", "-10/2"]).to_json() == {"coords": ["1/3", "-5"]}
    assert g.rational("2/6").scale("-3") == g.rational(-1)
    assert rational_from_str("-07/14") == (-7, 14)  # not reduced: the Value reduces
    assert rational_from_str("0") == (0, 1)


def test_quote_cuts_only_long_values():
    for short in ("abc", 5, None, "x" * 58, ["1"] * 12):
        assert quote(short) == repr(short) and len(repr(short)) <= QUOTE_LIMIT
    for long in ("x" * 59, "1" * 5000 + "x", ["1"] * 10000):
        assert quote(long) == repr(long)[:QUOTE_LIMIT] + "…"
    with pytest.raises(SchemaError) as err:
        rational_from_str("1" * 5000 + "x")
    assert str(err.value) == "bad rational '" + "1" * (QUOTE_LIMIT - 1) + "…"


def test_a_literal_past_the_digit_limit_is_invalid_input():
    big = 7 * 10**4400
    assert values._literal(big, big) == "1" and values._literal(0, big) == "0"
    # the last two are multiples of d, written with no gcd taken
    for n, d in ((big, 1), (1, big), (-big, 3), (3 * big, 3), (-5 * big, 5)):
        with pytest.raises(InvalidInputError, match="too many digits"):
            values._literal(n, d)
    with pytest.raises(InvalidInputError, match="too many digits"):
        ValueGroup(2).value([1, Fraction(1, big)]).to_json()


def test_a_literal_is_the_fraction_in_lowest_terms():
    """``_literal(n, d)`` writes what ``Fraction(n, d)`` does, whether or
    not d divides n, for n and d of either sign."""
    for n in range(-40, 41):
        for d in range(-24, 25):
            if d:
                assert values._literal(n, d) == str(Fraction(n, d)), (n, d)


def test_parsed_literals_are_memoized_up_to_a_cap(monkeypatch):
    """A short literal is parsed by the grammar once and then answered
    from the memo, unreduced; the memo stops growing at its cap, and what
    it does not hold still goes through the grammar."""
    matched = []
    grammar = values._RATIONAL

    class Counted:
        def fullmatch(self, s):
            matched.append(s)
            return grammar.fullmatch(s)

    monkeypatch.setattr(values, "_RATIONAL", Counted())
    monkeypatch.setattr(values, "_PARSED", {})
    assert rational_from_str("2/4") == (2, 4)  # a miss
    assert rational_from_str("2/4") == (2, 4)  # a hit
    assert matched == ["2/4"] and values._PARSED == {"2/4": (2, 4)}
    for bad in (2, 0.5, None, ["1"], {"c": "1"}):
        with pytest.raises(SchemaError, match="rational must be"):
            rational_from_str(bad)
    long = "1" * values._PARSED_LENGTH + "/3"
    for _ in range(2):
        assert rational_from_str(long) == (int("1" * values._PARSED_LENGTH), 3)
        with pytest.raises(SchemaError, match="bad rational"):
            rational_from_str(long + "x")
    assert matched[1:] == [long, long + "x"] * 2 and long not in values._PARSED
    cap = values._PARSED_ENTRIES
    for k in range(cap + 50):
        assert rational_from_str(f"{k}/7") == (k, 7)
    assert len(values._PARSED) == cap
    assert rational_from_str(f"{cap + 49}/7") == (cap + 49, 7)
    assert matched[-1] == f"{cap + 49}/7"
