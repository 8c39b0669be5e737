"""Shared helpers: groups, random data generators, independent oracles."""

from __future__ import annotations

import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from valmono.game import MonomialValuationSpec
from valmono.keypoly import KeyPolyChain
from valmono.polyalg import MultiPoly, QQ
from valmono.values import Value, ValueGroup

getcontext().prec = 80

RADICANDS = [1, 2, 3, 5, 7, 11, 13, 17, 19]


def numeric_value(v: Value) -> Decimal:
    """Independent numeric evaluation of a sqrt-primes value (80 digits)."""
    total = Decimal(0)
    for c, rad in zip(v.coords, RADICANDS):
        total += (Decimal(c.numerator) / Decimal(c.denominator)) * Decimal(rad).sqrt()
    return total


def sqrt_prime_spec(n: int, names=None) -> MonomialValuationSpec:
    group = ValueGroup(n)
    names = names or tuple(f"u{i+1}" for i in range(n))
    weights = tuple(
        group.value([1 if j == i else 0 for j in range(n)]) for i in range(n)
    )
    return MonomialValuationSpec(tuple(names), weights)


def rational_spec(weights, names=None) -> MonomialValuationSpec:
    group = ValueGroup(1)
    names = names or tuple(f"u{i+1}" for i in range(len(weights)))
    return MonomialValuationSpec(
        tuple(names), tuple(group.rational(w) for w in weights)
    )


def poly(vars_, terms) -> MultiPoly:
    """terms: dict exponent -> rational"""
    return MultiPoly.build(
        tuple(vars_), {tuple(e): QQ.from_rational(c) for e, c in terms.items()}
    )


def horner(expansion) -> MultiPoly:
    """sum c_j Q^j rebuilt with MultiPoly arithmetic, from the top digit
    down: an oracle for ``StandardExpansion.reassembles``."""
    out = expansion.coefficients[-1]
    for c in reversed(expansion.coefficients[:-1]):
        out = out * expansion.base + c
    return out


def random_poly(rng: random.Random, vars_, max_terms=5, max_exp=6, zero_ok=False) -> MultiPoly:
    n = len(vars_)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(n))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if c == 0 and not zero_ok:
            c = Fraction(1)
        terms[e] = terms.get(e, Fraction(0)) + c
    p = poly(vars_, {e: c for e, c in terms.items() if c != 0})
    if p.is_zero() and not zero_ok:
        return poly(vars_, {tuple(0 for _ in vars_): Fraction(1)})
    return p


def binomial_chain(rng: random.Random, allow_extension=True) -> KeyPolyChain:
    """A provably valid chain: Q_2 = x^A - c u^B with gcd(A, B) = 1 on the
    Gauss level (so the level-2 initial form is a degree-1 minimal polynomial
    relation), optionally extended by a translation key polynomial."""
    group = ValueGroup(1)
    while True:
        A = rng.randint(2, 4)
        B = rng.randint(1, 7)
        from math import gcd

        if gcd(A, B) == 1:
            break
    c = Fraction(rng.choice([1, 2, 3, -1, -2]))
    beta1 = Fraction(B, A)
    jump = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    beta2 = Fraction(B) + jump
    ground = rational_spec([1], names=("u",))
    vars_ = ("u", "x")
    q1 = MultiPoly.variable(vars_, "x")
    q2 = poly(vars_, {(0, A): 1, (B, 0): -c})
    entries = [(q1, group.rational(beta1)), (q2, group.rational(beta2))]
    if allow_extension and rng.random() < 0.5:
        # translation key polynomial Q_3 = Q_2 + c' u^k x^m of value beta2
        for m in range(A):
            k = beta2 - m * beta1
            if k.denominator == 1 and k >= 0:
                c3 = Fraction(rng.choice([1, 2, -1]))
                z = poly(vars_, {(int(k), m): c3})
                q3 = q2 + z
                beta3 = beta2 + Fraction(rng.randint(1, 3), rng.randint(1, 2))
                entries.append((q3, group.rational(beta3)))
                break
    return KeyPolyChain(ground, "x", tuple(entries))


@pytest.fixture(scope="session")
def rng():
    return random.Random(20260809)
