"""Key-polynomial chains and the truncation valuations they define.

A chain fixes ground variables with a monomial valuation, a distinguished
variable x, and entries (Q_i, beta_i) with Q_1 = x.  Values are *defined*
as truncations of the finite chain: the level-i truncation of f reads the
Q_i-adic expansion f = sum c_j Q_i^j and takes min_j (j beta_i + value of
c_j), coefficient values being computed by the level below and bottoming
out at the ground monomial valuation (with x itself worth beta_1).

``truncate`` expands f once at a level and reads the term values, their
minimum and the delta/epsilon invariants off that one expansion;
``truncated_valuation``, ``delta_invariant``, ``epsilon_invariant`` and
``next_key_char0`` are views of it.  Each coefficient is valued by one
truncation at the level below, and no invariant re-expands what another
has already expanded.

Chains are finite by construction; limit key polynomials do not exist in
residue characteristic zero, which this module encodes as a structural
assumption rather than a runtime check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    InvalidInputError,
    UnnormalizedLeadingCoefficientError,
    ZeroPolynomialError,
)
from .framing import Frame
from .game import MonomialValuationSpec
from .polyalg import MultiPoly, q_adic_expansion
from .values import Ordering, Value, compare, value_of_exponent


@dataclass(frozen=True)
class KeyPolyChain:
    """(Q_i, beta_i) entries over ground variables plus one distinguished x."""

    ground: MonomialValuationSpec
    x: str
    entries: tuple[tuple[MultiPoly, Value], ...]

    def __post_init__(self):
        if self.x in self.ground.vars:
            raise InvalidInputError("x must not be a ground variable")
        if not self.entries:
            raise InvalidInputError("chain needs at least one entry")

    @property
    def all_vars(self) -> tuple[str, ...]:
        return self.ground.vars + (self.x,)

    def __len__(self) -> int:
        return len(self.entries)

    def Q(self, i: int) -> MultiPoly:
        return self.entries[i - 1][0]

    def beta(self, i: int) -> Value:
        return self.entries[i - 1][1]

    def initial_frame(self) -> Frame:
        """The chart the chain lives in: the ground weights, and x worth beta_1."""
        return Frame(self.all_vars, self.ground.weights + (self.beta(1),))

    def alphas(self) -> tuple[int, ...]:
        """alpha_i = degree of Q_i over Q_{i-1} (alpha_1 = 1 for Q_1 = x)."""
        out = [1]
        for i in range(2, len(self.entries) + 1):
            d_prev = self.Q(i - 1).degree_in(self.x)
            d_cur = self.Q(i).degree_in(self.x)
            if d_prev <= 0 or d_cur % d_prev:
                raise InvalidInputError(f"degree of Q_{i} is not a multiple of deg Q_{i-1}")
            out.append(d_cur // d_prev)
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "ground": self.ground.to_json(),
            "x": self.x,
            "entries": [
                {"Q": q.to_json(), "beta": b.to_json()} for q, b in self.entries
            ],
        }


@dataclass(frozen=True)
class StandardExpansion:
    """f = sum coefficients[j] * Q_level^j with Q_level-free coefficients."""

    level: int
    base: MultiPoly
    coefficients: tuple[MultiPoly, ...]

    def reassemble(self) -> MultiPoly:
        """sum c_j Q^j by Horner's rule, from the top digit down."""
        out = self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            out = out * self.base + c
        return out


def standard_expansion(f: MultiPoly, chain: KeyPolyChain, i: int) -> StandardExpansion:
    """Level-i standard expansion, obtained by iterated Euclidean division."""
    if not 1 <= i <= len(chain):
        raise InvalidInputError(f"level {i} outside the chain")
    if f.vars != chain.all_vars:
        f = f.with_vars(chain.all_vars)
    Q = chain.Q(i)
    digits = q_adic_expansion(f, Q, chain.x)
    return StandardExpansion(level=i, base=Q, coefficients=tuple(digits))


def _ground_value(c: MultiPoly, chain: KeyPolyChain) -> Value:
    """Monomial value of an x-free polynomial: the least value of the ground
    columns of its exponents (x is the last column)."""
    weights = chain.ground.weights
    n = len(weights)
    best = None
    for e in c.terms:
        v = value_of_exponent(e[:n], weights)
        if best is None or compare(v, best) is Ordering.Less:
            best = v
    return best


def _coefficient_value(c: MultiPoly, chain: KeyPolyChain, level: int) -> Value:
    """Value of a Q_{level+1}-free standard form, computed by the level below."""
    if level == 0:
        return _ground_value(c, chain)
    return truncated_valuation(c, chain, level)


@dataclass(frozen=True)
class Truncation:
    """One level-i standard expansion and the values it defines: the terms
    ``(j, j beta_i + value(c_j))`` of the nonzero coefficients in j order,
    their minimum, the largest index ``delta`` attaining it, and
    ``epsilon``, the least index above delta attaining the minimum over the
    indices above delta (None when there is none)."""

    expansion: StandardExpansion
    terms: tuple[tuple[int, Value], ...]
    value: Value
    delta: int
    epsilon: Optional[int]


def truncate(f: MultiPoly, chain: KeyPolyChain, i: int) -> Truncation:
    """Expand f once at level i and read off every truncation invariant."""
    exp = standard_expansion(f, chain, i)
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no value")
    beta = chain.beta(i)
    terms = tuple(
        (j, beta.scale(j) + _coefficient_value(c, chain, i - 1))
        for j, c in enumerate(exp.coefficients)
        if not c.is_zero()
    )
    # one scan each: delta is the last index attaining the minimum, epsilon
    # the first index above delta attaining the minimum of what is left
    delta, best = terms[0]
    for j, v in terms[1:]:
        order = compare(v, best)
        if order is not Ordering.Greater:
            delta = j
            if order is Ordering.Less:
                best = v
    above = [(j, v) for j, v in terms if j > delta]
    epsilon = None
    if above:
        epsilon, mu_plus = above[0]
        for j, v in above[1:]:
            if compare(v, mu_plus) is Ordering.Less:
                epsilon, mu_plus = j, v
    return Truncation(exp, terms, best, delta, epsilon)


def truncated_valuation(f: MultiPoly, chain: KeyPolyChain, i: int) -> Value:
    """The i-truncation: min_j (j beta_i + value(c_{j,i}))."""
    return truncate(f, chain, i).value


def delta_invariant(f: MultiPoly, chain: KeyPolyChain, i: int) -> int:
    """Largest expansion index attaining the truncated value."""
    return truncate(f, chain, i).delta


def epsilon_invariant(f: MultiPoly, chain: KeyPolyChain, i: int) -> Optional[int]:
    """Minimal index above delta attaining the secondary minimum; None when
    delta is already the top index."""
    return truncate(f, chain, i).epsilon


def next_key_char0(
    chain: KeyPolyChain, f: MultiPoly
) -> tuple[MultiPoly, MultiPoly]:
    """Characteristic-zero augmentation step: z = c_{delta-1} / delta and
    Q_next = Q_top + z, for f whose leading attaining coefficient is 1."""
    i = len(chain)
    t = truncate(f, chain, i)
    delta = t.delta
    if delta < 1:
        raise InvalidInputError("delta must be at least 1 to produce a key polynomial")
    c_delta = t.expansion.coefficients[delta]
    one = MultiPoly.constant(c_delta.vars, 1, c_delta.tower)
    if c_delta != one:
        raise UnnormalizedLeadingCoefficientError("unnormalized leading coefficient")
    z = t.expansion.coefficients[delta - 1].scale(Fraction(1, delta))
    q_next = chain.Q(i) + z
    jump = truncated_valuation(q_next, chain, i)
    if compare(jump, chain.beta(i)) is not Ordering.Equal:
        raise AssertionError("augmented polynomial does not sit at the expected value")
    return z, q_next


def validate_chain(chain: KeyPolyChain) -> list[str]:
    """Named violations of the chain invariants; empty list when valid."""
    issues: list[str] = []
    x = chain.x
    vars_ = chain.all_vars
    q1 = chain.Q(1)
    x_poly = MultiPoly.variable(vars_, x, q1.tower)
    if q1.with_vars(vars_) != x_poly:
        issues.append("q1-not-x")
    for i in range(1, len(chain) + 1):
        q = chain.Q(i)
        d = q.degree_in(x)
        if d < 1:
            issues.append(f"non-monic:Q_{i}")
            continue
        lead = q.coefficient_in(x, d)
        if not (len(lead.terms) == 1 and lead.tower.eq(lead.constant_term(), lead.tower.one())):
            issues.append(f"non-monic:Q_{i}")
    if chain.beta(1).sign() <= 0:
        issues.append("beta-not-positive")
    try:
        chain.alphas()
    except InvalidInputError:
        issues.append("degree-ratio")
    for i in range(2, len(chain) + 1):
        if not compare(chain.beta(i), chain.beta(i - 1)) is Ordering.Greater:
            issues.append(f"beta-not-increasing:Q_{i}")
    for i in range(2, len(chain) + 1):
        d_prev, d_cur = chain.Q(i - 1).degree_in(x), chain.Q(i).degree_in(x)
        if d_prev >= 1 and d_cur >= 1:
            s_prev = chain.beta(i - 1).scale(Fraction(1, d_prev))
            s_cur = chain.beta(i).scale(Fraction(1, d_cur))
            if not compare(s_cur, s_prev) is Ordering.Greater:
                issues.append(f"slope-not-increasing:Q_{i}")
    if issues:
        return issues
    for i in range(2, len(chain) + 1):
        trunc = truncated_valuation(chain.Q(i), chain, i - 1)
        if not compare(chain.beta(i), trunc) is Ordering.Greater:
            issues.append(f"value-jump:Q_{i}")
    return issues

