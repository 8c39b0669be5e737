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

The whole recursion runs on the x-dense rows of :mod:`valmono.polyalg`:
f's integer coordinates over its denominator D, and with every Q_i
integral every digit at every level stays integral over D (a
non-integral Q_i makes them Fractions through the same code).  The
values below the level asked for are read off the digit rows (the ground
value needs only exponents), so those digits never become polynomials.
Only the coefficients of the level asked for are built, as polynomials
over D, and ``StandardExpansion.reassembles`` is an exact Horner check on
the same kind of rows.

Chains are finite by construction; limit key polynomials do not exist in
residue characteristic zero, which this module encodes as a structural
assumption rather than a runtime check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .errors import (
    InvalidInputError,
    UnnormalizedLeadingCoefficientError,
    ZeroPolynomialError,
    quote,
)
from .framing import Frame
from .game import MonomialValuationSpec
from .polyalg import (
    MultiPoly,
    _expand_rows,
    _expansion_base,
    _join_rows,
    _reassembles,
    _row_ops,
    _Rows,
    _split_rows,
)
from .values import Ordering, Value, compare, value_of_exponent


class KeyPolyChain:
    """(Q_i, beta_i) entries over ground variables plus one distinguished x."""

    __slots__ = ("ground", "x", "entries", "_row_cache")

    def __init__(
        self, ground: MonomialValuationSpec, x: str, entries: tuple[tuple[MultiPoly, Value], ...]
    ):
        if x in ground.vars:
            raise InvalidInputError("x must not be a ground variable")
        if not entries:
            raise InvalidInputError("chain needs at least one entry")
        self.ground, self.x, self.entries = ground, x, entries
        self._row_cache = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ground, self.x, self.entries) == (other.ground, other.x, other.entries)

    def __hash__(self):
        return hash((self.ground, self.x, self.entries))

    def __repr__(self):
        return f"KeyPolyChain(ground={self.ground!r}, x={self.x!r}, entries={self.entries!r})"

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

    @property
    def _rows(self) -> "_ChainRows":
        """The chain's truncation rows, made on first use."""
        if self._row_cache is None:
            self._row_cache = _ChainRows(self)
        return self._row_cache


class StandardExpansion(NamedTuple):
    """f = sum coefficients[j] * Q_level^j with Q_level-free coefficients."""

    level: int
    base: MultiPoly
    coefficients: tuple[MultiPoly, ...]

    def reassembles(self, f: MultiPoly) -> bool:
        """Whether sum c_j Q^j is exactly f: Horner's rule on x-dense rows
        over one denominator (x is the chain's last variable)."""
        return _reassembles(f, self.base, self.coefficients, self.base.vars[-1])


class _ChainRows:
    """Truncation on x-dense rows, made once per chain: each Q_i as a row
    divisor, built on first use (an unused level may be malformed), and the
    values of ground exponents and of j * beta_i as they are met."""

    def __init__(self, chain: KeyPolyChain):
        qs = [q for q, _ in chain.entries]
        self.x = chain.x
        self.qs = qs
        self.betas = [b for _, b in chain.entries]
        self.weights = chain.ground.weights
        self.ring = (chain.all_vars, qs[0].tower)
        self.ops = _row_ops(qs[0].tower)
        self.bases: dict[int, tuple[int, _Rows]] = {}
        self.ground: dict[tuple[int, ...], Value] = {}
        self.multiples: dict[tuple[int, int], Value] = {}

    def expand(self, rows: _Rows, i: int) -> list[_Rows]:
        """Level-i digits of ``rows``, which the expansion consumes."""
        base = self.bases.get(i)
        if base is None:
            q = self.qs[i - 1]
            if (q.vars, q.tower) != self.ring:
                raise InvalidInputError("polynomials live in different rings")
            base = self.bases[i] = _expansion_base(q, self.x)
        return _expand_rows(rows, *base, self.ops)

    def ground_value(self, exponents: Iterable[tuple[int, ...]]) -> Value:
        """Monomial value of an x-free form given by its ground exponents:
        the least value among them."""
        best = None
        for e in exponents:
            v = self.ground.get(e)
            if v is None:
                v = self.ground[e] = value_of_exponent(e, self.weights)
            if best is None or compare(v, best) is Ordering.Less:
                best = v
        return best

    def term_values(self, digits: list[_Rows], i: int) -> tuple[tuple[int, Value], ...]:
        """(j, j beta_i + value(c_j)) for the nonzero digits; consumes them."""
        out = []
        for j, c in enumerate(digits):
            if c:
                m = self.multiples.get((i, j))
                if m is None:
                    m = self.multiples[i, j] = self.betas[i - 1].scale(j)
                out.append((j, m + self.value(c, i - 1)))
        return tuple(out)

    def value(self, c: _Rows, level: int) -> Value:
        """Value of a Q_{level+1}-free standard form given by its (consumed)
        rows: the ground value at level 0, else its least level term value."""
        if level == 0:
            return self.ground_value(e for row in c.values() for e in row)
        return _least(self.term_values(self.expand(c, level), level))[1]


def _least(terms: tuple[tuple[int, Value], ...]) -> tuple[int, Value]:
    """(delta, minimum): the least term value and the last index attaining it."""
    delta, best = terms[0]
    for j, v in terms[1:]:
        order = compare(v, best)
        if order is not Ordering.Greater:
            delta = j
            if order is Ordering.Less:
                best = v
    return delta, best


def _entry_rows(f: MultiPoly, chain: KeyPolyChain, i: int) -> tuple[MultiPoly, list[_Rows]]:
    """f over the chain's variables and the level-i digits of its rows."""
    if not 1 <= i <= len(chain):
        raise InvalidInputError(f"level {quote(i)} outside the chain")
    if f.vars != chain.all_vars:
        f = f.with_vars(chain.all_vars)
    f._check(chain.Q(i))
    return f, chain._rows.expand(_split_rows(f, len(chain.ground.vars)), i)


def _expansion(f: MultiPoly, chain: KeyPolyChain, i: int, digits: list[_Rows]) -> StandardExpansion:
    """The level-i expansion with its digits as polynomials over f's denominator."""
    xi = len(chain.ground.vars)
    return StandardExpansion(
        level=i, base=chain.Q(i), coefficients=tuple(_join_rows(c, xi, f) for c in digits)
    )


def standard_expansion(f: MultiPoly, chain: KeyPolyChain, i: int) -> StandardExpansion:
    """Level-i standard expansion, obtained by iterated Euclidean division."""
    f, digits = _entry_rows(f, chain, i)
    return _expansion(f, chain, i, digits)


class Truncation(NamedTuple):
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
    """Expand f once at level i and read off every truncation invariant.
    Only the level-i coefficients are built as polynomials; the values
    below are read off the digit rows."""
    f, digits = _entry_rows(f, chain, i)
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no value")
    exp = _expansion(f, chain, i, digits)  # before the values consume the digits
    terms = chain._rows.term_values(digits, i)
    # epsilon is the first index above delta attaining the minimum of what
    # is left
    delta, best = _least(terms)
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

