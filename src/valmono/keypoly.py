"""Key-polynomial chains and the truncation valuations they define.

A chain fixes ground variables with a monomial valuation, a distinguished
variable x, and entries (Q_i, beta_i) with Q_1 = x.  Values are *defined*
as truncations of the finite chain: the level-i truncation of f reads the
Q_i-adic expansion f = sum c_j Q_i^j and takes min_j (j beta_i + value of
c_j), coefficient values being computed by the level below and bottoming
out at the ground monomial valuation (with x itself worth beta_1).

``truncate`` expands f once at a level and reads the expansion, the term
values, their minimum and the delta/epsilon invariants off that one
expansion; ``truncated_valuation`` and ``next_key_char0`` are views of
it.  Each coefficient is valued by one truncation at the level below, and
no invariant re-expands what another has already expanded.

The whole recursion runs on the x-dense rows of :mod:`valmono.polyalg`:
f's integer coordinates over its denominator D, and with every Q_i
integral every digit at every level stays integral over D (a
non-integral Q_i makes them Fractions through the same code).  The
values below the level asked for are read off the digit rows (the ground
value needs only exponents, which it reads by packed key and unpacks once
per chain), so those digits never become polynomials.
Only the coefficients of the level asked for are built, as polynomials
over D, and ``StandardExpansion.reassembles`` decides their identity
exactly on the same kind of rows.  A chain holds each Q_i over its own
variables, so a Q_i built over another order of them expands alike.

Inside the recursion, a level-1 value over a pure power Q_1 = x^d (every
valid chain's Q_1 = x) builds no digit and no term: digit j holds rows
j*d .. j*d+d-1 and a ground value is the least over exponents, so the
value is the least (k // d) beta_1 + ground value of row k over the
rows k.  The polynomials of a run come from ``trace._poly``, which reads
a JSON polynomial, checks it and builds its integer coordinates in one
pass.  With a step budget, ``truncate`` counts the digits of its
expansion, deg_x f // deg_x Q_i + 1, against it before it builds any.

The values are integer rows as well, over one denominator per chain: the
ground weights and every beta_i are put over the lcm of their
denominators once (a chain read from JSON gets them as rows), a term's
value is a sum of rows, and two values are ordered by the sign of their
row difference (``values._order``).  No
:class:`Value` is built inside the recursion; ``truncate`` turns its terms
into values once, at return, and ``validate_chain`` orders rows.

Chains are finite by construction; limit key polynomials do not exist in
residue characteristic zero, which this module encodes as a structural
assumption rather than a runtime check.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence

from .errors import (
    InvalidInputError,
    NonMonicDivisorError,
    StepBudgetExceededError,
    UnnormalizedLeadingCoefficientError,
    ZeroPolynomialError,
    quote,
)
from .framing import Frame
from .game import MonomialValuationSpec
from .polyalg import (
    MultiPoly,
    _expand_rows,
    _join_rows,
    _monic_rows,
    _places,
    _radix,
    _reassembles,
    _row_ops,
    _Rows,
    _split_rows,
    _unpack,
)
from .values import Value, _exponent_row, _order, _positive, _rows_of


class KeyPolyChain:
    """(Q_i, beta_i) entries over ground variables plus one distinguished x.
    Each Q_i is held over ``all_vars``, and all of them over one tower, so
    a chain built over another order of the variables is the same chain.
    A chain read from rows (``_of_rows``) builds its beta values only when
    ``entries`` or ``beta`` asks for them."""

    __slots__ = ("ground", "x", "qs", "_entries", "_row_cache")

    def __init__(
        self, ground: MonomialValuationSpec, x: str, entries: Sequence[tuple[MultiPoly, Value]]
    ):
        if x in ground.vars:
            raise InvalidInputError("x must not be a ground variable")
        if not entries:
            raise InvalidInputError("chain needs at least one entry")
        vars_ = ground.vars + (x,)
        entries = tuple((q.with_vars(vars_), beta) for q, beta in entries)
        tower = entries[0][0].tower
        if any(q.tower is not tower and q.tower != tower for q, _ in entries):
            raise InvalidInputError("polynomials live in different rings")
        self.ground, self.x, self._entries = ground, x, entries
        self.qs = tuple([q for q, _ in entries])
        self._row_cache = None

    @classmethod
    def _of_rows(cls, ground: MonomialValuationSpec, x: str, qs, betas, den) -> "KeyPolyChain":
        """The chain of the ``qs`` whose betas are the integer rows
        ``betas`` over ``den``, a multiple of the ground's denominator, in
        the ground's group, with the constructor's checks."""
        chain = cls(ground, x, [(q, None) for q in qs])
        frame = ground.frame()
        chain._entries = None
        chain._row_cache = _ChainRows(frame, x, chain.qs, betas, den, frame.group)
        return chain

    @property
    def entries(self) -> tuple[tuple[MultiPoly, Value], ...]:
        if self._entries is None:
            r = self._rows
            self._entries = tuple(zip(self.qs, [Value(b, r.den, r.group) for b in r.betas]))
        return self._entries

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
        return len(self.qs)

    def Q(self, i: int) -> MultiPoly:
        return self.qs[i - 1]

    def beta(self, i: int) -> Value:
        return self.entries[i - 1][1]

    def initial_frame(self) -> Frame:
        """The chart the chain lives in: the ground weights, and x worth
        beta_1, as rows over the one denominator of the chain's rows."""
        r, tower = self._rows, self.ground.frame().tower
        return Frame._of_rows(self.all_vars, (*r.rows, r.betas[0]), r.den, r.group, frozenset(), tower)

    @property
    def _rows(self) -> "_ChainRows":
        """The chain's truncation rows, made on first use."""
        if self._row_cache is None:
            ground = self.ground.frame()
            betas, den, group = _rows_of([b for _, b in self._entries], ground.den, ground.group)
            self._row_cache = _ChainRows(ground, self.x, self.qs, betas, den, group)
        return self._row_cache


class StandardExpansion(namedtuple("StandardExpansion", "level base coefficients")):
    """f = sum coefficients[j] * Q_level^j with Q_level-free coefficients."""

    __slots__ = ()

    def reassembles(self, f: MultiPoly) -> bool:
        """Whether sum c_j Q^j is exactly f: Horner's rule on x-dense rows
        over one denominator (x is the chain's last variable)."""
        return _reassembles(f, self.base, self.coefficients, self.base.vars[-1])


class _ChainRows:
    """Truncation on x-dense rows, made once per chain: each Q_i as a row
    divisor, split on first use (an unused level may be non-monic; the
    split is ``validate_chain``'s monic check too), and every value as an
    integer row over one denominator ``den``: the ground weights (``rows``)
    and each beta_i, put over the lcm of their denominators once.  A row sum
    is a value sum, and the sign of a row difference orders two values; no
    :class:`Value` is built here.  The splits and the ground rows are
    cached by packed key, for one packing at a time: with two or more
    ground variables a truncation whose f needs a larger radix repacks."""

    def __init__(self, ground: Frame, x: str, qs, betas, den: int, group):
        lift = den // ground.den
        self.rows = ground.rows
        if lift != 1:
            self.rows = tuple(tuple([lift * x for x in r]) for r in ground.rows)
        # the ground weights by generator, for ``_exponent_row``
        self.columns = tuple(zip(*self.rows))
        self.betas, self.den, self.group = betas, den, group
        self.x, self.qs = x, qs
        self.ops = _row_ops(qs[0].tower)
        # x is a chain's last variable
        self.xi = len(qs[0].vars) - 1
        self.pack(_radix(qs, qs, self.xi, 0))

    def pack(self, radix: Optional[int]) -> None:
        """Key the rows with ``radix`` from now on, and forget the splits
        and ground rows keyed with another."""
        self.radix, self.places = radix, _places(self.xi + 1, self.xi, radix)
        self.bases: dict[int, tuple[MultiPoly, int, _Rows]] = {}
        self.ground: dict[int, tuple[int, ...]] = {}

    def base(self, i: int) -> tuple[MultiPoly, int, _Rows]:
        """Q_i, its x-degree and its negated lower rows; a Q_i that is not
        monic in x of x-degree at least 1 raises NonMonicDivisorError."""
        base = self.bases.get(i)
        if base is None:
            q = self.qs[i - 1]
            base = self.bases[i] = (q, *_monic_rows(q, self.x, self.places, 1))
        return base

    def expand(self, rows: _Rows, i: int) -> list[_Rows]:
        """Level-i digits of ``rows``, which the expansion consumes."""
        _, d, neg_low = self.base(i)
        return _expand_rows(rows, d, neg_low, self.ops)

    def ground_value(self, keys: Iterable[int]) -> tuple[int, ...]:
        """Row of the monomial value of an x-free form given by the packed
        keys of its ground exponents: the least row among them."""
        best = None
        for e in keys:
            v = self.ground.get(e)
            if v is None:
                if not self.columns:
                    raise InvalidInputError("at least one weight is required")
                v = self.ground[e] = _exponent_row(_unpack(e, self.xi, self.radix), self.columns)
            if best is None or _order(v, best) < 0:
                best = v
        return best

    def term_values(self, digits: list[_Rows], i: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(j, row of j beta_i + value(c_j)) for the nonzero digits;
        consumes them."""
        beta = self.betas[i - 1]
        return tuple([
            (j, tuple([j * b + v for b, v in zip(beta, self.value(c, i - 1))]))
            for j, c in enumerate(digits)
            if c
        ])

    def level(self, digits: list[_Rows], i: int) -> tuple[tuple, int, tuple[int, ...]]:
        """``(terms, delta, minimum)`` of the level-i digits, which it
        consumes: the ``term_values``, the last index attaining the least
        term row, and that row."""
        terms = self.term_values(digits, i)
        delta, best = terms[0]
        for j, v in terms[1:]:
            order = _order(v, best)
            if order <= 0:
                delta = j
                if order < 0:
                    best = v
        return terms, delta, best

    def value(self, c: _Rows, level: int) -> tuple[int, ...]:
        """Row of the value of a Q_{level+1}-free standard form given by its
        (consumed) rows: the ground value at level 0, else its least level
        term value; at level 1 over a pure power x^d, that least term value
        read off the rows (``power_value``)."""
        if level == 0:
            return self.ground_value(chain.from_iterable(c.values()))
        if level == 1:
            _, d, neg_low = self.base(1)
            if not neg_low:
                return self.power_value(c, d)
        return self.level(self.expand(c, level), level)[2]

    def power_value(self, c: _Rows, d: int) -> tuple[int, ...]:
        """Row of the level-1 value of the nonzero rows ``c`` when Q_1 is
        x^d: the least ``(k // d) beta_1 + ground value of row k``, the
        least term value of the expansion with no digit built."""
        beta = self.betas[0]
        best = None
        for k, row in c.items():
            v = self.ground_value(row)
            j = k // d
            if j:
                v = tuple([j * b + x for b, x in zip(beta, v)])
            if best is None or _order(v, best) < 0:
                best = v
        return best


class Truncation(namedtuple("Truncation", "expansion terms value delta epsilon")):
    """One level-i standard expansion and the values it defines: the terms
    ``(j, j beta_i + value(c_j))`` of the nonzero coefficients in j order,
    their minimum, the largest index ``delta`` attaining it, and
    ``epsilon``, the least index above delta attaining the minimum over the
    indices above delta (None when there is none)."""

    __slots__ = ()


def truncate(
    f: MultiPoly, chain: KeyPolyChain, i: int, budget: Optional[int] = None
) -> Truncation:
    """Expand f once at level i and read off every truncation invariant.
    Only the level-i coefficients are built as polynomials; the values
    below are read off the digit rows, and the terms become values only
    here, at return.  With a ``budget``, an expansion of more digits than
    that, ``deg_x f // deg_x Q_i + 1``, raises StepBudgetExceededError
    before any digit is built."""
    if not 1 <= i <= len(chain):
        raise InvalidInputError(f"level {quote(i)} outside the chain")
    f = f.with_vars(chain.all_vars)
    rows = chain._rows
    xi = rows.xi
    if rows.radix is not None:  # two or more ground variables
        radix = _radix([f], rows.qs, xi, max(f.degree_in(chain.x), 0))
        if radix > rows.radix:
            rows.pack(radix)
    q, d, _ = rows.base(i)
    f._check(q)
    split = _split_rows(f, xi, rows.places)
    if budget is not None and max(split, default=-1) // d >= budget:
        raise StepBudgetExceededError(
            f"step budget exceeded ({budget} steps): "
            f"the level-{i} expansion needs more digits than that"
        )
    digits = rows.expand(split, i)
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no value")
    # the coefficients, before the values consume the digits
    exp = StandardExpansion(i, q, tuple([_join_rows(c, xi, f, rows.radix) for c in digits]))
    terms, delta, _ = rows.level(digits, i)
    # epsilon is the first index above delta attaining the minimum of what
    # is left
    above = [(j, v) for j, v in terms if j > delta]
    epsilon = None
    if above:
        epsilon, mu_plus = above[0]
        for j, v in above[1:]:
            if _order(v, mu_plus) < 0:
                epsilon, mu_plus = j, v
    den, group = rows.den, rows.group
    values = tuple([(j, Value(v, den, group)) for j, v in terms])
    best = next(v for j, v in values if j == delta)
    return Truncation(exp, values, best, delta, epsilon)


def truncated_valuation(f: MultiPoly, chain: KeyPolyChain, i: int) -> Value:
    """The i-truncation: min_j (j beta_i + value(c_{j,i}))."""
    return truncate(f, chain, i).value


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
    q_next = t.expansion.base + z
    jump = truncated_valuation(q_next, chain, i)
    if jump != chain.beta(i):
        raise AssertionError("augmented polynomial does not sit at the expected value")
    return z, q_next


def validate_chain(chain: KeyPolyChain) -> list[str]:
    """Named violations of the chain invariants; empty list when valid.
    The betas are ordered as the chain's rows, over one denominator; a
    beta of another group than the ground is a GroupMismatchError.  A Q_i
    is monic when truncation can split it (``_ChainRows.base``), the one
    check that division, expansion and reassembly make.

    No value-jump check is needed: once Q_i is monic of x-degree
    a * deg Q_(i-1) and Q_(i-1) is monic, the top Q_(i-1)-adic digit of
    Q_i is 1, so the level-(i-1) value of Q_i is at most a * beta_(i-1),
    and the slope check gives beta_i > a * beta_(i-1) (MacLane 1936)."""
    issues: list[str] = []
    x = chain.x
    rows = chain._rows
    q1 = chain.Q(1)
    if q1 != MultiPoly.variable(chain.all_vars, x, q1.tower):
        issues.append("q1-not-x")
    for i in range(1, len(chain) + 1):
        try:
            rows.base(i)
        except NonMonicDivisorError:
            issues.append(f"non-monic:Q_{i}")
    betas = rows.betas
    if not _positive(betas[0]):
        issues.append("beta-not-positive")
    # (deg Q_(i-1), deg Q_i) for i = 2 .. len(chain)
    degrees = [q.degree_in(x) for q in chain.qs]
    steps = list(zip(degrees, degrees[1:]))
    if any(d_prev <= 0 or d_cur % d_prev for d_prev, d_cur in steps):
        issues.append("degree-ratio")
    for i in range(2, len(chain) + 1):
        if _order(betas[i - 1], betas[i - 2]) <= 0:
            issues.append(f"beta-not-increasing:Q_{i}")
    for i, (d_prev, d_cur) in enumerate(steps, 2):
        if d_prev >= 1 and d_cur >= 1:
            # beta_i / d_cur against beta_(i-1) / d_prev, both times the
            # positive d_prev * d_cur
            slope_cur = [d_prev * y for y in betas[i - 1]]
            slope_prev = [d_cur * y for y in betas[i - 2]]
            if _order(slope_cur, slope_prev) <= 0:
                issues.append(f"slope-not-increasing:Q_{i}")
    return issues
