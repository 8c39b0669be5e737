"""Exact arithmetic and ordering for value groups of finite rational rank.

A :class:`ValueGroup` with ``rank`` r is the subgroup of the reals
generated by the r numbers ``1, sqrt(2), sqrt(3), sqrt(5), ...`` (the
``sqrt-primes`` group: generator 1 is rational so that plain rational
values are representable; the remaining generators run through square
roots of the primes).  These reals are linearly independent over Q, so a
:class:`Value` is determined by its rational coordinate vector; as an
ordered group it is of rank 1 (archimedean), and r is its rational rank.
Groups of higher rank are not represented: the reduction of local
uniformization to rank 1 is not implemented (ROADMAP item 13).

A :class:`Value` holds its coordinates as integer numerators ``nums`` over
one positive denominator ``den``, in lowest terms (``gcd(den, *nums) ==
1``).  The form is canonical, so equal values are ``==`` and hash equal.
Arithmetic works on the integers and reduces once per result; ``coords``
gives the coordinates as Fractions for the cold paths that want them.
Only exact inputs build a value: ints, Fractions and ``"p/q"`` literals,
never floats or bools.

Sign decisions are made in integers.  The sign of a value is that of
``sum(n_i * sqrt(p_i))`` over its numerators ``n_i``; two values are
compared through ``x_i * db - y_i * da``, a positive multiple of their
difference.  All ``n_i == 0`` is zero (Q-linear independence).  When every
nonzero ``n_i`` has the same sign, that is the answer; this covers rank 1
and every rational value.  Otherwise each ``sqrt(p_i)`` is bracketed by its
integer ``isqrt`` floor at ``k`` fractional bits (one cached row of floors
per ``k``, as long as the largest rank seen), starting at 64 bits and
doubling until the bracket of the sum excludes zero, which happens because
the sum is a nonzero algebraic number.

A bracket ``(mid, pad)`` of an integer row ``r`` keeps that first 64-bit
step for reuse (``_bracket``): ``mid = (r_0 << 64) + sum(r_k * s_k)`` over
the floors ``s_k`` of ``sqrt(p_k) * 2**64``, and ``pad = sum |r_k|`` over
the irrational coordinates.  ``2**64`` times the row's value lies strictly
within ``pad`` of ``mid``, and equals ``mid`` when ``pad`` is 0 (every
rank-1 row).  ``mid`` is linear in the row, so ``(mid_a - mid_b, pad_a +
pad_b)`` is a bracket of ``a - b`` and ``(m * mid, m * pad)`` one of ``m * a``
for an integer ``m > 0``: a frame derives the brackets of the rows a step
makes from those it had.  Two brackets decide the order of their rows
when they are apart, ``|mid_a - mid_b| > pad_a + pad_b``; only when they
overlap does the exact kernel run.

The engines decide on integer rows over one denominator (``_rows_of``):
``_order``, ``_positive``, ``_exponent_row`` and ``_row_lattice``.
``compare``, ``value_of_exponent`` and ``min_integer_multiple_in_lattice``
are views of those kernels for :class:`Value` objects.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice, takewhile
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence

from . import _linalg
from .errors import (
    DegenerateBasisError,
    GroupMismatchError,
    InvalidInputError,
    NotInDivisibleHullError,
    SchemaError,
    quote,
)

SQRT_PRIMES = "sqrt-primes"

_INITIAL_BITS = 64


# Radicands of the sqrt-primes generators: 1 (the rational unit), then the
# primes in order; grown on demand to the largest rank seen.
_RADICANDS = [1]
# bits -> the floors isqrt(p << 2 * bits) of sqrt(p) at `bits` fractional
# bits, one per radicand p after 1; at most one row per doubling.
_FLOOR_ROWS: dict[int, tuple[int, ...]] = {}


def _radicands(rank: int) -> list[int]:
    rads = _RADICANDS
    n = rads[-1] + 1
    while len(rads) < rank:
        # n is prime when no prime up to its square root divides it
        if all(n % p for p in takewhile(isqrt(n).__ge__, islice(rads, 1, None))):
            rads.append(n)
        n += 1
    return rads


def _floor_row(bits: int, rank: int) -> tuple[int, ...]:
    """The floors at ``bits`` of the first ``rank - 1`` irrational
    generators, or more; rebuilt when a higher rank asks for it."""
    row = _FLOOR_ROWS.get(bits)
    if row is None or len(row) < rank - 1:
        row = _FLOOR_ROWS[bits] = tuple(isqrt(p << (2 * bits)) for p in _radicands(rank)[1:])
    return row


# 2**64, then the floors of the irrational generators at 64 bits: the
# weights of a bracket's mid, grown in place to the largest rank seen.
_MID_WEIGHTS = [1 << _INITIAL_BITS]


def _bracket(row: Sequence[int]) -> tuple[int, int]:
    """``(mid, pad)`` of an integer row: ``2**64`` times its value lies
    strictly within ``pad`` of ``mid``, and equals ``mid`` when ``pad`` is
    0.  The first step of ``_sign``, made once per row by its holder."""
    weights = _MID_WEIGHTS
    if len(weights) < len(row):
        weights[1:] = _floor_row(_INITIAL_BITS, len(row))
    return sum(map(mul, row, weights)), sum(map(abs, row)) - abs(row[0])


def _sign(n: Sequence[int]) -> int:
    """Sign of the value whose coordinates are a positive multiple of the
    integers ``n``."""
    n0, tail = n[0], n[1:]
    # sqrt(p_i) lies in (s_i, s_i + 1) / 2**bits for i >= 1, so the sum lies
    # in [mid + low_pad, mid + high_pad] with mid = sum(n_i * s_i) / 2**bits;
    # the pads are the sums of the positive and of the negative n_i
    total, size = sum(tail), sum(map(abs, tail))
    high_pad = (size + total) >> 1
    low_pad = (total - size) >> 1
    if n0 >= 0 and not low_pad:
        return 1 if n0 or high_pad else 0
    if n0 <= 0 and not high_pad:
        return -1
    bits = _INITIAL_BITS
    while True:
        mid = (n0 << bits) + sum(map(mul, tail, _floor_row(bits, len(n))))
        if mid + low_pad > 0:
            return 1
        if mid + high_pad < 0:
            return -1
        # zero is inside the bracket: refine (terminates, the sum is a
        # nonzero algebraic number)
        bits *= 2


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
# literal -> its ((p, q), lowest-terms literal): a problem repeats a few
# short literals many times.  Filled at run time up to a fixed number of
# literals of bounded length, then only read.
_PARSED: dict[str, tuple[tuple[int, int], str]] = {}
_PARSED_ENTRIES = 1024
_PARSED_LENGTH = 16


def _literal(n: int, d: int) -> str:
    """The lowest-terms literal of ``n/d``, ``d != 0``, with a positive
    denominator; no gcd is taken when ``d`` divides ``n``.  An integer with
    more digits than ``str`` writes is an invalid input."""
    if not n:
        return "0"
    try:
        if not n % d:
            return str(n // d)
        g = gcd(n, d) if d > 0 else -gcd(n, d)
        return f"{n // g}/{d // g}"
    except ValueError:  # the interpreter's int-to-str digit limit
        raise InvalidInputError("a rational has too many digits to write") from None


def rational_from_str(s: str) -> tuple[int, int]:
    """Parse a ``"p/q"`` or ``"p"`` literal (ASCII digits, an optional
    leading minus, a nonzero denominator) to the integers ``(p, q)``, not
    reduced; anything else is a SchemaError."""
    return _rational(s)[0]


def _rational(s: str) -> tuple[tuple[int, int], str | None]:
    """``(rational_from_str(s), literal)``.  A short literal parsed before
    is answered from ``_PARSED``, which also holds the lowest-terms literal
    of ``p/q``, as ``_literal`` writes it; the literal is made only for an
    entry of the memo, and is None otherwise."""
    if not isinstance(s, str):
        raise SchemaError(f"rational must be a 'p/q' string, got {quote(s)}")
    hit = _PARSED.get(s)
    if hit is not None:
        return hit
    if _RATIONAL.fullmatch(s) is None:
        raise SchemaError(f"bad rational {quote(s)}")
    num, _, den = s.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError:  # more digits than int() reads
        raise SchemaError(f"bad rational {quote(s)}") from None
    if not q:
        raise SchemaError(f"bad rational {quote(s)}")
    if len(s) <= _PARSED_LENGTH and len(_PARSED) < _PARSED_ENTRIES:
        hit = _PARSED[s] = (p, q), _literal(p, q)
        return hit
    return (p, q), None


def _rationals(literals: list) -> list[tuple[tuple[int, int], str | None]]:
    """``_rational`` of each of ``literals``.  A list whose literals the
    memo holds is answered by one lookup per literal, in C."""
    try:
        hits = list(map(_PARSED.get, literals))
        if None not in hits:
            return hits
    except TypeError:  # an unhashable entry, which _rational refuses
        pass
    return list(map(_rational, literals))


def _exact(q) -> tuple[int, int]:
    """``(p, q)`` of an exact rational input: an int, a Fraction or a
    ``"p/q"`` literal.  Floats and bools are rejected, not rounded."""
    if isinstance(q, int) and not isinstance(q, bool):
        return q, 1
    if isinstance(q, Fraction):
        return q.numerator, q.denominator
    if isinstance(q, str):
        return rational_from_str(q)
    raise InvalidInputError(
        f"a rational must be an int, a Fraction or a 'p/q' string, not {quote(q)}"
    )


class ValueGroup:
    """The sqrt-primes group of rank ``rank``, with a fixed generator basis.

    ``labels`` name the generators.  The default labels ``g1..gr`` are held
    as ``()`` and spelled out only by ``to_json``, so a group costs no
    memory per generator until a value is built in it; a group given those
    labels explicitly is the same group."""

    __slots__ = ("rank", "labels")

    def __init__(self, rank: int, labels: Sequence[str] = ()):
        if rank < 1:
            raise InvalidInputError("rank must be >= 1")
        labels = tuple(labels)
        if labels:
            if len(labels) != rank or len(set(labels)) != rank:
                raise InvalidInputError("labels must be pairwise distinct, one per generator")
            if labels == _default_labels(rank):
                labels = ()
        self.rank, self.labels = rank, labels

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rank, self.labels) == (other.rank, other.labels)

    def __hash__(self):
        return hash((self.rank, self.labels))

    def __repr__(self):
        return f"ValueGroup(rank={self.rank!r}, labels={self.labels!r})"

    def value(self, coords: Iterable[Fraction | int | str]) -> "Value":
        """The value with these coordinates, each an int, a Fraction or a
        ``"p/q"`` literal."""
        return self.of_pairs([_exact(c) for c in coords])

    def of_pairs(self, pairs: Sequence[tuple[int, int]]) -> "Value":
        """The value with coordinates ``p/q``, one ``(p, q)`` pair each
        (``q`` nonzero), over the lcm of the ``q``."""
        den = lcm(*[q for _, q in pairs])
        return Value(tuple(p * (den // q) for p, q in pairs), den, self)

    def rational(self, q: Fraction | int | str) -> "Value":
        """The rational value q * (first generator); the first generator
        is 1, so this is the embedding of Q."""
        return self.value([q] + [0] * (self.rank - 1))

    def to_json(self) -> dict:
        labels = self.labels or _default_labels(self.rank)
        return {"rank": self.rank, "ordering": SQRT_PRIMES, "labels": list(labels)}


# rank -> the default labels g1..g<rank>, for ranks up to _LABELS_LIMIT;
# never handed out, only compared and copied.
_LABELS: dict[int, tuple[str, ...]] = {}
_LABELS_LIMIT = 64


def _default_labels(rank: int) -> tuple[str, ...]:
    labels = _LABELS.get(rank)
    if labels is None:
        labels = tuple([f"g{i}" for i in range(1, rank + 1)])
        if rank <= _LABELS_LIMIT:
            _LABELS[rank] = labels
    return labels


class Value:
    """Element of a :class:`ValueGroup`: the coordinates ``nums[i] / den``.
    Any integers with ``den != 0`` may be given; they are stored in lowest
    terms with ``den > 0``."""

    __slots__ = ("nums", "den", "group")

    def __init__(self, nums: tuple[int, ...], den: int, group: ValueGroup):
        if len(nums) != group.rank:
            raise InvalidInputError("coordinate count must equal the group rank")
        if not den:
            raise InvalidInputError("denominator must be nonzero")
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums, den = tuple(n // g for n in nums), den // g
        self.nums, self.den, self.group = nums, den, group

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nums, self.den, self.group) == (other.nums, other.den, other.group)

    def __hash__(self):
        return hash((self.nums, self.den, self.group))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def _check(self, other: "Value") -> None:
        if self.group is not other.group and self.group != other.group:
            raise GroupMismatchError("group mismatch")

    def _combine(self, other: "Value", op) -> "Value":
        """``op`` (add or sub) coordinate by coordinate, over ``da * db``
        unless the denominators agree; NotImplemented for a non-value."""
        if other.__class__ is not Value:
            return NotImplemented
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            return Value(tuple(map(op, self.nums, other.nums)), da, self.group)
        xs, ys = [x * db for x in self.nums], [y * da for y in other.nums]
        return Value(tuple(map(op, xs, ys)), da * db, self.group)

    def __add__(self, other: "Value") -> "Value":
        return self._combine(other, add)

    def __sub__(self, other: "Value") -> "Value":
        return self._combine(other, sub)

    def scale(self, q: Fraction | int | str) -> "Value":
        p, d = _exact(q)
        return Value(tuple(p * n for n in self.nums), self.den * d, self.group)

    __rmul__ = __mul__ = scale

    def sign(self) -> int:
        return _sign(self.nums)

    def is_positive(self) -> bool:
        return self.sign() > 0

    # a value orders only against a value: anything else is a TypeError
    def __lt__(self, other):
        return compare(self, other) < 0 if other.__class__ is Value else NotImplemented

    def __le__(self, other):
        return compare(self, other) <= 0 if other.__class__ is Value else NotImplemented

    def __gt__(self, other):
        return compare(self, other) > 0 if other.__class__ is Value else NotImplemented

    def __ge__(self, other):
        return compare(self, other) >= 0 if other.__class__ is Value else NotImplemented

    def to_json(self) -> dict:
        return {"coords": [_literal(n, self.den) for n in self.nums]}

    def __repr__(self):
        return f"Value({', '.join(self.to_json()['coords'])})"


def compare(a: Value, b: Value) -> int:
    """The sign (-1, 0 or 1) of ``a - b``: the total order on the group,
    exact.  ``x * db - y * da`` has the sign of ``x / da - y / db``
    because both denominators are positive."""
    if a.group is not b.group:
        a._check(b)
    da, db = a.den, b.den
    return _order([x * db for x in a.nums], [y * da for y in b.nums])


def _rows_of(weights, den: int = 1, group: Optional[ValueGroup] = None):
    """``(rows, den, group)``: ``weights`` (Values, or None for an undeclared
    weight) as integer rows over the lcm of ``den`` and their denominators.
    Weights of another group than ``group`` are a GroupMismatchError."""
    for w in weights:
        if w is not None:
            if group is None:
                group = w.group
            elif w.group is not group and w.group != group:
                raise GroupMismatchError("group mismatch")
            den = lcm(den, w.den)
    rows = tuple(None if w is None else tuple(x * (den // w.den) for x in w.nums) for w in weights)
    return rows, den, group


def _positive(row: Sequence[int]) -> bool:
    """Whether the value of an integer row over a positive denominator is
    positive."""
    return _sign(row) > 0


def _order(a: Sequence[int], b: Sequence[int]) -> int:
    """The sign (-1, 0 or 1) of ``a - b`` for two integer rows over one
    denominator: the order of the values they stand for.  Rank-1 rows are
    two rationals over one denominator, compared as integers."""
    if len(a) == 1:
        x, y = a[0], b[0]
        return (x > y) - (x < y)
    return _sign(list(map(sub, a, b)))


def _exponent_row(alpha: Sequence[int], columns: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The row of the value of u^alpha, from the weight rows of its
    variables given by generator (``columns[k][i]`` is coordinate k of the
    weight of u_i): one dot product per generator."""
    return tuple([sum(map(mul, alpha, col)) for col in columns])


def _row_lattice(
    target: Sequence[int], basis: Sequence[Sequence[int]]
) -> tuple[int, tuple[int, ...]]:
    """Smallest m >= 1 with m*target in the Z-lattice spanned by ``basis``,
    with the integer coefficients of m*target in that basis, for integer
    rows over one denominator, which cancels.  One elimination on the rows
    gives the rank and the solution; a Q-dependent basis is reported
    before a target outside its Q-span."""
    if not basis:
        raise DegenerateBasisError("degenerate basis")
    # columns = basis rows, rows = group coordinates
    y, rank = _linalg.solve_rational(tuple(zip(*basis)), target)
    if rank < len(basis):
        raise DegenerateBasisError("degenerate basis")
    if y is None:
        raise NotInDivisibleHullError("not in divisible hull")
    m = lcm(*(q.denominator for q in y))
    return m, tuple(q.numerator * (m // q.denominator) for q in y)


def value_of_exponent(alpha: Sequence[int], weights: Sequence[Value]) -> Value:
    """sum(alpha[i] * weights[i]); the value of the monomial u^alpha."""
    if len(alpha) != len(weights):
        raise InvalidInputError("exponent length must match the number of weights")
    if not weights:
        raise InvalidInputError("at least one weight is required")
    rows, den, group = _rows_of(weights)
    return Value(_exponent_row(alpha, tuple(zip(*rows))), den, group)


def min_integer_multiple_in_lattice(
    target: Value, basis: Sequence[Value]
) -> tuple[int, tuple[int, ...]]:
    """Smallest m >= 1 with m*target in the Z-lattice spanned by ``basis``,
    together with the integer coefficients of m*target in that basis.

    The basis must be Q-linearly independent and the target must lie in its
    Q-span: ``_row_lattice`` on the rows over one denominator."""
    (row, *rows), _, _ = _rows_of((target, *basis))
    return _row_lattice(row, rows)
