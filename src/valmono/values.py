"""Exact arithmetic and ordering for value groups of finite rational rank.

A :class:`ValueGroup` fixes a rank ``r`` and an ordering mode.  In the
``sqrt-primes`` mode the group generators are interpreted as the real
numbers ``1, sqrt(2), sqrt(3), sqrt(5), ...`` (generator 1 is rational so
that plain rational values are representable; the remaining generators run
through square roots of the primes).  These reals are linearly independent
over Q, so a :class:`Value` is determined by its rational coordinate
vector and the group is archimedean of rational rank ``r``.

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

The ``lex`` mode orders coordinate vectors lexicographically and exists
for composite (rank >= 2) value groups.  Nothing refuses it: the blow-up
algorithms run on ``lex`` values as on any others, and nothing checks
those runs beyond replay (ROADMAP item 13).
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from itertools import islice, takewhile
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from . import _linalg
from .errors import (
    DegenerateBasisError,
    GroupMismatchError,
    InvalidInputError,
    NotInDivisibleHullError,
    SchemaError,
)

SQRT_PRIMES = "sqrt-primes"
LEX = "lex"

_INITIAL_BITS = 64


class Ordering(Enum):
    Less = -1
    Equal = 0
    Greater = 1


_BY_SIGN = (Ordering.Equal, Ordering.Greater, Ordering.Less)  # indexed by sign

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


def _sign(n: Sequence[int], ordering: str) -> int:
    """Sign of the value whose coordinates are a positive multiple of the
    integers ``n``."""
    if ordering == LEX:
        for c in n:
            if c:
                return 1 if c > 0 else -1
        return 0
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
# literal -> its (p, q): a problem repeats a few short literals many times.
# Filled at run time up to a fixed number of literals of bounded length,
# then only read.
_PARSED: dict[str, tuple[int, int]] = {}
_PARSED_ENTRIES = 1024
_PARSED_LENGTH = 16


def _literal(n: int, d: int) -> str:
    """The lowest-terms literal of ``n/d``, ``d > 0``."""
    if not n:
        return "0"
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def rational_from_str(s: str) -> tuple[int, int]:
    """Parse a ``"p/q"`` or ``"p"`` literal (ASCII digits, an optional
    leading minus, a nonzero denominator) to the integers ``(p, q)``, not
    reduced; anything else is a SchemaError.  A short literal parsed
    before is answered from ``_PARSED``."""
    if not isinstance(s, str):
        raise SchemaError(f"rational must be a 'p/q' string, got {s!r}")
    pq = _PARSED.get(s)
    if pq is not None:
        return pq
    if _RATIONAL.fullmatch(s) is None:
        raise SchemaError(f"bad rational {s!r}")
    num, _, den = s.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError:  # more digits than int() reads
        raise SchemaError(f"bad rational {s!r}") from None
    if not q:
        raise SchemaError(f"bad rational {s!r}")
    if len(s) <= _PARSED_LENGTH and len(_PARSED) < _PARSED_ENTRIES:
        _PARSED[s] = p, q
    return p, q


def _exact(q) -> tuple[int, int]:
    """``(p, q)`` of an exact rational input: an int, a Fraction or a
    ``"p/q"`` literal.  Floats and bools are rejected, not rounded."""
    if isinstance(q, int) and not isinstance(q, bool):
        return q, 1
    if isinstance(q, Fraction):
        return q.numerator, q.denominator
    if isinstance(q, str):
        return rational_from_str(q)
    raise InvalidInputError(f"a rational must be an int, a Fraction or a 'p/q' string, not {q!r}")


class ValueGroup:
    """Ordered group of finite rational rank with a fixed generator basis.

    ``labels`` name the generators.  The default labels ``g1..gr`` are held
    as ``()`` and spelled out only by ``to_json``, so a group costs no
    memory per generator until a value is built in it; a group given those
    labels explicitly is the same group."""

    __slots__ = ("rank", "ordering", "labels")

    def __init__(self, rank: int, ordering: str = SQRT_PRIMES, labels: Sequence[str] = ()):
        if rank < 1:
            raise InvalidInputError("rank must be >= 1")
        if ordering not in (SQRT_PRIMES, LEX):
            raise InvalidInputError(f"unknown ordering {ordering!r}")
        labels = tuple(labels)
        if labels:
            if len(labels) != rank or len(set(labels)) != rank:
                raise InvalidInputError("labels must be pairwise distinct, one per generator")
            if all(label == f"g{i}" for i, label in enumerate(labels, 1)):
                labels = ()
        self.rank, self.ordering, self.labels = rank, ordering, labels

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rank, self.ordering, self.labels) == (other.rank, other.ordering, other.labels)

    def __hash__(self):
        return hash((self.rank, self.ordering, self.labels))

    def __repr__(self):
        return f"ValueGroup(rank={self.rank!r}, ordering={self.ordering!r}, labels={self.labels!r})"

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
        """The rational value q * (first generator); in sqrt-primes mode the
        first generator is 1, so this is the embedding of Q."""
        return self.value([q] + [0] * (self.rank - 1))

    def zero(self) -> "Value":
        return self.value([0] * self.rank)

    def to_json(self) -> dict:
        labels = self.labels or [f"g{i}" for i in range(1, self.rank + 1)]
        return {"rank": self.rank, "ordering": self.ordering, "labels": list(labels)}


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
        unless the denominators agree."""
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

    def __neg__(self) -> "Value":
        return Value(tuple(-n for n in self.nums), self.den, self.group)

    def scale(self, q: Fraction | int | str) -> "Value":
        p, d = _exact(q)
        return Value(tuple(p * n for n in self.nums), self.den * d, self.group)

    __rmul__ = __mul__ = scale

    def is_zero(self) -> bool:
        return not any(self.nums)

    def sign(self) -> int:
        return _sign(self.nums, self.group.ordering)

    def is_positive(self) -> bool:
        return self.sign() > 0

    def __lt__(self, other):
        return compare(self, other) is Ordering.Less

    def __le__(self, other):
        return compare(self, other) is not Ordering.Greater

    def __gt__(self, other):
        return compare(self, other) is Ordering.Greater

    def __ge__(self, other):
        return compare(self, other) is not Ordering.Less

    def to_json(self) -> dict:
        return {"coords": [_literal(n, self.den) for n in self.nums]}

    def __repr__(self):
        return f"Value({', '.join(self.to_json()['coords'])})"


def compare(a: Value, b: Value) -> Ordering:
    """Total order on the group; exact.  ``x * db - y * da`` has the sign
    of ``x / da - y / db`` because both denominators are positive."""
    if a.group is not b.group:
        a._check(b)
    da, db = a.den, b.den
    if da == db:
        n = list(map(sub, a.nums, b.nums))
    else:
        n = [x * db - y * da for x, y in zip(a.nums, b.nums)]
    return _BY_SIGN[_sign(n, a.group.ordering)]


def value_of_exponent(alpha: Sequence[int], weights: Sequence[Value]) -> Value:
    """sum(alpha[i] * weights[i]); the value of the monomial u^alpha."""
    if len(alpha) != len(weights):
        raise InvalidInputError("exponent length must match the number of weights")
    if not weights:
        raise InvalidInputError("at least one weight is required")
    group = weights[0].group
    for w in weights[1:]:
        if w.group is not group and w.group != group:
            raise GroupMismatchError("group mismatch")
    # integer numerators over the used weights' common denominator
    used = [(a, w) for a, w in zip(alpha, weights) if a]
    den = lcm(*[w.den for _, w in used])
    nums = [0] * group.rank
    for a, w in used:
        k = a * (den // w.den)
        for i, n in enumerate(w.nums):
            nums[i] += k * n
    return Value(tuple(nums), den, group)


def min_integer_multiple_in_lattice(
    target: Value, basis: Sequence[Value]
) -> tuple[int, tuple[int, ...]]:
    """Smallest m >= 1 with m*target in the Z-lattice spanned by ``basis``,
    together with the integer coefficients of m*target in that basis.

    The basis must be Q-linearly independent and the target must lie in its
    Q-span.  One integer elimination on the numerators gives the rank and
    the solution y of ``sum_j nums_j y_j = target.nums``; the coefficients
    are then ``y_j * den_j / target.den``.
    """
    if not basis:
        raise DegenerateBasisError("degenerate basis")
    group = target.group
    for b in basis:
        if b.group != group:
            raise GroupMismatchError("group mismatch")
    # columns = basis numerators, rows = group coordinates
    y, rank = _linalg.solve_rational(tuple(zip(*(b.nums for b in basis))), target.nums)
    if rank < len(basis):
        raise DegenerateBasisError("degenerate basis")
    if y is None:
        raise NotInDivisibleHullError("not in divisible hull")
    x = [Fraction(q.numerator * b.den, q.denominator * target.den) for q, b in zip(y, basis)]
    m = lcm(*(q.denominator for q in x))
    return m, tuple(q.numerator * (m // q.denominator) for q in x)
