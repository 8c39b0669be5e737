"""Small exact linear-algebra helpers over Fraction / int.

Matrices are tuples of row tuples.  Everything here is desk-scale
(n rarely above 8); one Gauss-Jordan elimination over Fraction, under the
determinant, the integral inverse, the solver and the rank, is exact and
fast enough.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import InvalidInputError

Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    k = len(b)
    if any(len(row) != k for row in a):
        raise InvalidInputError("matrix shapes do not match for a product")
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


def _reduce(m: list[list[Fraction]], cols: int) -> tuple[list[int], Fraction]:
    """Gauss-Jordan elimination in place on the first ``cols`` columns: each
    pivot row is scaled to 1 and its column cleared in every other row, and
    the k-th pivot lands in row k.  Returns the pivot columns and the
    determinant factor (the product of the pivots, signed by the row swaps)."""
    pivots: list[int] = []
    d = Fraction(1)
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            d = -d
        d *= m[r][c]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, d


def det(a: Sequence[Sequence[int]]) -> Fraction:
    """Exact determinant of a square matrix."""
    pivots, d = _reduce([[Fraction(x) for x in row] for row in a], len(a))
    return d if len(pivots) == len(a) else Fraction(0)


def inverse_int(a: Sequence[Sequence[int]]) -> Optional[Matrix]:
    """Inverse of an integer matrix when the inverse is again integral
    (the unimodular case); None if singular or non-integral."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(y) for y in unit] for row, unit in zip(a, identity(n))]
    if len(_reduce(m, n)[0]) < n:
        return None
    if any(x.denominator != 1 for row in m for x in row[n:]):
        return None
    return tuple(tuple(int(x) for x in row[n:]) for row in m)


def solve_rational(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[Optional[tuple[Fraction, ...]], int]:
    """Solve A x = b exactly (A is rows x cols, possibly rectangular), and
    give the rank of A from the same elimination.

    The solution is None when the system is inconsistent.  When it is
    underdetermined the free variables are set to 0; a caller that needs a
    unique solution checks that the rank is the column count.
    """
    cols = len(a[0]) if a else 0
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    pivots, _ = _reduce(m, cols)
    rank = len(pivots)
    if any(row[cols] != 0 for row in m[rank:]):
        return None, rank
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = m[r][cols]
    return tuple(x), rank


def pivot_columns(a: Sequence[Sequence[Fraction]]) -> list[int]:
    """The pivot columns of one elimination of A: greedily by index, the
    maximal linearly independent subset of its columns."""
    return _reduce([[Fraction(x) for x in row] for row in a], len(a[0]) if a else 0)[0]
