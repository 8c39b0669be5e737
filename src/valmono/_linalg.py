"""Small exact linear-algebra helpers over the integers.

Matrices are sequences of rows.  Everything here is desk-scale
(n rarely above 8).  The solver and the pivot columns share one
fraction-free Gauss-Jordan elimination (Bareiss): each row is scaled to
integers first, every update divides exactly by the previous pivot, and
only the solution is made of Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence


def _integer_rows(rows: Iterable[Sequence]) -> list[list[int]]:
    """Each row of ints or Fractions times the lcm of its denominators."""
    out = []
    for row in rows:
        d = lcm(*[q.denominator for q in row])
        out.append([q.numerator * (d // q.denominator) for q in row])
    return out


def _reduce(m: list[list[int]], cols: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination in place on the first ``cols``
    columns of an integer matrix: the k-th pivot lands in row k and its
    column is cleared in every other row by ``(p * x - f * y) // prev``,
    an exact division by the previous pivot (Bareiss), so that every
    pivot row ends with the last pivot.  Returns the pivot columns."""
    pivots: list[int] = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        row = m[r]
        p = row[c]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], row)]
        prev = p
        pivots.append(c)
    return pivots


def solve_rational(
    a: Sequence[Sequence[int | Fraction]], b: Sequence[int | Fraction]
) -> tuple[Optional[tuple[Fraction, ...]], int]:
    """Solve A x = b exactly (A is rows x cols, possibly rectangular, its
    entries ints or Fractions), and give the rank of A from the same
    elimination.

    The solution is None when the system is inconsistent.  When it is
    underdetermined the free variables are set to 0; a caller that needs a
    unique solution checks that the rank is the column count.
    """
    cols = len(a[0]) if a else 0
    m = _integer_rows([*row, y] for row, y in zip(a, b))
    pivots = _reduce(m, cols)
    rank = len(pivots)
    if any(row[cols] for row in m[rank:]):
        return None, rank
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = Fraction(m[r][cols], m[r][c])
    return tuple(x), rank


def pivot_columns(a: Sequence[Sequence[int | Fraction]]) -> list[int]:
    """The pivot columns of one elimination of A: greedily by index, the
    maximal linearly independent subset of its columns."""
    return _reduce(_integer_rows(a), len(a[0]) if a else 0)
