"""Small exact linear-algebra helpers over Fraction / int.

Matrices are sequences of rows.  Everything here is desk-scale
(n rarely above 8); one Gauss-Jordan elimination over Fraction, under the
solver and the pivot columns, is exact and fast enough.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def _reduce(m: list[list[Fraction]], cols: int) -> list[int]:
    """Gauss-Jordan elimination in place on the first ``cols`` columns: each
    pivot row is scaled to 1 and its column cleared in every other row, and
    the k-th pivot lands in row k.  Returns the pivot columns."""
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


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
    pivots = _reduce(m, cols)
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
    return _reduce([[Fraction(x) for x in row] for row in a], len(a[0]) if a else 0)
