"""The one elimination in ``_linalg`` against the separate solver and rank
eliminations it replaced, pasted below verbatim, and its fraction-free
form against the Gauss-Jordan elimination over Fraction before it
(``conftest.old_reduce``), on seeded square, rectangular, inconsistent and
rank-deficient inputs.  The previous determinant, integral inverse and
integer products live on in ``conftest`` as the oracles of the
unimodularity tests."""

import random
from fractions import Fraction
from typing import Optional, Sequence

from conftest import old_reduce, old_solve
from valmono import _linalg

# -- the previous routines, unchanged ------------------------------------


def old_solve_rational(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Optional[tuple[Fraction, ...]]:
    """Solve A x = b exactly (A is rows x cols, possibly rectangular).

    Returns None when the system is inconsistent.  When the solution is
    underdetermined the free variables are set to 0; callers that need a
    unique solution must check column rank themselves.
    """
    rows, cols = len(a), len(a[0]) if a else 0
    m = [list(row) + [b[i]] for i, row in enumerate(a)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for pr, pc in pivots:
        x[pc] = m[pr][cols]
    return tuple(x)


def old_rank_rational(a: Sequence[Sequence[Fraction]]) -> int:
    rows = [list(row) for row in a]
    cols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- differential checks -------------------------------------------------


def _matrix(rng, rows, cols, lo=-3, hi=3):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def test_solve_and_rank_match_previous_routines():
    rng = random.Random(72)
    seen = {"inconsistent": 0, "solved": 0, "rectangular": 0, "rank-deficient": 0}
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = tuple(tuple(Fraction(x, rng.randint(1, 3)) for x in r) for r in _matrix(rng, rows, cols))
        if rng.random() < 0.3 and rows >= 2:  # a repeated row makes room for inconsistency
            a = a[:-1] + (a[0],)
        b = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rows))
        assert len(_linalg.pivot_columns(a)) == old_rank_rational(a)
        # one elimination gives both the solution and the rank
        assert _linalg.solve_rational(a, b) == (old_solve_rational(a, b), old_rank_rational(a))
        seen["rectangular"] += rows != cols
        seen["rank-deficient"] += old_rank_rational(a) < min(rows, cols)
        seen["inconsistent" if old_solve_rational(a, b) is None else "solved"] += 1
    assert min(seen.values()) > 10
    assert len(_linalg.pivot_columns(())) == old_rank_rational(()) == 0
    assert _linalg.solve_rational((), ()) == (old_solve_rational((), ()), 0) == ((), 0)


def test_fraction_free_elimination_matches_gauss_jordan():
    rng = random.Random(73)
    seen = {"inconsistent": 0, "solved": 0, "rectangular": 0, "singular": 0}
    for k in range(400):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        hi = (1, 3, 50, 10**6)[k % 4]
        a = [list(r) for r in _matrix(rng, rows, cols, -hi, hi)]
        if rng.random() < 0.4 and min(rows, cols) >= 2:  # singular: the last row or
            # column (whichever there are fewer of) a combination of the others
            t = rng.randint(-2, 2)
            j = rng.randrange(min(rows, cols) - 1)
            if rows <= cols:
                a[-1] = [t * x + y for x, y in zip(a[0], a[j])]
            else:
                for r in a:
                    r[cols - 1] = t * r[0] + r[j]
        b = [rng.randint(-hi, hi) for _ in range(rows)]
        if k % 5 == 0:  # Fraction entries are scaled to integer rows first
            a = [[Fraction(x, rng.randint(1, 4)) for x in r] for r in a]
        m = [list(r) + [y] for r, y in zip(_linalg._integer_rows(a), b)]
        pivots = _linalg._reduce(m, cols)
        # every entry stays an integer, and the rank and pivots agree
        assert all(type(x) is int for r in m for x in r)
        assert pivots == old_reduce([[Fraction(x) for x in r] for r in a], cols)
        assert _linalg.pivot_columns(a) == pivots
        want = old_solve(a, b)
        assert _linalg.solve_rational(a, b) == want
        seen["rectangular"] += rows != cols
        seen["singular"] += want[1] < min(rows, cols)
        seen["inconsistent" if want[0] is None else "solved"] += 1
    assert min(seen.values()) > 20
