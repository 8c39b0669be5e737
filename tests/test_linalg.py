"""The one Gauss-Jordan elimination in ``_linalg`` against the four
separate eliminations it replaced, pasted below verbatim, on seeded
square, singular, rectangular, inconsistent and non-unimodular inputs;
and the integer products against the index comprehensions they replaced."""

import random
from fractions import Fraction
from typing import Optional, Sequence

import pytest

from valmono import _linalg
from valmono.errors import InvalidInputError
from valmono._linalg import Matrix

# -- the previous routines, unchanged ------------------------------------


def old_det(a: Sequence[Sequence[int]]) -> Fraction:
    """Exact determinant via fraction-free-ish Gaussian elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        d *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return sign * d


def old_inverse_int(a: Sequence[Sequence[int]]) -> Optional[Matrix]:
    """Inverse of an integer matrix when the inverse is again integral
    (the unimodular case); None if singular or non-integral."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            x = m[i][n + j]
            if x.denominator != 1:
                return None
            row.append(int(x))
        out.append(tuple(row))
    return tuple(out)


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


def old_mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def old_mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(a[i][t] * v[t] for t in range(len(v))) for i in range(len(a)))


# -- differential checks -------------------------------------------------


def _matrix(rng, rows, cols, lo=-3, hi=3):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def _singular(rng, n):
    """A square matrix whose last row is a combination of the others."""
    m = [list(r) for r in _matrix(rng, n - 1, n)]
    coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
    m.append([sum(c * r[j] for c, r in zip(coeffs, m)) for j in range(n)])
    rng.shuffle(m)
    return tuple(tuple(r) for r in m)


def _unimodular(rng, n):
    m = [list(r) for r in _linalg.identity(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-2, 2)
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return tuple(tuple(r) for r in m)


def _square_cases(rng):
    for _ in range(150):
        n = rng.randint(1, 5)
        kind = rng.randrange(4)
        if kind == 0:
            yield _matrix(rng, n, n)
        elif kind == 1 and n >= 2:
            yield _singular(rng, n)
        elif kind == 2:
            yield _unimodular(rng, n)
        else:  # non-unimodular: a unimodular matrix with one row scaled
            m = [list(r) for r in _unimodular(rng, n)]
            m[rng.randrange(n)] = [rng.choice((2, 3, -2)) * x for x in m[rng.randrange(n)]]
            yield tuple(tuple(r) for r in m)
    yield ()


def test_det_and_inverse_match_previous_routines():
    rng = random.Random(71)
    seen = {"singular": 0, "unimodular": 0, "non-integral": 0}
    for a in _square_cases(rng):
        assert _linalg.det(a) == old_det(a)
        assert _linalg.inverse_int(a) == old_inverse_int(a)
        if old_det(a) == 0:
            seen["singular"] += 1
        elif old_inverse_int(a) is None:
            seen["non-integral"] += 1
        else:
            seen["unimodular"] += 1
    assert min(seen.values()) > 10


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


def test_mat_mul_and_mat_vec_match_previous_comprehensions():
    rng = random.Random(13)
    for _ in range(400):
        n, k, m = rng.randint(0, 6), rng.randint(1, 6), rng.randint(0, 6)
        a = _matrix(rng, n, k, -40, 40)
        b = _matrix(rng, k, m, -(10**12), 10**12)
        v = tuple(rng.randint(-99, 99) for _ in range(k))
        assert _linalg.mat_mul(a, b) == old_mat_mul(a, b)
        assert _linalg.mat_vec(a, v) == old_mat_vec(a, v)
        assert all(type(x) is int for row in _linalg.mat_mul(a, b) for x in row)
    assert _linalg.mat_mul(((),), ()) == old_mat_mul(((),), ()) == ((),)
    assert _linalg.mat_vec((), ()) == ()


@pytest.mark.parametrize("a, b", [(((1, 2),), ((1, 0),)), (((1,), (2, 3)), ((1, 0),)), (((1, 2),), ())])
def test_mat_mul_rejects_mismatched_shapes(a, b):
    with pytest.raises(InvalidInputError, match="shapes"):
        _linalg.mat_mul(a, b)
