"""Shared helpers: groups, random data generators, independent oracles."""

from __future__ import annotations

import hashlib
import json
import os
import random
from decimal import Decimal, getcontext
from fractions import Fraction
from math import lcm
from operator import add, sub
from pathlib import Path
from typing import Optional, Sequence

import pytest

from valmono.errors import (
    InvalidInputError,
    NonMonicDivisorError,
    ValmonoError,
    ZeroPolynomialError,
)
from valmono.framing import Frame, FramedStep, TranslationItem, _push_exponents, translation_root
from valmono.game import MonomialValuationSpec, _greedy_center, reduced_parts
from valmono.keypoly import KeyPolyChain
from valmono.polyalg import FieldTower, MultiPoly, QQ, _map, _row_ops, _times, taylor_shift
from valmono.values import Value, ValueGroup, _rows_of, _sign, compare, rational_from_str, value_of_exponent

getcontext().prec = 80

# the package's sources for a child interpreter, ahead of any inherited path
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}

RADICANDS = [1, 2, 3, 5, 7, 11, 13, 17, 19]


def numeric_value(v: Value) -> Decimal:
    """Independent numeric evaluation of a sqrt-primes value (80 digits)."""
    total = Decimal(0)
    for c, rad in zip(v.coords, RADICANDS):
        total += (Decimal(c.numerator) / Decimal(c.denominator)) * Decimal(rad).sqrt()
    return total


def sqrt_prime_spec(n: int, names=None) -> MonomialValuationSpec:
    group = ValueGroup(n)
    names = names or tuple(f"u{i+1}" for i in range(n))
    weights = tuple(
        group.value([1 if j == i else 0 for j in range(n)]) for i in range(n)
    )
    return MonomialValuationSpec(tuple(names), weights)


def rational_spec(weights, names=None) -> MonomialValuationSpec:
    group = ValueGroup(1)
    names = names or tuple(f"u{i+1}" for i in range(len(weights)))
    return MonomialValuationSpec(
        tuple(names), tuple(group.rational(w) for w in weights)
    )


def poly(vars_, terms) -> MultiPoly:
    """terms: dict exponent -> rational"""
    return MultiPoly.build(
        tuple(vars_), {tuple(e): QQ.from_rational(c) for e, c in terms.items()}
    )


def poly_power(p: MultiPoly, n: int) -> MultiPoly:
    """``p`` to the power ``n >= 0``, by repeated multiplication."""
    out = MultiPoly.constant(p.vars, 1, p.tower)
    for _ in range(n):
        out = out * p
    return out


def tower_elem(obj):
    """The tower element written by ``FieldTower.elem_to_json``: a ``"p/q"``
    literal at level 0, nested coefficient lists above it."""
    if isinstance(obj, str):
        return Fraction(*rational_from_str(obj))
    return tuple(map(tower_elem, obj))


def horner(expansion) -> MultiPoly:
    """sum c_j Q^j rebuilt with MultiPoly arithmetic, from the top digit
    down: an oracle for ``StandardExpansion.reassembles``."""
    out = expansion.coefficients[-1]
    for c in reversed(expansion.coefficients[:-1]):
        out = out * expansion.base + c
    return out


def random_poly(rng: random.Random, vars_, max_terms=5, max_exp=6, zero_ok=False) -> MultiPoly:
    n = len(vars_)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(n))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if c == 0 and not zero_ok:
            c = Fraction(1)
        terms[e] = terms.get(e, Fraction(0)) + c
    p = poly(vars_, {e: c for e, c in terms.items() if c != 0})
    if p.is_zero() and not zero_ok:
        return poly(vars_, {tuple(0 for _ in vars_): Fraction(1)})
    return p


def binomial_chain(rng: random.Random, allow_extension=True) -> KeyPolyChain:
    """A provably valid chain: Q_2 = x^A - c u^B with gcd(A, B) = 1 on the
    Gauss level (so the level-2 initial form is a degree-1 minimal polynomial
    relation), optionally extended by a translation key polynomial."""
    group = ValueGroup(1)
    while True:
        A = rng.randint(2, 4)
        B = rng.randint(1, 7)
        from math import gcd

        if gcd(A, B) == 1:
            break
    c = Fraction(rng.choice([1, 2, 3, -1, -2]))
    beta1 = Fraction(B, A)
    jump = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    beta2 = Fraction(B) + jump
    ground = rational_spec([1], names=("u",))
    vars_ = ("u", "x")
    q1 = MultiPoly.variable(vars_, "x")
    q2 = poly(vars_, {(0, A): 1, (B, 0): -c})
    entries = [(q1, group.rational(beta1)), (q2, group.rational(beta2))]
    if allow_extension and rng.random() < 0.5:
        # translation key polynomial Q_3 = Q_2 + c' u^k x^m of value beta2
        for m in range(A):
            k = beta2 - m * beta1
            if k.denominator == 1 and k >= 0:
                c3 = Fraction(rng.choice([1, 2, -1]))
                z = poly(vars_, {(int(k), m): c3})
                q3 = q2 + z
                beta3 = beta2 + Fraction(rng.randint(1, 3), rng.randint(1, 2))
                entries.append((q3, group.rational(beta3)))
                break
    return KeyPolyChain(ground, "x", tuple(entries))


def random_chain(rng: random.Random) -> KeyPolyChain:
    """A random chain of rank 1-2 with 1-2 ground variables and 2-3 entries,
    valid or not: Q_1 is x; each later Q_i is x to a multiple of the
    degree below plus random lower terms, now and then of a degree that
    is no multiple, or with the leading coefficient 2; each beta is the
    degree ratio times the one below plus a random value, which may be
    negative, and beta_1 may be nonpositive."""
    group = ValueGroup(rng.randint(1, 2))

    def value(lo: int, hi: int) -> Value:
        head = Fraction(rng.randint(lo, hi), rng.randint(1, 3))
        return group.value([head] + [Fraction(rng.randint(-1, 1), 2)] * (group.rank - 1))

    r = rng.randint(1, 2)
    names = tuple(f"u{k}" for k in range(1, r + 1))
    weights = []
    while len(weights) < r:
        w = value(1, 6)
        if w.sign() > 0:
            weights.append(w)
    vars_ = names + ("x",)
    entries = [(MultiPoly.variable(vars_, "x"), value(-1, 6))]
    d = 1
    for _ in range(rng.randint(1, 2)):
        a = rng.randint(1, 3)
        top = d * a + (rng.random() < 0.1)
        terms = {(0,) * r + (top,): 2 if rng.random() < 0.1 else 1}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 3) for _ in names) + (rng.randrange(top),)
            terms[e] = rng.choice((-3, -2, -1, 1, 2, 3))
        entries.append((poly(vars_, terms), entries[-1][1].scale(a) + value(-2, 6)))
        d = top
    return KeyPolyChain(MonomialValuationSpec(names, tuple(weights)), "x", tuple(entries))


# -- oracles for routines the package does not call ----------------------
# Moved here unchanged from ``framing``, ``game`` and ``polyalg``: the
# descent loops apply the center rule of ``descent_center`` inline, a
# key-polynomial level reads its initial form with ``unifseq._initial_form``,
# ``substitute_variable`` is the exact composition that ``taylor_shift``
# is checked against, and ``PushPath.blow_up`` decides on weight rows what
# ``choose_vertex`` and ``build_step_for_weights`` decide on ``Value``s.
# The generic step route of ``framing`` (``make_monomial_blowup``,
# ``make_translation_step``, ``pushforward_weights``, ``apply_step_to_frame``
# and the per-step push ``push_polynomial_through_step``) is the reference
# for ``PushPath.blow_up``, ``PushPath.translate`` and ``PushPath.push``,
# and ``extend_path`` grows a path along hand-made steps with it.
# ``ValueChainRows`` is the truncation recursion of ``keypoly._ChainRows``
# as it ran on ``Value``s before its values became integer rows, on the
# row kernel of ``polyalg`` as it ran before its keys were packed: the
# ``tuple_*`` functions below, rows keyed by x-free exponent tuples.  They
# are the oracle of the packed kernel.


def active_indices(frame) -> tuple[int, ...]:
    """The columns of ``frame`` that are not unit-tagged."""
    return tuple(i for i in range(frame.n) if i not in frame.units)


def is_constant(f: MultiPoly) -> bool:
    return all(sum(e) == 0 for e in f.terms)


class NothingToDoError(ValmonoError):
    code = "nothing to do"


def choose_vertex(J: Sequence[int], weights: Sequence[Value]) -> int:
    """Index in J of minimal weight; ties broken by smallest index."""
    J = sorted(set(J))
    if not J:
        raise InvalidInputError("empty center")
    best = J[0]
    for i in J[1:]:
        if compare(weights[i], weights[best]) < 0:
            best = i
    return best


def build_step_for_weights(
    n: int, J: Sequence[int], j: int, weights: Sequence[Value]
) -> FramedStep:
    """Blow-up step along (u_J) at the minimal vertex j.  Every other index
    of J whose weight equals the vertex weight becomes a unit after the
    blow-up (the set J^times): the step is then translation-kind, its unit
    variables tagged, not substituted."""
    step = make_monomial_blowup(n, J, j)
    wj = weights[j]
    items = tuple(
        TranslationItem(target=i)
        for i in step.J
        if i != j and weights[i] == wj  # values are canonical: equal is ==
    )
    return FramedStep(n, step.J, j, items) if items else step


def make_monomial_blowup(n: int, J: Sequence[int], j: int) -> FramedStep:
    """The monomial blow-up along (u_J) with vertex j: u'_i = u_i for
    i in J^c or i = j, u'_i = u_i / u_j otherwise."""
    J = tuple(sorted(set(J)))
    if not all(0 <= i < n for i in J):
        raise InvalidInputError("J out of range")
    if j not in J:
        raise InvalidInputError("vertex must belong to J")
    if len(J) < 2:
        raise InvalidInputError("center must have at least two variables")
    return FramedStep(n, J, j)


def json_digest(obj) -> str:
    """The input digest as ``canonical_digest`` has always written it:
    the sha256 of ``json.dumps`` with sorted keys and no spaces."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def step_record(step: FramedStep) -> dict:
    """The trace record of ``step`` as it was written when ``M`` and ``N``
    were built row by row: the identity with ``off`` at (j, q) for q in J
    minus the vertex, ``-1`` for M and ``+1`` for N."""

    def rows(off: int) -> list[list[int]]:
        out = [[0] * step.n for _ in range(step.n)]
        for p, row in enumerate(out):
            row[p] = 1
        for q in step.J:
            if q != step.j:
                out[step.j][q] = off
        return out

    jx = step.J_times
    rec = {
        "J": [i + 1 for i in step.J],
        "j": step.j + 1,
        "kind": "translation" if step.translation_data else "monomial",
        "M": rows(-1),
        "N": rows(1),
        "Jx": [i + 1 for i in jx],
        "n_before": step.n,
        "n_after": step.n_after,
        "D1": [i + 1 for i in range(step.n) if i not in jx],
    }
    if step.translation_data:
        rec["translations"] = [t.to_json() for t in step.translation_data]
    return rec


def pushforward_weights(frame: Frame, step: FramedStep) -> list:
    """The weight rows after ``step``, over ``frame.den``: ``r_i - r_j`` on
    J minus the vertex j, unchanged elsewhere.  Each pushed weight must be
    >= 0; ``PushPath.blow_up`` picks its vertex so that they are, and this
    check is for steps built outside it (translations, hand-made blow-ups)."""
    rows = list(frame.rows)
    j = step.j
    if len(step.J) > 1:
        rj = frame.row(j)
        for i in step.J:
            if i != j:
                d = rows[i] = tuple(map(sub, frame.row(i), rj))
                if _sign(d) < 0:
                    raise InvalidInputError(
                        "negative resulting weight: vertex was not minimal in J"
                    )
    return rows


def make_translation_step(
    n: int,
    target: int,
    minpoly: Optional[tuple],
    symbol: Optional[str],
    new_name: Optional[str],
    new_weight: Optional[Value] = None,
) -> FramedStep:
    """Pure residue-motion step: the one-column center ``target``, whose
    unit variable is replaced by ``u' - theta`` (algebraic, ``minpoly`` in
    the current tower) or tagged (transcendental).  An algebraic item needs
    ``new_name``, and a ``symbol`` for theta when its degree is at least 2."""
    if minpoly is not None and (new_name is None or (len(minpoly) > 2 and symbol is None)):
        raise InvalidInputError(
            "an algebraic translation needs a new name, and a symbol from degree 2 on"
        )
    item = TranslationItem(
        target=target, minpoly=minpoly, symbol=symbol,
        new_name=new_name, new_weight=new_weight,
    )
    return FramedStep(n, (target,), target, (item,))


def apply_step_to_frame(frame: Frame, step: FramedStep) -> Frame:
    """Frame after one step: weights pushed forward, units tagged, algebraic
    residues substituted (renaming the slot and possibly extending the
    tower).  A new parameter's weight puts the rows over the lcm of the
    denominators."""
    rows = pushforward_weights(frame, step)
    names = list(frame.names)
    units = set(frame.units)
    tower = frame.tower
    moved = []
    for item in step.translation_data:
        t = item.target
        if item.minpoly is None:
            units.add(t)
        else:
            # the root -c0 of a degree-1 residue is already in the tower
            if len(item.minpoly) > 2:
                tower = tower.extend(item.symbol, item.minpoly)
            names[t] = item.new_name
            units.discard(t)
            moved.append((t, item.new_weight))
    den, group = frame.den, frame.group
    if moved:
        new, den, group = _rows_of([w for _, w in moved], den, group)
        k = den // frame.den
        if k != 1:
            rows = [None if r is None else tuple(x * k for x in r) for r in rows]
        for (t, _), r in zip(moved, new):
            rows[t] = r
    return Frame._of_rows(
        tuple(names), tuple(rows), den, group, frozenset(units), tower, (None,) * len(names)
    )


def push_polynomial_through_step(
    f: MultiPoly, frame_before: Frame, step: FramedStep, frame_after: Optional[Frame] = None
) -> MultiPoly:
    """Image of f in the next chart.  The exponent update first, then the
    linear residue substitutions ``u'_target = theta + new_var`` as Taylor
    shifts.  ``frame_after`` is the frame after the step, when the caller
    has it."""
    g = _push_exponents(f, (step,)) if len(step.J) > 1 else f
    if frame_after is None:
        frame_after = apply_step_to_frame(frame_before, step)
    tower = frame_after.tower
    if tower != g.tower:
        g = g.with_tower(tower)
    for item in step.translation_data:
        if item.minpoly is None:
            continue
        t = item.target
        g = taylor_shift(g, g.vars[t], translation_root(item, tower))
        name = frame_after.names[t]
        if name != g.vars[t]:
            g = MultiPoly(g.vars[:t] + (name,) + g.vars[t + 1:], g.terms, g.tower, g.den)
    return g


def schoolbook_mul(tower: FieldTower, a, b, level: Optional[int] = None):
    """The tower product as ``FieldTower._mul`` computed it at every level
    before level 1 had its own loop: the recursive schoolbook product of
    the coordinate tuples, each coordinate product one level down, then
    the reduction by the monic definer, with the tower's own recursive sum,
    negation and zero test."""
    level = tower.depth if level is None else level
    if level == 0:
        return a * b
    deg = tower.degree_at(level)
    prod = [tower._zero_at(level - 1)] * (2 * deg - 1)
    for i, x in enumerate(a):
        if tower.is_zero(x):
            continue
        for j, y in enumerate(b):
            if tower.is_zero(y):
                continue
            prod[i + j] = tower._add(prod[i + j], schoolbook_mul(tower, x, y, level - 1), level - 1)
    mp = tower.extensions[level - 1][1]
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if tower.is_zero(c):
            continue
        for k in range(deg):
            term = tower._neg(schoolbook_mul(tower, c, mp[k], level - 1), level - 1)
            prod[i - deg + k] = tower._add(prod[i - deg + k], term, level - 1)
    return tuple(prod[:deg])


def factorization_after_shift(path, w_pre: MultiPoly) -> bool:
    """The unperturbed factorization identity as ``_verify_factorization``
    decided it after the translation: ``w_pre``, written in the chart
    before the path's last step (an algebraic translation of column q to
    X), pushed through that step, minus ``P(theta + X)``, with P that
    step's minimal polynomial lifted to the tower after it, is zero."""
    item = path.steps[-1].translation_data[0]
    pre, tower = len(path) - 1, path.frame.tower
    w_poly = path.push(w_pre, pre)
    xi = w_poly.var_index(item.new_name)
    n = len(w_poly.vars)
    p_of_x = MultiPoly.build(
        w_poly.vars,
        {tuple(i if k == xi else 0 for k in range(n)): c for i, c in enumerate(item.minpoly)},
        path.frames[pre].tower,
    ).with_tower(tower)
    diff = w_poly - taylor_shift(p_of_x, item.new_name, translation_root(item, tower))
    return diff.is_zero()


def extend_path(path, steps):
    """``path`` grown by the hand-made ``steps``: each step and the frame
    after it, by ``apply_step_to_frame``, appended as ``PushPath.blow_up``
    and ``PushPath.translate`` append theirs.  Returns the path."""
    for s in steps:
        path.frames.append(apply_step_to_frame(path.frame, s))
        path.steps.append(s)
    return path


def tau(alpha: Sequence[int], gamma: Sequence[int]) -> tuple[int, int]:
    """The tau pair (s, t), s <= t, of two exponents: the degrees of their
    parts after removing the common part.  The descent loops carry it as a
    tuple, whose order is the lexicographic one."""
    at, gt = reduced_parts(alpha, gamma)
    return tuple(sorted((sum(at), sum(gt))))


def descent_center(
    alpha: Sequence[int], gamma: Sequence[int], spec: MonomialValuationSpec
) -> tuple[tuple[int, ...], int]:
    """The center (J, j) of the next descent blow-up for a pair of exponents
    neither of which divides the other."""
    at, gt = reduced_parts(alpha, gamma)
    if sum(at) > sum(gt):
        at, gt = gt, at
    if sum(at) == 0:
        raise NothingToDoError("nothing to do: divisibility already holds")
    J = _greedy_center(at, gt)
    return J, choose_vertex(J, spec.weights)


def monomial_valuation(f: MultiPoly, spec: MonomialValuationSpec) -> Value:
    """min over terms of the weighted exponent value."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no value")
    if f.vars != spec.vars:
        raise InvalidInputError("polynomial variables must match the spec")
    best = None
    for e in f.terms:
        v = value_of_exponent(e, spec.weights)
        if best is None or compare(v, best) < 0:
            best = v
    return best


def initial_form(f: MultiPoly, spec: MonomialValuationSpec) -> MultiPoly:
    """Sum of the terms of minimal value; homogeneous for the weighting."""
    v0 = monomial_valuation(f, spec)
    keep = {
        e: c
        for e, c in f.terms.items()
        if compare(value_of_exponent(e, spec.weights), v0) == 0
    }
    return MultiPoly(f.vars, keep, f.tower, f.den)


# -- the tuple-keyed row kernel ----------------------------------------------


def tuple_split_rows(f: MultiPoly, xi: int) -> dict:
    """The rows of f's coordinates, over ``f.den``, keyed by the x-free
    exponent tuples."""
    rows: dict = {}
    for e, c in f.terms.items():
        rows.setdefault(e[xi], {})[e[:xi] + e[xi + 1:]] = c
    return rows


def tuple_join_rows(rows: dict, xi: int, like: MultiPoly) -> MultiPoly:
    terms = {}
    for k, row in rows.items():
        for e, c in row.items():
            terms[e[:xi] + (k,) + e[xi:]] = c
    return MultiPoly(like.vars, terms, like.tower, like.den)


def tuple_monic_rows(g: MultiPoly, x: str, least: int = 0) -> tuple[int, dict]:
    """x-degree and negated lower rows of a divisor monic in x of x-degree
    at least ``least``, over ``g.den`` as Fractions when it is not 1."""
    rows = tuple_split_rows(g, g.var_index(x))
    d = max(rows, default=-1)
    lead = rows.pop(d, None)
    if d < least or lead != {(0,) * (len(g.vars) - 1): _times(g.tower.one(), g.den)}:
        raise NonMonicDivisorError("non-monic divisor")
    den = g.den
    neg = _row_ops(g.tower)[2] if den == 1 else (lambda c: _map(c, lambda n: Fraction(-n, den)))
    return d, {j: {e: neg(c) for e, c in row.items()} for j, row in rows.items()}


def tuple_add_product(r: dict, c: dict, s: int, g_rows: dict, ops: tuple) -> None:
    """r += c * x^s * g in place, no zero coefficient and no empty row left."""
    mul, plus, _, is_zero = ops
    for j, g_row in g_rows.items():
        row = r.setdefault(s + j, {})
        for e2, c2 in g_row.items():
            for e1, c1 in c.items():
                e = tuple(map(add, e1, e2))
                p = mul(c1, c2) if e not in row else plus(row[e], mul(c1, c2))
                if not is_zero(p):
                    row[e] = p
                else:
                    row.pop(e, None)
        if not row:
            del r[s + j]


def tuple_divide_rows(r: dict, d: int, neg_low: dict, ops: tuple) -> dict:
    """Long division of ``r`` by a monic divisor of x-degree ``d``: ``r``
    becomes the remainder in place, the quotient rows are returned."""
    quo = {}
    for k in range(max(r, default=-1), d - 1, -1):
        c = r.pop(k, None)
        if c:
            quo[k - d] = c
            tuple_add_product(r, c, k - d, neg_low, ops)
    return quo


def tuple_expand_rows(r: dict, d: int, neg_low: dict, ops: tuple) -> list[dict]:
    """The Q-adic digits of ``r`` (consumed) by repeated long division."""
    digits = []
    while True:
        quo = tuple_divide_rows(r, d, neg_low, ops)
        digits.append(r)
        if not quo:
            return digits
        r = quo


def tuple_euclid_divide(f: MultiPoly, g: MultiPoly, x: str) -> tuple[MultiPoly, MultiPoly]:
    xi = f.var_index(x)
    r = tuple_split_rows(f, xi)
    q = tuple_divide_rows(r, *tuple_monic_rows(g, x), _row_ops(f.tower))
    return tuple_join_rows(q, xi, f), tuple_join_rows(r, xi, f)


def tuple_q_adic_expansion(f: MultiPoly, Q: MultiPoly, x: str) -> list[MultiPoly]:
    xi = f.var_index(x)
    rows = tuple_split_rows(f, xi)
    digits = tuple_expand_rows(rows, *tuple_monic_rows(Q, x, 1), _row_ops(f.tower))
    return [tuple_join_rows(r, xi, f) for r in digits]


def tuple_reassembles(f: MultiPoly, Q: MultiPoly, digits: Sequence[MultiPoly], x: str) -> bool:
    """Whether sum digits[j] * Q^j is f, by Horner's rule on tuple-keyed
    rows over one denominator."""
    xi = f.var_index(x)
    d, neg_low = tuple_monic_rows(Q, x)
    _, plus, neg, is_zero = ops = _row_ops(f.tower)
    den = lcm(f.den, *[c.den for c in digits])
    low = {j: {e: neg(c) for e, c in row.items()} for j, row in neg_low.items()}
    acc: dict = {}
    for c in reversed(digits):
        moved = {k + d: row for k, row in acc.items()}
        for k in sorted(acc):
            tuple_add_product(moved, acc[k], k, low, ops)
        acc = moved
        for k, row in tuple_split_rows(c, xi).items():
            into = acc.setdefault(k, {})
            for e, v in row.items():
                v = plus(into[e], _times(v, den // c.den)) if e in into else _times(v, den // c.den)
                if is_zero(v):
                    del into[e]
                else:
                    into[e] = v
            if not into:
                del acc[k]
    lift = den // f.den
    return acc == {k: {e: _times(v, lift) for e, v in row.items()} for k, row in tuple_split_rows(f, xi).items()}


class ValueChainRows:
    """The truncation recursion on ``Value``s, as ``keypoly._ChainRows`` ran
    it before its values became integer rows: the same digit rows, but
    every ground exponent valued by ``value_of_exponent``, every term by
    ``beta_i.scale(j) + value(c_j)``, and every order decided by
    ``compare``."""

    def __init__(self, chain: KeyPolyChain):
        self.chain = chain
        self.betas = [b for _, b in chain.entries]
        self.weights = chain.ground.weights
        self.ops = _row_ops(chain.Q(1).tower)

    def expand(self, rows, i: int):
        Q = self.chain.Q(i)
        return tuple_expand_rows(rows, *tuple_monic_rows(Q, self.chain.x, 1), self.ops)

    def ground_value(self, exponents) -> Value:
        best = None
        for e in exponents:
            v = value_of_exponent(e, self.weights)
            if best is None or compare(v, best) < 0:
                best = v
        return best

    def term_values(self, digits, i: int) -> tuple:
        return tuple(
            (j, self.betas[i - 1].scale(j) + self.value(c, i - 1))
            for j, c in enumerate(digits)
            if c
        )

    def value(self, c, level: int) -> Value:
        if level == 0:
            return self.ground_value(e for row in c.values() for e in row)
        return value_least(self.term_values(self.expand(c, level), level))[1]


def value_least(terms) -> tuple:
    """(delta, minimum) of ``(j, Value)`` terms: the last index attaining
    the least value, by ``compare``."""
    delta, best = terms[0]
    for j, v in terms[1:]:
        order = compare(v, best)
        if order <= 0:
            delta = j
            if order < 0:
                best = v
    return delta, best


def value_truncation(f: MultiPoly, chain: KeyPolyChain, i: int) -> tuple:
    """``(terms, value, delta, epsilon)`` of the level-i truncation of f by
    the ``Value`` recursion of ``ValueChainRows``."""
    f = f.with_vars(chain.all_vars)
    oracle = ValueChainRows(chain)
    terms = oracle.term_values(oracle.expand(tuple_split_rows(f, len(chain.ground.vars)), i), i)
    delta, best = value_least(terms)
    above = [(j, v) for j, v in terms if j > delta]
    epsilon = None
    if above:
        epsilon, mu_plus = above[0]
        for j, v in above[1:]:
            if compare(v, mu_plus) < 0:
                epsilon, mu_plus = j, v
    return terms, best, delta, epsilon


def substitute_variable(f: MultiPoly, x: str, g: MultiPoly) -> MultiPoly:
    """Exact composition: replace ``x`` by the polynomial ``g``."""
    f._check(g)
    xi = f.var_index(x)
    powers: dict[int, MultiPoly] = {0: MultiPoly.constant(f.vars, 1, f.tower)}

    def g_pow(k: int) -> MultiPoly:
        if k not in powers:
            powers[k] = g_pow(k - 1) * g
        return powers[k]

    out = MultiPoly(f.vars, {}, f.tower)
    for e, c in f.terms.items():
        rest = e[:xi] + (0,) + e[xi + 1:]
        t = MultiPoly(f.vars, {rest: c}, f.tower, f.den)
        out = out + t * g_pow(e[xi])
    return out


# -- matrix oracles ------------------------------------------------------
# The package acts on exponents only through a step's center; these are the
# integer-matrix routines it used before, kept unchanged as references for
# the trace matrices N and M of ``FramedStep.to_json``.

Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


def old_reduce(m: list[list[Fraction]], cols: int) -> list[int]:
    """The Gauss-Jordan elimination over Fraction that ``_linalg._reduce``
    replaced, unchanged: each pivot row is scaled to 1 and its column
    cleared in every other row, and the k-th pivot lands in row k.
    Returns the pivot columns."""
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


def old_solve(a, b) -> tuple[Optional[tuple[Fraction, ...]], int]:
    """``solve_rational`` as it was: ``old_reduce`` on Fraction rows."""
    cols = len(a[0]) if a else 0
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    pivots = old_reduce(m, cols)
    rank = len(pivots)
    if any(row[cols] != 0 for row in m[rank:]):
        return None, rank
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = m[r][cols]
    return tuple(x), rank


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


def old_mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def old_mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(a[i][t] * v[t] for t in range(len(v))) for i in range(len(a)))


def trace_matrix(step, key: str = "N") -> Matrix:
    """A step's forward matrix N (or its inverse M) as its trace writes it."""
    return tuple(map(tuple, step.to_json()[key]))


def forward_product(steps, n: int) -> Matrix:
    """The trace matrices N of ``steps`` multiplied together, the first
    step rightmost: the old variables as monomials in the last chart."""
    total = identity(n)
    for s in steps:
        total = old_mat_mul(trace_matrix(s), total)
    return total


def push_by_matrices(f: MultiPoly, steps) -> MultiPoly:
    """Reference push of f's exponents: each step's trace matrix N times
    every exponent, one step after another (no residue motion)."""
    for s in steps:
        N = trace_matrix(s)
        f = MultiPoly.build(f.vars, {old_mat_vec(N, e): f.coeff(e) for e in f.terms}, f.tower)
    return f


# -- the game helpers as they were before their one-pass rewrite ------------


def scan_antichain(exps) -> list[tuple[int, ...]]:
    """The minimal exponents of ``exps`` under divisibility, by increasing
    (degree, exponent): each one tested against all the others."""
    exps = sorted(exps, key=lambda e: (sum(e), e))
    keep = []
    for e in exps:
        if any(all(x <= y for x, y in zip(o, e)) and o != e for o in exps):
            continue
        keep.append(e)
    return keep


def scan_best_pair(exps, active, units):
    """(tau, at, gt) of the first pair of ``active`` (increasing) attaining
    the least tau: each pair's difference built with its unit columns
    zeroed, and tau read from ``sum|d|`` and ``|sum d|``."""
    pair, best = active, None
    if len(active) > 2:
        for p, ip in enumerate(active):
            a = exps[ip]
            for iq in active[p + 1:]:
                d = list(map(sub, a, exps[iq]))
                for i in units:
                    d[i] = 0
                size, total = sum(map(abs, d)), abs(sum(d))
                st = ((size - total) >> 1, (size + total) >> 1)
                if best is None or st < best:
                    best, pair = st, (ip, iq)
    at, gt = reduced_parts(exps[pair[0]], exps[pair[1]], units)
    s, t = sum(at), sum(gt)
    return ((s, t) if s <= t else (t, s)), at, gt


def tuple_greedy_center(at, gt) -> tuple[int, ...]:
    """The support of ``at`` plus indices of ``gt`` by decreasing gt_i,
    ties by the smaller index, sorted as ``(-gt_i, i)`` tuples, until their
    gt-sum reaches ``|at|``."""
    target = sum(at)
    J = [i for i, a in enumerate(at) if a > 0]
    got = 0
    for g, i in sorted([(-g, i) for i, g in enumerate(gt) if g > 0]):
        if got >= target:
            break
        J.append(i)
        got -= g
    return tuple(sorted(J))


@pytest.fixture(scope="session")
def rng():
    return random.Random(20260809)
