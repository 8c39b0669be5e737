"""Exact sparse multivariate polynomials over Q and simple extension towers.

Coefficients live in a :class:`FieldTower`: the base field Q extended by a
chain of symbols, each with a monic defining polynomial over the level
below.  Elements are kept in canonical form (reduced modulo the definers,
represented as nested coefficient tuples of fixed length), so structural
equality is field equality.

Irreducibility of definers is trusted at input and falsified lazily: a
failed inversion raises :class:`~valmono.errors.ReducibleDefinerError`
carrying the discovered factor.

Polynomials are immutable by convention; all operations return fresh
objects.  Term storage order is graded-lex on exponent vectors, which is
purely internal (it fixes JSON output order, nothing else).

Division by a divisor monic in x has one kernel.  Both operands are split
once into x-dense rows (x-degree -> x-free sparse coefficient) and
long-divided row by row from the top degree down; the divisor's leading
row is the constant one, so no coefficient is inverted.  Over Q the
dividend is cleared to integer numerators over one denominator D; an
integral divisor has integer rows, so every quotient and remainder row
stays integral (a non-integral one makes them Fractions through the same
loop), and ``Fraction(c, D)`` is made only where rows become a
:class:`MultiPoly` again.  Over a tower the rows hold tower elements.
``euclid_divide``,
``q_adic_expansion`` and the truncations of :mod:`valmono.keypoly` share
it; a Q-adic expansion keeps the running quotient in row form from one
digit to the next, and the check that an expansion reassembles its
polynomial is Horner's rule on the same kind of rows.

The Taylor shift ``x -> theta + x`` is fraction-free too, towers included:
f's coordinates are cleared to integers over one denominator, theta is
written T / b, the binomial table holds integer multiples of powers of T,
and under integral definers the tower multiplies integer coordinates
(``FieldTower._integral``).  Its only ``Fraction``s are made at the exit,
one per output coordinate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import comb, lcm
from operator import add
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    InvalidInputError,
    NonMonicDivisorError,
    ReducibleDefinerError,
)
from .values import fraction_from_str, fraction_to_str

# A tower element is a Fraction at level 0 and a tuple of lower-level
# elements (fixed length = degree of the definer) above that.
Elem = Union[Fraction, tuple]


def _poly_trim(cs: list) -> list:
    while cs and _is_zero_like(cs[-1]):
        cs.pop()
    return cs


def _is_zero_like(e) -> bool:
    """Zero test for tower elements on any number type (Fraction or int)."""
    if isinstance(e, tuple):
        return all(map(_is_zero_like, e))
    return not e


def _coords(e, fn):
    """``e`` with ``fn`` applied to each of its rational coordinates."""
    if isinstance(e, tuple):
        return tuple(_coords(c, fn) for c in e)
    return fn(e)


def _coord_den(e) -> int:
    """The lcm of the denominators of ``e``'s rational coordinates."""
    if isinstance(e, tuple):
        return lcm(*map(_coord_den, e))
    return e.denominator


@dataclass(frozen=True)
class FieldTower:
    """Q extended by ``extensions``: ordered (symbol, monic definer) pairs.

    Each definer is a coefficient tuple over the level below, lowest degree
    first, with leading coefficient equal to that level's one.
    """

    extensions: tuple[tuple[str, tuple], ...] = ()

    def __post_init__(self):
        syms = [s for s, _ in self.extensions]
        if len(set(syms)) != len(syms):
            raise InvalidInputError("tower symbols must be distinct")
        for level, (sym, mp) in enumerate(self.extensions):
            if len(mp) < 2:
                raise InvalidInputError(f"definer of {sym} must have degree >= 1")

    # -- structure ---------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.extensions)

    def degree_at(self, level: int) -> int:
        return len(self.extensions[level - 1][1]) - 1

    def extend(self, symbol: str, minpoly_coeffs: Sequence[Elem]) -> "FieldTower":
        """New tower with one more level.  ``minpoly_coeffs`` are elements of
        *this* tower, lowest degree first, monic."""
        mp = tuple(minpoly_coeffs)
        if not self.eq(mp[-1], self.one()):
            raise InvalidInputError("definer must be monic")
        return FieldTower(self.extensions + ((symbol, mp),))

    # -- element constructors ----------------------------------------

    def _zero_at(self, level: int) -> Elem:
        if level == 0:
            return Fraction(0)
        return tuple(self._zero_at(level - 1) for _ in range(self.degree_at(level)))

    def zero(self) -> Elem:
        return self._zero_at(self.depth)

    def _raise_to(self, e: Elem, level: int) -> Elem:
        """Embed a level-(level-1) element at ``level``."""
        coeffs = [e] + [self._zero_at(level - 1) for _ in range(self.degree_at(level) - 1)]
        return tuple(coeffs)

    def from_rational(self, q: Fraction | int | str) -> Elem:
        e: Elem = Fraction(q)
        for level in range(1, self.depth + 1):
            e = self._raise_to(e, level)
        return e

    def one(self) -> Elem:
        return self.from_rational(1)

    def generator(self, symbol: str) -> Elem:
        """The element theta_k for one of the tower symbols."""
        for idx, (sym, mp) in enumerate(self.extensions):
            if sym == symbol:
                level = idx + 1
                if self.degree_at(level) >= 2:
                    gen: Elem = tuple(
                        self._one_at(level - 1) if i == 1 else self._zero_at(level - 1)
                        for i in range(self.degree_at(level))
                    )
                else:
                    # degree-1 definer X + c0: theta = -c0
                    gen = self._raise_to(self._neg(mp[0], level - 1), level)
                e: Elem = gen
                for lv in range(level + 1, self.depth + 1):
                    e = self._raise_to(e, lv)
                return e
        raise InvalidInputError(f"unknown tower symbol {symbol!r}")

    # -- arithmetic ---------------------------------------------------

    def is_zero(self, e: Elem) -> bool:
        return _is_zero_like(e)

    def eq(self, a: Elem, b: Elem) -> bool:
        return a == b

    def _add(self, a: Elem, b: Elem, level: int) -> Elem:
        if level == 0:
            return a + b
        return tuple(self._add(x, y, level - 1) for x, y in zip(a, b))

    def add(self, a: Elem, b: Elem) -> Elem:
        return self._add(a, b, self.depth)

    def _neg(self, a: Elem, level: int) -> Elem:
        if level == 0:
            return -a
        return tuple(self._neg(x, level - 1) for x in a)

    def neg(self, a: Elem) -> Elem:
        return self._neg(a, self.depth)

    def sub(self, a: Elem, b: Elem) -> Elem:
        return self.add(a, self.neg(b))

    @cached_property
    def _integral(self) -> "FieldTower":
        """This tower on int coordinates when every definer is integral (so
        products of integral elements stay integral), else the tower itself."""
        if any(_coord_den(c) != 1 for _, mp in self.extensions for c in mp):
            return self
        return _IntegralTower(
            tuple((sym, tuple(_coords(c, int) for c in mp)) for sym, mp in self.extensions)
        )

    def _mul(self, a: Elem, b: Elem, level: int) -> Elem:
        if level == 0:
            return a * b
        deg = self.degree_at(level)
        prod = [self._zero_at(level - 1)] * (2 * deg - 1)
        for i, x in enumerate(a):
            if _is_zero_like(x):
                continue
            for j, y in enumerate(b):
                if _is_zero_like(y):
                    continue
                prod[i + j] = self._add(prod[i + j], self._mul(x, y, level - 1), level - 1)
        mp = self.extensions[level - 1][1]
        # reduce modulo the monic definer
        for i in range(len(prod) - 1, deg - 1, -1):
            c = prod[i]
            if _is_zero_like(c):
                continue
            for k in range(deg):
                prod[i - deg + k] = self._sub_level(
                    prod[i - deg + k], self._mul(c, mp[k], level - 1), level - 1
                )
        return tuple(prod[:deg])

    def _sub_level(self, a: Elem, b: Elem, level: int) -> Elem:
        return self._add(a, self._neg(b, level), level)

    def mul(self, a: Elem, b: Elem) -> Elem:
        return self._mul(a, b, self.depth)

    def _inv(self, a: Elem, level: int) -> Elem:
        if level == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / a
        if _is_zero_like(a):
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in (level-1)[X] against the definer
        mp = list(self.extensions[level - 1][1])
        r0, r1 = mp, _poly_trim(list(a))
        s0, s1 = [], [self._one_at(level - 1)]
        while r1:
            q, r = self._poly_divmod(r0, r1, level - 1)
            r0, r1 = r1, r
            s0, s1 = s1, self._poly_sub(s0, self._poly_mul(q, s1, level - 1), level - 1)
        # r0 = gcd; invertible iff gcd is a nonzero constant
        if len(r0) != 1:
            raise ReducibleDefinerError(
                f"reducible definer of {self.extensions[level - 1][0]}", factor=tuple(r0)
            )
        c_inv = self._inv(r0[0], level - 1)
        inv = [self._mul(c, c_inv, level - 1) for c in s0]
        inv = inv[: self.degree_at(level)]
        inv += [self._zero_at(level - 1)] * (self.degree_at(level) - len(inv))
        return tuple(inv)

    def _one_at(self, level: int) -> Elem:
        if level == 0:
            return Fraction(1)
        return self._raise_to(self._one_at(level - 1), level)

    def inv(self, a: Elem) -> Elem:
        return self._inv(a, self.depth)

    # dense univariate helpers over a given level (used by _inv)

    def _poly_sub(self, a: list, b: list, level: int) -> list:
        n = max(len(a), len(b))
        z = self._zero_at(level)
        out = []
        for i in range(n):
            x = a[i] if i < len(a) else z
            y = b[i] if i < len(b) else z
            out.append(self._sub_level(x, y, level))
        return _poly_trim(out)

    def _poly_mul(self, a: list, b: list, level: int) -> list:
        if not a or not b:
            return []
        out = [self._zero_at(level)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self._add(out[i + j], self._mul(x, y, level), level)
        return _poly_trim(out)

    def _poly_divmod(self, a: list, b: list, level: int) -> tuple[list, list]:
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(a)
        q = [self._zero_at(level)] * max(0, len(a) - len(b) + 1)
        lead_inv = self._inv(b[-1], level)
        while len(r) >= len(b):
            c = self._mul(r[-1], lead_inv, level)
            k = len(r) - len(b)
            q[k] = self._add(q[k], c, level)
            for i, y in enumerate(b):
                r[k + i] = self._sub_level(r[k + i], self._mul(c, y, level), level)
            r = _poly_trim(r)
            if not r:
                break
        return _poly_trim(q), r

    # -- JSON ----------------------------------------------------------

    @staticmethod
    def elem_to_json(e: Elem):
        """The JSON encoding of an element of any tower: a ``"p/q"`` string
        at level 0, nested coefficient lists above it."""
        if isinstance(e, Fraction):
            return fraction_to_str(e)
        return [FieldTower.elem_to_json(c) for c in e]

    def elem_from_json(self, obj) -> Elem:
        def build(o, level):
            if level == 0:
                if not isinstance(o, str):
                    raise InvalidInputError("base coefficients must be 'p/q' strings")
                return fraction_from_str(o)
            if isinstance(o, str):
                # a base rational given at a higher level: embed it
                e = fraction_from_str(o)
                for lv in range(1, level + 1):
                    e = self._raise_to(e, lv)
                return e
            deg = self.degree_at(level)
            coeffs = [build(c, level - 1) for c in o]
            if len(coeffs) > deg:
                raise InvalidInputError("coefficient tuple longer than the definer degree")
            coeffs += [self._zero_at(level - 1)] * (deg - len(coeffs))
            return tuple(coeffs)

        return build(obj, self.depth)

    def to_json(self) -> dict:
        exts = []
        for sym, mp in self.extensions:
            terms = [
                {"e": [i], "c": self.elem_to_json(c)}
                for i, c in enumerate(mp)
                if not _is_zero_like(c)
            ]
            exts.append({"sym": sym, "minpoly": {"vars": [sym], "terms": terms}})
        return {"extensions": exts}


class _IntegralTower(FieldTower):
    """A tower whose elements have int coordinates (``FieldTower._integral``)."""

    def _zero_at(self, level: int) -> Elem:
        return 0 if level == 0 else super()._zero_at(level)


QQ = FieldTower(())


def grlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


@dataclass(frozen=True)
class MultiPoly:
    """Sparse exact multivariate polynomial; no zero coefficients stored."""

    vars: tuple[str, ...]
    terms: Mapping[tuple[int, ...], Elem]
    tower: FieldTower = QQ

    # -- constructors --------------------------------------------------

    @staticmethod
    def build(
        vars: Sequence[str],
        terms: Mapping[tuple[int, ...], Elem] | Iterable[tuple[tuple[int, ...], Elem]],
        tower: FieldTower = QQ,
    ) -> "MultiPoly":
        vars = tuple(vars)
        collected: dict[tuple[int, ...], Elem] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for e, c in items:
            e = tuple(int(x) for x in e)
            if len(e) != len(vars):
                raise InvalidInputError("exponent length must match the variable count")
            if any(x < 0 for x in e):
                raise InvalidInputError("exponents must be nonnegative")
            if e in collected:
                collected[e] = tower.add(collected[e], c)
            else:
                collected[e] = c
        collected = {e: c for e, c in collected.items() if not tower.is_zero(c)}
        return MultiPoly(vars, collected, tower)

    @staticmethod
    def zero(vars: Sequence[str], tower: FieldTower = QQ) -> "MultiPoly":
        return MultiPoly(tuple(vars), {}, tower)

    @staticmethod
    def constant(vars: Sequence[str], c, tower: FieldTower = QQ) -> "MultiPoly":
        if isinstance(c, (int, str, Fraction)):
            c = tower.from_rational(c)
        e = tuple(0 for _ in vars)
        return MultiPoly.build(vars, {e: c}, tower)

    @staticmethod
    def variable(vars: Sequence[str], name: str, tower: FieldTower = QQ) -> "MultiPoly":
        vars = tuple(vars)
        e = tuple(1 if v == name else 0 for v in vars)
        if sum(e) != 1:
            raise InvalidInputError(f"unknown variable {name!r}")
        return MultiPoly.build(vars, {e: tower.one()}, tower)

    @staticmethod
    def monomial(vars: Sequence[str], exponent: Sequence[int], c=1, tower: FieldTower = QQ) -> "MultiPoly":
        if isinstance(c, (int, str, Fraction)):
            c = tower.from_rational(c)
        return MultiPoly.build(vars, {tuple(exponent): c}, tower)

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise InvalidInputError(f"unknown variable {name!r}") from None

    def degree_in(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = self.var_index(name)
        return max((e[i] for e in self.terms), default=-1)

    def coefficient_in(self, name: str, degree: int) -> "MultiPoly":
        """Coefficient of name**degree, as a polynomial with that exponent zeroed."""
        i = self.var_index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == degree:
                out[e[:i] + (0,) + e[i + 1:]] = c
        return MultiPoly(self.vars, out, self.tower)

    def constant_term(self) -> Elem:
        return self.terms.get(tuple(0 for _ in self.vars), self.tower.zero())

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Elem]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.vars != other.vars or self.tower != other.tower:
            raise InvalidInputError("polynomials live in different rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        tw = self.tower
        for e, c in other.terms.items():
            if e in out:
                s = tw.add(out[e], c)
                if tw.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return MultiPoly(self.vars, out, tw)

    def __neg__(self) -> "MultiPoly":
        tw = self.tower
        return MultiPoly(self.vars, {e: tw.neg(c) for e, c in self.terms.items()}, tw)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        tw = self.tower
        out: dict[tuple[int, ...], Elem] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = tw.mul(c1, c2)
                if e in out:
                    s = tw.add(out[e], p)
                    if tw.is_zero(s):
                        del out[e]
                    else:
                        out[e] = s
                elif not tw.is_zero(p):
                    out[e] = p
        return MultiPoly(self.vars, out, tw)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise InvalidInputError("negative power of a polynomial")
        result = MultiPoly.constant(self.vars, 1, self.tower)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "MultiPoly":
        tw = self.tower
        if isinstance(c, (int, str, Fraction)):
            c = tw.from_rational(c)
        out = {}
        for e, x in self.terms.items():
            p = tw.mul(x, c)
            if not tw.is_zero(p):
                out[e] = p
        return MultiPoly(self.vars, out, tw)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.tower == other.tower
            and dict(self.terms) == dict(other.terms)
        )

    def __hash__(self):
        return hash((self.vars, self.tower, tuple(self.sorted_terms())))

    # -- ring changes ------------------------------------------------------

    def with_vars(self, new_vars: Sequence[str]) -> "MultiPoly":
        """Reinterpret over a superset / reordering of the variables."""
        new_vars = tuple(new_vars)
        pos = {}
        for i, v in enumerate(self.vars):
            if v not in new_vars:
                if self.degree_in(v) > 0:
                    raise InvalidInputError(f"variable {v!r} disappears but occurs")
                pos[i] = None
            else:
                pos[i] = new_vars.index(v)
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for i, x in enumerate(e):
                if x:
                    ne[pos[i]] = x
            key = tuple(ne)
            out[key] = self.tower.add(out[key], c) if key in out else c
        return MultiPoly(new_vars, {e: c for e, c in out.items() if not self.tower.is_zero(c)}, self.tower)

    def with_tower(self, tower: FieldTower) -> "MultiPoly":
        """Embed into a taller tower that extends the current one."""
        if tower.extensions[: self.tower.depth] != self.tower.extensions:
            raise InvalidInputError("target tower does not extend the current one")
        extra = tower.depth - self.tower.depth
        out = {}
        for e, c in self.terms.items():
            x = c
            for lv in range(self.tower.depth + 1, tower.depth + 1):
                x = tower._raise_to(x, lv)
            out[e] = x
        return MultiPoly(self.vars, out, tower)

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"e": list(e), "c": self.tower.elem_to_json(c)}
                for e, c in self.sorted_terms()
            ],
        }

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            cs = self.tower.elem_to_json(c)
            bits.append(f"({cs})*{mono}" if mono else f"({cs})")
        return " + ".join(bits)


# x-dense form of a polynomial: x-degree -> {exponent without x: coefficient}.
# Over Q a row coefficient is an int (a numerator over one denominator the
# caller keeps) or a Fraction; over an extension it is a tower element.
_Rows = dict[int, dict[tuple[int, ...], Elem]]


def _denominator(f: MultiPoly) -> Optional[int]:
    """The lcm of f's coefficient denominators over Q (1 for zero); None
    over an extension."""
    if f.tower.depth:
        return None
    return lcm(*[c.denominator for c in f.terms.values()])


def _row_ops(tw: FieldTower) -> tuple:
    """(mul, add, neg, is_zero) on row coefficients: the number operators
    over Q, which serve ints and Fractions alike, and the tower's own above."""
    if tw.depth:
        return tw.mul, tw.add, tw.neg, tw.is_zero
    return operator.mul, operator.add, operator.neg, operator.not_


def _split_rows(f: MultiPoly, xi: int, den: Optional[int] = None) -> _Rows:
    """Rows of f, or with ``den`` (a multiple of every denominator of f over
    Q) the integer rows of den * f."""
    rows: _Rows = {}
    for e, c in f.terms.items():
        if den is not None:
            c = c.numerator * (den // c.denominator)
        rows.setdefault(e[xi], {})[e[:xi] + e[xi + 1:]] = c
    return rows


def _join_rows(rows: _Rows, xi: int, like: MultiPoly, den: Optional[int] = None) -> MultiPoly:
    """The polynomial of ``rows`` (of rows / den with ``den``) in like's ring;
    the only place integer rows become Fractions."""
    terms = {}
    for k, row in rows.items():
        for e, c in row.items():
            terms[e[:xi] + (k,) + e[xi:]] = c if den is None else Fraction(c, den)
    return MultiPoly(like.vars, terms, like.tower)


def _monic_rows(g: MultiPoly, x: str) -> tuple[int, _Rows]:
    """x-degree and negated lower rows of a divisor monic in x; integer
    rows when g is integral over Q, so an integer dividend stays integral."""
    den = 1 if _denominator(g) == 1 else None
    rows = _split_rows(g, g.var_index(x), den)
    if not rows:
        raise NonMonicDivisorError("non-monic divisor: zero divisor")
    d = max(rows)
    lead = rows.pop(d)
    zero = tuple(0 for _ in g.vars[1:])
    if not (len(lead) == 1 and g.tower.eq(lead.get(zero), g.tower.one())):
        raise NonMonicDivisorError("non-monic divisor")
    neg = _row_ops(g.tower)[2]
    return d, {j: {e: neg(c) for e, c in row.items()} for j, row in rows.items()}


def _expansion_base(Q: MultiPoly, x: str) -> tuple[int, _Rows]:
    """``_monic_rows`` of a Q-adic expansion base, which must involve x."""
    if Q.degree_in(x) < 1:
        raise NonMonicDivisorError("non-monic divisor: expansion base must involve the variable")
    return _monic_rows(Q, x)


def _add_product(r: _Rows, c: dict, s: int, g_rows: _Rows, ops: tuple) -> None:
    """r += c * x^s * g in place, for one row ``c`` and the rows of g; no
    zero coefficient and no empty row is left in r.  This is the one inner
    loop of division, expansion and Horner reassembly."""
    mul, plus, _, is_zero = ops
    for j, g_row in g_rows.items():
        k = s + j
        row = r.setdefault(k, {})
        for e1, c1 in c.items():
            for e2, c2 in g_row.items():
                e = tuple(map(add, e1, e2))
                p = mul(c1, c2)
                if e in row:
                    p = plus(row[e], p)
                if is_zero(p):  # also a zero product under a reducible definer
                    row.pop(e, None)
                else:
                    row[e] = p
        if not row:
            del r[k]


def _divide_rows(r: _Rows, d: int, neg_low: _Rows, ops: tuple) -> _Rows:
    """Long division of ``r`` by a monic divisor of x-degree ``d`` whose
    negated lower rows are ``neg_low``.  ``r`` becomes the remainder in
    place; the quotient rows are returned."""
    q: _Rows = {}
    for k in range(max(r, default=-1), d - 1, -1):
        c = r.pop(k, None)
        if c:
            q[k - d] = c
            _add_product(r, c, k - d, neg_low, ops)
    return q


def _expand_rows(r: _Rows, d: int, neg_low: _Rows, ops: tuple) -> list[_Rows]:
    """Q-adic digits of ``r`` (consumed) for the divisor of ``_divide_rows``;
    the running quotient stays in row form from one digit to the next."""
    digits = []
    while True:
        quo = _divide_rows(r, d, neg_low, ops)
        digits.append(r)
        if not quo:
            return digits
        r = quo


def _reassembles(f: MultiPoly, Q: MultiPoly, digits: Sequence[MultiPoly], x: str) -> bool:
    """Whether sum digits[j] * Q^j is exactly f, for Q monic in x: Horner's
    rule on x-dense rows over one denominator, where multiplying by Q is a
    shift by its degree plus a product with its lower rows."""
    if f.vars != Q.vars or f.tower != Q.tower:
        return False
    xi = f.var_index(x)
    d, neg_low = _monic_rows(Q, x)
    den = _denominator(f)
    if den is not None:
        den = lcm(den, *map(_denominator, digits))
    ops = _row_ops(f.tower)
    neg = ops[2]
    low = {j: {e: neg(c) for e, c in row.items()} for j, row in neg_low.items()}
    one_row = {tuple(0 for _ in f.vars[1:]): f.tower.one() if den is None else 1}
    acc: _Rows = {}
    for c in reversed(digits):
        nxt = {k + d: dict(row) for k, row in acc.items()}
        for k, row in acc.items():
            _add_product(nxt, row, k, low, ops)
        _add_product(nxt, one_row, 0, _split_rows(c, xi, den), ops)
        acc = nxt
    return acc == _split_rows(f, xi, den)


def euclid_divide(f: MultiPoly, g: MultiPoly, x: str) -> tuple[MultiPoly, MultiPoly]:
    """Exact division f = q*g + r with deg_x(r) < deg_x(g); g monic in x."""
    f._check(g)
    d, neg_low = _monic_rows(g, x)
    den = _denominator(f)
    xi = f.var_index(x)
    r = _split_rows(f, xi, den)
    q = _divide_rows(r, d, neg_low, _row_ops(f.tower))
    return _join_rows(q, xi, f, den), _join_rows(r, xi, f, den)


def q_adic_expansion(f: MultiPoly, Q: MultiPoly, x: str) -> list[MultiPoly]:
    """Digits (a_0, ..., a_s) with f = sum a_i Q^i and deg_x(a_i) < deg_x(Q)."""
    f._check(Q)
    d, neg_low = _expansion_base(Q, x)
    den = _denominator(f)
    xi = f.var_index(x)
    digits = _expand_rows(_split_rows(f, xi, den), d, neg_low, _row_ops(f.tower))
    return [_join_rows(r, xi, f, den) for r in digits]


def taylor_shift(f: MultiPoly, x: str, theta: Elem) -> MultiPoly:
    """``f`` with ``x`` replaced by ``theta + x``, by the binomial theorem.

    A term ``c * m * x^k`` contributes ``C(k, i) theta^(k-i) c`` to
    ``m * x^i`` for i = 0..k.  With f's coordinates over one denominator
    D, theta = T / b and K the top x-degree, the table entry for (k, i) is
    the integral ``C(k, i) T^(k-i) b^(K-k+i)``; each output coordinate is
    ``Fraction(n, D b^K)`` of an integer multiply-accumulate n.  Under a
    non-integral definer the same loop runs on Fraction coordinates.  Terms
    are visited in the order of ``f`` and their images ascending in i,
    which is the term order ``substitute_variable`` produces for the same
    composition."""
    tw = f.tower
    xi = f.var_index(x)
    top = max((e[xi] for e in f.terms), default=0)
    mul, add, _, is_zero = _row_ops(tw._integral)
    den = lcm(*map(_coord_den, f.terms.values()))
    b = _coord_den(theta)
    t = _coords(theta, lambda q: q.numerator * (b // q.denominator))
    powers = [None, t]  # powers[m] = T^m
    for _ in range(1, top):
        powers.append(mul(powers[-1], t))
    lift = b**top
    shifts: dict[int, list] = {}
    out: dict[tuple[int, ...], Elem] = {}
    for e, c in f.terms.items():
        c = _coords(c, lambda q: q.numerator * (den // q.denominator))
        k = e[xi]
        row = shifts.get(k)
        if row is None:
            row = shifts[k] = [
                _coords(powers[k - i], partial(operator.mul, comb(k, i) * b ** (top - k + i)))
                for i in range(k)
            ]
        images = [mul(c, s) for s in row]
        images.append(c if lift == 1 else _coords(c, partial(operator.mul, lift)))
        for i, p in enumerate(images):
            if is_zero(p):
                continue
            ne = e[:xi] + (i,) + e[xi + 1:]
            if ne in out:
                p = add(out[ne], p)
                if is_zero(p):
                    del out[ne]
                    continue
            out[ne] = p
    den *= lift
    return MultiPoly(f.vars, {e: _coords(c, lambda n: Fraction(n, den)) for e, c in out.items()}, tw)


def substitute_variable(f: MultiPoly, x: str, g: MultiPoly) -> MultiPoly:
    """Exact composition: replace ``x`` by the polynomial ``g``."""
    f._check(g)
    xi = f.var_index(x)
    powers: dict[int, MultiPoly] = {0: MultiPoly.constant(f.vars, 1, f.tower)}

    def g_pow(k: int) -> MultiPoly:
        if k not in powers:
            powers[k] = g_pow(k - 1) * g
        return powers[k]

    out = MultiPoly.zero(f.vars, f.tower)
    for e, c in f.terms.items():
        rest = e[:xi] + (0,) + e[xi + 1:]
        t = MultiPoly.monomial(f.vars, rest, c, f.tower)
        out = out + t * g_pow(e[xi])
    return out
