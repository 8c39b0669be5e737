"""Exact sparse multivariate polynomials over Q and simple extension towers.

Coefficients live in a :class:`FieldTower`: the base field Q extended by a
chain of symbols, each with a monic defining polynomial over the level
below.  Elements are kept in canonical form (reduced modulo the definers,
represented as nested coefficient tuples of fixed length), so structural
equality is field equality.  Tower algebra on single elements (inverses,
definers, residues) runs on rational coordinates.  A product at level 1
is one convolution of the number coordinates and one reduction by the
definer; a higher level multiplies its coordinates one level down, so
every product ends in level-1 ones.  Irreducibility of
definers is trusted at input and falsified lazily: a failed inversion
raises :class:`~valmono.errors.ReducibleDefinerError`.

A :class:`MultiPoly` holds integer coordinates over one positive
denominator ``den`` in lowest terms, as a :class:`~valmono.values.Value`
does, so equal polynomials are ``==`` and hash equal.  Arithmetic, ring
changes, the kernels below and ``to_json`` work on the integers, and
``coeff`` gives one coefficient as a rational element.  Integer definer
coordinates are held as ints, so products of integer elements stay
integral; a non-integral definer or divisor makes Fraction coordinates
through the same loops, and the constructor clears them again.
Polynomials are immutable by convention; term storage order fixes the
term order of results, and JSON is graded-lex.

Division by a divisor monic in x has one kernel: both operands are split
once into x-dense rows (x-degree -> x-free sparse coordinates, each keyed
by its packed x-free exponent, so that a monomial product is one integer
addition; ``_radix`` proves the packing's bound) and
long-divided row by row from the top degree down, so no coefficient is
inverted and an integral divisor keeps every row integral over the
dividend's denominator.  ``euclid_divide``, ``q_adic_expansion`` and the
truncations of :mod:`valmono.keypoly` share it.  An expansion by a pure
power x^d, a divisor with no lower rows, cuts the rows into blocks of d
instead, and a digit with no rows is the ring's zero, built with no
reduction.  The check that an expansion reassembles its polynomial adds
each nonzero digit's terms straight into rows over one denominator:
Horner's rule with the divisor's lower rows, in place, or the digits
shifted into place for a pure power.  One split (``_monic_split``) checks
that a divisor is monic for all of them, and for
:func:`valmono.keypoly.validate_chain`; a monic divisor keeps its split.
The Taylor shift ``x -> theta + x`` writes theta as T / b and is an
integer multiply-accumulate over ``den * b^K``: plain int ``*`` and ``+``
over Q, the tower's product over a tower, where the row kernels add,
negate and test number tuples directly at depth 1.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import partial
from itertools import chain
from math import comb, gcd, lcm
from operator import add
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    InvalidInputError,
    NonMonicDivisorError,
    ReducibleDefinerError,
    quote,
)
from .values import _exact, _literal

# A tower element is a tuple of lower-level elements (fixed length = degree
# of the definer) above level 0.  At level 0 it is a rational (an int or a
# Fraction) in tower algebra and an int coordinate in a polynomial's terms.
Elem = Union[Fraction, int, tuple]


def _is_zero_like(e) -> bool:
    """Zero test for tower elements on any number type (Fraction or int)."""
    if isinstance(e, tuple):
        return all(map(_is_zero_like, e))
    return not e


def _map(e, fn):
    """``e`` with ``fn`` applied to each of its coordinates."""
    if isinstance(e, tuple):
        return tuple(_map(c, fn) for c in e)
    return fn(e)


def _times(e, k: int):
    """``e`` with each coordinate multiplied by the integer ``k``."""
    if isinstance(e, tuple):
        return tuple(_times(c, k) for c in e)
    return e * k


def _leaves(elems: Iterable, depth: int) -> Iterable:
    """The coordinates of elements of a tower of this depth, in one iterable."""
    for _ in range(depth):
        elems = chain.from_iterable(elems)
    return elems


def _cleared(e: Elem, depth: int) -> tuple[Elem, int]:
    """``(n, d)``: the rational element ``e`` of a tower of this depth as
    integer coordinates ``n`` over one positive denominator ``d``."""
    d = lcm(*[q.denominator for q in _leaves((e,), depth)])
    return _map(e, lambda q: q.numerator * (d // q.denominator)), d


class FieldTower:
    """Q extended by ``extensions``: ordered (symbol, monic definer) pairs.

    Each definer is a coefficient tuple over the level below, lowest degree
    first, with leading coefficient equal to that level's one.
    """

    __slots__ = ("extensions", "depth")

    def __init__(self, extensions: tuple[tuple[str, tuple], ...] = ()):
        syms = [s for s, _ in extensions]
        if len(set(syms)) != len(syms):
            raise InvalidInputError("tower symbols must be distinct")
        for sym, mp in extensions:
            if len(mp) < 2:
                raise InvalidInputError(f"definer of {sym} must have degree >= 1")
        # integer definer coordinates are held as ints, so that under
        # integral definers products of integer elements stay integral
        self.extensions = tuple(
            (sym, tuple(_map(c, lambda q: q.numerator if q.denominator == 1 else q) for c in mp))
            for sym, mp in extensions
        )
        self.depth = len(self.extensions)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.extensions == other.extensions

    def __hash__(self):
        return hash((self.extensions,))

    def __repr__(self):
        return f"FieldTower(extensions={self.extensions!r})"

    # -- structure ---------------------------------------------------

    def degree_at(self, level: int) -> int:
        return len(self.extensions[level - 1][1]) - 1

    def extend(self, symbol: str, minpoly_coeffs: Sequence[Elem]) -> "FieldTower":
        """New tower with one more level.  ``minpoly_coeffs`` are elements of
        *this* tower, lowest degree first, monic."""
        mp = tuple(minpoly_coeffs)
        if mp[-1] != self.one():
            raise InvalidInputError("definer must be monic")
        return FieldTower(self.extensions + ((symbol, mp),))

    # -- element constructors ----------------------------------------

    def _zero_at(self, level: int) -> Elem:
        if level == 0:
            return 0
        return tuple(self._zero_at(level - 1) for _ in range(self.degree_at(level)))

    def zero(self) -> Elem:
        return self._zero_at(self.depth)

    def _raise_to(self, e: Elem, level: int) -> Elem:
        """Embed a level-(level-1) element at ``level``."""
        coeffs = [e] + [self._zero_at(level - 1) for _ in range(self.degree_at(level) - 1)]
        return tuple(coeffs)

    def _embed(self, e: Elem, level: int = 0) -> Elem:
        """Embed a level-``level`` element at the top level."""
        for lv in range(level + 1, self.depth + 1):
            e = self._raise_to(e, lv)
        return e

    def from_rational(self, q: Fraction | int | str) -> Elem:
        """The element of an exact rational: an int, a Fraction or a
        ``"p/q"`` literal."""
        return self._embed(Fraction(*_exact(q)))

    def one(self) -> Elem:
        return self._one_at(self.depth)

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
                return self._embed(gen, level)
        raise InvalidInputError(f"unknown tower symbol {quote(symbol)}")

    # -- arithmetic ---------------------------------------------------

    def is_zero(self, e: Elem) -> bool:
        return _is_zero_like(e)

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

    def _mul(self, a: Elem, b: Elem, level: int) -> Elem:
        """The product at ``level``: at level 1 one convolution of the
        number coordinates and one reduction by the definer; above it the
        same schoolbook product and reduction with each coordinate product
        one level down."""
        if level == 1:
            mp = self.extensions[0][1]
            deg = len(mp) - 1
            prod = [0] * (2 * deg - 1)
            for i, x in enumerate(a):
                if x:
                    for k, y in enumerate(b, i):
                        prod[k] += x * y
            for i in range(2 * deg - 2, deg - 1, -1):
                c = prod[i]
                if c:
                    for k, m in enumerate(mp[:deg], i - deg):
                        prod[k] -= c * m
            del prod[deg:]
            return tuple(prod)
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
        """The inverse of ``a``: a Fraction at level 0, and above it the
        solution x of a * x = 1, by Gauss-Jordan elimination over the level
        below on the columns a, a*t, ..., a*t^(d-1) (t the generator).  A
        column without pivot makes ``a`` a zero divisor: the definer is
        reducible."""
        if level == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1, a)
        if _is_zero_like(a):
            raise ZeroDivisionError("inverse of zero")
        d, low = self.degree_at(level), level - 1
        zero, one = self._zero_at(low), self._one_at(low)
        t = tuple(one if i == 1 else zero for i in range(d))
        cols = [a]
        for _ in range(d - 1):
            cols.append(self._mul(cols[-1], t, level))
        m = [[col[i] for col in cols] + [one if i == 0 else zero] for i in range(d)]
        for c in range(d):
            piv = next((i for i in range(c, d) if not _is_zero_like(m[i][c])), None)
            if piv is None:
                raise ReducibleDefinerError(f"reducible definer of {self.extensions[low][0]}")
            m[c], m[piv] = m[piv], m[c]
            inv = self._inv(m[c][c], low)
            m[c] = [self._mul(x, inv, low) for x in m[c]]
            for i in range(d):
                if i != c and not _is_zero_like(m[i][c]):
                    f = m[i][c]
                    m[i] = [self._sub_level(x, self._mul(f, y, low), low) for x, y in zip(m[i], m[c])]
        return tuple(row[d] for row in m)

    def _one_at(self, level: int) -> Elem:
        if level == 0:
            return 1
        return self._raise_to(self._one_at(level - 1), level)

    def inv(self, a: Elem) -> Elem:
        return self._inv(a, self.depth)

    # -- JSON ----------------------------------------------------------

    @staticmethod
    def elem_to_json(e: Elem, den: int = 1):
        """The JSON encoding of ``e / den`` for an element of any tower: a
        ``"p/q"`` string at level 0, nested coefficient lists above it."""
        if isinstance(e, tuple):
            return [FieldTower.elem_to_json(c, den) for c in e]
        return _literal(e.numerator, e.denominator * den)

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


QQ = FieldTower(())


def _exact_elem(c, tower: FieldTower) -> tuple[Elem, int]:
    """``(n, d)``: an element of ``tower`` or an exact rational (an int, a
    Fraction or a ``"p/q"`` literal) as integer coordinates over ``d``."""
    if isinstance(c, tuple):
        return _cleared(_map(c, lambda q: Fraction(*_exact(q))), tower.depth)
    p, q = _exact(c)
    return tower._embed(p), q


def _exponent_fault(e: tuple[int, ...], n: int) -> Optional[str]:
    """Why ``e`` is no exponent of a monomial in n variables, or None: the
    check of ``MultiPoly.build`` and of the JSON reader alike."""
    if len(e) != n:
        return "exponent length must match the variable count"
    if n and min(e) < 0:
        return "exponents must be nonnegative"
    return None


def _grlex(term: tuple[tuple[int, ...], Elem]) -> tuple:
    """Graded-lex sort key of an (exponent, coordinate) term."""
    e = term[0]
    return sum(e), e


class MultiPoly:
    """Sparse exact multivariate polynomial: the coefficient of the monomial
    ``e`` is ``terms[e] / den``, integer coordinates over one denominator;
    no zero coefficient is stored.  Any int or Fraction coordinates over any
    nonzero ``den`` may be given; they are stored as integers in lowest
    terms with ``den > 0``."""

    # ``_split`` is unset until ``_monic_split`` keeps the split there
    __slots__ = ("vars", "terms", "tower", "den", "_split")

    def __init__(
        self,
        vars: tuple[str, ...],
        terms: Mapping[tuple[int, ...], Elem],
        tower: FieldTower = QQ,
        den: int = 1,
    ):
        depth = tower.depth
        try:
            g = gcd(den, *(_leaves(terms.values(), depth) if depth else terms.values()))
        except TypeError:  # Fraction coordinates: clear them to one denominator
            nums, d = _cleared(tuple(terms.values()), depth + 1)
            terms, den = dict(zip(terms, nums)), den * d
            g = gcd(den, *_leaves(nums, depth))
        if g != 1 or den <= 0:
            if not den:
                raise InvalidInputError("denominator must be nonzero")
            g = -g if den < 0 else g
            den //= g
            if depth:
                terms = {e: _map(c, lambda n: n // g) for e, c in terms.items()}
            else:
                terms = {e: c // g for e, c in terms.items()}
        self.vars, self.terms, self.tower, self.den = vars, terms, tower, den

    @classmethod
    def _of_reduced(cls, vars, terms, tower, den) -> "MultiPoly":
        """The polynomial of coordinates that are already integers in lowest
        terms over ``den > 0``, such as another polynomial's moved to new
        exponents; nothing is checked or reduced."""
        f = cls.__new__(cls)
        f.vars, f.terms, f.tower, f.den = vars, terms, tower, den
        return f

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vars, self.terms, self.tower, self.den) == (
            other.vars, other.terms, other.tower, other.den
        )

    def __repr__(self):
        return (
            f"MultiPoly(vars={self.vars!r}, terms={self.terms!r}, "
            f"tower={self.tower!r}, den={self.den!r})"
        )

    # -- constructors --------------------------------------------------

    @staticmethod
    def build(
        vars: Sequence[str],
        terms: Mapping[tuple[int, ...], Elem] | Iterable[tuple[tuple[int, ...], Elem]],
        tower: FieldTower = QQ,
        den: int = 1,
    ) -> "MultiPoly":
        """The polynomial with coefficients ``c / den`` for the given
        (exponent, c) pairs; exponents are checked and summed when they
        repeat, and zero coefficients are dropped."""
        vars = tuple(vars)
        collected: dict[tuple[int, ...], Elem] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        n = len(vars)
        for e, c in items:
            e = tuple(map(int, e))
            fault = _exponent_fault(e, n)
            if fault:
                raise InvalidInputError(fault)
            if e in collected:
                collected[e] = tower.add(collected[e], c)
            else:
                collected[e] = c
        collected = {e: c for e, c in collected.items() if not tower.is_zero(c)}
        return MultiPoly(vars, collected, tower, den)

    @staticmethod
    def constant(vars: Sequence[str], c, tower: FieldTower = QQ) -> "MultiPoly":
        return MultiPoly.monomial(vars, [0] * len(vars), c, tower)

    @staticmethod
    def variable(vars: Sequence[str], name: str, tower: FieldTower = QQ) -> "MultiPoly":
        vars = tuple(vars)
        e = tuple(1 if v == name else 0 for v in vars)
        if sum(e) != 1:
            raise InvalidInputError(f"unknown variable {quote(name)}")
        return MultiPoly.build(vars, {e: tower.one()}, tower)

    @staticmethod
    def monomial(vars: Sequence[str], exponent: Sequence[int], c=1, tower: FieldTower = QQ) -> "MultiPoly":
        """``c * vars^exponent`` for ``c`` an element of ``tower`` or an exact
        rational (an int, a Fraction or a ``"p/q"`` literal)."""
        n, d = _exact_elem(c, tower)
        return MultiPoly.build(vars, {tuple(exponent): n}, tower, d)

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise InvalidInputError(f"unknown variable {quote(name)}") from None

    def degree_in(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = self.var_index(name)
        return max((e[i] for e in self.terms), default=-1)

    def coeff(self, e: tuple[int, ...]) -> Elem:
        """The coefficient of the monomial ``e`` as a rational element of
        the tower (its zero when ``e`` is not a term)."""
        c = self.terms.get(tuple(e))
        if c is None:
            return self.tower.zero()
        den = self.den
        return _map(c, lambda n: Fraction(n, den))

    def constant_term(self) -> Elem:
        return self.coeff(tuple(0 for _ in self.vars))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Elem]]:
        return sorted(self.terms.items(), key=_grlex)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        tower = self.tower
        if self.vars != other.vars or other.tower is not tower and other.tower != tower:
            raise InvalidInputError("polynomials live in different rings")

    def _over(self, den: int) -> Mapping[tuple[int, ...], Elem]:
        """The coordinates over ``den``, a multiple of ``self.den``."""
        k = den // self.den
        if k == 1:
            return self.terms
        return {e: _times(c, k) for e, c in self.terms.items()}

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        den = lcm(self.den, other.den)
        _, plus, _, is_zero = _row_ops(self.tower)
        out = dict(self._over(den))
        for e, c in other._over(den).items():
            if e in out:
                s = plus(out[e], c)
                if is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return MultiPoly(self.vars, out, self.tower, den)

    def __neg__(self) -> "MultiPoly":
        neg = _row_ops(self.tower)[2]
        return MultiPoly(self.vars, {e: neg(c) for e, c in self.terms.items()}, self.tower, self.den)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        mul, plus, _, is_zero = _row_ops(self.tower)
        out: dict[tuple[int, ...], Elem] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = mul(c1, c2)
                if e in out:
                    s = plus(out[e], p)
                    if is_zero(s):
                        del out[e]
                    else:
                        out[e] = s
                elif not is_zero(p):
                    out[e] = p
        return MultiPoly(self.vars, out, self.tower, self.den * other.den)

    def scale(self, c) -> "MultiPoly":
        """``c`` times this polynomial, for ``c`` an element of the tower or
        an exact rational (an int, a Fraction or a ``"p/q"`` literal)."""
        n, d = _exact_elem(c, self.tower)
        mul, _, _, is_zero = _row_ops(self.tower)
        out = {}
        for e, x in self.terms.items():
            p = mul(x, n)
            if not is_zero(p):
                out[e] = p
        return MultiPoly(self.vars, out, self.tower, self.den * d)

    def __hash__(self):
        return hash((self.vars, self.tower, self.den, tuple(self.sorted_terms())))

    # -- ring changes ------------------------------------------------------

    def with_vars(self, new_vars: Sequence[str]) -> "MultiPoly":
        """Reinterpret over a superset / reordering of the variables; the
        polynomial itself when they are its own."""
        new_vars = tuple(new_vars)
        if new_vars == self.vars:
            return self
        pos = {}
        for i, v in enumerate(self.vars):
            if v not in new_vars:
                if self.degree_in(v) > 0:
                    raise InvalidInputError(f"variable {quote(v)} disappears but occurs")
                pos[i] = None
            else:
                pos[i] = new_vars.index(v)
        out = {}
        for e, c in self.terms.items():  # one-to-one: a dropped variable never occurs
            ne = [0] * len(new_vars)
            for i, x in enumerate(e):
                if x:
                    ne[pos[i]] = x
            out[tuple(ne)] = c
        return MultiPoly._of_reduced(new_vars, out, self.tower, self.den)

    def with_tower(self, tower: FieldTower) -> "MultiPoly":
        """Embed into a taller tower that extends the current one.  The
        embedding only adds zero coordinates, so they stay in lowest terms."""
        if tower.extensions[: self.tower.depth] != self.tower.extensions:
            raise InvalidInputError("target tower does not extend the current one")
        level = self.tower.depth
        out = {e: tower._embed(c, level) for e, c in self.terms.items()}
        return MultiPoly._of_reduced(self.vars, out, tower, self.den)

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        # over Q a coordinate is an int, written as its literal over den
        den, elem = self.den, FieldTower.elem_to_json if self.tower.depth else _literal
        terms = []
        if self.terms:  # the zero polynomial has nothing to sort
            terms = [{"e": list(e), "c": elem(c, den)} for e, c in self.sorted_terms()]
        return {"vars": list(self.vars), "terms": terms}


# x-dense form of a polynomial's coordinates: x-degree -> {packed key of the
# exponent without x: coordinate}, over the polynomial's denominator, which
# the caller keeps.  A coordinate is an int, or a Fraction where a
# non-integral divisor or definer has acted on it.
_Rows = dict[int, dict[int, Elem]]


# row operators of a depth-1 tower, whose coordinates are tuples of numbers
def _add1(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def _neg1(a: tuple) -> tuple:
    return tuple(map(operator.neg, a))


def _is_zero1(a: tuple) -> bool:
    return not any(a)


def _row_ops(tw: FieldTower) -> tuple:
    """(mul, add, neg, is_zero) on coordinates: the number operators over Q,
    which serve ints and Fractions alike, number tuples at depth 1, and the
    tower's own above."""
    if tw.depth == 1:
        return tw.mul, _add1, _neg1, _is_zero1
    if tw.depth:
        return tw.mul, tw.add, tw.neg, tw.is_zero
    return operator.mul, operator.add, operator.neg, operator.not_


def _radix(
    operands: Sequence[MultiPoly], divisors: Sequence[MultiPoly], xi: int, times: int
) -> Optional[int]:
    """The radix R of the packing for a kernel run on ``operands`` and the
    lower rows of monic ``divisors`` in x (variable ``xi``), with at most
    ``times`` lower-row factors in any one term.  The key of an x-free
    exponent (e_1, ..., e_m) is e_1 + e_2 R + ... + e_m R^(m-1); its top
    field has no bound, so with one x-free variable the key is the
    exponent itself and there is no radix (None).  Otherwise R is
    top + times * lower + 1, for ``top`` the largest field e_1 .. e_(m-1)
    of any term of any of them and ``lower`` that of the divisors.

    That R is large enough.  Keys add field by field as long as no field
    reaches R, and then distinct exponents have distinct keys; the kernels
    form a key only as the sum of two, the exponent of a product.  A
    product of a term at row k with a lower row of a divisor of x-degree d
    lands on a row of at most k - 1, a quotient row moves down by d with
    no product, and no row is below 0.  So a division or expansion of f,
    by one divisor or a chain of them level by level, gives any term of f
    at most ``deg_x f`` lower-row factors: each field it forms is at most
    top + deg_x f * lower.  Horner's rule over digits c_0 .. c_s multiplies
    the terms of c_j by Q j times, by x^d or by one lower row each time:
    times = s."""
    n = len(divisors[0].vars)
    if n < 3:
        return None
    bounded = [i for i in range(n) if i != xi][:-1]

    def top(polys):
        return max([e[i] for p in polys for e in p.terms for i in bounded], default=0)

    lower = top(divisors)
    return max(top(operands), lower) + times * lower + 1


def _places(n: int, xi: int, radix: Optional[int]) -> tuple[int, ...]:
    """The place value of each of n variables in a packed key: 0 for x,
    variable ``xi``, and R^k for the k-th x-free variable from 0; the key
    of an exponent is its dot product with them."""
    places = []
    for _ in range(n - 1):
        places.append(places[-1] * radix if places else 1)
    places.insert(xi, 0)
    return tuple(places)


def _unpack(key: int, m: int, radix: Optional[int]) -> list[int]:
    """The x-free exponent (e_1, ..., e_m) of a packed key."""
    e = []
    for _ in range(m - 1):
        key, r = divmod(key, radix)
        e.append(r)
    if m:
        e.append(key)
    return e


def _split_rows(f: MultiPoly, xi: int, places: tuple) -> _Rows:
    """The rows of f's coordinates, over ``f.den``, keyed by ``places``."""
    rows: _Rows = {}
    for e, c in f.terms.items():
        rows.setdefault(e[xi], {})[sum(map(operator.mul, e, places))] = c
    return rows


def _join_rows(rows: _Rows, xi: int, like: MultiPoly, radix: Optional[int]) -> MultiPoly:
    """The polynomial of ``rows`` over ``like.den``, in like's ring, its
    keys unpacked with ``radix``; no rows are the ring's zero, which needs
    no reduction."""
    if not rows:
        return MultiPoly._of_reduced(like.vars, {}, like.tower, 1)
    m = len(like.vars) - 1
    terms = {}
    for k, row in rows.items():
        for key, c in row.items():
            e = _unpack(key, m, radix)
            e.insert(xi, k)
            terms[tuple(e)] = c
    return MultiPoly(like.vars, terms, like.tower, like.den)


def _monic_split(g: MultiPoly, x: str, places: tuple, least: int = 0) -> tuple[int, _Rows]:
    """x-degree and lower rows, over ``g.den`` and keyed by ``places``, of
    a divisor monic in x of x-degree at least ``least`` (1 for an
    expansion base): the one check that raises NonMonicDivisorError.  The
    split of a monic g is kept on g for its packing, so a divisor that
    expands and then reassembles is split once; its rows are only read."""
    split = getattr(g, "_split", None)
    if split is not None and split[0] == places and split[1] >= least:
        return split[1:]
    rows = _split_rows(g, g.var_index(x), places)
    d = max(rows, default=-1)
    if d < least:
        if least:
            raise NonMonicDivisorError("non-monic divisor: expansion base must involve the variable")
        raise NonMonicDivisorError("non-monic divisor: zero divisor")
    lead = rows.pop(d)
    if not (len(lead) == 1 and lead.get(0) == _times(g.tower.one(), g.den)):
        raise NonMonicDivisorError("non-monic divisor")
    g._split = places, d, rows
    return d, rows


def _monic_rows(g: MultiPoly, x: str, places: tuple, least: int = 0) -> tuple[int, _Rows]:
    """x-degree and negated lower rows of a divisor as ``_monic_split``
    checks it: integer rows when g is integral, so an integer dividend
    stays integral, and Fraction rows otherwise."""
    d, rows = _monic_split(g, x, places, least)
    den = g.den
    neg = _row_ops(g.tower)[2] if den == 1 else partial(_map, fn=lambda n: Fraction(-n, den))
    return d, {j: {e: neg(c) for e, c in row.items()} for j, row in rows.items()}


def _add_product(r: _Rows, c: dict, s: int, g_rows: _Rows, ops: tuple) -> None:
    """r += c * x^s * g in place, for one row ``c`` and the rows of g; no
    zero coefficient and no empty row is left in r.  This is the one inner
    loop of division, expansion and Horner reassembly: a monomial product
    is the sum of two packed keys."""
    mul, plus, _, is_zero = ops
    terms = c.items()
    for j, g_row in g_rows.items():
        k = s + j
        row = r.get(k)
        if row is None:
            row = r[k] = {}
        get = row.get
        for e2, c2 in g_row.items():
            for e1, c1 in terms:
                e = e1 + e2
                q = get(e)
                p = mul(c1, c2) if q is None else plus(q, mul(c1, c2))
                # a zero product, under a reducible definer, adds no term
                if not is_zero(p):
                    row[e] = p
                elif q is not None:
                    del row[e]
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
    the running quotient stays in row form from one digit to the next.
    A divisor without lower rows is Q = x^d, whose digit j is rows
    j*d .. j*d+d-1 of r shifted down by j*d: the digits of the division
    loop, empty middle digits included, with no loop run."""
    if not neg_low:
        digits: list[_Rows] = [{} for _ in range(max(r, default=0) // d + 1)]
        for k, row in r.items():
            j, m = divmod(k, d)
            digits[j][m] = row
        return digits
    digits = []
    while True:
        quo = _divide_rows(r, d, neg_low, ops)
        digits.append(r)
        if not quo:
            return digits
        r = quo


def _add_terms(
    r: _Rows, p: MultiPoly, xi: int, s: int, den: int, ops: tuple, places: tuple
) -> _Rows:
    """r += p * x^s in place, over ``den``, a multiple of ``p.den``: p's
    terms go straight into the rows, keyed by ``places``, and no zero
    coefficient and no empty row is left in r."""
    _, plus, _, is_zero = ops
    lift = den // p.den
    for e, c in p.terms.items():
        if lift != 1:
            c = _times(c, lift)
        k = e[xi] + s
        row = r.get(k)
        if row is None:
            row = r[k] = {}
        e = sum(map(operator.mul, e, places))
        if e in row:
            c = plus(row[e], c)
            if is_zero(c):
                del row[e]
                if not row:
                    del r[k]
                continue
        row[e] = c
    return r


def _reassembles(f: MultiPoly, Q: MultiPoly, digits: Sequence[MultiPoly], x: str) -> bool:
    """Whether sum digits[j] * Q^j is exactly f, for Q monic in x, on
    x-dense rows over one denominator, with the terms of each nonzero
    digit added straight into them.  For Q = x^d that is the sum of the
    digits shifted by j*d; otherwise it is Horner's rule, where
    multiplying by Q moves the rows up by d and adds each one's product
    with Q's lower rows, lowest row first: a product lands only on rows
    already read, so no row is copied."""
    if f.vars != Q.vars or f.tower != Q.tower:
        return False
    xi = f.var_index(x)
    radix = _radix([f, *digits], [Q], xi, max(len(digits) - 1, 0))
    places = _places(len(f.vars), xi, radix)
    d, low = _monic_split(Q, x, places)
    ops = _row_ops(f.tower)
    den = lcm(f.den, *[c.den for c in digits])
    acc: _Rows = {}
    if not low:
        for j, c in enumerate(digits):
            if c.terms:
                _add_terms(acc, c, xi, j * d, den, ops, places)
    else:
        if Q.den != 1:
            over = partial(_map, fn=lambda n: Fraction(n, Q.den))
            low = {j: {e: over(c) for e, c in row.items()} for j, row in low.items()}
        for c in reversed(digits):
            moved = {k + d: row for k, row in acc.items()}
            for k in sorted(acc):
                _add_product(moved, acc[k], k, low, ops)
            acc = moved
            if c.terms:
                _add_terms(acc, c, xi, 0, den, ops, places)
    return acc == _add_terms({}, f, xi, 0, den, ops, places)


def euclid_divide(f: MultiPoly, g: MultiPoly, x: str) -> tuple[MultiPoly, MultiPoly]:
    """Exact division f = q*g + r with deg_x(r) < deg_x(g); g monic in x."""
    f._check(g)
    xi = f.var_index(x)
    radix = _radix([f], [g], xi, max(f.degree_in(x), 0))
    places = _places(len(f.vars), xi, radix)
    d, neg_low = _monic_rows(g, x, places)
    r = _split_rows(f, xi, places)
    q = _divide_rows(r, d, neg_low, _row_ops(f.tower))
    return _join_rows(q, xi, f, radix), _join_rows(r, xi, f, radix)


def q_adic_expansion(f: MultiPoly, Q: MultiPoly, x: str) -> list[MultiPoly]:
    """Digits (a_0, ..., a_s) with f = sum a_i Q^i and deg_x(a_i) < deg_x(Q)."""
    f._check(Q)
    xi = f.var_index(x)
    radix = _radix([f], [Q], xi, max(f.degree_in(x), 0))
    places = _places(len(f.vars), xi, radix)
    d, neg_low = _monic_rows(Q, x, places, 1)
    digits = _expand_rows(_split_rows(f, xi, places), d, neg_low, _row_ops(f.tower))
    return [_join_rows(r, xi, f, radix) for r in digits]


def taylor_shift(f: MultiPoly, x: str, theta: Elem) -> MultiPoly:
    """``f`` with ``x`` replaced by ``theta + x``, by the binomial theorem.

    A term ``c * m * x^k`` contributes ``C(k, i) theta^(k-i) c`` to
    ``m * x^i`` for i = 0..k.  With theta = T / b for integer coordinates T
    and K the top x-degree, the table entry for (k, i) is the integral
    ``C(k, i) T^(k-i) b^(K-k+i)``, and the image is the integer
    multiply-accumulate of f's coordinates with it, over ``f.den * b^K``.
    Over Q that is plain ``*`` and ``+`` on ints, and no image is zero
    when theta is not; over a tower the products are the tower's, and a
    zero image is skipped (a reducible definer has zero divisors).  Under
    a non-integral definer the same loop runs on Fraction coordinates.
    Each exponent is split once around x.  Terms are visited in the order
    of ``f`` and their images ascending in i, which is the term order of
    composing ``f`` with theta + x term by term: a sum that cancels drops
    its key, and a later image puts it back at the end."""
    tw = f.tower
    xi = f.var_index(x)
    t, b = _cleared(theta, tw.depth)
    if _is_zero_like(t):
        return f
    top = max((e[xi] for e in f.terms), default=0)
    mul, add, _, is_zero = _row_ops(tw)
    powers = [1, t]  # powers[m] = T^m
    for _ in range(1, top):
        powers.append(mul(powers[-1], t))
    lift = b**top
    ks = {e[xi] for e in f.terms}
    out: dict[tuple[int, ...], Elem] = {}
    get = out.get
    if not tw.depth:
        # scaled[m] = T^m b^(K-m), so the entry for (k, i) is C(k, i) scaled[k-i]
        scaled = [p * b ** (top - m) for m, p in enumerate(powers)]
        rows = {k: [comb(k, i) * scaled[k - i] for i in range(k + 1)] for k in ks}
        for e, c in f.terms.items():
            k = e[xi]
            pre, post = e[:xi], e[xi + 1:]
            for i, s in enumerate(rows[k]):
                ne = pre + (i,) + post
                p = c * s
                q = get(ne)
                if q is not None:
                    p += q
                    if not p:
                        del out[ne]
                        continue
                out[ne] = p
        return MultiPoly(f.vars, out, tw, f.den * lift)
    rows = {k: [_times(powers[k - i], comb(k, i) * b ** (top - k + i)) for i in range(k)] for k in ks}
    for e, c in f.terms.items():
        k = e[xi]
        pre, post = e[:xi], e[xi + 1:]
        images = [mul(c, s) for s in rows[k]]
        images.append(c if lift == 1 else _times(c, lift))
        for i, p in enumerate(images):
            if is_zero(p):
                continue
            ne = pre + (i,) + post
            q = get(ne)
            if q is not None:
                p = add(q, p)
                if is_zero(p):
                    del out[ne]
                    continue
            out[ne] = p
    return MultiPoly(f.vars, out, tw, f.den * lift)
