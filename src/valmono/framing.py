"""Framed local blow-up steps and sequences.

A step is its center: the column count ``n``, the center ``J`` and the
vertex ``j``, plus the residue motion of its translation items.  In the
chart it is the elementary substitution ``u_i = u'_i u'_j`` for ``i`` in
``J`` minus ``j``, so on exponents it sets ``e[j]`` to the sum of ``e``
over ``J`` (the identity when ``|J| = 1``).  That update is the only way a
step acts on exponents, and ``_advance`` alone applies it; it is
invertible (subtract the other entries of ``J`` back), so distinct
exponents stay distinct.  The matrices N (old variables as monomials in
the new ones, the identity plus ``+1`` at ``(j, q)`` for ``q`` in ``J``
minus ``j``) and its inverse M (``-1`` there) are written only into traces.

There is no ring localization here.  When a variable acquires weight zero
it is tagged as a unit (the set ``J_times``, the targets of the translation
items) and keeps its column; all later centers avoid it.  Translation
items additionally move residues: an algebraic unit with residue theta is
replaced by the new regular parameter ``u' - theta`` (a tower extension
when the minimal polynomial has degree at least 2), a transcendental unit
just drops out of the official frame.  Everything downstream only ever
needs this unit bookkeeping, never unit arithmetic beyond the residue
tower.

Steps hold decoded objects: a translation's minimal polynomial is a tuple
of tower elements and the new parameter's weight a :class:`Value`.  They
become JSON only in ``to_json``; nothing here reads JSON.

A :class:`Frame` holds its weights as integer rows over one positive
denominator, as a :class:`Value` holds its coordinates.

A :class:`PushPath` grows in two ways, and each computes the frame after
its step once, from rows, with no ``Value``.  ``blow_up(J)`` decides a
blow-up in one pass over the rows: the signs of row differences pick the
vertex (the least weight, ties to the smallest index), each pushed row
``r_i - r_j`` is computed once, and an all-zero one tags its column as a
unit.  The vertex is least, so no pushed weight is negative.
``translate`` replaces a unit with an algebraic residue by a new regular
parameter: it renames the column, extends the tower from degree 2 on and
puts the new weight in.

Polynomials are pushed one way, by ``PushPath.push``: one ``_advance``
carries the exponents of the terms through a maximal run of steps without
an algebraic item, and an algebraic translation (the unit becomes
``theta + u'``) is a Taylor shift over the tower, which ``push`` alone makes.

Indices are 0-based in memory and 1-based in JSON records.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, le, sub
from typing import Optional, Sequence

from .errors import InvalidInputError, StepBudgetExceededError, quote
from .polyalg import FieldTower, MultiPoly, QQ, taylor_shift
from .values import Value, _literal, _order, _rows_of, _sign

DEFAULT_BUDGET = 100_000


class TranslationItem(namedtuple(
    "TranslationItem",
    "target minpoly symbol new_name new_weight",
    defaults=(None, None, None, None),
)):
    """Residue motion for one unit variable of a translation-kind step.

    ``minpoly`` is the monic minimal polynomial of the residue (elements of
    the tower before the step, lowest degree first) or None for a
    transcendental residue.  Algebraic items substitute
    ``u'_target = theta + new_var``; transcendental items only tag the
    variable as a unit.  ``new_weight`` optionally records the value of the
    new parameter so that frame replay is faithful.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        mp, nw = self.minpoly, self.new_weight
        return {
            "target": self.target + 1,
            "minpoly": [FieldTower.elem_to_json(c) for c in mp] if mp is not None else None,
            "symbol": self.symbol,
            "new_name": self.new_name,
            "new_weight": nw.to_json()["coords"] if nw is not None else None,
        }


class FramedStep(namedtuple("FramedStep", "n J j translation_data", defaults=((),))):
    """One framed blow-up along ``(u_J)`` with vertex ``j``, on the full
    column set (unit-tagged columns included).  A step with translation
    items is a translation-kind step; every other field is derived."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return "translation" if self.translation_data else "monomial"

    @property
    def J_times(self) -> tuple[int, ...]:
        """The columns tagged as units by this step."""
        return tuple(t.target for t in self.translation_data)

    @property
    def n_after(self) -> int:
        """The official frame dimension after the step: a transcendental
        residue drops its column."""
        return self.n - sum(t.minpoly is None for t in self.translation_data)

    def to_json(self) -> dict:
        n, j = self.n, self.j
        # M and N are fresh copies of the identity; only row j differs
        eye = _identity(n)
        M, N = list(map(list, eye)), list(map(list, eye))
        m, e = M[j], N[j]
        for q in self.J:
            if q != j:
                m[q], e[q] = -1, 1
        jx = self.J_times
        rec = {
            "J": [i + 1 for i in self.J],
            "j": j + 1,
            "kind": self.kind,
            "M": M,
            "N": N,
            "Jx": [i + 1 for i in jx],
            "n_before": n,
            "n_after": self.n_after,
            "D1": [i + 1 for i in range(n) if i not in jx],
        }
        if self.translation_data:
            rec["translations"] = [t.to_json() for t in self.translation_data]
        return rec


# n -> the n x n identity as rows of tuples, for n up to _IDENTITY_LIMIT;
# never handed out, only copied.
_IDENTITIES: dict[int, tuple[tuple[int, ...], ...]] = {}
_IDENTITY_LIMIT = 64


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    eye = _IDENTITIES.get(n)
    if eye is None:
        eye = tuple(tuple(int(p == q) for q in range(n)) for p in range(n))
        if n <= _IDENTITY_LIMIT:
            _IDENTITIES[n] = eye
    return eye


class Frame:
    """Variable labels, weights and unit tags of one chart.

    The weights are integer rows over one positive denominator: weight
    ``i`` has the coordinates ``rows[i][k] / den`` in ``group``, and
    ``rows[i]`` is None for an undeclared weight.  ``Frame(names, weights,
    units, tower)`` takes the weights as :class:`Value` objects and puts
    them over the lcm of their denominators; ``row(i)`` gives one row, and
    ``weights`` builds the values back on first use.  Frames are equal when
    their names, weight values, units and towers are."""

    __slots__ = ("names", "rows", "den", "group", "units", "tower", "_weights")

    def __init__(
        self,
        names: Sequence[str],
        weights: Sequence[Optional[Value]],
        units: frozenset[int] = frozenset(),
        tower: FieldTower = QQ,
    ):
        rows, den, group = _rows_of(weights)
        self._set(tuple(names), rows, den, group, frozenset(units), tower)
        self._weights = tuple(weights)

    @classmethod
    def _of_rows(cls, names, rows, den, group, units, tower) -> "Frame":
        frame = cls.__new__(cls)
        frame._set(names, rows, den, group, units, tower)
        frame._weights = None
        return frame

    def _set(self, names, rows, den, group, units, tower) -> None:
        self.names, self.rows, self.den, self.group = names, rows, den, group
        self.units, self.tower = units, tower

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def weights(self) -> tuple[Optional[Value], ...]:
        if self._weights is None:
            den, group = self.den, self.group
            self._weights = tuple(None if r is None else Value(r, den, group) for r in self.rows)
        return self._weights

    def all_positive(self) -> bool:
        """Whether every weight is declared and positive."""
        return all(r is not None and _sign(r) > 0 for r in self.rows)

    def row(self, i: int) -> tuple[int, ...]:
        r = self.rows[i]
        if r is None:
            raise InvalidInputError(f"variable {quote(self.names[i])} has no declared weight")
        return r

    def __eq__(self, other):
        if not isinstance(other, Frame):
            return NotImplemented
        return (self.names, self.units, self.tower, self.weights) == (
            other.names, other.units, other.tower, other.weights
        )

    def __hash__(self):
        return hash((self.names, self.units, self.tower, self.weights))

    def __repr__(self):
        return f"Frame({self.names!r}, {self.weights!r}, {self.units!r}, {self.tower!r})"

    def to_json(self) -> dict:
        den = self.den
        out = {
            "vars": list(self.names),
            # each literal in lowest terms, as Value.to_json writes it
            "weights": [
                None if r is None else {"coords": [_literal(x, den) for x in r]} for r in self.rows
            ],
            "units": [i + 1 for i in sorted(self.units)],
        }
        if self.tower.depth:
            out["tower"] = self.tower.to_json()
        return out


def translation_root(item: TranslationItem, tower: FieldTower):
    """The residue theta of an algebraic item, in the tower after its step."""
    if len(item.minpoly) == 2:
        return tower.neg(item.minpoly[0])
    return tower.generator(item.symbol)


def _advance(exps: Sequence[tuple[int, ...]], steps: Sequence[FramedStep]) -> list[tuple[int, ...]]:
    """``exps``, exponents of one chart, carried through ``steps`` in order:
    the one code that applies a center to exponents.  The columns of
    ``exps`` are taken once, a step sets column ``j`` to the sum of the
    columns of J (a one-column center changes nothing), and the columns are
    zipped back in the order of ``exps``; distinct exponents stay distinct."""
    if not exps:
        return []
    cols = list(zip(*exps))
    for s in steps:
        J = s.J
        if len(J) > 1:
            col = cols[J[0]]
            for q in J[1:]:
                col = map(add, col, cols[q])
            cols[s.j] = tuple(col)
    return list(zip(*cols))


def _push_exponents(f: MultiPoly, steps: Sequence[FramedStep]) -> MultiPoly:
    """f with its exponents carried through ``steps`` by ``_advance``.  No
    two terms land on one exponent, so the terms keep their order."""
    terms = dict(zip(_advance(f.terms, steps), f.terms.values()))
    return MultiPoly._of_reduced(f.vars, terms, f.tower, f.den)


class PushPath:
    """One framed sequence, from ``frame0`` through its steps, as the path
    along which polynomials are pushed.  A run's runner in ``trace`` makes
    it and hands it to the engine; the descent loops of ``game`` and the
    phases of ``unifseq`` grow it, and it stays the one copy of the run's
    sequence.  No result holds it.

    The path also holds the run's step budget: a blow-up beyond
    ``budget`` of them raises ``StepBudgetExceededError``, whichever phase
    asks for it.

    The path also keeps the run's step log, ``records``: each phase logs
    its steps through ``record``, which numbers them.

    The path grows only by ``blow_up`` and ``translate``; each computes
    the frame after its step once, when it appends the step.  Pushing
    through steps [a, b) and then [b, c) equals pushing through [a, c), so a
    caller may keep an image and advance it only through the steps added
    since.
    """

    def __init__(self, frame0: Frame, budget: int = DEFAULT_BUDGET):
        self.frames: list[Frame] = [frame0]
        self.steps: list[FramedStep] = []
        self.budget = budget
        self.blowups = 0
        self.records: list[dict] = []

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def frame(self) -> Frame:
        return self.frames[-1]

    def _spend(self) -> None:
        """Count one blow-up against the budget."""
        self.blowups += 1
        if self.blowups > self.budget:
            raise StepBudgetExceededError(f"step budget exceeded ({self.budget} steps)")

    def blow_up(self, J: tuple[int, ...]) -> FramedStep:
        """Append the blow-up along the center ``J``, two or more increasing
        columns, at its vertex: the column of least weight, ties to the
        smallest index.  Every other column of J whose weight equals the
        vertex's is tagged as a unit.  Returns the step.

        One pass over the frame's weight rows decides it: ``|J| - 1`` signs
        pick the vertex, and each pushed row ``r_i - r_j`` is computed once
        (a unit when it is all zeros).  The vertex is least, so no pushed
        weight is negative and no sign is decided again."""
        frame = self.frame
        n, rows = len(frame.names), frame.rows
        if len(J) < 2 or J[0] < 0 or J[-1] >= n or any(map(le, J[1:], J)):
            raise InvalidInputError("a center is two or more increasing columns of the frame")
        j = J[0]
        rj = rows[j] or frame.row(j)  # row() raises for an undeclared weight
        for i in J[1:]:
            ri = rows[i] or frame.row(i)
            if _order(ri, rj) < 0:
                j, rj = i, ri
        rows = list(rows)
        ties = []
        for i in J:
            if i != j:
                d = rows[i] = tuple(map(sub, rows[i], rj))
                if not any(d):
                    ties.append(i)
        if ties:
            step = FramedStep(n, J, j, tuple(TranslationItem(target=i) for i in ties))
            units = frame.units.union(ties)
        else:
            step, units = FramedStep(n, J, j), frame.units
        self._spend()
        self.steps.append(step)
        self.frames.append(Frame._of_rows(
            frame.names, tuple(rows), frame.den, frame.group, units, frame.tower,
        ))
        return step

    def translate(self, column: int, minpoly: tuple, new_weight: Optional[Value]) -> TranslationItem:
        """Append the translation that replaces the unit variable of
        ``column`` by the regular parameter ``u' - theta``, where theta is
        the residue of the variable and ``minpoly`` its monic minimal
        polynomial (elements of the current tower, lowest degree first).
        From degree 2 on theta is a new generator ``t<k>`` of the tower, the
        least ``k`` above its depth that no extension holds; the root
        ``-c_0`` of a degree-1 residue is already in the tower.  The column
        gets the variable's name primed until it is fresh, drops its unit
        tag and weighs ``new_weight`` (None leaves it undeclared).  Returns
        the step's item."""
        frame = self.frame
        tower, names = frame.tower, list(frame.names)
        symbol = None
        if len(minpoly) > 2:
            k = tower.depth + 1
            taken = {s for s, _ in tower.extensions}
            while f"t{k}" in taken:
                k += 1
            symbol = f"t{k}"
            tower = tower.extend(symbol, minpoly)
        new_name = names[column] + "'"
        while new_name in names:
            new_name += "'"
        names[column] = new_name
        item = TranslationItem(column, minpoly, symbol, new_name, new_weight)
        # the frame's rows and the new weight's over the lcm of their denominators
        (row,), den, group = _rows_of((new_weight,), frame.den, frame.group)
        scale = den // frame.den
        rows = list(frame.rows)
        if scale != 1:
            rows = [None if r is None else tuple(x * scale for x in r) for r in rows]
        rows[column] = row
        self.steps.append(FramedStep(frame.n, (column,), column, (item,)))
        self.frames.append(Frame._of_rows(
            tuple(names), tuple(rows), den, group, frame.units - {column}, tower,
        ))
        return item

    def record(self, **fields) -> None:
        """Log one record of the run, numbered from 1."""
        self.records.append({"step": len(self.records) + 1, **fields})

    def to_json(self, independent_of: Optional[Sequence[int]] = None) -> dict:
        """The sequence witness: a header with the first frame and its
        group, then the steps.  A runner that knows the path is its whole
        run passes ``independent_of``, columns that no center holds; it is
        checked against every step and written 1-based."""
        frame0 = self.frames[0]
        out = {
            "header": dict(frame0.to_json(), group=frame0.group.to_json()),
            "steps": [s.to_json() for s in self.steps],
        }
        if independent_of is not None:
            cols = set(independent_of)
            if any(not cols.isdisjoint(s.J) for s in self.steps):
                raise InvalidInputError("sequence touches its independence set")
            out["independent_of"] = [i + 1 for i in independent_of]
        return out

    def push(self, f: MultiPoly, start: int = 0, stop: Optional[int] = None) -> MultiPoly:
        """Image in the chart ``frames[stop]`` (default: the last) of f, a
        polynomial in the chart ``frames[start]``.  Each term's exponent is
        carried through a maximal run of steps without an algebraic item,
        tied blow-ups included, before the terms are rebuilt once.  An
        algebraic translation has one column, so its update is the identity:
        f is lifted to the tower after it, shifted by theta and renamed."""
        stop = len(self.steps) if stop is None else stop
        run = start  # the first step not yet pushed
        for k in range(start, stop):
            items = self.steps[k].translation_data
            if not items or items[0].minpoly is None:
                continue
            if run < k:
                f = _push_exponents(f, self.steps[run:k])
            run = k + 1
            item, tower = items[0], self.frames[run].tower
            if f.tower != tower:
                f = f.with_tower(tower)
            t = item.target
            f = taylor_shift(f, f.vars[t], translation_root(item, tower))
            renamed = f.vars[:t] + (item.new_name,) + f.vars[t + 1:]
            f = MultiPoly._of_reduced(renamed, f.terms, f.tower, f.den)
        if run < stop:
            f = _push_exponents(f, self.steps[run:stop])
        return f

    def advance(self, exps: Sequence[tuple[int, ...]], start: int = 0) -> list[tuple[int, ...]]:
        """The exponents ``exps`` of the chart ``frames[start]`` in the last
        chart: ``_advance`` through the steps from ``start`` on."""
        return _advance(exps, self.steps[start:])
