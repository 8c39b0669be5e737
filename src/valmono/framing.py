"""Framed local blow-up steps and sequences.

A step is its center: the column count ``n``, the center ``J`` and the
vertex ``j``, plus the residue motion of its translation items.  In the
chart it is the elementary substitution ``u_i = u'_i u'_j`` for ``i`` in
``J`` minus ``j``, so on exponents it sets ``e[j]`` to the sum of ``e``
over ``J`` (the identity when ``|J| = 1``).  That update is the only way a
step acts on exponents; it is invertible (subtract the other entries of
``J`` back), so distinct exponents stay distinct.  The matrices N (old
variables as monomials in the new ones, the identity plus ``+1`` at
``(j, q)`` for ``q`` in ``J`` minus ``j``) and its inverse M (``-1``
there) are written only into traces.

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
denominator, as a :class:`Value` holds its coordinates.  A blow-up of the
descent loops is decided by ``PushPath.blow_up(J)`` in one pass over those
rows: the signs of row differences pick the vertex (the least weight, ties
to the smallest index), each pushed row ``r_i - r_j`` is computed once, and
an all-zero one tags its column as a unit.  The vertex is least, so no
pushed weight is negative and the new frame is built from rows, with no
``Value``.  A step built outside it (a translation, a hand-made blow-up)
is appended by ``PushPath.append``; its pushed weights are checked to be
``>= 0`` (``pushforward_weights``).

Polynomials are pushed along one path, :class:`PushPath`: a sequence from
its first frame, with the frame after each step computed once.  Each term's
exponent is carried through a maximal run of monomial steps by their
updates, one after another; an algebraic translation (the unit becomes
``theta + u'``) is a Taylor shift over the tower.
``push_polynomial_through_step`` is the per-step primitive under it.

Indices are 0-based in memory and 1-based in JSON records.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import le, sub
from typing import Optional, Sequence

from .errors import GroupMismatchError, InvalidInputError, StepBudgetExceededError
from .polyalg import FieldTower, MultiPoly, QQ, taylor_shift
from .values import Value, ValueGroup, _literal, _sign

DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class TranslationItem:
    """Residue motion for one unit variable of a translation-kind step.

    ``minpoly`` is the monic minimal polynomial of the residue (elements of
    the tower before the step, lowest degree first) or None for a
    transcendental residue.  Algebraic items substitute
    ``u'_target = theta + new_var``; transcendental items only tag the
    variable as a unit.  ``new_weight`` optionally records the value of the
    new parameter so that frame replay is faithful.
    """

    target: int
    minpoly: Optional[tuple] = None
    symbol: Optional[str] = None
    new_name: Optional[str] = None
    new_weight: Optional[Value] = None

    def to_json(self) -> dict:
        mp, nw = self.minpoly, self.new_weight
        return {
            "target": self.target + 1,
            "minpoly": [FieldTower.elem_to_json(c) for c in mp] if mp is not None else None,
            "symbol": self.symbol,
            "new_name": self.new_name,
            "new_weight": nw.to_json()["coords"] if nw is not None else None,
        }


@dataclass(frozen=True)
class FramedStep:
    """One framed blow-up along ``(u_J)`` with vertex ``j``, on the full
    column set (unit-tagged columns included).  A step with translation
    items is a translation-kind step; every other field is derived."""

    n: int
    J: tuple[int, ...]
    j: int
    translation_data: tuple[TranslationItem, ...] = ()

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

    def apply_to_exponent(self, e: tuple[int, ...]) -> tuple[int, ...]:
        """The exponent in the new chart, N times e: ``e[j]`` becomes the
        sum of e over J."""
        j = self.j
        return e[:j] + (sum([e[q] for q in self.J]),) + e[j + 1:]

    def _rows(self, off: int) -> list[list[int]]:
        """The identity with ``off`` at (j, q) for q in J minus the vertex:
        N for ``off = 1``, M for ``off = -1``, as written into traces."""
        rows = [[0] * self.n for _ in range(self.n)]
        for p, row in enumerate(rows):
            row[p] = 1
        for q in self.J:
            if q != self.j:
                rows[self.j][q] = off
        return rows

    def to_json(self) -> dict:
        jx = self.J_times
        rec = {
            "J": [i + 1 for i in self.J],
            "j": self.j + 1,
            "kind": self.kind,
            "M": self._rows(-1),
            "N": self._rows(1),
            "Jx": [i + 1 for i in jx],
            "n_before": self.n,
            "n_after": self.n_after,
            "D1": [i + 1 for i in range(self.n) if i not in jx],
        }
        if self.translation_data:
            rec["translations"] = [t.to_json() for t in self.translation_data]
        return rec


def _rows_of(weights, den: int = 1, group: Optional[ValueGroup] = None):
    """``(rows, den, group)``: ``weights`` (Values, or None for an undeclared
    weight) as integer rows over the lcm of ``den`` and their denominators.
    Weights of another group than ``group`` are a GroupMismatchError."""
    for w in weights:
        if w is not None:
            if group is None:
                group = w.group
            elif w.group is not group and w.group != group:
                raise GroupMismatchError("group mismatch")
            den = lcm(den, w.den)
    rows = tuple(None if w is None else tuple(x * (den // w.den) for x in w.nums) for w in weights)
    return rows, den, group


class Frame:
    """Variable labels, weights and unit tags of one chart.

    The weights are integer rows over one positive denominator: weight
    ``i`` has the coordinates ``rows[i][k] / den`` in ``group``, and
    ``rows[i]`` is None for an undeclared weight.  ``Frame(names, weights,
    units, tower)`` takes the weights as :class:`Value` objects and puts
    them over the lcm of their denominators; ``weights`` and ``weight(i)``
    give them back as values, built on first use.  Frames are equal when
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

    def row(self, i: int) -> tuple[int, ...]:
        r = self.rows[i]
        if r is None:
            raise InvalidInputError(f"variable {self.names[i]!r} has no declared weight")
        return r

    def weight(self, i: int) -> Value:
        self.row(i)
        return self.weights[i]

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


def pushforward_weights(frame: Frame, step: FramedStep) -> list:
    """The weight rows after ``step``, over ``frame.den``: ``r_i - r_j`` on
    J minus the vertex j, unchanged elsewhere.  Each pushed weight must be
    >= 0; ``PushPath.blow_up`` picks its vertex so that they are, and this
    check is for steps built outside it (translations, hand-made blow-ups)."""
    rows = list(frame.rows)
    j = step.j
    if len(step.J) > 1:
        rj, ordering = frame.row(j), frame.group.ordering
        for i in step.J:
            if i != j:
                d = rows[i] = tuple(map(sub, frame.row(i), rj))
                if _sign(d, ordering) < 0:
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
    return Frame._of_rows(tuple(names), tuple(rows), den, group, frozenset(units), tower)


def translation_root(item: TranslationItem, tower: FieldTower):
    """The residue theta of an algebraic item, in the tower after its step."""
    if len(item.minpoly) == 2:
        return tower.neg(item.minpoly[0])
    return tower.generator(item.symbol)


def _push_exponents(f: MultiPoly, steps: Sequence[FramedStep]) -> MultiPoly:
    """f with each term's exponent carried through ``steps``, first to last.
    Every update is invertible, so no two terms land on one exponent and
    the terms keep their order."""
    terms = {}
    for e, c in f.terms.items():
        for s in steps:
            e = s.apply_to_exponent(e)
        terms[e] = c
    return MultiPoly(f.vars, terms, f.tower, f.den)


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


class PushPath:
    """One framed sequence, from ``frame0`` through its steps, as the path
    along which polynomials are pushed.  The descent loops of ``game`` and
    the phases of ``unifseq`` append their steps here; a run's result
    holds its path, the one copy of its sequence.

    The path also holds the run's step budget: appending a blow-up (a
    center of two or more columns) beyond ``budget`` of them raises
    ``StepBudgetExceededError``, whichever phase appends it.

    The path also keeps the run's step log, ``records``: each phase logs
    its steps through ``record``, which numbers them.

    The frame after each step is computed once, when the step is appended.
    Through a maximal run of monomial steps each term's exponent is folded
    through the updates before the terms are rebuilt once; every other
    step goes through ``push_polynomial_through_step``.  Pushing through
    steps [a, b) and then [b, c) equals pushing through [a, c), so a caller
    may keep an image and advance it only through the steps added since.
    """

    def __init__(self, frame0: Frame, budget: int = DEFAULT_BUDGET):
        self.frames: list[Frame] = [frame0]
        self.steps: list[FramedStep] = []
        self.budget = budget
        self.blowups = 0
        self.independence_set: Optional[tuple[int, ...]] = None  # see claim_independence
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

    def append(self, step: FramedStep) -> None:
        if step.n != self.frame.n:
            raise InvalidInputError("step and frame have different column counts")
        if len(step.J) > 1:
            self._spend()
        self.steps.append(step)
        self.frames.append(apply_step_to_frame(self.frames[-1], step))

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
        if len(J) < 2 or J[0] < 0 or J[-1] >= frame.n or any(map(le, J[1:], J)):
            raise InvalidInputError("a center is two or more increasing columns of the frame")
        j = J[0]
        rj, ordering = frame.row(j), frame.group.ordering
        for i in J[1:]:
            ri = frame.row(i)
            if _sign(list(map(sub, ri, rj)), ordering) < 0:
                j, rj = i, ri
        rows = list(frame.rows)
        ties = []
        for i in J:
            if i != j:
                d = rows[i] = tuple(map(sub, rows[i], rj))
                if not any(d):
                    ties.append(i)
        step = FramedStep(frame.n, J, j, tuple(TranslationItem(target=i) for i in ties))
        self._spend()
        self.steps.append(step)
        self.frames.append(Frame._of_rows(
            frame.names, tuple(rows), frame.den, frame.group,
            frame.units.union(ties), frame.tower,
        ))
        return step

    def record(self, **fields) -> None:
        """Log one record of the run, numbered from 1."""
        self.records.append({"step": len(self.records) + 1, **fields})

    def claim_independence(self, cols: Sequence[int]) -> None:
        """Claim that no center of the steps so far holds a column of ``cols``."""
        cols = tuple(cols)
        if any(not set(s.J).isdisjoint(cols) for s in self.steps):
            raise InvalidInputError("sequence touches its independence set")
        self.independence_set = cols

    def to_json(self) -> dict:
        out = {"steps": [s.to_json() for s in self.steps]}
        if self.independence_set is not None:
            out["independent_of"] = [i + 1 for i in self.independence_set]
        return out

    def push(self, f: MultiPoly, start: int = 0, stop: Optional[int] = None) -> MultiPoly:
        """Image in the chart ``frames[stop]`` (default: the last) of f, a
        polynomial in the chart ``frames[start]``."""
        stop = len(self.steps) if stop is None else stop
        k = start
        while k < stop:
            end = k + 1
            if self.steps[k].kind == "monomial":
                while end < stop and self.steps[end].kind == "monomial":
                    end += 1
                f = _push_exponents(f, self.steps[k:end])
            else:
                f = push_polynomial_through_step(f, self.frames[k], self.steps[k], self.frames[end])
            k = end
        return f

    def advance(self, e: tuple[int, ...], start: int = 0) -> tuple[int, ...]:
        """The exponent e of the chart ``frames[start]`` in the last chart:
        the updates of the steps from ``start`` on, first to last."""
        for s in self.steps[start:]:
            e = s.apply_to_exponent(e)
        return e
