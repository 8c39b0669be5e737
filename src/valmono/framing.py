"""Framed local blow-up steps and sequences.

A step stores the unimodular exponent bookkeeping of a local blow-up along
``(u_J)`` with vertex ``j``: the forward matrix N (old variables as
monomials in the new ones) and its inverse M (new variables as Laurent
monomials in the old ones), both in SL_n(Z).

There is no ring localization here.  When a variable acquires weight zero
it is tagged as a unit (the set ``J_times``) and keeps its column; all
later centers avoid it.  Constructed steps additionally move residues: an
algebraic unit with residue theta is replaced by the new regular parameter
``u' - theta`` (a tower extension when the minimal polynomial has degree
at least 2), a transcendental unit just drops out of the official frame.
Everything downstream only ever needs this unit bookkeeping, never unit
arithmetic beyond the residue tower.

Steps hold decoded objects: a translation's minimal polynomial is a tuple
of tower elements and the new parameter's weight a :class:`Value`.  They
become JSON only in ``to_json``; nothing here reads JSON.

Polynomials are pushed along one path, :class:`PushPath`: a sequence from
its first frame, with the frame after each step computed once.  A maximal
run of monomial steps is applied as one composite matrix; an algebraic
translation (the unit becomes ``theta + u'``) is a Taylor shift over the
tower.
``push_polynomial_through_step`` is the per-step primitive under it.

A monomial blow-up depends only on its center ``(n, J, j)``, and centers
repeat within and across runs, so ``make_monomial_blowup`` returns one
shared step per center from a bounded module-level cache of the 4096 most
recently used centers.  Steps and their matrices are frozen, so sharing
changes no result; an invalid center raises before the cache is asked.

Indices are 0-based in memory and 1-based in JSON records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import _linalg
from .errors import InvalidInputError
from .polyalg import (
    FieldTower,
    LaurentMonomialMap,
    MultiPoly,
    QQ,
    apply_monomial_map,
    taylor_shift,
)
from .values import Ordering, Value, compare


@dataclass(frozen=True)
class TranslationItem:
    """Residue motion for one unit variable of a constructed step.

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
    """One framed blow-up.  ``forward``/``inverse`` act on exponent vectors
    of the full column set (unit-tagged columns included)."""

    n_before: int
    n_after: int
    J: tuple[int, ...]
    j: int
    kind: str  # "monomial" | "translation"
    forward: LaurentMonomialMap
    inverse: LaurentMonomialMap
    J_times: tuple[int, ...] = ()
    D1: tuple[int, ...] = ()
    translation_data: tuple[TranslationItem, ...] = ()

    def __post_init__(self):
        if self.kind not in ("monomial", "translation"):
            raise InvalidInputError(f"unknown step kind {self.kind!r}")
        if self.kind == "monomial" and self.J_times:
            raise InvalidInputError("monomial steps cannot have unit variables")

    def check_unimodular(self) -> None:
        n = self.forward.n
        prod = _linalg.mat_mul(self.forward.matrix, self.inverse.matrix)
        if prod != _linalg.identity(n):
            raise InvalidInputError("forward and inverse matrices are not inverse")
        if self.forward.det() != 1:
            raise InvalidInputError("step determinant is not 1")

    def to_json(self) -> dict:
        rec = {
            "J": [i + 1 for i in self.J],
            "j": self.j + 1,
            "kind": self.kind,
            "M": self.inverse.to_json(),
            "N": self.forward.to_json(),
            "Jx": [i + 1 for i in self.J_times],
            "n_before": self.n_before,
            "n_after": self.n_after,
            "D1": [i + 1 for i in self.D1],
        }
        if self.translation_data:
            rec["translations"] = [t.to_json() for t in self.translation_data]
        return rec


@dataclass(frozen=True)
class Frame:
    """Variable labels, weights and unit tags of one chart."""

    names: tuple[str, ...]
    weights: tuple[Optional[Value], ...]
    units: frozenset[int] = frozenset()
    tower: FieldTower = QQ

    @property
    def n(self) -> int:
        return len(self.names)

    def active_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i not in self.units)

    def weight(self, i: int) -> Value:
        w = self.weights[i]
        if w is None:
            raise InvalidInputError(f"variable {self.names[i]!r} has no declared weight")
        return w

    def to_json(self) -> dict:
        out = {
            "vars": list(self.names),
            "weights": [w.to_json() if w is not None else None for w in self.weights],
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
    return _monomial_blowup(n, J, j)


@lru_cache(maxsize=4096)  # shared steps, see the module docstring
def _monomial_blowup(n: int, J: tuple[int, ...], j: int) -> FramedStep:
    m = [[1 if p == q else 0 for q in range(n)] for p in range(n)]
    nmat = [[1 if p == q else 0 for q in range(n)] for p in range(n)]
    for q in J:
        if q != j:
            m[j][q] = -1
            nmat[j][q] = 1
    return FramedStep(
        n_before=n,
        n_after=n,
        J=J,
        j=j,
        kind="monomial",
        forward=LaurentMonomialMap(tuple(tuple(r) for r in nmat)),
        inverse=LaurentMonomialMap(tuple(tuple(r) for r in m)),
        J_times=(),
        D1=tuple(range(n)),
    )


def choose_vertex(J: Sequence[int], weights: Sequence[Value]) -> int:
    """Index in J of minimal weight; ties broken by smallest index."""
    J = sorted(set(J))
    if not J:
        raise InvalidInputError("empty center")
    best = J[0]
    for i in J[1:]:
        if compare(weights[i], weights[best]) is Ordering.Less:
            best = i
    return best


def pushforward_weights(
    weights: Sequence[Value], step: FramedStep
) -> tuple[Value, ...]:
    """Weights in the new frame: beta'_i = beta_i - beta_j on J minus the
    vertex, unchanged elsewhere.  All results must be >= 0."""
    out = list(weights)
    bj = weights[step.j]
    for i in step.J:
        if i != step.j:
            w = weights[i] - bj
            if w.sign() < 0:
                raise InvalidInputError(
                    "negative resulting weight: vertex was not minimal in J"
                )
            out[i] = w
    return tuple(out)


def unit_collisions(weights: Sequence[Value], J: Sequence[int], j: int) -> tuple[int, ...]:
    """Indices of J minus the vertex whose weight equals the vertex weight:
    these become units after the blow-up (the set J^times)."""
    return tuple(
        i for i in sorted(J) if i != j and compare(weights[i], weights[j]) is Ordering.Equal
    )


def build_step_for_weights(
    n: int, J: Sequence[int], j: int, weights: Sequence[Value]
) -> FramedStep:
    """Blow-up step along (u_J) at the minimal vertex j, with J_times filled
    from weight ties.  A tie makes the step a constructed (translation-kind)
    step whose unit variables are tagged, not substituted."""
    base = make_monomial_blowup(n, J, j)
    jx = unit_collisions(weights, J, j)
    if not jx:
        return base
    items = tuple(TranslationItem(target=i, minpoly=None) for i in jx)
    return FramedStep(
        n_before=n,
        n_after=n - len(jx),
        J=base.J,
        j=j,
        kind="translation",
        forward=base.forward,
        inverse=base.inverse,
        J_times=jx,
        D1=tuple(i for i in range(n) if i not in jx),
        translation_data=items,
    )


def compose_sequence(
    steps: Sequence[FramedStep], n: Optional[int] = None
) -> LaurentMonomialMap:
    """Composite forward map of purely monomial steps (old variables as
    monomials in the final frame); determinant 1."""
    for s in steps:
        if s.kind != "monomial":
            raise InvalidInputError("not purely monomial")
    if not steps:
        size = n if n is not None else 0
        return LaurentMonomialMap(_linalg.identity(size))
    total = steps[0].forward
    for s in steps[1:]:
        total = s.forward.compose_after(total)
    return total


def make_translation_step(
    n: int,
    target: int,
    minpoly: Optional[tuple],
    symbol: Optional[str],
    new_name: Optional[str],
    new_weight: Optional[Value] = None,
) -> FramedStep:
    """Pure residue-motion step: identity matrices, one unit variable
    replaced by ``u' - theta`` (algebraic, ``minpoly`` in the current
    tower) or tagged (transcendental)."""
    ident = LaurentMonomialMap(_linalg.identity(n))
    item = TranslationItem(
        target=target, minpoly=minpoly, symbol=symbol,
        new_name=new_name, new_weight=new_weight,
    )
    drop = 1 if minpoly is None else 0
    return FramedStep(
        n_before=n,
        n_after=n - drop,
        J=(target,),
        j=target,
        kind="translation",
        forward=ident,
        inverse=ident,
        J_times=(target,),
        D1=tuple(i for i in range(n) if i != target),
        translation_data=(item,),
    )


def build_constructed_blowup(
    n: int,
    J: Sequence[int],
    j: int,
    weights: Sequence[Value],
    residue_spec: Sequence[dict],
) -> FramedStep:
    """The explicitly constructed framed blow-up: the monomial matrix part
    along (u_J), plus residue motion for every variable of J^times.

    ``residue_spec`` lists one entry per unit variable, in index order:
    ``{"kind": "transcendental"}`` or ``{"kind": "algebraic",
    "minpoly": [...], "symbol": ..., "new_name": ...}`` with a monic
    minimal polynomial (elements of the current tower, lowest degree
    first).
    """
    base = make_monomial_blowup(n, J, j)
    jx = unit_collisions(weights, J, j)
    if len(residue_spec) != len(jx):
        raise InvalidInputError("inconsistent residue_spec arity")
    if not jx:
        return base
    items = []
    drops = 0
    for i, spec in zip(jx, residue_spec):
        kind = spec.get("kind")
        if kind == "transcendental":
            items.append(TranslationItem(target=i, minpoly=None))
            drops += 1
        elif kind == "algebraic":
            mp = tuple(spec["minpoly"])
            if len(mp) < 2:
                raise InvalidInputError("minimal polynomial must have degree >= 1")
            items.append(
                TranslationItem(
                    target=i,
                    minpoly=mp,
                    symbol=spec.get("symbol"),
                    new_name=spec.get("new_name"),
                )
            )
        else:
            raise InvalidInputError("residue_spec entries need kind algebraic|transcendental")
    return FramedStep(
        n_before=n,
        n_after=n - drops,
        J=base.J,
        j=j,
        kind="translation",
        forward=base.forward,
        inverse=base.inverse,
        J_times=jx,
        D1=tuple(i for i in range(n) if i not in jx),
        translation_data=tuple(items),
    )


def apply_step_to_frame(frame: Frame, step: FramedStep) -> Frame:
    """Frame after one step: weights pushed forward, units tagged, algebraic
    residues substituted (renaming the slot and possibly extending the tower)."""
    if len(step.J) >= 2:
        weights = list(pushforward_weights(list(frame.weights), step))
    else:
        weights = list(frame.weights)
    names = list(frame.names)
    units = set(frame.units)
    tower = frame.tower
    for item in step.translation_data:
        t = item.target
        if item.minpoly is None:
            units.add(t)
        else:
            # the root -c0 of a degree-1 residue is already in the tower
            if len(item.minpoly) > 2:
                tower = tower.extend(item.symbol or f"t{tower.depth + 1}", item.minpoly)
            names[t] = item.new_name or names[t] + "'"
            units.discard(t)
            weights[t] = item.new_weight
    return Frame(tuple(names), tuple(weights), frozenset(units), tower)


def translation_root(item: TranslationItem, tower: FieldTower):
    """The residue theta of an algebraic item, in the tower after its step."""
    if len(item.minpoly) == 2:
        return tower.neg(item.minpoly[0])
    return tower.generator(item.symbol or f"t{tower.depth}")


def push_polynomial_through_step(
    f: MultiPoly, frame_before: Frame, step: FramedStep, frame_after: Optional[Frame] = None
) -> MultiPoly:
    """Image of f in the next chart.  Matrix part first, then the linear
    residue substitutions ``u'_target = theta + new_var`` as Taylor shifts.
    ``frame_after`` is the frame after the step, when the caller has it."""
    g = apply_monomial_map(f, step.forward) if not step.forward.is_identity() else f
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
            g = MultiPoly(g.vars[:t] + (name,) + g.vars[t + 1:], g.terms, g.tower)
    return g


class PushPath:
    """One framed sequence, from ``frame0`` through its steps, as the path
    along which polynomials are pushed.  The descent loops of ``game`` and
    the engines of ``unifseq`` append their steps here; a run's result
    holds its path, the one copy of its sequence.

    The frame after each step is computed once, when the step is appended.
    A maximal run of monomial steps is applied as one composite matrix
    (``compose_sequence``, kept on the object); every other step goes
    through ``push_polynomial_through_step``.  Pushing through steps [a, b)
    and then [b, c) equals pushing through [a, c), so a caller may keep an
    image and advance it only through the steps added since.
    """

    def __init__(self, frame0: Frame):
        self.frames: list[Frame] = [frame0]
        self.steps: list[FramedStep] = []
        self.independence_set: Optional[tuple[int, ...]] = None  # see claim_independence
        self._composites: dict[tuple[int, int], LaurentMonomialMap] = {}

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def frame(self) -> Frame:
        return self.frames[-1]

    def append(self, step: FramedStep) -> None:
        if step.forward.n != self.frame.n:
            raise InvalidInputError("step and frame have different column counts")
        self.steps.append(step)
        self.frames.append(apply_step_to_frame(self.frames[-1], step))

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

    def _segments(self, start: int, stop: int):
        """(a, b, map) for each maximal monomial run steps[a:b] with its
        composite, and (k, k + 1, None) for every other step."""
        k = start
        while k < stop:
            end = k + 1
            if self.steps[k].kind != "monomial":
                yield k, end, None
            else:
                while end < stop and self.steps[end].kind == "monomial":
                    end += 1
                if (k, end) not in self._composites:
                    self._composites[k, end] = compose_sequence(self.steps[k:end])
                yield k, end, self._composites[k, end]
            k = end

    def push(self, f: MultiPoly, start: int = 0, stop: Optional[int] = None) -> MultiPoly:
        """Image in the chart ``frames[stop]`` (default: the last) of f, a
        polynomial in the chart ``frames[start]``."""
        stop = len(self.steps) if stop is None else stop
        for a, b, m in self._segments(start, stop):
            if m is None:
                f = push_polynomial_through_step(f, self.frames[a], self.steps[a], self.frames[b])
            else:
                f = apply_monomial_map(f, m)
        return f

    def forward(self, start: int = 0) -> LaurentMonomialMap:
        """Composite forward map of the steps from ``start`` on: the
        variables of the chart ``frames[start]`` as monomials in the final
        frame."""
        total = LaurentMonomialMap(_linalg.identity(self.frames[start].n))
        for a, _, m in self._segments(start, len(self.steps)):
            total = (m or self.steps[a].forward).compose_after(total)
        return total
