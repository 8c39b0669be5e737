"""The monomialization game: tau invariant, descent, pair monomialization,
principalization of monomial ideals and monomialization of non-degenerate
elements.

The driving invariant is tau(alpha, gamma) = (|at|, |gt|) where at, gt are
the exponents after removing the common part (sorted so |at| <= |gt|); it
is a plain tuple, whose order is the lexicographic one.  Each blow-up
along the greedily chosen center strictly lex-decreases tau, so every run
terminates; tau = (0, .) means one monomial divides the other.  One loop,
``_descend``, plays the game on any number of generators and checks that
tau(I, w) = (generators - 1, least pair tau) strictly lex-decreases; the
pair game is that loop on two generators.

Weight ties make variables of the center acquire weight zero; such
variables are tagged as units, keep their column, and are ignored by all
later divisibility decisions and centers.  For the monomial valuation the
residues of these units are transcendental, so the tagging is exact.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from operator import le, sub
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    InvalidInputError,
    PositiveWeightError,
    ZeroPolynomialError,
)
from .framing import Frame, PushPath, _advance
from .polyalg import MultiPoly, QQ
from .values import Value


class MonomialValuationSpec:
    """Strictly positive weights on a tuple of variables.

    The spec keeps its weights in the :class:`Frame` that a run starts
    from, as integer rows over one positive denominator in lowest terms;
    ``weights`` gives them back as values.  Weights of two groups are a
    GroupMismatchError.  Specs are equal when their variables and weight
    values are."""

    __slots__ = ("vars", "_frame")

    def __init__(self, vars: tuple[str, ...], weights: tuple[Value, ...]):
        _check_vars(vars, len(weights))
        for w in weights:
            if not w.is_positive():
                raise PositiveWeightError("weights must be positive")
        self.vars, self._frame = vars, Frame(vars, weights)

    @classmethod
    def _of_rows(cls, vars, rows, den, group, lits) -> "MonomialValuationSpec":
        """The spec of integer rows in lowest terms over ``den > 0``, with
        the constructor's checks; no :class:`Value` is built.  ``lits``
        are the frame's literal rows (``Frame._of_rows``)."""
        _check_vars(vars, len(rows))
        frame = Frame._of_rows(tuple(vars), rows, den, group, frozenset(), QQ, lits)
        if not frame.all_positive():
            raise PositiveWeightError("weights must be positive")
        spec = cls.__new__(cls)
        spec.vars, spec._frame = vars, frame
        return spec

    @property
    def weights(self) -> tuple[Value, ...]:
        return self._frame.weights

    def _key(self):
        # the rows are in lowest terms, so equal weights have equal rows
        f = self._frame
        return self.vars, f.rows, f.den, f.group

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"MonomialValuationSpec(vars={self.vars!r}, weights={self.weights!r})"

    def frame(self) -> Frame:
        return self._frame


def _check_vars(vars, count: int) -> None:
    if len(vars) != count:
        raise InvalidInputError("weight count must equal variable count")
    if len(set(vars)) != len(vars):
        raise InvalidInputError("variables must be distinct")


def reduced_parts(
    alpha: Sequence[int], gamma: Sequence[int], units: frozenset[int] = frozenset()
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(at, gt): exponents after removing the common part, with unit-tagged
    coordinates zeroed out (units are invertible, they never obstruct
    divisibility)."""
    common = list(map(min, alpha, gamma))
    at, gt = tuple(map(sub, alpha, common)), tuple(map(sub, gamma, common))
    if units:
        at = tuple(0 if i in units else x for i, x in enumerate(at))
        gt = tuple(0 if i in units else x for i, x in enumerate(gt))
    return at, gt


def _greedy_center(at: Sequence[int], gt: Sequence[int]) -> tuple[int, ...]:
    """Center J for one descent step; ``at`` must be the side of smaller
    total degree.  J is the support of at plus indices of gt (taken in
    decreasing gt_i order, ties by smallest index) until their gt-sum
    reaches |at|.  ``PushPath.blow_up`` picks the vertex.

    The gt-sum always gets there: ``_descend`` swaps the sides so that
    ``1 <= |at| <= |gt|``, so the loop stops before a zero gt_i.  A
    descending sort is stable, so of equal gt_i the smaller index comes
    first."""
    target = sum(at)
    J = list(compress(range(len(at)), at))
    got = 0
    for i in sorted(range(len(gt)), key=gt.__getitem__, reverse=True):
        if got >= target:
            break
        J.append(i)
        got += gt[i]
    J.sort()
    return tuple(J)


class PairResult(namedtuple("PairResult", "alpha gamma alpha_divides gamma_divides")):
    __slots__ = ()


def run_pair_descent(
    alpha: Sequence[int],
    gamma: Sequence[int],
    path: PushPath,
) -> PairResult:
    """The descent game on alpha and gamma from the path's current frame,
    until one divides the other (units ignored); each blow-up is logged with
    the pair tau it starts from.  Returns the transformed exponents and
    which of them divides the other in the final frame.  The game's first
    drop ends it: the exponents are final, and the drop is not logged."""
    exps = [alpha, gamma]
    for step, before, _, _ in _descend(exps, path):
        if step is None:
            break
        rec = {
            "tau": list(before[1]),
            "J": [i + 1 for i in step.J],
            "j": step.j + 1,
            "alpha": list(exps[0]),
            "gamma": list(exps[1]),
        }
        if step.translation_data:
            rec["Jx"] = [i + 1 for i in step.J_times]
        path.record(**rec)
    a, g = exps
    at, gt = reduced_parts(a, g, path.frame.units)
    return PairResult(a, g, sum(at) == 0, sum(gt) == 0)


class IdealResult(namedtuple("IdealResult", "survivor exponents")):
    __slots__ = ()


def _reduced_divides(
    a: Sequence[int], b: Sequence[int], units: frozenset[int]
) -> bool:
    if not units:
        return all(map(le, a, b))
    return all(x <= y for i, (x, y) in enumerate(zip(a, b)) if i not in units)


def _best_pair(
    exps: list[tuple[int, ...]], active: list[int], units: frozenset[int]
) -> tuple[tuple[int, int], tuple[int, ...], tuple[int, ...]]:
    """(tau, at, gt) of the first pair of active generators attaining the
    minimal tau; ``active`` is increasing, so that is the least index pair.

    With more than two generators, each pair's tau comes from its
    difference ``d`` off the unit columns: ``|at| = (sum|d| + sum d) / 2``
    and ``|gt| = (sum|d| - sum d) / 2``, so tau is ``((sum|d| - |sum d|) / 2,
    (sum|d| + |sum d|) / 2)``.  The unit columns are dropped and each
    generator's degree taken once, so ``sum d`` is a difference of degrees.
    Pairs are ranked by twice their tau (``sum|d|`` and ``sum d`` have one
    parity); only the winning pair is split by ``reduced_parts``."""
    pair, best = active, None
    if len(active) > 2:
        gens = [exps[i] for i in active]
        if units:
            kept = [i not in units for i in range(len(gens[0]))]
            gens = [tuple(compress(e, kept)) for e in gens]
        degs = list(map(sum, gens))
        for p in range(len(gens) - 1):
            a, da = gens[p], degs[p]
            for q in range(p + 1, len(gens)):
                size, total = sum(map(abs, map(sub, a, gens[q]))), abs(da - degs[q])
                st = (size - total, size + total)
                if best is None or st < best:
                    best, pair = st, (p, q)
        pair = active[pair[0]], active[pair[1]]
    at, gt = reduced_parts(exps[pair[0]], exps[pair[1]], units)
    s, t = sum(at), sum(gt)
    return ((s, t) if s <= t else (t, s)), at, gt


def _divisible_drops(
    exps: Sequence[tuple[int, ...]], active: list[int], units: frozenset[int]
) -> Iterator[int]:
    """Remove from ``active`` every generator that another active one
    reduced-divides (of two that divide each other, the later one goes),
    yielding each index right after its removal.

    One pass over the ordered pairs (p, q) in lex order, skipping removed
    generators: whether p removes q depends on the pair alone, so a scan
    restarted after a removal would find nothing before the pair that made
    it, and the removals come in the same order."""
    gens = tuple(active)
    for p in gens:
        if p not in active:
            continue
        for q in gens:
            if q != p and q in active and _reduced_divides(exps[p], exps[q], units) and (
                p < q or not _reduced_divides(exps[q], exps[p], units)
            ):
                active.remove(q)
                yield q


def _descend(exps: list, path: PushPath) -> Iterator[tuple]:
    """The descent game on the generators ``exps`` from the path's current
    frame (unit tags allowed), until one active generator reduced-divides
    every other.  Each blow-up is appended to the path, and ``exps`` is
    rewritten in place: every generator, dropped or not, in the last chart.

    A blow-up along the greedy center of the least pair yields ``(step, tau
    before, tau after, active)``, with tau(I, w) = (active - 1, least pair
    tau); it must lower tau.  When the least pair tau is (0, t), each
    generator that another one reduced-divides is dropped and yields
    ``(None, its index, tau after, active)``.  On two generators this is
    the pair game, bounded by |at| + |gt| + 1 blow-ups from its start."""
    if not exps:
        raise InvalidInputError("empty generator list")
    n = path.frame.n
    for k, e in enumerate(exps):
        e = exps[k] = tuple(e)
        if len(e) != n:
            raise InvalidInputError("exponent length must match the frame")
        if not set(map(type, e)) <= {int} or min(e, default=0) < 0:
            raise InvalidInputError("exponents must be nonnegative integers")
    active, units = list(range(len(exps))), path.frame.units
    best = _best_pair(exps, active, units) if len(exps) > 1 else None
    limit = len(path) + sum(best[0]) + 1 if len(exps) == 2 else None
    while best:
        pair_tau, at, gt = best
        if not pair_tau[0]:
            for q in _divisible_drops(exps, active, units):
                best = _best_pair(exps, active, units) if len(active) > 1 else None
                # a principal ideal logs the pair tau (0, 1)
                yield None, q, (len(active) - 1, best[0] if best else (0, 1)), active
            continue
        if limit is not None and len(path) >= limit:
            raise AssertionError("descent exceeded its a-priori step bound")
        if sum(at) != pair_tau[0]:
            at, gt = gt, at
        step = path.blow_up(_greedy_center(at, gt))
        if step.translation_data:  # the step tagged units
            units = path.frame.units
        exps[:] = _advance(exps, (step,))
        best = _best_pair(exps, active, units)
        before, after = (len(active) - 1, pair_tau), (len(active) - 1, best[0])
        if not after < before:
            raise AssertionError("tau failed to decrease strictly")
        yield step, before, after, active


def principalize_exponents(
    generators: Sequence[Sequence[int]],
    path: PushPath,
) -> IdealResult:
    """Blow up from the path's current frame (unit tags allowed) until the
    monomial ideal is generated by the single image of its minimal-value
    generator.  Each blow-up and each drop is logged with the tau(I, w)
    after it, which strictly lex-decreases at every event; returns the
    survivor's index and every generator's final exponent."""
    exps = list(generators)
    active = [0]  # one generator makes no event
    for step, dropped, after, active in _descend(exps, path):
        tau_ideal = [after[0], list(after[1])]
        if step is None:
            path.record(event="drop", generator=dropped + 1, tau_ideal=tau_ideal)
            continue
        rec = {
            "event": "blowup",
            "tau_ideal": tau_ideal,
            "J": [i + 1 for i in step.J],
            "j": step.j + 1,
            "exponents": [list(exps[i]) for i in active],
        }
        if step.translation_data:
            rec["Jx"] = [i + 1 for i in step.J_times]
        path.record(**rec)
    survivor = active[0]
    for k, e in enumerate(exps):
        if not _reduced_divides(exps[survivor], e, path.frame.units):
            raise AssertionError(
                f"survivor does not divide generator {k} after principalization"
            )
    return IdealResult(survivor, exps)


class NondegResult(namedtuple("NondegResult", "exponent unit_witness image generators")):
    __slots__ = ()


def _antichain(exps: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The minimal exponents of ``exps``, distinct, under divisibility, by
    increasing (degree, exponent).  A divisor of an exponent comes before
    it, and a dropped one has a kept divisor, so each exponent is tested
    against the kept ones only."""
    keep = []
    for e in sorted(exps, key=lambda e: (sum(e), e)):
        if not any(all(map(le, o, e)) for o in keep):
            keep.append(e)
    return keep


def split_monomial(
    poly: MultiPoly, exponent: Sequence[int], frame: Frame
) -> tuple[tuple[int, ...], Optional[MultiPoly]]:
    """poly = w^mono * cofactor, where mono is ``exponent`` with the unit
    columns of ``frame`` zeroed; the cofactor is None when w^mono fails to
    divide some term of poly."""
    mono = tuple(0 if i in frame.units else x for i, x in enumerate(exponent))
    return mono, _divide_monomial(poly, mono)


def _divide_monomial(poly: MultiPoly, mono: Sequence[int]) -> Optional[MultiPoly]:
    """poly / w^mono, exactly: None when w^mono fails to divide some term
    of poly.  The quotient keeps poly's coordinates and term order."""
    shifted = {}
    for e, c in poly.terms.items():
        ne = tuple(map(sub, e, mono))
        if min(ne, default=0) < 0:
            return None
        shifted[ne] = c
    return MultiPoly._of_reduced(poly.vars, shifted, poly.tower, poly.den)


def has_unit_term(poly: MultiPoly, frame: Frame) -> bool:
    """Whether poly has a term involving only unit columns of ``frame``,
    i.e. an invertible part at the origin of the chart."""
    return any(
        all(x == 0 for i, x in enumerate(e) if i not in frame.units)
        for e in poly.terms
    )


def monomialize_nondegenerate(f: MultiPoly, path: PushPath) -> NondegResult:
    """Principalize the ideal of exponents of f, a polynomial in the path's
    current chart; in the final frame f = w^exponent * unit, the unit having
    invertible constant part.  ``generators`` is the antichain of f's
    exponents that was principalized, in the chart the call started in."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no value")
    if f.vars != path.frame.names:
        raise InvalidInputError("polynomial variables must match the frame")
    start, gens = len(path), _antichain(f.terms)
    survivor, exps = principalize_exponents(gens, path)
    # the survivor's image, units zeroed out, is the monomial part
    image = path.push(f, start)
    monomial, witness = split_monomial(image, exps[survivor], path.frame)
    if witness is None:
        raise AssertionError("survivor fails to divide a term of the image")
    if not has_unit_term(witness, path.frame):
        raise AssertionError("unit witness has no invertible part")
    return NondegResult(exponent=monomial, unit_witness=witness, image=image, generators=gens)
