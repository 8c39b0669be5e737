"""The monomialization game: tau invariant, descent, pair monomialization,
principalization of monomial ideals and monomialization of non-degenerate
elements.

The driving invariant is tau(alpha, gamma) = (|at|, |gt|) where at, gt are
the exponents after removing the common part (sorted so |at| <= |gt|); it
is a plain tuple, whose order is the lexicographic one.  Each blow-up
along the greedily chosen center strictly lex-decreases tau, so every run
terminates; tau = (0, .) means one monomial divides the other.

Weight ties make variables of the center acquire weight zero; such
variables are tagged as units, keep their column, and are ignored by all
later divisibility decisions and centers.  For the monomial valuation the
residues of these units are transcendental, so the tagging is exact.
"""

from __future__ import annotations

from operator import le, sub
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    InvalidInputError,
    PositiveWeightError,
    ZeroPolynomialError,
)
from .framing import DEFAULT_BUDGET, Frame, PushPath
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
    def _of_rows(cls, vars, rows, den, group) -> "MonomialValuationSpec":
        """The spec of integer rows in lowest terms over ``den > 0``, with
        the constructor's checks; no :class:`Value` is built."""
        _check_vars(vars, len(rows))
        frame = Frame._of_rows(tuple(vars), rows, den, group, frozenset(), QQ)
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
    if len(alpha) != len(gamma):
        raise InvalidInputError("exponent vectors must have equal length")
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
    reaches |at|.  ``PushPath.blow_up`` picks the vertex."""
    target = sum(at)
    J = [i for i, a in enumerate(at) if a > 0]
    got = 0
    for i in sorted(
        (i for i, g in enumerate(gt) if g > 0), key=lambda i: (-gt[i], i)
    ):
        if got >= target:
            break
        J.append(i)
        got += gt[i]
    if got < target:
        raise InvalidInputError("gamma side cannot reach |alpha|")
    return tuple(sorted(J))


class PairResult(NamedTuple):
    path: PushPath
    alpha: tuple[int, ...]
    gamma: tuple[int, ...]
    alpha_divides: bool
    gamma_divides: bool


def run_pair_descent(
    alpha: Sequence[int],
    gamma: Sequence[int],
    path: PushPath,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Iterate descent blow-ups from the path's current frame until one
    exponent divides the other (units ignored).  Each step is appended to
    the path and logged there; returns the transformed exponents."""
    alpha = tuple(int(a) for a in alpha)
    gamma = tuple(int(g) for g in gamma)
    if len(alpha) != path.frame.n or len(gamma) != path.frame.n:
        raise InvalidInputError("exponent length must match the frame")
    start = len(path)
    at, gt = reduced_parts(alpha, gamma, path.frame.units)
    prev_tau = None
    bound = sum(at) + sum(gt) + 1
    while True:
        s, t = sum(at), sum(gt)
        if s > t:
            at, gt, s, t = gt, at, t, s
        if not s:
            break
        if prev_tau is not None and not (s, t) < prev_tau:
            raise AssertionError("tau failed to decrease strictly")
        prev_tau = s, t
        if len(path) - start >= bound:
            raise AssertionError("descent exceeded its a-priori step bound")
        step = path.blow_up(_greedy_center(at, gt))
        alpha = step.apply_to_exponent(alpha)
        gamma = step.apply_to_exponent(gamma)
        rec = {
            "tau": [s, t],
            "J": [i + 1 for i in step.J],
            "j": step.j + 1,
            "alpha": list(alpha),
            "gamma": list(gamma),
        }
        if step.J_times:
            rec["Jx"] = [i + 1 for i in step.J_times]
        path.record(**rec)
        at, gt = reduced_parts(alpha, gamma, path.frame.units)
    return alpha, gamma


def monomialize_pair(
    alpha: Sequence[int],
    gamma: Sequence[int],
    spec: MonomialValuationSpec,
    budget: int = DEFAULT_BUDGET,
) -> PairResult:
    """Blow up until one of the two monomials divides the other in the
    final frame; returns the transformed exponents."""
    path = PushPath(spec.frame(), budget)
    a, g = run_pair_descent(alpha, gamma, path)
    at, gt = reduced_parts(a, g, path.frame.units)
    # no blow-up centre holds a variable on which the two exponents agree
    path.claim_independence(i for i, (x, y) in enumerate(zip(alpha, gamma)) if x == y)
    return PairResult(
        path=path,
        alpha=a,
        gamma=g,
        alpha_divides=sum(at) == 0,
        gamma_divides=sum(gt) == 0,
    )


class IdealResult(NamedTuple):
    path: PushPath
    survivor: int
    exponents: list[tuple[int, ...]]


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
    minimal tau; ``active`` is increasing, so that is the least index pair."""
    best = None
    for p, ip in enumerate(active):
        for iq in active[p + 1:]:
            at, gt = reduced_parts(exps[ip], exps[iq], units)
            s, t = sum(at), sum(gt)
            st = (s, t) if s <= t else (t, s)
            if best is None or st < best[0]:
                best = (st, at, gt)
    return best


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


def principalize_monomial_ideal(
    generators: Sequence[Sequence[int]],
    spec: MonomialValuationSpec,
    budget: int = DEFAULT_BUDGET,
) -> IdealResult:
    """Blow up until the monomial ideal is generated by the single image of
    its minimal-value generator.  The tau(I, w) log (generator count, minimal
    pair tau) strictly lex-decreases at every event."""
    exps = [tuple(int(x) for x in g) for g in generators]
    path = PushPath(spec.frame(), budget)
    survivor, final = principalize_exponents(exps, path)
    # no blow-up centre holds a variable that no generator involves
    path.claim_independence(i for i in range(path.frame.n) if not any(e[i] > 0 for e in exps))
    return IdealResult(path=path, survivor=survivor, exponents=final)


def principalize_exponents(
    generators: Sequence[Sequence[int]],
    path: PushPath,
) -> tuple[int, list[tuple[int, ...]]]:
    """Core principalization loop from the path's current frame (unit tags
    allowed).  Each step is appended to the path and logged there; returns
    the survivor's index and every generator's final exponent."""
    if not generators:
        raise InvalidInputError("empty generator list")
    exps = [tuple(int(x) for x in g) for g in generators]
    for e in exps:
        if len(e) != path.frame.n:
            raise InvalidInputError("exponent length must match the frame")
    active = list(range(len(exps)))
    # the last all-pairs scan; exps, active and the frame have not changed since
    best = None

    def ideal_tau() -> tuple[int, list[int]]:
        """tau(I, w) for the record, scanned once for the next blow-up too."""
        nonlocal best
        if len(active) == 1:
            return 0, [0, 1]
        best = _best_pair(exps, active, path.frame.units)
        return len(active) - 1, list(best[0])

    def drop_divisible() -> None:
        for dropped in _divisible_drops(exps, active, path.frame.units):
            bb, tv = ideal_tau()
            path.record(event="drop", generator=dropped + 1, tau_ideal=[bb, tv])

    drop_divisible()
    while len(active) > 1:
        # the pair attaining the minimal tau drives the next blow-up
        if best is None:
            best = _best_pair(exps, active, path.frame.units)
        _, at, gt = best
        if sum(at) > sum(gt):
            at, gt = gt, at
        step = path.blow_up(_greedy_center(at, gt))
        exps = [step.apply_to_exponent(e) for e in exps]
        bb, tvj = ideal_tau()
        rec = {
            "event": "blowup",
            "tau_ideal": [bb, tvj],
            "J": [i + 1 for i in step.J],
            "j": step.j + 1,
            "exponents": [list(exps[i]) for i in active],
        }
        if step.J_times:
            rec["Jx"] = [i + 1 for i in step.J_times]
        path.record(**rec)
        drop_divisible()

    survivor = active[0]
    for k, e in enumerate(exps):
        if not _reduced_divides(exps[survivor], e, path.frame.units):
            raise AssertionError(
                f"survivor does not divide generator {k} after principalization"
            )
    return survivor, exps


class NondegResult(NamedTuple):
    path: PushPath
    exponent: tuple[int, ...]
    unit_witness: MultiPoly
    image: MultiPoly


def _antichain(exps: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The minimal exponents of ``exps`` under divisibility, by increasing
    (degree, exponent)."""
    exps = sorted(exps, key=lambda e: (sum(e), e))
    keep = []
    for e in exps:
        if any(all(x <= y for x, y in zip(o, e)) and o != e for o in exps):
            continue
        keep.append(e)
    return keep


def split_monomial(
    poly: MultiPoly, exponent: Sequence[int], frame: Frame
) -> tuple[tuple[int, ...], Optional[MultiPoly]]:
    """poly = w^mono * cofactor, where mono is ``exponent`` with the unit
    columns of ``frame`` zeroed; the cofactor is None when w^mono fails to
    divide some term of poly."""
    mono = tuple(0 if i in frame.units else x for i, x in enumerate(exponent))
    shifted = {}
    for e, c in poly.terms.items():
        ne = tuple(x - m for x, m in zip(e, mono))
        if any(x < 0 for x in ne):
            return mono, None
        shifted[ne] = c
    return mono, MultiPoly._of_reduced(poly.vars, shifted, poly.tower, poly.den)


def has_unit_term(poly: MultiPoly, frame: Frame) -> bool:
    """Whether poly has a term involving only unit columns of ``frame``,
    i.e. an invertible part at the origin of the chart."""
    return any(
        all(x == 0 for i, x in enumerate(e) if i not in frame.units)
        for e in poly.terms
    )


def monomialize_nondegenerate(
    f: MultiPoly,
    spec: MonomialValuationSpec,
    budget: int = DEFAULT_BUDGET,
) -> NondegResult:
    """Principalize the ideal of exponents of f; in the final frame
    f = w^exponent * unit, the unit having invertible constant part."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no value")
    if f.vars != spec.vars:
        raise InvalidInputError("polynomial variables must match the spec")
    res = principalize_monomial_ideal(_antichain(f.terms), spec, budget)
    # the survivor's image, units zeroed out, is the monomial part
    image = res.path.push(f)
    monomial, witness = split_monomial(image, res.exponents[res.survivor], res.path.frame)
    if witness is None:
        raise AssertionError("survivor fails to divide a term of the image")
    if not has_unit_term(witness, res.path.frame):
        raise AssertionError("unit witness has no invertible part")
    return NondegResult(
        path=res.path,
        exponent=monomial,
        unit_witness=witness,
        image=image,
    )
