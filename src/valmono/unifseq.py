"""Elementary uniformizing sequences and the degree-descent drivers that
monomialize key polynomials and chain-measured polynomials.

For ground variables w_1..w_r with Q-independent weights and a
distinguished variable w_n whose weight lies in their Q-span, let abar be
the least positive integer with abar*beta_n in the lattice, so that
abar*beta_n = sum alpha_i beta_i.  The pair game applied to w_n^abar
versus w^alpha runs through monomial blow-ups and ends with exactly one
weight collision; the collided variable is the degree-zero element
z = w_n^abar / w^alpha (or its inverse).  An algebraic residue z-bar with
monic minimal polynomial P yields a final translation step replacing the
unit variable by the regular parameter z - theta (a tower extension when
deg P >= 2); a transcendental residue only tags the unit and the official
frame dimension drops by one.

A perturbation h with monomial value above the quasi-homogeneous part is
absorbed first: an auxiliary run of the same game makes the image of y^d
divide the image of every perturbation term, after which the factorization
identity is checked modulo the maximal ideal exactly as in the perturbed
statement.

Every claimed identity is verified by exact polynomial arithmetic; states
that would genuinely need formal-series units (composite degree-zero
elements, residue coefficients outside the constant tower) raise
``requires completion`` instead of approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import _linalg
from .errors import (
    DegenerateBasisError,
    InvalidInputError,
    NotInDivisibleHullError,
    PositiveWeightError,
    RequiresCompletionError,
    ZeroPolynomialError,
)
from .framing import (
    Frame,
    PushPath,
    make_translation_step,
    push_polynomial_through_step,
    translation_root,
)
from .game import (
    DEFAULT_BUDGET,
    _antichain,
    _Budget,
    has_unit_term,
    principalize_exponents,
    reduced_parts,
    run_pair_descent,
    split_monomial,
)
from .keypoly import KeyPolyChain, truncate, validate_chain
from .polyalg import FieldTower, MultiPoly, QQ, taylor_shift
from .values import (
    Ordering,
    Value,
    compare,
    min_integer_multiple_in_lattice,
    value_of_exponent,
)


@dataclass(frozen=True)
class ResidueDescriptor:
    """Residue data of z-bar: transcendental, or the coefficients b_0..b_d
    of its monic minimal polynomial (JSON encodings, b_d = "1")."""

    transcendental: bool
    minpoly: Optional[tuple] = None

    def degree(self) -> int:
        return 0 if self.transcendental else len(self.minpoly) - 1

    def to_json(self):
        if self.transcendental:
            return {"kind": "transcendental"}
        return {"kind": "algebraic", "minpoly": list(self.minpoly)}


@dataclass(frozen=True)
class UniformizingProblem:
    """Input of one elementary uniformizing sequence.

    Frame order is (w_1..w_r, v_1..v_t, w_n).  ``residue`` describes the
    residue of z.  ``h`` is an optional perturbation whose monomial value
    strictly exceeds that of the quasi-homogeneous part; ``beta_new``
    optionally declares the value of Q-tilde so the new parameter can be
    weighted in the final frame.
    """

    w_names: tuple[str, ...]
    w_weights: tuple[Value, ...]
    wn_name: str
    beta_n: Value
    residue: ResidueDescriptor
    v_names: tuple[str, ...] = ()
    v_weights: tuple[Optional[Value], ...] = ()
    h: Optional[MultiPoly] = None
    beta_new: Optional[Value] = None

    @property
    def names(self) -> tuple[str, ...]:
        return self.w_names + self.v_names + (self.wn_name,)

    def frame(self) -> Frame:
        names = self.names
        if len(set(names)) != len(names):
            raise InvalidInputError("variable names must be distinct")
        if not self.w_names:
            raise InvalidInputError("a uniformizing sequence needs at least one w-variable")
        if len(self.w_names) != len(self.w_weights):
            raise InvalidInputError(
                f"w_vars and w_weights differ in length ({len(self.w_names)} and {len(self.w_weights)})"
            )
        if len(self.v_names) != len(self.v_weights):
            raise InvalidInputError("passive variables and weights disagree")
        weights = self.w_weights + self.v_weights + (self.beta_n,)
        return Frame(names, weights)


@dataclass
class UniformizingResult:
    path: PushPath
    abar: int
    alpha_coeffs: tuple[int, ...]
    d: int
    z_column: Optional[int]
    z_sign: int
    new_var: Optional[str]
    residue: ResidueDescriptor
    images: dict
    witness: dict
    records: list
    aux_steps: int = 0


class _ElementaryEngine:
    """One elementary uniformizing sequence, appended to a push path from
    the path's current frame.

    ``w_cols`` are the columns of the Q-independent basis and ``x_col`` the
    distinguished column; every other column rides along untouched unless a
    perturbation forces auxiliary work."""

    def __init__(
        self,
        path: PushPath,
        w_cols: Sequence[int],
        x_col: int,
        budget: _Budget,
        records: list,
    ):
        self.path = path
        self.w_cols = tuple(w_cols)
        self.x_col = x_col
        self.budget = budget
        self.records = records
        self.tracked: dict[str, tuple[int, ...]] = {}
        self.abar: int = 0
        self.alpha: tuple[int, ...] = ()
        self.z_column: Optional[int] = None
        self.z_sign: int = 0
        self.new_var: Optional[str] = None
        self.minpoly: tuple = ()
        self.aux_steps: int = 0

    @property
    def frame(self) -> Frame:
        return self.path.frame

    # -- bookkeeping ---------------------------------------------------

    def _descend(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """Run the pair game on two exponents, appending its steps to the
        path, and advance every tracked exponent through them; returns the
        path length before the run."""
        mark = len(self.path)
        run_pair_descent(a, b, self.path, self.budget, self.records)
        for k, e in self.tracked.items():
            self.tracked[k] = self.path.advance(e, mark)
        return mark

    def _embed(self, coeffs_on_w: Sequence[int], x_power: int = 0) -> tuple[int, ...]:
        e = [0] * self.frame.n
        for c, col in zip(coeffs_on_w, self.w_cols):
            e[col] = c
        e[self.x_col] += x_power
        return tuple(e)

    # -- phases ----------------------------------------------------------

    def lattice_data(self) -> None:
        basis = [self.frame.weight(c) for c in self.w_cols]
        target = self.frame.weight(self.x_col)
        # one elimination: a dependent basis is reported first, then a non-positive target
        try:
            self.abar, self.alpha = min_integer_multiple_in_lattice(target, basis)
        except DegenerateBasisError:
            raise InvalidInputError("ground weights are not Q-linearly independent") from None
        except NotInDivisibleHullError:
            if target.is_positive():
                raise
        if not target.is_positive():
            raise PositiveWeightError("weights must be positive")
        pos = [max(c, 0) for c in self.alpha]
        neg = [max(-c, 0) for c in self.alpha]
        self.tracked["__delta"] = self._embed(neg, self.abar)
        self.tracked["__gamma"] = self._embed(pos, 0)

    def run_aux(self, h_exponents: Sequence[tuple[int, ...]], target: tuple[int, ...]) -> None:
        """Blow up until the target monomial reduced-divides every listed
        exponent.  Every listed value must strictly exceed the target's, so
        the game always lands the divisibility on the target side."""
        self.tracked["__target"] = tuple(target)
        keys = []
        for i, e in enumerate(h_exponents):
            k = f"__aux{i}"
            self.tracked[k] = tuple(e)
            keys.append(k)
        for k in keys:
            t, e = self.tracked["__target"], self.tracked[k]
            at, _ = reduced_parts(t, e, self.frame.units)
            if sum(at) == 0:
                continue
            mark = self._descend(t, e)
            self.aux_steps += len(self.path) - mark
            t, e = self.tracked["__target"], self.tracked[k]
            at, _ = reduced_parts(t, e, self.frame.units)
            if sum(at) != 0:
                raise AssertionError("auxiliary phase failed to land divisibility on y^d")
        for k in keys:
            del self.tracked[k]
        del self.tracked["__target"]

    def run_main_game(self) -> None:
        mark = self._descend(self.tracked["__delta"], self.tracked["__gamma"])
        main = self.path.steps[mark:]
        # the collision closing the main game must be its very last step
        for i, s in enumerate(main):
            if s.J_times and i != len(main) - 1:
                raise AssertionError("weight collision before the end of the main game")

    def locate_unit(self) -> None:
        delta, gamma = self.tracked["__delta"], self.tracked["__gamma"]
        diff = [a - b for a, b in zip(delta, gamma)]
        support = [i for i, x in enumerate(diff) if x != 0]
        if len(support) != 1:
            raise RequiresCompletionError(
                "requires completion: the degree-zero element is a composite unit"
            )
        q = support[0]
        if q not in self.frame.units:
            raise AssertionError("z column is not unit-tagged")
        m = diff[q]
        if abs(m) != 1:
            raise AssertionError("z column carries a non-primitive exponent")
        self.z_column, self.z_sign = q, m

    def _oriented_minpoly(self, mp: Sequence, tower: FieldTower) -> tuple:
        """Minimal polynomial of the residue of the unit *variable*: P when
        z equals that variable, the normalized reciprocal when 1/z does."""
        if self.z_sign == 1:
            return tuple(mp)
        b0 = mp[0]
        if tower.is_zero(b0):
            raise InvalidInputError("residue minimal polynomial must have b_0 != 0")
        inv = tower.inv(b0)
        return tuple(tower.mul(mp[len(mp) - 1 - i], inv) for i in range(len(mp)))

    def translate(self, minpoly: Optional[Sequence], new_weight: Optional[Value]) -> None:
        """Replace the unit variable by the regular parameter z - theta.
        ``minpoly`` is the residue's minimal polynomial as elements of the
        current tower (None for a transcendental residue)."""
        if minpoly is None:
            return
        q = self.z_column
        tower = self.frame.tower
        self.minpoly = self._oriented_minpoly(minpoly, tower)
        symbol = None
        if len(self.minpoly) > 2:
            k = tower.depth + 1
            taken = {s for s, _ in tower.extensions}
            while f"t{k}" in taken:
                k += 1
            symbol = f"t{k}"
        new_name = self._fresh_name(self.frame.names[q])
        if new_weight is not None and not new_weight.is_positive():
            raise InvalidInputError("the new parameter must have positive value")
        step = make_translation_step(
            self.frame.n, q, self.minpoly, symbol, new_name, new_weight
        )
        self.path.append(step)
        record = step.translation_data[0].to_json()
        del record["new_weight"]
        self.records.append({"step": len(self.records) + 1, "translation": record})
        self.new_var = new_name

    def _fresh_name(self, base: str) -> str:
        name = base + "'"
        while name in self.frame.names:
            name += "'"
        return name


def _split_unit_part(
    exponent: Sequence[int], frame: Frame, z_column: Optional[int]
) -> tuple[tuple[int, ...], dict, int]:
    drop = set(frame.units)
    zp = 0
    if z_column is not None:
        zp = exponent[z_column]
        drop.add(z_column)
    mono = tuple(0 if i in drop else x for i, x in enumerate(exponent))
    units = {
        frame.names[i]: exponent[i]
        for i in frame.units
        if exponent[i] != 0 and i != z_column
    }
    return mono, units, zp


def elementary_uniformizing_sequence(
    problem: UniformizingProblem,
    budget: int = DEFAULT_BUDGET,
) -> UniformizingResult:
    """Uniformize the quasi-homogeneous element attached to the problem:
    run the pair game on w_n^abar versus w^alpha, replace the resulting
    degree-zero variable by the new regular parameter, and verify the
    factorization of Q-tilde by exact arithmetic."""
    frame0 = problem.frame()
    r = len(problem.w_names)
    n = frame0.n
    w_cols = tuple(range(r))
    x_col = n - 1
    v_cols = tuple(range(r, n - 1))
    for w in problem.w_weights:
        if not w.is_positive():
            raise PositiveWeightError("weights must be positive")
    records: list = []
    engine = _ElementaryEngine(
        PushPath(frame0), w_cols, x_col, _Budget(budget), records
    )
    engine.lattice_data()
    abar, alpha = engine.abar, engine.alpha
    d = problem.residue.degree()
    mp = None
    if not problem.residue.transcendental:
        mp = [QQ.elem_from_json(c) for c in problem.residue.minpoly]
        if d < 1 or mp[-1] != 1:
            raise InvalidInputError(
                "residue minimal polynomial must be monic of degree >= 1"
            )
        if mp[0] == 0:
            raise InvalidInputError("residue minimal polynomial must have b_0 != 0")

    # Q-tilde cleared of the Laurent denominator:
    #   Q * w^(d*neg) = sum_i b_i w^((d-i)*pos + i*neg) w_n^(i*abar)
    pos = [max(c, 0) for c in alpha]
    neg = [max(-c, 0) for c in alpha]
    q_cleared = None
    if not problem.residue.transcendental:
        terms = {}
        for i in range(d + 1):
            e = [0] * n
            for cp, cm, col in zip(pos, neg, w_cols):
                e[col] = (d - i) * cp + i * cm
            e[x_col] = i * abar
            terms[tuple(e)] = mp[i]
        q_cleared = MultiPoly.build(frame0.names, terms)

    h = problem.h
    h_touches_v = False
    if h is not None and not h.is_zero():
        if problem.residue.transcendental:
            raise InvalidInputError("a perturbation needs an algebraic residue")
        h = h.with_vars(frame0.names)
        if h.tower != QQ:
            raise InvalidInputError("the perturbation must have rational coefficients")
        h_touches_v = any(h.degree_in(vn) > 0 for vn in problem.v_names)
        weights_all = list(frame0.weights)
        if any(w is None for w in weights_all):
            raise InvalidInputError("perturbation runs need declared weights everywhere")
        neg_shift = tuple([d * m for m in neg] + [0] * len(v_cols) + [0])
        target = tuple([d * p for p in pos] + [0] * len(v_cols) + [0])
        v_q = value_of_exponent(target, weights_all)
        h_terms = {}
        for e, c in h.terms.items():
            ne = tuple(a + b for a, b in zip(e, neg_shift))
            if compare(value_of_exponent(ne, weights_all), v_q) is not Ordering.Greater:
                raise InvalidInputError(
                    "perturbation must have monomial value above the quasi-homogeneous part"
                )
            h_terms[ne] = c
        h_cleared = MultiPoly.build(frame0.names, h_terms, QQ, h.den)
        q_cleared = q_cleared + h_cleared
        engine.run_aux(list(h_cleared.terms.keys()), target)

    engine.run_main_game()
    engine.locate_unit()
    x_weight = None
    if problem.beta_new is not None and not problem.residue.transcendental:
        x_weight = problem.beta_new - problem.beta_n.scale(abar * d)
    engine.translate(mp, x_weight)
    frame = engine.frame

    # conclusion: no center holds a passive column, so no image of a
    # w-variable touches one (an update changes only its vertex, in J)
    if not h_touches_v:
        engine.path.claim_independence(v_cols)
    # images of w_1..w_r, w_n: monomial in the final actives times z-powers
    images = {}
    for col in list(w_cols) + [x_col]:
        e = engine.path.advance(tuple(int(i == col) for i in range(n)))
        mono, units, zp = _split_unit_part(e, frame, engine.z_column)
        images[frame0.names[col]] = {
            "monomial": list(mono),
            "unit_exponents": units,
            "z_power": zp,
        }

    witness = _verify_factorization(engine, q_cleared, pos, problem)

    return UniformizingResult(
        path=engine.path,
        abar=abar,
        alpha_coeffs=alpha,
        d=d,
        z_column=engine.z_column,
        z_sign=engine.z_sign,
        new_var=engine.new_var,
        residue=problem.residue,
        images=images,
        witness=witness,
        records=records,
        aux_steps=engine.aux_steps,
    )


def _verify_factorization(
    engine: _ElementaryEngine,
    q_cleared: Optional[MultiPoly],
    pos: Sequence[int],
    problem: UniformizingProblem,
) -> dict:
    """Exact identity behind the factorization of Q-tilde.

    Unperturbed: image(Q~ * w^(d neg)) = w^div * X * U with U a unit whose
    constant part is P'(theta).  Perturbed: the quotient W still satisfies
    W - P(theta + X) of strictly positive value, the perturbed analogue of
    the same conclusion.  The monomial part ``e_plus`` is d times the
    image of ``w^pos``, its exponent advanced along the path.
    """
    if q_cleared is None:
        return {"kind": "transcendental"}
    path = engine.path
    n = path.frames[0].n
    d = problem.residue.degree()
    pre = len(path) - 1 if engine.new_var is not None else len(path)
    img_pre = path.push(q_cleared, 0, pre)
    frame = engine.frame
    e_plus = [d * x for x in path.advance(engine._embed(pos))]
    q = engine.z_column
    div = list(e_plus)
    # unit columns are invertible: lower the divisor there so the monomial
    # division stays polynomial (the difference is a unit factor)
    pre_units = set(engine.frame.units) | {q}
    for col in pre_units:
        col_min = min(e[col] for e in img_pre.terms)
        div[col] = min(div[col], col_min)
    w_terms = {}
    for e, c in img_pre.terms.items():
        ne = tuple(a - b for a, b in zip(e, div))
        if any(x < 0 for x in ne):
            raise AssertionError("factorization: monomial division failed")
        w_terms[ne] = c
    w_pre = MultiPoly(img_pre.vars, w_terms, img_pre.tower, img_pre.den)
    result = {
        "kind": "algebraic",
        "monomial_exponent": [int(x) for x in div],
        "unit_z_shift": int(e_plus[q] - div[q]),
    }
    if engine.new_var is None:
        result["quotient"] = w_pre.to_json()
        return result
    # substitute the unit variable and compare with P(theta + X)
    last = path.steps[-1]
    w_poly = push_polynomial_through_step(w_pre, path.frames[pre], last, frame)
    tower = frame.tower
    result["quotient"] = w_poly.to_json()
    x_name = engine.new_var
    # P has its coefficients in the tower before the translation extended it
    xi = w_poly.var_index(x_name)
    p_of_x = MultiPoly.build(
        w_poly.vars,
        {tuple(i if k == xi else 0 for k in range(n)): c for i, c in enumerate(engine.minpoly)},
        path.frames[pre].tower,
    ).with_tower(tower)
    theta = translation_root(last.translation_data[0], tower)
    diff = w_poly - taylor_shift(p_of_x, x_name, theta)
    if problem.h is None or problem.h.is_zero():
        if not diff.is_zero():
            raise AssertionError("factorization: quotient differs from P(z)")
        # x divides exactly when every term has positive x-degree; the
        # translated column is no unit of the frame, so this shifts x alone
        _, quo = split_monomial(w_poly, [int(k == xi) for k in range(n)], frame)
        if quo is None:
            raise AssertionError("factorization: new parameter fails to divide")
        const = quo.constant_term()
        if tower.is_zero(const):
            raise AssertionError("factorization: cofactor is not a unit")
        result["unit_cofactor"] = quo.to_json()
        result["unit_constant"] = tower.elem_to_json(const)
        result["exact"] = True
    else:
        for e in diff.terms:
            if not any(e[i] > 0 for i in range(len(e)) if i not in frame.units):
                raise AssertionError("perturbation escaped the maximal ideal")
        result["perturbation_tail"] = diff.to_json()
        result["exact"] = False
    return result


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


@dataclass
class KeyPolyWitness:
    entry: int
    monomial: tuple[int, ...]
    unit: MultiPoly
    image: MultiPoly
    x_multiplicity: int


@dataclass
class KeyPolyResult:
    path: PushPath
    x_column: int
    witnesses: list[KeyPolyWitness]
    records: list
    level_data: list


def _check_key_claims(
    chain: KeyPolyChain, witnesses: Sequence[KeyPolyWitness], frame: Frame
) -> None:
    """The claims of a key-polynomial run, checked before it returns: in
    the final frame the least term value of each pushed Q_i is beta_i, and
    the distinguished parameter divides the top one exactly once."""
    weights = [frame.weight(c) for c in range(frame.n)]
    for w in witnesses:
        least = min(value_of_exponent(e, weights) for e in w.image.terms)
        if compare(least, chain.beta(w.entry)) is not Ordering.Equal:
            raise AssertionError(
                f"key polynomial {w.entry} has least term value {least!r} in the "
                "final frame, not its beta"
            )
    if len(chain) >= 2 and witnesses[-1].x_multiplicity != 1:
        raise AssertionError(
            f"top key polynomial has x multiplicity {witnesses[-1].x_multiplicity}, not 1"
        )


def monomialize_key_polys(chain: KeyPolyChain, budget: int = DEFAULT_BUDGET) -> KeyPolyResult:
    """Iterated elementary sequences along a valid chain: after the run,
    every key polynomial is a monomial in the final frame multiplied by a
    unit, and the distinguished parameter divides the top key polynomial
    exactly once.

    The image of each Q_i is kept with the length of the prefix it was
    pushed through, and is advanced only through the steps added since."""
    issues = validate_chain(chain)
    if issues:
        raise InvalidInputError("chain invalid: " + ", ".join(issues))
    path = PushPath(chain.initial_frame())
    budget_ = _Budget(budget)
    records: list = []
    images = {i: (0, chain.Q(i).with_vars(chain.all_vars)) for i in range(1, len(chain) + 1)}

    def image(i: int) -> MultiPoly:
        start, img = images[i]
        img = path.push(img, start)
        images[i] = (len(path), img)
        return img

    # maximal Q-independent subset of the ground weights, greedily by index
    basis_cols = _linalg.pivot_columns(tuple(zip(*(w.nums for w in chain.ground.weights))))
    x_col = path.frame.n - 1
    level_data = []

    for q in range(1, len(chain)):
        t_img = image(q + 1)
        frame = path.frame
        weights = [frame.weight(i) for i in range(frame.n)]
        engine = _ElementaryEngine(path, basis_cols, x_col, budget_, records)
        engine.lattice_data()
        abar, alpha_vec = engine.abar, engine.alpha
        # the value-minimal part of the pushed key polynomial is the ladder
        # w^(m_0) * sum kappa_i z^i with z = X^abar / w^lambda; unit factors
        # from earlier translations only contribute their residue constants
        term_values = [(e, value_of_exponent(e, weights)) for e in t_img.terms]
        vmin = term_values[0][1]
        for _, v in term_values[1:]:
            if compare(v, vmin) is Ordering.Less:
                vmin = v
        initial = {
            e: t_img.coeff(e)
            for e, v in term_values
            if compare(v, vmin) is Ordering.Equal
        }
        tower = frame.tower
        kappa: dict[int, object] = {}
        ladders: dict[int, tuple[int, ...]] = {}
        for e, c in initial.items():
            if any(e[i] for i in frame.units):
                raise RequiresCompletionError(
                    "requires completion: residue coefficients involve transcendental units"
                )
            b = e[x_col]
            if b % abar:
                raise RequiresCompletionError(
                    "requires completion: initial support off the lattice progression"
                )
            i = b // abar
            if i in kappa:
                raise RequiresCompletionError(
                    "requires completion: residue coefficients leave the constant field"
                )
            kappa[i] = c
            ladders[i] = e
        if 0 not in ladders:
            raise RequiresCompletionError(
                "requires completion: initial form is not a z-polynomial with unit ends"
            )
        d = max(ladders)
        if d < 1:
            raise RequiresCompletionError(
                "requires completion: initial form does not involve the parameter"
            )
        m0 = ladders[0]
        for i, e in ladders.items():
            expect = list(m0)
            for cc, col in zip(alpha_vec, basis_cols):
                expect[col] -= i * cc
            expect[x_col] += i * abar
            if list(e) != expect:
                raise RequiresCompletionError(
                    "requires completion: initial monomials break the lattice ladder"
                )
        kd_inv = tower.inv(kappa[d])
        bcoeffs = [
            tower.mul(kappa[i], kd_inv) if i in kappa else tower.zero() for i in range(d + 1)
        ]
        # tail terms above the minimum must become divisible by the image of
        # the minimal initial monomial w^(m_0) before the residue can move
        tail_exps = [e for e, v in term_values if compare(v, vmin) is Ordering.Greater]
        if tail_exps:
            engine.run_aux(tail_exps, m0)
        engine.run_main_game()
        engine.locate_unit()
        jump = chain.beta(q + 1) - vmin
        if jump.sign() <= 0:
            raise AssertionError("value jump is not positive")
        engine.translate(bcoeffs, jump)
        x_col = engine.z_column
        level_data.append(
            {
                "level": q + 1,
                "abar": abar,
                "alpha": list(alpha_vec),
                "d": d,
                "minpoly": [tower.elem_to_json(c) for c in bcoeffs],
                "z_sign": engine.z_sign,
                "new_var": engine.new_var,
            }
        )

    # witnesses: every key polynomial is monomial * unit; the top one is
    # divisible by the distinguished parameter exactly once
    witnesses = []
    frame = path.frame
    for i in range(1, len(chain) + 1):
        img = image(i)
        # the componentwise least exponent divides every term
        mono, unit = split_monomial(img, [min(c) for c in zip(*img.terms)], frame)
        if not has_unit_term(unit, frame):
            # residual terms that only a formal-series parameter absorbs
            raise RequiresCompletionError(
                f"requires completion: key polynomial {i} keeps a residual "
                "perturbation in the final frame"
            )
        mult = 0
        if i == len(chain) and len(chain) >= 2:
            # the power of x in img: the monomial's (zero on a unit column)
            # plus the largest power of x that divides the unit
            mult = mono[x_col] + min(e[x_col] for e in unit.terms)
        witnesses.append(
            KeyPolyWitness(
                entry=i,
                monomial=mono,
                unit=unit,
                image=img,
                x_multiplicity=mult,
            )
        )
    _check_key_claims(chain, witnesses, frame)
    return KeyPolyResult(
        path=path,
        x_column=x_col,
        witnesses=witnesses,
        records=records,
        level_data=level_data,
    )


@dataclass
class PolyMonoResult:
    path: PushPath
    exponent: tuple[int, ...]
    unit_witness: MultiPoly
    records: list
    image: MultiPoly
    expansion_values: list


def monomialize_polynomial(
    f: MultiPoly, chain: KeyPolyChain, budget: int = DEFAULT_BUDGET
) -> PolyMonoResult:
    """Monomialize a polynomial measured by the chain's top truncation:
    monomialize the key polynomials, push f through, and principalize the
    exponents of the image; the quotient by the surviving monomial is the
    unit witness."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no value")
    f = f.with_vars(chain.all_vars)
    top = len(chain)
    trunc = truncate(f, chain, top)
    expansion_values = [
        {
            "j": j,
            "value": v.to_json(),
            "attains_min": compare(v, trunc.value) is Ordering.Equal,
        }
        for j, v in trunc.terms
    ]

    kp = monomialize_key_polys(chain, budget)
    if f == chain.Q(top).with_vars(chain.all_vars):
        w = kp.witnesses[-1]
        return PolyMonoResult(
            path=kp.path,
            exponent=w.monomial,
            unit_witness=w.unit,
            records=kp.records,
            image=w.image,
            expansion_values=expansion_values,
        )
    records = list(kp.records)
    path = kp.path
    img = path.push(f)
    start = len(path)
    gens = _antichain(sorted(img.terms.keys(), key=lambda e: (sum(e), e)))
    survivor, exps = principalize_exponents(gens, path, _Budget(budget), records)
    img = path.push(img, start)
    frame = path.frame
    mono, witness = split_monomial(img, exps[survivor], frame)
    if witness is None:
        raise AssertionError("monomial division failed")
    if not has_unit_term(witness, frame):
        raise RequiresCompletionError(
            "requires completion: the cofactor is not a polynomial unit"
        )
    return PolyMonoResult(
        path=path,
        exponent=mono,
        unit_witness=witness,
        records=records,
        image=img,
        expansion_values=expansion_values,
    )
