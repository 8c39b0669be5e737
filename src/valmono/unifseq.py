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

``elementary_uniformizing_sequence`` and every level of
``monomialize_key_polys`` run this one sequence, ``_level``, which reads
its ladder from the initial form of the polynomial it is given.

Every claimed identity is verified by exact polynomial arithmetic; states
that would genuinely need formal-series units (composite degree-zero
elements, residue coefficients outside the constant tower) raise
``requires completion`` instead of approximating.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, sub
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
from .framing import Frame, PushPath
from .game import (
    _divide_monomial,
    _reduced_divides,
    has_unit_term,
    monomialize_nondegenerate,
    run_pair_descent,
    split_monomial,
)
from .keypoly import KeyPolyChain, truncate, validate_chain
from .polyalg import FieldTower, MultiPoly, QQ
from .values import Value, _exponent_row, _order, _positive, _row_lattice


class UniformizingProblem(namedtuple(
    "UniformizingProblem",
    "w_names w_weights wn_name beta_n residue v_names v_weights h beta_new",
    defaults=((), (), None, None),
)):
    """Input of one elementary uniformizing sequence.

    Frame order is (w_1..w_r, v_1..v_t, w_n).  ``residue`` is the monic
    minimal polynomial of the residue of z, rationals lowest degree first
    (as a translation item holds it), or None for a transcendental
    residue.  ``h`` is an optional perturbation whose monomial value
    strictly exceeds that of the quasi-homogeneous part; ``beta_new``
    optionally declares the value of Q-tilde so the new parameter can be
    weighted in the final frame.
    """

    __slots__ = ()

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


class UniformizingResult(namedtuple(
    "UniformizingResult",
    "abar alpha_coeffs d z_column z_sign new_var images witness aux_steps",
    defaults=(0,),
)):
    __slots__ = ()


# -- the phases of one elementary sequence, as functions on its path ------
#
# ``w_cols`` are the columns of the Q-independent basis and ``x_col`` the
# distinguished column; every other column rides along untouched unless a
# perturbation forces auxiliary work.  Exponents written in an earlier
# chart are advanced from there in one call, ``path.advance(exps, start)``.


def _lattice(frame: Frame, w_cols: Sequence[int], x_col: int) -> tuple[int, tuple[int, ...]]:
    """(abar, alpha) with abar the least positive integer such that
    abar * beta_x = sum alpha_i beta_(w_i), from the frame's weight rows."""
    basis = [frame.row(c) for c in w_cols]
    target = frame.row(x_col)
    # one elimination: a dependent basis is reported first, then a non-positive target
    try:
        lattice = _row_lattice(target, basis)
    except DegenerateBasisError:
        raise InvalidInputError("ground weights are not Q-linearly independent") from None
    except NotInDivisibleHullError:
        if _positive(target):
            raise
    if not _positive(target):
        raise PositiveWeightError("weights must be positive")
    return lattice


def _z_exponents(n: int, w_cols: Sequence[int], x_col: int, lattice: tuple) -> tuple[tuple, tuple]:
    """``(delta, gamma) = (X^abar w^neg, w^pos)`` on ``n`` columns, for
    ``lattice = (abar, alpha)`` with alpha = pos - neg, so that
    z = delta / gamma = X^abar / w^alpha."""
    abar, alpha = lattice
    delta, gamma = [0] * n, [0] * n
    for c, col in zip(alpha, w_cols):
        delta[col], gamma[col] = max(-c, 0), max(c, 0)
    delta[x_col] += abar
    return tuple(delta), tuple(gamma)


def _absorb(
    path: PushPath,
    exponents: Sequence[tuple[int, ...]],
    target: tuple[int, ...],
) -> int:
    """Blow up until the target monomial reduced-divides every listed
    exponent, all written in the path's current chart; returns the number
    of steps appended.  Every listed value must strictly exceed the
    target's, so the game always lands the divisibility on the target side.
    It is one pair game per exponent, not one principalization of them all:
    on the ``chains`` bench pool both take the same centers, but traces
    written with the pair records must still replay."""
    start = mark = len(path)
    rest = list(exponents)
    while rest:
        # the target and the rest are written in the chart ``frames[mark]``:
        # advance them through the steps the last game appended only
        if mark < len(path):
            target, *rest = path.advance([target, *rest], mark)
            mark = len(path)
        e = rest.pop(0)
        # a pair that already divides would make the game append no step
        if _reduced_divides(target, e, path.frame.units):
            continue
        if not run_pair_descent(target, e, path).alpha_divides:
            raise AssertionError("auxiliary phase failed to land divisibility on y^d")
    return len(path) - start


def _collide(
    path: PushPath,
    start: int,
    delta: tuple[int, ...],
    gamma: tuple[int, ...],
) -> tuple[int, int]:
    """The main game on z = delta / gamma (``_z_exponents``), written in
    the chart ``frames[start]``.  Its one weight collision must be its last
    step, and delta / gamma must then be a single unit variable z to the
    power +-1; returns z's column and that sign."""
    mark = len(path)
    delta, gamma, _, _ = run_pair_descent(*path.advance([delta, gamma], start), path)
    main = path.steps[mark:]
    for i, s in enumerate(main):
        if s.J_times and i != len(main) - 1:
            raise AssertionError("weight collision before the end of the main game")
    diff = [a - b for a, b in zip(delta, gamma)]
    support = [i for i, x in enumerate(diff) if x != 0]
    if len(support) != 1:
        raise RequiresCompletionError(
            "requires completion: the degree-zero element is a composite unit"
        )
    q = support[0]
    if q not in path.frame.units:
        raise AssertionError("z column is not unit-tagged")
    if abs(diff[q]) != 1:
        raise AssertionError("z column carries a non-primitive exponent")
    return q, diff[q]


def _translate(
    path: PushPath,
    z_column: int,
    z_sign: int,
    minpoly: Sequence,
    new_weight: Optional[Value],
) -> str:
    """Replace the unit variable by the regular parameter z - theta.
    ``minpoly`` is the minimal polynomial of the residue of z, elements of
    the current tower; the step holds that of the residue of the unit
    *variable*: ``minpoly`` when z is that variable, its normalized
    reciprocal when 1/z is.  Returns the new parameter's name.

    ``minpoly[0]`` is never zero: ``_level`` builds it as kappa_0 / kappa_d
    from a term of the ladder, and kappa_d is invertible."""
    tower = path.frame.tower
    if z_sign == 1:
        minpoly = tuple(minpoly)
    else:
        inv = tower.inv(minpoly[0])
        minpoly = tuple(tower.mul(c, inv) for c in reversed(minpoly))
    if new_weight is not None and not new_weight.is_positive():
        raise InvalidInputError("the new parameter must have positive value")
    item = path.translate(z_column, minpoly, new_weight)
    record = item.to_json()
    del record["new_weight"]
    path.record(translation=record)
    return item.new_name


def _initial_form(
    poly: MultiPoly, frame: Frame
) -> tuple[tuple[int, ...], list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The least term value of ``poly`` in ``frame``, as an integer row over
    ``frame.den``, with the exponents of that value (the initial form) and
    those above it, in term order.  Only the weight rows of the columns
    ``poly`` uses are read: a unit column weighs 0, and a passive column
    may have no declared weight."""
    used = [c for c in range(frame.n) if any(e[c] for e in poly.terms)]
    # the used weight rows by generator, for ``_exponent_row``
    columns = list(zip(*[frame.row(c) for c in used]))
    rows = [(e, _exponent_row([e[c] for c in used], columns)) for e in poly.terms]
    least = rows[0][1]
    for _, r in rows[1:]:
        if _order(r, least) < 0:
            least = r
    # the rows share one denominator, so equal values have equal rows
    at = [e for e, r in rows if r == least]
    above = [e for e, r in rows if r != least]
    return least, at, above


class _Level(namedtuple("_Level", "abar alpha minpoly z_column z_sign new_var aux_steps")):
    """What one ``_level`` ran: ``minpoly`` is that of the residue of z, in
    the tower the level started in; ``aux_steps`` absorbed the terms above
    the initial form."""

    __slots__ = ()


def _level(
    path: PushPath,
    poly: MultiPoly,
    w_cols: Sequence[int],
    x_col: int,
    lattice: tuple[int, tuple[int, ...]],
    new_value: Optional[Value],
) -> _Level:
    """One elementary sequence on the path.  The initial form of ``poly``,
    written in the path's current chart, must be the ladder
    w^(m_0) * sum kappa_i z^i, kappa_0 != 0, with z = delta / gamma
    (``_z_exponents``): exponents ``m_0 + i (delta - gamma)``.  ``lattice``
    is ``(abar, alpha)``, by ``_lattice`` in that chart.  The terms above
    it are absorbed into w^(m_0), the main game collides z, and the collided
    unit is translated by P = sum kappa_i / kappa_d z^i, over the chart's
    tower.  ``new_value`` is the value of ``poly``: the new parameter weighs
    its excess over the initial form (None leaves the weight undeclared)."""
    frame = path.frame
    tower = frame.tower
    start = len(path)
    abar, alpha = lattice
    delta, gamma = _z_exponents(frame.n, w_cols, x_col, lattice)
    least, initial, above = _initial_form(poly, frame)
    # unit factors from earlier translations only contribute their residue
    # constants, so a unit exponent in the initial form needs a series
    kappa: dict[int, object] = {}
    ladder: dict[int, tuple[int, ...]] = {}
    for e in initial:
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
        kappa[i] = poly.coeff(e)
        ladder[i] = e
    if 0 not in ladder:
        raise RequiresCompletionError(
            "requires completion: initial form is not a z-polynomial with unit ends"
        )
    d = max(ladder)
    if d < 1:
        raise RequiresCompletionError(
            "requires completion: initial form does not involve the parameter"
        )
    m0 = ladder[0]
    rung = tuple(map(sub, delta, gamma))
    for i, e in ladder.items():
        if e != tuple([m + i * r for m, r in zip(m0, rung)]):
            raise RequiresCompletionError(
                "requires completion: initial monomials break the lattice ladder"
            )
    kd_inv = tower.inv(kappa[d])
    minpoly = tuple(
        tower.mul(kappa[i], kd_inv) if i in kappa else tower.zero() for i in range(d + 1)
    )
    aux_steps = _absorb(path, above, m0)
    z_column, z_sign = _collide(path, start, delta, gamma)
    weight = None if new_value is None else new_value - Value(least, frame.den, frame.group)
    new_var = _translate(path, z_column, z_sign, minpoly, weight)
    return _Level(abar, alpha, minpoly, z_column, z_sign, new_var, aux_steps)


def _split_unit_part(
    exponent: Sequence[int], frame: Frame, z_column: int
) -> tuple[tuple[int, ...], dict, int]:
    drop = frame.units | {z_column}
    mono = tuple(0 if i in drop else x for i, x in enumerate(exponent))
    units = {
        frame.names[i]: exponent[i]
        for i in frame.units
        if exponent[i] != 0 and i != z_column
    }
    return mono, units, exponent[z_column]


def elementary_uniformizing_sequence(
    problem: UniformizingProblem,
    path: PushPath,
) -> UniformizingResult:
    """Uniformize the quasi-homogeneous element attached to the problem,
    on a path whose current frame is ``problem.frame()`` over any tower:
    run the pair game on w_n^abar versus w^alpha, replace the resulting
    degree-zero variable by the new regular parameter, and verify the
    factorization of Q-tilde by exact arithmetic.  An algebraic residue
    runs one ``_level`` on the cleared Q-tilde, over the path's tower; a
    transcendental one only collides.  Exponents come from ``_z_exponents``."""
    frame0, start = path.frame, len(path)
    r = len(problem.w_names)
    n = frame0.n
    w_cols = tuple(range(r))
    x_col = n - 1
    for c in w_cols:
        if not _positive(frame0.row(c)):
            raise PositiveWeightError("weights must be positive")
    lattice = abar, alpha = _lattice(frame0, w_cols, x_col)
    delta, gamma = _z_exponents(n, w_cols, x_col, lattice)
    mp = problem.residue
    d = 0 if mp is None else len(mp) - 1
    # the Laurent denominator w^(d*neg) of Q-tilde: d times delta's w part
    clear = tuple([d * x for x in delta[:r]]) + (0,) * (n - r)
    q_cleared = None
    if mp is not None:
        if d < 1 or mp[-1] != 1:
            raise InvalidInputError(
                "residue minimal polynomial must be monic of degree >= 1"
            )
        if mp[0] == 0:
            raise InvalidInputError("residue minimal polynomial must have b_0 != 0")
        # Q-tilde cleared of its denominator: Q * w^(d*neg) = sum_i b_i gamma^(d-i) delta^i
        terms = {
            tuple([(d - i) * g + i * x for g, x in zip(gamma, delta)]): mp[i] for i in range(d + 1)
        }
        q_cleared = MultiPoly.build(frame0.names, terms)

    h = problem.h
    if h is not None and not h.is_zero():
        if mp is None:
            raise InvalidInputError("a perturbation needs an algebraic residue")
        h = h.with_vars(frame0.names)
        if h.tower != QQ:
            raise InvalidInputError("the perturbation must have rational coefficients")
        if None in frame0.rows:
            raise InvalidInputError("perturbation runs need declared weights everywhere")
        columns = tuple(zip(*frame0.rows))
        v_q = _exponent_row([d * g for g in gamma], columns)
        h_terms = {}
        for e, c in h.terms.items():
            ne = tuple(map(add, e, clear))
            if _order(_exponent_row(ne, columns), v_q) <= 0:
                raise InvalidInputError(
                    "perturbation must have monomial value above the quasi-homogeneous part"
                )
            h_terms[ne] = c
        q_cleared = q_cleared + MultiPoly.build(frame0.names, h_terms, QQ, h.den)

    new_var, aux_steps = None, 0
    if mp is None:
        z_column, z_sign = _collide(path, start, delta, gamma)
    else:
        q_cleared = q_cleared.with_tower(frame0.tower)
        # the cleared Q-tilde is Q-tilde, of value beta_new, times w^(d*neg)
        value = problem.beta_new
        if value is not None:
            shift = _exponent_row(clear[:r], tuple(zip(*frame0.rows[:r])))
            value += Value(shift, frame0.den, frame0.group)
        level = _level(path, q_cleared, w_cols, x_col, lattice, value)
        z_column, z_sign = level.z_column, level.z_sign
        new_var, aux_steps = level.new_var, level.aux_steps
    frame = path.frame

    # images of w_1..w_r, w_n: monomial in the final actives times z-powers
    cols = (*w_cols, x_col)
    ones = [tuple(int(i == c) for i in range(n)) for c in cols]
    images = {}
    for col, e in zip(cols, path.advance(ones, start)):
        mono, units, zp = _split_unit_part(e, frame, z_column)
        images[frame0.names[col]] = {
            "monomial": list(mono),
            "unit_exponents": units,
            "z_power": zp,
        }

    witness = _verify_factorization(path, start, q_cleared, gamma, problem)

    return UniformizingResult(
        abar=abar,
        alpha_coeffs=alpha,
        d=d,
        z_column=z_column,
        z_sign=z_sign,
        new_var=new_var,
        images=images,
        witness=witness,
        aux_steps=aux_steps,
    )


def _verify_factorization(
    path: PushPath,
    start: int,
    q_cleared: Optional[MultiPoly],
    gamma: tuple[int, ...],
    problem: UniformizingProblem,
) -> dict:
    """Exact identity behind the factorization of Q-tilde.

    Unperturbed: image(Q~ * w^(d neg)) = w^div * X * U with U a unit whose
    constant part is P'(theta).  Perturbed: the quotient W still satisfies
    W - P(theta + X) of strictly positive value, the perturbed analogue of
    the same conclusion.  ``q_cleared`` and ``gamma = w^pos`` are written
    in the chart ``frames[start]``; ``e_plus`` is d times gamma advanced
    from there.  An algebraic residue ends the path with the translation of
    column q, from the chart ``pre``; ``minpoly`` is that step's, in the
    tower before it.  ``PushPath.push`` carries W and P through that step,
    and both divisions, by w^div and by X, are ``_divide_monomial``.

    The unperturbed identity ``W = P(theta + X)`` is decided before the
    translation, as ``w_pre = P(u_q)`` in the chart ``pre`` (see
    ``_is_minpoly_of_the_unit``): the push lifts w_pre to the tower after
    the step, shifts ``u_q -> theta + u_q`` and renames it, and each of the
    three is an injective ring map, so the two identities hold together.
    """
    if q_cleared is None:
        return {"kind": "transcendental"}
    item = path.steps[-1].translation_data[0]
    q, minpoly = item.target, item.minpoly
    n = path.frame.n
    d = len(minpoly) - 1
    pre = len(path) - 1
    img_pre = path.push(q_cleared, start, pre)
    frame = path.frame
    e_plus = [d * x for x in path.advance([gamma], start)[0]]
    div = list(e_plus)
    # unit columns are invertible: lower the divisor there so the monomial
    # division stays polynomial (the difference is a unit factor)
    for col in frame.units | {q}:
        col_min = min(e[col] for e in img_pre.terms)
        div[col] = min(div[col], col_min)
    w_pre = _divide_monomial(img_pre, div)
    if w_pre is None:
        raise AssertionError("factorization: monomial division failed")
    exact = problem.h is None or problem.h.is_zero()
    if exact and not _is_minpoly_of_the_unit(path, w_pre):
        raise AssertionError("factorization: quotient differs from P(z)")
    # substitute the unit variable: W = w_pre(theta + X)
    w_poly = path.push(w_pre, pre)
    tower = frame.tower
    result = {
        "kind": "algebraic",
        "monomial_exponent": [int(x) for x in div],
        "unit_z_shift": int(e_plus[q] - div[q]),
        "quotient": w_poly.to_json(),
    }
    if exact:
        # x divides exactly when every term has positive x-degree
        quo = _divide_monomial(w_poly, tuple(int(k == q) for k in range(n)))
        if quo is None:
            raise AssertionError("factorization: new parameter fails to divide")
        const = quo.constant_term()
        if tower.is_zero(const):
            raise AssertionError("factorization: cofactor is not a unit")
        result["unit_cofactor"] = quo.to_json()
        result["unit_constant"] = tower.elem_to_json(const)
        result["exact"] = True
    else:
        # P(u_q) has its coefficients in the tower before the translation
        diff = w_poly - path.push(_minpoly_in(w_pre.vars, q, minpoly, path.frames[pre].tower), pre)
        if has_unit_term(diff, frame):
            raise AssertionError("perturbation escaped the maximal ideal")
        result["perturbation_tail"] = diff.to_json()
        result["exact"] = False
    return result


def _minpoly_in(vars: tuple[str, ...], q: int, minpoly: tuple, tower: FieldTower) -> MultiPoly:
    """P(u_q): the monic ``minpoly`` in the variable of column q."""
    n = len(vars)
    return MultiPoly.build(
        vars, {tuple(i if k == q else 0 for k in range(n)): c for i, c in enumerate(minpoly)}, tower
    )


def _is_minpoly_of_the_unit(path: PushPath, w_pre: MultiPoly) -> bool:
    """Whether ``w_pre``, written in the chart before the path's last step,
    is ``P(u_q)``: the minimal polynomial of that step's translation in the
    variable ``u_q`` it translates, over the tower before the step."""
    item = path.steps[-1].translation_data[0]
    return w_pre == _minpoly_in(w_pre.vars, item.target, item.minpoly, path.frames[-2].tower)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


class KeyPolyWitness(namedtuple("KeyPolyWitness", "entry monomial unit image x_multiplicity")):
    __slots__ = ()


class KeyPolyResult(namedtuple("KeyPolyResult", "x_column witnesses level_data")):
    __slots__ = ()


def _check_key_claims(
    chain: KeyPolyChain, witnesses: Sequence[KeyPolyWitness], frame: Frame
) -> None:
    """The claims of a key-polynomial run, checked before it returns: in
    the final frame the least term value of each pushed Q_i is beta_i, and
    the distinguished parameter divides the top one exactly once."""
    for w in witnesses:
        least = _initial_form(w.image, frame)[0]
        beta = chain.beta(w.entry)
        # least / frame.den == beta, coordinate by coordinate
        if [x * beta.den for x in least] != [y * frame.den for y in beta.nums]:
            least = Value(least, frame.den, frame.group)
            raise AssertionError(
                f"key polynomial {w.entry} has least term value {least!r} in the "
                "final frame, not its beta"
            )
    if len(chain) >= 2 and witnesses[-1].x_multiplicity != 1:
        raise AssertionError(
            f"top key polynomial has x multiplicity {witnesses[-1].x_multiplicity}, not 1"
        )


def monomialize_key_polys(chain: KeyPolyChain, path: PushPath) -> KeyPolyResult:
    """Iterated elementary sequences along a valid chain, on a path whose
    current frame is ``chain.initial_frame()``: after the run, every key
    polynomial is a monomial in the final frame multiplied by a unit, and
    the distinguished parameter divides the top key polynomial exactly
    once.

    The image of each Q_i is kept with the length of the prefix it was
    pushed through, and is advanced only through the steps added since."""
    issues = validate_chain(chain)
    if issues:
        raise InvalidInputError("chain invalid: " + ", ".join(issues))
    start = len(path)
    images = {i: (start, chain.Q(i)) for i in range(1, len(chain) + 1)}

    def image(i: int) -> MultiPoly:
        start, img = images[i]
        img = path.push(img, start)
        images[i] = (len(path), img)
        return img

    # maximal Q-independent subset of the ground weights, greedily by index
    basis_cols = _linalg.pivot_columns(tuple(zip(*chain.ground.frame().rows)))
    x_col = path.frame.n - 1
    level_data = []

    for q in range(1, len(chain)):
        # the initial form of the pushed Q_(q+1) is this level's ladder
        tower = path.frame.tower
        poly = image(q + 1)
        lattice = _lattice(path.frame, basis_cols, x_col)
        level = _level(path, poly, basis_cols, x_col, lattice, chain.beta(q + 1))
        x_col = level.z_column
        level_data.append(
            {
                "level": q + 1,
                "abar": level.abar,
                "alpha": list(level.alpha),
                "d": len(level.minpoly) - 1,
                "minpoly": [tower.elem_to_json(c) for c in level.minpoly],
                "z_sign": level.z_sign,
                "new_var": level.new_var,
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
        x_column=x_col,
        witnesses=witnesses,
        level_data=level_data,
    )


class PolyMonoResult(namedtuple("PolyMonoResult", "exponent unit_witness image expansion_values")):
    __slots__ = ()


def monomialize_polynomial(f: MultiPoly, chain: KeyPolyChain, path: PushPath) -> PolyMonoResult:
    """Monomialize a polynomial measured by the chain's top truncation, on
    a path whose current frame is ``chain.initial_frame()``: monomialize
    the key polynomials, push f through, and end in
    ``monomialize_nondegenerate`` on the image.  Its unit witness always
    has an invertible term, so this phase refuses nothing: the survivor's
    own term divides to a unit, and blow-ups keep distinct exponents
    distinct, so no other term cancels it."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no value")
    f = f.with_vars(chain.all_vars)
    top = len(chain)
    trunc = truncate(f, chain, top)
    expansion_values = [
        {
            "j": j,
            "value": v.to_json(),
            "attains_min": v == trunc.value,
        }
        for j, v in trunc.terms
    ]

    base = len(path)
    kp = monomialize_key_polys(chain, path)
    if f == chain.Q(top):
        w = kp.witnesses[-1]
        return PolyMonoResult(w.monomial, w.unit, w.image, expansion_values)
    res = monomialize_nondegenerate(path.push(f, base), path)
    return PolyMonoResult(res.exponent, res.unit_witness, res.image, expansion_values)
