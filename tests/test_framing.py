"""Framed steps: trace matrices, vertices, weights, pushing, paths."""

import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    active_indices,
    apply_step_to_frame,
    build_step_for_weights,
    choose_vertex,
    extend_path,
    forward_product,
    identity,
    make_monomial_blowup,
    make_translation_step,
    old_det,
    old_inverse_int,
    old_mat_mul,
    old_mat_vec,
    poly,
    push_by_matrices,
    push_polynomial_through_step,
    pushforward_weights,
    random_poly,
    rational_spec,
    step_record,
    trace_matrix,
)
from valmono import framing, values
from valmono.errors import InvalidInputError, StepBudgetExceededError
from valmono.framing import (
    Frame,
    FramedStep,
    TranslationItem,
    PushPath,
    _advance,
)
from valmono.game import split_monomial
from valmono.keypoly import KeyPolyChain
from valmono.polyalg import FieldTower, MultiPoly, QQ, euclid_divide, q_adic_expansion, taylor_shift
from valmono.unifseq import monomialize_key_polys
from valmono.values import SQRT_PRIMES, Value, ValueGroup, compare

G1 = ValueGroup(1)


def _path(n, steps):
    """A path of ``steps`` from a chart whose weights are all zero, so that
    any vertex is minimal."""
    return extend_path(PushPath(Frame(tuple(f"u{i}" for i in range(n)), (G1.rational(0),) * n)), steps)


def test_make_monomial_blowup_paper_matrices():
    # n = 2, J = {1,2}, j = 1 (0-based 0): inverse sends u2 -> u2/u1,
    # forward sends u2 -> u1' u2'
    st = make_monomial_blowup(2, (0, 1), 0)
    N, M = trace_matrix(st), trace_matrix(st, "M")
    assert M == ((1, -1), (0, 1))
    assert N == ((1, 1), (0, 1))
    assert old_mat_mul(N, M) == identity(2)
    assert old_det(N) == 1
    # substitution oracle: u = u', x = u' x', checked at random rational points
    rng = random.Random(4)
    frame = Frame(("u", "x"), (G1.rational(1), G1.rational(2)))
    for _ in range(40):
        f = random_poly(rng, ("u", "x"), max_terms=5, max_exp=4)
        g = push_polynomial_through_step(f, frame, st)
        a, b = Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5))

        def ev(p, u, x):
            return sum(p.coeff(e) * u**e[0] * x**e[1] for e in p.terms)

        assert ev(f, a, a * b) == ev(g, a, b)


def test_monomial_blowups_are_shared_per_center():
    st = make_monomial_blowup(3, [2, 0, 2], 0)
    assert st == make_monomial_blowup(3, (0, 2), 0)
    assert st.J == (0, 2)


def test_make_monomial_blowup_fixed_variable():
    st = make_monomial_blowup(3, (1, 2), 2)
    # u_1 fixed
    N = trace_matrix(st)
    assert N[0] == (1, 0, 0)
    assert tuple(row[0] for row in N) == (1, 0, 0)
    assert old_det(N) == 1


def test_choose_vertex():
    g = ValueGroup(2)
    w = [g.value([1, 0]), g.value([0, 1])]
    assert choose_vertex((0, 1), w) == 0  # 1 < sqrt 2
    assert choose_vertex((1,), w) == 1  # singleton
    w_tie = [g.value([1, 0]), g.value([1, 0])]
    assert choose_vertex((0, 1), w_tie) == 0  # tie-break smallest index


def test_pushforward_weights():
    g = ValueGroup(2)
    st = make_monomial_blowup(2, (0, 1), 0)
    frame = Frame(("a", "b"), (g.value([1, 0]), g.value([0, 1])))
    assert pushforward_weights(frame, st) == [(1, 0), (-1, 1)] and frame.den == 1
    out = apply_step_to_frame(frame, st).weights
    assert out[0].coords == (Fraction(1), Fraction(0))
    assert out[1].coords == (Fraction(-1), Fraction(1))  # sqrt2 - 1


def test_pushforward_ties_become_units():
    g = ValueGroup(1)
    w = [g.rational(1), g.rational(1)]
    st = build_step_for_weights(2, (0, 1), 0, w)
    assert st.kind == "translation" and st.J_times == (1,)
    assert st.n_after == 1
    before = Frame(("a", "b"), tuple(w))
    assert not any(pushforward_weights(before, st)[1])
    frame = apply_step_to_frame(before, st)
    assert frame.weights[1] == G1.rational(0)
    assert frame.units == frozenset({1})


def _built_along_a_path(g, coords, rng):
    """The value with these Fraction coordinates, built one of several
    ways: Fractions, unreduced pairs, a negative denominator, a difference."""
    way = rng.randrange(4)
    if way == 0:
        return g.value(coords)
    if way == 1:
        k = rng.choice((2, 3, 6))
        return g.of_pairs([(c.numerator * k, c.denominator * k) for c in coords])
    if way == 2:
        den = -rng.choice((1, 4, 12)) * math.lcm(*(c.denominator for c in coords))
        return Value(tuple(int(c * den) for c in coords), den, g)
    shift = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in coords]
    return g.value([c + s for c, s in zip(coords, shift)]) - g.value(shift)


# "sqrt-primes" stays a parameter: it is part of each case's id and seed
@pytest.mark.parametrize("ordering", [SQRT_PRIMES])
@pytest.mark.parametrize("rank", [2, 3])
def test_tied_columns_match_a_compare_oracle(ordering, rank):
    rng = random.Random(f"ties:{ordering}:{rank}")
    g = ValueGroup(rank)
    tied = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        # few distinct values, so that centers often hold ties
        pool = [
            [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(rank)]
            for _ in range(rng.randint(1, 3))
        ]
        weights = [_built_along_a_path(g, rng.choice(pool), rng) for _ in range(n)]
        J = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
        j = choose_vertex(J, weights)
        units = tuple(
            i for i in J if i != j and compare(weights[i], weights[j]) == 0
        )
        step = build_step_for_weights(n, J, j, weights)
        assert step == FramedStep(n, J, j, tuple(TranslationItem(target=i) for i in units))
        tied += bool(units)
    assert tied > 50


@pytest.mark.parametrize("ordering", [SQRT_PRIMES])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_blow_up_matches_the_value_oracles(ordering, rank):
    """``PushPath.blow_up`` decides on weight rows what the value route
    decides: ``choose_vertex``, ``build_step_for_weights`` and
    ``apply_step_to_frame`` give the same step, weights and units."""
    rng = random.Random(f"blow_up:{ordering}:{rank}")
    g = ValueGroup(rank)
    tied = undeclared = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        # few distinct values, so that centers often hold ties
        pool = [
            [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(rank)]
            for _ in range(rng.randint(1, 3))
        ]
        weights = [_built_along_a_path(g, rng.choice(pool), rng) for _ in range(n)]
        J = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
        outside = [i for i in range(n) if i not in J]
        for i in outside:
            if rng.random() < 0.4:
                weights[i] = None
        units = frozenset(i for i in outside if rng.random() < 0.3)
        frame = Frame(tuple(f"u{i}" for i in range(n)), tuple(weights), units)
        j = choose_vertex(J, weights)
        want = build_step_for_weights(n, J, j, weights)
        path = PushPath(frame)
        assert path.blow_up(J) == want and path.steps == [want]
        after = apply_step_to_frame(frame, want)
        pushed = tuple(w - weights[j] if i in J and i != j else w for i, w in enumerate(weights))
        assert path.frame.weights == after.weights == pushed
        assert path.frame.units == after.units == units | set(want.J_times)
        assert path.frame == after and path.frame.to_json() == after.to_json()
        tied += bool(want.J_times)
        undeclared += None in weights
    assert tied > 15 and undeclared > 30


def test_blow_up_refuses_an_undeclared_weight_in_its_center():
    frame = Frame(("a", "b", "c"), (G1.rational(1), None, G1.rational(2)))
    with pytest.raises(InvalidInputError) as want:
        frame.row(1)
    path = PushPath(frame)
    for J in ((0, 1), (1, 2), (0, 1, 2)):
        with pytest.raises(InvalidInputError) as got:
            path.blow_up(J)
        assert str(got.value) == str(want.value) == "variable 'b' has no declared weight"
    assert len(path) == 0 and path.blowups == 0
    # an undeclared weight outside the center rides along
    path.blow_up((0, 2))
    assert path.frame.weights == (G1.rational(1), None, G1.rational(1))


def test_blow_up_checks_its_center_and_spends_the_budget():
    frame = Frame(("a", "b", "c"), (G1.rational(1), G1.rational(2), G1.rational(3)))
    path = PushPath(frame, budget=1)
    for J in ((0,), (1, 0), (0, 0), (0, 3), (-1, 0)):
        with pytest.raises(InvalidInputError, match="center"):
            path.blow_up(J)
    assert path.blow_up((1, 2)) == FramedStep(3, (1, 2), 1)
    with pytest.raises(StepBudgetExceededError):
        path.blow_up((0, 2))
    assert len(path) == 1 and len(path.frames) == 2


def test_blow_up_decides_each_sign_once(monkeypatch):
    """One blow-up makes |J| - 1 sign decisions, one per column after the
    first, each one ``_order`` of two rows, and calls no compare and builds
    no Value.  Each ``_order`` calls ``values._sign`` once on ranks 2 and
    4, and not at all on rank 1, where it compares two integers."""
    rng = random.Random(23)
    cases = []
    for rank in (1, 2, 4):
        g = ValueGroup(rank)
        for _ in range(20):
            n = rng.randint(2, 6)
            pool = [[rng.randint(0, 4) for _ in range(rank)] for _ in range(2)]
            frame = Frame(tuple(f"u{i}" for i in range(n)), tuple(g.value(rng.choice(pool)) for _ in range(n)))
            cases.append((rank, frame, tuple(sorted(rng.sample(range(n), rng.randint(2, n))))))
    counts = Counter()

    def counted(name, fn):
        return lambda *a: counts.update([name]) or fn(*a)

    monkeypatch.setattr(framing, "_sign", counted("_sign", framing._sign))
    monkeypatch.setattr(framing, "_order", counted("_order", framing._order))
    monkeypatch.setattr(values, "_sign", counted("values._sign", values._sign))
    monkeypatch.setattr(values, "compare", counted("compare", values.compare))
    monkeypatch.setattr(Value, "__init__", counted("Value", Value.__init__))
    ties = 0
    for rank, frame, J in cases:
        counts.clear()
        path = PushPath(frame)
        ties += bool(path.blow_up(J).J_times)
        signs = 0 if rank == 1 else len(J) - 1
        assert counts == Counter({"_order": len(J) - 1, "values._sign": signs})
    assert ties > 5


def test_frame_json_from_rows_matches_the_values():
    """A frame writes its rows as each ``Value`` writes itself, over any
    common denominator: after a blow-up, and after a translation whose new
    weight brings a new denominator."""
    g = ValueGroup(2)
    frame = Frame(
        ("a", "b", "c", "d"),
        (g.value(["1/2", 3]), g.of_pairs([(2, 4), (6, 4)]), None, g.rational(Fraction(1, 3))),
        frozenset({3}),
    )
    path = PushPath(frame)
    path.blow_up((0, 1))
    lin = (QQ.from_rational(-1), QQ.one())
    path.translate(3, lin, g.value(["1/5", "2/5"]))
    assert [fr.den for fr in path.frames] == [6, 6, 30]
    for fr in path.frames:
        assert fr.to_json()["weights"] == [w.to_json() if w is not None else None for w in fr.weights]
        again = Frame(fr.names, fr.weights, fr.units, fr.tower)
        assert again == fr and hash(again) == hash(fr) and again.to_json() == fr.to_json()
    # the replaced weight's 3 stays in the rows' denominator; values are equal
    assert Frame(path.frame.names, path.frame.weights, path.frame.units).den == 10
    assert path.frame.weights[3] == g.value(["1/5", "2/5"]) and path.frame.names[3] == "d'"
    assert path.steps[0].j == 1 and path.frame.weights[1] == g.of_pairs([(2, 4), (6, 4)])
    assert path.frame.weights[0] == g.value(["1/2", 3]) - g.value(["1/2", "3/2"])


def test_translate_matches_the_oracles():
    """``PushPath.translate`` appends what ``make_translation_step`` and
    ``apply_step_to_frame`` build, with a fresh primed name and, from
    degree 2 on, the least fresh symbol ``t<k>`` above the tower's depth."""
    rng = random.Random(2024)
    g = ValueGroup(2)
    seen = Counter()
    for _ in range(200):
        n = rng.randint(2, 5)
        names = [f"u{i}" for i in range(n)]
        if rng.random() < 0.5:  # a primed name is taken already
            names[rng.randrange(n)] = names[0] + "'" * rng.randint(1, 2)
        tower = QQ
        for sym in rng.sample(["t1", "t2", "t3"], rng.randint(0, 2)):
            tower = tower.extend(sym, (tower.from_rational(-rng.choice((2, 3, 5))), tower.zero(), tower.one()))
        weights = [g.of_pairs([(rng.randint(0, 5), rng.choice((1, 2, 3))) for _ in range(2)]) for _ in range(n)]
        t = rng.randrange(n)
        weights[t] = g.rational(0)
        frame = Frame(tuple(names), tuple(weights), frozenset({t}), tower)
        c = tower.from_rational(rng.choice((1, -2, Fraction(1, 3))))
        mp = (tower.neg(c), tower.one()) if rng.random() < 0.5 else (c, tower.zero(), tower.one())
        nw = rng.choice((None, g.of_pairs([(1, rng.choice((1, 5, 7))), (2, 3)])))
        path = PushPath(frame)
        item = path.translate(t, mp, nw)
        taken = {sym for sym, _ in tower.extensions}
        symbol = None
        if len(mp) > 2:
            symbol = next(f"t{k}" for k in range(tower.depth + 1, 9) if f"t{k}" not in taken)
        name = next(names[t] + "'" * k for k in range(1, 9) if names[t] + "'" * k not in names)
        want = make_translation_step(n, t, mp, symbol, name, nw)
        after = apply_step_to_frame(frame, want)
        assert path.steps == [want] and item == want.translation_data[0]
        assert path.frame == after and (path.frame.rows, path.frame.den) == (after.rows, after.den)
        assert path.frame.to_json() == after.to_json() and path.blowups == 0
        seen.update([("degree", len(mp) - 1), ("symbol", symbol), ("primes", name.count("'"))])
        seen["new den"] += after.den != frame.den
    assert min(seen.values()) >= 5, seen
    assert {("symbol", s) for s in ("t1", "t2", "t3", "t4")} <= set(seen), seen


def test_compose_sequence():
    # empty -> identity
    assert _path(3, ()).advance([(4, 0, 7)])[0] == (4, 0, 7)
    # u = u' v', then v' = u'' v'': the columns of N2 N1 by hand
    s1 = make_monomial_blowup(2, (0, 1), 1)
    s2 = make_monomial_blowup(2, (0, 1), 0)
    assert trace_matrix(s1) == ((1, 0), (1, 1)) and trace_matrix(s2) == ((1, 1), (0, 1))
    for steps, product in (((s1, s2), ((2, 1), (1, 1))), ((s2, s1), ((1, 1), (1, 2)))):
        path = _path(2, steps)
        assert forward_product(steps, 2) == product
        assert (path.advance([(1, 0)])[0], path.advance([(0, 1)])[0]) == tuple(zip(*product))
        assert path.advance([(1, 0)], 1)[0] == _advance([(1, 0)], [steps[1]])[0]
        assert path.advance([]) == []


def test_a_step_is_its_center():
    # the stored fields are the center and the residue motion; the trace
    # matrices, the exponent update and its fold along a path are derived
    # from them, checked against matrix products
    assert FramedStep._fields == ("n", "J", "j", "translation_data")
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 6)
        steps = []
        for _ in range(rng.randint(0, 6)):
            J = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            j = rng.choice(J)
            if len(J) == 1:
                steps.append(make_translation_step(n, j, None, None, None))
            elif rng.random() < 0.3:
                ties = (TranslationItem(target=q) for q in J if q != j and rng.random() < 0.5)
                steps.append(FramedStep(n, J, j, tuple(ties)))
            else:
                steps.append(make_monomial_blowup(n, J, j))
        for s in steps:
            N, M = trace_matrix(s), trace_matrix(s, "M")
            assert old_mat_mul(N, M) == identity(n) and old_det(N) == 1
            e = tuple(rng.randint(0, 9) for _ in range(n))
            assert _advance([e], [s])[0] == old_mat_vec(N, e)
        e = tuple(rng.randint(0, 9) for _ in range(n))
        assert _path(n, steps).advance([e])[0] == old_mat_vec(forward_product(steps, n), e)


def test_compose_independent_block():
    # blow-ups only among variables 1 and 2 leave variable 0 as an
    # identity row and column
    g = ValueGroup(1)
    path = PushPath(Frame(("a", "b", "c"), (g.rational(1), g.rational(2), g.rational(3))))
    assert path.blow_up((1, 2)).j == 1 and path.blow_up((1, 2)).j == 2
    assert path.to_json((0,))["independent_of"] == [1]
    total = forward_product(path.steps, 3)
    assert total[0] == (1, 0, 0)
    assert tuple(row[0] for row in total) == (1, 0, 0)
    assert old_det(total) == 1
    assert path.advance([(5, 0, 0)])[0] == (5, 0, 0)


def test_sequence_independence_enforced():
    g = ValueGroup(1)
    path = PushPath(Frame(("a", "b", "c"), (g.rational(1), g.rational(2), g.rational(3))))
    path.blow_up((0, 1))
    with pytest.raises(InvalidInputError, match="touches its independence set"):
        path.to_json((0,))
    # the path holds no claim: a refused set leaves none behind
    assert "independent_of" not in path.to_json()
    assert path.to_json((2,))["independent_of"] == [3]


def test_unimodularity_random_sequences():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(2, 5)
        steps = []
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(2, n)
            J = tuple(sorted(rng.sample(range(n), size)))
            j = rng.choice(J)
            steps.append(make_monomial_blowup(n, J, j))
        total = forward_product(steps, n)
        assert old_det(total) == 1
        inv = old_inverse_int(total)
        assert inv is not None
        assert old_mat_mul(total, inv) == identity(n)
        for s in steps:
            N, M = trace_matrix(s), trace_matrix(s, "M")
            assert old_mat_mul(N, M) == identity(n) and old_det(N) == 1


def test_monomial_preservation_through_sequences():
    # a monomial stays a monomial through any monomial sequence
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 4)
        vars_ = tuple(f"u{i}" for i in range(n))
        seq = []
        for _ in range(rng.randint(1, 5)):
            J = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
            seq.append(make_monomial_blowup(n, J, rng.choice(J)))
        e = tuple(rng.randint(0, 6) for _ in range(n))
        m = _path(n, seq).push(MultiPoly.monomial(vars_, e, 3))
        assert len(m.terms) == 1


def test_independence_keeps_free_monomials_free():
    # sequence independent of variable 0: images of variable-0-free
    # monomials stay variable-0-free
    rng = random.Random(29)
    n = 4
    vars_ = tuple(f"u{i}" for i in range(n))
    for _ in range(30):
        seq = []
        for _ in range(rng.randint(1, 5)):
            J = tuple(sorted(rng.sample(range(1, n), rng.randint(2, n - 1))))
            seq.append(make_monomial_blowup(n, J, rng.choice(J)))
        e = (0,) + tuple(rng.randint(0, 5) for _ in range(n - 1))
        m = _path(n, seq).push(MultiPoly.monomial(vars_, e, 1))
        (img_e,) = m.terms
        assert img_e[0] == 0


def test_translation_step_holds_elements_and_encodes_them_in_to_json():
    # X^2 - 2 over Q, then X^2 - t1 over Q(t1): the minimal polynomial is
    # held as elements of the tower before the step, the weight as a Value
    g = ValueGroup(1)
    sqrt2 = QQ.extend("t1", (QQ.from_rational(-2), QQ.zero(), QQ.one()))
    mp = (sqrt2.neg(sqrt2.generator("t1")), sqrt2.zero(), sqrt2.one())
    path = PushPath(Frame(("a", "b"), (g.rational(1), g.rational(0)), frozenset({1}), sqrt2))
    path.translate(1, mp, g.rational(Fraction(5, 2)))
    ts, frame = path.steps[0], path.frame
    assert frame.tower == sqrt2.extend("t2", mp)
    assert frame.names == ("a", "b'") and frame.weights[1] == g.rational(Fraction(5, 2))
    assert ts.to_json()["translations"] == [
        {
            "target": 2,
            "minpoly": [["0", "-1"], ["0", "0"], ["1", "0"]],
            "symbol": "t2",
            "new_name": "b'",
            "new_weight": ["5/2"],
        }
    ]
    path = PushPath(Frame(("a", "b", "c"), (g.rational(1), g.rational(1), g.rational(2))))
    path.blow_up((0, 2))
    header = {
        "vars": ["a", "b", "c"],
        "weights": [{"coords": ["1"]}, {"coords": ["1"]}, {"coords": ["2"]}],
        "units": [],
        "group": {"rank": 1, "ordering": "sqrt-primes", "labels": ["g1"]},
    }
    out = path.to_json((1,))
    assert out == {"header": header, "steps": [path.steps[0].to_json()], "independent_of": [2]}
    assert list(out) == ["header", "steps", "independent_of"]


def test_push_path_merges_monomial_runs():
    # Q-independent weights never tie, so every step is monomial and the
    # whole sequence is one run, each exponent folded through all of it
    rng = random.Random(47)
    n = 3
    g = ValueGroup(n)
    vars_ = tuple(f"u{i}" for i in range(n))
    for _ in range(40):
        frame = Frame(vars_, tuple(g.value([int(i == k) for i in range(n)]) for k in range(n)))
        path = PushPath(frame)
        for _ in range(rng.randint(1, 6)):
            J = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
            path.blow_up(J)
        assert all(s.kind == "monomial" for s in path.steps)
        # a cut inside the run advances through the steps after it only
        for start in (0, rng.randint(0, len(path)), len(path)):
            product = forward_product(path.steps[start:], n)
            for e in identity(n):
                assert path.advance([e], start)[0] == old_mat_vec(product, e)
        f = MultiPoly.build(
            vars_,
            {tuple(rng.randint(0, 4) for _ in range(n)): QQ.from_rational(rng.randint(1, 9))
             for _ in range(rng.randint(1, 6))},
        )
        want = f
        for fr, s in zip(path.frames, path.steps):
            want = push_polynomial_through_step(want, fr, s)
        got = path.push(f)
        assert got == want and list(got.terms) == list(want.terms)


def test_push_path_forward_from_a_cut_with_ties():
    # rank-1 weights tie, so translation-kind steps split the monomial runs;
    # advancing from a cut must still be the product of the steps after it
    rng = random.Random(53)
    g = ValueGroup(1)
    n = 4
    vars_ = tuple(f"u{i}" for i in range(n))
    ties = 0
    for _ in range(60):
        path = PushPath(Frame(vars_, tuple(g.rational(rng.randint(1, 3)) for _ in range(n))))
        for _ in range(rng.randint(1, 7)):
            active = active_indices(path.frame)
            if len(active) < 2:
                break
            J = tuple(sorted(rng.sample(active, rng.randint(2, len(active)))))
            path.blow_up(J)
        ties += any(s.J_times for s in path.steps)
        for start in range(len(path) + 1):
            want = forward_product(path.steps[start:], n)
            for e in identity(n):
                assert path.advance([e], start)[0] == old_mat_vec(want, e)
    assert ties > 10


def _mixed_path(rng):
    """A random path over rank-1 weights, so that weights tie: monomial and
    tie steps on the active columns, and on a unit column a transcendental,
    a degree-1 or a degree-2 translation (a fresh square root each)."""
    n = rng.randint(2, 4)
    weights = tuple(G1.rational(rng.randint(1, 3)) for _ in range(n))
    path = PushPath(Frame(tuple(f"u{i}" for i in range(n)), weights))
    radicands = iter((2, 3, 5, 7, 11, 13))
    for k in range(rng.randint(1, 7)):
        frame, tower = path.frame, path.frame.tower
        active, units = active_indices(frame), sorted(frame.units)
        if units and (len(active) < 2 or rng.random() < 0.4):
            t, kind, name = rng.choice(units), rng.randrange(3), f"x{k}"
            weight = G1.rational(rng.randint(1, 3))
            if kind == 0:
                step = make_translation_step(n, t, None, None, None)
            elif kind == 1:
                c = tower.from_rational(rng.choice((1, -1, 2, Fraction(1, 2))))
                step = make_translation_step(n, t, (tower.neg(c), tower.one()), None, name, weight)
            else:
                mp = (tower.from_rational(-next(radicands)), tower.zero(), tower.one())
                step = make_translation_step(n, t, mp, f"t{tower.depth + 1}", name, weight)
        elif len(active) >= 2:
            J = tuple(sorted(rng.sample(active, rng.randint(2, len(active)))))
            step = build_step_for_weights(n, J, choose_vertex(J, frame.weights), frame.weights)
        else:
            break
        extend_path(path, (step,))
    return path


def _oracle_push(path, f, a, c):
    """f pushed from chart a to chart c: each step's trace matrix N times
    the exponents; an algebraic translation has one column, so its N is the
    identity and the primitive contributes only its residue motion."""
    for k in range(a, c):
        step = path.steps[k]
        f = push_by_matrices(f, (step,))
        if any(t.minpoly is not None for t in step.translation_data):
            f = push_polynomial_through_step(f, path.frames[k], step, path.frames[k + 1])
    return f


def test_push_by_center_matches_trace_matrices_on_every_split():
    rng = random.Random(20261018)
    seen = {"monomial": 0, "tie": 0, "transcendental": 0, "degree 1": 0, "degree 2": 0}
    for _ in range(100):
        path = _mixed_path(rng)
        for s in path.steps:
            items = s.translation_data
            if not items:
                kind = "monomial"
            elif len(s.J) > 1:
                kind = "tie"
            elif items[0].minpoly is None:
                kind = "transcendental"
            else:
                kind = f"degree {len(items[0].minpoly) - 1}"
            seen[kind] += 1
        n = path.frame.n
        for a in range(len(path) + 1):
            e = tuple(rng.randint(0, 5) for _ in range(n))
            assert path.advance([e], a)[0] == old_mat_vec(forward_product(path.steps[a:], n), e)
            frame = path.frames[a]
            f = random_poly(rng, frame.names, max_terms=4, max_exp=3).with_tower(frame.tower)
            zero = MultiPoly(frame.names, {}, frame.tower)
            for c in range(a, len(path) + 1):
                direct = path.push(f, a, c)
                oracle = _oracle_push(path, f, a, c)
                assert direct == oracle
                # traces depend on term order: the runs keep f's
                assert list(direct.terms) == list(oracle.terms)
                # the zero polynomial has no columns to transpose
                pushed = path.push(zero, a, c)
                assert pushed.is_zero() and pushed.tower == path.frames[c].tower
                assert pushed.vars == path.frames[c].names
                for b in range(a, c + 1):
                    assert direct == path.push(path.push(f, a, b), b, c)
    assert min(seen.values()) >= 25, seen


def test_push_folds_tied_blow_ups_into_exponent_runs(monkeypatch):
    """``push`` rebuilds the terms once per maximal run of steps without an
    algebraic item, tied blow-ups and transcendental tags included, and
    makes one Taylor shift per algebraic translation."""
    rng = random.Random(24)
    counts = Counter()

    def counted(name, fn):
        return lambda *a: counts.update([name]) or fn(*a)

    monkeypatch.setattr(framing, "_push_exponents", counted("runs", framing._push_exponents))
    monkeypatch.setattr(framing, "taylor_shift", counted("shifts", framing.taylor_shift))
    folded = 0  # windows where a run goes on past a step that tags a unit
    for _ in range(100):
        path = _mixed_path(rng)
        algebraic = [any(t.minpoly is not None for t in s.translation_data) for s in path.steps]
        for a in range(len(path) + 1):
            f = random_poly(rng, path.frames[a].names, max_terms=3, max_exp=2).with_tower(path.frames[a].tower)
            for c in range(a, len(path) + 1):
                runs = sum(
                    not algebraic[k] and (k == a or algebraic[k - 1]) for k in range(a, c)
                )
                counts.clear()
                path.push(f, a, c)
                assert counts == Counter(runs=runs, shifts=sum(algebraic[a:c]))
                folded += any(
                    path.steps[k].J_times and k + 1 < c and not algebraic[k + 1]
                    for k in range(a, c) if not algebraic[k]
                )
    assert folded > 100


def test_moved_exponents_keep_the_coordinates_reduced(monkeypatch):
    """The sites that only move a reduced polynomial's exponents, rename
    its variables or embed it in a taller tower build the result without
    reducing it again; each result
    equals what the reducing constructor makes of the same coordinates."""
    rng = random.Random(25)
    seen = Counter()
    unchecked = MultiPoly._of_reduced

    def checked(vars_, terms, tower, den):
        f = unchecked(vars_, terms, tower, den)
        seen[sys._getframe(1).f_code.co_name] += 1
        assert f == MultiPoly(vars_, dict(terms), tower, den)
        return f

    monkeypatch.setattr(MultiPoly, "_of_reduced", staticmethod(checked))
    for _ in range(60):
        path = _mixed_path(rng)
        frame = path.frames[0]
        f = random_poly(rng, frame.names, max_terms=4, max_exp=3).with_tower(frame.tower)
        img = path.push(f)
        mono = [min(c) for c in zip(*img.terms)]
        assert split_monomial(img, mono, path.frame)[1] is not None
        wider = tuple(reversed(frame.names)) + ("w",)
        assert f.with_vars(wider).with_vars(frame.names) == f
    assert set(seen) == {"_push_exponents", "push", "_divide_monomial", "with_tower", "with_vars"}
    assert min(seen.values()) >= 20, seen


def test_reprs_name_every_field():
    g = ValueGroup(2)
    v = g.value(["1/2", 3])
    tower = FieldTower((("t1", (Fraction(-2), 0, 1)),))
    item = TranslationItem(1, (Fraction(-2), 0, 1), "t1", "x'", v)
    assert repr(v) == "Value(1/2, 3)"
    assert repr(g) == "ValueGroup(rank=2, labels=())"
    assert repr(tower) == "FieldTower(extensions=(('t1', (-2, 0, 1)),))"
    assert repr(MultiPoly(("x", "y"), {(1, 0): 3, (0, 2): Fraction(1, 2)}, QQ, 4)) == (
        "MultiPoly(vars=('x', 'y'), terms={(1, 0): 6, (0, 2): 1}, "
        "tower=FieldTower(extensions=()), den=8)"
    )
    assert repr(MultiPoly(("x",), {(1,): (1, 2)}, tower, 3)) == (
        "MultiPoly(vars=('x',), terms={(1,): (1, 2)}, "
        "tower=FieldTower(extensions=(('t1', (-2, 0, 1)),)), den=3)"
    )
    item_repr = (
        "TranslationItem(target=1, minpoly=(Fraction(-2, 1), 0, 1), symbol='t1', "
        "new_name=\"x'\", new_weight=Value(1/2, 3))"
    )
    assert repr(item) == item_repr
    assert repr(FramedStep(3, (1,), 1, (item,))) == (
        f"FramedStep(n=3, J=(1,), j=1, translation_data=({item_repr},))"
    )
    assert repr(FramedStep(3, (0, 2), 0)) == "FramedStep(n=3, J=(0, 2), j=0, translation_data=())"


def test_the_push_path_makes_no_fraction(monkeypatch):
    """Between steps an image stays integer coordinates over one
    denominator: pushing it through translations into a tower, and the
    division, expansion and shift kernels, make no Fraction.  Each residue
    theta is tower algebra on one element and is computed once, before
    the count starts."""
    uv = ("u", "x")
    q2 = poly(uv, {(0, 2): 1, (2, 0): -2})  # x^2 - 2u^2: the residue of sqrt 2
    chain = KeyPolyChain(
        rational_spec([1], names=("u",)), "x",
        ((MultiPoly.variable(uv, "x"), G1.rational(1)), (q2, G1.rational(Fraction(5, 2)))),
    )
    path = PushPath(chain.initial_frame())
    monomialize_key_polys(chain, path)
    assert path.frame.tower.depth == 1
    translation_root, roots = framing.translation_root, {}

    def root(item, tower):
        key = (id(item), id(tower))
        if key not in roots:
            roots[key] = translation_root(item, tower)
        return roots[key]

    monkeypatch.setattr(framing, "translation_root", root)
    f = poly(uv, {(0, 5): Fraction(1, 2), (3, 1): Fraction(-2, 3), (1, 0): 7})
    want = path.push(f)
    theta = Fraction(3, 4)
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))
    img = path.push(f)
    q, r = euclid_divide(f, q2, "x")
    digits = q_adic_expansion(f, q2, "x")
    shifted = taylor_shift(f, "x", theta)
    monkeypatch.undo()
    assert made == []
    assert img == want and img.den == 6 and img.tower == path.frame.tower
    assert q * q2 + r == f and len(digits) == 3
    assert shifted.den == 3 * 2**11  # lcm of 6 and 4^5


# -- the step record: M and N copied from one cached identity -------------


def _steps_up_to(n_max: int):
    """Every blow-up with n <= n_max columns, a center J of two or more
    columns, a vertex j in J and each set of tied columns in J minus j;
    then, per n and column, a transcendental and an algebraic translation."""
    sqrt2 = (QQ.from_rational(-2), QQ.zero(), QQ.one())
    for n in range(1, n_max + 1):
        for size in range(2, n + 1):
            for J in combinations(range(n), size):
                for j in J:
                    rest = [i for i in J if i != j]
                    for k in range(len(rest) + 1):
                        for ties in combinations(rest, k):
                            yield FramedStep(n, J, j, tuple(TranslationItem(target=i) for i in ties))
        for c in range(n):
            yield make_translation_step(n, c, None, None, None)
            yield make_translation_step(n, c, sqrt2, "t1", f"x{c}'", G1.rational(Fraction(3, 2)))


def test_step_json_matches_the_row_by_row_record():
    count = 0
    for step in _steps_up_to(5):
        rec = step.to_json()
        # same keys in the same order, so json.dumps writes the same bytes
        assert list(rec.items()) == list(step_record(step).items()), step
        count += 1
    assert count == (4 + 24 + 104 + 400) + 2 * (1 + 2 + 3 + 4 + 5)


def test_step_json_hands_out_no_cached_list():
    for step in _steps_up_to(4):
        first = step.to_json()
        for key in ("M", "N"):
            for row in first[key]:
                row[:] = [7] * len(row)
            first[key].append([9])
        first["D1"].append(0)
        first["D1"][0] = -1
        first["Jx"].append(5)
        assert step.to_json() == step_record(step), step
