"""Framed steps: derived matrices, vertices, weights, composition, paths."""

import dataclasses
import random
from fractions import Fraction

import pytest

from valmono import _linalg, framing
from valmono.errors import InvalidInputError
from valmono.framing import (
    Frame,
    FramedStep,
    TranslationItem,
    PushPath,
    apply_step_to_frame,
    build_step_for_weights,
    choose_vertex,
    compose_sequence,
    make_monomial_blowup,
    make_translation_step,
    push_polynomial_through_step,
    pushforward_weights,
)
from valmono.polyalg import LaurentMonomialMap, MultiPoly, QQ, apply_monomial_map
from valmono.values import ValueGroup


def test_make_monomial_blowup_paper_matrices():
    # n = 2, J = {1,2}, j = 1 (0-based 0): inverse sends u2 -> u2/u1,
    # forward sends u2 -> u1' u2'
    st = make_monomial_blowup(2, (0, 1), 0)
    assert st.inverse.matrix == ((1, -1), (0, 1))
    assert st.forward.matrix == ((1, 1), (0, 1))
    st.check_unimodular()
    assert st.forward.det() == 1


def test_make_monomial_blowup_preconditions():
    bad = [
        (2, (0,), 0),  # |J| < 2
        (3, (1, 1), 1),  # |J| < 2 once repeats are dropped
        (3, (0, 1), 2),  # j not in J
        (2, (0, 2), 0),  # J out of range
        (2, [-1, 0], 0),
    ]
    for n, J, j in bad:
        with pytest.raises(InvalidInputError):
            make_monomial_blowup(n, J, j)


def test_monomial_blowups_are_shared_per_center():
    st = make_monomial_blowup(3, [2, 0, 2], 0)
    assert st == make_monomial_blowup(3, (0, 2), 0)
    assert st.J == (0, 2)


def test_make_monomial_blowup_fixed_variable():
    st = make_monomial_blowup(3, (1, 2), 2)
    # u_1 fixed
    assert st.forward.matrix[0] == (1, 0, 0)
    assert tuple(row[0] for row in st.forward.matrix) == (1, 0, 0)
    assert st.forward.det() == 1


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
    w = (g.value([1, 0]), g.value([0, 1]))
    out = pushforward_weights(w, st)
    assert out[0].coords == (Fraction(1), Fraction(0))
    assert out[1].coords == (Fraction(-1), Fraction(1))  # sqrt2 - 1
    # vertex not minimal -> negative weight
    st_bad = make_monomial_blowup(2, (0, 1), 1)
    with pytest.raises(InvalidInputError):
        pushforward_weights(w, st_bad)


def test_pushforward_ties_become_units():
    g = ValueGroup(1)
    w = [g.rational(1), g.rational(1)]
    st = build_step_for_weights(2, (0, 1), 0, w)
    assert st.kind == "translation" and st.J_times == (1,)
    assert st.n_after == 1
    out = pushforward_weights(w, st)
    assert out[1].is_zero()
    frame = apply_step_to_frame(Frame(("a", "b"), tuple(w)), st)
    assert frame.units == frozenset({1})


def test_compose_sequence():
    # empty -> identity
    assert compose_sequence((), n=3).is_identity()
    # u = u' v', then v' = u'' v'': N2 N1 by hand
    s1 = make_monomial_blowup(2, (0, 1), 1)
    s2 = make_monomial_blowup(2, (0, 1), 0)
    assert s1.forward.matrix == ((1, 0), (1, 1)) and s2.forward.matrix == ((1, 1), (0, 1))
    assert compose_sequence((s1, s2)).matrix == ((2, 1), (1, 1))
    assert compose_sequence((s2, s1)).matrix == ((1, 1), (1, 2))
    with pytest.raises(InvalidInputError):
        compose_sequence((make_translation_step(2, 1, (Fraction(-1), Fraction(1)), None, "b'"),))


def test_a_step_is_its_center():
    # the stored fields are the center and the residue motion; the matrices,
    # the exponent update and the composite are derived from them, checked
    # against the matrix products they replace
    assert [f.name for f in dataclasses.fields(FramedStep)] == ["n", "J", "j", "translation_data"]
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
        total = _linalg.identity(n)
        for s in steps:
            N, M = s.forward.matrix, s.inverse.matrix
            assert _linalg.mat_mul(N, M) == _linalg.identity(n) and s.forward.det() == 1
            e = tuple(rng.randint(0, 9) for _ in range(n))
            assert s.apply_to_exponent(e) == _linalg.mat_vec(N, e)
            assert s.to_json()["N"] == [list(r) for r in N] and s.to_json()["M"] == [list(r) for r in M]
            total = _linalg.mat_mul(N, total)
        # the row-update composite under compose_sequence and PushPath.forward
        assert framing._compose(steps, n).matrix == total
        if all(s.kind == "monomial" for s in steps):
            assert compose_sequence(tuple(steps), n).matrix == total


def test_compose_independent_block():
    # blow-ups only among variables 1 and 2 leave variable 0 as an
    # identity row and column
    g = ValueGroup(1)
    path = PushPath(Frame(("a", "b", "c"), (g.rational(1), g.rational(2), g.rational(3))))
    path.append(make_monomial_blowup(3, (1, 2), 1))
    path.append(make_monomial_blowup(3, (1, 2), 2))
    path.claim_independence((0,))
    assert path.independence_set == (0,)
    total = compose_sequence(tuple(path.steps))
    assert total.matrix[0] == (1, 0, 0)
    assert tuple(row[0] for row in total.matrix) == (1, 0, 0)
    assert total.det() == 1


def test_sequence_independence_enforced():
    g = ValueGroup(1)
    path = PushPath(Frame(("a", "b", "c"), (g.rational(1), g.rational(2), g.rational(3))))
    path.append(make_monomial_blowup(3, (0, 1), 0))
    with pytest.raises(InvalidInputError, match="touches its independence set"):
        path.claim_independence((0,))
    assert path.independence_set is None
    path.claim_independence((2,))
    assert path.independence_set == (2,)


def test_push_path_rejects_a_step_of_another_column_count():
    g = ValueGroup(1)
    path = PushPath(Frame(("a", "b", "c"), (g.rational(1), g.rational(2), g.rational(3))))
    path.append(make_monomial_blowup(3, (0, 1), 0))
    for n in (2, 4):
        with pytest.raises(InvalidInputError, match="different column counts"):
            path.append(make_monomial_blowup(n, (0, 1), 0))
    assert len(path) == 1 and len(path.frames) == 2


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
        total = compose_sequence(tuple(steps))
        assert total.det() == 1
        inv = total.inverse()
        assert inv is not None
        assert _linalg.mat_mul(total.matrix, inv.matrix) == _linalg.identity(n)
        for s in steps:
            s.check_unimodular()


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
        m = MultiPoly.monomial(vars_, e, 3)
        for s in seq:
            m = apply_monomial_map(m, s.forward)
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
        m = MultiPoly.monomial(vars_, e, 1)
        for s in seq:
            m = apply_monomial_map(m, s.forward)
        (img_e,) = m.terms
        assert img_e[0] == 0


def test_translation_step_holds_elements_and_encodes_them_in_to_json():
    # X^2 - 2 over Q, then X^2 - t1 over Q(t1): the minimal polynomial is
    # held as elements of the tower before the step, the weight as a Value
    g = ValueGroup(1)
    sqrt2 = QQ.extend("t1", (QQ.from_rational(-2), QQ.zero(), QQ.one()))
    mp = (sqrt2.neg(sqrt2.generator("t1")), sqrt2.zero(), sqrt2.one())
    ts = make_translation_step(2, 1, mp, "t2", "b'", g.rational(Fraction(5, 2)))
    before = Frame(("a", "b"), (g.rational(1), g.zero()), frozenset({1}), sqrt2)
    frame = apply_step_to_frame(before, ts)
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
    path.append(make_monomial_blowup(3, (0, 2), 0))
    path.claim_independence((1,))
    assert path.to_json() == {"steps": [path.steps[0].to_json()], "independent_of": [2]}


def test_push_path_merges_monomial_runs():
    # Q-independent weights never tie, so every step is monomial and the
    # whole sequence is one run, applied as one composite matrix
    rng = random.Random(47)
    n = 3
    g = ValueGroup(n)
    vars_ = tuple(f"u{i}" for i in range(n))
    for _ in range(40):
        frame = Frame(vars_, tuple(g.value([int(i == k) for i in range(n)]) for k in range(n)))
        path = PushPath(frame)
        for _ in range(rng.randint(1, 6)):
            J = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
            path.append(build_step_for_weights(n, J, choose_vertex(J, path.frame.weights), path.frame.weights))
        assert all(s.kind == "monomial" for s in path.steps)
        assert path.forward() == compose_sequence(tuple(path.steps))
        # a cut inside the run composes only the steps after it
        for start in (rng.randint(0, len(path)), len(path)):
            assert path.forward(start) == compose_sequence(tuple(path.steps[start:]), n)
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
    # forward(start) must still be the product of the steps after the cut
    rng = random.Random(53)
    g = ValueGroup(1)
    n = 4
    vars_ = tuple(f"u{i}" for i in range(n))
    ties = 0
    for _ in range(60):
        path = PushPath(Frame(vars_, tuple(g.rational(rng.randint(1, 3)) for _ in range(n))))
        for _ in range(rng.randint(1, 7)):
            active = path.frame.active_indices()
            if len(active) < 2:
                break
            J = tuple(sorted(rng.sample(active, rng.randint(2, len(active)))))
            w = path.frame.weights
            path.append(build_step_for_weights(n, J, choose_vertex(J, w), w))
        ties += any(s.J_times for s in path.steps)
        for start in range(len(path) + 1):
            want = _linalg.identity(n)
            for s in path.steps[start:]:
                want = _linalg.mat_mul(s.forward.matrix, want)
            assert path.forward(start) == LaurentMonomialMap(want)
    assert ties > 10
