"""The README's library calls: its Python example runs as written, and the
input checks that only a documented library call reaches raise as stated."""

import re
from pathlib import Path

import pytest

from valmono.errors import (
    DegenerateBasisError,
    GroupMismatchError,
    InvalidInputError,
    NonMonicDivisorError,
)
from valmono.framing import Frame, PushPath
from valmono.game import MonomialValuationSpec, monomialize_nondegenerate
from valmono.keypoly import KeyPolyChain, truncate
from valmono.polyalg import QQ, FieldTower, MultiPoly, euclid_divide
from valmono.values import ValueGroup, min_integer_multiple_in_lattice, value_of_exponent

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope: dict = {}
    exec(blocks[0], scope)
    res = scope["res"]
    # image(Q) = w1'^6 * z^3 * wn', with wn' = z - 1 for the residue X - 1
    assert res.witness["exact"] is True
    assert res.witness["monomial_exponent"] == [6, 3]
    assert res.new_var == "wn'"


G1, G2 = ValueGroup(1), ValueGroup(2)
SQRT2 = QQ.extend("s", (-2, 0, 1))
X = MultiPoly.variable(("x",), "x")


def _nondegenerate_over_other_variables():
    spec = MonomialValuationSpec(("u1", "u2"), (G1.value([1]), G1.value([2])))
    monomialize_nondegenerate(MultiPoly.variable(("u1", "v"), "v"), PushPath(spec.frame()))


# (call, exception type, message) for each check of a library input that
# ``trace`` or the CLI never hands on to it: a README-documented call alone
# reaches these.
LIBRARY_CHECKS = [
    # tower construction
    (lambda: FieldTower((("s", (-2, 0, 1)), ("s", ((-3, 0), (0, 0), (1, 0))))),
     InvalidInputError, "tower symbols must be distinct"),
    (lambda: FieldTower((("s", (1,)),)), InvalidInputError, "definer of s must have degree >= 1"),
    (lambda: QQ.extend("s", (1, 2)), InvalidInputError, "definer must be monic"),
    (lambda: QQ.generator("t"), InvalidInputError, "unknown tower symbol 't'"),
    # tower inverses
    (lambda: QQ.inv(0), ZeroDivisionError, "inverse of zero"),
    (lambda: SQRT2.inv((0, 0)), ZeroDivisionError, "inverse of zero"),
    # polynomials
    (lambda: MultiPoly(("x",), {(1,): 1}, QQ, den=0), InvalidInputError,
     "denominator must be nonzero"),
    # ``trace._poly`` makes the same exponent check before it builds
    (lambda: MultiPoly.build(("x",), [((1, 0), 1)]), InvalidInputError,
     "exponent length must match the variable count"),
    (lambda: MultiPoly.build(("x",), [((-1,), 1)]), InvalidInputError,
     "exponents must be nonnegative"),
    (lambda: MultiPoly.variable(("x",), "y"), InvalidInputError, "unknown variable 'y'"),
    (lambda: X.var_index("y"), InvalidInputError, "unknown variable 'y'"),
    (lambda: X + MultiPoly.variable(("y",), "y"), InvalidInputError,
     "polynomials live in different rings"),
    (lambda: X.with_tower(SQRT2).with_tower(QQ.extend("r", (-3, 0, 1))), InvalidInputError,
     "target tower does not extend the current one"),
    (lambda: euclid_divide(X, X - X, "x"), NonMonicDivisorError,
     "non-monic divisor: zero divisor"),
    # values
    (lambda: value_of_exponent((1, 2), (G1.value([1]),)), InvalidInputError,
     "exponent length must match the number of weights"),
    (lambda: value_of_exponent((), ()), InvalidInputError, "at least one weight is required"),
    (lambda: min_integer_multiple_in_lattice(G1.value([1]), []), DegenerateBasisError,
     "degenerate basis"),
    (lambda: Frame(("u", "v"), (G1.value([1]), G2.value([1, 0]))), GroupMismatchError,
     "group mismatch"),
    # the descent game
    (_nondegenerate_over_other_variables, InvalidInputError,
     "polynomial variables must match the frame"),
]


@pytest.mark.parametrize(
    "call, kind, message", LIBRARY_CHECKS,
    ids=[re.sub(r"\W+", "-", m).strip("-") for _, _, m in LIBRARY_CHECKS],
)
def test_each_library_input_check_raises_its_message(call, kind, message):
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message


def test_an_expansion_does_not_reassemble_a_polynomial_of_another_ring():
    ux = ("u", "x")
    x = MultiPoly.variable(ux, "x")
    chain = KeyPolyChain(MonomialValuationSpec(("u",), (G1.value([1]),)), "x", ((x, G1.value(["3/2"])),))
    expansion = truncate(x * x, chain, 1).expansion
    assert expansion.reassembles(x * x)
    xu = MultiPoly.variable(("x", "u"), "x")
    assert not expansion.reassembles(xu * xu)
    assert not expansion.reassembles((x * x).with_tower(SQRT2))


def test_the_generator_of_a_degree_one_definer_is_its_root():
    # X - 3 defines theta = 3
    assert QQ.extend("s", (-3, 1)).generator("s") == (3,)
