"""Exact-arithmetic framed blow-up sequences, key-polynomial chains and
monomialization, with replayable JSON traces."""

__version__ = "0.1.0"

from .values import Value, ValueGroup, compare, min_integer_multiple_in_lattice, value_of_exponent
from .polyalg import (
    FieldTower,
    MultiPoly,
    QQ,
    euclid_divide,
    q_adic_expansion,
    taylor_shift,
)
from .framing import (
    Frame,
    FramedStep,
    PushPath,
)
from .game import (
    MonomialValuationSpec,
    monomialize_nondegenerate,
    principalize_exponents,
    run_pair_descent,
)
from .keypoly import (
    KeyPolyChain,
    StandardExpansion,
    Truncation,
    next_key_char0,
    truncate,
    truncated_valuation,
    validate_chain,
)
from .unifseq import (
    UniformizingProblem,
    UniformizingResult,
    elementary_uniformizing_sequence,
    monomialize_key_polys,
    monomialize_polynomial,
)
