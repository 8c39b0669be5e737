"""Exception hierarchy shared by every module.

Each error carries a short machine-readable ``code`` used in traces and by
the CLI exit-code contract.  A message that echoes an input value does so
through ``quote``, which keeps it short.
"""

from __future__ import annotations

# Messages quote at most this many characters of an input value.
QUOTE_LIMIT = 60


def quote(value) -> str:
    """``repr(value)`` for a message, cut after ``QUOTE_LIMIT`` characters
    and marked with ``…`` when longer, so that a message stays short
    whatever the input holds."""
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "…"


class ValmonoError(Exception):
    """Base class; ``code`` is stable across versions, the message is not."""

    code = "error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class GroupMismatchError(ValmonoError):
    code = "group mismatch"


class NotInDivisibleHullError(ValmonoError):
    code = "not in divisible hull"


class DegenerateBasisError(ValmonoError):
    code = "degenerate basis"


class NonMonicDivisorError(ValmonoError):
    code = "non-monic divisor"


class ReducibleDefinerError(ValmonoError):
    """Raised lazily when tower arithmetic uncovers a reducible definer."""

    code = "reducible definer"


class ZeroPolynomialError(ValmonoError):
    code = "zero polynomial has no value"


class PositiveWeightError(ValmonoError):
    code = "weights must be positive"


class UnnormalizedLeadingCoefficientError(ValmonoError):
    code = "unnormalized leading coefficient"


class StepBudgetExceededError(ValmonoError):
    code = "step budget exceeded"


class RequiresCompletionError(ValmonoError):
    """The run reached a state that needs formal-series units."""

    code = "requires completion"


class InvalidInputError(ValmonoError):
    """Structurally valid JSON whose content violates an operation's
    precondition (bad subsets, dependent bases, invalid chains, ...)."""

    code = "invalid input"


class SchemaError(ValmonoError):
    """Malformed input file: not JSON, missing fields, wrong types."""

    code = "schema error"


class TraceMismatchError(ValmonoError):
    """A replay that differs from its trace; ``path`` is the JSON path of
    the first differing field, such as ``steps[3].J[1]``."""

    code = "trace mismatch"

    def __init__(self, step: int, path: str, message: str = ""):
        message = message or f"trace mismatch at step {step}"
        super().__init__(f"{message}, first difference at {path}")
        self.step = step
        self.path = path
