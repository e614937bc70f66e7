"""Exception types shared across the package, and the node-budget check
that raises ``BudgetExceededError``."""

from __future__ import annotations

import os

from . import bignum

DEFAULT_NODE_BUDGET = 10**6
BUDGET_ENV_VAR = "OCASYNC_BUDGET"


class InputError(ValueError):
    """Malformed or out-of-range input: the command line reports it with
    exit code 1.  A plain ``ValueError`` is a bug inside the library."""


class OcaSyntaxError(InputError):
    """Malformed automaton description; carries the offending position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.message = message
        self.line = line
        self.column = column


class FormulaSyntaxError(InputError):
    """Malformed formula text; carries position and the expected token set."""

    def __init__(self, message: str, line: int, column: int, expected: frozenset[str] = frozenset()):
        loc = f"{line}:{column}: {message}"
        if expected:
            loc += " (expected one of: " + ", ".join(sorted(expected)) + ")"
        super().__init__(loc)
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected


class UnknownNameError(KeyError, InputError):
    """A state or corpus automaton named in the input does not exist.

    A ``KeyError`` for lookups, and an ``InputError`` so the command line
    reports it as malformed input.
    """


class UncoveredOperatorError(InputError):
    """The constant recursion has no case for the operator (UE)."""


class BudgetExceededError(RuntimeError):
    """A resource budget (node count, step cap) was exhausted before a verdict.

    Distinct from a negative verdict: the question is left open, not answered.
    """

    def __init__(self, message: str, *, required: object = None, budget: object = None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class StepCapExceededError(BudgetExceededError):
    """A level-set iteration hit its step cap; carries the partial horizon."""

    def __init__(self, message: str, *, partial_horizon: int, budget: int):
        super().__init__(message, required=None, budget=budget)
        self.partial_horizon = partial_horizon


def environment_budget() -> int:
    """``OCASYNC_BUDGET``, or 10^6 when it is unset or empty; any value but a
    non-negative integer is an ``InputError``."""
    text = os.environ.get(BUDGET_ENV_VAR)
    if not text:
        return DEFAULT_NODE_BUDGET
    try:
        budget = int(text)
        if budget >= 0:
            return budget
    except ValueError:
        pass
    raise InputError(f"{BUDGET_ENV_VAR} must be a non-negative integer, not {text!r}")


def check_budget(
    what: str, required: bignum.Number, unit: str, budget: int | None = None
) -> None:
    """Raise ``BudgetExceededError`` before ``required`` units go over ``budget``
    (default ``OCASYNC_BUDGET``, else 10^6); a symbolic ``required`` always does."""
    if budget is None:
        budget = environment_budget()
    if bignum.is_symbolic(required) or required > budget:
        needed = bignum.to_jsonable(required)
        raise BudgetExceededError(
            f"{what} {needed} {unit}, over the budget of {budget}",
            required=needed, budget=budget,
        )
