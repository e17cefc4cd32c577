"""Exception types, the default work budget, and the one rule for numbers."""

from __future__ import annotations

from typing import Iterable

# The budget of every budgeted call (oracle monomials, extremal-scan specs)
# and of the CLI's --budget flag.
DEFAULT_BUDGET = 100000

_INT = frozenset({int})


class RegFactorError(Exception):
    """Base class for every error raised by this package."""


class InputError(RegFactorError):
    """Invalid user-supplied data: bad roots, malformed files, bad arguments."""


class ConstructionError(RegFactorError):
    """A structural invariant failed while assembling derived data.

    This signals a violation of the model (or a bug), never a user mistake.
    """


class BudgetError(RegFactorError):
    """An enumeration or solve exceeded its configured resource budget.

    ``partial`` holds whatever was computed before the budget ran out; it is
    flagged invalid and must not be treated as a complete answer.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = [] if partial is None else partial
        self.valid = False


def require_ints(values: Iterable, message: str, *args) -> None:
    """Raise InputError(``message.format(*args)``) unless every one of
    ``values`` is an ``int``; a bool, a float or a rational is not one."""
    if not set(map(type, values)) <= _INT:
        raise InputError(message.format(*args))
