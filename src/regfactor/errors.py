"""Exception types, the default work budget, and the one rule for numbers."""

from __future__ import annotations

from math import comb
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


def _monomial_scan(variables: int, max_degree, budget, budget_name: str) -> int:
    """The number of nonconstant monomials of degree at most ``max_degree``
    in ``variables`` variables: the bound the oracle's budget caps, not the
    work it does, since its support walk and rounds build far fewer.
    Raises InputError first unless ``max_degree`` and ``budget`` are ints,
    ``max_degree`` at least 1 and ``budget`` at least 0; ``budget_name``
    names the budget's argument."""
    require_ints((max_degree,), "max_degree must be an integer, got {!r}", max_degree)
    require_ints((budget,), budget_name + " must be an integer, got {!r}", budget)
    if max_degree < 1:
        raise InputError("max_degree must be at least 1")
    if budget < 0:
        raise InputError("budget must be at least 0")
    return comb(variables + max_degree, max_degree) - 1 if variables else 0
