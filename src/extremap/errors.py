"""Exception types shared across the package.

The CLI maps these onto exit codes: usage/config problems exit 2,
checked-property violations exit 1, resource budgets exit 3.
"""

from __future__ import annotations


class ExtremapError(Exception):
    """Base class for package errors."""


class RadiusRangeError(ExtremapError):
    """Ball radius outside (0, 1/2)."""


class CapExceededError(ExtremapError):
    """Requested iteration depth exceeds the configured cap."""


class ResourceBudgetError(ExtremapError):
    """A computation would exceed a resource budget (exit 3)."""


class ComponentBudgetError(ResourceBudgetError):
    """An exact preimage, or the Markov partition of
    ``events.spectral_escape_rate``, would exceed its map's component
    budget; the caller should fall back to Monte Carlo.
    """


class PeriodUndecidedError(ExtremapError):
    """Period detection inconclusive at the cap; caller must supply q."""


class InfeasibleError(ExtremapError):
    """No feasible blocking parameters (or degenerate configuration)."""


class ConvergenceError(ExtremapError):
    """An iterative numerical routine failed to converge."""
