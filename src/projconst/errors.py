"""Exception taxonomy shared by all modules.

Each type owns its CLI exit code and stderr label, ``exit_code`` and
``label``: PreconditionError / InvariantViolation and friends are usage
or input errors (1, "error"), ResourceExhausted is an oversized request
or a blown resource budget (3, "resource error").
"""

from __future__ import annotations


class ProjconstError(Exception):
    """Base class for all errors raised by this package."""
    exit_code, label = 1, "error"


class PreconditionError(ProjconstError):
    """An operation was called with inputs violating its preconditions."""


class InvariantViolation(ProjconstError):
    """A constructed value failed one of its declared invariants.

    ``invariant`` names the failed invariant, ``violation`` is the measured
    magnitude of the worst failure (when meaningful).
    """

    def __init__(self, invariant: str, violation: float | None = None,
                 detail: str = ""):
        self.invariant = invariant
        self.violation = violation
        msg = f"invariant violated: {invariant}"
        if violation is not None:
            msg += f" (violation {violation:.3e})"
        if detail:
            msg += f" — {detail}"
        super().__init__(msg)


class ResourceExhausted(ProjconstError):
    """A request over the entry budget, or a bounded scan or cap run out."""
    exit_code, label = 3, "resource error"


class NumericalError(ProjconstError):
    """An iterative numerical routine failed to converge or lost accuracy."""


class WitnessNormalizationError(ProjconstError):
    """A trace-duality witness fails the unit nuclear-norm requirement."""


class WitnessConstraintError(ProjconstError):
    """A trace-duality witness fails the commutation constraint AP = PAP."""
