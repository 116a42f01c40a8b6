"""Exception types shared across the package."""

from __future__ import annotations


class SymhypError(Exception):
    """Base class for all package errors."""


class GridError(SymhypError):
    """Invalid grid geometry or too few nodes for a stencil."""


class GridMismatchError(SymhypError):
    """Operands sampled on different grids were combined."""


class FieldEvaluationError(SymhypError):
    """A coefficient field or member data is not finite, or squares to a
    norm that is not; names the node or the quantity."""


class AsymmetricFieldError(SymhypError):
    """A matrix declared symmetric violated the sampled-symmetry tolerance."""

    def __init__(self, message: str, defect: float = float("nan")):
        super().__init__(message)
        self.defect = defect


class SingularCoefficientError(SymhypError):
    """The time-direction coefficient matrix is not positive definite at a node."""


class CflViolationError(SymhypError):
    """Requested time step exceeds the stability limit of the explicit scheme."""


class BetaSelectionError(SymhypError):
    """No admissible weight decay rate exists for the given time horizon."""


class ConfigError(SymhypError):
    """Run configuration failed validation; carries every message at once."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class HypothesisRefusal(SymhypError):
    """An estimator refused to run because a structural hypothesis failed.

    Carries the full hypothesis report so callers can surface the witness.
    """

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report
