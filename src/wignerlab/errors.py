"""Exception types shared across the package."""

from __future__ import annotations


class WignerLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidDistributionError(WignerLabError, ValueError):
    """Entry-distribution parameters violate mean/variance/probability constraints."""


class UnsupportedCFError(WignerLabError, ValueError):
    """No closed-form characteristic function is available for this distribution."""


class CoverageError(WignerLabError, ValueError):
    """A tabulated test function does not cover the requested support."""


class ContractError(WignerLabError, ValueError):
    """An operation was called outside its stated preconditions."""


class InconsistencyError(WignerLabError, ValueError):
    """Inputs are mutually inconsistent (e.g. a negative limiting variance)."""


class ConfigError(WignerLabError, ValueError):
    """Experiment configuration failed validation.

    `field` carries the dotted path of the offending entry when known.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class NumericFailureError(WignerLabError, RuntimeError):
    """A numerical routine failed to converge.

    Carries enough provenance (seed, replica) to regenerate the offending input.
    """

    def __init__(self, message: str, seed: int | None = None, replica: int | None = None):
        super().__init__(message)
        self.seed = seed
        self.replica = replica
