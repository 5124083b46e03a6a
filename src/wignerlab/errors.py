"""Exception types shared across the package."""

from __future__ import annotations


class WignerLabError(Exception):
    """Base class for all package-specific errors."""


class ContractError(WignerLabError, ValueError):
    """An operation was called outside its stated preconditions: invalid entry-law or
    ensemble parameters, a law with no closed-form CF, or a tabulated phi short of the support."""


class ConfigError(WignerLabError, ValueError):
    """Experiment configuration failed validation.

    `field` carries the dotted path of the offending entry when known.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class NumericFailureError(WignerLabError, RuntimeError):
    """A numerical routine failed to converge.

    The message names enough provenance (root seed, replica) to regenerate the offending input.
    """
