"""Exception types shared across the package."""

from __future__ import annotations


class PolalignError(Exception):
    """Base class for all package-specific errors."""


class InsufficientCountsError(PolalignError):
    """Raised when detection counts cannot support a reconstruction.

    Attributes
    ----------
    basis : str or None
        Name of the measurement basis ("Z", "X", "Y") that has no counts,
        when the failure is basis-specific.
    """

    def __init__(self, message: str, *, basis: str | None = None):
        super().__init__(message)
        self.basis = basis


class FitError(PolalignError):
    """Raised when a power-law fit is impossible.

    Attributes
    ----------
    regressor : str or None
        Name of the degenerate regressor ("n" or "fs"), if that is the cause.
    """

    def __init__(self, message: str, *, regressor: str | None = None):
        super().__init__(message)
        self.regressor = regressor


class SweepError(PolalignError):
    """Raised when a sweep cell exceeds the tolerated trial-failure rate."""


class ConfigError(PolalignError, ValueError):
    """Raised when a configuration value is out of range; ``field`` names its field."""

    def __init__(self, message: str, *, field: str):
        super().__init__(message)
        self.field = field


class SchemaError(PolalignError):
    """Raised when a count file does not match the expected schema."""
