"""Exception types shared across the package, and its one integer rule and one real rule
(:func:`_integer`, :func:`_real`): a str, bytes or a bool is no number, and a real number is
in float range; each refuses a value with a :class:`ConfigError` naming its field."""

from __future__ import annotations

import numbers
import operator


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


def _integer(value, field: str) -> int:
    """``value`` as an int if it is an integer but no bool, else a :class:`ConfigError`."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{field} must be an integer, got {value!r}", field=field)


def _real(value, field: str) -> float:
    """``value`` as a float if it is a real number but no bool, else a :class:`ConfigError`."""
    cause = None
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError as exc:  # an integer past float range: the error's __cause__
            cause = exc
    raise ConfigError(f"{field} must be a real number in float range, got {value!r}",
                      field=field) from cause
