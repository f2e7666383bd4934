"""Exception types shared across the package, and the type checks that raise them."""

from __future__ import annotations

import math
import numbers

# the I-JSON interoperable integer range (RFC 7493), the bound on every
# integer a document or flag gives: counts, seeds and layer numbers
MAX_INT = 2**53 - 1


class SnnDetectError(Exception):
    """Base class for all package errors."""


class ConfigError(SnnDetectError, ValueError):
    """Invalid configuration or parameter combination."""


class DataError(SnnDetectError, ValueError):
    """Malformed or inconsistent input data."""


class NumericError(SnnDetectError, RuntimeError):
    """A numerical procedure failed despite valid inputs."""


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Raise ConfigError unless `value` is an integer (not a bool) within
    +-MAX_INT, and at least `minimum` when one is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if abs(value) > MAX_INT:
        raise ConfigError(f"{name} must lie within +-{MAX_INT} (2**53 - 1)")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value) -> None:
    """Raise ConfigError unless `value` is a finite real number (not a bool)
    within the float range."""
    try:
        ok = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
