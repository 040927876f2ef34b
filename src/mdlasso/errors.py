"""Exception types and the parameter rules shared across the package (the
rule for seeds and stream ids is ``seeding.require_id``)."""

import math
import operator


class MdlassoError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrixError(MdlassoError, ValueError):
    """A matrix is singular beyond the clamp threshold."""


class InvalidOrderError(MdlassoError, ValueError):
    """A divergence order or (order, beta) pair violates its admissible range."""


class InvalidCertificateError(MdlassoError, ValueError):
    """Bound inputs do not satisfy the conditions the bound requires."""


class InsufficientAcceptanceError(MdlassoError, RuntimeError):
    """Rejection sampling accepted too few draws to form an estimate."""


class NumericalFailureError(MdlassoError, RuntimeError):
    """An internal numerical invariant failed (overflow/underflow handling bug)."""


class ConfigError(MdlassoError, ValueError):
    """A configuration document or override is malformed or out of range."""


def require_count(name: str, value: int, minimum: int = 1) -> int:
    """``value`` as an int of at least ``minimum``: ``TypeError`` for a
    float, even an integral one, ``ValueError`` for a smaller int."""
    value = operator.index(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def require_unit_interval(name: str, value: float) -> None:
    """``ValueError`` unless 0 < value < 1 (a NaN fails)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def require_positive(name: str, value: float) -> float:
    """``value`` as a float if 0 < value < inf, else ``ValueError``."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)
