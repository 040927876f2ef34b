"""Exception types and the parameter rules shared across the package (the
rule for seeds and stream ids is ``seeding.require_id``)."""

import math
import operator
from typing import Optional

import numpy as np


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


def require_vector(name: str, value, size: Optional[int] = None) -> np.ndarray:
    """``value`` as a contiguous 1-D float64 array (a view of ``value`` when
    it is one already) of ``size`` entries, or of at least one when ``size``
    is None, each of them finite; else ``ValueError``."""
    v = np.asarray(value, dtype=np.float64).ravel()
    if (v.shape[0] != size) if size is not None else not v.shape[0]:
        want = ">= 1" if size is None else size
        raise ValueError(f"{name} must have length {want}, got {v.shape[0]}")
    finite = np.isfinite(v)
    if np.count_nonzero(finite) != v.shape[0]:  # ndarray.all takes longer
        j = int(finite.argmin())
        raise ValueError(f"{name} must be finite, got {v[j]} at index {j}")
    return v


def require_weights(name: str, value) -> np.ndarray:
    """``require_vector``'s array, each of whose entries is also positive."""
    w = require_vector(name, value)
    positive = w > 0.0
    if np.count_nonzero(positive) != w.shape[0]:
        j = int(positive.argmin())
        raise ValueError(f"{name} entries must be positive, got {w[j]} at "
                         f"index {j}")
    return w
