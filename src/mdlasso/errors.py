"""Exception types shared across the package."""


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
