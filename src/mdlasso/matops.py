"""Symmetric-matrix utilities: square root and eigenvalue floor.

All routines operate on plain float64 ndarrays. Inputs expected to be
symmetric are checked to a relative tolerance of 1e-12 and symmetrized as
(S + S^T)/2 before any decomposition, which guards against accumulation
noise without masking genuinely asymmetric inputs.
"""

import numpy as np

from .errors import SingularMatrixError

SYMMETRY_RTOL = 1e-12
EIGENVALUE_CLAMP_RTOL = 1e-12


def check_symmetric(S: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate symmetry to relative tolerance and return the symmetrized matrix.

    Raises
    ------
    ValueError
        If ``S`` is not square or deviates from its transpose by more than
        ``SYMMETRY_RTOL`` relative to its largest entry.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {S.shape}")
    scale = float(np.max(np.abs(S))) if S.size else 0.0
    dev = float(np.max(np.abs(S - S.T))) if S.size else 0.0
    if dev > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(f"{name} is not symmetric: max asymmetry {dev:.3e} "
                         f"exceeds {SYMMETRY_RTOL:.0e} relative tolerance")
    return (S + S.T) / 2.0


def sqrt_sym(S: np.ndarray) -> np.ndarray:
    """Symmetric square root R of a positive definite matrix, R @ R = S.

    Computed by symmetric eigendecomposition. Eigenvalues at or below
    ``EIGENVALUE_CLAMP_RTOL`` times the largest eigenvalue are treated as
    numerically singular and reported rather than silently clamped, since
    every consumer of this routine requires a non-singular covariance.

    Raises
    ------
    ValueError
        If ``S`` is not symmetric.
    SingularMatrixError
        If any eigenvalue falls at or below the clamp threshold.
    """
    A = check_symmetric(S, "sqrt_sym input")
    w, V = np.linalg.eigh(A)
    w_max = float(w[-1])
    if w_max <= 0.0 or float(w[0]) <= EIGENVALUE_CLAMP_RTOL * w_max:
        raise SingularMatrixError(
            f"matrix is numerically singular: min eigenvalue {w[0]:.3e}, "
            f"max eigenvalue {w_max:.3e}")
    R = (V * np.sqrt(w)) @ V.T
    return (R + R.T) / 2.0


def min_eigenvalue(S: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    A = check_symmetric(S, "min_eigenvalue input")
    return float(np.linalg.eigvalsh(A)[0])
