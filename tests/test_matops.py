"""Matrix utility tests: reconstruction and eigenvalue floor."""

import numpy as np
import pytest

from mdlasso.errors import SingularMatrixError
from mdlasso.matops import min_eigenvalue, sqrt_sym
from mdlasso.verify import random_spd


class TestSqrtSym:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_sym(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_sym(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-13)

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(1)
        S = random_spd(rng, 5)
        R = sqrt_sym(S)
        # oracle: reconstruct by direct multiplication
        err = np.linalg.norm(R @ R - S) / np.linalg.norm(S)
        assert err <= 1e-10
        np.testing.assert_allclose(R, R.T, atol=1e-13)
        assert min_eigenvalue(R) > 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sqrt_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_near_singular(self):
        S = np.diag([1.0, 1e-15])
        with pytest.raises(SingularMatrixError):
            sqrt_sym(S)

    def test_rejects_negative_definite(self):
        with pytest.raises(SingularMatrixError):
            sqrt_sym(-np.eye(2))


class TestMinEigenvalue:
    def test_diagonal(self):
        assert min_eigenvalue(np.diag([3.0, -1.0])) == pytest.approx(-1.0)

    def test_identity(self):
        assert min_eigenvalue(np.eye(5)) == pytest.approx(1.0)

    def test_against_full_eigendecomposition(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        S = (A + A.T) / 2
        # oracle: full eigendecomposition
        want = float(np.min(np.linalg.eigvals(S).real))
        spectral = float(np.max(np.abs(np.linalg.eigvals(S))))
        assert abs(min_eigenvalue(S) - want) <= 1e-9 * spectral

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))
