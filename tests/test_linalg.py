import numpy as np
import pytest

from rdgalerkin.linalg import SingularMatrixError, condition_estimate, lu_solve


class TestLuSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 0.5])
        x = lu_solve(np.eye(3), b)
        assert np.array_equal(x, b)

    def test_diagonal(self):
        A = np.diag([2.0, 4.0, -0.5])
        b = np.array([2.0, 2.0, 1.0])
        assert lu_solve(A, b) == pytest.approx([1.0, 0.5, -2.0], rel=1e-14)

    def test_random_residual(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((14, 14))
        b = rng.standard_normal(14)
        x = lu_solve(A, b)
        resid = np.abs(A @ x - b).max()
        assert resid <= 1e-9 * (1.0 + np.abs(b).max())

    def test_missing_rhs_raises(self):
        with pytest.raises(TypeError):
            lu_solve(np.eye(2))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_reports_pivot(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as exc:
            lu_solve(A, np.array([1.0, 1.0]))
        assert exc.value.pivot_index == 1
        assert abs(exc.value.pivot_value) < 1e-12

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_scaled_near_singular_still_detected(self):
        A = 1e8 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularMatrixError):
            lu_solve(A, np.array([1.0, 0.0]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            lu_solve(np.ones((2, 3)), np.ones(2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            lu_solve(np.eye(3), np.ones(2))

    def test_rejects_nan(self):
        A = np.eye(2)
        A[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            lu_solve(A, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rhs(self, bad):
        b = np.ones(2)
        b[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            lu_solve(np.eye(2), b)

    def test_rejects_inf_in_matrix(self):
        A = np.eye(2)
        A[1, 0] = -np.inf
        with pytest.raises(ValueError, match="non-finite"):
            lu_solve(A, np.ones(2))


class TestFactorizationIdentity:
    def test_palu(self):
        # the solver is a thin wrapper over LAPACK getrf; verify PA = LU holds
        import scipy.linalg

        rng = np.random.default_rng(3)
        A = rng.standard_normal((9, 9))
        P, L, U = scipy.linalg.lu(A)
        assert np.abs(P @ L @ U - A).max() <= 1e-10 * np.abs(A).max()


class TestConditionEstimate:
    def test_identity_is_one(self):
        assert condition_estimate(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_estimate(np.diag([1.0, 100.0])) == pytest.approx(100.0)

    def test_exceeds_two_norm_bound(self):
        rng = np.random.default_rng(19)
        A = rng.standard_normal((8, 8)) + 4 * np.eye(8)
        kappa2 = np.linalg.cond(A, 2)
        # inf-norm condition number of an n x n matrix is within n of kappa_2
        assert condition_estimate(A) >= kappa2 / 8.0
