import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rdgalerkin
from rdgalerkin import stepper
from rdgalerkin.basis import BasisSpec
from rdgalerkin.linalg import SingularMatrixError, condition_estimate, lu_solve
from rdgalerkin.problems import builtin_tp1


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

    def test_singular_reports_rcond(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as exc:
            lu_solve(A, np.array([1.0, 1.0]))
        assert exc.value.rcond < 1e-13

    def test_scaled_near_singular_still_detected(self):
        A = 1e8 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularMatrixError):
            lu_solve(A, np.array([1.0, 0.0]))

    def test_ill_conditioned_with_unit_pivots_detected(self):
        # every LU pivot is 1, yet kappa_1 = n 2^(n-1) ~ 3.5e19: a pivot
        # test passes this matrix, the condition bound must not
        n = 60
        A = np.eye(n) - np.triu(np.ones((n, n)), 1)
        with pytest.raises(SingularMatrixError) as exc:
            lu_solve(A, np.ones(n))
        assert exc.value.rcond < 1e-13

    def test_well_conditioned_not_flagged(self):
        # rcond of a diagonal matrix is min/max of its entries: 1e-12 here,
        # above the floor, so the bound (never below the true rcond) passes it
        A = np.diag([1.0, 1e-12])
        assert lu_solve(A, np.ones(2)) == pytest.approx([1.0, 1e12], rel=1e-14)

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


def initial_mass_matrix(degree):
    """tp1's mass matrix on the rule of the initial projection."""
    problem = builtin_tp1()
    basis = BasisSpec(problem.lower, problem.upper, degree)
    config = stepper.SolverConfig(dt=0.1, t_end=0.2)
    return stepper.discretize(problem, basis, config, boost=stepper._INITIAL_RULE_BOOST).C


class TestNearFloor:
    # the probe bound lies 3-4x above the true rcond on these mass matrices:
    # m = 21 has bound 1.89e-13 and rcond 5.55e-14, m = 20 bound 7.2e-13
    # and rcond 2.1e-13

    def test_rcond_just_below_floor_detected(self):
        C = initial_mass_matrix(21)
        with pytest.raises(SingularMatrixError) as exc:
            lu_solve(C, np.ones(C.shape[0]))
        assert exc.value.rcond == pytest.approx(1.0 / np.linalg.cond(C, 1), rel=1e-6)

    def test_rcond_just_above_floor_solves(self):
        C = initial_mass_matrix(20)
        n = C.shape[0]
        b = np.ones(n)
        x = lu_solve(C, b)
        bound = 1e3 * n * np.finfo(float).eps * np.abs(C).max() * np.abs(x).sum()
        assert np.abs(C @ x - b).max() <= bound

    @pytest.mark.parametrize("degree,solves", [(10, 1), (20, 2)])
    def test_exact_rcond_only_near_the_floor(self, monkeypatch, degree, solves):
        # one LAPACK solve on the common path, one more against the
        # identity when the probe bound is within 10x of the floor
        calls = []
        solve = np.linalg.solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        C = initial_mass_matrix(degree)
        lu_solve(C, np.ones(C.shape[0]))
        assert len(calls) == solves


class TestFactorizationIdentity:
    def test_residual_bound(self):
        # backward stability of the pivoted LU: the residual is a small
        # multiple of eps ||A|| ||x|| at every size up to the largest system
        rng = np.random.default_rng(3)
        for n in range(1, 31):
            A = rng.standard_normal((n, n))
            b = rng.standard_normal(n)
            x = lu_solve(A, b)
            bound = 1e3 * n * np.finfo(float).eps * np.abs(A).max() * np.abs(x).sum()
            assert np.abs(A @ x - b).max() <= bound, n


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


@pytest.mark.parametrize("module", ["rdgalerkin", "rdgalerkin.cli"])
def test_import_loads_no_scipy(module):
    # only fdref needs scipy; the Galerkin path and the CLI load numpy alone
    env = dict(os.environ, PYTHONPATH=str(Path(rdgalerkin.__file__).parents[1]))
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
