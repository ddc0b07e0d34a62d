from dataclasses import replace

import numpy as np
import pytest

from rdgalerkin.basis import BasisSpec
from rdgalerkin.fdref import compare, fd_solve
from rdgalerkin.problems import ProblemSpec, ReactionForm, builtin_grayscott, builtin_tp1
from rdgalerkin.stepper import SolverConfig


def flat_grayscott():
    base = builtin_grayscott()
    return ProblemSpec(
        lower=base.lower, upper=base.upper,
        eps1=base.eps1, eps2=base.eps2,
        theta0=base.theta0, gamma0=base.gamma0,
        reaction=base.reaction,
        sign_M=base.sign_M, sign_N=base.sign_N,
        decay_M=base.decay_M, decay_N=base.decay_N,
        source_M=base.source_M, source_N=base.source_N,
        initial_M=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        initial_N=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


class TestFdSolve:
    def test_constant_equilibrium_is_exact(self):
        grid = fd_solve(flat_grayscott(), nx=101, dt=0.25, t_end=1.0)
        assert np.abs(grid.M_values - 1.0).max() <= 1e-12
        assert np.abs(grid.N_values).max() <= 1e-12

    def test_boundary_nodes_pinned(self):
        problem = builtin_tp1()
        grid = fd_solve(problem, nx=201, dt=0.05, t_end=0.5)
        assert grid.M_values[0] == problem.theta0
        assert grid.M_values[-1] == problem.theta0
        assert grid.N_values[0] == problem.gamma0
        assert grid.N_values[-1] == problem.gamma0

    def test_grid_metadata(self):
        problem = builtin_tp1()
        grid = fd_solve(problem, nx=101, dt=0.1, t_end=0.2)
        assert grid.nx == 101
        assert grid.dx == pytest.approx(0.02)
        assert grid.t == pytest.approx(0.2)
        assert grid.x[0] == problem.lower and grid.x[-1] == problem.upper

    def test_tp1_mirror_symmetry(self):
        problem = builtin_tp1()
        grid = fd_solve(problem, nx=201, dt=0.1, t_end=1.0)
        assert np.abs(grid.M_values - grid.M_values[::-1]).max() <= 1e-10
        assert np.abs(grid.N_values - grid.N_values[::-1]).max() <= 1e-10

    def test_tp1_fields_stay_bounded(self):
        # weak reaction and decay: |M| cannot exceed its initial amplitude
        # and N stays near its initial band [0.88, 1.12] over this horizon
        problem = builtin_tp1()
        grid = fd_solve(problem, nx=201, dt=0.05, t_end=1.0)
        assert np.abs(grid.M_values).max() <= 0.01 + 1e-12
        assert grid.N_values.min() >= 0.85
        assert grid.N_values.max() <= 1.15

    def test_time_refinement_contracts(self):
        problem = builtin_tp1()
        fine = fd_solve(problem, nx=401, dt=0.0125, t_end=1.0)
        e_coarse = np.abs(
            fd_solve(problem, nx=401, dt=0.05, t_end=1.0).M_values - fine.M_values
        ).max()
        e_mid = np.abs(
            fd_solve(problem, nx=401, dt=0.025, t_end=1.0).M_values - fine.M_values
        ).max()
        assert e_coarse / e_mid >= 1.8

    def test_invalid_arguments(self):
        problem = builtin_tp1()
        with pytest.raises(ValueError, match="nx"):
            fd_solve(problem, nx=2, dt=0.1, t_end=1.0)
        with pytest.raises(ValueError, match="integer multiple"):
            fd_solve(problem, nx=11, dt=0.3, t_end=1.0)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(picard_max=0), "picard_max"),
            (dict(picard_max=-3), "picard_max"),
            (dict(picard_tol=0.0), "picard_tol"),
            (dict(picard_tol=-1e-10), "picard_tol"),
            (dict(picard_tol=float("nan")), "picard_tol"),
            (dict(picard_tol=float("inf")), "picard_tol"),
        ],
    )
    def test_invalid_picard_settings(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            fd_solve(builtin_tp1(), nx=11, dt=0.1, t_end=0.2, **kwargs)

    @pytest.mark.parametrize(
        "nx,picard_max,field",
        [
            (10.5, 100, "nx"),
            (11.0, 100, "nx"),
            (True, 100, "nx"),
            (11, 2.5, "picard_max"),
            (11, 3.0, "picard_max"),
            (11, True, "picard_max"),
        ],
    )
    def test_non_integer_counts_rejected(self, nx, picard_max, field):
        with pytest.raises(ValueError, match=f"^{field}: must be an integer"):
            fd_solve(builtin_tp1(), nx=nx, dt=0.1, t_end=0.2, picard_max=picard_max)


class TestCompare:
    def test_report_on_equilibrium_is_zero(self):
        problem = flat_grayscott()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        report = compare(
            problem, basis, SolverConfig(dt=0.5, t_end=1.0),
            fd_nx=101, fd_dt=0.5, t=1.0,
        )
        assert report.Linf_M <= 1e-12
        assert report.Linf_N <= 1e-12
        assert report.t == 1.0
        assert report.dt == 0.5
        assert report.grid_points == 101

    def test_tp1_discrepancy_small(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        report = compare(
            problem, basis, SolverConfig(dt=0.01, t_end=1.0),
            fd_nx=1001, fd_dt=0.01, t=1.0,
        )
        assert report.Linf_M <= 5e-4
        assert report.Linf_N <= 2e-3

    # degenerate exponents lag the whole reaction term in both solvers; the
    # Galerkin errors measured at these degrees are 3.3e-8 and 4.0e-4 (m = 6
    # does not resolve the (0, 2) boundary layers: 8.1e-3 there)
    @pytest.mark.parametrize(
        "alpha,beta,degree,tol",
        [(2, 0, 6, 1e-7), (0, 2, 10, 1.5e-3)],
    )
    def test_degenerate_exponent_agrees(self, alpha, beta, degree, tol):
        problem = replace(builtin_tp1(), reaction=ReactionForm(alpha=alpha, beta=beta))
        basis = BasisSpec(problem.lower, problem.upper, degree)
        report = compare(
            problem, basis, SolverConfig(dt=0.1, t_end=1.0),
            fd_nx=1001, fd_dt=0.1, t=1.0,
        )
        assert report.Linf_M <= tol
        assert report.Linf_N <= tol
