import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rdgalerkin import fdref
from rdgalerkin.basis import BasisSpec
from rdgalerkin.fdref import compare, fd_solve
from rdgalerkin.problems import ProblemSpec, ReactionForm, builtin_grayscott, builtin_tp1
from rdgalerkin.stepper import PicardConvergenceError, SolverConfig

REPORT_DIR = Path(__file__).resolve().parent.parent / "reports"


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


def step_residual(problem, old, new, dt):
    """Largest nodal backward-Euler residual of one step from ``old`` to
    ``new`` (interior nodes, boundary values as pinned in the grids):
    (u_new - u_old)/dt - eps D2 u_new - sign f(u_new) + decay u_new - source."""
    f = problem.reaction(new.M_values, new.N_values)[1:-1]
    worst = 0.0
    for u_old, u_new, eps, sign, decay, source in (
        (old.M_values, new.M_values, problem.eps1, problem.sign_M,
         problem.decay_M, problem.source_M),
        (old.N_values, new.N_values, problem.eps2, problem.sign_N,
         problem.decay_N, problem.source_N),
    ):
        D2 = (u_new[:-2] - 2.0 * u_new[1:-1] + u_new[2:]) / new.dx ** 2
        inner = u_new[1:-1]
        r = (inner - u_old[1:-1]) / dt - eps * D2 - sign * f + decay * inner - source
        worst = max(worst, np.abs(r).max())
    return worst


class TestPicardPass:
    # the converged step is the nodal backward-Euler fixed point whatever the
    # linearization: at picard_tol = 1e-12 its residual is rounding-sized
    # next to the 1/dt + 4 eps/dx^2 scale of the step operator
    @pytest.mark.parametrize(
        "problem,nx,dt,steps",
        [
            (builtin_tp1(), 201, 0.05, 20),
            (builtin_grayscott(), 401, 0.1, 50),
            (replace(builtin_tp1(), reaction=ReactionForm(alpha=2, beta=0)), 201, 0.05, 20),
            (replace(builtin_tp1(), reaction=ReactionForm(alpha=0, beta=2)), 201, 0.05, 20),
        ],
        ids=["tp1", "grayscott", "tp1-alpha2-beta0", "tp1-alpha0-beta2"],
    )
    def test_last_step_is_backward_euler_fixed_point(self, problem, nx, dt, steps):
        old = fd_solve(problem, nx, dt, (steps - 1) * dt, picard_tol=1e-12)
        new = fd_solve(problem, nx, dt, steps * dt, picard_tol=1e-12)
        scale = 1.0 / dt + 4.0 * max(problem.eps1, problem.eps2) / new.dx ** 2
        assert step_residual(problem, old, new, dt) <= 1e-14 * scale

    def test_one_tridiagonal_solve_per_pass(self, monkeypatch):
        # the benchmark's fd-oracle configuration converges in 2 passes a step
        bands = []
        solve = fdref.solve_banded

        def counting(l_and_u, ab, b, **kwargs):
            bands.append(tuple(l_and_u))
            return solve(l_and_u, ab, b, **kwargs)

        monkeypatch.setattr(fdref, "solve_banded", counting)
        fd_solve(builtin_tp1(), nx=2001, dt=1e-3, t_end=1.0)
        assert len(bands) == 2000
        assert set(bands) == {(1, 1)}

    def test_non_finite_pass_raises_value_error(self):
        # a NaN at the centre node reaches the first pass's rhs
        base = builtin_tp1()
        problem = replace(
            base, initial_N=lambda x: np.where(x == 1.0, np.nan, base.initial_N(x))
        )
        with pytest.raises(ValueError, match="infs or NaNs"):
            fd_solve(problem, nx=101, dt=0.1, t_end=0.2)

    def test_grayscott_large_step_does_not_converge(self):
        with pytest.raises(PicardConvergenceError):
            fd_solve(builtin_grayscott(), nx=2001, dt=5.0, t_end=20.0)


@pytest.mark.parametrize(
    "name,problem,fd_nx",
    [("coupled_parabolic", builtin_tp1(), 1001), ("grayscott", builtin_grayscott(), 2001)],
)
def test_tracked_reports_reproduce(name, problem, fd_nx):
    # demos/fd_crosscheck.py writes these; the oracle's stopping error moves
    # the ~4e-8 norms by well under 1e-5 relative
    with open(REPORT_DIR / f"fd_discrepancy_{name}.csv", newline="") as f:
        (tracked,) = list(csv.DictReader(f))
    basis = BasisSpec(problem.lower, problem.upper, 6)
    rep = compare(
        problem, basis, SolverConfig(dt=0.01, t_end=1.0),
        fd_nx=fd_nx, fd_dt=0.01, t=1.0,
    )
    assert float(tracked["t"]) == rep.t
    assert int(tracked["grid_points"]) == rep.grid_points
    for column in ("L2_M", "Linf_M", "L2_N", "Linf_N"):
        assert getattr(rep, column) == pytest.approx(float(tracked[column]), rel=1e-5, abs=0.0)


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
