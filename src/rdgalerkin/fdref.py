"""Independent finite-difference reference solver (method of lines).

A deliberately different discretization family from the Galerkin path:
nodal second-order central differences in space, backward Euler in time,
with the same lag-one-factor Picard linearization of the reaction term.
Agreement between the two solvers is therefore evidence, not tautology.
This solver exists to adjudicate accuracy; it shares no assembly code with
the spectral path and is not built for speed.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .norms import difference_norms, evaluate, sample_grid
from .stepper import PicardConvergenceError, run, state_at, whole_steps


@dataclass(frozen=True)
class FDGrid:
    """Nodal solution at one time level; boundary entries pinned."""

    nx: int
    dx: float
    x: np.ndarray
    M_values: np.ndarray
    N_values: np.ndarray
    t: float


@dataclass(frozen=True)
class DiscrepancyReport:
    """Galerkin-vs-FD differences on a common comparison grid."""

    t: float
    grid_points: int
    L2_M: float
    Linf_M: float
    L2_N: float
    Linf_N: float


def fd_solve(problem, nx, dt, t_end, picard_tol=1e-10, picard_max=100):
    """March the nodal system to t_end with backward Euler + Picard.

    Unknowns are interleaved (M_0, N_0, M_1, N_1, ...) so the coupled
    implicit system is pentadiagonal and solvable with a banded routine.
    """
    if nx < 3:
        raise ValueError("nx must be >= 3")
    steps = whole_steps(t_end, dt, "t_end")

    x = np.linspace(problem.lower, problem.upper, nx)
    dx = x[1] - x[0]
    M = problem.initial_M(x).astype(float).copy()
    N = problem.initial_N(x).astype(float).copy()
    M[0] = M[-1] = problem.theta0
    N[0] = N[-1] = problem.gamma0

    alpha, beta = problem.reaction.alpha, problem.reaction.beta
    r1 = problem.eps1 / dx ** 2
    r2 = problem.eps2 / dx ** 2
    n_unknowns = 2 * nx

    for _ in range(steps):
        M_old, N_old = M, N
        M_it, N_it = M.copy(), N.copy()
        converged = False
        for it in range(1, picard_max + 1):
            # Lag-one-factor split: in the M-equation f ~ gamma_c + omega*N_new
            # with omega = M~^a N~^(b-1); degenerate exponents lag f entirely.
            if beta == 0:
                omega = np.zeros(nx)
                gamma_c = M_it ** alpha
            else:
                omega = M_it ** alpha * N_it ** (beta - 1)
                gamma_c = np.zeros(nx)
            if alpha == 0:
                phi = np.zeros(nx)
                pi_c = N_it ** beta
            else:
                phi = M_it ** (alpha - 1) * N_it ** beta
                pi_c = np.zeros(nx)

            ab = np.zeros((5, n_unknowns))
            rhs = np.empty(n_unknowns)
            # banded row layout for solve_banded((2, 2), ...):
            # ab[0, j] = A[j-2, j], ab[1, j] = A[j-1, j], ab[2, j] = A[j, j],
            # ab[3, j] = A[j+1, j], ab[4, j] = A[j+2, j]
            idx_M = 2 * np.arange(1, nx - 1)
            idx_N = idx_M + 1
            # M rows
            ab[2, idx_M] = 1.0 / dt + problem.decay_M + 2.0 * r1
            ab[0, idx_M + 2] = -r1        # M_{i+1}
            ab[4, idx_M - 2] = -r1        # M_{i-1}
            ab[1, idx_N] = -problem.sign_M * omega[1:-1]   # N_i in M row
            rhs[idx_M] = (
                M_old[1:-1] / dt
                + problem.source_M
                + problem.sign_M * gamma_c[1:-1]
            )
            # N rows
            ab[2, idx_N] = 1.0 / dt + problem.decay_N + 2.0 * r2
            ab[0, idx_N + 2] = -r2        # N_{i+1}
            ab[4, idx_N - 2] = -r2        # N_{i-1}
            ab[3, idx_M] = -problem.sign_N * phi[1:-1]     # M_i in N row
            rhs[idx_N] = (
                N_old[1:-1] / dt
                + problem.source_N
                + problem.sign_N * pi_c[1:-1]
            )
            # pinned boundary rows are identity rows; their known values move
            # into the rhs of the neighbouring interior rows and their columns
            # are zeroed, so the pivoted solve returns them exactly
            ab[4, :2] = 0.0                    # M_0, N_0 in rows 2, 3
            ab[0, n_unknowns - 2:] = 0.0       # M_{nx-1}, N_{nx-1} in rows 2nx-4, 2nx-3
            rhs[2] += r1 * problem.theta0
            rhs[3] += r2 * problem.gamma0
            rhs[n_unknowns - 4] += r1 * problem.theta0
            rhs[n_unknowns - 3] += r2 * problem.gamma0
            for j, val in (
                (0, problem.theta0),
                (1, problem.gamma0),
                (n_unknowns - 2, problem.theta0),
                (n_unknowns - 1, problem.gamma0),
            ):
                ab[2, j] = 1.0
                rhs[j] = val

            sol = solve_banded((2, 2), ab, rhs)
            M_new, N_new = sol[0::2], sol[1::2]
            correction = max(
                np.abs(M_new - M_it).max(), np.abs(N_new - N_it).max()
            )
            M_it, N_it = M_new, N_new
            if correction < picard_tol:
                converged = True
                break
        if not converged:
            raise PicardConvergenceError(picard_max, correction)
        M, N = M_it, N_it

    return FDGrid(nx=nx, dx=float(dx), x=x, M_values=M, N_values=N, t=steps * dt)


def compare(problem, basis, config, fd_nx, fd_dt, t, grid_points=101):
    """Difference between the Galerkin and FD solutions at time t.

    The FD grid is interpolated piecewise-linearly onto the comparison
    grid; its O(dx^2) error is far below the discrepancies being measured.
    """
    trajectory = run(problem, basis, config)
    state = state_at(trajectory, t)
    fd = fd_solve(problem, fd_nx, fd_dt, t)
    xs = sample_grid(problem, grid_points)
    M_g, N_g = evaluate(state, problem, basis, xs)
    M_f = np.interp(xs, fd.x, fd.M_values)
    N_f = np.interp(xs, fd.x, fd.N_values)
    return DiscrepancyReport(
        t=t, grid_points=grid_points, **difference_norms(M_g - M_f, N_g - N_f)
    )


def write_report(report, path):
    """Write a DiscrepancyReport as a header and one row, 9 significant digits."""
    with open(path, "w", newline="\n") as f:
        f.write(
            "t,grid_points,L2_M,Linf_M,L2_N,Linf_N\n"
            f"{report.t:.9g},{report.grid_points},{report.L2_M:.9g},{report.Linf_M:.9g},"
            f"{report.L2_N:.9g},{report.Linf_N:.9g}\n"
        )
