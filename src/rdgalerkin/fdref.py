"""Independent finite-difference reference solver (method of lines).

A deliberately different discretization family from the Galerkin path:
nodal second-order central differences in space, backward Euler in time,
with the same lag-one-factor Picard linearization of the reaction term.
Agreement between the two solvers is therefore evidence, not tautology.
This solver exists to adjudicate accuracy; it shares no assembly code with
the spectral path and is not built for speed.  The pinned boundary values
are not unknowns: each implicit step solves a banded system for the
interior nodes only.  ``compare`` reports the Galerkin-vs-FD differences in
the ``norms.NormReport`` the self-convergence study uses.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .basis import is_integer
from .norms import DEFAULT_GRID_POINTS, NormReport, difference_norms, evaluate, sample_grid
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


def fd_solve(problem, nx, dt, t_end, picard_tol=1e-10, picard_max=100):
    """March the nodal system to t_end with backward Euler + Picard.

    The unknowns are the 2(nx - 2) interior values, interleaved
    (M_1, N_1, M_2, N_2, ...) so the coupled implicit system is
    pentadiagonal and solvable with a banded routine.  The pinned boundary
    values enter the first and last interior rows through a constant rhs
    term and are put back around the interior values at the end.  The
    diagonal and neighbour bands are built once per call; each Picard pass
    writes only the two M-N coupling bands and the rhs.
    """
    if not is_integer(nx):
        raise ValueError(f"nx: must be an integer, got {nx!r}")
    if nx < 3:
        raise ValueError(f"nx: must be at least 3, got {nx}")
    if not is_integer(picard_max):
        raise ValueError(f"picard_max: must be an integer, got {picard_max!r}")
    if picard_max < 1:
        raise ValueError(f"picard_max: must be at least 1, got {picard_max}")
    if not (math.isfinite(picard_tol) and picard_tol > 0):
        raise ValueError(f"picard_tol: must be finite and positive, got {picard_tol}")
    steps = whole_steps(t_end, dt, "t_end")

    x = np.linspace(problem.lower, problem.upper, nx)
    dx = x[1] - x[0]
    M = problem.initial_M(x).astype(float)[1:-1]
    N = problem.initial_N(x).astype(float)[1:-1]

    alpha, beta = problem.reaction.alpha, problem.reaction.beta
    r1 = problem.eps1 / dx ** 2
    r2 = problem.eps2 / dx ** 2
    # banded layout for solve_banded((2, 2), ...): ab[2 + i - j, j] = A[i, j],
    # so rows 0 and 4 hold the same-species neighbours (j = i +- 2) and rows
    # 1 and 3 the coupling of M_i and N_i at one node
    ab = np.zeros((5, 2 * (nx - 2)))
    ab[2, 0::2] = 1.0 / dt + problem.decay_M + 2.0 * r1
    ab[2, 1::2] = 1.0 / dt + problem.decay_N + 2.0 * r2
    ab[0, 2::2] = ab[4, :-2:2] = -r1
    ab[0, 3::2] = ab[4, 1:-2:2] = -r2
    boundary = np.zeros(2 * (nx - 2))
    boundary[:2] += (r1 * problem.theta0, r2 * problem.gamma0)
    boundary[-2:] += (r1 * problem.theta0, r2 * problem.gamma0)
    rhs = np.empty(2 * (nx - 2))

    for _ in range(steps):
        M_known = M / dt + problem.source_M
        N_known = N / dt + problem.source_N
        M_it, N_it = M, N
        for _ in range(picard_max):
            # Lag-one-factor split: in the M-equation f ~ gamma_c + omega*N_new
            # with omega = M~^a N~^(b-1); degenerate exponents lag f entirely.
            if beta == 0:
                omega, gamma_c = 0.0, M_it ** alpha
            else:
                omega, gamma_c = M_it ** alpha * N_it ** (beta - 1), 0.0
            if alpha == 0:
                phi, pi_c = 0.0, N_it ** beta
            else:
                phi, pi_c = M_it ** (alpha - 1) * N_it ** beta, 0.0
            ab[1, 1::2] = -problem.sign_M * omega    # N_i in the M_i row
            ab[3, 0::2] = -problem.sign_N * phi      # M_i in the N_i row
            rhs[0::2] = M_known + problem.sign_M * gamma_c
            rhs[1::2] = N_known + problem.sign_N * pi_c

            sol = solve_banded((2, 2), ab, rhs + boundary)
            M_new, N_new = sol[0::2], sol[1::2]
            correction = max(
                np.abs(M_new - M_it).max(), np.abs(N_new - N_it).max()
            )
            M_it, N_it = M_new, N_new
            if correction < picard_tol:
                break
        else:
            raise PicardConvergenceError(picard_max, correction)
        M, N = M_it, N_it

    return FDGrid(
        nx=nx, dx=float(dx), x=x,
        M_values=np.concatenate([[problem.theta0], M, [problem.theta0]]),
        N_values=np.concatenate([[problem.gamma0], N, [problem.gamma0]]),
        t=steps * dt,
    )


def compare(problem, basis, config, fd_nx, fd_dt, t):
    """Difference between the Galerkin and FD solutions at time t, as a
    ``NormReport`` whose dt is the Galerkin run's (``config.dt``).

    Both solutions are sampled on ``DEFAULT_GRID_POINTS`` uniform points; the
    FD grid is interpolated piecewise-linearly onto them, and its O(dx^2)
    error is far below the discrepancies being measured.
    """
    trajectory = run(problem, basis, config)
    state = state_at(trajectory, t, config.dt)
    fd = fd_solve(problem, fd_nx, fd_dt, t)
    xs = sample_grid(problem, DEFAULT_GRID_POINTS)
    M_g, N_g = evaluate(state, problem, basis, xs)
    M_f = np.interp(xs, fd.x, fd.M_values)
    N_f = np.interp(xs, fd.x, fd.N_values)
    return NormReport(
        dt=config.dt, t=t, grid_points=DEFAULT_GRID_POINTS,
        **difference_norms(M_g - M_f, N_g - N_f),
    )


def write_report(report, path):
    """Write a ``compare`` report as a header and one row, 9 significant
    digits; the columns leave out dt."""
    with open(path, "w", newline="\n") as f:
        f.write(
            "t,grid_points,L2_M,Linf_M,L2_N,Linf_N\n"
            f"{report.t:.9g},{report.grid_points},{report.L2_M:.9g},{report.Linf_M:.9g},"
            f"{report.L2_N:.9g},{report.Linf_N:.9g}\n"
        )
