"""Independent finite-difference reference solver (method of lines).

A deliberately different discretization family from the Galerkin path:
nodal second-order central differences in space, backward Euler in time,
and a Picard linearization that keeps each equation's own species implicit
where the Galerkin solver keeps the opposite one.  Both iterations converge
to their backward-Euler fixed point, so agreement between the two solvers is
evidence, not tautology.  This solver exists to adjudicate accuracy; it
shares no assembly code with the spectral path.  The pinned boundary values
are not unknowns: each Picard pass solves one tridiagonal system for the
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

    The unknowns are the 2k interior values, k = nx - 2, ordered by species
    (M_1 ... M_k, N_1 ... N_k).  Each Picard pass keeps the equation's own
    species implicit: the M-equation takes f ~ M~^(alpha-1) N~^beta * M and
    the N-equation f ~ M~^alpha N~^(beta-1) * N, so a pass writes only the
    diagonal and the rhs, the two species decouple and the system is
    tridiagonal (the entries linking M_k and N_1 are zero).  The pinned
    boundary values enter the first and last interior row of each species
    through a constant rhs term and are put back around the interior values
    at the end.
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
    k = nx - 2
    u = np.concatenate([problem.initial_M(x)[1:-1], problem.initial_N(x)[1:-1]]).astype(float)

    alpha, beta = problem.reaction.alpha, problem.reaction.beta
    r1 = problem.eps1 / dx ** 2
    r2 = problem.eps2 / dx ** 2
    # banded layout for solve_banded((1, 1), ...): ab[1 + i - j, j] = A[i, j],
    # so row 0 holds the upper and row 2 the lower same-species neighbour;
    # ab[0, k] and ab[2, k - 1] (M_k with N_1) stay zero
    ab = np.zeros((3, 2 * k))
    ab[0, 1:k] = ab[2, :k - 1] = -r1
    ab[0, k + 1:] = ab[2, k:-1] = -r2
    diagonal = np.repeat([
        1.0 / dt + problem.decay_M + 2.0 * r1,
        1.0 / dt + problem.decay_N + 2.0 * r2,
    ], k)
    # both ends of a species add to one row when k = 1
    source = np.repeat([problem.source_M, problem.source_N], k)
    source[0] += r1 * problem.theta0
    source[k - 1] += r1 * problem.theta0
    source[k] += r2 * problem.gamma0
    source[-1] += r2 * problem.gamma0

    for _ in range(steps):
        known = u / dt + source
        u_it = u
        for _ in range(picard_max):
            # Own-species split: f ~ phi * M_new in the M-equation and
            # omega * N_new in the N-equation; a degenerate exponent leaves
            # no factor to keep implicit, so f is lagged entirely.
            M_it, N_it = u_it[:k], u_it[k:]
            rhs = known.copy()
            ab[1] = diagonal
            if alpha == 0:
                rhs[:k] += problem.sign_M * N_it ** beta
            else:
                ab[1, :k] -= problem.sign_M * (M_it ** (alpha - 1) * N_it ** beta)
            if beta == 0:
                rhs[k:] += problem.sign_N * M_it ** alpha
            else:
                ab[1, k:] -= problem.sign_N * (M_it ** alpha * N_it ** (beta - 1))

            u_new = solve_banded((1, 1), ab, rhs)
            correction = np.abs(u_new - u_it).max()
            u_it = u_new
            if correction < picard_tol:
                break
        else:
            raise PicardConvergenceError(picard_max, correction)
        u = u_it

    return FDGrid(
        nx=nx, dx=float(dx), x=x,
        M_values=np.concatenate([[problem.theta0], u[:k], [problem.theta0]]),
        N_values=np.concatenate([[problem.gamma0], u[k:], [problem.gamma0]]),
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
