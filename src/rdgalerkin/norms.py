"""Field evaluation and time-step-halving self-convergence norms.

No exact solutions exist for the built-in problems, so accuracy is
reported as the discrete l2 / l_inf distance between solutions computed
with time increments dt and dt/2, sampled on a uniform grid at a common
report time.  The norms are plain unnormalized sums over the grid, so the
grid size is part of the convention and is recorded in every report.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import basis as basis_mod
from .stepper import run, state_at

DEFAULT_GRID_POINTS = 101


@dataclass(frozen=True)
class NormReport:
    dt: float
    t: float
    grid_points: int
    L2_M: float
    Linf_M: float
    L2_N: float
    Linf_N: float


def _expand(offset, coeffs, B):
    """offset + sum_k coeffs[k] * B[k], summed per point in the order k = 0..m."""
    acc = np.zeros(B.shape[1])
    for ck, Bk in zip(coeffs, B):
        acc += ck * Bk
    return offset + acc


def evaluate(state, problem, basis, x):
    """Trial fields at x: (theta0 + c.B(x), gamma0 + d.B(x)).

    The value at a point is bitwise the same whatever other points are
    passed with it: each point's sum runs over the basis members in the
    fixed order k = 0..m, one elementwise multiply-add per member, and the
    boundary constant is added last.  A matrix product ``c @ B`` cannot
    promise this, because the BLAS kernel picks its blocking (and so the
    order in which it rounds the partial sums) from the shape of B, so the
    same x can round differently when evaluated alone than in a batch.
    """
    B = basis_mod.value_matrix(basis, x)
    M = _expand(problem.theta0, state.c, B)
    N = _expand(problem.gamma0, state.d, B)
    if np.ndim(x) == 0:
        return float(M[0]), float(N[0])
    return M, N


def sample_grid(problem, grid_points):
    return np.linspace(problem.lower, problem.upper, grid_points)


def difference_norms(dM, dN):
    """Grid l2 and max norms of the field differences dM and dN, by NormReport field name."""
    return dict(
        L2_M=float(np.sqrt(np.sum(dM ** 2))),
        Linf_M=float(np.abs(dM).max()),
        L2_N=float(np.sqrt(np.sum(dN ** 2))),
        Linf_N=float(np.abs(dN).max()),
    )


def halving_report(problem, basis, coarse, fine, dt, t_report, grid_points=DEFAULT_GRID_POINTS):
    """Norms of the difference between the trajectories ``coarse`` (step dt)
    and ``fine`` (step dt/2) at t_report."""
    xs = sample_grid(problem, grid_points)
    M_c, N_c = evaluate(state_at(coarse, t_report, dt), problem, basis, xs)
    M_f, N_f = evaluate(state_at(fine, t_report, dt / 2), problem, basis, xs)
    return NormReport(
        dt=dt, t=t_report, grid_points=grid_points,
        **difference_norms(M_c - M_f, N_c - N_f),
    )


def self_convergence(problem, basis, config, t_report, grid_points=DEFAULT_GRID_POINTS):
    """Norms of the difference between the dt and dt/2 solutions at t_report."""
    coarse = run(problem, basis, config)
    fine = run(problem, basis, replace(config, dt=config.dt / 2))
    return halving_report(problem, basis, coarse, fine, config.dt, t_report, grid_points)
