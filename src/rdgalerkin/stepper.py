"""Implicit time marching of the coupled coefficient system.

Each step solves the theta-weighted block system

    C (c_new - c_prev)/dt + th * (K1 c_new + K2 d_new - F1)
                          + (1 - th) * (K1 c_prev + K2' d_prev - F1') = 0

(and its mirror for d), where K2, F1 are assembled at the current Picard
iterate and the primed blocks at the previous time level's converged
state.  th = 1 is plain backward difference (the default); th = 0.5 is the
trapezoidal member of the family and is genuinely second order in time
because the nonlinear blocks are weighted between the two time levels.
The work is split by how often it changes:

* per run: ``discretize`` checks that the basis spans the problem's
  interval, builds the ``assembly.Discretization`` (the basis tables at the
  quadrature nodes, C, K1, K4 and the constant load parts) and checks that
  C/dt is finite, and ``initial_state`` projects the initial data on a
  boosted rule;
* per step: ``_step_system`` forms the diagonal blocks C/dt + th K1 and
  C/dt + th K4, the terms C/dt c_prev and C/dt d_prev and, at th < 1, the
  old-level residual;
* per Picard iterate: one ``picard_split``, K2 and K3 in one stacked
  product, F1 and F2, one ``lu_solve`` of the 2(m+1)-square system, and the
  correction as the largest change of the stacked coefficient vector.

``step(state, problem, disc, config)`` takes the run's discretization;
``run`` builds it once and passes it to every step.  A time is a step
count: state k of a run has t = k dt exactly, and ``whole_steps`` is the
one rule that matches a time to the grid.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import assembly, quadrature
from .basis import is_integer
from .linalg import lu_solve
from .problems import picard_split

_DIVERGENCE_GUARD = 1e6
_INITIAL_RULE_BOOST = 3


class PicardConvergenceError(RuntimeError):
    """Inner fixed-point loop failed to converge within the iteration cap."""

    def __init__(self, iterations, last_correction):
        self.iterations = iterations
        self.last_correction = last_correction
        super().__init__(
            f"Picard iteration did not converge after {iterations} passes "
            f"(last correction {last_correction:.3e})"
        )


def whole_steps(t, dt, name):
    """The number of dt steps in t; a ValueError naming ``name`` unless t is a
    whole multiple of dt (to a relative 1e-9, so a t below one step is only
    accepted when it is 0).  The package's only rule for matching a time to
    the step grid."""
    steps = t / dt
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ValueError(f"{name}: {t} is not an integer multiple of dt={dt}")
    return int(round(steps))


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping and Picard settings of one run.

    The one place these settings are defaulted and checked; each error
    message starts with the field name.  The basis degree comes from the
    ``BasisSpec``; ``degree`` is optional and, when given, must equal it.
    ``quad_points`` defaults to ``quadrature.default_point_count`` of the
    basis degree (see ``rule_points``).
    """

    dt: float
    t_end: float
    degree: Optional[int] = None
    theta: float = 1.0
    picard_tol: float = 1e-10
    picard_max: int = 50
    quad_points: Optional[int] = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt: must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end: must be finite and non-negative, got {self.t_end}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta: must lie in (0, 1], got {self.theta}")
        if not (math.isfinite(self.picard_tol) and self.picard_tol > 0):
            raise ValueError(f"picard_tol: must be finite and positive, got {self.picard_tol}")
        if not is_integer(self.picard_max):
            raise ValueError(f"picard_max: must be an integer, got {self.picard_max!r}")
        if self.picard_max < 1:
            raise ValueError(f"picard_max: must be at least 1, got {self.picard_max}")
        if self.quad_points is not None and not is_integer(self.quad_points):
            raise ValueError(f"quad_points: must be an integer, got {self.quad_points!r}")
        whole_steps(self.t_end, self.dt, "t_end")

    @property
    def step_count(self):
        return whole_steps(self.t_end, self.dt, "t_end")

    def rule_points(self, degree):
        """Quadrature points for a basis of ``degree``: ``quad_points`` or the default."""
        if self.quad_points is None:
            return quadrature.default_point_count(degree)
        if self.quad_points < degree + 1:
            raise ValueError(
                f"quad_points: {self.quad_points} is fewer than the {degree + 1} "
                "basis members"
            )
        return self.quad_points


@dataclass(frozen=True)
class CoefficientState:
    """Coefficient vectors for both species at one time level."""

    c: np.ndarray
    d: np.ndarray
    t: float
    picard_iters_last: int = 0


def state_at(trajectory, t, dt):
    """State ``whole_steps(t, dt)`` of ``trajectory``, a run of step dt; a
    ValueError when t is off that grid or past the trajectory's end, or when
    dt is not the trajectory's step (state k of a run has t = k dt exactly)."""
    try:
        k = whole_steps(t, dt, "t")
        state = trajectory[k]
    except (ValueError, IndexError):
        raise ValueError(f"time {t} not on the trajectory grid") from None
    if state.t != k * dt:
        raise ValueError(f"dt: {dt} is not the trajectory's step (state {k} has t={state.t})")
    return state


def discretize(problem, basis, config, boost=1):
    """The run's ``Discretization``, on a rule of ``boost`` times the configured size."""
    if (basis.lower, basis.upper) != (problem.lower, problem.upper):
        raise ValueError(f"basis: spans [{basis.lower}, {basis.upper}], "
                         f"not the problem's [{problem.lower}, {problem.upper}]")
    if config.degree is not None and config.degree != basis.degree:
        raise ValueError(
            f"SolverConfig.degree ({config.degree}) differs from the basis "
            f"degree ({basis.degree})"
        )
    points = config.rule_points(basis.degree)
    rule = quadrature.gauss_legendre(boost * points, basis.lower, basis.upper)
    disc = assembly.Discretization.build(problem, basis, rule)
    # every step divides C by dt; a tiny dt (subnormal, or normal on a wide
    # domain, whose mass entries are large) overflows it
    scale = float(np.abs(disc.C).max())
    if not math.isfinite(scale / config.dt):
        raise ValueError(f"dt: {config.dt} overflows C/dt (largest mass entry {scale:.3g})")
    return disc


def _nonlinear_blocks(problem, disc, c_at, d_at):
    """Iterate-dependent blocks (K2, K3, F1, F2) at one coefficient state."""
    split = picard_split(problem, disc.B, c_at, d_at)
    K2, K3 = assembly.assemble_coupling(
        disc.B, disc.rule.weights,
        np.array([-problem.sign_M * split.omega, -problem.sign_N * split.phi]),
    )
    F1, F2 = assembly.assemble_loads(problem, disc, split)
    return K2, K3, F1, F2


def _step_system(problem, disc, config, c_prev, d_prev):
    """The coupled theta-weighted system of one step, as a function of the iterate.

    The diagonal blocks C/dt + th K1 and C/dt + th K4, the vector C/dt times
    the previous level and, at th < 1, the old-level residual are formed here
    once per step.  The returned ``system(c_it, d_it)`` writes only th K2,
    th K3 and th F at the Picard iterate and returns (A, b); A is the same
    array on every call, rewritten in place.
    """
    n, th = disc.C.shape[0], config.theta
    Cdt = disc.C / config.dt
    A = np.zeros((2 * n, 2 * n))
    A[:n, :n] = Cdt + th * disc.K1
    A[n:, n:] = Cdt + th * disc.K4
    lagged = np.concatenate([Cdt @ c_prev, Cdt @ d_prev])
    old = 0.0
    if th < 1.0:
        K2, K3, F1, F2 = _nonlinear_blocks(problem, disc, c_prev, d_prev)
        old = (1 - th) * np.concatenate([
            disc.K1 @ c_prev + K2 @ d_prev - F1,
            K3 @ c_prev + disc.K4 @ d_prev - F2,
        ])

    def system(c_it, d_it):
        K2, K3, F1, F2 = _nonlinear_blocks(problem, disc, c_it, d_it)
        A[:n, n:] = th * K2
        A[n:, :n] = th * K3
        return A, (lagged + th * np.concatenate([F1, F2])) - old

    return system


def step(state, problem, disc, config):
    """Advance one time increment, iterating Picard to tolerance.

    ``disc`` is the run's discretization, from ``discretize``.  The new state
    lies one step past ``state``: its t is (k + 1) dt for the k whole steps
    of ``state.t``, never a running sum.
    """
    n = disc.C.shape[0]
    if state.c.shape != (n,) or state.d.shape != (n,):
        raise ValueError("state inconsistent with basis degree")

    t_new = (whole_steps(state.t, config.dt, "state.t") + 1) * config.dt
    system = _step_system(problem, disc, config, state.c, state.d)
    c_it, d_it = state.c, state.d
    x_it = np.concatenate([c_it, d_it])
    for k in range(1, config.picard_max + 1):
        sol = lu_solve(*system(c_it, d_it))
        correction = np.abs(sol - x_it).max()
        x_it, c_it, d_it = sol, sol[:n], sol[n:]
        if correction < config.picard_tol:
            return CoefficientState(c=c_it, d=d_it, t=t_new, picard_iters_last=k)
        if correction > _DIVERGENCE_GUARD:
            raise PicardConvergenceError(k, correction)
    raise PicardConvergenceError(config.picard_max, correction)


def initial_state(problem, basis, config):
    """Galerkin projection of the initial data onto the basis, on a boosted rule."""
    boosted = discretize(problem, basis, config, boost=_INITIAL_RULE_BOOST)
    c0, d0 = assembly.project_initial(problem, boosted)
    return CoefficientState(c=c0, d=d0, t=0.0)


def run(problem, basis, config):
    """Full trajectory: projected initial state plus one state per step, so
    ``trajectory[k]`` is the state at t = k dt."""
    disc = discretize(problem, basis, config)
    states = [initial_state(problem, basis, config)]
    for _ in range(config.step_count):
        states.append(step(states[-1], problem, disc, config))
    return states
