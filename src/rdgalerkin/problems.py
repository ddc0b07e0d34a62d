"""Two-species reaction-diffusion problem descriptions.

Each species obeys

    du/dt = eps * u_xx + sign * f(M, N) - decay * u + source

on a common interval, with constant Dirichlet values theta0 (species M)
and gamma0 (species N) and a monomial reaction f(M, N) = M^alpha * N^beta.
Both built-in benchmark problems are instances of this template; they
differ only in parameter values and in which equation carries +f.

The fixed-point linearization used by the time stepper splits f in each
equation so that one factor of the *opposite* species stays implicit:

    M-equation:  f ~ Gamma + Omega * (N - gamma0),   Omega = M~^alpha N~^(beta-1)
    N-equation:  f ~ Pi    + Phi   * (M - theta0),   Phi   = M~^(alpha-1) N~^beta

where tilde fields are the previous iterate.  At a converged iterate both
splits reproduce f exactly.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

_COMPAT_TOL = 1e-9


@dataclass(frozen=True)
class ReactionForm:
    """Monomial reaction f(M, N) = M^alpha * N^beta."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("reaction exponents must be non-negative")
        if self.alpha + self.beta < 2:
            raise ValueError("reaction must be nonlinear (alpha + beta >= 2)")

    def __call__(self, M, N):
        return M ** self.alpha * N ** self.beta


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable description of one coupled two-species problem."""

    lower: float
    upper: float
    eps1: float
    eps2: float
    theta0: float
    gamma0: float
    reaction: ReactionForm
    sign_M: int
    sign_N: int
    decay_M: float
    decay_N: float
    source_M: float
    source_N: float
    initial_M: Callable[[np.ndarray], np.ndarray]
    initial_N: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.eps1 <= 0 or self.eps2 <= 0:
            raise ValueError("diffusion coefficients must be positive")
        if self.sign_M not in (-1, 1) or self.sign_N not in (-1, 1):
            raise ValueError("reaction signs must be +1 or -1")
        for name, fn, bc in (
            ("initial_M", self.initial_M, self.theta0),
            ("initial_N", self.initial_N, self.gamma0),
        ):
            for edge in (self.lower, self.upper):
                got = float(fn(np.asarray(edge, dtype=float)))
                if abs(got - bc) > _COMPAT_TOL:
                    raise ValueError(
                        f"{name}({edge}) = {got} incompatible with boundary value {bc}"
                    )


@dataclass(frozen=True)
class PicardSplit:
    """Linearization fields for one iterate, as arrays at fixed points."""

    gamma: np.ndarray   # M-equation load part
    omega: np.ndarray   # M-equation, multiplies (N - gamma0)
    pi: np.ndarray      # N-equation load part
    phi: np.ndarray     # N-equation, multiplies (M - theta0)


def sine_power_profile(amplitude, power, x_ref, width, offset):
    """Profile amplitude * sin^power(pi * (x - x_ref) / width) + offset.

    Covers the initial data of both built-in problems (and the custom
    problem file format in the CLI).
    """

    def profile(x):
        x = np.asarray(x, dtype=float)
        return amplitude * np.sin(np.pi * (x - x_ref) / width) ** power + offset

    return profile


def builtin_tp1():
    """Coupled parabolic benchmark on [0, 2] with f = M^2 N.

        dM/dt = 0.01 M_xx + f - (p + q) M
        dN/dt = 0.01 N_xx - f + p (1 - N)

    with p = 0.09, q = -0.004, M = 0 and N = 1 on the boundary, and
    sinusoidal initial perturbations.
    """
    p, q = 0.09, -0.004
    return ProblemSpec(
        lower=0.0,
        upper=2.0,
        eps1=0.01,
        eps2=0.01,
        theta0=0.0,
        gamma0=1.0,
        reaction=ReactionForm(alpha=2, beta=1),
        sign_M=+1,
        sign_N=-1,
        decay_M=p + q,
        decay_N=p,
        source_M=0.0,
        source_N=p,
        initial_M=sine_power_profile(0.01, 1, 2.0, 2.0, 0.0),
        initial_N=sine_power_profile(-0.12, 1, 2.0, 2.0, 1.0),
    )


def builtin_grayscott():
    """One-dimensional Gray-Scott model on [-50, 50] with f = M N^2.

        dM/dt = M_xx - f + p (1 - M)
        dN/dt = 0.01 N_xx + f - (p + q) N

    with feed p = 0.01, decay modifier q = 0.12, M = 1 and N = 0 on the
    boundary, and a sharp sin^100 pulse centred at x = 0.
    """
    p, q = 0.01, 0.12
    return ProblemSpec(
        lower=-50.0,
        upper=50.0,
        eps1=1.0,
        eps2=0.01,
        theta0=1.0,
        gamma0=0.0,
        reaction=ReactionForm(alpha=1, beta=2),
        sign_M=-1,
        sign_N=+1,
        decay_M=p,
        decay_N=p + q,
        source_M=p,
        source_N=0.0,
        initial_M=sine_power_profile(-0.5, 100, 50.0, 100.0, 1.0),
        initial_N=sine_power_profile(0.25, 100, 50.0, 100.0, 0.0),
    )


def picard_split(problem, B, prev_c, prev_d):
    """Linearization fields of a previous-iterate coefficient pair.

    ``B`` holds the basis values at the points the fields are wanted at,
    shape (size, points), as tabulated in ``assembly.Discretization``.
    Degenerate exponents fall back to full lagging: with beta = 0 the
    M-equation has no N factor to keep implicit, so omega = 0 and the whole
    reaction rides in gamma (and symmetrically for alpha = 0).
    """
    prev_c = np.asarray(prev_c, dtype=float)
    prev_d = np.asarray(prev_d, dtype=float)
    size = B.shape[0]
    if prev_c.shape != (size,) or prev_d.shape != (size,):
        raise ValueError(f"coefficient vectors must have length {size}")
    alpha, beta = problem.reaction.alpha, problem.reaction.beta
    M = problem.theta0 + prev_c @ B
    N = problem.gamma0 + prev_d @ B

    if beta == 0:
        omega = np.zeros_like(M)
        gamma = problem.reaction(M, N)
    else:
        omega = M ** alpha * N ** (beta - 1)
        gamma = omega * problem.gamma0

    if alpha == 0:
        phi = np.zeros_like(M)
        pi = problem.reaction(M, N)
    else:
        phi = M ** (alpha - 1) * N ** beta
        pi = phi * problem.theta0

    return PicardSplit(gamma=gamma, omega=omega, pi=pi, phi=phi)
