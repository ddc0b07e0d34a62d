"""Galerkin weighted-residual solver for coupled reaction-diffusion systems.

Trial solutions are expansions in an endpoint-vanishing Bernstein-type
polynomial basis; time integration is theta-weighted (backward difference
at theta = 1, trapezoidal at theta = 0.5) with an inner Picard loop on the
nonlinear coupling.
"""

from .basis import BasisSpec
from .norms import NormReport, evaluate, self_convergence
from .problems import (
    PicardSplit,
    ProblemSpec,
    ReactionForm,
    builtin_grayscott,
    builtin_tp1,
    picard_split,
)
from .quadrature import QuadratureRule, gauss_legendre, integrate
from .stepper import CoefficientState, PicardConvergenceError, SolverConfig, run, step

__all__ = [
    "BasisSpec",
    "CoefficientState",
    "NormReport",
    "PicardConvergenceError",
    "PicardSplit",
    "ProblemSpec",
    "QuadratureRule",
    "ReactionForm",
    "SolverConfig",
    "builtin_grayscott",
    "builtin_tp1",
    "evaluate",
    "gauss_legendre",
    "integrate",
    "picard_split",
    "run",
    "self_convergence",
    "step",
]

__version__ = "0.1.0"
