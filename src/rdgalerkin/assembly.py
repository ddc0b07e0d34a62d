"""Assembly of the dense Galerkin matrices and load vectors.

For trial solutions M = theta0 + sum_j c_j B_j and N = gamma0 + sum_j d_j B_j
the weighted-residual equations reduce, per species, to

    C dc/dt + K_diff c + K_couple d = F

with C the mass ("forced") matrix, K_diff the diffusion-plus-decay
stiffness block, K_couple the iterate-weighted cross-coupling block, and F
the load vector.  All blocks are (m+1) x (m+1) dense; at the degrees this
package targets (m <= ~10) no sparsity machinery is warranted.

The basis is tabulated once, at the nodes of one quadrature rule, into a
``Discretization``; every function here works on those tables and never
evaluates the basis itself.  The integration-by-parts boundary bracket
eps * [B_j' B_i] is omitted from the stiffness block because every basis
member vanishes exactly at both endpoints.
"""

from dataclasses import dataclass

import numpy as np

from . import basis as basis_mod
from .linalg import lu_solve
from .quadrature import QuadratureRule


@dataclass(frozen=True)
class Discretization:
    """The iterate-independent arrays of one run, built once from (problem, basis, rule).

    ``B`` holds the basis values at the rule's nodes, shape (size, node
    count); ``C`` the mass matrix and ``K1`` / ``K4`` the stiffness blocks of
    the M and N equations (the basis derivatives they need are tabulated in
    ``build`` and not kept); ``F1_const`` / ``F2_const`` the
    iterate-independent parts (source - decay * boundary value) * int(B_i)
    of the two load vectors.
    """

    rule: QuadratureRule
    B: np.ndarray
    C: np.ndarray
    K1: np.ndarray
    K4: np.ndarray
    F1_const: np.ndarray
    F2_const: np.ndarray

    @classmethod
    def build(cls, problem, basis, rule):
        B = basis_mod.value_matrix(basis, rule.nodes)
        dB = basis_mod.derivative_matrix(basis, rule.nodes)
        w = rule.weights
        b_int = B @ w
        return cls(
            rule=rule,
            B=B,
            C=assemble_mass(B, w),
            K1=assemble_stiffness(B, dB, w, problem.eps1, problem.decay_M),
            K4=assemble_stiffness(B, dB, w, problem.eps2, problem.decay_N),
            F1_const=(problem.source_M - problem.decay_M * problem.theta0) * b_int,
            F2_const=(problem.source_N - problem.decay_N * problem.gamma0) * b_int,
        )


def assemble_mass(B, weights):
    """Pairwise basis-product integrals, symmetrized."""
    M = (B * weights) @ B.T
    return 0.5 * (M + M.T)


def assemble_stiffness(B, dB, weights, eps, decay):
    """eps * derivative products + decay * mass."""
    return eps * (dB * weights) @ dB.T + decay * assemble_mass(B, weights)


def assemble_coupling(B, weights, weight):
    """Weighted mass matrix with the iterate-dependent weight at the nodes.

    ``weight`` must already carry the equation's reaction sign, i.e. it
    is -sign_M * omega for the M-equation block and -sign_N * phi for the
    N-equation block.  A stacked weight of shape (k, node count) gives the
    k blocks, shape (k, size, size), in one product; each equals the block
    of its own weight bit for bit.
    """
    w = weights * weight
    K = (B * w[..., None, :]) @ B.T
    return 0.5 * (K + K.swapaxes(-1, -2))


def assemble_loads(problem, disc, split):
    """Load vectors for both species at one Picard iterate.

    F1 = sign_M * int(Gamma B_i) + (source_M - decay_M * theta0) * int(B_i)
    F2 = sign_N * int(Pi B_i)    + (source_N - decay_N * gamma0) * int(B_i)

    The second terms do not change per iterate: they are ``disc.F1_const``
    and ``disc.F2_const``.
    """
    B, w = disc.B, disc.rule.weights
    F1 = problem.sign_M * (B @ (w * split.gamma)) + disc.F1_const
    F2 = problem.sign_N * (B @ (w * split.pi)) + disc.F2_const
    return F1, F2


def project_initial(problem, disc):
    """Least-squares (Galerkin) projection of the initial data.

    Solves  C c0 = int (M0 - theta0) B_i  and the analogous system for d0,
    with C and the integrals taken on ``disc``'s rule.  Non-polynomial
    initial data (sin^100) needs a boosted point count, so the caller
    passes a discretization built on a finer rule than the time steps use.
    """
    B, nodes, w = disc.B, disc.rule.nodes, disc.rule.weights
    rhs_c = B @ (w * (problem.initial_M(nodes) - problem.theta0))
    rhs_d = B @ (w * (problem.initial_N(nodes) - problem.gamma0))
    c0 = lu_solve(disc.C, rhs_c)
    d0 = lu_solve(disc.C, rhs_d)
    return c0, d0
