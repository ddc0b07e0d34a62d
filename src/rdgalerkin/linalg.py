"""Dense solves for the small coupled systems (at most ~24 x 24).

``lu_solve`` is one call of numpy's LAPACK solve (row-pivoted LU) and adds
the singularity test that every call applies: a lower bound on the 1-norm
condition number, from two probe right-hand sides that share the
factorization of b (after Hager, SIAM J. Sci. Stat. Comput. 5, 1984, and
Higham, ACM TOMS 14, 1988).  The module needs numpy alone.
``condition_estimate`` is a probe for callers outside the package: no
module of the package calls it.  The basis is legitimately ill-scaled on
wide domains, so a large condition number is a warning, never an error.
"""

import logging
import math

import numpy as np

log = logging.getLogger(__name__)

_COND_WARN = 1e10
_RCOND_FLOOR = 1e-13
# a probe bound below this multiple of the floor is replaced by the exact rcond
_PROBE_MARGIN = 10.0


class SingularMatrixError(ValueError):
    """Matrix singular to working precision; carries the reciprocal
    condition bound ``rcond`` that fell below the floor (0 when the LU
    met an exact zero pivot)."""

    def __init__(self, rcond):
        self.rcond = rcond
        super().__init__(
            "matrix singular to working precision: reciprocal 1-norm "
            f"condition bound {rcond:.3e} is below {_RCOND_FLOOR:g}"
        )


def lu_solve(matrix, rhs):
    """Solve A x = b by row-pivoted LU with a condition-number singularity test.

    A must be square, b of matching length, and both finite.  One solve
    takes P = [b | p1 | p2], with p1 all ones and p2 alternating +1, -1,
    so the probes share b's factorization.  Each probe has 1-norm n, so
    ||A^-1||_1 >= ||A^-1 p||_1 / n and

        rcond = 1 / (||A||_1 ||A^-1||_1) <= n / (||A||_1 max_j ||X[:, j]||_1)

    over the two probe columns.  A ``SingularMatrixError`` is raised when
    this bound is below 1e-13, when X is not finite, or when the LU meets
    an exact zero pivot.  Being an upper bound on rcond, it never flags a
    matrix whose true rcond is above the floor.  It can lie a few times
    above the true rcond, so a bound below 10 x 1e-13 is replaced by the
    exact rcond, from A^-1 (one more solve, against the identity), and the
    floor is applied to that.  Every system of the built-in problems at
    degrees up to 10 has a bound above 4e-7 and never takes this branch.
    """
    A = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    n = A.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs length {b.shape} does not match matrix {A.shape}")
    # a NaN or inf in A makes its 1-norm non-finite
    norm = np.abs(A).sum(axis=0).max()
    if not (math.isfinite(norm) and np.isfinite(b).all()):
        raise ValueError("non-finite entries in linear system")
    P = np.ones((n, 3))
    P[:, 0] = b
    P[1::2, 2] = -1.0
    try:
        X = np.linalg.solve(A, P)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(0.0) from None
    x_norm, p1_norm, p2_norm = np.abs(X).sum(axis=0).tolist()
    rcond = n / (norm * max(p1_norm, p2_norm))
    # a NaN or inf anywhere in X makes the sum of its column norms non-finite
    if not (rcond >= _RCOND_FLOOR and math.isfinite(x_norm + p1_norm + p2_norm)):
        raise SingularMatrixError(rcond)
    if rcond < _PROBE_MARGIN * _RCOND_FLOOR:
        rcond = 1.0 / (norm * np.abs(np.linalg.solve(A, np.eye(n))).sum(axis=0).max())
        if not rcond >= _RCOND_FLOOR:
            raise SingularMatrixError(rcond)
    return X[:, 0]


def condition_estimate(matrix):
    """Infinity-norm condition number; order of magnitude is what matters."""
    A = np.asarray(matrix, dtype=float)
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(0.0) from err
    cond = float(
        np.linalg.norm(A, np.inf) * np.linalg.norm(inv, np.inf)
    )
    if cond > _COND_WARN:
        log.warning("linear system condition estimate %.2e", cond)
    return cond
