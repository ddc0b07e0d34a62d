"""Dense solves for the small coupled systems (at most ~24 x 24).

Wraps LAPACK's partially-pivoted LU and adds the singularity diagnostic
that every ``lu_solve`` call applies.  ``condition_estimate`` is a probe for
callers outside the package: no module of the package calls it.  The basis
is legitimately ill-scaled on wide domains, so a large condition number is
a warning, never an error.
"""

import logging
import math

import numpy as np
import scipy.linalg

log = logging.getLogger(__name__)

_COND_WARN = 1e10
_PIVOT_REL_TOL = 1e-13


class SingularMatrixError(ValueError):
    """Matrix singular to working precision; carries the pivot index."""

    def __init__(self, pivot_index, pivot_value):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix singular to working precision: pivot {pivot_index} "
            f"has magnitude {abs(pivot_value):.3e}"
        )


def lu_solve(matrix, rhs):
    """Solve A x = b by row-pivoted LU with an explicit singularity check.

    A must be square, b of matching length, and both finite.
    """
    A = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if b.shape != (A.shape[0],):
        raise ValueError(f"rhs length {b.shape} does not match matrix {A.shape}")
    # a NaN or inf in A makes its largest magnitude, which also scales the
    # pivot floor, non-finite
    scale = np.abs(A).max()
    if not (math.isfinite(scale) and np.isfinite(b).all()):
        raise ValueError("non-finite entries in linear system")
    lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    floor = _PIVOT_REL_TOL * max(scale, np.finfo(float).tiny)
    k = int(np.argmin(pivots))
    if pivots[k] < floor:
        raise SingularMatrixError(k, pivots[k])
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def condition_estimate(matrix):
    """Infinity-norm condition number; order of magnitude is what matters."""
    A = np.asarray(matrix, dtype=float)
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(-1, 0.0) from err
    cond = float(
        np.linalg.norm(A, np.inf) * np.linalg.norm(inv, np.inf)
    )
    if cond > _COND_WARN:
        log.warning("linear system condition estimate %.2e", cond)
    return cond
