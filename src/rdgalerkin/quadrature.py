"""Gauss-Legendre quadrature on arbitrary intervals.

All spatial integrals in assembly and initial projection are polynomial
(the trial fields are polynomials of degree m+2 and the reaction terms are
monomials in them), so a fixed rule chosen generously enough makes every
assembled entry exact up to rounding.  ``default_point_count`` provides
that choice; callers with non-polynomial data (projection of sin^100
initial profiles) should boost the count themselves.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


def default_point_count(degree):
    """Point count exact for every integrand arising from cubic reactions.

    Trial fields have polynomial degree m+2; a cubic reaction term weighted
    by a test function reaches degree 4(m+2).  An n-point rule integrates
    degree 2n-1 exactly, so 2m+8 points suffice; four more are kept as
    slack (24 points at m=6).
    """
    return 2 * degree + 12


def gauss_legendre(point_count, lower, upper):
    """Standard Gauss-Legendre rule affinely mapped to [lower, upper]."""
    if point_count < 1:
        raise ValueError(f"point_count must be >= 1, got {point_count}")
    if not upper > lower:
        raise ValueError(f"upper ({upper}) must exceed lower ({lower})")
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(point_count)
    half = 0.5 * (upper - lower)
    mid = 0.5 * (upper + lower)
    return QuadratureRule(nodes=mid + half * ref_nodes, weights=half * ref_weights)


def integrate(rule, f):
    """Apply the rule to a callable: sum of w_i * f(x_i)."""
    return float(np.dot(rule.weights, f(rule.nodes)))
