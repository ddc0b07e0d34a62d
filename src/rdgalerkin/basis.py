"""Endpoint-vanishing Bernstein-type polynomial basis on an interval [L, U].

Each family member is the classical Bernstein polynomial of degree m on
[L, U] multiplied by an extra (x - L)(U - x) factor, so every member
vanishes at both endpoints and Dirichlet boundary data can be carried by a
constant offset in the trial solution:

    B_n(x) = C(m, n) * (x - L)^n * (U - x)^(m - n) * (x - L)(U - x) / (U - L)^m

for n = 0..m.  The extra factor is deliberately NOT divided by (U - L)^2,
so on wide domains the members (and hence the expansion coefficients) carry
a scale of roughly ((U - L)/2)^2.  Downstream linear algebra tolerates this;
re-normalizing would change every coefficient table this package emits.
"""

import numbers
from dataclasses import dataclass
from math import comb

import numpy as np


def is_integer(value):
    """An integer of any kind (numpy's included), but not a bool; the
    package's one test of an integer setting."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class BasisSpec:
    """Interval bounds and degree defining one basis family of m+1 members."""

    lower: float
    upper: float
    degree: int

    def __post_init__(self):
        if not self.upper > self.lower:
            raise ValueError(f"upper: must exceed lower ({self.lower}), got {self.upper}")
        if not is_integer(self.degree):
            raise ValueError(f"degree: must be an integer, got {self.degree!r}")
        if self.degree < 0:
            raise ValueError(f"degree: must be >= 0, got {self.degree}")

    @property
    def size(self):
        """Number of family members (degree + 1)."""
        return self.degree + 1

    @property
    def width(self):
        return self.upper - self.lower


def _check_index(spec, n):
    if not 0 <= n <= spec.degree:
        raise IndexError(f"basis index {n} outside 0..{spec.degree}")


def _check_domain(spec, x):
    x = np.asarray(x, dtype=float)
    if np.any(x < spec.lower) or np.any(x > spec.upper):
        raise ValueError(
            f"evaluation point outside [{spec.lower}, {spec.upper}]"
        )
    return x


def value(spec, n, x):
    """Evaluate member n at x (scalar or array).

    Exactly zero at both endpoints: the (x - L) and (U - x) factors are
    computed directly, so no cancellation is involved.
    """
    _check_index(spec, n)
    x = _check_domain(spec, x)
    m = spec.degree
    a = x - spec.lower
    b = spec.upper - x
    out = comb(m, n) * a ** n * b ** (m - n) * a * b / spec.width ** m
    return out if out.ndim else float(out)


def derivative(spec, n, x):
    """Analytic first derivative of member n at x (scalar or array)."""
    _check_index(spec, n)
    x = _check_domain(spec, x)
    m = spec.degree
    a = x - spec.lower
    b = spec.upper - x
    # B = C * a^(n+1) * b^(m-n+1) / W^m; product rule on the two factors.
    out = (
        comb(m, n)
        * (((n + 1) * a ** n * b ** (m - n + 1)) - ((m - n + 1) * a ** (n + 1) * b ** (m - n)))
        / spec.width ** m
    )
    return out if out.ndim else float(out)


def value_matrix(spec, x):
    """All members evaluated at the points x, shape (size, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.array([value(spec, n, x) for n in range(spec.size)])


def derivative_matrix(spec, x):
    """All member derivatives at the points x, shape (size, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.array([derivative(spec, n, x) for n in range(spec.size)])
