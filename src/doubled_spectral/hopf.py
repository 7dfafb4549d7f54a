"""Closed forms for the Hopf-symmetric metric family g00 = g11 = b^2,
g22 = g33 = a^2.

For two such metrics the interaction potential has the closed form

    V = 2 pi^2 (F + G) / ((a2 b1 - a1 b2)(a2 b1 + a1 b2)^2)

with a logarithmic term F and a polynomial term G.  The denominator vanishes
on the surface a2 b1 = a1 b2 where the singularity is removable; inside a
narrow relative tube around it the one-dimensional Feynman-parameter
integral (feynman.potential_1d), which has no such singularity, is used
instead.  Everything is kept in factored form (products of single
differences) so the reductions at a1 = a2 and b1 = b2 hold to machine
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .feynman import potential_1d
from .geometry import TWO_PI_SQ, DiagonalMetric

# relative half-width of the fallback tube around the singular surface
SINGULAR_TUBE = 1e-6

# relative |x - y| below which the ratio-variable function switches to its
# analytic limit
RATIO_LIMIT_TUBE = 1e-6


@dataclass(frozen=True)
class HopfMetric:
    """Two-parameter diagonal metric: scale b on axes 0, 1 and a on axes 2, 3."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"a must be positive, got {self.a}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"b must be positive, got {self.b}")


def to_diagonal(h: HopfMetric) -> DiagonalMetric:
    return DiagonalMetric((h.b, h.b, h.a, h.a))


def f_term(a1: float, a2: float, b1: float, b2: float) -> float:
    """Logarithmic part: 4 a1^2 a2^2 b1^2 b2^2 (a1-a2)(b1-b2) log(a1 b2 / (a2 b1)).

    The log is evaluated as log1p of the relative difference so it stays
    accurate when a1 b2 / (a2 b1) is close to 1; where that difference
    rounds to -1 (a ratio below about 1e-16) as log(v) - log(u).
    """
    u = a2 * b1
    v = a1 * b2
    rel = (v - u) / u
    log_ratio = math.log1p(rel) if rel > -1.0 else math.log(v) - math.log(u)
    return 4.0 * (a1 * a1) * (a2 * a2) * (b1 * b1) * (b2 * b2) * (a1 - a2) * (
        b1 - b2
    ) * log_ratio


def g_term(a1: float, a2: float, b1: float, b2: float) -> float:
    """Polynomial part: (a2^2 b1^2 - a1^2 b2^2) [ a1^2 b1^2 a2 (b1 - 2 b2)
    + a2^2 b2^2 a1 (b2 - 2 b1) + a1^3 b1^2 b2 + a2^3 b2^2 b1 ].

    Both factors are computed in factored form: the difference of squares as
    (u - v)(u + v), and the bracket regrouped into two products of single
    differences (an algebraic identity), which removes the cancellation at
    a1 = a2 and b1 = b2.
    """
    u = a2 * b1
    v = a1 * b2
    bracket = a1 * a2 * (b1 - b2) * (a1 * b1 * b1 - a2 * b2 * b2) + b1 * b2 * (
        a1 - a2
    ) * (a1 * a1 * b1 - a2 * a2 * b2)
    return (u - v) * (u + v) * bracket


def potential_closed(h1: HopfMetric, h2: HopfMetric) -> float:
    """Closed-form interaction potential of two Hopf metrics.

    Inside the relative tube |a2 b1 - a1 b2| < SINGULAR_TUBE * (a2 b1 + a1 b2)
    the 0/0 form is avoided by falling back to the one-dimensional integral
    potential_1d.  Raises ValueError where the value overflows.
    """
    a1, b1 = h1.a, h1.b
    a2, b2 = h2.a, h2.b
    u = a2 * b1
    v = a1 * b2
    diff = u - v
    total = u + v
    if abs(diff) < SINGULAR_TUBE * total:
        return potential_1d(to_diagonal(h1), to_diagonal(h2))
    fval = f_term(a1, a2, b1, b2)
    gval = g_term(a1, a2, b1, b2)
    value = TWO_PI_SQ * (fval + gval) / (diff * total * total)
    if not math.isfinite(value):
        raise ValueError(
            f"the closed-form potential overflows double precision for "
            f"a1={a1!r}, b1={b1!r}, a2={a2!r}, b2={b2!r}"
        )
    return value


def script_v(x: float, y: float) -> float:
    """Potential in the ratio variables x = b1/b2, y = a1/a2:

        V(x, y) = 4 x^2 y^2 (x-1)(y-1) / ((x-y)(x+y)^2) * log(y/x)
                  + x^2 y^2 + 1 - 2 x y (x y + 1) / (x + y)

    On |x - y| < RATIO_LIMIT_TUBE * max(x, y) the log coefficient is a 0/0
    form; the analytic limit (z-1)^2 (z^2+1) is used instead, evaluated at
    the midpoint z = (x+y)/2 so the function stays exactly symmetric.  The
    log is taken as in f_term.
    """
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"ratio variables must be positive, got x={x}, y={y}")
    if abs(x - y) < RATIO_LIMIT_TUBE * max(x, y):
        z = 0.5 * (x + y)
        zm = z - 1.0
        return zm * zm * (z * z + 1.0)
    xy = x * y
    rel = (y - x) / x
    log_ratio = math.log1p(rel) if rel > -1.0 else math.log(y) - math.log(x)
    log_term = (
        4.0 * xy * xy * (x - 1.0) * (y - 1.0) / ((x - y) * (x + y) * (x + y))
    ) * log_ratio
    return log_term + xy * xy + 1.0 - 2.0 * xy * (xy + 1.0) / (x + y)


def potential_via_conjecture(h1: HopfMetric, h2: HopfMetric) -> float:
    """Bimetric factorized form 2 pi^2 V(b1/b2, a1/a2) sqrt(det g2), with
    sqrt(det g2) = a2^2 b2^2 for a Hopf metric."""
    det_root = (h2.a * h2.a) * (h2.b * h2.b)
    return TWO_PI_SQ * script_v(h1.b / h2.b, h1.a / h2.a) * det_root
