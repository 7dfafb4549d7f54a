"""Closed form for the Hopf-symmetric metric family g00 = g11 = b^2,
g22 = g33 = a^2.

For two such metrics, with u = a2 b1 and v = a1 b2, the interaction
potential is

    V = 2 pi^2 (F + G) / ((u - v)(u + v)^2),
    F = 4 a1^2 a2^2 b1^2 b2^2 (a1 - a2)(b1 - b2) log(v / u),
    G = (u - v)(u + v) B,
    B = a1 a2 (b1 - b2)(a1 b1^2 - a2 b2^2) + b1 b2 (a1 - a2)(a1^2 b1 - a2^2 b2).

One evaluator, `_closed`, takes it with G's factor (u - v)(u + v)
cancelled: with w = a1 b1 a2 b2 / (u + v),

    V = 2 pi^2 [ B / (u + v) + 4 w^2 (a1 - a2)(b1 - b2) log(v / u) / (u - v) ].

B is a sum of two products of single differences, so the reductions at
a1 = a2 and b1 = b2 hold to machine precision.  The log term is 0/0 on the
surface u = v, where the singularity is removable; inside a narrow relative
tube around it the elliptic closed form (carlson.potential_elliptic), which
has no such singularity, is used instead.

The paper's ratio form W(x, y) of x = b1/b2 and y = a1/a2 is the same
function at a unit second metric, V at a1 = y, b1 = x, a2 = b2 = 1 over
2 pi^2: the potential is invariant under a joint per-axis rescaling of
both metrics (docs/derivation.md), so `script_v` and
`potential_via_conjecture` call the same evaluator, the latter at a second
metric of equal scales near sqrt(a2 b2), a power of two, so that neither W
nor a2^2 b2^2 has to be representable on its own.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .carlson import potential_elliptic
from .geometry import TWO_PI_SQ, DiagonalMetric

# relative half-width of the fallback tube around the singular surface
SINGULAR_TUBE = 1e-6


class HopfMetric(namedtuple("HopfMetric", "a b")):
    """Two-parameter diagonal metric: scale b on axes 0, 1 and a on axes 2, 3
    (an immutable value type, as geometry.DiagonalMetric)."""

    __slots__ = ()

    def __new__(cls, a, b):
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"a must be positive, got {a}")
        if not (math.isfinite(b) and b > 0.0):
            raise ValueError(f"b must be positive, got {b}")
        return tuple.__new__(cls, (a, b))


def to_diagonal(h: HopfMetric) -> DiagonalMetric:
    return DiagonalMetric((h.b, h.b, h.a, h.a))


def _closed(a1: float, b1: float, a2: float, b2: float) -> float:
    """V of the Hopf pair (b1, b1, a1, a1), (b2, b2, a2, a2), as in the
    module docstring.

    V has degree 4 in the scales and its terms multiply up to six of them,
    so it is evaluated at the scales times the power of two that brings
    their geometric mean near 1, and scaled back (exact).  Where a product
    still overflows (scales far apart), V is evaluated
    again by `_closed_exact`.  Inside the tube |u - v| < SINGULAR_TUBE *
    (u + v), where the log term is 0/0, potential_elliptic is used.  The log
    is evaluated as log1p of the relative difference so it stays accurate
    when v / u is close to 1; where that difference rounds to -1 (a ratio
    below about 1e-16) as log(v) - log(u).  Raises ValueError where the
    value overflows, where the scales span more than 2^1000 (u or v could
    leave double range) or one is 0, and where potential_elliptic does."""
    scales = (a1, b1, a2, b2)
    exps = [math.frexp(s)[1] for s in scales]
    pair = f"a1={a1!r}, b1={b1!r}, a2={a2!r}, b2={b2!r}"
    # a 0 is a ratio of potential_via_conjecture that underflowed
    if not min(scales) > 0.0 or max(exps) - min(exps) > 1000:
        raise ValueError(f"the scale factors span a ratio above 2^1000 for {pair}")
    k = sum(exps) // 4
    a1, b1, a2, b2 = (math.ldexp(s, -k) for s in scales)
    u, v = a2 * b1, a1 * b2
    diff, total = u - v, u + v
    if abs(diff) < SINGULAR_TUBE * total:
        a1, b1, a2, b2 = scales
        return potential_elliptic(
            DiagonalMetric((b1, b1, a1, a1)), DiagonalMetric((b2, b2, a2, a2))
        )
    bracket = a1 * a2 * (b1 - b2) * (a1 * b1 * b1 - a2 * b2 * b2) + b1 * b2 * (
        a1 - a2
    ) * (a1 * a1 * b1 - a2 * a2 * b2)
    w = a1 * b1 * a2 * b2 / total
    rel = (v - u) / u
    log_ratio = math.log1p(rel) if rel > -1.0 else math.log(v) - math.log(u)
    value = TWO_PI_SQ * (
        bracket / total + 4.0 * w * w * (a1 - a2) * (b1 - b2) * log_ratio / diff
    )
    if math.isfinite(value):
        # ldexp raises OverflowError past 2^1024: test the exponent first
        if math.frexp(value)[1] + 4 * k <= 1024:
            return math.ldexp(value, 4 * k)
    else:
        try:
            return _closed_exact(*scales)
        except OverflowError:
            pass
    raise ValueError(f"the closed-form potential overflows double precision for {pair}")


def _closed_exact(a1: float, b1: float, a2: float, b2: float) -> float:
    """_closed's formula off the tube in exact rational arithmetic, where
    only log(v / u) and the result are rounded: for pairs whose products
    leave double range at the mean scaling although V need not, such as
    b1 = 6.8e-156, a1 = 6.7e-153 against a unit second metric.  The log
    is split as log(m) + s log 2 with v / u = m 2^s and m in (1/2, 2), so
    that it stays accurate beyond double range.  Raises OverflowError where
    V does."""
    from fractions import Fraction

    a1, b1, a2, b2 = (Fraction(s) for s in (a1, b1, a2, b2))
    u, v = a2 * b1, a1 * b2
    total = u + v
    bracket = a1 * a2 * (b1 - b2) * (a1 * b1 * b1 - a2 * b2 * b2) + b1 * b2 * (
        a1 - a2
    ) * (a1 * a1 * b1 - a2 * a2 * b2)
    w = a1 * b1 * a2 * b2 / total
    ratio = v / u
    if abs(ratio - 1) < 0.5:
        log_ratio = math.log1p(ratio - 1)
    else:
        n, d = ratio.numerator, ratio.denominator
        s = n.bit_length() - d.bit_length()
        log_ratio = math.log((n << max(-s, 0)) / (d << max(s, 0))) + s * math.log(2.0)
    value = bracket / total + 4 * w * w * (a1 - a2) * (b1 - b2) * Fraction(log_ratio) / (u - v)
    return float(Fraction(TWO_PI_SQ) * value)


def potential_closed(h1: HopfMetric, h2: HopfMetric) -> float:
    """Closed-form interaction potential of two Hopf metrics; raises
    ValueError as `_closed` does."""
    return _closed(h1.a, h1.b, h2.a, h2.b)


def script_v(x: float, y: float) -> float:
    """Potential in the ratio variables x = b1/b2, y = a1/a2:

        V(x, y) = 4 x^2 y^2 (x-1)(y-1) / ((x-y)(x+y)^2) * log(y/x)
                  + x^2 y^2 + 1 - 2 x y (x y + 1) / (x + y),

    evaluated as the closed form at the unit second metric, over 2 pi^2."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"ratio variables must be positive, got x={x}, y={y}")
    return _closed(y, x, 1.0, 1.0) / TWO_PI_SQ


def potential_via_conjecture(h1: HopfMetric, h2: HopfMetric) -> float:
    """Bimetric factorized form 2 pi^2 W(b1/b2, a1/a2) sqrt(det g2), with
    sqrt(det g2) = a2^2 b2^2 for a Hopf metric.

    By degree-4 homogeneity this is _closed(2^j y, 2^j x, 2^j, 2^j) times
    (a2 b2 / 2^(2j))^2 in [1, 64), where 2^(2j) <= a2 b2: the exact 2^j only
    shifts _closed's own scaling, so neither W nor sqrt(det g2) has to be
    representable, and this returns wherever the closed form does at scale
    ratios up to 1e80.  Raises ValueError as `_closed` does, and where the
    product is not finite."""
    (ma, ea), (mb, eb) = math.frexp(h2.a), math.frexp(h2.b)
    j = (ea + eb - 2) // 2
    s, rest = math.ldexp(1.0, j), math.ldexp(ma * mb, ea + eb - 2 * j)
    value = _closed(s * (h1.a / h2.a), s * (h1.b / h2.b), s, s) * rest * rest
    if not math.isfinite(value):
        raise ValueError(f"the factorized potential overflows double precision for {h1}, {h2}")
    return value
