"""Closed form for the Hopf-symmetric metric family g00 = g11 = b^2,
g22 = g33 = a^2.

For two such metrics put u = a2 b1 and v = a1 b2.  The paper's form of the
potential (docs/derivation.md, section 2) is 0/0 on the surface u = v;
`_closed` evaluates the same potential as Carlson's R_D with two equal
arguments (section 2b), which is regular there.  V is exchange symmetric,
so take u <= v and put r = u / v, s = (1 - r^2) / (1 + r^2) and
L = log(v / u) = atanh s:

    V = 4 pi^2 / (1 + r^2)^2 [ (phi + psi (1 + r^2)) (T1 + T2)
                              + (phi r^2 + psi (1 + r^2)) (T3 + T4) ],
    phi = (L - s) / s^3 = sum_k s^(2k) / (2k + 3),
    psi = [1 - 4 r^2 L / (s (1 + r^2)^2)] / (2 s^2)
        = 4 r^2 / (1 + r^2)^2 sum_k (k + 1) s^(2k) / (2k + 3),
    T1 = (u (b1 - b2) / b2)^2,  T2 = (u (a1 - a2) / a1)^2,
    T3 = (a2 (b1 - b2))^2,      T4 = (b1 (a1 - a2))^2.

Every term is >= 0, phi = psi = 1/3 at s = 0 and psi = 1/2 at s = 1.

The paper's ratio form W(x, y) of x = b1/b2 and y = a1/a2 is the same
function at a unit second metric, V at a1 = y, b1 = x, a2 = b2 = 1 over
2 pi^2: the potential is invariant under a joint per-axis rescaling of
both metrics (docs/derivation.md), so `script_v` and
`potential_via_conjecture` evaluate the same `_scaled` at the unit second
metric.  The latter keeps W as a value and a power of two and multiplies in
a2^2 b2^2 from the frexp mantissas and exponents of a2 and b2, so that
neither W nor a2^2 b2^2 has to be representable on its own;
`geometry.scale_back` applies the power of two last.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .geometry import TWO_PI_SQ, DiagonalMetric, scale_back

LOG2 = math.log(2.0)
# below SERIES_CUT, phi and psi are summed from their series in t = s^2 <
# 1/4, highest power first: the 30 terms leave a tail below 4^-30 of the sum
SERIES_CUT = 0.5
SERIES = tuple((1.0 / (2 * k + 3), (k + 1.0) / (2 * k + 3)) for k in reversed(range(30)))


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


def from_diagonal(g: DiagonalMetric) -> HopfMetric | None:
    """The HopfMetric of g, or None unless g is Hopf-shaped: a0 == a1 and
    a2 == a3."""
    b0, b1, a2, a3 = g.scales
    if b0 == b1 and a2 == a3:
        return HopfMetric(a=a2, b=b0)
    return None


def _closed(a1: float, b1: float, a2: float, b2: float) -> float:
    """V of the Hopf pair (b1, b1, a1, a1), (b2, b2, a2, a2).  Raises
    ValueError where a scale is 0 or infinite (an overflowed ratio of
    script_v), and where V overflows."""
    scales = a1, b1, a2, b2
    if not (min(scales) > 0.0 and max(scales) < math.inf):
        raise ValueError(f"a scale factor is 0 or infinite for a1={a1!r}, b1={b1!r}, "
                         f"a2={a2!r}, b2={b2!r}")
    return scale_back(*_scaled(*scales), "the closed-form potential overflows double "
                      "precision for a1={!r}, b1={!r}, a2={!r}, b2={!r}", *scales)


def _scaled(a1: float, b1: float, a2: float, b2: float) -> tuple[float, int]:
    """(value, exp) with V = value 2^exp, for positive finite scales.

    r and L are taken from the frexp mantissas and exponents of u and v,
    and each T is held as a mantissa and a power of two, so no product
    leaves double range.  With q = r^2, w = 1 + q and psi = 1/2 + delta,
    where delta = 2 q (1 - q - L w) / (1 - q)^3 for s >= 1/2, the bracket
    is summed as

        V / (2 pi^2) = T1 + T2 + T3 + T4
                       + [2 phi (T1 + T2 + q (T3 + T4)) / w + (2 delta - q) sum T] / w,

    correctly rounded by fsum: V is exact where the correction cancels to
    below the rounding of the T (2 pi^2 at b1 = 6.8e-156, a1 = 6.7e-153
    against a unit metric)."""
    (ma1, ea1), (mb1, eb1), (ma2, ea2), (mb2, eb2) = map(math.frexp, (a1, b1, a2, b2))
    m, e = math.frexp(ma2 * mb1 / (ma1 * mb2))
    e += ea2 + eb1 - ea1 - eb2  # u / v = m 2^e, m in [1/2, 1)
    if e > 1 or (e == 1 and m > 0.5):
        return _scaled(a2, b2, a1, b1)
    r = math.ldexp(m, e)
    q = r * r
    w = 1.0 + q
    s = (1.0 - q) / w
    if s < SERIES_CUT:
        t = s * s
        phi = psi = 0.0
        for c_phi, c_psi in SERIES:
            phi = phi * t + c_phi
            psi = psi * t + c_psi
        delta = 4.0 * q / (w * w) * psi - 0.5
    else:
        log_ratio = -(math.log(m) + e * LOG2)
        phi = (log_ratio - s) / (s * s * s)
        p = 1.0 - q
        delta = 2.0 * q * (p - log_ratio * w) / (p * p * p)
    (mda, eda), (mdb, edb) = math.frexp(a1 - a2), math.frexp(b1 - b2)
    terms = (
        (ma2 * mb1 * mdb / mb2, ea2 + eb1 + edb - eb2),
        (ma2 * mb1 * mda / ma1, ea2 + eb1 + eda - ea1),
        (ma2 * mdb, ea2 + edb),
        (mb1 * mda, eb1 + eda),
    )
    exps = [k for t, k in terms if t]
    if not exps:
        return 0.0, 0
    top = max(exps)
    scaled = [math.ldexp(t, k - top) for t, k in terms]
    t1, t2, t3, t4 = (x * x for x in scaled)
    t12, t34 = t1 + t2, t3 + t4
    correction = (2.0 * phi * (t12 + q * t34) / w + (2.0 * delta - q) * (t12 + t34)) / w
    return TWO_PI_SQ * math.fsum((t1, t2, t3, t4, correction)), 2 * top


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
    """Bimetric factorized form 2 pi^2 W(x, y) sqrt(det g2) of the ratio
    variables x = b1/b2 and y = a1/a2, with sqrt(det g2) = a2^2 b2^2 for a
    Hopf metric.

    W comes from `_scaled` at the unit second metric as a value and a power
    of two, and a2 b2 = m 2^(ea + eb) from the frexp mantissas and
    exponents of a2 and b2, so neither W nor sqrt(det g2) has to be
    representable on its own: V = value m^2 2^(exp + 2 (ea + eb)), with the
    power of two applied last by `scale_back`.  Raises ValueError, naming
    h1 and h2, where x or y leaves double range and where V overflows."""
    y, x = h1.a / h2.a, h1.b / h2.b
    if not (min(x, y) > 0.0 and max(x, y) < math.inf):
        raise ValueError(f"a scale ratio of {h1} and {h2} leaves double range")
    (ma, ea), (mb, eb) = math.frexp(h2.a), math.frexp(h2.b)
    value, exp = _scaled(y, x, 1.0, 1.0)
    m = ma * mb
    return scale_back(value * m * m, exp + 2 * (ea + eb),
                      "the factorized potential overflows double precision for {}, {}", h1, h2)
