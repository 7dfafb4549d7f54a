"""Deterministic product quadrature on the unit 3-sphere.

The sphere is parametrized by Hopf-like coordinates

    xi = (sqrt(1-t) cos(phi), sqrt(1-t) sin(phi),
          sqrt(t)   cos(psi), sqrt(t)   sin(psi)),

with t in [0, 1] and phi, psi in [0, 2pi).  The substitution t = sin^2(theta)
absorbs the cos(theta) sin(theta) Jacobian, so the surface element becomes
dS = (1/2) dt dphi dpsi and the natural rule is Gauss-Legendre in t times
periodic trapezoid in each angle.  Smooth integrands converge spectrally.

Nodes.  The Gauss-Legendre nodes x in [-1, 1], t = (1 + x)/2, are the roots
of P_level.  Newton's method on the three-term recurrence finds the
nonnegative half from Tricomi's guesses in 3 or 4 steps, and the rest
follow by symmetry: O(level^2) operations, O(level) memory and no
eigensolve, so building a rule imports no numpy.polynomial and calls no
LAPACK routine.  The weight 2 / ((1 - x^2) P_level'(x)^2) comes from the
last Newton pass, moved to first order by its step to the root, and the
weights are normalized to sum 2.  Against 34-digit references (mpmath) at
every level from 4 to 256 the weights are within 4.1e-13 relative, where
numpy's eigensolver-based leggauss is off by up to 1.6e-10, and the nodes
within 5 ulp (leggauss: 3), the worst at nodes near 0, where that is 4e-18.

One evaluator is built on the rule: the interaction potential of a pair of
diagonal metrics, the oracle of its closed forms.  The kinetic term is the
identity of `geometry.kinetic_term` and the rational integral
int dS / (xi^T A xi) the closed form `carlson.rational_integral`; the tests
check both against the product rule.

Fold.  On the angle grid phi_k = pi k / level (k = 0 .. 2 level - 1), the
maps phi -> -phi and phi -> pi - phi send a node to a sign flip of its
coordinates.  Each angle grid therefore collapses onto level//2 + 1 orbits,
represented by k = 0 .. level//2 in the first quadrant, with 2 members at
k = 0 and at k = level/2 (even level) and 4 elsewhere, weighted by orbit
size.  An integrand of z = xi^2 alone takes one value per orbit, so its
folded sum is the product rule's sum regrouped.

Layout.  On the node grid t x phi x psi the squared coordinates factor,
z = ((1-t) cos^2 phi, (1-t) sin^2 phi, t cos^2 psi, t sin^2 psi), and so
does the weight.  A rule stores only these factors: the t factor (1-t, t)
with the t weights, and the angle factor (cos^2, sin^2) of the orbit
representatives with their weights, which include the orbit size.

Closed-form angle.  A quadratic form sum_j c_j z_j is X cos^2 psi +
Y sin^2 psi, with X = P + c_2 t, Y = P + c_3 t and
P = (1-t)(c_0 cos^2 phi + c_1 sin^2 phi): X and Y are tables over the
(phi, t) plane.  The psi integral of the potential's integrand is exact in
X and Y: it is a first derivative of int dpsi / (Q_1 Q_2) for the pair of
forms.  Its numerator form is the sum of its denominators:
s_l = A_{1,l}^2 + A_{2,l}^2 = c1_l + c2_l, so S.z = Q_1 + Q_2 and

    (D.z)(S.z) / (Q_1^2 Q_2^2) = (D.z) [1 / (Q_1 Q_2^2) + 1 / (Q_1^2 Q_2)].

A derivative of Q_i in X_i brings down cos^2 psi and one in Y_i sin^2 psi,
so the psi integral of the right side is
-D_X (d/dX_1 + d/dX_2) J - D_Y (d/dY_1 + d/dY_2) J of
J = int dpsi / (Q_1 Q_2).  With alpha = sqrt(X_1), beta = sqrt(Y_1),
gamma = sqrt(X_2), delta = sqrt(Y_2), p = alpha gamma, r = beta delta and
sigma = alpha delta + beta gamma, J = 2 pi (p + r) / (p r sigma), and with
C = (alpha beta + gamma delta)(1/p + 1/r)

    int_0^{2pi} (D.z)(S.z) / (Q_1^2 Q_2^2) dpsi
        = pi / sigma^2 [ D_X (C + (X_1 + X_2) sigma / p^2) / p
                         + D_Y (C + (Y_1 + Y_2) sigma / r^2) / r ].

Every term is positive, so nothing cancels, not even where
X_1 / Y_1 = X_2 / Y_2.  `potential_numeric` therefore sums the
level x (level//2 + 1) plane of t nodes and phi representatives (2,112
points at level 64) in one np.sum; the product rule's 2 level psi nodes are
replaced by their limit.  The pair of axes on psi (z_2, z_3) is integrated
exactly, so which pair goes there matters: the potential puts there the two
axes of largest ratio max(a1_j, a2_j) / min(a1_j, a2_j).

Normalization.  By the lemma of docs/derivation.md section 1 with
L = diag(1/m_j), V(g1, g2) = (prod m_j) V(a1/m, a2/m) for any m_j > 0, so
the plane sums a normalized pair.  The integrand has a spike where a
sheet's Q is small, as narrow as the sheet's coefficients are spread.  Axis
j of ratio rho_j is divided by the geometric mean m_j = sqrt(a1_j a2_j)
while rho_j <= 100, which spreads each sheet's 1/a^2 by rho_j on that axis
instead of rho_j^2 in one sheet, and by the larger scale beyond it, which
leaves one sheet at 1 there.  At level 64, against the exact values of
docs/derivation.md section 4, the geometric mean's error rises with
rho_j and the larger scale's falls, like 6.7e-3 / rho_j on one wide axis;
they cross near rho = 400 with one wide axis, 300 with two and 65 with
three, of which only two go on psi.  The limit 100 keeps the worst of these
patterns at 5e-5, two wide axes just beyond it; 300 would let three wide
axes reach 1.5e-3.  Two wide axes the opposite way, (s, 1/s, 1, 1), are
the weak case: 2e-4 off at s = 150 and 6.7e-3 from s = 1,000 on, where
dividing both axes by one sheet's scales is 0.2 to 0.5 off.  The pair (1e10, 1, 1, 1), (1, 1, 1, 1) is 6.7e-13 off,
(100, 100, 1, 1) 4.6e-10 and (30, 30, 1, 1) 1.1e-15, where the rule summed
unnormalized was 1.0, 0.47 and 4.6e-3 off.  m_j comes from the frexp
mantissas with the exponent halved, so that 2^k g1, 2^k g2 give exactly
2^k m_j, for odd k too, and the normalized rows do not change; prod m_j is
carried as a mantissa and a power of two, taken in canonical axis order,
and applied to the sum as the scale of the rows is.

Memo.  The potential puts the axes in a canonical order, ascending ratio
with ties to the smaller scale and then to the first sheet's, and the two
sheets too, the smaller coefficient row first.  The plane pairs the sheets
only through commutative sums and products, so the sheet order changes no
bit, and it makes exchange invariance structural: V(g1, g2) and V(g2, g1)
are one sum, as are a pair and its joint axis permutations.
`_potential_sum` memoizes the plane sum on the rule and the normalized,
power-of-two scaled rows, with prod m_j and the scale applied outside, in
a bounded two-entry lru_cache, which is thread-safe.  A hypothesis trial
sums two planes, the pair's and the rescaled pair's, whose rows differ from
the pair's only in rounding; its permuted and exchanged pairs reuse the
pair's.  Rules hash by identity, so a rule with other arrays never shares
an entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# kinetic_term and rational_integral are unused here, but the benchmark's
# layer tracer wraps `s3quad.kinetic_term` and `s3quad.rational_integral` and
# looks the names up in this module; keep the bindings.
from .carlson import rational_integral  # noqa: F401
from .geometry import (  # noqa: F401
    MAX_LEVEL,
    MIN_LEVEL,
    TWO_PI_SQ,
    DiagonalMetric,
    check_inverse_squares,
    kinetic_term,
    scale_back,
)


# Newton's method on P_level stops once no node moves by more than
# _NEWTON_TOL; from Tricomi's guesses levels 4 to 256 take 3 or 4 steps
_NEWTON_STEPS = 8
_NEWTON_TOL = 4.0 * np.finfo(float).eps

# potential_numeric scales an axis by the geometric mean of its two scales
# while their ratio is at most this, and by the larger scale beyond it (see
# Normalization in the module docstring for the calibration)
_GEOMETRIC_LIMIT = 100.0


@dataclass(frozen=True, eq=False)
class SphereRule:
    """Immutable quadrature rule of a given level, stored as the factors of
    its fold (see the module docstring).

    `t_factor` (2, level) holds the rows 1-t and t of the Gauss-Legendre
    nodes in t, `t_weights` (level,) their weights.  `angle_factor` (2, K)
    holds the rows cos^2 and sin^2 of the K = level//2 + 1 orbit
    representatives of one angle, `angle_weights` (K,) their weights times
    the orbit size.  With (u, t) = t_factor and (c, s) = angle_factor, node
    (i, k1, k2) has the squares (u_i c_k1, u_i s_k1, t_i c_k2, t_i s_k2)
    and the weight t_weights[i] angle_weights[k1] angle_weights[k2]; the
    weights sum to 2 pi^2, the area of the 3-sphere.  All arrays are
    read-only; rules are safe to share between threads, and compare and
    hash by identity.
    """

    level: int
    t_factor: np.ndarray = field(repr=False)
    t_weights: np.ndarray = field(repr=False)
    angle_factor: np.ndarray = field(repr=False)
    angle_weights: np.ndarray = field(repr=False)

    @property
    def node_count(self) -> int:
        """Size of the product rule the fold regroups, 4 * level^3."""
        return 4 * self.level**3


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_n(x), P_n'(x) and 1 - x^2, elementwise for |x| < 1, by the
    three-term recurrence (j P_j = (2j-1) x P_{j-1} - (j-1) P_{j-2}) and
    (1 - x^2) P_n' = n (P_{n-1} - x P_n)."""
    prev = np.ones_like(x)
    p = x
    for j in range(2, n + 1):
        prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
    u = (1.0 - x) * (1.0 + x)
    return p, n * (prev - x * p) / u, u


def _gauss_legendre(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the `level`-point Gauss-Legendre rule
    on [-1, 1], by Newton's method on P_level (see the module docstring)."""
    n = level
    # Tricomi's guesses for the nonnegative nodes, largest first
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - 1.0 / (8 * n**2) + 1.0 / (8 * n**3)) * np.cos(
        math.pi * (4 * k - 1) / (4 * n + 2)
    )
    for _ in range(_NEWTON_STEPS):
        p, dp, u = _legendre(n, x)
        step = p / dp
        # w = 2 / ((1 - x^2) P_n'^2) at the root, to first order in the
        # step; d log w / dx = -2 x / (1 - x^2)
        w = 2.0 / (u * dp * dp) * (1.0 + 2.0 * x * step / u)
        x = x - step
        if float(np.abs(step).max()) <= _NEWTON_TOL:
            break
    else:
        raise AssertionError(f"Newton's method found no level-{level} nodes")
    # mirror onto the negative nodes, ascending; an odd level's middle node
    # is 0
    half = n // 2
    x = np.concatenate([-x, x[half - 1 :: -1]])
    w = np.concatenate([w, w[half - 1 :: -1]])
    if n % 2:
        x[half] = 0.0
    return x, w * (2.0 / np.sum(w))


def _factors(level: int) -> SphereRule:
    """The rule of `level`, built from its t and angle factors."""
    x, wx = _gauss_legendre(level)
    # t = (1 + x) / 2; both rows come from x, so 1 - t keeps its relative
    # accuracy near t = 1
    t_factor = 0.5 * np.stack([1.0 - x, 1.0 + x])
    # dS = (1/2) dt dphi dpsi: one half from dt = dx / 2, one from dS
    t_weights = 0.25 * wx

    # k represents the orbit {k, level-k, level+k, 2 level-k} of the angle
    # index, which has 2 members at k = 0 and k = level/2
    k = np.arange(level // 2 + 1)
    mult = np.full(k.shape, 4.0)
    mult[0] = 2.0
    if level % 2 == 0:
        mult[-1] = 2.0
    ang = math.pi * k / level
    angle_factor = np.stack([np.cos(ang) ** 2, np.sin(ang) ** 2])
    # multiplicities are powers of two, so an orbit weight is exactly the
    # sum of the product-rule weights of its members
    angle_weights = mult * (math.pi / level)

    total = math.fsum(t_weights.tolist()) * math.fsum(angle_weights.tolist()) ** 2
    if abs(total - TWO_PI_SQ) > 1e-12 * TWO_PI_SQ:
        raise AssertionError(f"weight sum {total!r} deviates from 2 pi^2")
    for rows in (t_factor, angle_factor):
        if float(np.abs(rows[0] + rows[1] - 1.0).max()) > 1e-14:
            raise AssertionError("rule produced a node off the unit sphere")

    arrays = (t_factor, t_weights, angle_factor, angle_weights)
    for a in arrays:
        a.flags.writeable = False
    return SphereRule(level, *arrays)


def build_rule(level: int) -> SphereRule:
    """Product rule with `level` Gauss-Legendre nodes in t and 2*level
    equispaced nodes in each angle (4*level^3 nodes), stored as the factors
    of its fold.  Raises ValueError unless
    MIN_LEVEL <= level <= MAX_LEVEL, before anything is allocated."""
    level = int(level)
    if level < MIN_LEVEL:
        raise ValueError(f"level must be >= {MIN_LEVEL}, got {level}")
    if level > MAX_LEVEL:
        raise ValueError(f"level must be <= {MAX_LEVEL}, got {level}")
    return _factors(level)


def active_backend() -> str:
    """Name of the node-reduction implementation: always "numpy".

    Kept for callers that record it, such as the benchmark's run record.
    """
    return "numpy"


def get_threads() -> int:
    """Worker count of the node reduction: always 1.

    The plane sums in the calling thread.  Kept for callers that record
    the worker count, such as the benchmark's run record.
    """
    return 1


def _plane(rule: SphereRule, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """The (r, K, level) tables X and Y of the forms sum_j c_j z_j, rows of
    the (r, 4) coeffs, over the phi representatives and t nodes: each form
    is X cos^2 psi + Y sin^2 psi (see the module docstring)."""
    c = np.asarray(coeffs, dtype=float)
    u, t = rule.t_factor
    cos2, sin2 = rule.angle_factor
    p = (c[:, 0, None] * cos2 + c[:, 1, None] * sin2)[:, :, None] * u
    return p + c[:, 2, None, None] * t, p + c[:, 3, None, None] * t


def _plane_sum(rule: SphereRule, values: np.ndarray) -> float:
    """Sum of the (K, level) values over the plane, weighted by the phi and
    t weights; one pairwise np.sum, so the result is bit-identical between
    runs."""
    return float(np.sum(values * rule.t_weights * rule.angle_weights[:, None]))


def _psi_potential(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """int_0^{2pi} (D.z)(S.z) / (Q_1^2 Q_2^2) dpsi with S.z = Q_1 + Q_2,
    elementwise: x and y stack the X and Y tables of Q_1, Q_2 and D (see
    the module docstring for the identity).  Four square roots and three
    divisions per point; no intermediate is a higher power of the forms
    than sigma^2."""
    # in place: as plain expressions (same operations, same bits) each step
    # allocates a fresh (K, level) array, and the kernel ran 10-15% slower
    # (level 64, numpy 2.4, 2-core x86-64)
    alpha, gamma = np.sqrt(x[:2])
    beta, delta = np.sqrt(y[:2])
    sigma = alpha * delta
    sigma += beta * gamma
    inv_p = 1.0 / (alpha * gamma)
    inv_r = 1.0 / (beta * delta)
    # C = (alpha beta + gamma delta)(1/p + 1/r)
    c = alpha * beta
    c += gamma * delta
    c *= inv_p + inv_r
    # D_X (C + S_X sigma / p^2) / p + D_Y (C + S_Y sigma / r^2) / r
    out = x[0] + x[1]
    out *= sigma
    out *= inv_p * inv_p
    out += c
    out *= inv_p
    out *= x[2]
    term = y[0] + y[1]
    term *= sigma
    term *= inv_r * inv_r
    term += c
    term *= inv_r
    term *= y[2]
    out += term
    sigma *= sigma
    out /= sigma
    out *= math.pi
    return out


@lru_cache(maxsize=2)
def _potential_sum(rule: SphereRule, coeffs) -> float:
    """The plane sum of `potential_numeric` for its scaled coefficient rows
    (c1, c2, d), memoized (see Memo in the module docstring).  numpy's
    floating-point warnings are off: a plane that leaves double range sums
    to inf or NaN, which the caller turns into one ValueError."""
    with np.errstate(all="ignore"):
        x, y = _plane(rule, coeffs)
        return _plane_sum(rule, _psi_potential(x, y))


def _normalized_rows(a1, a2) -> tuple[list, list, list, float, int]:
    """The coefficient rows (c1, c2, d) of the pair (a1/m, a2/m), in
    canonical axis order, and the factor prod m_j as a mantissa and a power
    of two (see Normalization in the module docstring)."""
    # ascending ratio, so that the two widest axes come last, on psi; ties
    # go to the smaller scale, then to the first sheet's
    axes = []
    for x, y in zip(a1, a2):
        lo, hi = (x, y) if x <= y else (y, x)
        axes.append((hi / lo, lo, hi, x, y))
    axes.sort()
    c1, c2, d = [], [], []
    mant, exp = 1.0, 0
    for rho, lo, hi, x, y in axes:
        if rho <= _GEOMETRIC_LIMIT:
            # sqrt(lo hi) from the mantissas, the exponent halved: 2^k lo and
            # 2^k hi give 2^k times this m, bit for bit, for odd k too
            f1, e1 = math.frexp(lo)
            f2, e2 = math.frexp(hi)
            e = e1 + e2
            f = math.sqrt(math.ldexp(f1 * f2, e & 1))
            e >>= 1
        else:
            f, e = math.frexp(hi)
        m = math.ldexp(f, e)
        mant *= f
        exp += e
        v = m / x
        w = m / y
        c1.append(v * v)
        c2.append(w * w)
        # d_j = (m/lo - m/hi)^2 from hi - lo, not from the difference of the
        # quotients, which cancels for nearly equal metrics; in hi and lo it
        # is the same for the exchanged pair, bit for bit.  Squared by a
        # product, as c1 and c2: float ** 2 calls the C library's pow,
        # which need not round correctly
        v = (hi - lo) * (m / hi) / lo
        d.append(v * v)
    mant, e = math.frexp(mant)
    return c1, c2, d, mant, exp + e


def potential_numeric(
    g1: DiagonalMetric, g2: DiagonalMetric, rule: SphereRule
) -> float:
    """Interaction potential of a pair of diagonal metrics:

        V(g1, g2) = int dS (sum_j d_j xi_j^2) (sum_l s_l xi_l^2) / (Q1^2 Q2^2),
        d_j = (A_{2,j} - A_{1,j})^2,   s_l = A_{1,l}^2 + A_{2,l}^2,

    with A_{i,j} = 1 / a_{i,j} and Q_i = sum_j A_{i,j}^2 xi_j^2, summed on
    the (phi, t) plane with psi in closed form, for the pair normalized per
    axis (see Normalization in the module docstring).  Raises ValueError
    when a 1/a^2 is 0 or inf in double precision, or when the sum is not
    finite.
    """
    for g, name in ((g1, "g1"), (g2, "g2")):
        # 1/a^2 falls as a rises, so the extreme scales give its extremes
        inv = [1.0 / v for v in (min(g.scales), max(g.scales))]
        check_inverse_squares(g, [v * v for v in inv], name)
    c1, c2, d, mant, exp = _normalized_rows(g1.scales, g2.scales)
    # V is homogeneous of degree -2 in the coefficients.  Scaled by an even
    # power of two, so that every product, quotient and square root rounds
    # as before, the largest coefficient falls below 1, and the plane stays
    # finite; only coefficients that span more than about 1e150 can
    # overflow it.
    _, e = math.frexp(max(c1 + c2))
    e += e & 1
    c1, c2, d = (tuple(math.ldexp(v, -e) for v in row) for row in (c1, c2, d))
    # the plane pairs the sheets only through commutative sums and
    # products, so their order changes no bit; a canonical one makes the
    # exchanged pair's key the same as the pair's
    if c2 < c1:
        c1, c2 = c2, c1
    # 1/2 <= mant < 1, so a finite sum stays finite
    return scale_back(_potential_sum(rule, (c1, c2, d)) * mant, exp - 2 * e,
                      "the potential of g1 = {} and g2 = {} is not finite on the S^3 rule: "
                      "it overflows double precision, or the scales span too wide a range",
                      g1.scales, g2.scales)
