"""Deterministic product quadrature on the unit 3-sphere.

The sphere is parametrized by Hopf-like coordinates

    xi = (sqrt(1-t) cos(phi), sqrt(1-t) sin(phi),
          sqrt(t)   cos(psi), sqrt(t)   sin(psi)),

with t in [0, 1] and phi, psi in [0, 2pi).  The substitution t = sin^2(theta)
absorbs the cos(theta) sin(theta) Jacobian, so the surface element becomes
dS = (1/2) dt dphi dpsi and the natural rule is Gauss-Legendre in t times
periodic trapezoid in each angle.  Smooth integrands converge spectrally.

Evaluators built on the rule: the interaction potential of a pair of
diagonal metrics, the generic rational integral int dS / (xi^T A xi) for a
positive quadratic form A, and `integrate` for any scalar field.  Each passes
`_rule_sum`, the only code that accumulates a rule sum, its quadratic forms
and one integrand of them.  The kinetic term is the identity of `feynman.kinetic_term`; the rule
checks it through `integrate`.

Fold.  On the angle grid phi_k = pi k / level (k = 0 .. 2 level - 1), the
maps phi -> -phi and phi -> pi - phi send a node to a sign flip of its
coordinates.  Each angle grid therefore collapses onto level//2 + 1 orbits,
represented by k = 0 .. level//2 in the first quadrant, with 2 members at
k = 0 and at k = level/2 (even level) and 4 elsewhere.  The rule sums over
the t nodes times the representatives in both angles, weighted by orbit
size: level (level//2 + 1)^2 nodes (69,696 at level 64 against
4 level^3 = 1,048,576).  An integrand of z = xi^2 alone takes one value per
orbit, so its folded sum is the product rule's sum regrouped: the potential
integrand of diagonal metrics, and the rational integrand in the eigenbasis
of A.  `integrate` averages a general integrand over the 16 sign images of
each folded node, which regroups the product rule for any integrand.

Layout.  On the node grid t x phi x psi the squared coordinates factor,
z = ((1-t) cos^2 phi, (1-t) sin^2 phi, t cos^2 psi, t sin^2 psi), and so
does the weight.  A rule stores only these factors: the t factor (1-t, t)
with the t weights, and the angle factor (cos^2, sin^2) of the orbit
representatives with their weights, which include the orbit size.  A
quadratic form sum_j c_j z_j is then
(1-t)(c_0 cos^2 phi + c_1 sin^2 phi) + t(c_2 cos^2 psi + c_3 sin^2 psi): a
(phi, t) table plus a (psi, t) table, built once per call, and one add per
node.  `_rule_sum` makes those adds for PHI_BLOCK phi representatives at a
time, so its temporaries stay cache-sized, hands the forms to the integrand
and sums the weighted values of each block in one pass.  The blocks fix the
summation order and are part of the determinism contract.  `integrate`
takes the forms of the identity, which are z, and recovers the
first-quadrant nodes as sqrt(z) = |xi|.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Unused here, but the benchmark's layer tracer wraps `s3quad.kinetic_term`
# and looks the name up in this module; keep the binding.
from .feynman import kinetic_term  # noqa: F401
from .geometry import (
    MAX_LEVEL,
    MIN_LEVEL,
    TWO_PI_SQ,
    DiagonalMetric,
    check_inverse_squares,
)

# phi representatives per block of `_rule_sum`, chosen by measurement: the
# 4 forms of a level-64 block take 540 KB, and a suite trial takes no page
# faults in steady state (at 4 it takes about 380).  Part of the determinism
# contract, do not make it configurable.
PHI_BLOCK = 8


@dataclass(frozen=True)
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
    read-only; rules are safe to share between threads.
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


@lru_cache(maxsize=8)
def _factors(level: int) -> SphereRule:
    """The rule of `level`, built from its t and angle factors.  Cached."""
    x, wx = np.polynomial.legendre.leggauss(level)
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
    of its fold.  Cached.  Raises ValueError unless
    MIN_LEVEL <= level <= MAX_LEVEL, before anything is allocated."""
    level = int(level)
    if level < MIN_LEVEL:
        raise ValueError(f"level must be >= {MIN_LEVEL}, got {level}")
    if level > MAX_LEVEL:
        raise ValueError(f"level must be <= {MAX_LEVEL}, got {level}")
    return _factors(level)


def _rule_sum(rule: SphereRule, coeffs, f) -> float:
    """Sum of w * f over the nodes of the fold.

    coeffs is an (r, 4) array of quadratic forms sum_j c_j z_j.  For each
    block of at most PHI_BLOCK phi representatives, f receives the (r, b, K,
    level) array of the r forms at the nodes of the block, in phi, psi, t
    order, and returns the (b, K, level) float array of values, which
    `_rule_sum` may overwrite; f may overwrite the forms.  The weighted
    values of a block are added by np.sum, and the block partials in block
    order with Neumaier summation, so the result is bit-identical between
    runs.  numpy floating-point warnings are off while f runs: an overflow
    shows as a non-finite value, which the caller checks.
    """
    c = np.asarray(coeffs, dtype=float)
    u, t = rule.t_factor
    cos2, sin2 = rule.angle_factor
    # the (phi, t) and (psi, t) halves of every form, (r, K, level) each
    p = (c[:, 0, None] * cos2 + c[:, 1, None] * sin2)[:, :, None] * u
    q = (c[:, 2, None] * cos2 + c[:, 3, None] * sin2)[:, :, None] * t
    w_psi_t = np.multiply.outer(rule.angle_weights, rule.t_weights)
    n_phi = len(cos2)
    forms = np.empty((len(c), min(n_phi, PHI_BLOCK)) + w_psi_t.shape)
    total = 0.0
    comp = 0.0
    with np.errstate(all="ignore"):
        for lo in range(0, n_phi, PHI_BLOCK):
            hi = min(lo + PHI_BLOCK, n_phi)
            block = forms[:, : hi - lo]
            np.add(p[:, lo:hi, None], q[:, None], out=block)
            values = f(block)
            values *= w_psi_t
            values *= rule.angle_weights[lo:hi, None, None]
            part = float(np.sum(values))
            s = total + part
            if abs(total) >= abs(part):
                comp += (total - s) + part
            else:
                comp += (part - s) + total
            total = s
    return total + comp


def active_backend() -> str:
    """Name of the node-reduction implementation: always "numpy".

    Kept for callers that record it, such as the benchmark's run record.
    """
    return "numpy"


def get_threads() -> int:
    """Worker count of the node reduction: always 1.

    Chunks run serially in the calling thread.  Kept for callers that
    record the worker count, such as the benchmark's run record.
    """
    return 1


def integrate(rule: SphereRule, f) -> float:
    """Quadrature of a scalar field over the sphere.

    f must map an (n, 4) node array to an (n,) array of values.  It is
    called on each of the 16 sign images s * xi, s in {+1, -1}^4, of the
    folded nodes xi = sqrt(z) >= 0, and each folded node weighs the mean of
    its 16 values: the product rule regrouped, for any integrand.
    Non-finite values signal a singular integrand and raise.
    """
    signs = list(itertools.product((1.0, -1.0), repeat=4))

    def image_mean(z):
        # the forms of the identity are z itself
        x = np.sqrt(z).reshape(4, -1).T
        total = sum(np.asarray(f(x * s), dtype=float) for s in signs)
        if total.shape != (len(x),):
            raise ValueError(
                f"integrand returned shape {total.shape}, expected {(len(x),)}"
            )
        if not np.all(np.isfinite(total)):
            raise ValueError("integrand is non-finite at a quadrature node")
        return (total / 16.0).reshape(z.shape[1:])

    return _rule_sum(rule, np.eye(4), image_mean)


def _canonical_axis_order(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    # Canonical relabeling of the four axes.  The exact integral does not
    # depend on a joint relabeling, but the node set of the product rule is
    # not symmetric under every axis permutation; sorting by the unordered
    # scale pair (tie-broken by the first sheet) makes the computed value
    # exactly invariant under joint permutations and under swapping the
    # two metrics.
    lo = np.minimum(a1, a2)
    hi = np.maximum(a1, a2)
    return np.lexsort((a1, hi, lo))


def potential_numeric(
    g1: DiagonalMetric, g2: DiagonalMetric, rule: SphereRule
) -> float:
    """Interaction potential of a pair of diagonal metrics:

        V(g1, g2) = int dS (sum_j d_j xi_j^2) (sum_l s_l xi_l^2) / (Q1^2 Q2^2),
        d_j = (A_{2,j} - A_{1,j})^2,   s_l = A_{1,l}^2 + A_{2,l}^2,

    with A_{i,j} = 1 / a_{i,j} and Q_i = sum_j A_{i,j}^2 xi_j^2.  Raises
    ValueError when a 1/a^2 is 0 or inf in double precision, or when the
    sum is not finite (Q^2 overflows at a node).
    """
    a1 = g1.as_array()
    a2 = g2.as_array()
    order = _canonical_axis_order(a1, a2)
    a1 = a1[order]
    a2 = a2[order]
    inv1 = 1.0 / a1
    inv2 = 1.0 / a2
    with np.errstate(over="ignore"):
        c1 = inv1 * inv1
        c2 = inv2 * inv2
    check_inverse_squares(g1, c1, "g1")
    check_inverse_squares(g2, c2, "g2")
    d = (inv2 - inv1) ** 2
    s = c1 + c2

    def integrand(forms):
        # (d . z)(s . z) / ((q1 q1)(q2 q2)), in place
        q1, q2, num, s_form = forms
        np.multiply(q1, q1, out=q1)
        np.multiply(q2, q2, out=q2)
        np.multiply(q1, q2, out=q1)
        np.multiply(num, s_form, out=num)
        return np.divide(num, q1, out=num)

    total = _rule_sum(rule, np.stack([c1, c2, d, s]), integrand)
    if not math.isfinite(total):
        raise ValueError(
            f"the potential of g1 = {g1.scales} and g2 = {g2.scales} is not "
            "finite on the S^3 rule: Q^2 overflows double precision at a node"
        )
    return total


def _reciprocal(forms):
    """The integrand 1 / q of `rational_integral`, in place on the one form
    q; raises unless q is positive and finite at every node it sees."""
    q = forms[0]
    # a NaN fails both comparisons
    if not (q.min() > 0.0 and q.max() < math.inf):
        raise ValueError(
            "quadratic form nonpositive or non-finite at a quadrature "
            "node; the form must be positive definite"
        )
    return np.reciprocal(q, out=q)


def rational_integral(pf, rule: SphereRule) -> float:
    """int dS / (xi^T A xi) for A = omega (I + eps) positive definite.

    The integral does not change when xi is rotated, so it is evaluated in
    the eigenbasis of A, where the form is sum_j lambda_j xi_j^2 and the
    fold applies.  Accepts any object with `omega` and `eps` attributes
    (see matchings.PerturbedForm); raises unless every eigenvalue is finite
    and positive, and when the sum is not finite (1/(xi^T A xi) overflows
    at a node).
    """
    eps = np.asarray(pf.eps, dtype=float)
    lam = pf.omega * (1.0 + np.linalg.eigvalsh(0.5 * (eps + eps.T)))
    if not np.all(np.isfinite(lam) & (lam > 0.0)):
        raise ValueError(
            f"quadratic form has eigenvalues {lam.tolist()}; the form must "
            "be positive definite"
        )
    total = _rule_sum(rule, lam[None], _reciprocal)
    if not math.isfinite(total):
        raise ValueError(
            f"the rational integral of the form with eigenvalues {lam.tolist()} "
            "is not finite on the S^3 rule: 1/(xi^T A xi) overflows double "
            "precision at a node"
        )
    return total

