"""Deterministic product quadrature on the unit 3-sphere.

The sphere is parametrized by Hopf-like coordinates

    xi = (sqrt(1-t) cos(phi), sqrt(1-t) sin(phi),
          sqrt(t)   cos(psi), sqrt(t)   sin(psi)),

with t in [0, 1] and phi, psi in [0, 2pi).  The substitution t = sin^2(theta)
absorbs the cos(theta) sin(theta) Jacobian, so the surface element becomes
dS = (1/2) dt dphi dpsi and the natural rule is Gauss-Legendre in t times
periodic trapezoid in each angle.  Smooth integrands converge spectrally.

Evaluators built on the rule: the kinetic term and the interaction potential
of a pair of diagonal metrics, and the generic rational integral
int dS / (xi^T A xi) for a positive quadratic form A.

Fold.  On the angle grid phi_k = pi k / level (k = 0 .. 2 level - 1), the
maps phi -> -phi and phi -> pi - phi send a node to a sign flip of its
coordinates.  Each angle grid therefore collapses onto level//2 + 1 orbits,
represented by k = 0 .. level//2 in the first quadrant, with 2 members at
k = 0 and at k = level/2 (even level) and 4 elsewhere.  The rule is stored
only as this fold: the t nodes times the representatives in both angles,
weighted by orbit size, level (level//2 + 1)^2 nodes (69,696 at level 64
against 4 level^3 = 1,048,576).  An integrand of z = xi^2 alone takes one
value per orbit, so its folded sum is the product rule's sum regrouped: the
kinetic and potential integrands of diagonal metrics, and the rational
integrand in the eigenbasis of A.  `integrate` averages a general integrand
over the 16 sign images of each folded node, which regroups the product rule
for any integrand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .geometry import MIN_LEVEL, TWO_PI_SQ, DiagonalMetric, check_inverse_squares


@dataclass(frozen=True)
class SphereRule:
    """Immutable quadrature rule of a given level, stored as its fold.

    `folded_xi` (n, 4) and `folded_weights` (n,) are the orbit
    representatives and their summed weights (see the module docstring):
    unit nodes and positive weights summing to 2 pi^2, the area of the
    3-sphere.  Both arrays are read-only; rules are safe to share between
    threads.
    """

    level: int
    folded_xi: np.ndarray = field(repr=False)
    folded_weights: np.ndarray = field(repr=False)

    @property
    def node_count(self) -> int:
        """Size of the product rule the fold regroups, 4 * level^3."""
        return 4 * self.level**3


def _nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the cos^2 fold of the product rule."""
    t_nodes, t_weights = np.polynomial.legendre.leggauss(level)
    t_nodes = 0.5 * (t_nodes + 1.0)
    t_weights = 0.5 * t_weights

    # k represents the orbit {k, level-k, level+k, 2 level-k} of the angle
    # index, which has 2 members at k = 0 and k = level/2
    n_ang = 2 * level
    k = np.arange(level // 2 + 1)
    mult = np.full(k.shape, 4.0)
    mult[0] = 2.0
    if level % 2 == 0:
        mult[-1] = 2.0
    ang = 2.0 * math.pi * k / n_ang
    w_ang = 2.0 * math.pi / n_ang

    # node order: t-major, then phi, then psi (fixed; part of the
    # determinism contract)
    tt, phi, psi = np.meshgrid(t_nodes, ang, ang, indexing="ij")
    rt = np.sqrt(tt)
    rc = np.sqrt(1.0 - tt)
    xi = np.stack(
        [rc * np.cos(phi), rc * np.sin(phi), rt * np.cos(psi), rt * np.sin(psi)],
        axis=-1,
    ).reshape(-1, 4)
    # multiplicities are powers of two, so a folded weight is exactly the
    # sum of the product-rule weights of its orbit
    w = (t_weights[:, None, None] * (mult[:, None] * mult[None, :])).reshape(-1)
    w = w * (w_ang * w_ang * 0.5)

    total = math.fsum(w.tolist())
    if abs(total - TWO_PI_SQ) > 1e-12 * TWO_PI_SQ:
        raise AssertionError(f"weight sum {total!r} deviates from 2 pi^2")
    norms = np.abs(np.einsum("ij,ij->i", xi, xi) - 1.0)
    if float(norms.max()) > 1e-14:
        raise AssertionError("rule produced a node off the unit sphere")

    xi.flags.writeable = False
    w.flags.writeable = False
    return xi, w


@lru_cache(maxsize=8)
def _build_rule_cached(level: int) -> SphereRule:
    xi, w = _nodes(level)
    return SphereRule(level=level, folded_xi=xi, folded_weights=w)


def build_rule(level: int) -> SphereRule:
    """Product rule with `level` Gauss-Legendre nodes in t and 2*level
    equispaced nodes in each angle (4*level^3 nodes), stored as its fold.
    Cached."""
    level = int(level)
    if level < MIN_LEVEL:
        raise ValueError(f"level must be >= {MIN_LEVEL}, got {level}")
    return _build_rule_cached(level)


def integrate(rule: SphereRule, f) -> float:
    """Quadrature of a scalar field over the sphere.

    f must map an (n, 4) node array to an (n,) array of values.  It is
    called on each of the 16 sign images s * folded_xi, s in {+1, -1}^4,
    and each folded node weighs the mean of its 16 values: the product rule
    regrouped, for any integrand.  Non-finite values signal a singular
    integrand and raise.  Summation is compensated, in fixed node order.
    """
    w = rule.folded_weights
    total = sum(
        np.asarray(f(rule.folded_xi * s), dtype=float)
        for s in itertools.product((1.0, -1.0), repeat=4)
    )
    if total.shape != w.shape:
        raise ValueError(
            f"integrand returned shape {total.shape}, expected {w.shape}"
        )
    if not np.all(np.isfinite(total)):
        raise ValueError("integrand is non-finite at a quadrature node")
    return _kernels.weighted_total(total, w) / 16.0


def _inv_scales_sq(g: DiagonalMetric, name: str) -> np.ndarray:
    a = g.as_array()
    with np.errstate(over="ignore"):
        c = 1.0 / (a * a)
    check_inverse_squares(g, c, name)
    return c


def kinetic_term(g1: DiagonalMetric, g2: DiagonalMetric, rule: SphereRule) -> float:
    """int dS (Q1^-2 + Q2^-2) with Q_i(xi) = sum_j xi_j^2 / a_{i,j}^2.
    Raises ValueError when a 1/a^2 is 0 or inf in double precision."""
    return _kernels.kinetic_sum(
        rule.folded_xi,
        rule.folded_weights,
        _inv_scales_sq(g1, "g1"),
        _inv_scales_sq(g2, "g2"),
    )


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

        V(g1, g2) = sum_{j,k} (A_{2,j}-A_{1,j})^2 (A_{1,k}^2+A_{2,k}^2) I_{jk},
        I_{jk}    = int dS xi_j^2 xi_k^2 / (Q1^2 Q2^2),

    with all 16 moment integrals accumulated in a single pass over the nodes.
    Raises ValueError when a 1/a^2 is 0 or inf in double precision.
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
    tri = _kernels.potential_moments(rule.folded_xi, rule.folded_weights, c1, c2)
    moments = np.empty((4, 4))
    k = 0
    for j in range(4):
        for l in range(j, 4):
            moments[j, l] = tri[k]
            moments[l, j] = tri[k]
            k += 1
    diff_sq = (inv2 - inv1) ** 2
    sum_sq = c1 + c2
    total = 0.0
    for j in range(4):
        for l in range(4):
            total += diff_sq[j] * sum_sq[l] * moments[j, l]
    return total


def rational_integral(pf, rule: SphereRule) -> float:
    """int dS / (xi^T A xi) for A = omega (I + eps) positive definite.

    The integral does not change when xi is rotated, so it is evaluated in
    the eigenbasis of A, where the form is sum_j lambda_j xi_j^2 and the
    fold applies.  Accepts any object with `omega` and `eps` attributes
    (see matchings.PerturbedForm); raises unless every eigenvalue is finite
    and positive.
    """
    eps = np.asarray(pf.eps, dtype=float)
    lam = pf.omega * (1.0 + np.linalg.eigvalsh(0.5 * (eps + eps.T)))
    if not np.all(np.isfinite(lam) & (lam > 0.0)):
        raise ValueError(
            f"quadratic form has eigenvalues {lam.tolist()}; the form must "
            "be positive definite"
        )
    return _kernels.rational_sum(rule.folded_xi, rule.folded_weights, lam)


def action_density(dg, rule: SphereRule) -> float:
    """lambda_e_sq * kinetic_term + alpha * potential_numeric for a doubled
    geometry (the integrand density; the overall volume factor of the base
    manifold is the caller's concern since the metrics are constant)."""
    from .geometry import effective_params

    ep = effective_params(dg)
    kin = kinetic_term(dg.g1, dg.g2, rule)
    pot = potential_numeric(dg.g1, dg.g2, rule)
    return ep.lambda_e_sq * kin + ep.alpha * pot
