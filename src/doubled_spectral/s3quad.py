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

Fold.  The kinetic and potential integrands of diagonal metrics depend on xi
only through z = xi^2 = ((1-t) cos^2 phi, (1-t) sin^2 phi, t cos^2 psi,
t sin^2 psi).  On the grid phi_k = pi k / level (k = 0 .. 2 level - 1), the
maps phi -> -phi and phi -> pi - phi leave cos^2 and sin^2 unchanged, so each
angle grid collapses onto level//2 + 1 orbits with representatives k = 0 ..
level//2 in the first quadrant: 2 members at k = 0 and at k = level/2 (even
level), 4 elsewhere.  The folded set is the product of the t nodes with these
representatives in both angles, weighted by the orbit multiplicities:
level (level//2 + 1)^2 nodes, 69,696 at level 64 against 1,048,576.  Its sum
is the full rule's sum regrouped, so values differ from the full set only by
rounding.  `kinetic_term` and `potential_numeric` (and everything built on
them) read the folded set, which `build_rule` builds.  `integrate` and
`rational_integral` read the full set `rule.xi` / `rule.weights`, built on
first access, because a general integrand or a non-diagonal form breaks the
symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .geometry import DiagonalMetric

TWO_PI_SQ = 2.0 * math.pi * math.pi

MIN_LEVEL = 4


@dataclass(frozen=True)
class SphereRule:
    """Immutable quadrature rule of a given level.

    `xi` (n, 4) and `weights` (n,) are the full product set: unit nodes and
    positive weights summing to 2 pi^2, the area of the 3-sphere.  They are
    built on first access.  `folded_xi` and `folded_weights` are the
    first-quadrant orbit representatives and their summed weights (see the
    module docstring); they are built with the rule.  All arrays are
    read-only; rules are safe to share between threads.
    """

    level: int
    folded_xi: np.ndarray = field(repr=False)
    folded_weights: np.ndarray = field(repr=False)

    @property
    def node_count(self) -> int:
        """Size of the full product set, 4 * level^3."""
        return 4 * self.level**3

    @cached_property
    def _full(self) -> tuple[np.ndarray, np.ndarray]:
        return _nodes(self.level, fold=False)

    @property
    def xi(self) -> np.ndarray:
        return self._full[0]

    @property
    def weights(self) -> np.ndarray:
        return self._full[1]


def _nodes(level: int, fold: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the product rule, or of its cos^2 fold."""
    t_nodes, t_weights = np.polynomial.legendre.leggauss(level)
    t_nodes = 0.5 * (t_nodes + 1.0)
    t_weights = 0.5 * t_weights

    n_ang = 2 * level
    if fold:
        # k represents the orbit {k, level-k, level+k, 2 level-k} of the
        # angle index, which has 2 members at k = 0 and k = level/2
        k = np.arange(level // 2 + 1)
        mult = np.full(k.shape, 4.0)
        mult[0] = 2.0
        if level % 2 == 0:
            mult[-1] = 2.0
    else:
        k = np.arange(n_ang)
        mult = np.ones(n_ang)
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
    # sum of the full-rule weights of its orbit
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
    xi, w = _nodes(level, fold=True)
    return SphereRule(level=level, folded_xi=xi, folded_weights=w)


def build_rule(level: int) -> SphereRule:
    """Product rule with `level` Gauss-Legendre nodes in t and 2*level
    equispaced nodes in each angle (4*level^3 nodes total).  Cached; only
    the folded set is built here."""
    level = int(level)
    if level < MIN_LEVEL:
        raise ValueError(f"level must be >= {MIN_LEVEL}, got {level}")
    return _build_rule_cached(level)


def integrate(rule: SphereRule, f) -> float:
    """Quadrature of a scalar field over the sphere.

    f must map the (n, 4) node array to an (n,) array of values; it is
    evaluated once.  Non-finite values signal a singular integrand and
    raise.  Summation is compensated, in fixed node order.
    """
    values = np.asarray(f(rule.xi), dtype=float)
    if values.shape != rule.weights.shape:
        raise ValueError(
            f"integrand returned shape {values.shape}, expected {rule.weights.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand is non-finite at a quadrature node")
    return _kernels.weighted_total(values, rule.weights)


def _inv_scales_sq(g: DiagonalMetric) -> np.ndarray:
    a = g.as_array()
    return 1.0 / (a * a)


def kinetic_term(g1: DiagonalMetric, g2: DiagonalMetric, rule: SphereRule) -> float:
    """int dS (Q1^-2 + Q2^-2) with Q_i(xi) = sum_j xi_j^2 / a_{i,j}^2."""
    return _kernels.kinetic_sum(
        rule.folded_xi,
        rule.folded_weights,
        _inv_scales_sq(g1),
        _inv_scales_sq(g2),
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
    """
    a1 = g1.as_array()
    a2 = g2.as_array()
    order = _canonical_axis_order(a1, a2)
    a1 = a1[order]
    a2 = a2[order]
    inv1 = 1.0 / a1
    inv2 = 1.0 / a2
    tri = _kernels.potential_moments(
        rule.folded_xi, rule.folded_weights, inv1 * inv1, inv2 * inv2
    )
    moments = np.empty((4, 4))
    k = 0
    for j in range(4):
        for l in range(j, 4):
            moments[j, l] = tri[k]
            moments[l, j] = tri[k]
            k += 1
    diff_sq = (inv2 - inv1) ** 2
    sum_sq = inv1 * inv1 + inv2 * inv2
    total = 0.0
    for j in range(4):
        for l in range(4):
            total += diff_sq[j] * sum_sq[l] * moments[j, l]
    return total


def rational_integral(pf, rule: SphereRule) -> float:
    """int dS / (xi^T A xi) for A = omega (I + eps) positive definite.

    Accepts any object with `omega` and `eps` attributes (see
    matchings.PerturbedForm); raises if the form fails to be positive at
    a node.
    """
    amat = pf.omega * (np.eye(4) + np.asarray(pf.eps, dtype=float))
    return _kernels.rational_sum(rule.xi, rule.weights, amat)


def action_density(dg, rule: SphereRule) -> float:
    """lambda_e_sq * kinetic_term + alpha * potential_numeric for a doubled
    geometry (the integrand density; the overall volume factor of the base
    manifold is the caller's concern since the metrics are constant)."""
    from .geometry import effective_params

    ep = effective_params(dg)
    kin = kinetic_term(dg.g1, dg.g2, rule)
    pot = potential_numeric(dg.g1, dg.g2, rule)
    return ep.lambda_e_sq * kin + ep.alpha * pot
