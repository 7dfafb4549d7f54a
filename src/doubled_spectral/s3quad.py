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
positive quadratic form A, and `integrate` for any scalar field.  Each is one
scalar integrand passed to `_rule_sum`, the only code that accumulates a rule
sum.  The kinetic term is the identity of `feynman.kinetic_term`; the rule
checks it through `integrate`.

Fold.  On the angle grid phi_k = pi k / level (k = 0 .. 2 level - 1), the
maps phi -> -phi and phi -> pi - phi send a node to a sign flip of its
coordinates.  Each angle grid therefore collapses onto level//2 + 1 orbits,
represented by k = 0 .. level//2 in the first quadrant, with 2 members at
k = 0 and at k = level/2 (even level) and 4 elsewhere.  The rule is stored
only as this fold: the t nodes times the representatives in both angles,
weighted by orbit size, level (level//2 + 1)^2 nodes (69,696 at level 64
against 4 level^3 = 1,048,576).  An integrand of z = xi^2 alone takes one
value per orbit, so its folded sum is the product rule's sum regrouped: the
potential integrand of diagonal metrics, and the rational integrand in the
eigenbasis of A.  `integrate` averages a general integrand over the 16 sign
images of each folded node, which regroups the product rule for any
integrand.

Layout.  Besides the (n, 4) nodes `folded_xi`, a rule stores their squared
coordinates once as `folded_z`, a C-contiguous (4, n) array whose row j
holds xi_j^2 of every node.  The potential and rational integrands read
only these rows, so no call squares the nodes again and every term of a
quadratic form is a contiguous row times a scalar.  `_rule_sum` evaluates
an integrand in blocks of BLOCK nodes, so its temporaries stay cache-sized,
and sums the values of each CHUNK of nodes in one pass.  The chunks fix
the summation order and are part of the determinism contract; the blocks
only bound the working set and are not, since each value depends on its
own node alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .feynman import kinetic_term
from .geometry import MIN_LEVEL, TWO_PI_SQ, DiagonalMetric, check_inverse_squares

# Fixed chunk size; part of the determinism contract, do not make it
# configurable.
CHUNK = 1 << 16
# Nodes per integrand evaluation inside a chunk: 64 KB per float64
# temporary.  Not part of the determinism contract.
BLOCK = 1 << 13


@dataclass(frozen=True)
class SphereRule:
    """Immutable quadrature rule of a given level, stored as its fold.

    `folded_xi` (n, 4) and `folded_weights` (n,) are the orbit
    representatives and their summed weights (see the module docstring):
    unit nodes and positive weights summing to 2 pi^2, the area of the
    3-sphere.  `folded_z` (4, n), C-contiguous, holds the squared
    coordinates folded_xi.T ** 2; it is derived from `folded_xi` on
    construction, so `dataclasses.replace` with new nodes derives it again.
    All three arrays are read-only; rules are safe to share between threads.
    """

    level: int
    folded_xi: np.ndarray = field(repr=False)
    folded_weights: np.ndarray = field(repr=False)
    folded_z: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        z = np.ascontiguousarray((self.folded_xi * self.folded_xi).T)
        z.flags.writeable = False
        object.__setattr__(self, "folded_z", z)

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


def _rule_sum(rule: SphereRule, f, *, squares: bool = False) -> float:
    """Sum of w * f over the nodes of the fold.

    f maps a block of nodes to an (m,) array of values: an (m, 4) slice of
    `folded_xi`, or with `squares` a (4, m) slice of `folded_z`.  It is
    called on consecutive blocks of at most BLOCK nodes, and must give each
    node a value that depends on that node alone.  The weighted values of
    each CHUNK of nodes fill one array, which np.sum adds pairwise; the
    chunk partials are combined in chunk order with Neumaier summation, so
    the result is bit-identical between runs and does not depend on BLOCK.
    numpy floating-point warnings are off while f runs: an overflow shows
    as a non-finite value, which the caller checks.
    """
    xi, z, w = rule.folded_xi, rule.folded_z, rule.folded_weights
    values = np.empty(min(len(w), CHUNK))
    total = 0.0
    comp = 0.0
    with np.errstate(all="ignore"):
        for lo in range(0, len(w), CHUNK):
            hi = min(lo + CHUNK, len(w))
            for b in range(lo, hi, BLOCK):
                e = min(b + BLOCK, hi)
                block = z[:, b:e] if squares else xi[b:e]
                np.multiply(w[b:e], f(block), out=values[b - lo : e - lo])
            part = float(np.sum(values[: hi - lo]))
            t = total + part
            if abs(total) >= abs(part):
                comp += (total - t) + part
            else:
                comp += (part - t) + total
            total = t
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
    folded nodes, and each folded node weighs the mean of its 16 values:
    the product rule regrouped, for any integrand.  Non-finite values
    signal a singular integrand and raise.
    """
    signs = list(itertools.product((1.0, -1.0), repeat=4))

    def image_mean(x):
        total = sum(np.asarray(f(x * s), dtype=float) for s in signs)
        if total.shape != (len(x),):
            raise ValueError(
                f"integrand returned shape {total.shape}, expected {(len(x),)}"
            )
        if not np.all(np.isfinite(total)):
            raise ValueError("integrand is non-finite at a quadrature node")
        return total / 16.0

    return _rule_sum(rule, image_mean)


def _form(z, c):
    # sum_j c[j] z_j over the rows of a folded_z block, as its 4 explicit
    # terms in a fixed order
    return z[0] * c[0] + z[1] * c[1] + z[2] * c[2] + z[3] * c[3]


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

    def integrand(z):
        q1 = _form(z, c1)
        q2 = _form(z, c2)
        return _form(z, d) * _form(z, s) / ((q1 * q1) * (q2 * q2))

    total = _rule_sum(rule, integrand, squares=True)
    if not math.isfinite(total):
        raise ValueError(
            f"the potential of g1 = {g1.scales} and g2 = {g2.scales} is not "
            "finite on the S^3 rule: Q^2 overflows double precision at a node"
        )
    return total


def _reciprocal_form(lam: np.ndarray):
    """The integrand 1 / sum_j lam_j z_j on folded_z blocks; raises unless
    the form is positive and finite at every node it sees."""

    def integrand(z):
        q = _form(z, lam)
        if not np.all(np.isfinite(q) & (q > 0.0)):
            raise ValueError(
                "quadratic form nonpositive or non-finite at a quadrature "
                "node; the form must be positive definite"
            )
        return 1.0 / q

    return integrand


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
    total = _rule_sum(rule, _reciprocal_form(lam), squares=True)
    if not math.isfinite(total):
        raise ValueError(
            f"the rational integral of the form with eigenvalues {lam.tolist()} "
            "is not finite on the S^3 rule: 1/(xi^T A xi) overflows double "
            "precision at a node"
        )
    return total


def action_density(dg, rule: SphereRule) -> float:
    """lambda_e_sq * kinetic_term + alpha * potential_numeric for a doubled
    geometry (the integrand density; the overall volume factor of the base
    manifold is the caller's concern since the metrics are constant)."""
    from .geometry import effective_params

    ep = effective_params(dg)
    kin = kinetic_term(dg.g1, dg.g2)
    pot = potential_numeric(dg.g1, dg.g2, rule)
    return ep.lambda_e_sq * kin + ep.alpha * pot
