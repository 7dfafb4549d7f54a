"""Core domain types: constant diagonal metrics, the doubled geometry built
from a pair of them, and the 2x2 symbol algebra of the squared coupled Dirac
operator (everything here is post-Clifford-trace scalar/2x2 algebra).

The module imports numpy only inside the functions that use it, so the
closed-form and census paths of the CLI load without it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# area of the unit 3-sphere
TWO_PI_SQ = 2.0 * math.pi * math.pi

# smallest and largest level of the S^3 quadrature rule (s3quad); here so
# that the CLI validates --level without loading the rule.  The rule's
# Gauss-Legendre nodes come from an O(level^2)-memory, O(level^3)-time
# eigenvalue solve, and the rule stores only its t and angle factors:
# level 256 takes about 10 ms and a 0.55 MB traced peak on a 2-core Xeon.
# Results here use level 64 and cite level 96 at most.
MIN_LEVEL = 4
MAX_LEVEL = 256

UNIT_NORM_TOL = 1e-14


@dataclass(frozen=True)
class DiagonalMetric:
    """Metric ds^2 = sum_j scales[j]^2 (dx^j)^2 with constant scales a_j > 0."""

    scales: tuple[float, float, float, float]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.scales)
        if len(vals) != 4:
            raise ValueError("a diagonal metric needs exactly 4 scale factors")
        if not all(math.isfinite(v) and v > 0.0 for v in vals):
            raise ValueError(f"scale factors must be positive and finite, got {vals}")
        object.__setattr__(self, "scales", vals)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self.scales)


@dataclass(frozen=True)
class UnitVector4:
    """Momentum covector on the unit 3-sphere: sum_j xi_j^2 = 1."""

    xi: tuple[float, float, float, float]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.xi)
        if len(vals) != 4:
            raise ValueError("need exactly 4 components")
        norm_sq = math.fsum(v * v for v in vals)
        if abs(norm_sq - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"not a unit vector: |xi|^2 = {norm_sq!r}")
        object.__setattr__(self, "xi", vals)

    @classmethod
    def normalized(cls, components) -> "UnitVector4":
        import numpy as np

        v = np.asarray(components, dtype=float)
        norm = math.sqrt(float(v @ v))
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(tuple(v / norm))


@dataclass(frozen=True)
class DoubledGeometry:
    """Two diagonal metrics coupled through a constant off-diagonal field.

    coupling is the magnitude |Phi| of the field (only |Phi|^2 ever enters),
    kappa = +-1 is the square of the grading operator, cutoff is the scale
    entering the truncated action, and moment_coeff the relative weight of
    the subleading term.
    """

    g1: DiagonalMetric
    g2: DiagonalMetric
    coupling: float
    kappa: int
    cutoff: float
    moment_coeff: float

    def __post_init__(self):
        if self.kappa not in (1, -1):
            raise ValueError(f"kappa must be +1 or -1, got {self.kappa}")
        if not (math.isfinite(self.coupling) and self.coupling >= 0.0):
            raise ValueError(
                f"coupling |Phi| must be finite and >= 0, got {self.coupling}"
            )
        if not (math.isfinite(self.cutoff) and self.cutoff > 0.0):
            raise ValueError(f"cutoff must be finite and positive, got {self.cutoff}")
        if not math.isfinite(self.moment_coeff) or self.moment_coeff == 0.0:
            raise ValueError(
                f"moment_coeff must be finite and nonzero, got {self.moment_coeff}"
            )


@dataclass(frozen=True)
class EffectiveParams:
    """Effective parametrization (lambda_e_sq, alpha) of the truncated action."""

    lambda_e_sq: float
    alpha: float


def inverse_rates(g: DiagonalMetric) -> tuple[float, float, float, float]:
    """Per-axis inverse scales A_j = 1/a_j."""
    return tuple(1.0 / v for v in g.scales)


def quadratic_form(g: DiagonalMetric, xi: UnitVector4) -> float:
    """Q(xi) = sum_j xi_j^2 / a_j^2, the leading-symbol denominator."""
    a = g.scales
    x = xi.xi
    return math.fsum((x[j] / a[j]) ** 2 for j in range(4))


def check_inverse_squares(g: DiagonalMetric, c, name: str) -> None:
    """Raise ValueError unless every 1/a^2 in c, the inverse squared scales
    of g as an evaluator computed them, is positive and finite."""
    if not all(0.0 < v < math.inf for v in c):
        raise ValueError(
            f"{name} = {g.scales}: a 1/a^2 underflows to 0 or overflows to "
            "inf in double precision; scale factors must lie within about "
            "1e-154 .. 1e154"
        )


def kinetic_term(g1: DiagonalMetric, g2: DiagonalMetric) -> float:
    """int dS (Q1^-2 + Q2^-2), Q_i(xi) = sum_j xi_j^2 / a_{i,j}^2: by the
    sphere identity int dS / (xi^T C xi)^2 = 2 pi^2 / sqrt(det C), it is
    2 pi^2 (prod a1 + prod a2).  Raises ValueError when it overflows."""
    value = TWO_PI_SQ * (math.prod(g1.scales) + math.prod(g2.scales))
    if not math.isfinite(value):
        raise ValueError(
            f"the kinetic term overflows double precision for g1 = {g1.scales}, "
            f"g2 = {g2.scales}"
        )
    return value


def relative_eigenvalues(g1: DiagonalMetric, g2: DiagonalMetric) -> tuple[float, ...]:
    """Eigenvalues of sqrt(g2^-1 g1) in axis order: a_{1,j} / a_{2,j}."""
    return tuple(u / v for u, v in zip(g1.scales, g2.scales))


def effective_params(dg: DoubledGeometry) -> EffectiveParams:
    """lambda_e^2 = (12/c)(Lambda^2 - c kappa |Phi|^2) and alpha = 12 kappa |Phi|^2."""
    c = dg.moment_coeff
    if c == 0.0:
        raise ValueError("moment coefficient c must be nonzero")
    phi_sq = dg.coupling * dg.coupling
    lambda_e_sq = 12.0 / c * (dg.cutoff * dg.cutoff - c * dg.kappa * phi_sq)
    alpha = 12.0 * dg.kappa * phi_sq
    return EffectiveParams(lambda_e_sq=lambda_e_sq, alpha=alpha)


def b2_trace_matrix(dg: DoubledGeometry, xi: UnitVector4) -> float:
    """Commutator part of the subleading inverse-symbol trace, evaluated by
    explicit 2x2 matrix products:

        -4 kappa Tr( b0 (sum_j [F, A_j] b0 [F, A_j] xi_j^2) b0 )

    with b0 = diag(1/Q_1, 1/Q_2), F = |Phi| offdiag(1, 1) and
    A_j = diag(1/a_{1,j}, 1/a_{2,j}).  The F^2 term is not included here;
    it is absorbed into lambda_e_sq by the effective parametrization.
    """
    import numpy as np

    q1 = quadratic_form(dg.g1, xi)
    q2 = quadratic_form(dg.g2, xi)
    b0 = np.diag([1.0 / q1, 1.0 / q2])
    fmat = dg.coupling * np.array([[0.0, 1.0], [1.0, 0.0]])
    acc = np.zeros((2, 2))
    for j in range(4):
        aj = np.diag([1.0 / dg.g1.scales[j], 1.0 / dg.g2.scales[j]])
        comm = fmat @ aj - aj @ fmat
        acc += (comm @ b0 @ comm) * (xi.xi[j] * xi.xi[j])
    return float(-4.0 * dg.kappa * np.trace(b0 @ acc @ b0))


def b2_trace_closed(dg: DoubledGeometry, xi: UnitVector4) -> float:
    """Closed form of b2_trace_matrix:

        4 kappa |Phi|^2 sum_{j,k} (A_{2,j}-A_{1,j})^2 (A_{1,k}^2+A_{2,k}^2)
                         xi_j^2 xi_k^2 / (Q_1^2 Q_2^2)
    """
    import numpy as np

    a1 = dg.g1.as_array()
    a2 = dg.g2.as_array()
    x = np.asarray(xi.xi)
    z = x * x
    inv1 = 1.0 / a1
    inv2 = 1.0 / a2
    q1 = float(z @ (inv1 * inv1))
    q2 = float(z @ (inv2 * inv2))
    d2 = (inv2 - inv1) ** 2
    s = inv1 * inv1 + inv2 * inv2
    double_sum = float(np.sum(np.outer(d2 * z, s * z)))
    phi_sq = dg.coupling * dg.coupling
    return 4.0 * dg.kappa * phi_sq * double_sum / ((q1 * q1) * (q2 * q2))
