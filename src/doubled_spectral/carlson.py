"""Carlson's elliptic integrals R_D and R_F, and from them the interaction
potential of any pair of constant diagonal metrics and the rational sphere
integral int dS / (xi^T A xi), each in closed form.  Pure Python.

Derivation.  The sphere identity int dS / (xi^T C xi)^2 = 2 pi^2 /
sqrt(det C) and Feynman parameters give, with c = a^-2 per axis,

    J = int dS / (Q1 Q2) = 2 pi^2 int_0^1 dt / sqrt(prod_j (t c1_j + (1-t) c2_j)),

a complete elliptic integral: by DLMF 19.29(ii), J = 4 pi^2 R_F(x_1, x_2,
x_3) with x_k = U_k^2, U_k = A_k + B_k over the splittings {i, j | k, l}
of the axes (SPLITS), A_k = sqrt(c1_i c1_j c2_k c2_l) and
B_k = sqrt(c2_i c2_j c1_k c1_l).  The potential's integrand
(D.z)(S.z) / (Q1^2 Q2^2), d = (sqrt(c2) - sqrt(c1))^2, has S.z = Q1 + Q2
(s = c1 + c2), so it is -d.(grad_c1 + grad_c2) of 1 / (Q1 Q2) and
V = -d.(grad_c1 + grad_c2) J.  With dR_F/dx_k = -R_D(x_m, x_n, x_k) / 6
(DLMF 19.18(i); m, n the other two indices), d_d A_k = A_k / 2 (d_i/c1_i
+ d_j/c1_j + d_k/c2_k + d_l/c2_l) and d_d B_k the same with c1, c2 swapped,

    V = (4 pi^2 / 3) sum_k R_D(x_m, x_n, x_k) U_k (d_d A_k + d_d B_k),

where every factor is >= 0, and d_j / c1_j = ((a1_j - a2_j) / a2_j)^2,
d_j / c2_j = ((a1_j - a2_j) / a1_j)^2.

Rational integral.  At c2 = 1, Q2 = |xi|^2 = 1 on the sphere, so J with
c1 the eigenvalues lambda of a positive definite A is int dS / (xi^T A xi)
= 4 pi^2 R_F(U_1^2, U_2^2, U_3^2), U_k = sqrt(lambda_i lambda_j) +
sqrt(lambda_k lambda_l).  R_F comes from R_D by DLMF 19.21.7,

    R_F(x, y, z) = [(x - y) R_D(y, z, x) + (z - y) R_D(x, y, z)] / 3
                   + sqrt(y / (x z)),

with y the smallest argument, so that every term is >= 0.

Numerics.  V has degree -4 in the 1/a and -1 in the U_k, so both are
scaled by a power of two (exact) to bring their largest into [1/2, 1)
before the U_k are squared; within MAX_SPREAD no x_k then underflows.  The
rational integral has degree -1 in the lambda, which are scaled the same
way; every U_k^2 is then at least half the smallest scaled lambda.
R_D is summed by duplication (DLMF 19.36(i); B. C. Carlson, Numer.
Algorithms 10 (1995) 13), then by its fifth-order series.
"""

from __future__ import annotations

import math

from .geometry import TWO_PI_SQ, DiagonalMetric, check_inverse_squares, scale_back

# the series after duplication leaves a relative error of order DUP_TOL^6
DUP_TOL = 1e-3
# largest spread max/min of the eight 1/a^2 (a scale ratio of 1e75)
MAX_SPREAD = 1e150
SPLITS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


def R_D(x: float, y: float, z: float) -> float:
    """R_D(x, y, z) = 3/2 int_0^inf dt / sqrt((t+x) (t+y) (t+z)^3) for
    finite x, y >= 0 with x + y > 0 and z > 0."""
    if not (min(x, y) >= 0.0 and x + y > 0.0 and 0.0 < z < math.inf and max(x, y) < math.inf):
        raise ValueError(f"R_D needs finite x, y >= 0, x + y > 0, z > 0; got {x}, {y}, {z}")
    tail, scale = 0.0, 1.0
    while True:
        mean = (x + y + 3.0 * z) / 5.0
        if max(abs(mean - x), abs(mean - y), abs(mean - z)) <= DUP_TOL * mean:
            break
        rx, ry, rz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = rx * ry + ry * rz + rz * rx
        tail += scale / (rz * (z + lam))
        scale *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -(dx + dy) / 3.0
    xy, zz = dx * dy, dz * dz
    e2 = xy - 6.0 * zz
    e3 = (3.0 * xy - 8.0 * zz) * dz
    e4 = 3.0 * (xy - zz) * zz
    e5 = xy * zz * dz
    series = (1.0 - 3.0 / 14.0 * e2 + e3 / 6.0 + 9.0 / 88.0 * e2 * e2 - 3.0 / 22.0 * e4
              - 9.0 / 52.0 * e2 * e3 + 3.0 / 26.0 * e5)
    return 3.0 * tail + scale * series / (mean * math.sqrt(mean))


def R_F(x: float, y: float, z: float) -> float:
    """R_F(x, y, z) = 1/2 int_0^inf dt / sqrt((t+x) (t+y) (t+z)) for finite
    x, y, z >= 0 of which at most one is 0, from R_D (module docstring)."""
    x, y, z = sorted((x, y, z))
    # the smallest argument goes in the middle
    x, y = y, x
    # sqrt(y / x) / sqrt(z): x z can under- or overflow, y / x <= 1 cannot
    tail = math.sqrt(y / x) / math.sqrt(z)
    return ((x - y) * R_D(y, z, x) + (z - y) * R_D(x, y, z)) / 3.0 + tail


def rational_integral(lam) -> float:
    """int dS / (xi^T A xi) for a symmetric A with eigenvalues `lam`, in
    closed form (module docstring).  Raises ValueError unless every
    eigenvalue is positive and finite, or when the integral overflows."""
    lam = [float(v) for v in lam]
    if math.inf in lam:
        raise ValueError(f"quadratic form has eigenvalues {lam}: one overflows double precision")
    # a NaN fails the comparison
    if not all(v > 0.0 for v in lam):
        raise ValueError(f"quadratic form has eigenvalues {lam}: it must be positive definite")
    e = math.frexp(max(lam))[1]
    u = [math.ldexp(v, -e) for v in lam]
    U = [math.sqrt(u[i] * u[j]) + math.sqrt(u[k] * u[l]) for i, j, k, l in SPLITS]
    return scale_back(2.0 * TWO_PI_SQ * R_F(*(v * v for v in U)), -e,
                      "the rational integral of the form with eigenvalues {} "
                      "overflows double precision", lam)


def potential_elliptic(g1: DiagonalMetric, g2: DiagonalMetric) -> float:
    """Interaction potential of a pair of diagonal metrics (module
    docstring); exactly 0.0 for identical metrics.  Raises ValueError when a
    1/a^2 is 0 or inf, when the 1/a^2 spread more than MAX_SPREAD, or when
    the potential overflows."""
    a1, a2 = g1.scales, g2.scales
    inv = [1.0 / v for v in a1 + a2]
    c = [v * v for v in inv]
    check_inverse_squares(g1, c[:4], "g1")
    check_inverse_squares(g2, c[4:], "g2")
    delta = [p - q for p, q in zip(a1, a2)]
    if not any(delta):
        return 0.0
    if min(c) * MAX_SPREAD < max(c):
        raise ValueError(f"the scale factors of g1 = {a1} and g2 = {a2} "
                         f"span a ratio above {math.sqrt(MAX_SPREAD):g}")
    e = math.frexp(max(inv))[1]
    u1 = [math.ldexp(v, -e) for v in inv[:4]]
    u2 = [math.ldexp(v, -e) for v in inv[4:]]
    p = [x * x for x in (d / b for d, b in zip(delta, a2))]  # d_j / c1_j
    q = [x * x for x in (d / a for d, a in zip(delta, a1))]  # d_j / c2_j
    A = [u1[i] * u1[j] * u2[k] * u2[l] for i, j, k, l in SPLITS]
    B = [u2[i] * u2[j] * u1[k] * u1[l] for i, j, k, l in SPLITS]
    s = math.frexp(max(x + y for x, y in zip(A, B)))[1]
    A, B = ([math.ldexp(v, -s) for v in w] for w in (A, B))
    U = [x + y for x, y in zip(A, B)]
    U2 = [x * x for x in U]
    total = 0.0
    for n, (i, j, k, l) in enumerate(SPLITS):
        dU = A[n] * (p[i] + p[j] + q[k] + q[l]) + B[n] * (q[i] + q[j] + p[k] + p[l])
        total += R_D(U2[n - 1], U2[n - 2], U2[n]) * U[n] * dU
    return scale_back(TWO_PI_SQ / 3.0 * total, -s - 4 * e,
                      "the potential overflows double precision for g1 = {}, g2 = {}", a1, a2)
