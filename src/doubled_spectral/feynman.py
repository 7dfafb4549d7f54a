"""Pure-Python evaluators of the kinetic term and the interaction potential,
both from the sphere identity int dS / (xi^T C xi)^2 = 2 pi^2 / sqrt(det C)
for a diagonal positive C.

The kinetic term is the identity itself: with C = diag(a^-2),
sqrt(det C) = 1 / prod_j a_j.

For the potential, Feynman parameters write 1 / (Q1^2 Q2^2) =
6 int_0^1 t (1-t) / Q_t^4 dt with Q_t = t Q1 + (1-t) Q2, and two
derivatives of the identity in the entries of C then give the potential
of potential_numeric as an integral over t alone:

    V = 2 pi^2 int_0^1 t (1-t) / (4 sqrt(prod_j c_j(t)))
          [ (sum_j d_j / c_j(t)) (sum_l s_l / c_l(t)) + 2 sum_j d_j s_j / c_j(t)^2 ] dt

with c(t) = t c1 + (1-t) c2, c = a^-2 per axis, d = (sqrt(c2) - sqrt(c1))^2
and s = c1 + c2.  The integrand is positive, smooth on [0, 1] and vanishes
at both ends, so the tanh-sinh rule (Takahasi & Mori 1974) converges double
exponentially.  The rule starts at step H0 and halves the step, reusing the
previous nodes, until two successive sums agree to REL_TOL; that change is
also the error estimate.  Unlike the S^3 rule it stays accurate at wide
scale ratios, and it needs no numpy.
"""

from __future__ import annotations

import math

from .geometry import TWO_PI_SQ, DiagonalMetric, check_inverse_squares

# first step in u, where t = 1 / (1 + exp(-pi sinh u))
H0 = 1.0 / 16.0
# nodes stop at |u| = U_MAX, where t (1-t) < 1e-275
U_MAX = 6.0
REL_TOL = 1e-13
MAX_HALVINGS = 8
# largest spread max/min of the eight 1/a^2 (a scale ratio of 1e75); within
# it no term of the rule overflows or divides by zero, and the integrand's
# mass lies well inside the node range
MAX_SPREAD = 1e150


def _inverse_squares(g: DiagonalMetric, name: str) -> tuple[list, list]:
    inv = [1.0 / a for a in g.scales]
    c = [v * v for v in inv]
    check_inverse_squares(g, c, name)
    return inv, c


def _term(u: float, c1, c2, d, s) -> float:
    """Integrand times dt/du at the node u, without the 2 pi^2 / 4.

    t (1-t) / c_j(t) is at most 1 / max(c1_j, c2_j), so the products
    t (1-t) d_j / c_j and t (1-t) s_j / c_j stay below 1 and 2."""
    x = math.pi * math.sinh(u)
    t = 1.0 / (1.0 + math.exp(-x))
    tc = 1.0 / (1.0 + math.exp(x))
    tt = t * tc
    c = [t * p + tc * q for p, q in zip(c1, c2)]
    dc = [tt * dj / cj for dj, cj in zip(d, c)]
    sc = [tt * sj / cj for sj, cj in zip(s, c)]
    bracket = sum(dc) * sum(sc) + 2.0 * sum(p * q for p, q in zip(dc, sc))
    root = math.sqrt(c[0]) * math.sqrt(c[1]) * math.sqrt(c[2]) * math.sqrt(c[3])
    return math.pi * math.cosh(u) * bracket / root


def kinetic_term(g1: DiagonalMetric, g2: DiagonalMetric) -> float:
    """int dS (Q1^-2 + Q2^-2) with Q_i(xi) = sum_j xi_j^2 / a_{i,j}^2, which
    the sphere identity (module docstring) makes 2 pi^2 (prod a1 + prod a2).
    Raises ValueError when the value overflows double precision."""
    value = TWO_PI_SQ * (math.prod(g1.scales) + math.prod(g2.scales))
    if not math.isfinite(value):
        raise ValueError(
            f"the kinetic term overflows double precision for g1 = {g1.scales}, "
            f"g2 = {g2.scales}"
        )
    return value


def potential_1d(g1: DiagonalMetric, g2: DiagonalMetric) -> float:
    """Interaction potential of a pair of diagonal metrics, from the
    Feynman-parameter integral (module docstring).  Exactly 0.0 for
    identical metrics.  Raises ValueError when a 1/a^2 is 0 or inf in
    double precision, when the 1/a^2 spread more than MAX_SPREAD, or when
    the potential overflows."""
    inv1, c1 = _inverse_squares(g1, "g1")
    inv2, c2 = _inverse_squares(g2, "g2")
    d = [(q - p) ** 2 for p, q in zip(inv1, inv2)]
    if not any(d):
        return 0.0
    # the integrand is homogeneous of degree -2 in (c1, c2): scale the
    # largest entry to 1
    kappa = max(c1 + c2)
    if min(c1 + c2) * MAX_SPREAD < kappa:
        raise ValueError(
            f"the scale factors of g1 = {g1.scales} and g2 = {g2.scales} "
            f"span a ratio above {math.sqrt(MAX_SPREAD):g}"
        )
    c1 = [v / kappa for v in c1]
    c2 = [v / kappa for v in c2]
    d = [v / kappa for v in d]
    s = [p + q for p, q in zip(c1, c2)]

    h = H0
    n = round(U_MAX / h)
    terms = [_term(k * h, c1, c2, d, s) for k in range(-n, n + 1)]
    est = h * math.fsum(terms)
    for _ in range(MAX_HALVINGS):
        prev = est
        h *= 0.5
        n *= 2
        terms.extend(_term(k * h, c1, c2, d, s) for k in range(1 - n, n, 2))
        est = h * math.fsum(terms)
        if abs(est - prev) <= REL_TOL * est:
            break
    else:
        raise ValueError(
            f"the 1-D potential rule did not reach {REL_TOL:g} relative "
            f"for g1 = {g1.scales}, g2 = {g2.scales}"
        )
    value = TWO_PI_SQ * 0.25 * est / kappa / kappa
    if not math.isfinite(value):
        raise ValueError(
            f"the potential overflows double precision for g1 = {g1.scales}, "
            f"g2 = {g2.scales}"
        )
    return value
