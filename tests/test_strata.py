"""Exact strata of W, the bimetric potential at g2 = 1:

    W(r) = potential_elliptic(diag(r), 1) / (2 pi^2),

r the relative eigenvalues.  Where eigenvalues repeat, W is rational; the
rationals here are checked against the elliptic closed form and, exactly in
Fraction, against the exchange identity and the Hassan-Rosen family.  At a
proportional background the mass term tau, sigma and the two vacuum
polynomials of docs/derivation.md section 4 are checked exactly, in
Fraction polynomial arithmetic, and tau, sigma against the evaluator.
"""

import math
from fractions import Fraction

import numpy as np

from doubled_spectral import DiagonalMetric, potential_elliptic
from doubled_spectral.geometry import TWO_PI_SQ

UNIT = DiagonalMetric((1.0, 1.0, 1.0, 1.0))


def w_elliptic(r) -> float:
    return potential_elliptic(DiagonalMetric(r), UNIT) / TWO_PI_SQ


def w_face(s, t):
    """W(s, t, 1, 1); every term non-negative."""
    return (t * (s - 1) ** 2 + s * (t - 1) ** 2) / (s + t)


def p_three_equal(s, t):
    """P(s, t), the numerator of W on the three-equal stratum."""
    return (
        s**5 * t + 2 * s**4 * t**2 - 2 * s**4 * t + s**3 * t**3
        - 6 * s**3 * t**2 + 4 * s**3 * t + 4 * s**2 * t**2 - 6 * s**2 * t
        + s**2 - 2 * s * t**2 + 2 * s * t + t**2
    )


def w_three_equal(s, t):
    """W(s, s, s, t) = P(s, t) / (s + t)^2."""
    return p_three_equal(s, t) / (s + t) ** 2


def rel_error(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact) / exact)


def draw_log_uniform(rng, bound, size):
    return np.exp(rng.uniform(-bound, bound, size)).tolist()


def test_face_against_elliptic():
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(3000):
        s, t = draw_log_uniform(rng, 60.0, 2)
        exact = w_face(Fraction(s), Fraction(t))
        worst = max(worst, rel_error(w_elliptic((s, t, 1.0, 1.0)), exact))
    assert worst <= 4e-15


def test_three_equal_against_elliptic():
    rng = np.random.default_rng(301)
    for _ in range(500):
        s, t = draw_log_uniform(rng, 3.0, 2)
        exact = w_three_equal(Fraction(s), Fraction(t))
        assert rel_error(w_elliptic((s, s, s, t)), exact) <= 1e-12


def test_strata_meet_the_known_lines():
    # proportional metrics W(c 1) = (c-1)^2 (c^2+1), and W(s,1,1,1) =
    # (s-1)^2/(s+1) on both strata
    for s in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
        assert w_three_equal(s, s) == (s - 1) ** 2 * (s * s + 1)
        assert w_face(s, Fraction(1)) == (s - 1) ** 2 / (s + 1)
        assert w_three_equal(Fraction(1), s) == (s - 1) ** 2 / (s + 1)


def test_exchange_identity_exact():
    # V(g1, g2) = V(g2, g1) at g2 = 1 reads W(r) = det r W(1/r)
    values = [Fraction(n, d) for n, d in ((1, 3), (2, 1), (7, 5), (9, 11), (13, 2))]
    for s in values:
        for t in values:
            assert w_face(s, t) == s * t * w_face(1 / s, 1 / t)
            assert w_three_equal(s, t) == s**3 * t * w_three_equal(1 / s, 1 / t)


def elementary_symmetric(r) -> list:
    """e_0(r) .. e_4(r) of four eigenvalues."""
    e = [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)]
    for x in r:
        for n in range(4, 0, -1):
            e[n] += x * e[n - 1]
    return e


def test_not_hassan_rosen():
    # e_n(c 1) = C(4, n) c^n, so sum_n beta_n e_n(c 1) = (c-1)^2 (c^2+1)
    # = 1 - 2c + 2c^2 - 2c^3 + c^4 for all c fixes beta_n as the n-th
    # coefficient over C(4, n); five distinct c pin a quartic, so the
    # checks below prove the expansion
    beta = [Fraction(a, math.comb(4, n)) for n, a in enumerate((1, -2, 2, -2, 1))]
    assert beta == [1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 2), 1]
    for c in map(Fraction, ("1/7", "1/2", "2", "9/4", "5", "-3")):
        e = elementary_symmetric([c] * 4)
        assert sum(b * x for b, x in zip(beta, e)) == (c - 1) ** 2 * (c * c + 1)

    r = [Fraction(2), Fraction(1), Fraction(1), Fraction(1)]
    assert sum(b * x for b, x in zip(beta, elementary_symmetric(r))) == 0
    assert w_face(Fraction(2), Fraction(1)) == Fraction(1, 3)
    assert math.isclose(w_elliptic((2.0, 1.0, 1.0, 1.0)), 1.0 / 3.0, rel_tol=1e-15)


class Poly:
    """Polynomial in c with Fraction coefficients, lowest degree first."""

    def __init__(self, coeffs):
        coeffs = [Fraction(a) for a in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @staticmethod
    def lift(p):
        return p if isinstance(p, Poly) else Poly([p])

    def __add__(self, other):
        a, b = self.coeffs, Poly.lift(other).coeffs
        n = max(len(a), len(b))
        return Poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-a for a in self.coeffs])

    def __sub__(self, other):
        return self + -Poly.lift(other)

    def __mul__(self, other):
        a, b = self.coeffs, Poly.lift(other).coeffs
        out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Poly([1])
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return self.coeffs == Poly.lift(other).coeffs

    def __call__(self, x):
        return sum(a * x**i for i, a in enumerate(self.coeffs))

    def derivative(self):
        return Poly([i * a for i, a in enumerate(self.coeffs)][1:])


C = Poly([0, 1])
# W at the proportional background r = c 1, and the Hessian tau I + sigma J
# of W in delta at r = c e^delta
W_PROP = (C - 1) ** 2 * (C**2 + 1)
TAU = Fraction(1, 6) * C * (5 * C**2 - 4 * C + 5)
SIGMA = Fraction(1, 3) * C * (C - 1) * (3 * C**2 - C + 1)


def test_proportional_background_exact():
    # the three-equal stratum at s = t = c: P(c, c) / (2c)^2 = (c-1)^2 (c^2+1)
    assert p_three_equal(C, C) == (2 * C) ** 2 * W_PROP
    w1, w2 = W_PROP.derivative(), W_PROP.derivative().derivative()
    # along delta = t (1, 1, 1, 1), d^2/dt^2 W(c e^t) = c^2 W'' + c W'
    assert 4 * (TAU + 4 * SIGMA) == C**2 * w2 + C * w1
    # at c = 1: tau = 1, sigma = 0
    assert (TAU(1), SIGMA(1)) == (1, 0)


def test_no_fierz_pauli_vacuum_exact():
    w1 = W_PROP.derivative()
    # g2 fixed: tadpole and Fierz-Pauli form together need 4 (tau + sigma)
    # = c W', but the difference is 4c ((c - 1/2)^2 + 3/4), positive for c > 0
    assert 4 * (TAU + SIGMA) - C * w1 == 4 * C * (C**2 - C + 1)
    assert C**2 - C + 1 == (C - Fraction(1, 2)) ** 2 + Fraction(3, 4)
    # both metrics varied: the two tadpoles need W' (1 + c^4) = 4 c^3 W;
    # the quartic is a sum of squares with no common real zero, so c = 1
    quartic = C**4 - 2 * C**3 + 4 * C**2 - 2 * C + 1
    assert w1 * (1 + C**4) - 4 * C**3 * W_PROP == 2 * (C - 1) * (C + 1) * quartic
    assert quartic == (C**2 - C) ** 2 + 2 * C**2 + (C - 1) ** 2


def test_mass_term_against_elliptic():
    # central differences of W at r = c e^delta: the diagonal second
    # derivative is tau + sigma, the mixed one sigma
    h = 1e-3
    for c in (0.5, 2.0, 4.0):
        def w(d0, d1):
            return w_elliptic((c * math.exp(d0), c * math.exp(d1), c, c))

        diagonal = (w(h, 0.0) - 2.0 * w(0.0, 0.0) + w(-h, 0.0)) / (h * h)
        mixed = (w(h, h) - w(h, -h) - w(-h, h) + w(-h, -h)) / (4.0 * h * h)
        tau, sigma = float(TAU(Fraction(c))), float(SIGMA(Fraction(c)))
        assert abs(diagonal - (tau + sigma)) <= 1e-5 * (tau + sigma)
        assert abs(mixed - sigma) <= 1e-5 * abs(sigma)
