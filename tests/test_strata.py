"""Exact strata of W, the bimetric potential at g2 = 1:

    W(r) = potential_elliptic(diag(r), 1) / (2 pi^2),

r the relative eigenvalues.  Where eigenvalues repeat, W is rational; the
rationals here are checked against the elliptic closed form and, exactly in
Fraction, against the exchange identity and the Hassan-Rosen family.
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


def w_three_equal(s, t):
    """W(s, s, s, t) = P(s, t) / (s + t)^2."""
    p = (
        s**5 * t + 2 * s**4 * t**2 - 2 * s**4 * t + s**3 * t**3
        - 6 * s**3 * t**2 + 4 * s**3 * t + 4 * s**2 * t**2 - 6 * s**2 * t
        + s**2 - 2 * s * t**2 + 2 * s * t + t**2
    )
    return p / (s + t) ** 2


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
