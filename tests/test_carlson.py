import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubled_spectral import (
    DiagonalMetric,
    HopfMetric,
    potential_closed,
    potential_elliptic,
    potential_numeric,
    relative_eigenvalues,
    to_diagonal,
)
from doubled_spectral.carlson import R_D, R_F, rational_integral
from doubled_spectral.matchings import _eigenvalues
from conftest import draw_scales, potential_1d, product_sum

TWO_PI_SQ = 2.0 * math.pi**2


def rel(a, b):
    return abs(a - b) / abs(b)


class TestRD:
    def test_published_values(self):
        # Carlson, Numer. Algorithms 10 (1995) 13, section 3
        assert rel(R_D(0.0, 2.0, 1.0), 1.7972103521034) <= 1e-13
        assert rel(R_D(2.0, 3.0, 4.0), 0.16510527294261) <= 1e-13

    @pytest.mark.parametrize("x", [1e-200, 1e-20, 0.3, 1.0, 7.0, 1e20, 1e200])
    def test_equal_arguments(self, x):
        assert rel(R_D(x, x, x), x**-1.5) <= 1e-15

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y, z = (float(v) for v in np.exp(rng.uniform(-5.0, 5.0, 3)))
            for lam in (1e-100, 0.37, 4.0, 1e100):
                expect = lam**-1.5 * R_D(x, y, z)
                assert rel(R_D(lam * x, lam * y, lam * z), expect) <= 1e-14

    @pytest.mark.parametrize(
        "args", [(0.0, 0.0, 1.0), (1.0, 1.0, 0.0), (-1.0, 1.0, 1.0), (1.0, math.nan, 1.0),
                 (1.0, 1.0, math.inf)],
    )
    def test_outside_domain_raises(self, args):
        with pytest.raises(ValueError, match="R_D needs"):
            R_D(*args)

    @pytest.mark.parametrize(
        "f, args", [(R_D, (1e-300, 1e-300, 1e-300)), (R_D, (0.0, 1e-300, 1e-300)),
                    (R_F, (1e-300, 1e-300, 1e-300))],
        ids=["R_D", "R_D-x-zero", "R_F"],
    )
    def test_underflowing_step_raises_value_error(self, f, args):
        # a step's product underflows to 0, though R_F of these arguments is
        # 1e150: one ValueError, not ZeroDivisionError
        with pytest.raises(ValueError, match="a duplication step underflows to 0"):
            f(*args)


class TestRF:
    def test_published_values(self):
        # Carlson, Numer. Algorithms 10 (1995) 13, section 3
        assert R_F(1.0, 1.0, 1.0) == 1.0
        assert rel(R_F(1.0, 2.0, 0.0), 1.31102877714606) <= 1e-14
        assert rel(R_F(2.0, 3.0, 4.0), 0.584082841677152) <= 1e-14

    def test_symmetric_and_homogeneous(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y, z = (float(v) for v in np.exp(rng.uniform(-5.0, 5.0, 3)))
            base = R_F(x, y, z)
            assert R_F(z, x, y) == base and R_F(y, z, x) == base
            for lam in (1e-200, 0.37, 4.0, 1e200):
                assert rel(R_F(lam * x, lam * y, lam * z), base / math.sqrt(lam)) <= 1e-14

    @pytest.mark.parametrize("args", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)])
    def test_two_zero_arguments_raise(self, args):
        with pytest.raises(ValueError, match="at most one is 0"):
            R_F(*args)


class TestRationalIntegral:
    """int dS / (xi^T A xi) = 4 pi^2 R_F(U_1^2, U_2^2, U_3^2) from the
    eigenvalues of A."""

    @pytest.mark.parametrize("omega", [1e-300, 0.3, 1.0, 7.0, 1e300])
    def test_identity_form(self, omega):
        assert rel(rational_integral([omega] * 4), TWO_PI_SQ / omega) <= 1e-15

    def test_homogeneous_and_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam = [float(v) for v in np.exp(rng.uniform(-5.0, 5.0, 4))]
            base = rational_integral(lam)
            for c in (1e-100, 0.37, 4.0, 1e100):
                assert rel(rational_integral([c * v for v in lam]), base / c) <= 1e-15
            # a power of two scales exactly
            assert rational_integral([0.25 * v for v in lam]) == 4.0 * base
            for _ in range(3):
                assert rational_integral([lam[i] for i in rng.permutation(4)]) == base

    def test_in_box_against_product_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            lam = np.array(draw_scales(rng))
            expect = product_sum(64, lambda x: 1.0 / ((x * x) @ lam))
            assert rel(rational_integral(lam.tolist()), expect) <= 1e-14

    @pytest.mark.parametrize(
        "rho, expect", [(0.999, 32.293388068349582504), (0.9999, 32.956858915214702258)]
    )
    def test_near_singular_forms(self, rho, expect):
        # omega = 1, eps = diag(rho, -rho, 0.5, -0.5); 40-digit references
        # (mpmath elliprf), where the level-64 rule was 6.5e-5 and 2.3e-3 off;
        # 1e-14 is under two ulp of 32
        lam = [1.0 + rho, 1.0 - rho, 1.5, 0.5]
        assert abs(rational_integral(lam) - expect) <= 1e-14

    @pytest.mark.parametrize(
        "lam", [[0.0, 1.0, 1.0, 1.0], [1.0, -1e-4, 1.0, 1.0], [1.0, 1.0, math.nan, 1.0],
                [-math.inf, 1.0, 1.0, 1.0]],
    )
    def test_indefinite_form_rejected(self, lam):
        with pytest.raises(ValueError, match="must be positive definite"):
            rational_integral(lam)

    def test_non_finite_eps_rejected(self):
        # a duck-typed form bypasses PerturbedForm's checks, and eigvalsh
        # reads a NaN as 0: the identity form's eigenvalues
        pf = SimpleNamespace(omega=1.0, eps=np.diag([math.nan, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="eps has non-finite entries"):
            rational_integral(_eigenvalues(pf))

    @pytest.mark.parametrize("lam", [[1e-320] * 4, [math.inf, 1.0, 1.0, 1.0]])
    def test_overflow_rejected(self, lam):
        with pytest.raises(ValueError, match="overflows double precision"):
            rational_integral(lam)

    @pytest.mark.parametrize(
        "lam", [[1e300, 1.0, 1.0, 1.0], [1e300, 1e-300, 1e-300, 1e-300], [1.0, 1.0, 1e-320, 1e-320]],
    )
    def test_unresolved_spread_rejected(self, lam):
        # the integrals are normal doubles (3.9478417604357433439e-149,
        # 39.478417604357432944 and 14544.386759080170180, 30 digits), but two
        # U_k^2 underflow to 0, a step of R_D underflows to 0, or
        # R_F returns inf: one ValueError, not ZeroDivisionError or "overflows"
        with pytest.raises(ValueError, match="span more than the closed form resolves"):
            rational_integral(lam)


class TestAgainstOracle:
    def test_in_box_pairs(self, rule64):
        rng = np.random.default_rng(97)
        for _ in range(8):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            assert rel(potential_elliptic(g1, g2), potential_numeric(g1, g2, rule64)) <= 1e-14

    def test_tube_pair(self, rule64):
        # a Hopf pair on the singular surface a2 b1 = a1 b2 of the closed form
        a1, a2, b2 = 0.8, 1.3, 0.7
        g1 = to_diagonal(HopfMetric(a=a1, b=b2 * a1 / a2))
        g2 = to_diagonal(HopfMetric(a=a2, b=b2))
        assert rel(potential_elliptic(g1, g2), potential_numeric(g1, g2, rule64)) <= 1e-14


class TestAgainstIntegral:
    @pytest.mark.parametrize("span", [math.log(2.0), 20.0, 80.0])
    def test_seeded_pairs(self, span):
        # scales log-uniform in e^-span .. e^span; at e^80 the S^3 rule is
        # far off, and the spread of the 1/a^2 reaches 1e139
        rng = np.random.default_rng(round(span))
        for _ in range(12):
            g1 = DiagonalMetric(draw_scales(rng, math.exp(-span), math.exp(span)))
            g2 = DiagonalMetric(draw_scales(rng, math.exp(-span), math.exp(span)))
            assert rel(potential_elliptic(g1, g2), potential_1d(g1, g2)) <= 1e-14

    def test_wide_axis(self):
        g1, g2 = DiagonalMetric((1e-70, 1, 1, 1)), DiagonalMetric((1, 1, 1, 1))
        assert rel(potential_elliptic(g1, g2), potential_1d(g1, g2)) <= 1e-14


class TestAgainstClosedForm:
    @pytest.mark.parametrize("ratio", [10.0, 30.0, 100.0])
    def test_wide_hopf_ratios(self, ratio):
        # the level-64 rule was off by 5e-3 at 30:1 and by 0.47 at 100:1
        # before it normalized each axis, and is 1.1e-15 and 4.6e-10 off now
        for h1, h2 in [
            (HopfMetric(a=1.0, b=ratio), HopfMetric(a=1.0, b=1.0)),
            (HopfMetric(a=0.7, b=1.2), HopfMetric(a=0.7 * ratio, b=0.9)),
        ]:
            v = potential_elliptic(to_diagonal(h1), to_diagonal(h2))
            assert rel(v, potential_closed(h1, h2)) <= 1e-14

    def test_proportional_pairs(self):
        # on the singular surface the potential is 2 pi^2 (z-1)^2 (z^2+1)
        # for g1 = z g2 = z (1, 1, 1, 1), far beyond the oracle's range
        g2 = DiagonalMetric((1.0, 1.0, 1.0, 1.0))
        for z in (1e-74, 1e-20, 0.5, 2.0, 1e6, 1e40, 1e74):
            g1 = DiagonalMetric((z, z, z, z))
            expect = TWO_PI_SQ * (z - 1.0) ** 2 * (z * z + 1.0)
            assert rel(potential_elliptic(g1, g2), expect) <= 1e-14

    @pytest.mark.parametrize("z", [1e-100, 1e-76, 1e76, 1e100])
    def test_proportional_beyond_spread(self, z):
        g1, g2 = DiagonalMetric((z, z, z, z)), DiagonalMetric((1.0, 1.0, 1.0, 1.0))
        try:
            value = potential_elliptic(g1, g2)
        except ValueError:
            return
        expect = TWO_PI_SQ * (z - 1.0) ** 2 * (z * z + 1.0)
        assert rel(value, expect) <= 1e-14


class TestFactorization:
    @pytest.mark.parametrize("span", [math.log(2.0), 20.0])
    def test_depends_only_on_relative_eigenvalues(self, span):
        # the integrand is homogeneous of degree -4, so a joint per-axis
        # rescaling by 1/a2 gives V(g1, g2) = sqrt(det g2) V(r, 1) with
        # r = a1 / a2 (docs/derivation.md)
        rng = np.random.default_rng(round(span) + 7)
        unit = DiagonalMetric((1.0, 1.0, 1.0, 1.0))
        for _ in range(20):
            g1 = DiagonalMetric(draw_scales(rng, math.exp(-span), math.exp(span)))
            g2 = DiagonalMetric(draw_scales(rng, math.exp(-span), math.exp(span)))
            r = DiagonalMetric(relative_eigenvalues(g1, g2))
            expect = math.prod(g2.scales) * potential_elliptic(r, unit)
            assert rel(potential_elliptic(g1, g2), expect) <= 1e-14


class TestEdges:
    def test_identical_metrics_exactly_zero(self):
        g = DiagonalMetric((1.3, 0.7, 1.1, 0.9))
        assert potential_elliptic(g, g) == 0.0

    def test_exchange_symmetry(self):
        g1 = DiagonalMetric((1.3, 0.7, 1.1, 0.9))
        g2 = DiagonalMetric((0.8, 1.6, 0.6, 1.2))
        assert rel(potential_elliptic(g1, g2), potential_elliptic(g2, g1)) <= 1e-14

    @pytest.mark.parametrize(
        "scales", [(1e200, 1.0, 1.0, 1.0), (1.0, 1.0, 1e-160, 1e-160)],
        ids=["inverse-square-zero", "inverse-square-inf"],
    )
    def test_out_of_range_scale_raises_value_error(self, scales):
        g = DiagonalMetric((1.0, 1.0, 1.0, 1.0))
        for pair in ((DiagonalMetric(scales), g), (g, DiagonalMetric(scales))):
            with pytest.raises(ValueError, match="1/a\\^2"):
                potential_elliptic(*pair)

    def test_spread_beyond_range_raises(self):
        g1 = DiagonalMetric((1e76, 1.0, 1.0, 1.0))
        g2 = DiagonalMetric((1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="ratio above"):
            potential_elliptic(g1, g2)

    def test_overflow_raises(self):
        g1 = DiagonalMetric((1e150, 1e150, 1e150, 1e150))
        g2 = DiagonalMetric((1e150, 1e150, 1e150, 2e150))
        with pytest.raises(ValueError, match="potential overflows"):
            potential_elliptic(g1, g2)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-323.0, 308.0), min_size=8, max_size=8))
    def test_finite_or_value_error(self, exponents):
        # over every double scale: a finite value >= 0, or ValueError, never
        # inf, NaN, ZeroDivisionError or OverflowError
        scales = [min(10.0**e, 1.7e308) for e in exponents]
        g1, g2 = DiagonalMetric(tuple(scales[:4])), DiagonalMetric(tuple(scales[4:]))
        try:
            value = potential_elliptic(g1, g2)
        except ValueError:
            return
        assert math.isfinite(value) and value >= 0.0
