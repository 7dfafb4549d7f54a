import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubled_spectral import (
    HopfMetric,
    potential_closed,
    potential_elliptic,
    potential_numeric,
    potential_via_conjecture,
    relative_eigenvalues,
    script_v,
    to_diagonal,
)

TWO_PI_SQ = 2.0 * math.pi**2


def draw_hopf(rng, lo=0.5, hi=2.0):
    a, b = np.exp(rng.uniform(np.log(lo), np.log(hi), 2))
    return HopfMetric(a=float(a), b=float(b))


def off_singular(h1, h2, margin=0.05):
    d = h2.a * h1.b - h1.a * h2.b
    return abs(d) > margin * (h2.a * h1.b + h1.a * h2.b)


class TestToDiagonal:
    def test_unit(self):
        assert to_diagonal(HopfMetric(a=1, b=1)).scales == (1, 1, 1, 1)

    def test_ordering(self):
        assert to_diagonal(HopfMetric(a=2, b=3)).scales == (3, 3, 2, 2)

    def test_relative_eigenvalues_roundtrip(self):
        h1 = HopfMetric(a=0.8, b=1.5)
        h2 = HopfMetric(a=1.2, b=0.6)
        x, y = 1.5 / 0.6, 0.8 / 1.2
        assert relative_eigenvalues(to_diagonal(h1), to_diagonal(h2)) == (x, x, y, y)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HopfMetric(a=0.0, b=1.0)


class TestPotentialClosed:
    def test_equal_metrics_zero(self):
        h = HopfMetric(a=1.2, b=0.7)
        assert potential_closed(h, h) == 0.0

    def test_matches_expanded_formula(self):
        # the paper's form, F and G multiplied out and divided by the full
        # (a2 b1 - a1 b2)(a2 b1 + a1 b2)^2
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 20:
            h1, h2 = draw_hopf(rng), draw_hopf(rng)
            if not off_singular(h1, h2):
                continue
            checked += 1
            a1, b1, a2, b2 = h1.a, h1.b, h2.a, h2.b
            f = (
                4 * a1**2 * a2**2 * b1**2 * b2**2 * (a1 - a2) * (b1 - b2)
                * math.log(a1 * b2 / (a2 * b1))
            )
            g = (a2**2 * b1**2 - a1**2 * b2**2) * (
                a1**2 * b1**2 * a2 * (b1 - 2 * b2)
                + a2**2 * b2**2 * a1 * (b2 - 2 * b1)
                + a1**3 * b1**2 * b2
                + a2**3 * b2**2 * b1
            )
            expect = TWO_PI_SQ * (f + g) / ((a2 * b1 - a1 * b2) * (a2 * b1 + a1 * b2) ** 2)
            assert abs(potential_closed(h1, h2) - expect) <= 1e-12 * expect

    def test_reduction_equal_a(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            a, b1, b2 = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 3))
            val = potential_closed(HopfMetric(a=a, b=b1), HopfMetric(a=a, b=b2))
            expect = TWO_PI_SQ * a**2 * (b1 - b2) ** 2
            assert abs(val - expect) <= 1e-12 * max(expect, 1e-30)

    def test_reduction_equal_b(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            a1, a2, b = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 3))
            val = potential_closed(HopfMetric(a=a1, b=b), HopfMetric(a=a2, b=b))
            expect = TWO_PI_SQ * (a1 - a2) ** 2 * b**2
            assert abs(val - expect) <= 1e-12 * max(expect, 1e-30)

    def test_agrees_with_quadrature(self, rule32):
        rng = np.random.default_rng(67)
        checked = 0
        while checked < 20:
            h1, h2 = draw_hopf(rng), draw_hopf(rng)
            if not off_singular(h1, h2):
                continue
            checked += 1
            vn = potential_numeric(to_diagonal(h1), to_diagonal(h2), rule32)
            vc = potential_closed(h1, h2)
            assert abs(vc - vn) <= 1e-8 * vn

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            h1, h2 = draw_hopf(rng), draw_hopf(rng)
            va = potential_closed(h1, h2)
            vb = potential_closed(h2, h1)
            assert abs(va - vb) <= 1e-12 * max(abs(va), 1e-30)

    def test_singular_tube_uses_1d_fallback(self):
        # on the surface itself the closed form is 0/0; the fallback, the
        # elliptic closed form, must match the analytic limit
        a1, a2, b2 = 1.4, 0.9, 1.1
        b1 = b2 * a1 / a2
        h1, h2 = HopfMetric(a=a1, b=b1), HopfMetric(a=a2, b=b2)
        val = potential_closed(h1, h2)
        limit = TWO_PI_SQ * (b2**2 / a2**2) * (a1 - a2) ** 2 * (a1**2 + a2**2)
        assert abs(val - limit) <= 1e-12 * limit
        assert val == potential_elliptic(to_diagonal(h1), to_diagonal(h2))

    def test_wide_log_ratio(self):
        # a1 b2 / (a2 b1) = 1e-20 rounds log1p's argument to -1; the log
        # is then taken as a difference of logs
        val = potential_closed(HopfMetric(a=1.0, b=1e20), HopfMetric(a=1.0, b=1.0))
        expect = TWO_PI_SQ * (1e20 - 1.0) ** 2
        assert abs(val - expect) <= 1e-12 * expect

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match="potential overflows"):
            potential_closed(HopfMetric(a=1.0, b=1e200), HopfMetric(a=1.0, b=1.0))

    def test_power_of_two_scaling_is_exact(self):
        # V(2^k h1, 2^k h2) = 2^(4k) V(h1, h2) bit for bit, also where the
        # products of the unscaled closed form under- or overflow
        rng = np.random.default_rng(29)
        for _ in range(20):
            h1, h2 = draw_hopf(rng), draw_hopf(rng)
            base = potential_closed(h1, h2)
            for k in (-250, -180, 1, 190, 240):
                scaled = [
                    HopfMetric(a=math.ldexp(h.a, k), b=math.ldexp(h.b, k)) for h in (h1, h2)
                ]
                assert potential_closed(*scaled) == math.ldexp(base, 4 * k)

    @pytest.mark.parametrize(
        "h1, h2",
        [
            # the unscaled products underflow: a ZeroDivisionError before
            ((1e-66, 1e-55), (1e-56, 1e-64)),
            # the unscaled products overflow: a false overflow error before
            ((1.3e60, 2e60), (1e60, 1e60)),
        ],
    )
    def test_tiny_and_huge_scales_match_ratio_form(self, h1, h2):
        h1, h2 = HopfMetric(*h1), HopfMetric(*h2)
        vc = potential_closed(h1, h2)
        vj = potential_via_conjecture(h1, h2)
        assert abs(vc - vj) <= 1e-13 * vj
        assert vc == pytest.approx(
            potential_elliptic(to_diagonal(h1), to_diagonal(h2)), rel=1e-14
        )

    def test_scales_beyond_double_range_raise(self):
        # a2 b1 underflows to 0 at any common scaling: a ZeroDivisionError
        # in the log term before
        h1 = HopfMetric(a=6.7e-200, b=1.8e-230)
        h2 = HopfMetric(a=2.4e-265, b=8.7e160)
        with pytest.raises(ValueError, match="ratio above 2\\^1000"):
            potential_closed(h1, h2)

    def test_continuity_across_surface(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            a1, a2, b2 = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 3))
            b1_star = b2 * a1 / a2
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            near = potential_closed(
                HopfMetric(a=a1, b=b1_star * (1 + sign * 1e-5)),
                HopfMetric(a=a2, b=b2),
            )
            far = potential_closed(
                HopfMetric(a=a1, b=b1_star * (1 + sign * 1e-4)),
                HopfMetric(a=a2, b=b2),
            )
            assert abs(near - far) <= 1e-3 * max(abs(near), abs(far), 1e-30)


class TestScriptV:
    def test_x_equals_one(self):
        for y in (0.5, 0.9, 1.7):
            assert abs(script_v(1.0, y) - (y - 1) ** 2) <= 1e-13

    def test_y_equals_one(self):
        for x in (0.6, 1.1, 1.9):
            assert abs(script_v(x, 1.0) - (x - 1) ** 2) <= 1e-13

    def test_diagonal_limit(self):
        for y in (0.5, 0.8, 1.3, 2.0):
            expect = (y - 1) ** 2 * (y**2 + 1)
            assert abs(script_v(y, y) - expect) <= 1e-13 * max(expect, 1e-30)

    def test_limit_consistent_with_nearby_values(self):
        y = 1.4
        inside = script_v(y * (1 + 1e-7), y)
        outside = script_v(y * (1 + 1e-5), y)
        assert abs(inside - outside) <= 1e-4 * abs(outside)

    @settings(max_examples=80, deadline=None)
    @given(x=st.floats(0.5, 2.0), y=st.floats(0.5, 2.0))
    def test_symmetry(self, x, y):
        a, b = script_v(x, y), script_v(y, x)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)

    def test_bimetric_ratio_identity(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            x, y = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 2))
            lhs = script_v(x, y)
            rhs = script_v(1 / x, 1 / y) * x**2 * y**2
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)

    def test_wide_log_ratio(self):
        # y / x = 1e-20 rounds log1p's argument to -1
        expect = (1e20 - 1.0) ** 2
        assert abs(script_v(1e20, 1.0) - expect) <= 1e-12 * expect

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            script_v(-1.0, 2.0)

    def test_underflowing_denominator(self):
        # the unscaled (x - y)(x + y)^2 underflows to 0; the log term is
        # below 1e-100 and V is 1 to double precision
        assert script_v(1e-110, 2e-110) == 1.0
        assert script_v(2e-110, 1e-110) == 1.0


class TestConjectureForm:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            h1, h2 = draw_hopf(rng), draw_hopf(rng)
            if not off_singular(h1, h2, margin=1e-5):
                continue
            vc = potential_closed(h1, h2)
            vj = potential_via_conjecture(h1, h2)
            assert abs(vc - vj) <= 1e-10 * max(abs(vc), 1e-30)

    def test_exchange_identity(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            h1, h2 = draw_hopf(rng), draw_hopf(rng)
            lhs = potential_via_conjecture(h1, h2)
            rhs = potential_via_conjecture(h2, h1)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)

    def test_equal_metrics_zero(self):
        h = HopfMetric(a=0.9, b=1.8)
        assert potential_via_conjecture(h, h) == 0.0

    def test_overflow_raises(self):
        # V is about 2e308; _closed's part of it is about 13 times smaller
        with pytest.raises(ValueError, match="factorized potential overflows"):
            potential_via_conjecture(HopfMetric(a=8e76, b=4e76), HopfMetric(a=1.9, b=1.9))

    @pytest.mark.parametrize("span", [60, 80])
    def test_returns_wherever_closed_form_does(self, span):
        # log-uniform scales in 10^+-span; a subnormal value is compared
        # to within 1e-12 of the smallest normal double
        rng = random.Random(7)
        for _ in range(2000):
            a1, b1, a2, b2 = (10.0 ** rng.uniform(-span, span) for _ in range(4))
            h1, h2 = HopfMetric(a=a1, b=b1), HopfMetric(a=a2, b=b2)
            try:
                vc = potential_closed(h1, h2)
            except ValueError:
                continue
            vj = potential_via_conjecture(h1, h2)
            assert abs(vj - vc) <= 1e-12 * max(vc, sys.float_info.min)


# 60-digit mpmath values of 2 pi^2 (F + G) / ((u - v)(u + v)^2), scales as
# (a, b) of h1 and h2
@pytest.mark.parametrize(
    "method, h1, h2, ref, tol",
    [
        # near-identical metrics, where V is second order in the offset;
        # 2.2e-9 of it is the rounding of x = b1 / b2
        (potential_via_conjecture, (1.0, 1.0), (1.0, 1.00000001),
         1.9739208562249781e-15, 1e-8),
        # scale ratios near 1e80: x^2 y^2 of the ratio variables overflows
        # unless the scales are brought near 1
        (potential_via_conjecture, (1.42e43, 7.9e19), (1.8e-38, 6.19e-14),
         2.4840515966379885e127, 1e-14),
        # x^2 y^2 + 1 - 2 x y (x y + 1) / (x + y) multiplied out cancels
        # to 1e-5 of its terms
        (potential_via_conjecture, (1.0, 1.0), (1.0, 1.0045),
         3.9971897824410987e-4, 1e-13),
        # sqrt(det g2) = 1e-400 alone underflows to 0
        (potential_via_conjecture, (1e-75, 3e-75), (1e-100, 1e-100),
         1.7765287921960843e-298, 1e-14),
        # W(x, y) alone overflows at scale ratios near 1e92 and 1e96
        (potential_via_conjecture, (1.6923442730168229e34, 2.4221124116965457e22),
         (9.761608991445863e-63, 4.199128033893202e-70), 3.316620367857809e114, 1e-14),
        # scale ratios near 1e104: 2 pi^2 (F + G) overflows although V is
        # 2.7e-3
        (potential_closed, (2.6e-50, 4.5e47), (1.5e48, 8.7e-57),
         2.7021002929336063e-3, 1e-14),
        # the product a1^2 a2^2 of F is subnormal once the scales' geometric
        # mean is brought near 1
        (potential_closed, (9.5e-16, 3.1e147), (4.1e-20, 1.6e141),
         1.7119845829889329e266, 1e-14),
    ],
    ids=["conjecture-near-identical", "conjecture-wide", "conjecture-cancelling",
         "conjecture-det-underflows", "conjecture-ratio-form-overflows",
         "closed-false-overflow", "closed-subnormal"],
)
def test_against_reference(method, h1, h2, ref, tol):
    value = method(HopfMetric(*h1), HopfMetric(*h2))
    assert abs(value - ref) <= tol * ref
