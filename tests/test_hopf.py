import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from doubled_spectral.geometry import DiagonalMetric
from doubled_spectral.hopf import from_diagonal

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

    def test_from_diagonal_inverts_it(self):
        for h in (HopfMetric(a=1, b=1), HopfMetric(a=2, b=3), HopfMetric(a=1e-200, b=7.5)):
            assert from_diagonal(to_diagonal(h)) == h

    def test_from_diagonal_of_a_non_hopf_metric_is_none(self):
        # each of the two conditions a0 == a1 and a2 == a3 on its own
        for scales in ((2, 1, 1, 1), (1, 1, 1, 2), (1, 2, 1, 2), (1.0, 1.0 + 2**-52, 3, 3)):
            assert from_diagonal(DiagonalMetric(scales)) is None


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

    def test_singular_tube_analytic_limit(self):
        # on the surface u = v the paper's form is 0/0; the R_D form is
        # regular there and must match the analytic limit
        a1, a2, b2 = 1.4, 0.9, 1.1
        b1 = b2 * a1 / a2
        h1, h2 = HopfMetric(a=a1, b=b1), HopfMetric(a=a2, b=b2)
        val = potential_closed(h1, h2)
        limit = TWO_PI_SQ * (b2**2 / a2**2) * (a1 - a2) ** 2 * (a1**2 + a2**2)
        assert abs(val - limit) <= 1e-12 * limit

    def test_wide_log_ratio(self):
        # a1 b2 / (a2 b1) = 1e-20: log(v / u) is far from 0
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

    def test_ratio_beyond_double_range_raises(self):
        # a1 / a2 = 6e319 overflows: the error names the metrics given, not
        # the rescaled arguments of the closed form
        h1 = HopfMetric(a=5.44e266, b=9.67e-207)
        h2 = HopfMetric(a=9.05e-54, b=9.43e120)
        with pytest.raises(ValueError, match="leaves double range") as err:
            potential_via_conjecture(h1, h2)
        assert repr(h1) in str(err.value) and repr(h2) in str(err.value)

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
        # y / x = 1e-20: log(y / x) is far from 0
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

    def test_wide_scales_against_reference(self):
        # scales spanning 1e294: prescaling the ratio variables by a power of
        # two near sqrt(a2 b2) would underflow inside the closed form and
        # lose 1.3e-5 of V; 50-digit mpmath value of the paper's W at these
        # doubles (the decimal strings give 1.2335122334033752643e-137)
        h1 = HopfMetric(a=3.1403115478447215e+110, b=2.517295061136218e-180)
        h2 = HopfMetric(a=2.2246375514913755e-184, b=8.112980726567328e+93)
        ref = 1.2335122334033754179704460450072013230731206507188e-137
        assert abs(potential_via_conjecture(h1, h2) - ref) <= 1e-15 * ref

    def test_ratios_past_the_prescaled_range(self):
        # x = 2.6e303 and y = 8.8e-265 are doubles, but x times a power of
        # two near sqrt(a2 b2) = 4.4e5 is not
        h1 = HopfMetric(a=4.891348603995538e-109, b=8.965626689083645e+158)
        h2 = HopfMetric(a=5.54261625327156e+155, b=3.4410607150707915e-145)
        closed = potential_closed(h1, h2)
        assert closed == 3.7961929324492556e+102
        assert abs(potential_via_conjecture(h1, h2) - closed) <= 1e-15 * closed

    @pytest.mark.parametrize(
        "h1, h2",
        [
            ((1.2525133549642113e-14, 8.975877551344322e-150),
             (1.9937951637333827e-54, 5.397127792722228e-109)),
            ((1.0276465438140967e-39, 7.65886720121669e-123),
             (8.607755728085502e-99, 1.2754259150940466e-98)),
        ],
        ids=["5-ulp", "247-ulp"],
    )
    def test_subnormal_value_equals_closed_form(self, h1, h2):
        # V is subnormal: rounded once from value and exponent, the
        # factorized form keeps every bit the closed form has
        h1, h2 = HopfMetric(*h1), HopfMetric(*h2)
        closed = potential_closed(h1, h2)
        assert 0.0 < closed < sys.float_info.min
        assert potential_via_conjecture(h1, h2) == closed

    def test_agrees_with_closed_form_across_double_range(self):
        # log-uniform scales in 10^+-200: wherever x and y are positive
        # doubles the factorized form overflows exactly where the closed form
        # does, and otherwise is within 1e-15 of it (of 1e-300 below that)
        rng = random.Random(11)
        for _ in range(5000):
            a1, b1, a2, b2 = (10.0 ** rng.uniform(-200, 200) for _ in range(4))
            h1, h2 = HopfMetric(a=a1, b=b1), HopfMetric(a=a2, b=b2)
            x, y = b1 / b2, a1 / a2
            if not (min(x, y) > 0.0 and max(x, y) < math.inf):
                with pytest.raises(ValueError, match="leaves double range"):
                    potential_via_conjecture(h1, h2)
                continue
            try:
                vc = potential_closed(h1, h2)
            except ValueError:
                with pytest.raises(ValueError, match="factorized potential overflows"):
                    potential_via_conjecture(h1, h2)
                continue
            vj = potential_via_conjecture(h1, h2)
            assert abs(vj - vc) <= 1e-15 * max(vc, 1e-300)

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


# b1 = 6.8e-156 and a1 = 6.7e-153 against the unit metric: at the scales'
# mean exponent the product a1 a2^2 b2^3 overflows, yet V = 2 pi^2 to
# double precision
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda h1, h2: potential_closed(h1, h2),
        lambda h1, h2: potential_via_conjecture(h1, h2),
        lambda h1, h2: script_v(h1.b / h2.b, h1.a / h2.a) * TWO_PI_SQ,
    ],
    ids=["closed", "conjecture", "script_v"],
)
def test_products_beyond_double_range_at_the_mean_scaling(evaluate):
    h1, h2 = HopfMetric(a=6.7e-153, b=6.8e-156), HopfMetric(a=1.0, b=1.0)
    assert evaluate(h1, h2) == TWO_PI_SQ


# 60-digit mpmath values of 2 pi^2 (F + G) / ((u - v)(u + v)^2), the
# paper's form (at u = v its limit), scales as (a, b) of h1 and h2
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
        # scales spanning 1e253, with V far from any leading-order limit
        (potential_closed, (2.5438979249591837e-54, 6.409127175558323e55),
         (9.797117694467623e78, 3.2484266209653115e-198), 524719.11068147453116, 1e-15),
        # seeded draws from each accuracy set, bounded at 4e-15: scales
        # log-uniform in e^+-0.7, in 10^+-20 and in 10^+-300 (V a normal
        # double), near-identical metrics at offsets 1e-2 and 1e-8, and the
        # surface u = v at relative offsets 1e-3 and 1e-10
        (potential_closed, (0.8488190013800966, 1.935966962505219),
         (1.6182485015689798, 0.777550172696795), 35.28161718436670387, 4e-15),
        (potential_closed, (1.1045478112056644, 0.7962272001279377),
         (0.5712472092653095, 0.5906282397861586), 3.5049644946724118766, 4e-15),
        (potential_closed, (1.3642213619363303e-08, 74399369.5703986),
         (542725760.1985347, 1.1125654211884875e-08), 740.01850997886758273, 4e-15),
        (potential_closed, (2.0257774118585757e-11, 1.2873590918050474e19),
         (1.1682882659072536e-13, 4.812810252484553e-20), 1.3424947581351020753e18, 4e-15),
        (potential_closed, (1.0918982431078631e-12, 8.587971463352252e-179),
         (2.034573528722408e79, 2.6953271357139546e19), 5.9360764810857917577e198, 4e-15),
        (potential_closed, (4.638071865668972e-112, 2.2809827772108043e-109),
         (5.047070312945884e187, 3.4004459765599536e-205), 5.814069385381622036e-33, 4e-15),
        (potential_closed, (1.3712711032431093, 0.5535840980313597),
         (1.3673524828309, 0.5570538241838258), 5.3904157390345384374e-4, 4e-15),
        (potential_closed, (0.6081030175871036, 0.8071449855613081),
         (0.6081030193724246, 0.8071449778246901), 4.7789317494004610075e-16, 4e-15),
        (potential_closed, (0.6379350187561709, 0.20052139487465026),
         (1.5817396484872477, 0.49754194308981764), 5.0625903662396861104, 4e-15),
        (potential_closed, (0.6573276455193837, 0.3800818689684565),
         (1.2209082276247711, 0.7059570430552863), 4.030352547111488266, 4e-15),
        # the scales span 2^1400 and a2 b1 = 1.6e-495 leaves double range,
        # yet V is a normal double
        (potential_closed, (6.7e-200, 1.8e-230), (2.4e-265, 8.7e160),
         8.6057897140045841405e-207, 4e-15),
    ],
    ids=["conjecture-near-identical", "conjecture-wide", "conjecture-cancelling",
         "conjecture-det-underflows", "conjecture-ratio-form-overflows",
         "closed-false-overflow", "closed-subnormal", "closed-exact-fallback",
         "closed-box-1", "closed-box-2", "closed-1e20-1", "closed-1e20-2",
         "closed-1e300-1", "closed-1e300-2", "closed-near-1e-2", "closed-near-1e-8",
         "closed-tube-1e-3", "closed-tube-1e-10", "closed-former-guard"],
)
def test_against_reference(method, h1, h2, ref, tol):
    value = method(HopfMetric(*h1), HopfMetric(*h2))
    assert abs(value - ref) <= tol * ref



# scale factors log-uniform in 10^+-37, where the 1/a^2 stay inside
# carlson.MAX_SPREAD
HOPF_SCALES = st.floats(-37.0, 37.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(a1=HOPF_SCALES, b1=HOPF_SCALES, a2=HOPF_SCALES, b2=HOPF_SCALES,
       tube=st.sampled_from([None, 0.0, 1e-12, -1e-6, 1e-3]))
def test_closed_form_matches_elliptic_form(a1, b1, a2, b2, tube):
    # the elementary R_D form and Carlson's iterative R_D share no code:
    # each checks the other, on the surface u = v (tube: the relative
    # offset of b1 from it) as elsewhere
    if tube is not None:
        b1 = b2 * a1 / a2 * (1.0 + tube)
        assume(1e-37 <= b1 <= 1e37)
    h1, h2 = HopfMetric(a=a1, b=b1), HopfMetric(a=a2, b=b2)
    closed = potential_closed(h1, h2)
    elliptic = potential_elliptic(to_diagonal(h1), to_diagonal(h2))
    assert abs(closed - elliptic) <= 1e-14 * elliptic
