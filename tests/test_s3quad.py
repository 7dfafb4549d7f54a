import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from doubled_spectral import (
    DiagonalMetric,
    build_rule,
    kinetic_term,
    potential_numeric,
    rational_integral,
    s3quad,
)
from doubled_spectral.geometry import MAX_LEVEL
from doubled_spectral.matchings import PerturbedForm
from conftest import draw_scales, full_product_set, potential_1d, product_sum, unfolded

TWO_PI_SQ = 2.0 * math.pi**2
# level 26: the k = level/2 angle rounds past pi/2, where its cosine is
# -1.6e-16 rather than 0
FOLD_LEVELS = [4, 5, 7, 8, 16, 26, 64]


class TestRule:
    def test_level_guard(self, monkeypatch):
        with pytest.raises(ValueError):
            build_rule(3)

        # above MAX_LEVEL the guard fires before any factor is computed;
        # level 2000000 used to ask numpy for a 29 TiB companion matrix
        def no_factors(level):
            raise AssertionError(f"factors of level {level} computed")

        monkeypatch.setattr(s3quad, "_factors", no_factors)
        for level in (MAX_LEVEL + 1, 2_000_000):
            with pytest.raises(ValueError, match=f"level must be <= {MAX_LEVEL}"):
                build_rule(level)

    def test_node_count_and_invariants(self):
        # odd levels and even ones, whose k = level/2 orbit has 2 members
        for level in FOLD_LEVELS:
            rule = build_rule(level)
            k = level // 2 + 1
            assert rule.node_count == 4 * level**3
            assert rule.t_factor.shape == (2, level)
            assert rule.t_weights.shape == (level,)
            assert rule.angle_factor.shape == (2, k)
            assert rule.angle_weights.shape == (k,)
            area = (
                math.fsum(rule.t_weights.tolist())
                * math.fsum(rule.angle_weights.tolist()) ** 2
            )
            assert abs(area - TWO_PI_SQ) <= 1e-12 * TWO_PI_SQ
            for rows in (rule.t_factor, rule.angle_factor):
                assert float(np.abs(rows[0] + rows[1] - 1.0).max()) <= 1e-14
                assert np.all(rows >= 0)
            assert np.all(rule.t_weights > 0)
            assert np.all(rule.angle_weights > 0)
            # the fold is the only node set, stored as its factors
            fields = [f.name for f in dataclasses.fields(rule)]
            assert fields == [
                "level", "t_factor", "t_weights", "angle_factor", "angle_weights"
            ]

    def test_rule_arrays_read_only(self, rule8):
        with pytest.raises(ValueError):
            rule8.t_factor[0, 0] = 0.0
        with pytest.raises(ValueError):
            rule8.t_weights[0] = 0.0
        with pytest.raises(ValueError):
            rule8.angle_factor[0, 0] = 0.0
        with pytest.raises(ValueError):
            rule8.angle_weights[0] = 0.0

    def test_evaluator_and_build_memory(self):
        # the rule stores no node array, and the evaluators sum a plane
        g1 = DiagonalMetric((0.7, 1.3, 1.1, 0.9))
        g2 = DiagonalMetric((1.2, 0.8, 0.6, 1.5))
        pf = PerturbedForm(omega=1.0, eps=np.diag([0.3, -0.1, -0.4, 0.2]))
        build = s3quad._factors.__wrapped__  # uncached
        rule = build(64)
        tracemalloc.start()
        try:
            potential_numeric(g1, g2, rule)
            rational_integral(pf, rule)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            build(MAX_LEVEL)
            _, build_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert build_peak < 8e6

    def test_no_evaluator_allocates_the_product_set(self):
        level = 36  # no other test builds this level, so the rule is fresh
        g1 = DiagonalMetric((0.7, 1.3, 1.1, 0.9))
        g2 = DiagonalMetric((1.2, 0.8, 0.6, 1.5))
        pf = PerturbedForm(omega=1.0, eps=np.diag([0.3, -0.1, -0.4, 0.2]))
        rule = build_rule(level)
        tracemalloc.start()
        try:
            potential_numeric(g1, g2, rule)
            rational_integral(pf, rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # nodes (4 floats) and weights (1 float) of the 4 L^3 product set
        product_bytes = rule.node_count * 5 * 8
        assert peak < product_bytes / 4


class TestIntegrate:
    def test_convergence_under_doubling(self, rule16, rule32, rule64):
        # eccentric pair so the level-16 error is far above the float floor
        g1 = DiagonalMetric((0.5, 2.0, 0.5, 2.0))
        g2 = DiagonalMetric((1.9, 0.6, 1.4, 0.52))
        v16 = potential_numeric(g1, g2, rule16)
        v32 = potential_numeric(g1, g2, rule32)
        v64 = potential_numeric(g1, g2, rule64)
        d1 = abs(v32 - v16)
        d2 = abs(v64 - v32)
        assert d1 > 1e-13 * abs(v64)
        assert d2 <= d1 / 10.0


class TestKinetic:
    def test_euclidean(self):
        g = DiagonalMetric((1, 1, 1, 1))
        assert abs(kinetic_term(g, g) - 2 * TWO_PI_SQ) <= 1e-12 * TWO_PI_SQ

    def test_uniform_scaling(self):
        lam = 1.3
        g = DiagonalMetric((lam,) * 4)
        expect = 2 * TWO_PI_SQ * lam**4
        assert abs(kinetic_term(g, g) - expect) <= 1e-12 * expect

    def test_two_constant_sheets(self):
        g1 = DiagonalMetric((1, 1, 1, 1))
        g2 = DiagonalMetric((2, 2, 2, 2))
        expect = TWO_PI_SQ * (1 + 16)
        assert abs(kinetic_term(g1, g2) - expect) <= 1e-12 * expect

    def test_wide_ratio(self):
        # the level-64 rule's sum is 0.46% off here
        g1 = DiagonalMetric((30, 30, 1, 1))
        g2 = DiagonalMetric((1, 1, 1, 1))
        expect = TWO_PI_SQ * 901
        assert abs(kinetic_term(g1, g2) - expect) <= 1e-15 * expect

    def test_rule_checks_the_identity(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            c1 = 1.0 / g1.as_array() ** 2
            c2 = 1.0 / g2.as_array() ** 2
            val = product_sum(64, lambda x: ((x * x) @ c1) ** -2 + ((x * x) @ c2) ** -2)
            expect = kinetic_term(g1, g2)
            assert abs(val - expect) <= 1e-13 * expect

    def test_overflow_rejected(self):
        g = DiagonalMetric((1e100, 1e100, 1e100, 1e100))
        with pytest.raises(ValueError, match="overflows"):
            kinetic_term(g, DiagonalMetric((1, 1, 1, 1)))


@pytest.mark.parametrize(
    "scales", [(1e200, 1.0, 1.0, 1.0), (1.0, 1.0, 1e-160, 1e-160)],
    ids=["inverse-square-zero", "inverse-square-inf"],
)
@pytest.mark.parametrize("evaluator", [potential_numeric], ids=["potential"])
def test_out_of_range_scale_rejected(rule8, evaluator, scales):
    # 1/a^2 = 0 or inf: the sums used to come out NaN or silently wrong
    g = DiagonalMetric((1.0, 1.0, 1.0, 1.0))
    for pair in ((DiagonalMetric(scales), g), (g, DiagonalMetric(scales))):
        with pytest.raises(ValueError, match="1/a\\^2"):
            evaluator(*pair, rule8)


class TestPotential:
    def test_equal_metrics_exactly_zero(self, rule16):
        rng = np.random.default_rng(23)
        g = DiagonalMetric(draw_scales(rng))
        assert potential_numeric(g, g, rule16) == 0.0

    @pytest.mark.parametrize("scale", [1e-150, 1e-80, 1.0, 1e80, 1e150])
    def test_equal_metrics_exactly_zero_at_any_scale(self, rule64, scale):
        rng = np.random.default_rng(19)
        g = DiagonalMetric(tuple(scale * a for a in draw_scales(rng)))
        assert potential_numeric(g, g, rule64) == 0.0

    def test_power_of_two_scaling_is_exact(self, rule64):
        # V(2^k g1, 2^k g2) = 2^(4k) V(g1, g2), bit for bit, also at scales
        # where the integrand's Q1^2 Q2^2 overflows (k = -150) or underflows
        # (k = 150)
        rng = np.random.default_rng(17)
        a1 = np.array(draw_scales(rng))
        a2 = np.array(draw_scales(rng))
        base = potential_numeric(DiagonalMetric(tuple(a1)), DiagonalMetric(tuple(a2)), rule64)
        for k in (-150, -41, -1, 1, 30, 150):
            g1 = DiagonalMetric(tuple(np.ldexp(a1, k)))
            g2 = DiagonalMetric(tuple(np.ldexp(a2, k)))
            assert potential_numeric(g1, g2, rule64) == math.ldexp(base, 4 * k)

    def test_scaled_box_against_1d_integral(self, rule64):
        # the box [0.35, 2.8] that the invariance suite's rescaling reaches
        rng = np.random.default_rng(43)
        for _ in range(20):
            g1 = DiagonalMetric(draw_scales(rng, 0.35, 2.8))
            g2 = DiagonalMetric(draw_scales(rng, 0.35, 2.8))
            expect = potential_1d(g1, g2)
            assert abs(potential_numeric(g1, g2, rule64) - expect) <= 1e-8 * expect

    @pytest.mark.parametrize(
        "scales", [(1e-10, 1, 1, 1), (1e-30, 1e-30, 1, 1), (1e-70, 1, 1, 1)]
    )
    def test_wide_axes_on_psi_against_1d_integral(self, rule64, scales):
        # the smallest scales go on psi, whose integral is exact, and the
        # sum stays finite up to a 1e140 spread of the 1/a^2
        g1, g2 = DiagonalMetric(scales), DiagonalMetric((1, 1, 1, 1))
        expect = potential_1d(g1, g2)
        assert abs(potential_numeric(g1, g2, rule64) - expect) <= 1e-11 * expect

    def test_hopf_reduction_value(self, rule32):
        g1 = DiagonalMetric((2, 2, 1, 1))
        g2 = DiagonalMetric((1, 1, 1, 1))
        val = potential_numeric(g1, g2, rule32)
        assert abs(val - TWO_PI_SQ) <= 1e-10 * TWO_PI_SQ

    def test_swap_symmetry(self, rule32):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            a = potential_numeric(g1, g2, rule32)
            b = potential_numeric(g2, g1, rule32)
            assert abs(a - b) <= 1e-10 * a

    def test_nonnegative(self, rule16):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            assert potential_numeric(g1, g2, rule16) >= 0.0

    @pytest.mark.parametrize("level", FOLD_LEVELS)
    def test_fold_matches_full_rule(self, level):
        rule = build_rule(level)
        # the same evaluators, run over the unfolded product rule
        full_rule = unfolded(rule)
        rng = np.random.default_rng(53)
        pairs = [
            (DiagonalMetric(draw_scales(rng)), DiagonalMetric(draw_scales(rng)))
            for _ in range(5)
        ]
        pairs.append((DiagonalMetric((1, 1, 1, 1)), DiagonalMetric((100, 1, 0.5, 1))))
        for g1, g2 in pairs:
            folded = potential_numeric(g1, g2, rule)
            full = potential_numeric(g1, g2, full_rule)
            assert abs(folded - full) <= 1e-14 * abs(full)

    def test_joint_permutation_invariance(self, rule32):
        rng = np.random.default_rng(37)
        for _ in range(8):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            p = [int(i) for i in rng.permutation(4)]
            g1p = DiagonalMetric(tuple(g1.scales[i] for i in p))
            g2p = DiagonalMetric(tuple(g2.scales[i] for i in p))
            # the canonical axis order makes it exact
            assert potential_numeric(g1p, g2p, rule32) == potential_numeric(g1, g2, rule32)


class TestRationalIntegral:
    def test_identity_form(self, rule8):
        pf = PerturbedForm(omega=1.0, eps=np.zeros((4, 4)))
        val = rational_integral(pf, rule8)
        assert abs(val - TWO_PI_SQ) <= 1e-13 * TWO_PI_SQ

    def test_omega_scaling_constant(self, rule8):
        pf = PerturbedForm(omega=3.0, eps=np.zeros((4, 4)))
        val = rational_integral(pf, rule8)
        assert abs(val - TWO_PI_SQ / 3) <= 1e-13 * TWO_PI_SQ

    def test_omega_scaling_generic(self, rule16):
        rng = np.random.default_rng(41)
        raw = rng.standard_normal((4, 4))
        eps = 0.1 * (raw + raw.T)
        eps -= np.eye(4) * (np.trace(eps) / 4)
        one = rational_integral(PerturbedForm(omega=1.0, eps=eps), rule16)
        scaled = rational_integral(PerturbedForm(omega=2.5, eps=eps), rule16)
        assert abs(scaled - one / 2.5) <= 1e-13 * abs(one)

    @pytest.mark.parametrize("rho", [0.05, 0.5])
    @pytest.mark.parametrize("level", [32, 64])
    def test_eigenbasis_matches_general_form(self, level, rho):
        # the level-64 product rule applied to xi^T A xi, with no rotation;
        # with psi in closed form a level-32 value is no longer the level-32
        # product rule regrouped, and the level-64 one is the closer reference
        rng = np.random.default_rng(59)
        raw = rng.standard_normal((4, 4))
        eps = raw + raw.T
        eps -= np.eye(4) * (np.trace(eps) / 4)
        eps *= rho / np.abs(np.linalg.eigvalsh(eps)).max()
        pf = PerturbedForm(omega=1.7, eps=eps)
        amat = pf.omega * (np.eye(4) + eps)
        xi, w = full_product_set(64)
        q = np.einsum("ni,ij,nj->n", xi, amat, xi)
        reference = math.fsum((w / q).tolist())
        val = rational_integral(pf, build_rule(level))
        assert abs(val - reference) <= 1e-14 * reference

    def test_asymmetric_eps_uses_symmetric_part(self, rule16):
        # xi^T A xi sees only the symmetric part of A
        rng = np.random.default_rng(61)
        raw = 0.1 * rng.standard_normal((4, 4))
        sym = SimpleNamespace(omega=1.2, eps=0.5 * (raw + raw.T))
        asym = SimpleNamespace(omega=1.2, eps=raw)
        assert rational_integral(asym, rule16) == rational_integral(sym, rule16)

    def test_indefinite_form_rejected(self, rule8, rule64):
        # bypasses PerturbedForm validation.  The second form has the
        # eigenvalue -1e-4, yet xi^T A xi > 0 at every node of either rule.
        for eps in (np.diag([-3.0, 1.0, 1.0, 1.0]), np.diag([-1.0001, 0.0, 0.0, 0.0])):
            bad = SimpleNamespace(omega=1.0, eps=eps)
            for rule in (rule8, rule64):
                with pytest.raises(ValueError, match="positive definite"):
                    rational_integral(bad, rule)

    def test_overflowing_sum_rejected(self, rule8):
        # the form is positive at every node, but 1/(xi^T A xi) overflows
        tiny = PerturbedForm(omega=1e-320, eps=np.zeros((4, 4)))
        with pytest.raises(ValueError, match="rational integral .* is not finite"):
            rational_integral(tiny, rule8)


class TestPsiClosedForms:
    """The psi integrals of the plane against a 4,096-point periodic
    trapezoid, which is exact to rounding for forms whose X / Y stays
    within 1e3 of 1."""

    N = 4096

    def trapezoid(self, f):
        psi = 2.0 * math.pi * np.arange(self.N) / self.N
        return math.fsum(f(np.cos(psi) ** 2, np.sin(psi) ** 2).tolist()) * (
            2.0 * math.pi / self.N
        )

    @staticmethod
    def draw(rng):
        # X and Y in 1e-6 .. 1e6, within 10^1.5 of a common magnitude
        return 10.0 ** rng.uniform(-4.5, 4.5) * 10.0 ** rng.uniform(-1.5, 1.5, 2)

    @staticmethod
    def three_terms(x, y):
        """The psi integral with a general numerator S.z, as the mixed
        second derivatives of int dpsi / (Q_1 Q_2): x and y stack the X and
        Y values of Q_1, Q_2, D and S."""
        alpha, gamma, beta, delta = np.sqrt([x[0], x[1], y[0], y[1]])
        sigma = alpha * delta + beta * gamma
        a = alpha * gamma / sigma
        b = beta * delta / sigma
        w = 1.0 / (sigma * sigma)
        d_x, s_x, d_y, s_y = x[2] * w, x[3] * w, y[2] * w, y[3] * w
        return math.pi * (
            d_x * s_x * (1.0 + a * (a + b)) / (a * a * a)
            + (d_x * s_y + d_y * s_x) * (a + b) / (a * b)
            + d_y * s_y * (1.0 + b * (a + b)) / (b * b * b)
        )

    def test_potential(self):
        # the potential's numerator S.z is Q_1 + Q_2, so S_X = X_1 + X_2 and
        # S_Y = Y_1 + Y_2 (the fourth draw goes unused)
        rng = np.random.default_rng(73)
        for i in range(60):
            (x1, y1), (x2, y2), (d_x, d_y), _ = (self.draw(rng) for _ in range(4))
            if i % 2:
                # proportional forms, X1 / Y1 = X2 / Y2
                k = 10.0 ** rng.uniform(-3, 3)
                x2, y2 = k * x1, k * y1
            s_x, s_y = x1 + x2, y1 + y2

            def f(c, s):
                q1 = x1 * c + y1 * s
                q2 = x2 * c + y2 * s
                return (d_x * c + d_y * s) * (s_x * c + s_y * s) / ((q1 * q1) * (q2 * q2))

            expect = self.trapezoid(f)
            got = float(s3quad._psi_potential(
                np.array([x1, x2, d_x]), np.array([y1, y2, d_y])
            ))
            assert abs(got - expect) <= 1e-14 * expect
            other = self.three_terms([x1, x2, d_x, s_x], [y1, y2, d_y, s_y])
            assert abs(other - expect) <= 1e-14 * expect

    def test_potential_identities_agree(self):
        # the first-derivative identity against the three-term one, on
        # 20,000 draws, half of them proportional forms
        rng = np.random.default_rng(83)
        n = 20_000
        x1, y1, x2, y2, d_x, d_y = (10.0 ** rng.uniform(-6, 6, n) for _ in range(6))
        k = 10.0 ** rng.uniform(-3, 3, n)
        half = n // 2
        x2[:half], y2[:half] = k[:half] * x1[:half], k[:half] * y1[:half]
        x = np.stack([x1, x2, d_x])
        y = np.stack([y1, y2, d_y])
        expect = self.three_terms([x1, x2, d_x, x1 + x2], [y1, y2, d_y, y1 + y2])
        got = s3quad._psi_potential(x, y)
        assert float(np.abs(got / expect - 1.0).max()) <= 2e-15

    def test_reciprocal(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            x, y = self.draw(rng)
            expect = self.trapezoid(lambda c, s: 1.0 / (x * c + y * s))
            got = float(s3quad._psi_reciprocal(np.array(x), np.array(y)))
            assert abs(got - expect) <= 1e-14 * expect
