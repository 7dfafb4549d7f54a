import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from doubled_spectral import (
    DiagonalMetric,
    build_rule,
    integrate,
    kinetic_term,
    potential_numeric,
    rational_integral,
    s3quad,
)
from doubled_spectral.geometry import MAX_LEVEL
from doubled_spectral.matchings import PerturbedForm
from conftest import draw_scales, full_product_set, unfolded

TWO_PI_SQ = 2.0 * math.pi**2
# level 26: the k = level/2 angle rounds past pi/2, so a folded node has a
# coordinate of -7.3e-18 and sqrt(z) = |xi| differs from xi there
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
        # the rule stores no node array and sums in cache-sized blocks
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
            integrate(rule, lambda x: x[:, 0] ** 2 * (1.0 + x[:, 1]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # nodes (4 floats) and weights (1 float) of the 4 L^3 product set
        product_bytes = rule.node_count * 5 * 8
        assert peak < product_bytes / 4


class TestIntegrate:
    def test_area(self, rule8):
        val = integrate(rule8, lambda x: np.ones(x.shape[0]))
        assert abs(val - TWO_PI_SQ) <= 1e-12 * TWO_PI_SQ

    def test_axis_square_moment(self, rule8):
        val = integrate(rule8, lambda x: x[:, 0] ** 2)
        assert abs(val - math.pi**2 / 2) <= 1e-13 * val

    def test_axis_fourth_moment(self, rule8):
        val = integrate(rule8, lambda x: x[:, 0] ** 4)
        assert abs(val - math.pi**2 / 4) <= 1e-13 * val

    def test_mixed_moment(self, rule8):
        val = integrate(rule8, lambda x: x[:, 0] ** 2 * x[:, 1] ** 2)
        assert abs(val - math.pi**2 / 12) <= 1e-13 * val

    def test_odd_parity_vanishes(self, rule8):
        for j in range(4):
            val = integrate(rule8, lambda x, j=j: x[:, j] * (1 + x[:, (j + 1) % 4] ** 2))
            assert abs(val) <= 1e-13

    def test_non_finite_rejected(self, rule8):
        def bad(x):
            out = np.ones(x.shape[0])
            out[17] = np.inf
            return out

        with pytest.raises(ValueError, match="non-finite"):
            integrate(rule8, bad)

    def test_shape_mismatch_rejected(self, rule8):
        with pytest.raises(ValueError, match="shape"):
            integrate(rule8, lambda x: np.ones(3))

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

    def test_rule_checks_the_identity(self, rule64):
        rng = np.random.default_rng(67)
        for _ in range(5):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            c1 = 1.0 / g1.as_array() ** 2
            c2 = 1.0 / g2.as_array() ** 2
            val = integrate(rule64, lambda x: ((x * x) @ c1) ** -2 + ((x * x) @ c2) ** -2)
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
        xi, w = full_product_set(level)
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
        # integrate over the sign images of the fold, against the plain
        # product-rule sum: an even integrand and an odd one
        even = lambda x: np.exp(x[:, 0] ** 2 - x[:, 3] ** 2) * (1.0 + x[:, 1] ** 2)
        odd = lambda x: x[:, 0] * np.exp(x[:, 1] + 2.0 * x[:, 2] - 0.5 * x[:, 3])
        for f in (even, odd):
            values = f(xi)
            full = math.fsum((w * values).tolist())
            scale = math.fsum((w * np.abs(values)).tolist())
            assert abs(integrate(rule, f) - full) <= 1e-14 * max(abs(full), scale)

    def test_joint_permutation_invariance(self, rule32):
        rng = np.random.default_rng(37)
        for _ in range(8):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            p = [int(i) for i in rng.permutation(4)]
            g1p = DiagonalMetric(tuple(g1.scales[i] for i in p))
            g2p = DiagonalMetric(tuple(g2.scales[i] for i in p))
            base = potential_numeric(g1, g2, rule32)
            perm = potential_numeric(g1p, g2p, rule32)
            assert abs(base - perm) <= 1e-12 * base


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
        # the product rule applied to xi^T A xi, with no rotation
        rng = np.random.default_rng(59)
        raw = rng.standard_normal((4, 4))
        eps = raw + raw.T
        eps -= np.eye(4) * (np.trace(eps) / 4)
        eps *= rho / np.abs(np.linalg.eigvalsh(eps)).max()
        pf = PerturbedForm(omega=1.7, eps=eps)
        amat = pf.omega * (np.eye(4) + eps)
        xi, w = full_product_set(level)
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

