import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubled_spectral import (
    DiagonalMetric,
    DoubledGeometry,
    EffectiveParams,
    UnitVector4,
    b2_trace_closed,
    b2_trace_matrix,
    effective_params,
    quadratic_form,
    relative_eigenvalues,
)
from doubled_spectral.geometry import scale_back
from conftest import draw_scales


def unit(*components):
    return UnitVector4.normalized(components)


def make_dg(g1, g2, coupling=1.0, kappa=1, cutoff=1.0, c=1.0):
    return DoubledGeometry(
        g1=DiagonalMetric(g1),
        g2=DiagonalMetric(g2),
        coupling=coupling,
        kappa=kappa,
        cutoff=cutoff,
        moment_coeff=c,
    )


class TestTypes:
    def test_metric_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DiagonalMetric((1.0, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            DiagonalMetric((1.0, -2.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            DiagonalMetric((1.0, math.inf, 1.0, 1.0))

    def test_metric_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            DiagonalMetric((1.0, 1.0, 1.0))

    def test_unit_vector_norm_enforced(self):
        UnitVector4((1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            UnitVector4((1.0, 0.1, 0.0, 0.0))

    def test_unit_vector_normalized(self):
        v = UnitVector4.normalized((3.0, 4.0, 0.0, 0.0))
        assert math.isclose(v.xi[0], 0.6)
        assert math.isclose(v.xi[1], 0.8)
        with pytest.raises(ValueError):
            UnitVector4.normalized((0.0, 0.0, 0.0, 0.0))

    def test_doubled_geometry_validation(self):
        g = (1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_dg(g, g, kappa=2)
        with pytest.raises(ValueError):
            make_dg(g, g, coupling=-0.5)
        with pytest.raises(ValueError):
            make_dg(g, g, cutoff=0.0)
        with pytest.raises(ValueError):
            make_dg(g, g, c=0.0)

    def test_doubled_geometry_needs_diagonal_metrics(self):
        # a tuple of scales skips DiagonalMetric's checks, and b2_trace_matrix
        # and quadratic_form would read its .scales
        g = DiagonalMetric((1.0, 1.0, 1.0, 1.0))
        fields = dict(coupling=1.0, kappa=1, cutoff=1.0, moment_coeff=1.0)
        for g1, g2 in ((g.scales, g), (g, g.scales), (g.scales, g.scales)):
            with pytest.raises(ValueError, match="DiagonalMetric"):
                DoubledGeometry(g1=g1, g2=g2, **fields)
        dg = DoubledGeometry(g1=g, g2=g, **fields)
        with pytest.raises(ValueError, match="DiagonalMetric"):
            dg._replace(g2=(2.0, 1.0, 1.0, 1.0))


class TestQuadraticForm:
    def test_euclidean(self):
        g = DiagonalMetric((1, 1, 1, 1))
        assert math.isclose(quadratic_form(g, unit(0.3, -0.2, 0.8, 0.1)), 1.0,
                            rel_tol=1e-14)

    def test_uniform(self):
        g = DiagonalMetric((2, 2, 2, 2))
        assert math.isclose(quadratic_form(g, unit(1, 1, 1, 1)), 0.25, rel_tol=1e-14)

    def test_single_axis(self):
        g = DiagonalMetric((1, 2, 1, 1))
        assert quadratic_form(g, UnitVector4((0, 1, 0, 0))) == 0.25

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = DiagonalMetric(draw_scales(rng))
            xi = UnitVector4.normalized(rng.standard_normal(4))
            q = quadratic_form(g, xi)
            inv_sq = [1.0 / a**2 for a in g.scales]
            assert min(inv_sq) - 1e-12 <= q <= max(inv_sq) + 1e-12


class TestRelativeEigenvalues:
    def test_identical(self):
        g = DiagonalMetric((1.3, 0.7, 1.1, 0.9))
        assert relative_eigenvalues(g, g) == (1, 1, 1, 1)

    def test_hopf_pair(self):
        g1 = DiagonalMetric((1.5, 1.5, 0.8, 0.8))
        g2 = DiagonalMetric((0.6, 0.6, 1.2, 1.2))
        x, y = 1.5 / 0.6, 0.8 / 1.2
        assert relative_eigenvalues(g1, g2) == (x, x, y, y)

    def test_single_ratio(self):
        g1 = DiagonalMetric((2, 1, 1, 1))
        g2 = DiagonalMetric((1, 1, 1, 1))
        assert relative_eigenvalues(g1, g2) == (2, 1, 1, 1)


class _Unformattable:
    def __format__(self, spec):
        raise AssertionError("the message was formatted on success")


class TestScaleBack:
    def test_zero_at_any_exponent(self):
        assert scale_back(0.0, 2000, "unused") == 0.0
        assert scale_back(0.0, -2000, "unused") == 0.0

    @pytest.mark.parametrize("value, exp", [(1.0, 1024), (math.inf, 0), (math.nan, 0),
                                            (0.5, 1025), (-1.5, 1024)])
    def test_overflow_and_non_finite_raise_value_error(self, value, exp):
        # a ValueError naming the case, never ldexp's OverflowError
        with pytest.raises(ValueError, match="^too big: 3$"):
            scale_back(value, exp, "too big: {}", 3)

    def test_largest_exponent_returns(self):
        top = math.nextafter(1.0, 0.0)
        assert scale_back(top, 1024, "unused") == math.ldexp(top, 1024) == 1.7976931348623157e308

    @pytest.mark.parametrize("value, exp", [(0.75, -1073), (0.6180339887498949, -1060),
                                            (1.0, -1075), (0.9, -1200)])
    def test_subnormal_result_equals_ldexp(self, value, exp):
        assert scale_back(value, exp, "unused") == math.ldexp(value, exp)

    def test_message_formatted_only_on_failure(self):
        assert scale_back(1.5, 3, "{}", _Unformattable()) == 12.0
        with pytest.raises(ValueError, match=r"^g1 = \(1\.0, 2\.0\) and 1e-05$"):
            scale_back(math.inf, 0, "g1 = {} and {!r}", (1.0, 2.0), 1e-05)


class TestEffectiveParams:
    def test_decoupled(self):
        ep = effective_params(make_dg((1,) * 4, (1,) * 4, coupling=0.0))
        assert ep == EffectiveParams(lambda_e_sq=12.0, alpha=0.0)

    def test_cancellation_point(self):
        ep = effective_params(make_dg((1,) * 4, (1,) * 4, coupling=1.0))
        assert ep.lambda_e_sq == 0.0
        assert ep.alpha == 12.0

    def test_kappa_sign(self):
        plus = effective_params(make_dg((1,) * 4, (2,) * 4, coupling=0.5, kappa=1))
        minus = effective_params(make_dg((1,) * 4, (2,) * 4, coupling=0.5, kappa=-1))
        assert plus.alpha == -minus.alpha


class TestSubleadingTrace:
    def test_zero_for_equal_sheets(self):
        rng = np.random.default_rng(1)
        g = draw_scales(rng)
        dg = make_dg(g, g, coupling=1.3)
        xi = UnitVector4.normalized(rng.standard_normal(4))
        assert b2_trace_matrix(dg, xi) == 0.0
        assert b2_trace_closed(dg, xi) == 0.0

    def test_zero_for_zero_coupling(self):
        rng = np.random.default_rng(2)
        dg = make_dg(draw_scales(rng), draw_scales(rng), coupling=0.0)
        xi = UnitVector4.normalized(rng.standard_normal(4))
        assert b2_trace_matrix(dg, xi) == 0.0

    def test_matrix_equals_closed_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dg = make_dg(
                draw_scales(rng),
                draw_scales(rng),
                coupling=float(rng.uniform(0.0, 2.0)),
                kappa=int(rng.choice([1, -1])),
            )
            xi = UnitVector4.normalized(rng.standard_normal(4))
            m = b2_trace_matrix(dg, xi)
            c = b2_trace_closed(dg, xi)
            assert abs(m - c) <= 1e-12 * max(abs(m), abs(c), 1e-30)

    # per-axis sheet ratios are either exactly 1 or resolvably far from 1:
    # when the sheets differ only in the last ulp, the commutator difference
    # is rounding noise and no relative identity between the two routes can
    # hold in floating point
    @settings(max_examples=60, deadline=None)
    @given(
        g1=st.tuples(*[st.floats(0.5, 2.0)] * 4),
        ratios=st.tuples(*[st.one_of(st.just(1.0), st.floats(1.02, 2.0))] * 4),
        coupling=st.one_of(st.just(0.0), st.floats(0.25, 2.0)),
        kappa=st.sampled_from([1, -1]),
        raw=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
    )
    def test_matrix_equals_closed_property(self, g1, ratios, coupling, kappa, raw):
        norm = math.sqrt(sum(v * v for v in raw))
        if norm < 1e-3:
            return
        g2 = tuple(a * r for a, r in zip(g1, ratios))
        dg = make_dg(g1, g2, coupling=coupling, kappa=kappa)
        xi = UnitVector4.normalized(raw)
        m = b2_trace_matrix(dg, xi)
        c = b2_trace_closed(dg, xi)
        assert abs(m - c) <= 1e-12 * max(abs(m), abs(c), 1e-30)

    def test_symmetric_under_sheet_swap(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            g1, g2 = draw_scales(rng), draw_scales(rng)
            xi = UnitVector4.normalized(rng.standard_normal(4))
            a = b2_trace_closed(make_dg(g1, g2, coupling=0.7), xi)
            b = b2_trace_closed(make_dg(g2, g1, coupling=0.7), xi)
            assert abs(a - b) <= 1e-13 * max(abs(a), 1e-30)

    def test_uniform_scaling_degree(self):
        # degree -4 in the inverse scales: a -> lam * a multiplies both
        # traces by lam^4
        rng = np.random.default_rng(17)
        g1, g2 = draw_scales(rng), draw_scales(rng)
        xi = UnitVector4.normalized(rng.standard_normal(4))
        lam = 1.7
        base = b2_trace_closed(make_dg(g1, g2, coupling=0.9), xi)
        scaled = b2_trace_closed(
            make_dg(tuple(lam * a for a in g1), tuple(lam * a for a in g2),
                    coupling=0.9),
            xi,
        )
        assert abs(scaled - lam**4 * base) <= 1e-12 * abs(scaled)
        base_m = b2_trace_matrix(make_dg(g1, g2, coupling=0.9), xi)
        scaled_m = b2_trace_matrix(
            make_dg(tuple(lam * a for a in g1), tuple(lam * a for a in g2),
                    coupling=0.9),
            xi,
        )
        assert abs(scaled_m - lam**4 * base_m) <= 1e-12 * abs(scaled_m)

    def test_kappa_linearity(self):
        rng = np.random.default_rng(19)
        g1, g2 = draw_scales(rng), draw_scales(rng)
        xi = UnitVector4.normalized(rng.standard_normal(4))
        plus = b2_trace_closed(make_dg(g1, g2, kappa=1), xi)
        minus = b2_trace_closed(make_dg(g1, g2, kappa=-1), xi)
        assert plus == -minus
