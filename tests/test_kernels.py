"""The one rule reduction, s3quad._rule_sum, and the evaluators built on it."""

import dataclasses
import math

import numpy as np
import pytest

import doubled_spectral
from doubled_spectral import DiagonalMetric, integrate, potential_numeric, rational_integral
from doubled_spectral.matchings import PerturbedForm
from doubled_spectral.s3quad import (
    CHUNK,
    _reciprocal_form,
    _rule_sum,
    active_backend,
    get_threads,
)
from conftest import draw_scales, full_product_set


class TestDeterminism:
    def test_bitwise_repeatable(self, rule16):
        rng = np.random.default_rng(211)
        g1 = DiagonalMetric(draw_scales(rng))
        g2 = DiagonalMetric(draw_scales(rng))
        first = potential_numeric(g1, g2, rule16)
        assert potential_numeric(g1, g2, rule16) == first

    def test_multi_chunk_repeatable_and_matches_fsum(self, rule64):
        # level 64 spans 2 chunks folded and 16 unfolded, so the Neumaier
        # chunk combine runs; each evaluator is checked against a one-pass
        # fsum of another grouping of the same rule
        rng = np.random.default_rng(223)
        a1 = np.array(draw_scales(rng))
        a2 = np.array(draw_scales(rng))
        # ascending min(a1, a2) is potential_numeric's canonical axis order
        axes = np.argsort(np.minimum(a1, a2))
        a1, a2 = a1[axes], a2[axes]
        g1, g2 = DiagonalMetric(tuple(a1)), DiagonalMetric(tuple(a2))
        c1, c2 = 1.0 / a1**2, 1.0 / a2**2
        d = (1.0 / a2 - 1.0 / a1) ** 2
        s = c1 + c2
        raw = rng.standard_normal((4, 4))
        eps = 0.05 * (raw + raw.T)
        eps -= np.eye(4) * (np.trace(eps) / 4)
        pf = PerturbedForm(omega=1.3, eps=eps)
        lam = pf.omega * (1.0 + np.linalg.eigvalsh(eps))

        def f(x):
            return np.exp(x[:, 0] - 0.5 * x[:, 3]) * (1.0 + x[:, 1] ** 2)

        xi_full, w_full = full_product_set(64)
        f_full = w_full * f(xi_full)
        integral = math.fsum(f_full.tolist())
        integral_scale = math.fsum(np.abs(f_full).tolist())
        for (xi, w), chunks in (
            ((rule64.folded_xi, rule64.folded_weights), 2),
            ((xi_full, w_full), 16),
        ):
            assert len(w) > CHUNK
            assert -(-len(w) // CHUNK) == chunks
            rule = dataclasses.replace(rule64, folded_xi=xi, folded_weights=w)
            z = xi * xi
            q1 = z @ c1
            q2 = z @ c2
            big = w / ((q1 * q1) * (q2 * q2))
            # the potential as sum_{j,l} d_j s_l M_jl over its 10 moments
            moments = {
                (j, l): math.fsum((big * z[:, j] * z[:, l]).tolist())
                for j in range(4)
                for l in range(j, 4)
            }
            potential = math.fsum(
                d[j] * s[l] * moments[min(j, l), max(j, l)]
                for j in range(4)
                for l in range(4)
            )
            cases = (
                (lambda: potential_numeric(g1, g2, rule), potential, potential),
                (
                    lambda: rational_integral(pf, rule),
                    math.fsum((w / (z @ lam)).tolist()),
                    None,
                ),
                (
                    lambda: _rule_sum(rule, f),
                    math.fsum((w * f(xi)).tolist()),
                    math.fsum((w * np.abs(f(xi))).tolist()),
                ),
                (lambda: integrate(rule, f), integral, integral_scale),
            )
            for call, reference, scale in cases:
                first = call()
                assert call() == first
                scale = abs(reference) if scale is None else scale
                assert abs(first - reference) <= 1e-13 * scale

        # chunk partials 1e16, 1 and -1e16: a plain running sum of the
        # partials loses the 1, and a sum without the last chunk keeps 1e16
        n = 2 * CHUNK + 1
        xi = np.zeros((n, 4))
        xi[[0, CHUNK, 2 * CHUNK], 0] = (1e16, 1.0, -1e16)
        cancel = dataclasses.replace(rule64, folded_xi=xi, folded_weights=np.ones(n))
        assert _rule_sum(cancel, lambda x: x[:, 0]) == 1.0

    def test_rational_node_guard(self, rule8):
        # the node-level guard behind rational_integral's eigenvalue check
        for lam in ([-1.0, 1.0, 1.0, 1.0], [np.nan, 1.0, 1.0, 1.0]):
            with pytest.raises(ValueError, match="positive definite"):
                _rule_sum(rule8, _reciprocal_form(np.array(lam)))


class TestBackendSelection:
    def test_active_backend_reported(self):
        assert active_backend() == "numpy"
        assert get_threads() == 1
        assert doubled_spectral.active_backend is active_backend
        assert doubled_spectral.get_threads is get_threads
