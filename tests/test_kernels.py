"""The one rule reduction, s3quad._rule_sum, and the evaluators built on it."""

import dataclasses
import math

import numpy as np
import pytest

import doubled_spectral
from doubled_spectral import (
    DiagonalMetric,
    build_rule,
    integrate,
    potential_numeric,
    rational_integral,
)
from doubled_spectral.matchings import PerturbedForm
from doubled_spectral.geometry import TWO_PI_SQ
from doubled_spectral.s3quad import (
    CHUNK,
    _canonical_axis_order,
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

        def g(z):
            # an integrand of the squares, on (4, m) blocks
            return np.exp(z[0] - 0.5 * z[3]) * (1.0 + z[1] * z[2])

        xi_full, w_full = full_product_set(64)
        f_full = w_full * f(xi_full)
        integral = math.fsum(f_full.tolist())
        integral_scale = math.fsum(np.abs(f_full).tolist())
        z_full = np.ascontiguousarray((xi_full * xi_full).T)
        for (zrows, w), chunks in (
            ((rule64.folded_z, rule64.folded_weights), 2),
            ((z_full, w_full), 16),
        ):
            assert len(w) > CHUNK
            assert -(-len(w) // CHUNK) == chunks
            rule = dataclasses.replace(rule64, folded_z=zrows, folded_weights=w)
            z = zrows.T
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
                    lambda: _rule_sum(rule, g),
                    math.fsum((w * g(zrows)).tolist()),
                    None,
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
        z = np.zeros((4, n))
        z[0, [0, CHUNK, 2 * CHUNK]] = (1e16, 1.0, -1e16)
        cancel = dataclasses.replace(rule64, folded_z=z, folded_weights=np.ones(n))
        assert _rule_sum(cancel, lambda z: z[0]) == 1.0

    def test_rational_node_guard(self, rule8):
        # the node-level guard behind rational_integral's eigenvalue check,
        # on the folded_z rows it reads; the identity form integrates to the
        # area, so the integrand does see whole rows of squares
        area = _rule_sum(rule8, _reciprocal_form(np.ones(4)))
        assert abs(area - TWO_PI_SQ) <= 1e-13 * TWO_PI_SQ
        for lam in ([-1.0, 1.0, 1.0, 1.0], [np.nan, 1.0, 1.0, 1.0]):
            with pytest.raises(ValueError, match="positive definite"):
                _rule_sum(rule8, _reciprocal_form(np.array(lam)))

    def test_squared_path_equals_per_node_reference(self, rule64):
        # potential_numeric and rational_integral read the stored folded_z
        # rows in blocks; they must equal, bit for bit, the per-node formula
        # on (n, 4) columns of the squares with the same chunks and combine
        def reference(rule, integrand):
            z, w = rule.folded_z, rule.folded_weights
            total = 0.0
            comp = 0.0
            with np.errstate(all="ignore"):
                for lo in range(0, len(w), CHUNK):
                    x = z[:, lo : lo + CHUNK].T
                    part = float(np.sum(w[lo : lo + CHUNK] * integrand(x)))
                    t = total + part
                    if abs(total) >= abs(part):
                        comp += (total - t) + part
                    else:
                        comp += (part - t) + total
                    total = t
            return total + comp

        def columns(z, c):
            return z[:, 0] * c[0] + z[:, 1] * c[1] + z[:, 2] * c[2] + z[:, 3] * c[3]

        rng = np.random.default_rng(229)
        pairs = (
            (draw_scales(rng), draw_scales(rng)),
            ((10.0, 1.3, 0.7, 2.2), (1.0, 0.9, 7.0, 1.1)),
            ((100.0, 1.0, 0.5, 1.0), (1.0, 1.0, 1.0, 1.0)),
        )
        forms = []
        for omega, scale in ((1.3, 0.05), (0.7, 0.15)):
            raw = rng.standard_normal((4, 4))
            eps = scale * (raw + raw.T)
            eps -= np.eye(4) * (np.trace(eps) / 4)
            forms.append(PerturbedForm(omega=omega, eps=eps))
        # level 48 (30,000 nodes, one chunk) splits pairwise off the block
        # edges, so a sum of block sums would not match there
        for rule in (rule64, build_rule(48)):
            for s1, s2 in pairs:
                a1, a2 = np.array(s1), np.array(s2)
                order = _canonical_axis_order(a1, a2)
                inv1, inv2 = 1.0 / a1[order], 1.0 / a2[order]
                c1, c2 = inv1 * inv1, inv2 * inv2
                d = (inv2 - inv1) ** 2
                s = c1 + c2

                def potential(z):
                    q1 = columns(z, c1)
                    q2 = columns(z, c2)
                    return columns(z, d) * columns(z, s) / ((q1 * q1) * (q2 * q2))

                got = potential_numeric(DiagonalMetric(s1), DiagonalMetric(s2), rule)
                assert got == reference(rule, potential)
            for pf in forms:
                lam = pf.omega * (1.0 + np.linalg.eigvalsh(0.5 * (pf.eps + pf.eps.T)))
                got = rational_integral(pf, rule)
                assert got == reference(rule, lambda z: 1.0 / columns(z, lam))

        # folded_z is the read-only C-contiguous (4, n) array of the squared
        # first-quadrant representatives: at t index i and angle indices
        # k1, k2 <= level/2, the squares of product node (i, k1, k2)
        z = rule64.folded_z
        assert z.flags.c_contiguous and not z.flags.writeable
        with pytest.raises(ValueError):
            z[0, 0] = 0.0
        xi_full, _ = full_product_set(64)
        half = 64 // 2 + 1
        xi = xi_full.reshape(64, 128, 128, 4)[:, :half, :half].reshape(-1, 4)
        assert np.array_equal(z, (xi * xi).T)


class TestBackendSelection:
    def test_active_backend_reported(self):
        assert active_backend() == "numpy"
        assert get_threads() == 1
        assert doubled_spectral.active_backend is active_backend
        assert doubled_spectral.get_threads is get_threads
