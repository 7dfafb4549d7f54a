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
    PHI_BLOCK,
    _canonical_axis_order,
    _reciprocal,
    _rule_sum,
    active_backend,
    get_threads,
)
from conftest import draw_scales, full_product_set, unfolded


def folded_product_set(level):
    """The squares (n, 4) and summed weights (n,) of the first-quadrant
    representatives of the unfolded product set, in t, phi, psi order."""
    xi, w = full_product_set(level)
    half = level // 2 + 1
    shape = (level, 2 * level, 2 * level)
    xi = xi.reshape(shape + (4,))[:, :half, :half].reshape(-1, 4)
    mult = np.full(half, 4.0)
    mult[0] = 2.0
    if level % 2 == 0:
        mult[-1] = 2.0
    w = w.reshape(shape)[:, :half, :half] * np.multiply.outer(mult, mult)
    return xi * xi, w.reshape(-1)


class TestDeterminism:
    def test_bitwise_repeatable(self, rule16):
        rng = np.random.default_rng(211)
        g1 = DiagonalMetric(draw_scales(rng))
        g2 = DiagonalMetric(draw_scales(rng))
        first = potential_numeric(g1, g2, rule16)
        assert potential_numeric(g1, g2, rule16) == first

    def test_multi_chunk_repeatable_and_matches_fsum(self, rule64):
        # level 64 spans 5 phi blocks folded and 16 unfolded, so the
        # Neumaier block combine runs; each evaluator is checked against a
        # one-pass fsum of another grouping of the same rule, the product
        # set of conftest
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
            # an integrand of the squares, on the forms of the identity
            return np.exp(z[0] - 0.5 * z[3]) * (1.0 + z[1] * z[2])

        xi_full, w_full = full_product_set(64)
        f_full = w_full * f(xi_full)
        integral = math.fsum(f_full.tolist())
        integral_scale = math.fsum(np.abs(f_full).tolist())
        for rule, (z, w), blocks in (
            (rule64, folded_product_set(64), 5),
            (unfolded(rule64), (xi_full * xi_full, w_full), 16),
        ):
            n_phi = rule.angle_factor.shape[1]
            assert -(-n_phi // PHI_BLOCK) == blocks
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
                    lambda: _rule_sum(rule, np.eye(4), g),
                    math.fsum((w * g(z.T)).tolist()),
                    None,
                ),
                (lambda: integrate(rule, f), integral, integral_scale),
            )
            for call, reference, scale in cases:
                first = call()
                assert call() == first
                scale = abs(reference) if scale is None else scale
                assert abs(first - reference) <= 1e-13 * scale

        # one t node with t = 0 and 2 PHI_BLOCK + 1 angles of weight 1, so
        # the block partials are n_phi (1e16, 1, -1e16): a plain running sum
        # of the partials loses the 1, and a sum without the last block keeps
        # 1e16
        n_phi = 2 * PHI_BLOCK + 1
        cos2 = np.zeros(n_phi)
        cos2[[0, PHI_BLOCK, 2 * PHI_BLOCK]] = (1e16, 1.0, -1e16)
        cancel = dataclasses.replace(
            rule64,
            t_factor=np.array([[1.0], [0.0]]),
            t_weights=np.ones(1),
            angle_factor=np.stack([cos2, np.zeros(n_phi)]),
            angle_weights=np.ones(n_phi),
        )
        got = _rule_sum(cancel, [[1.0, 0.0, 0.0, 0.0]], lambda forms: forms[0])
        assert got == n_phi

    def test_rational_node_guard(self, rule8):
        # the node-level guard behind rational_integral's eigenvalue check,
        # on the one form it reads; the identity form integrates to the
        # area, so the integrand does see every node
        area = _rule_sum(rule8, np.ones((1, 4)), _reciprocal)
        assert abs(area - TWO_PI_SQ) <= 1e-13 * TWO_PI_SQ
        for lam in ([-1.0, 1.0, 1.0, 1.0], [np.nan, 1.0, 1.0, 1.0]):
            with pytest.raises(ValueError, match="positive definite"):
                _rule_sum(rule8, np.array([lam]), _reciprocal)

    def test_squared_path_equals_per_node_reference(self, rule64):
        # potential_numeric and rational_integral sum their forms from the
        # rule's factors in phi blocks; they must equal, bit for bit, the
        # per-node formula on flat node arrays with the same blocks, node
        # order and combine
        def reference(rule, coeffs, integrand):
            u, t = rule.t_factor
            cos2, sin2 = rule.angle_factor
            aw, tw = rule.angle_weights, rule.t_weights
            n_phi, n_t = len(aw), len(tw)
            total = 0.0
            comp = 0.0
            with np.errstate(all="ignore"):
                for lo in range(0, n_phi, PHI_BLOCK):
                    k1, k2, i = (
                        a.reshape(-1)
                        for a in np.meshgrid(
                            np.arange(lo, min(lo + PHI_BLOCK, n_phi)),
                            np.arange(n_phi),
                            np.arange(n_t),
                            indexing="ij",
                        )
                    )
                    forms = [
                        (c[0] * cos2[k1] + c[1] * sin2[k1]) * u[i]
                        + (c[2] * cos2[k2] + c[3] * sin2[k2]) * t[i]
                        for c in coeffs
                    ]
                    part = float(np.sum(integrand(*forms) * (aw[k2] * tw[i]) * aw[k1]))
                    s = total + part
                    if abs(total) >= abs(part):
                        comp += (total - s) + part
                    else:
                        comp += (part - s) + total
                    total = s
            return total + comp

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
        # level 48 has 25 phi representatives, so its last block is short
        for rule in (rule64, build_rule(48)):
            for s1, s2 in pairs:
                a1, a2 = np.array(s1), np.array(s2)
                order = _canonical_axis_order(a1, a2)
                inv1, inv2 = 1.0 / a1[order], 1.0 / a2[order]
                c1, c2 = inv1 * inv1, inv2 * inv2
                d = (inv2 - inv1) ** 2
                s = c1 + c2

                def potential(q1, q2, num, s_form):
                    return num * s_form / ((q1 * q1) * (q2 * q2))

                got = potential_numeric(DiagonalMetric(s1), DiagonalMetric(s2), rule)
                assert got == reference(rule, (c1, c2, d, s), potential)
            for pf in forms:
                lam = pf.omega * (1.0 + np.linalg.eigvalsh(0.5 * (pf.eps + pf.eps.T)))
                got = rational_integral(pf, rule)
                assert got == reference(rule, (lam,), lambda q: 1.0 / q)

        # the factors reproduce the squares of the first-quadrant nodes of
        # the independent product set, to rounding
        z, _ = folded_product_set(64)
        u, t = rule64.t_factor
        cos2, sin2 = rule64.angle_factor
        u, t = u[:, None, None], t[:, None, None]
        grid = np.stack(
            np.broadcast_arrays(
                u * cos2[:, None], u * sin2[:, None], t * cos2, t * sin2
            ),
            axis=-1,
        ).reshape(-1, 4)
        assert float(np.abs(grid - z).max()) <= 1e-15


class TestBackendSelection:
    def test_active_backend_reported(self):
        assert active_backend() == "numpy"
        assert get_threads() == 1
        assert doubled_spectral.active_backend is active_backend
        assert doubled_spectral.get_threads is get_threads
