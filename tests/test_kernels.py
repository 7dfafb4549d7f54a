"""The rule's two sums and the evaluators built on them: the 3-D fold
behind `integrate`, and the (phi, t) plane, with psi in closed form, behind
potential_numeric and rational_integral."""

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
    _plane,
    _plane_sum,
    _psi_reciprocal,
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
        # Neumaier block combine of `integrate` runs; `integrate` is checked
        # on a field of the nodes and on one of their squares against a
        # one-pass fsum of another grouping of the same rule, the product
        # set of conftest.  The in-box potential and rational integral,
        # summed on the plane with psi in closed form, are checked against
        # the same fsums, which have converged in psi there.
        rng = np.random.default_rng(223)
        a1 = np.array(draw_scales(rng))
        a2 = np.array(draw_scales(rng))
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
            # an integrand of the squares
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
                    lambda: integrate(rule, lambda x: g((x * x).T)),
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

        # one t node with t = 0 and 2 PHI_BLOCK + 1 angles of weight 1, and
        # a field of z_0 - z_1 that is 1e16, 1 and -1e16 on the first angle
        # of each block, so the block partials are n_phi (1e16, 1, -1e16): a
        # plain running sum of the partials loses the 1, and a sum without
        # the last block keeps 1e16
        n_phi = 2 * PHI_BLOCK + 1
        cos2 = np.zeros(n_phi)
        sin2 = np.zeros(n_phi)
        cos2[[0, PHI_BLOCK]] = (1e16, 1.0)
        sin2[2 * PHI_BLOCK] = 1e16
        cancel = dataclasses.replace(
            rule64,
            t_factor=np.array([[1.0], [0.0]]),
            t_weights=np.ones(1),
            angle_factor=np.stack([cos2, sin2]),
            angle_weights=np.ones(n_phi),
        )
        got = integrate(cancel, lambda x: x[:, 0] ** 2 - x[:, 1] ** 2)
        assert got == n_phi

    def test_rational_node_guard(self, rule8):
        # the guard behind rational_integral's eigenvalue check, on the
        # plane tables of the one form it reads; the identity form
        # integrates to the area, so the guard does see every table entry
        x, y = _plane(rule8, np.ones((1, 4)))
        area = _plane_sum(rule8, _psi_reciprocal(x[0], y[0]))
        assert abs(area - TWO_PI_SQ) <= 1e-13 * TWO_PI_SQ
        # a bad coefficient on phi reaches both tables, one on psi only X
        # or only Y
        for lam in (
            [-1.0, 1.0, 1.0, 1.0],
            [np.nan, 1.0, 1.0, 1.0],
            [1.0, 1.0, -1.0, 1.0],
            [1.0, 1.0, 1.0, -1.0],
            [1.0, 1.0, np.inf, 1.0],
            [1.0, 1.0, 1.0, np.nan],
        ):
            x, y = _plane(rule8, np.array([lam]))
            with pytest.raises(ValueError, match="positive definite"):
                _psi_reciprocal(x[0], y[0])

    def test_squared_path_equals_per_node_reference(self, rule64):
        # potential_numeric and rational_integral sum the psi closed forms
        # over the (phi, t) plane; they must equal, bit for bit, the same
        # formulas on flat per-(phi, t) arrays in the same order.  The
        # reference leaves out the power-of-two scaling of
        # potential_numeric, which changes no rounding in range.
        def reference(rule, coeffs, integrand):
            u, t = rule.t_factor
            cos2, sin2 = rule.angle_factor
            k, i = (
                a.reshape(-1)
                for a in np.meshgrid(
                    np.arange(len(cos2)), np.arange(len(t)), indexing="ij"
                )
            )
            xs, ys = [], []
            for c in coeffs:
                p = (c[0] * cos2[k] + c[1] * sin2[k]) * u[i]
                xs.append(p + c[2] * t[i])
                ys.append(p + c[3] * t[i])
            values = integrand(xs, ys) * rule.t_weights[i] * rule.angle_weights[k]
            return float(np.sum(values))

        def potential(xs, ys):
            # S.z = Q_1 + Q_2: the first derivatives of int dpsi / (Q_1 Q_2)
            alpha, gamma, beta, delta = map(np.sqrt, (xs[0], xs[1], ys[0], ys[1]))
            sigma = alpha * delta + beta * gamma
            inv_p = 1.0 / (alpha * gamma)
            inv_r = 1.0 / (beta * delta)
            c = (alpha * beta + gamma * delta) * (inv_p + inv_r)
            v = ((xs[0] + xs[1]) * sigma * (inv_p * inv_p) + c) * inv_p * xs[2]
            v += ((ys[0] + ys[1]) * sigma * (inv_r * inv_r) + c) * inv_r * ys[2]
            return v / (sigma * sigma) * math.pi

        def reciprocal(xs, ys):
            return 2.0 * math.pi / (np.sqrt(xs[0]) * np.sqrt(ys[0]))

        def coefficients(s1, s2):
            # canonical order, its first two axes on psi
            a1, a2 = np.array(s1), np.array(s2)
            order = _canonical_axis_order(s1, s2)
            order = order[2:] + order[:2]
            inv1, inv2 = 1.0 / a1[order], 1.0 / a2[order]
            c1, c2 = inv1 * inv1, inv2 * inv2
            return c1, c2, (inv2 - inv1) ** 2

        rng = np.random.default_rng(229)
        in_box = [(draw_scales(rng), draw_scales(rng)) for _ in range(3)]
        pairs = in_box + [
            ((10.0, 1.3, 0.7, 2.2), (1.0, 0.9, 7.0, 1.1)),
            ((100.0, 1.0, 0.5, 1.0), (1.0, 1.0, 1.0, 1.0)),
        ]
        forms = []
        for omega, scale in ((1.3, 0.05), (0.7, 0.15)):
            raw = rng.standard_normal((4, 4))
            eps = scale * (raw + raw.T)
            eps -= np.eye(4) * (np.trace(eps) / 4)
            forms.append(PerturbedForm(omega=omega, eps=eps))

        def eigenvalues(pf):
            # ascending, the two smallest on psi
            lam = pf.omega * (1.0 + np.linalg.eigvalsh(0.5 * (pf.eps + pf.eps.T)))
            return lam[[2, 3, 0, 1]]

        # level 48 has 25 phi representatives, an odd count
        for rule in (rule64, build_rule(48)):
            for s1, s2 in pairs:
                got = potential_numeric(DiagonalMetric(s1), DiagonalMetric(s2), rule)
                assert got == reference(rule, coefficients(s1, s2), potential)
            for pf in forms:
                got = rational_integral(pf, rule)
                assert got == reference(rule, (eigenvalues(pf),), reciprocal)

        # in-box, the 3-D product rule has converged in psi, so the two
        # agree to rounding: against the independent product set, and
        # against `integrate` on the 3-D fold
        xi, w = full_product_set(64)
        z = xi * xi
        for s1, s2 in in_box:
            a1, a2 = np.array(s1), np.array(s2)
            c1, c2 = 1.0 / a1**2, 1.0 / a2**2
            d, s = (1.0 / a2 - 1.0 / a1) ** 2, c1 + c2

            def field(z):
                q1, q2 = z @ c1, z @ c2
                return (z @ d) * (z @ s) / ((q1 * q1) * (q2 * q2))

            got = potential_numeric(DiagonalMetric(s1), DiagonalMetric(s2), rule64)
            expect = math.fsum((w * field(z)).tolist())
            assert abs(got - expect) <= 1e-14 * expect
            expect = integrate(rule64, lambda x: field(x * x))
            assert abs(got - expect) <= 1e-14 * expect
        # the second form, eigenvalues 0.029 .. 1.09, is beyond it: there the
        # 3-D rule is 7.7e-14 off the Carlson R_F value, the plane 1.6e-15
        for pf in forms[:1]:
            lam = pf.omega * (1.0 + np.linalg.eigvalsh(0.5 * (pf.eps + pf.eps.T)))
            got = rational_integral(pf, rule64)
            expect = math.fsum((w / (z @ lam)).tolist())
            assert abs(got - expect) <= 1e-14 * expect
            expect = integrate(rule64, lambda x: 1.0 / ((x * x) @ lam))
            assert abs(got - expect) <= 1e-14 * expect

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
