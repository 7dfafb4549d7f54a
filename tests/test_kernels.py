"""The rule's one reduction, the (phi, t) plane with psi in closed form,
and the evaluator built on it, potential_numeric: bit-for-bit
repeatability, a per-node reference, the product-set fsum and the memo."""

import dataclasses
import math

import numpy as np

import doubled_spectral
from doubled_spectral import (
    DiagonalMetric,
    build_rule,
    potential_numeric,
    run_hypothesis_suite,
)
from doubled_spectral.s3quad import (
    _GEOMETRIC_LIMIT,
    _potential_sum,
    active_backend,
    get_threads,
)
from conftest import draw_scales, full_product_set, product_sum, unfolded


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
        # the plane sum is memoized: clear it so the repeat sums afresh
        _potential_sum.cache_clear()
        assert potential_numeric(g1, g2, rule16) == first

    def test_plane_repeatable_and_matches_fsum(self, rule64):
        # the in-box potential, summed on the plane with psi in closed form,
        # repeats bit for bit and matches a one-pass fsum of the same rule,
        # folded and unfolded, in which psi has converged
        rng = np.random.default_rng(223)
        a1 = np.array(draw_scales(rng))
        a2 = np.array(draw_scales(rng))
        g1, g2 = DiagonalMetric(tuple(a1)), DiagonalMetric(tuple(a2))
        c1, c2 = 1.0 / a1**2, 1.0 / a2**2
        d = (1.0 / a2 - 1.0 / a1) ** 2
        s = c1 + c2

        xi_full, w_full = full_product_set(64)
        for rule, (z, w) in (
            (rule64, folded_product_set(64)),
            (unfolded(rule64), (xi_full * xi_full, w_full)),
        ):
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
            first = potential_numeric(g1, g2, rule)
            _potential_sum.cache_clear()
            assert potential_numeric(g1, g2, rule) == first
            assert abs(first - potential) <= 1e-13 * abs(potential)

    def test_squared_path_equals_per_node_reference(self, rule64):
        # potential_numeric sums the psi closed form over the (phi, t)
        # plane; it must equal, bit for bit, the same
        # formula on flat per-(phi, t) arrays in the same order, times the
        # factor prod m_j of the per-axis normalization.  The reference
        # leaves out the power-of-two scaling of potential_numeric, which
        # changes no rounding in range.
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

        def coefficients(s1, s2):
            # axes in ascending ratio, the two widest on psi; each divided
            # by m_j, the geometric mean of its scales (from the mantissas,
            # the exponent halved) up to the limit and the larger scale
            # beyond; prod m_j as a mantissa and an exponent
            a1, a2 = np.array(s1), np.array(s2)
            lo, hi = np.minimum(a1, a2), np.maximum(a1, a2)
            order = np.lexsort((a1, hi, lo, hi / lo))
            a1, a2, lo, hi = a1[order], a2[order], lo[order], hi[order]
            (f1, e1), (f2, e2) = np.frexp(lo), np.frexp(hi)
            e = e1 + e2
            geometric = hi / lo <= _GEOMETRIC_LIMIT
            f = np.where(geometric, np.sqrt(np.ldexp(f1 * f2, e & 1)), f2)
            e = np.where(geometric, e >> 1, e2)
            m = np.ldexp(f, e)
            inv1, inv2 = m / a1, m / a2
            diff = (hi - lo) * (m / hi) / lo
            mant, mant_exp = math.frexp(math.prod(f.tolist()))
            rows = inv1 * inv1, inv2 * inv2, diff * diff
            return rows, mant, int(e.sum()) + mant_exp

        rng = np.random.default_rng(229)
        in_box = [(draw_scales(rng), draw_scales(rng)) for _ in range(3)]
        pairs = in_box + [
            ((10.0, 1.3, 0.7, 2.2), (1.0, 0.9, 7.0, 1.1)),
            ((100.0, 1.0, 0.5, 1.0), (1.0, 1.0, 1.0, 1.0)),
            # one axis beyond the limit, one at ratio 100 on psi beside it
            ((1e4, 0.01, 1.3, 0.7), (1.0, 1.0, 1.1, 2.0)),
        ]
        # level 48 has 25 phi representatives, an odd count
        for rule in (rule64, build_rule(48)):
            for s1, s2 in pairs:
                got = potential_numeric(DiagonalMetric(s1), DiagonalMetric(s2), rule)
                rows, mant, exp = coefficients(s1, s2)
                assert got == math.ldexp(reference(rule, rows, potential) * mant, exp)

        # in-box, the 3-D product rule has converged in psi, so the two
        # agree to rounding against the independent product set
        for s1, s2 in in_box:
            a1, a2 = np.array(s1), np.array(s2)
            c1, c2 = 1.0 / a1**2, 1.0 / a2**2
            d, s = (1.0 / a2 - 1.0 / a1) ** 2, c1 + c2

            def field(z):
                q1, q2 = z @ c1, z @ c2
                return (z @ d) * (z @ s) / ((q1 * q1) * (q2 * q2))

            got = potential_numeric(DiagonalMetric(s1), DiagonalMetric(s2), rule64)
            expect = product_sum(64, lambda x: field(x * x))
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


class TestPotentialMemo:
    """potential_numeric memoizes its plane sum on the rule, by identity,
    and the power-of-two scaled coefficient rows in canonical sheet order."""

    def test_memoized_equals_recomputed(self, rule16, rule64):
        # a joint rescaling by 2 leaves the scaled rows, and so the key, as
        # they are: the hit must equal a fresh sum, scaled back exactly
        rng = np.random.default_rng(233)
        for rule in (rule16, rule64):
            for lo, hi in ((0.5, 2.0), (math.exp(-5.0), math.exp(5.0))):
                for _ in range(5):
                    s1, s2 = draw_scales(rng, lo, hi), draw_scales(rng, lo, hi)
                    g1, g2 = DiagonalMetric(s1), DiagonalMetric(s2)
                    h1 = DiagonalMetric(tuple(2.0 * a for a in s1))
                    h2 = DiagonalMetric(tuple(2.0 * a for a in s2))
                    _potential_sum.cache_clear()
                    potential_numeric(g1, g2, rule)
                    memo = potential_numeric(h1, h2, rule)
                    assert _potential_sum.cache_info().hits == 1
                    _potential_sum.cache_clear()
                    assert memo == potential_numeric(h1, h2, rule)
                    assert _potential_sum.cache_info().hits == 0

    def test_exchange_and_permutation_bitwise(self, rule64):
        # each value a fresh sum, so the equalities are the arithmetic's,
        # not the memo's
        rng = np.random.default_rng(239)
        for _ in range(10):
            s1, s2 = draw_scales(rng), draw_scales(rng)
            perm = rng.permutation(4)
            pairs = (
                (s1, s2),
                (s2, s1),
                (tuple(s1[i] for i in perm), tuple(s2[i] for i in perm)),
            )
            values = []
            for a1, a2 in pairs:
                _potential_sum.cache_clear()
                values.append(
                    potential_numeric(DiagonalMetric(a1), DiagonalMetric(a2), rule64)
                )
            assert values[1] == values[0] and values[2] == values[0]

    def test_suite_trial_sums_two_planes(self, rule64):
        # base and scaled pairs miss; the permuted and exchanged pairs hit
        # the base pair's entry
        _potential_sum.cache_clear()
        run_hypothesis_suite(trials=1, seed=7, rule=rule64, tol=1e-7)
        info = _potential_sum.cache_info()
        assert (info.hits, info.misses) == (2, 2)

    def test_rules_key_by_identity(self, rule16):
        # a rule with doubled weights, cached beside the original, sums to
        # exactly twice its value
        g1 = DiagonalMetric((1.2, 0.8, 1.5, 0.7))
        g2 = DiagonalMetric((0.9, 1.1, 0.6, 1.4))
        base = potential_numeric(g1, g2, rule16)
        doubled = dataclasses.replace(rule16, t_weights=2.0 * rule16.t_weights)
        assert potential_numeric(g1, g2, doubled) == 2.0 * base


class TestBackendSelection:
    def test_active_backend_reported(self):
        assert active_backend() == "numpy"
        assert get_threads() == 1
        assert doubled_spectral.active_backend is active_backend
        assert doubled_spectral.get_threads is get_threads
