import math

import numpy as np
import pytest

from doubled_spectral import _kernels
from conftest import full_product_set


class TestDeterminism:
    def test_bitwise_repeatable(self, rule16):
        rng = np.random.default_rng(211)
        c1 = 1.0 / np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4)) ** 2
        c2 = 1.0 / np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4)) ** 2
        xi, w = rule16.folded_xi, rule16.folded_weights
        first = _kernels.potential_moments(xi, w, c1, c2)
        second = _kernels.potential_moments(xi, w, c1, c2)
        assert np.array_equal(first, second)

    def test_multi_chunk_repeatable_and_matches_fsum(self, rule64):
        # level 64 spans 2 chunks folded and 16 unfolded, so the Neumaier
        # chunk combine runs; each driver is checked against a one-pass fsum
        rng = np.random.default_rng(223)
        c1 = 1.0 / np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4)) ** 2
        c2 = 1.0 / np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4)) ** 2
        lam = 1.0 + 0.1 * rng.standard_normal(4)
        for (xi, w), chunks in (
            ((rule64.folded_xi, rule64.folded_weights), 2),
            (full_product_set(64), 16),
        ):
            assert -(-len(w) // _kernels.CHUNK) == chunks
            values = rng.standard_normal(len(w))
            z = xi * xi
            q1 = z @ c1
            q2 = z @ c2
            big = w / ((q1 * q1) * (q2 * q2))
            q = z @ lam
            cases = (
                (
                    lambda: _kernels.potential_moments(xi, w, c1, c2),
                    [
                        math.fsum((big * z[:, a] * z[:, b]).tolist())
                        for a in range(4)
                        for b in range(a, 4)
                    ],
                ),
                (
                    lambda: _kernels.kinetic_sum(xi, w, c1, c2),
                    math.fsum((w * (1.0 / (q1 * q1) + 1.0 / (q2 * q2))).tolist()),
                ),
                (
                    lambda: _kernels.rational_sum(xi, w, lam),
                    math.fsum((w / q).tolist()),
                ),
                (
                    lambda: _kernels.weighted_total(values, w),
                    math.fsum((values * w).tolist()),
                ),
            )
            for call, reference in cases:
                first = call()
                assert np.array_equal(first, call())
                reference = np.asarray(reference)
                assert np.all(np.abs(first - reference) <= 1e-13 * np.abs(reference))

    def test_rational_node_guard(self, rule8):
        # the node-level guard behind rational_integral's eigenvalue check
        xi, w = rule8.folded_xi, rule8.folded_weights
        for lam in ([-1.0, 1.0, 1.0, 1.0], [np.nan, 1.0, 1.0, 1.0]):
            with pytest.raises(ValueError, match="positive definite"):
                _kernels.rational_sum(xi, w, np.array(lam))


class TestBackendSelection:
    def test_active_backend_reported(self):
        assert _kernels.active_backend() == "numpy"
