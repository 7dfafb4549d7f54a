import math

import numpy as np
import pytest

from doubled_spectral import _kernels


def _node_data(rule):
    rng = np.random.default_rng(211)
    c1 = 1.0 / np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4)) ** 2
    c2 = 1.0 / np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4)) ** 2
    raw = rng.standard_normal((4, 4))
    amat = np.eye(4) + 0.05 * (raw + raw.T)
    values = rng.standard_normal(rule.node_count)
    return rule.xi, rule.weights, c1, c2, amat, values


@pytest.fixture
def node_data(rule16):
    return _node_data(rule16)


class TestDeterminism:
    def test_bitwise_repeatable(self, node_data):
        xi, w, c1, c2, amat, values = node_data
        first = _kernels.potential_moments(xi, w, c1, c2)
        second = _kernels.potential_moments(xi, w, c1, c2)
        assert np.array_equal(first, second)

    def test_multi_chunk_repeatable_and_matches_fsum(self, rule64):
        # level 64 spans 2 chunks folded and 16 full, so the Neumaier chunk
        # combine runs; each driver is checked against a one-pass fsum
        rng = np.random.default_rng(223)
        c1 = 1.0 / np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4)) ** 2
        c2 = 1.0 / np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4)) ** 2
        raw = rng.standard_normal((4, 4))
        amat = np.eye(4) + 0.05 * (raw + raw.T)
        for xi, w in (
            (rule64.folded_xi, rule64.folded_weights),
            (rule64.xi, rule64.weights),
        ):
            assert len(w) > _kernels.CHUNK
            values = rng.standard_normal(len(w))
            z = xi * xi
            q1 = z @ c1
            q2 = z @ c2
            big = w / ((q1 * q1) * (q2 * q2))
            q = np.einsum("ni,ij,nj->n", xi, amat, xi)
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
                    lambda: _kernels.rational_sum(xi, w, amat),
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


class TestBackendSelection:
    def test_active_backend_reported(self):
        assert _kernels.active_backend() == "numpy"
