import math
import os
import subprocess
import sys

import numpy as np
import pytest

from doubled_spectral import _kernels


needs_numba = pytest.mark.skipif(
    not _kernels.HAVE_NUMBA, reason="numba not importable"
)


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


def test_plain_loops_match_numpy_chunks(rule8):
    # the numba kernels are these loops jitted; run un-jitted, they check
    # the loop arithmetic against the numpy path wherever numba is absent
    xi, w, c1, c2, amat, values = _node_data(rule8)
    n = len(w)
    loop_rational, loop_bad = _kernels._loop_rational_chunk(xi, w, amat, 0, n)
    np_rational, np_bad = _kernels._np_rational_chunk(xi, w, amat, 0, n)
    assert loop_bad == np_bad == 0
    pairs = (
        (
            _kernels._loop_weighted_chunk(values, w, 0, n),
            _kernels._np_weighted_chunk(values, w, 0, n),
        ),
        (
            _kernels._loop_kinetic_chunk(xi, w, c1, c2, 0, n),
            _kernels._np_kinetic_chunk(xi, w, c1, c2, 0, n),
        ),
        (
            _kernels._loop_potential_chunk(xi, w, c1, c2, 0, n),
            _kernels._np_potential_chunk(xi, w, c1, c2, 0, n),
        ),
        (loop_rational, np_rational),
    )
    for a, b in pairs:
        assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b))


@needs_numba
class TestBackendAgreement:
    def test_weighted(self, node_data):
        xi, w, c1, c2, amat, values = node_data
        a = _kernels.weighted_total(values, w, backend="numba")
        b = _kernels.weighted_total(values, w, backend="numpy")
        assert abs(a - b) <= 1e-13 * max(abs(a), 1e-30)

    def test_kinetic(self, node_data):
        xi, w, c1, c2, amat, values = node_data
        a = _kernels.kinetic_sum(xi, w, c1, c2, backend="numba")
        b = _kernels.kinetic_sum(xi, w, c1, c2, backend="numpy")
        assert abs(a - b) <= 1e-13 * abs(a)

    def test_potential(self, node_data):
        xi, w, c1, c2, amat, values = node_data
        a = _kernels.potential_moments(xi, w, c1, c2, backend="numba")
        b = _kernels.potential_moments(xi, w, c1, c2, backend="numpy")
        assert np.all(np.abs(a - b) <= 1e-13 * np.abs(a))

    def test_rational(self, node_data):
        xi, w, c1, c2, amat, values = node_data
        a = _kernels.rational_sum(xi, w, amat, backend="numba")
        b = _kernels.rational_sum(xi, w, amat, backend="numpy")
        assert abs(a - b) <= 1e-13 * abs(a)


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
        assert _kernels.active_backend() in ("numba", "numpy")

    def test_env_forces_numpy(self):
        env = dict(os.environ)
        env["DOUBLED_SPECTRAL_BACKEND"] = "numpy"
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from doubled_spectral import active_backend; print(active_backend())",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "numpy"

    def test_env_rejects_unknown(self):
        env = dict(os.environ)
        env["DOUBLED_SPECTRAL_BACKEND"] = "cuda"
        out = subprocess.run(
            [sys.executable, "-c", "import doubled_spectral"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.returncode != 0
