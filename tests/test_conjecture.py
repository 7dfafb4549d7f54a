import math

import numpy as np
import pytest

from doubled_spectral import (
    DiagonalMetric,
    HopfMetric,
    check_exchange_identity,
    check_permutation_invariance,
    check_scaling_invariance,
    run_hypothesis_suite,
    script_v,
    sqrt_det,
    to_diagonal,
    v_prime,
)
from doubled_spectral._emit import to_json
from doubled_spectral.cli import DEFAULT_TOL
from doubled_spectral.conjecture import _PCG64Stream
from doubled_spectral.s3quad import _potential_sum
from conftest import draw_scales


class TestVPrime:
    def test_equal_metrics_zero(self, rule16):
        g = DiagonalMetric((1.2, 0.8, 1.5, 0.7))
        assert v_prime(g, g, rule16) == 0.0

    def test_hopf_pair_matches_ratio_form(self, rule64):
        rng = np.random.default_rng(131)
        for _ in range(5):
            a1, a2, b1, b2 = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4))
            g1 = to_diagonal(HopfMetric(a=a1, b=b1))
            g2 = to_diagonal(HopfMetric(a=a2, b=b2))
            got = v_prime(g1, g2, rule64)
            expect = script_v(b1 / b2, a1 / a2)
            assert abs(got - expect) <= 1e-8 * max(abs(expect), 1e-30)

    def test_exchange_identity(self, rule32):
        rng = np.random.default_rng(137)
        for _ in range(10):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            lhs = v_prime(g1, g2, rule32) * sqrt_det(g2)
            rhs = v_prime(g2, g1, rule32) * sqrt_det(g1)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)


class TestScalingCheck:
    def test_identity_scales(self, rule16):
        rng = np.random.default_rng(139)
        g1 = DiagonalMetric(draw_scales(rng))
        g2 = DiagonalMetric(draw_scales(rng))
        assert check_scaling_invariance(g1, g2, (1, 1, 1, 1), rule16) == 0.0

    def test_uniform_scaling(self, rule32):
        rng = np.random.default_rng(149)
        g1 = DiagonalMetric(draw_scales(rng))
        g2 = DiagonalMetric(draw_scales(rng))
        assert check_scaling_invariance(g1, g2, (1.3,) * 4, rule32) <= 1e-12

    def test_random_scales_on_hopf_pair(self, rule64):
        rng = np.random.default_rng(151)
        g1 = to_diagonal(HopfMetric(a=1.4, b=0.7))
        g2 = to_diagonal(HopfMetric(a=0.8, b=1.1))
        lam = tuple(float(v) for v in np.exp(rng.uniform(np.log(0.7), np.log(1.4), 4)))
        assert check_scaling_invariance(g1, g2, lam, rule64) <= 1e-7

    def test_rejects_bad_scales(self, rule16):
        g = DiagonalMetric((1, 1, 1, 1))
        with pytest.raises(ValueError):
            check_scaling_invariance(g, g, (1.0, -1.0, 1.0, 1.0), rule16)


class TestPermutationCheck:
    def test_identity_permutation(self, rule16):
        rng = np.random.default_rng(157)
        g1 = DiagonalMetric(draw_scales(rng))
        g2 = DiagonalMetric(draw_scales(rng))
        assert check_permutation_invariance(g1, g2, (0, 1, 2, 3), rule16) == 0.0

    def test_hopf_block_swap(self, rule32):
        g1 = to_diagonal(HopfMetric(a=1.3, b=0.8))
        g2 = to_diagonal(HopfMetric(a=0.9, b=1.6))
        assert check_permutation_invariance(g1, g2, (2, 3, 0, 1), rule32) <= 1e-12

    def test_random_permutation(self, rule32):
        rng = np.random.default_rng(163)
        for _ in range(5):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            perm = tuple(int(i) for i in rng.permutation(4))
            assert check_permutation_invariance(g1, g2, perm, rule32) <= 1e-12

    def test_rejects_non_permutation(self, rule16):
        g = DiagonalMetric((1, 1, 1, 1))
        with pytest.raises(ValueError):
            check_permutation_invariance(g, g, (0, 0, 1, 2), rule16)


def _draw_sequence(rng):
    # uniform draws read 64 bits, a permutation 32-bit halves; the second
    # permutation starts on any half the first left buffered, and the draw
    # at index 2 is redrawn a quarter of the time
    out = []
    for lo, hi in ((-0.7, 0.7), (0.5, 2.0), (1e-3, 1e3)):
        out += [float(x) for x in rng.uniform(lo, hi, 4)]
    out.append([int(i) for i in rng.permutation(4)])
    out += [float(x) for x in rng.uniform(-0.35, 0.35, 4)]
    out.append([int(i) for i in rng.permutation(4)])
    return out


class TestStream:
    """The suite's pure-Python stream against numpy's default_rng."""

    def test_matches_numpy_on_10000_seeds(self):
        for seed in range(10_000):
            expect = _draw_sequence(np.random.default_rng(seed))
            assert _draw_sequence(_PCG64Stream(seed)) == expect, seed

    @pytest.mark.parametrize(
        "seed",
        [0, 2**32 - 1, 2**32, 2**64 + 5, 2**96, 2**128 - 1, 2**128, 2**130 + 7, 3**180],
        ids=["0", "2^32-1", "2^32", "2^64+5", "2^96", "2^128-1", "2^128", "2^130+7", "3^180"],
    )
    def test_matches_numpy_on_multi_word_seeds(self, seed):
        # 2^96 and 2^128-1 have 4 words, as many as SeedSequence's pool;
        # 2^128 is the first seed of 5 and 3^180 has 9, past the pool
        expect = _draw_sequence(np.random.default_rng(seed))
        assert _draw_sequence(_PCG64Stream(seed)) == expect

    def test_rejects_seeds_numpy_rejects(self):
        with pytest.raises(ValueError):
            _PCG64Stream(-1)
        with pytest.raises(TypeError):
            _PCG64Stream(1.0)


class TestSuite:
    def test_small_run_no_failures(self, rule64):
        report = run_hypothesis_suite(trials=5, seed=7, rule=rule64, tol=1e-7)
        assert report.trials == 5
        assert report.failures == ()
        assert report.max_violation <= 1e-7
        assert report.rng == "numpy.random.Generator(PCG64)"

    def test_worst_known_trial_passes_default_tol(self, rule64):
        # the largest level-64 self-error in the first 50,000 trials of
        # perfbench suite seeds 1-5, then the largest in the first 18,000 of
        # seeds 2 and 3; see the SCALE_RANGE comment
        for seed, floor in (
            (2831489971, 1e-10),
            (3560234048, 3e-11),
            (2261106947, 1e-11),
        ):
            report = run_hypothesis_suite(
                trials=1, seed=seed, rule=rule64, tol=DEFAULT_TOL
            )
            assert report.failures == ()
            assert floor < report.max_violation < 1e-9

    def test_former_worst_trials_are_resolved(self, rule64):
        # 2.6e-8 and 3.2e-8 when the rule summed psi numerically: the
        # error sat on the axis pair that psi now integrates exactly
        for seed in (502922616, 3864472320):
            report = run_hypothesis_suite(trials=1, seed=seed, rule=rule64, tol=1e-12)
            assert report.failures == ()
            assert report.max_violation < 1e-12

    def test_equal_pair_draws_are_fine(self, rule16):
        report = run_hypothesis_suite(trials=1, seed=0, rule=rule16, tol=1e-3)
        assert report.failures == ()

    def test_deterministic_reports(self, rule32):
        a = run_hypothesis_suite(trials=3, seed=11, rule=rule32, tol=1e-7)
        # the plane sum is memoized: clear it so the rerun sums afresh
        _potential_sum.cache_clear()
        b = run_hypothesis_suite(trials=3, seed=11, rule=rule32, tol=1e-7)
        assert to_json(a.to_dict()) == to_json(b.to_dict())

    def test_zero_tolerance_flags_every_trial(self, rule16):
        report = run_hypothesis_suite(trials=4, seed=3, rule=rule16, tol=0.0)
        scaling_failures = [
            f for f in report.failures if f.transformation.startswith("scaling")
        ]
        assert len(scaling_failures) == 4

    def test_trials_guard(self, rule16):
        with pytest.raises(ValueError):
            run_hypothesis_suite(trials=0, seed=1, rule=rule16, tol=1e-7)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-7])
    def test_tol_guard(self, rule16, tol):
        # an infinite tol would report no failure at any violation
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            run_hypothesis_suite(trials=1, seed=1, rule=rule16, tol=tol)

    def test_exchange_check_exposed(self, rule32):
        rng = np.random.default_rng(167)
        g1 = DiagonalMetric(draw_scales(rng))
        g2 = DiagonalMetric(draw_scales(rng))
        assert check_exchange_identity(g1, g2, rule32) <= 1e-10
