import math

import numpy as np
import pytest

from doubled_spectral import (
    DiagonalMetric,
    HopfMetric,
    potential_1d,
    potential_closed,
    potential_numeric,
    to_diagonal,
)
from conftest import draw_scales

TWO_PI_SQ = 2.0 * math.pi**2


def rel(a, b):
    return abs(a - b) / abs(b)


class TestAgainstOracle:
    def test_in_box_pairs(self, rule64):
        rng = np.random.default_rng(97)
        for _ in range(8):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            assert rel(potential_1d(g1, g2), potential_numeric(g1, g2, rule64)) <= 1e-12

    def test_tube_pair(self, rule64):
        # a Hopf pair on the singular surface a2 b1 = a1 b2 of the closed form
        a1, a2, b2 = 0.8, 1.3, 0.7
        g1 = to_diagonal(HopfMetric(a=a1, b=b2 * a1 / a2))
        g2 = to_diagonal(HopfMetric(a=a2, b=b2))
        assert rel(potential_1d(g1, g2), potential_numeric(g1, g2, rule64)) <= 1e-12


class TestAgainstClosedForm:
    @pytest.mark.parametrize("ratio", [10.0, 30.0, 100.0])
    def test_wide_hopf_ratios(self, ratio):
        # the level-64 rule is off by 5e-3 at 30:1 and by 0.47 at 100:1
        for h1, h2 in [
            (HopfMetric(a=1.0, b=ratio), HopfMetric(a=1.0, b=1.0)),
            (HopfMetric(a=0.7, b=1.2), HopfMetric(a=0.7 * ratio, b=0.9)),
        ]:
            v = potential_1d(to_diagonal(h1), to_diagonal(h2))
            assert rel(v, potential_closed(h1, h2)) <= 1e-12

    def test_proportional_pairs(self):
        # on the singular surface the potential is 2 pi^2 (z-1)^2 (z^2+1)
        # for g1 = z g2 = z (1, 1, 1, 1), far beyond the oracle's range
        g2 = DiagonalMetric((1.0, 1.0, 1.0, 1.0))
        for z in (1e-20, 0.5, 2.0, 1e6, 1e40):
            g1 = DiagonalMetric((z, z, z, z))
            expect = TWO_PI_SQ * (z - 1.0) ** 2 * (z * z + 1.0)
            assert rel(potential_1d(g1, g2), expect) <= 1e-13


class TestEdges:
    def test_identical_metrics_exactly_zero(self):
        g = DiagonalMetric((1.3, 0.7, 1.1, 0.9))
        assert potential_1d(g, g) == 0.0

    def test_exchange_symmetry(self):
        g1 = DiagonalMetric((1.3, 0.7, 1.1, 0.9))
        g2 = DiagonalMetric((0.8, 1.6, 0.6, 1.2))
        assert rel(potential_1d(g1, g2), potential_1d(g2, g1)) <= 1e-14

    @pytest.mark.parametrize(
        "scales", [(1e200, 1.0, 1.0, 1.0), (1.0, 1.0, 1e-160, 1e-160)],
        ids=["inverse-square-zero", "inverse-square-inf"],
    )
    def test_out_of_range_scale_raises_value_error(self, scales):
        g = DiagonalMetric((1.0, 1.0, 1.0, 1.0))
        for pair in ((DiagonalMetric(scales), g), (g, DiagonalMetric(scales))):
            with pytest.raises(ValueError, match="1/a\\^2"):
                potential_1d(*pair)

    def test_spread_beyond_range_raises(self):
        g1 = DiagonalMetric((1e76, 1.0, 1.0, 1.0))
        g2 = DiagonalMetric((1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="ratio above"):
            potential_1d(g1, g2)

    def test_overflow_raises(self):
        g1 = DiagonalMetric((1e150, 1e150, 1e150, 1e150))
        g2 = DiagonalMetric((1e150, 1e150, 1e150, 2e150))
        with pytest.raises(ValueError, match="potential overflows"):
            potential_1d(g1, g2)
