import math
from functools import lru_cache

import numpy as np
import pytest

from doubled_spectral import build_rule


@pytest.fixture(scope="session")
def rule8():
    return build_rule(8)


@pytest.fixture(scope="session")
def rule16():
    return build_rule(16)


@pytest.fixture(scope="session")
def rule32():
    return build_rule(32)


@pytest.fixture(scope="session")
def rule64():
    return build_rule(64)


def draw_scales(rng, lo=0.5, hi=2.0, size=4):
    """Log-uniform scale factors, the sampling box used throughout."""
    return tuple(float(v) for v in np.exp(rng.uniform(np.log(lo), np.log(hi), size)))


@lru_cache(maxsize=2)
def full_product_set(level):
    """The unfolded product rule, built independently of the package's fold
    as a reference: Gauss-Legendre in t on [0, 1] times the 2 level-point
    periodic trapezoid in each angle, 4 level^3 nodes in t-major order.
    Returns read-only (xi, weights)."""
    t, wt = np.polynomial.legendre.leggauss(level)
    t = 0.5 * (t + 1.0)
    wt = 0.5 * wt
    ang = np.pi * np.arange(2 * level) / level
    tt, phi, psi = np.meshgrid(t, ang, ang, indexing="ij")
    rc = np.sqrt(1.0 - tt)
    rt = np.sqrt(tt)
    xi = np.stack(
        [rc * np.cos(phi), rc * np.sin(phi), rt * np.cos(psi), rt * np.sin(psi)],
        axis=-1,
    ).reshape(-1, 4)
    # dS = (1/2) dt dphi dpsi, angle step pi / level
    w = np.repeat(wt * (0.5 * (math.pi / level) ** 2), 4 * level * level)
    xi.flags.writeable = False
    w.flags.writeable = False
    return xi, w
