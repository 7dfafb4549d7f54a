import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest

from doubled_spectral import build_rule
from doubled_spectral.matchings import MAX_MATCHING_ORDER


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


# The census built matching by matching: the test oracle of
# matchings.pattern_census.


@dataclass(frozen=True)
class Matching:
    """Perfect matching of {1, ..., 2m} in canonical form: each pair (a, b)
    has a < b and the first entries increase."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((int(a), int(b)) for a, b in self.pairs)
        m = len(pairs)
        seen = sorted(x for p in pairs for x in p)
        if seen != list(range(1, 2 * m + 1)):
            raise ValueError(f"pairs do not partition 1..{2*m}: {pairs}")
        for a, b in pairs:
            if a >= b:
                raise ValueError(f"pair {(a, b)} not in (low, high) order")
        firsts = [a for a, _ in pairs]
        if firsts != sorted(firsts):
            raise ValueError("pairs not sorted by first entry")
        object.__setattr__(self, "pairs", pairs)

    @property
    def order(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class TracePattern:
    """Multiset of cycle lengths {k_i}; contraction value is prod tr(eps^k_i)."""

    cycle_lengths: tuple[int, ...]

    def __post_init__(self):
        lens = tuple(sorted((int(k) for k in self.cycle_lengths), reverse=True))
        if any(k < 1 for k in lens):
            raise ValueError(f"cycle lengths must be positive, got {lens}")
        object.__setattr__(self, "cycle_lengths", lens)


def enumerate_matchings(m: int):
    """Yield all (2m-1)!! canonical perfect matchings of {1, ..., 2m},
    generated by pairing the smallest free index with every larger one."""
    m = int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > MAX_MATCHING_ORDER:
        raise ValueError(
            f"m = {m} exceeds the enumeration guard {MAX_MATCHING_ORDER}"
        )

    def rec(free):
        if not free:
            yield ()
            return
        first = free[0]
        for i in range(1, len(free)):
            rest = free[1:i] + free[i + 1 :]
            for tail in rec(rest):
                yield ((first, free[i]),) + tail

    for pairs in rec(tuple(range(1, 2 * m + 1))):
        yield Matching(pairs)


def trace_pattern(mt: Matching) -> TracePattern:
    """Cycle decomposition of a matching over the blocks (2l-1, 2l).

    Each block contributes two slots; following matching edges and in-block
    edges alternately decomposes the blocks into cycles, and a cycle through
    k blocks contracts to tr(eps^k).
    """
    m = mt.order
    partner = {}
    for a, b in mt.pairs:
        partner[a] = b
        partner[b] = a
    visited = [False] * (m + 1)
    lens = []
    for blk in range(1, m + 1):
        if visited[blk]:
            continue
        length = 0
        cur = blk
        slot = 2 * blk - 1
        while True:
            visited[cur] = True
            length += 1
            nxt = partner[slot]
            cur = (nxt + 1) // 2
            slot = nxt + 1 if nxt % 2 == 1 else nxt - 1
            if cur == blk:
                break
        lens.append(length)
    return TracePattern(tuple(lens))
