import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import pytest

from doubled_spectral import DiagonalMetric, build_rule
from doubled_spectral.geometry import TWO_PI_SQ, check_inverse_squares
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


def product_sum(level, f):
    """fsum of w f(xi) over the product set of `level`, the 3-D reference
    of the rule; f maps the (n, 4) nodes to (n,) values."""
    xi, w = full_product_set(level)
    return math.fsum((w * f(xi)).tolist())


def unfolded(rule):
    """The same rule with the angle factor replaced by the unfolded grid of
    2 level angles, each of multiplicity 1: the product rule itself."""
    ang = np.pi * np.arange(2 * rule.level) / rule.level
    factor = np.stack([np.cos(ang) ** 2, np.sin(ang) ** 2])
    weights = np.full(ang.shape, np.pi / rule.level)
    return replace(rule, angle_factor=factor, angle_weights=weights)


# The potential as a Feynman-parameter integral over t, summed by a
# tanh-sinh rule: the test oracle of carlson.potential_elliptic at scale
# ratios where the S^3 rule is not accurate.  With d = (sqrt(c2) - sqrt(c1))^2,
# s = c1 + c2, c(t) = t c1 + (1-t) c2 and c = a^-2 per axis,
#
#     V = 2 pi^2 int_0^1 t (1-t) / (4 sqrt(prod_j c_j(t)))
#           [ (sum_j d_j / c_j(t)) (sum_l s_l / c_l(t)) + 2 sum_j d_j s_j / c_j(t)^2 ] dt.
#
# The integrand is positive, smooth and vanishes at both ends, so the rule
# (Takahasi & Mori 1974) converges double exponentially.  It starts at step
# H0 and halves the step, reusing the previous nodes, until two successive
# sums agree to REL_TOL.

# first step in u, where t = 1 / (1 + exp(-pi sinh u))
H0 = 1.0 / 16.0
# nodes stop at |u| = U_MAX, where t (1-t) < 1e-275
U_MAX = 6.0
REL_TOL = 1e-13
MAX_HALVINGS = 8
# largest spread max/min of the eight 1/a^2 (a scale ratio of 1e75)
MAX_SPREAD = 1e150


def _term(u, c1, c2, d, s):
    """Integrand times dt/du at the node u, without the 2 pi^2 / 4."""
    x = math.pi * math.sinh(u)
    t = 1.0 / (1.0 + math.exp(-x))
    tc = 1.0 / (1.0 + math.exp(x))
    tt = t * tc
    c = [t * p + tc * q for p, q in zip(c1, c2)]
    dc = [tt * dj / cj for dj, cj in zip(d, c)]
    sc = [tt * sj / cj for sj, cj in zip(s, c)]
    bracket = sum(dc) * sum(sc) + 2.0 * sum(p * q for p, q in zip(dc, sc))
    root = math.sqrt(c[0]) * math.sqrt(c[1]) * math.sqrt(c[2]) * math.sqrt(c[3])
    return math.pi * math.cosh(u) * bracket / root


def potential_1d(g1: DiagonalMetric, g2: DiagonalMetric) -> float:
    """Interaction potential from the tanh-sinh rule above.  Exactly 0.0 for
    identical metrics.  Raises ValueError when a 1/a^2 is 0 or inf, when the
    1/a^2 spread more than MAX_SPREAD, when the rule does not converge, or
    when the potential overflows."""
    inv1 = [1.0 / a for a in g1.scales]
    inv2 = [1.0 / a for a in g2.scales]
    c1 = [v * v for v in inv1]
    c2 = [v * v for v in inv2]
    check_inverse_squares(g1, c1, "g1")
    check_inverse_squares(g2, c2, "g2")
    d = [(q - p) ** 2 for p, q in zip(inv1, inv2)]
    if not any(d):
        return 0.0
    # the integrand is homogeneous of degree -2 in (c1, c2): scale the
    # largest entry to 1
    kappa = max(c1 + c2)
    if min(c1 + c2) * MAX_SPREAD < kappa:
        raise ValueError("the scale factors span a ratio above 1e75")
    c1 = [v / kappa for v in c1]
    c2 = [v / kappa for v in c2]
    d = [v / kappa for v in d]
    s = [p + q for p, q in zip(c1, c2)]

    h = H0
    n = round(U_MAX / h)
    terms = [_term(k * h, c1, c2, d, s) for k in range(-n, n + 1)]
    est = h * math.fsum(terms)
    for _ in range(MAX_HALVINGS):
        prev = est
        h *= 0.5
        n *= 2
        terms.extend(_term(k * h, c1, c2, d, s) for k in range(1 - n, n, 2))
        est = h * math.fsum(terms)
        if abs(est - prev) <= REL_TOL * est:
            break
    else:
        raise ValueError("the 1-D potential rule did not converge")
    value = TWO_PI_SQ * 0.25 * est / kappa / kappa
    if not math.isfinite(value):
        raise ValueError("the potential overflows double precision")
    return value


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
