"""Wick-pairing combinatorics for monomial moments over the 3-sphere and the
perturbative expansion of the rational integral int dS / (xi^T A xi).

Writing A = Omega (I + eps) with eps symmetric and traceless, the integrand
expands geometrically in the scalar xi^T eps xi.  Every sphere moment of a
monomial xi^{g1} ... xi^{g2m} is c_m times the number of perfect matchings of
the 2m index slots that pair equal axis labels, with

    c_m = 4 pi^2 / (2m+2)!!    (so c_0 = 2 pi^2, the sphere area).

Contracting m copies of eps along a matching produces a product of traces,
one tr(eps^k) per cycle of the block graph (blocks are the slot pairs
(2l-1, 2l) of each eps factor).  The census of cycle types over all
matchings therefore determines the exact expansion.  pattern_census counts
each cycle type in closed form; enumerate_matchings and trace_pattern build
the census matching by matching and are kept as its test oracle.  The
single-trace variant of the series, which keeps only a tr(eps^m) term with
coefficient (-2)^m N_{2m} c_m, is implemented alongside for comparison.
N_{2m} counts the matchings with no block pair (2l-1, 2l), i.e. no 1-cycle.

Rational bookkeeping (fractions.Fraction, in units of pi^2) is kept exact;
floats appear only when a series is evaluated.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .s3quad import TWO_PI_SQ, SphereRule, rational_integral

PI_SQ = math.pi * math.pi

# (2m-1)!! growth guards
MAX_MATCHING_ORDER = 10
MAX_MOMENT_ORDER = 8
MAX_SERIES_ORDER = 8

EPS_SYMMETRY_TOL = 1e-15
EPS_TRACE_TOL = 1e-15


def double_factorial(n: int) -> int:
    """n!! with the convention (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    out = 1
    k = n
    while k > 1:
        out *= k
        k -= 2
    return out


def c_coefficient(m: int) -> Fraction:
    """Moment normalization c_m = 4 / (2m+2)!!, as a coefficient of pi^2."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return Fraction(4, double_factorial(2 * m + 2))


@dataclass(frozen=True)
class PerturbedForm:
    """Positive quadratic form A = omega (I + eps), eps symmetric traceless
    with spectral radius < 1."""

    omega: float
    eps: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be positive, got {self.omega}")
        eps = np.array(self.eps, dtype=float)
        if eps.shape != (4, 4):
            raise ValueError(f"eps must be 4x4, got shape {eps.shape}")
        if not np.all(np.isfinite(eps)):
            raise ValueError("eps has non-finite entries")
        if float(np.abs(eps - eps.T).max()) > EPS_SYMMETRY_TOL:
            raise ValueError("eps is not symmetric")
        if abs(float(np.trace(eps))) > EPS_TRACE_TOL:
            raise ValueError(f"eps is not traceless: trace = {float(np.trace(eps))!r}")
        rho = float(np.abs(np.linalg.eigvalsh(eps)).max()) if eps.any() else 0.0
        if rho >= 1.0:
            raise ValueError(
                f"spectral radius of eps must be < 1 for positivity, got {rho}"
            )
        eps.flags.writeable = False
        object.__setattr__(self, "eps", eps)

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(np.linalg.eigvalsh(self.eps)).max())


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


def _partitions(m: int) -> list[tuple[int, ...]]:
    def gen(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(m, m))


@lru_cache(maxsize=None)
def pattern_census(m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Number of matchings realizing each cycle type, for all cycle types
    (partitions of m), as ((lengths descending), count) pairs.  Counts sum
    to (2m-1)!!.

    A cycle type with n_k cycles of length k is realized by

        m! 2^m / prod_k ((2k)^{n_k} n_k!)

    matchings: the m blocks split into the cycles in m! / prod_k (k!^{n_k}
    n_k!) ways, and k given blocks close into 2^(k-1) (k-1)! single cycles.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > MAX_MATCHING_ORDER:
        raise ValueError(
            f"m = {m} exceeds the enumeration guard {MAX_MATCHING_ORDER}"
        )
    census = []
    for parts in _partitions(m):
        denom = 1
        for k, n_k in Counter(parts).items():
            denom *= (2 * k) ** n_k * math.factorial(n_k)
        census.append((parts, math.factorial(m) * 2**m // denom))
    return tuple(census)


def count_n(m: int) -> int:
    """Number of matchings of {1, ..., 2m} with no pair (2l-1, 2l), summed
    over the census (these are exactly the matchings whose cycle type has no
    1-cycle); independent of the inclusion-exclusion count_n_formula."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return sum(count for pat, count in pattern_census(m) if 1 not in pat)


def count_n_formula(m: int) -> int:
    """Inclusion-exclusion closed form: sum_k (-1)^k C(m,k) (2(m-k)-1)!!."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return sum(
        (-1) ** k * math.comb(m, k) * double_factorial(2 * (m - k) - 1)
        for k in range(m + 1)
    )


def moment_integral(indices) -> Fraction:
    """Exact moment int dS xi_{g_1} ... xi_{g_2m}, as a coefficient of pi^2.

    Equals c_m times the number of matchings of the slots pairing equal axis
    labels; slots with a given label can only pair among themselves, so the
    count factorizes into (n_label - 1)!! per label (zero if any label has
    odd multiplicity).  An odd number of indices integrates to zero by
    parity.
    """
    idx = tuple(int(i) for i in indices)
    if any(i not in (0, 1, 2, 3) for i in idx):
        raise ValueError(f"axis labels must be in 0..3, got {idx}")
    if len(idx) % 2 == 1:
        return Fraction(0)
    m = len(idx) // 2
    if m > MAX_MOMENT_ORDER:
        raise ValueError(f"m = {m} exceeds the moment guard {MAX_MOMENT_ORDER}")
    pairings = 1
    for label in range(4):
        n_label = idx.count(label)
        if n_label % 2 == 1:
            return Fraction(0)
        pairings *= double_factorial(n_label - 1)
    return c_coefficient(m) * pairings


def _trace_powers(eps: np.ndarray, kmax: int) -> list[float]:
    """[unused, tr(eps), tr(eps^2), ..., tr(eps^kmax)]."""
    traces = [0.0] * (kmax + 1)
    power = np.eye(4)
    for k in range(1, kmax + 1):
        power = power @ eps
        traces[k] = float(np.trace(power))
    return traces


def _exact_term(m: int, traces) -> float:
    """(-1)^m c_m sum over matchings of prod tr(eps^k), without the 1/Omega."""
    if m == 0:
        return TWO_PI_SQ
    pat_sum = math.fsum(
        count * math.prod(traces[k] for k in pat)
        for pat, count in pattern_census(m)
    )
    return (-1.0) ** m * float(c_coefficient(m)) * PI_SQ * pat_sum


def _single_trace_term(m: int, traces) -> float:
    """Term of the single-trace series variant, without the 1/Omega: the
    constant 2 pi^2, then (2 pi^2 / 3) tr(eps^2) at order 2, then
    (-2)^m c_m N_{2m} tr(eps^m)."""
    if m == 0:
        return TWO_PI_SQ
    if m == 1:
        return 0.0
    if m == 2:
        return (TWO_PI_SQ / 3.0) * traces[2]
    return (-2.0) ** m * float(c_coefficient(m)) * PI_SQ * count_n(m) * traces[m]


def series_exact(pf: PerturbedForm, order: int) -> float:
    """Exact truncated expansion of the rational integral:

        (1/Omega) sum_{m=0}^{order} (-1)^m c_m
                  sum_{matchings} prod_cycles tr(eps^k).
    """
    order = int(order)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > MAX_SERIES_ORDER:
        raise ValueError(f"order {order} exceeds the guard {MAX_SERIES_ORDER}")
    traces = _trace_powers(pf.eps, max(order, 1))
    return math.fsum(_exact_term(m, traces) for m in range(order + 1)) / pf.omega


def series_single_trace(pf: PerturbedForm, order: int) -> float:
    """Single-trace series variant, evaluated exactly as stated:

        (1/Omega) [ 2 pi^2 + (2 pi^2/3) tr(eps^2)
                    + sum_{m=3}^{order} (-2)^m c_m N_{2m} tr(eps^m) ].
    """
    order = int(order)
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if order > MAX_SERIES_ORDER:
        raise ValueError(f"order {order} exceeds the guard {MAX_SERIES_ORDER}")
    traces = _trace_powers(pf.eps, order)
    return (
        math.fsum(_single_trace_term(m, traces) for m in range(order + 1))
        / pf.omega
    )


@dataclass(frozen=True)
class SeriesComparison:
    """Per-order comparison of the two series against direct quadrature."""

    omega: float
    spectral_radius: float
    order: int
    level: int
    terms_exact: tuple[float, ...]
    terms_single_trace: tuple[float, ...]
    ratios_single_trace_vs_exact: tuple[float | None, ...]
    value_exact: float
    value_single_trace: float
    value_quadrature: float

    def to_dict(self) -> dict:
        return {
            "omega": self.omega,
            "spectral_radius": self.spectral_radius,
            "order": self.order,
            "level": self.level,
            "terms_exact": list(self.terms_exact),
            "terms_single_trace": list(self.terms_single_trace),
            "ratios_single_trace_vs_exact": list(
                self.ratios_single_trace_vs_exact
            ),
            "value_exact": self.value_exact,
            "value_single_trace": self.value_single_trace,
            "value_quadrature": self.value_quadrature,
        }


def compare_series(pf: PerturbedForm, order: int, rule: SphereRule) -> SeriesComparison:
    """Evaluate both series term by term and the quadrature oracle.

    Per-order ratios single-trace/exact are recorded where the exact term is
    resolvably nonzero (threshold 1e-12 of the constant term), None
    elsewhere.
    """
    order = int(order)
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if order > MAX_SERIES_ORDER:
        raise ValueError(f"order {order} exceeds the guard {MAX_SERIES_ORDER}")
    traces = _trace_powers(pf.eps, order)
    terms_exact = tuple(
        _exact_term(m, traces) / pf.omega for m in range(order + 1)
    )
    terms_single = tuple(
        _single_trace_term(m, traces) / pf.omega for m in range(order + 1)
    )
    floor = 1e-12 * (TWO_PI_SQ / pf.omega)
    ratios = tuple(
        (ts / te) if abs(te) > floor else None
        for te, ts in zip(terms_exact, terms_single)
    )
    return SeriesComparison(
        omega=pf.omega,
        spectral_radius=pf.spectral_radius,
        order=order,
        level=rule.level,
        terms_exact=terms_exact,
        terms_single_trace=terms_single,
        ratios_single_trace_vs_exact=ratios,
        value_exact=math.fsum(terms_exact),
        value_single_trace=math.fsum(terms_single),
        value_quadrature=rational_integral(pf, rule),
    )
