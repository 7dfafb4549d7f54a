"""Wick-pairing combinatorics for monomial moments over the 3-sphere and the
perturbative expansion of the rational integral int dS / (xi^T A xi).

Writing A = Omega (I + eps) with eps symmetric and traceless, the integrand
expands geometrically in the scalar xi^T eps xi.  Every sphere moment of a
monomial xi^{g1} ... xi^{g2m} is c_m times the number of perfect matchings of
the 2m index slots that pair equal axis labels, with

    c_m = 4 pi^2 / (2m+2)!!    (so c_0 = 2 pi^2, the sphere area).

Contracting m copies of eps along a matching produces a product of traces,
one tr(eps^k) per cycle of the block graph (blocks are the slot pairs
(2l-1, 2l) of each eps factor).  pattern_census counts each cycle type in
closed form for `moments`, and the tests check it against a census built
matching by matching.  The series sums these products over all matchings by
the exponential formula's recurrence in the traces (docs/derivation.md,
section 3), which the tests check against the census.  compare_series
evaluates the exact series next to its single-trace variant, which keeps
only a tr(eps^m) term with coefficient (-2)^m N_{2m} c_m per order.
N_{2m} counts the matchings with no block pair (2l-1, 2l), i.e. no 1-cycle.

Rational bookkeeping (fractions.Fraction, in units of pi^2) is kept exact;
floats appear only when a series is evaluated.  The combinatorial half
(c_coefficient, pattern_census, count_n, count_n_formula) needs no numpy;
the series half imports numpy, and compare_series the S^3 rule, inside the
functions that use them.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING

from .geometry import TWO_PI_SQ

if TYPE_CHECKING:
    import numpy as np

    from .s3quad import SphereRule

PI_SQ = math.pi * math.pi

# Largest accepted orders, each range covered by the tests.  The census is
# closed-form, so none of them bounds (2m-1)!! work.
# largest m of pattern_census, whose p(m) rows are the cycle types (the
# partitions of m), of moment_integral (2m indices) and of `moments --m`
MAX_MATCHING_ORDER = 10
# largest order of series_exact and compare_series (c_m is normal up to m ~ 150)
MAX_SERIES_ORDER = 100

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


class PerturbedForm(namedtuple("PerturbedForm", "omega eps spectral_radius")):
    """Positive quadratic form A = omega (I + eps), eps a symmetric traceless
    4x4 array with spectral radius < 1, which the constructor solves for and
    keeps as `spectral_radius`.  Immutable, as geometry.DiagonalMetric; eps
    is a read-only copy."""

    __slots__ = ()

    def __new__(cls, omega, eps):
        import numpy as np

        if not (math.isfinite(omega) and omega > 0.0):
            raise ValueError(f"omega must be positive, got {omega}")
        eps = np.array(eps, dtype=float)
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
        return tuple.__new__(cls, (omega, eps, rho))

    def __getnewargs__(self):
        # copy and pickle call __new__ with these, not with all three fields
        return self.omega, self.eps


def _partitions(m: int) -> list[tuple[int, ...]]:
    def gen(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(m, m))


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
            f"m = {m} exceeds the census guard {MAX_MATCHING_ORDER}"
        )
    census = []
    for parts in _partitions(m):
        denom = 1
        for k, n_k in Counter(parts).items():
            denom *= (2 * k) ** n_k * math.factorial(n_k)
        census.append((parts, math.factorial(m) * 2**m // denom))
    return tuple(census)


def count_n(m: int) -> int:
    """Number of matchings of {1, ..., 2m} with no pair (2l-1, 2l), from the
    recurrence; independent of the inclusion-exclusion count_n_formula."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return _count_n_recurrence(m)[m]


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
    if m > MAX_MATCHING_ORDER:
        raise ValueError(f"m = {m} exceeds the moment guard {MAX_MATCHING_ORDER}")
    pairings = 1
    for label in range(4):
        n_label = idx.count(label)
        if n_label % 2 == 1:
            return Fraction(0)
        pairings *= double_factorial(n_label - 1)
    return c_coefficient(m) * pairings


def _trace_powers(eps: np.ndarray, kmax: int) -> list[float]:
    """[unused, tr(eps), tr(eps^2), ..., tr(eps^kmax)]."""
    import numpy as np

    traces = [0.0] * (kmax + 1)
    power = np.eye(4)
    for k in range(1, kmax + 1):
        power = power @ eps
        traces[k] = float(np.trace(power))
    return traces


def _exact_terms(order: int, traces) -> list[float]:
    """(-1)^m c_m b_m, without the 1/Omega, for m = 0..order.  The sum b_m of
    prod tr(eps^k) over the matchings follows the exponential formula's
    recurrence b_n = sum_k 2^(k-1) (n-1)!/(n-k)! tr(eps^k) b_{n-k}
    (docs/derivation.md, section 3)."""
    b = [1.0]
    for n in range(1, order + 1):
        b.append(math.fsum(2 ** (k - 1) * math.perm(n - 1, k - 1) * traces[k] * b[n - k]
                           for k in range(1, n + 1)))
    return [(-1.0) ** m * float(c_coefficient(m)) * PI_SQ * b[m] for m in range(order + 1)]


def _count_n_recurrence(order: int) -> list[int]:
    """[N_0, N_2, ..., N_{2 order}] by N_{2(m+1)} = 2m (N_{2m} + N_{2(m-1)})
    from N_0 = 1, N_2 = 0: count_n_formula(m) for every m >= 1, in O(order)
    integer steps."""
    counts = [1, 0]
    for m in range(1, order):
        counts.append(2 * m * (counts[m] + counts[m - 1]))
    return counts[: order + 1]


def _single_trace_terms(order: int, traces) -> list[float]:
    """Terms of the single-trace series variant, without the 1/Omega, for
    m = 0..order (order >= 2): the constant 2 pi^2, 0 at order 1,
    (2 pi^2 / 3) tr(eps^2) at order 2, then (-2)^m c_m N_{2m} tr(eps^m)."""
    counts = _count_n_recurrence(order)
    return [TWO_PI_SQ, 0.0, (TWO_PI_SQ / 3.0) * traces[2]] + [
        (-2.0) ** m * float(c_coefficient(m)) * PI_SQ * counts[m] * traces[m]
        for m in range(3, order + 1)
    ]


def check_series_order(order: int, minimum: int = 2) -> int:
    """`order` as an int; raises ValueError unless
    minimum <= order <= MAX_SERIES_ORDER."""
    order = int(order)
    if order < minimum:
        raise ValueError(f"order must be >= {minimum}, got {order}")
    if order > MAX_SERIES_ORDER:
        raise ValueError(f"order {order} exceeds the guard {MAX_SERIES_ORDER}")
    return order


def series_exact(pf: PerturbedForm, order: int) -> float:
    """Exact truncated expansion of the rational integral:

        (1/Omega) sum_{m=0}^{order} (-1)^m c_m
                  sum_{matchings} prod_cycles tr(eps^k),

    from the per-order terms of compare_series, so it is its value_exact.
    """
    order = check_series_order(order, 0)
    traces = _trace_powers(pf.eps, order)
    return math.fsum(t / pf.omega for t in _exact_terms(order, traces))


class SeriesComparison(
    namedtuple(
        "SeriesComparison",
        "omega spectral_radius order level terms_exact terms_single_trace "
        "ratios_single_trace_vs_exact value_exact value_single_trace value_quadrature",
    )
):
    """Per-order comparison of the two series against direct quadrature.
    The terms_* and ratios_* fields are tuples over the orders 0..order, a
    ratio None where the exact term is not resolvably nonzero."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def compare_series(pf: PerturbedForm, order: int, rule: SphereRule) -> SeriesComparison:
    """Evaluate both series term by term and the quadrature oracle.

    Per-order ratios single-trace/exact are recorded where the exact term is
    resolvably nonzero (threshold 1e-12 of the constant term), None
    elsewhere.
    """
    from .s3quad import rational_integral

    order = check_series_order(order)
    traces = _trace_powers(pf.eps, order)
    terms_exact = tuple(t / pf.omega for t in _exact_terms(order, traces))
    terms_single = tuple(t / pf.omega for t in _single_trace_terms(order, traces))
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
