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
matching by matching.  By the exponential formula these products sum to
m! 2^m a_m over all matchings, so the m-th term of the series is
(-1)^m (2 pi^2 / Omega) a_m / (m+1), with a_0 = 1 and
a_n = (1/2n) sum_k tr(eps^k) a_{n-k} (docs/derivation.md, section 3); the
tests check the recurrence against the census, exactly on Fraction traces.
compare_series evaluates the exact series next to its single-trace variant,
which keeps only the term (-1)^m (2 pi^2 / Omega) N_{2m} tr(eps^m) / (m+1)!
per order.  N_{2m} counts the matchings with no block pair (2l-1, 2l), i.e.
no 1-cycle.  Both series are summed in units of 2 pi^2 / Omega and scaled
once.

Rational bookkeeping (fractions.Fraction, in units of pi^2) is kept exact;
floats appear only when a series is evaluated.  The module imports no
numpy, and fractions (which loads decimal) only inside c_coefficient and
moment_integral, which return Fractions.  The series half works on eps as
4 rows of Python floats: tr(eps^k) by repeated 4x4 products, and the
eigenvalues of the symmetric part of eps by cyclic Jacobi rotations.
compare_series takes its reference from the closed form
`carlson.rational_integral`, on the eigenvalues of the form.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from typing import TYPE_CHECKING

from .carlson import rational_integral
from .geometry import TWO_PI_SQ

if TYPE_CHECKING:
    from fractions import Fraction

# Largest accepted orders, each range covered by the tests.  The census is
# closed-form, so none of them bounds (2m-1)!! work.
# largest m of pattern_census, whose p(m) rows are the cycle types (the
# partitions of m), of moment_integral (2m indices) and of `moments --m`
MAX_MATCHING_ORDER = 10
# largest order of series_exact and compare_series, whose recurrence takes
# O(order^2) steps; in units of 2 pi^2 / Omega the exact terms stay below
# rho^m and the single-trace ones below 4 (2 rho)^m, so no order overflows
MAX_SERIES_ORDER = 100

EPS_SYMMETRY_TOL = 1e-15
EPS_TRACE_TOL = 1e-15

# the off-diagonal pairs of a 4x4 matrix, in the order one Jacobi sweep
# rotates them
_JACOBI_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# cyclic Jacobi converges quadratically in the end: none of 10,000 seeded
# draws, half with repeated eigenvalues, kept an off-diagonal entry past 6
# sweeps
_JACOBI_SWEEPS = 50


def double_factorial(n: int) -> int:
    """n!! with the convention (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    return math.prod(range(n, 0, -2))


def c_coefficient(m: int) -> Fraction:
    """Moment normalization c_m = 4 / (2m+2)!!, as a coefficient of pi^2."""
    from fractions import Fraction

    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return Fraction(4, double_factorial(2 * m + 2))


def _shape(x) -> tuple[int, ...]:
    """The shape numpy gives the nested sequence x, read along first
    elements."""
    shape = []
    while hasattr(x, "__len__") and not isinstance(x, str):
        shape.append(len(x))
        if not shape[-1]:
            break
        x = x[0]
    return tuple(shape)


def _symmetric_eigenvalues(a) -> list[float]:
    """Ascending eigenvalues of the symmetric 4x4 matrix `a`, 4 rows of 4
    finite floats, by cyclic Jacobi rotations (Golub and Van Loan, Matrix
    Computations, section 8.5).  A diagonal matrix comes back exactly, with
    no rotation.  Otherwise the matrix is scaled by a power of two to a
    largest entry in [1/2, 1), so no step under- or overflows, and an
    eigenvalue that leaves double range on scaling back is infinite."""
    if not any(a[p][q] for p, q in _JACOBI_PAIRS):
        return sorted(a[i][i] for i in range(4))
    e = math.frexp(max(abs(x) for row in a for x in row))[1]
    a = [[math.ldexp(x, -e) for x in row] for row in a]
    for _ in range(_JACOBI_SWEEPS):
        if not any(a[p][q] for p, q in _JACOBI_PAIRS):
            break
        for p, q in _JACOBI_PAIRS:
            apq, app, aqq = a[p][q], a[p][p], a[q][q]
            g = 100.0 * abs(apq)
            if abs(app) + g == abs(app) and abs(aqq) + g == abs(aqq):
                # a rotation would move neither diagonal entry, and dropping
                # the pair moves no eigenvalue by more than |apq|
                a[p][q] = a[q][p] = 0.0
                continue
            # t = tan of the angle that zeroes a[p][q], the smaller root of
            # t^2 + 2 theta t - 1 = 0; beyond 1e150 theta^2 would overflow,
            # and 1 / (2 theta) is that root to rounding
            theta = (aqq - app) / (2.0 * apq)
            if abs(theta) > 1e150:
                t = 0.5 / theta
            else:
                t = math.copysign(1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0)), theta)
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            a[p][p], a[q][q] = app - t * apq, aqq + t * apq
            a[p][q] = a[q][p] = 0.0
            for r in range(4):
                if r != p and r != q:
                    arp, arq = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = c * arp - s * arq
                    a[r][q] = a[q][r] = s * arp + c * arq
    else:
        raise AssertionError(f"Jacobi rotations left off-diagonal entries in {a}")
    # by two normal powers of two: the product rounds once, and overflows to
    # inf where math.ldexp would raise
    f1, f2 = math.ldexp(1.0, e // 2), math.ldexp(1.0, e - e // 2)
    return sorted(a[i][i] * f1 * f2 for i in range(4))


def _finite_rows(eps) -> tuple[tuple[float, ...], ...]:
    """The rows of eps as tuples of Python floats; raises ValueError if any
    entry is not finite."""
    eps = tuple(tuple(float(x) for x in row) for row in eps)
    if not all(math.isfinite(x) for row in eps for x in row):
        raise ValueError("eps has non-finite entries")
    return eps


def _spectrum(eps) -> list[float]:
    """Ascending eigenvalues of the symmetric part of the finite 4x4 eps,
    which alone enters xi^T eps xi.  A symmetric pair of entries is kept as
    it is, and halving each entry before the sum cannot overflow."""
    return _symmetric_eigenvalues([[x if x == y else 0.5 * x + 0.5 * y
                                    for x, y in zip(row, col)]
                                   for row, col in zip(eps, zip(*eps))])


class PerturbedForm(namedtuple("PerturbedForm", "omega eps spectral_radius")):
    """Positive quadratic form A = omega (I + eps), eps a symmetric traceless
    4x4 matrix with spectral radius < 1, which the constructor solves for and
    keeps as `spectral_radius`.  Immutable, as geometry.DiagonalMetric; eps
    (a numpy array or nested sequences) is kept as 4 tuples of 4 floats."""

    __slots__ = ()

    def __new__(cls, omega, eps):
        if not (math.isfinite(omega) and omega > 0.0):
            raise ValueError(f"omega must be positive, got {omega}")
        shape = _shape(eps)
        if shape != (4, 4) or any(_shape(row) != (4,) for row in eps):
            raise ValueError(f"eps must be 4x4, got shape {shape}")
        eps = _finite_rows(eps)
        if max(abs(x - y) for row, col in zip(eps, zip(*eps))
               for x, y in zip(row, col)) > EPS_SYMMETRY_TOL:
            raise ValueError("eps is not symmetric")
        trace = eps[0][0] + eps[1][1] + eps[2][2] + eps[3][3]
        if abs(trace) > EPS_TRACE_TOL:
            raise ValueError(f"eps is not traceless: trace = {trace!r}")
        rho = max(abs(v) for v in _spectrum(eps))
        if rho >= 1.0:
            raise ValueError(
                f"spectral radius of eps must be < 1 for positivity, got {rho}"
            )
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
    from fractions import Fraction

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


def _trace_powers(eps, kmax: int) -> list[float]:
    """[unused, tr(eps), tr(eps^2), ..., tr(eps^kmax)] of the 4x4 eps, each
    power the product of the last with eps, its entries and trace summed in
    index order."""
    cols = [[float(row[j]) for row in eps] for j in range(4)]
    traces, power = [0.0], [[float(i == j) for j in range(4)] for i in range(4)]
    for _ in range(kmax):
        power = [[r[0] * c[0] + r[1] * c[1] + r[2] * c[2] + r[3] * c[3] for c in cols]
                 for r in power]
        traces.append(power[0][0] + power[1][1] + power[2][2] + power[3][3])
    return traces


def _wick_coefficients(order: int, traces) -> list:
    """a_0..a_order of sum_m a_m t^m = prod_i (1 - t lambda_i)^(-1/2), over
    the eigenvalues lambda_i of eps, from traces[k] = tr(eps^k): a_0 = 1 and
    a_n = (1/2n) sum_{k=1..n} tr(eps^k) a_{n-k} (docs/derivation.md,
    section 3).  Plain left-to-right sums from int 0, so Fraction traces
    give exact Fractions and floats round alike on every Python version
    (the builtin sum compensates float sums from Python 3.12 on)."""
    a = [1]
    for n in range(1, order + 1):
        total = 0
        for k in range(1, n + 1):
            total += traces[k] * a[n - k]
        a.append(total / (2 * n))
    return a


def _exact_terms(order: int, traces) -> list:
    """Terms of the exact series in units of 2 pi^2 / Omega, for
    m = 0..order: (-1)^m a_m / (m+1), each at most rho^m in size."""
    return [(-c if m % 2 else c) / (m + 1)
            for m, c in enumerate(_wick_coefficients(order, traces))]


def _count_n_recurrence(order: int) -> list[int]:
    """[N_0, N_2, ..., N_{2 order}] by N_{2(m+1)} = 2m (N_{2m} + N_{2(m-1)})
    from N_0 = 1, N_2 = 0: count_n_formula(m) for every m >= 1, in O(order)
    integer steps."""
    counts = [1, 0]
    for m in range(1, order):
        counts.append(2 * m * (counts[m] + counts[m - 1]))
    return counts[: order + 1]


def _single_trace_terms(order: int, traces) -> list[float]:
    """Terms of the single-trace series variant in units of 2 pi^2 / Omega,
    for m = 0..order: 1, then (-1)^m (N_{2m} / (m+1)!) tr(eps^m), below
    4 (2 rho)^m in size.  The integer ratio is correctly rounded; N_2 = 0,
    and adding 0.0 keeps the order-1 term +0 whatever the sign of tr(eps)."""
    counts = _count_n_recurrence(order)
    return [1.0] + [(-1) ** m * counts[m] / math.factorial(m + 1) * traces[m] + 0.0
                    for m in range(1, order + 1)]


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

        (2 pi^2 / Omega) sum_{m=0}^{order} (-1)^m a_m / (m+1),

    from the terms of compare_series, so it is its value_exact.  Raises
    ValueError when the sum is not a finite double.
    """
    order = check_series_order(order, 0)
    value = TWO_PI_SQ / pf.omega * math.fsum(_exact_terms(order, _trace_powers(pf.eps, order)))
    if not math.isfinite(value):
        raise ValueError(f"the series at omega = {pf.omega!r} overflows double precision")
    return value


class SeriesComparison(
    namedtuple(
        "SeriesComparison",
        "omega spectral_radius order terms_exact terms_single_trace "
        "ratios_single_trace_vs_exact value_exact value_single_trace value_quadrature",
    )
):
    """Per-order comparison of the two series against the closed form.
    The terms_* and ratios_* fields are tuples over the orders 0..order, a
    ratio None where the exact term is not resolvably nonzero."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def _eigenvalues(pf) -> list[float]:
    """The eigenvalues omega (1 + mu) of A = omega (I + eps), mu those of the
    symmetric part of eps, which alone enters xi^T A xi, as Python floats.
    Raises ValueError on a non-finite eps, and when an eigenvalue of a
    positive definite A underflows to 0."""
    mu = _spectrum(_finite_rows(pf.eps))
    lam = [pf.omega * (1.0 + v) for v in mu]
    if min(mu) > -1.0 and 0.0 in lam:
        raise ValueError(f"quadratic form has eigenvalues {lam}: one underflows double precision")
    return lam


def compare_series(pf: PerturbedForm, order: int) -> SeriesComparison:
    """Evaluate both series term by term and the rational integral they
    expand, in closed form (`value_quadrature`).  The terms are summed in
    units of 2 pi^2 / Omega, then scaled once.

    Per-order ratios single-trace/exact are recorded where the exact term is
    resolvably nonzero (above 1e-12 of the constant term), None elsewhere.
    """
    order = check_series_order(order)
    value_quadrature = rational_integral(_eigenvalues(pf))
    traces = _trace_powers(pf.eps, order)
    exact, single = _exact_terms(order, traces), _single_trace_terms(order, traces)
    scale = TWO_PI_SQ / pf.omega
    return SeriesComparison(
        omega=pf.omega,
        spectral_radius=pf.spectral_radius,
        order=order,
        terms_exact=tuple(scale * t for t in exact),
        terms_single_trace=tuple(scale * t for t in single),
        ratios_single_trace_vs_exact=tuple(s / e if abs(e) > 1e-12 else None
                                           for e, s in zip(exact, single)),
        value_exact=scale * math.fsum(exact),
        value_single_trace=scale * math.fsum(single),
        value_quadrature=value_quadrature,
    )
