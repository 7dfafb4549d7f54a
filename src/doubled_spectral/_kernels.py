"""Hot reduction kernels: numba-jitted loops with a pure-numpy fallback.

Backend selection happens once at import time from the environment variable
``DOUBLED_SPECTRAL_BACKEND`` ("numba" or "numpy"; default is numba when it
imports, numpy otherwise).  Every reduction is accumulated over a fixed
chunk decomposition of the node range, compensated-summation style:
chunk partials are computed independently (optionally on a thread pool)
and combined in chunk order with Neumaier summation.  Results are
therefore bit-identical between runs and independent of the thread count.
The two backends agree to ~1 ulp per operation but are not required to be
bit-identical with each other.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an optional extra
    njit = None
    HAVE_NUMBA = False

BACKEND_ENV = "DOUBLED_SPECTRAL_BACKEND"
THREADS_ENV = "DOUBLED_SPECTRAL_THREADS"

# Fixed chunk size; part of the determinism contract, do not make it
# configurable.
CHUNK = 1 << 16


def _select_backend() -> str:
    choice = os.environ.get(BACKEND_ENV, "").strip().lower()
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError(
                "DOUBLED_SPECTRAL_BACKEND=numba but numba is not importable"
            )
        return "numba"
    if choice:
        raise RuntimeError(f"unknown {BACKEND_ENV} value: {choice!r}")
    return "numba" if HAVE_NUMBA else "numpy"


_ACTIVE = _select_backend()


def active_backend() -> str:
    """Name of the backend selected at import time ("numba" or "numpy")."""
    return _ACTIVE


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    n = int(raw)
    if n < 1:
        raise ValueError(f"{THREADS_ENV} must be >= 1, got {n}")
    return n


_THREADS = _default_threads()


def set_threads(n: int) -> None:
    """Set the worker count for chunk evaluation (results are unaffected)."""
    global _THREADS
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    _THREADS = int(n)


def get_threads() -> int:
    return _THREADS


# ----------------------------------------------------------------------
# numpy chunk implementations (vectorized; np.sum is pairwise and
# deterministic for a fixed slice length)

def _np_weighted_chunk(values, w, lo, hi):
    return float(np.sum(values[lo:hi] * w[lo:hi]))


def _np_kinetic_chunk(xi, w, c1, c2, lo, hi):
    z = xi[lo:hi] * xi[lo:hi]
    q1 = z[:, 0] * c1[0] + z[:, 1] * c1[1] + z[:, 2] * c1[2] + z[:, 3] * c1[3]
    q2 = z[:, 0] * c2[0] + z[:, 1] * c2[1] + z[:, 2] * c2[2] + z[:, 3] * c2[3]
    return float(np.sum(w[lo:hi] * (1.0 / (q1 * q1) + 1.0 / (q2 * q2))))


def _np_potential_chunk(xi, w, c1, c2, lo, hi):
    z = xi[lo:hi] * xi[lo:hi]
    q1 = z[:, 0] * c1[0] + z[:, 1] * c1[1] + z[:, 2] * c1[2] + z[:, 3] * c1[3]
    q2 = z[:, 0] * c2[0] + z[:, 1] * c2[1] + z[:, 2] * c2[2] + z[:, 3] * c2[3]
    big = w[lo:hi] / ((q1 * q1) * (q2 * q2))
    out = np.empty(10)
    k = 0
    for a in range(4):
        za = z[:, a] * big
        for b in range(a, 4):
            out[k] = np.sum(za * z[:, b])
            k += 1
    return out


def _np_rational_chunk(xi, w, amat, lo, hi):
    x = xi[lo:hi]
    q = np.einsum("ni,ij,nj->n", x, amat, x)
    good = np.isfinite(q) & (q > 0.0)
    bad = int(x.shape[0] - np.count_nonzero(good))
    if bad:
        return 0.0, bad
    return float(np.sum(w[lo:hi] / q)), 0


# ----------------------------------------------------------------------
# scalar-loop implementations (jitted under the numba backend); each keeps
# a Neumaier accumulator per output so within-chunk order is fixed too

def _loop_weighted_chunk(values, w, lo, hi):
    s = 0.0
    comp = 0.0
    for i in range(lo, hi):
        v = values[i] * w[i]
        t = s + v
        if abs(s) >= abs(v):
            comp += (s - t) + v
        else:
            comp += (v - t) + s
        s = t
    return s + comp


def _loop_kinetic_chunk(xi, w, c1, c2, lo, hi):
    s = 0.0
    comp = 0.0
    for i in range(lo, hi):
        z0 = xi[i, 0] * xi[i, 0]
        z1 = xi[i, 1] * xi[i, 1]
        z2 = xi[i, 2] * xi[i, 2]
        z3 = xi[i, 3] * xi[i, 3]
        q1 = c1[0] * z0 + c1[1] * z1 + c1[2] * z2 + c1[3] * z3
        q2 = c2[0] * z0 + c2[1] * z1 + c2[2] * z2 + c2[3] * z3
        v = w[i] * (1.0 / (q1 * q1) + 1.0 / (q2 * q2))
        t = s + v
        if abs(s) >= abs(v):
            comp += (s - t) + v
        else:
            comp += (v - t) + s
        s = t
    return s + comp


def _loop_potential_chunk(xi, w, c1, c2, lo, hi):
    s = np.zeros(10)
    comp = np.zeros(10)
    z = np.empty(4)
    for i in range(lo, hi):
        z[0] = xi[i, 0] * xi[i, 0]
        z[1] = xi[i, 1] * xi[i, 1]
        z[2] = xi[i, 2] * xi[i, 2]
        z[3] = xi[i, 3] * xi[i, 3]
        q1 = c1[0] * z[0] + c1[1] * z[1] + c1[2] * z[2] + c1[3] * z[3]
        q2 = c2[0] * z[0] + c2[1] * z[1] + c2[2] * z[2] + c2[3] * z[3]
        big = w[i] / ((q1 * q1) * (q2 * q2))
        k = 0
        for a in range(4):
            za = z[a] * big
            for b in range(a, 4):
                v = za * z[b]
                t = s[k] + v
                if abs(s[k]) >= abs(v):
                    comp[k] += (s[k] - t) + v
                else:
                    comp[k] += (v - t) + s[k]
                s[k] = t
                k += 1
    return s + comp


def _loop_rational_chunk(xi, w, amat, lo, hi):
    s = 0.0
    comp = 0.0
    bad = 0
    for i in range(lo, hi):
        x0 = xi[i, 0]
        x1 = xi[i, 1]
        x2 = xi[i, 2]
        x3 = xi[i, 3]
        q = (
            amat[0, 0] * x0 * x0
            + amat[1, 1] * x1 * x1
            + amat[2, 2] * x2 * x2
            + amat[3, 3] * x3 * x3
            + 2.0
            * (
                amat[0, 1] * x0 * x1
                + amat[0, 2] * x0 * x2
                + amat[0, 3] * x0 * x3
                + amat[1, 2] * x1 * x2
                + amat[1, 3] * x1 * x3
                + amat[2, 3] * x2 * x3
            )
        )
        if not (np.isfinite(q) and q > 0.0):
            bad += 1
            continue
        v = w[i] / q
        t = s + v
        if abs(s) >= abs(v):
            comp += (s - t) + v
        else:
            comp += (v - t) + s
        s = t
    return s + comp, bad


_NUMPY_IMPL = {
    "weighted": _np_weighted_chunk,
    "kinetic": _np_kinetic_chunk,
    "potential": _np_potential_chunk,
    "rational": _np_rational_chunk,
}

if HAVE_NUMBA:
    _NUMBA_IMPL = {
        name: njit(cache=True, nogil=True)(fn)
        for name, fn in {
            "weighted": _loop_weighted_chunk,
            "kinetic": _loop_kinetic_chunk,
            "potential": _loop_potential_chunk,
            "rational": _loop_rational_chunk,
        }.items()
    }
else:  # pragma: no cover
    _NUMBA_IMPL = None

_IMPLS = {"numpy": _NUMPY_IMPL, "numba": _NUMBA_IMPL}


def _impl(name, backend):
    table = _IMPLS[backend if backend is not None else _ACTIVE]
    if table is None:  # pragma: no cover
        raise RuntimeError("numba backend requested but numba is unavailable")
    return table[name]


def _chunk_ranges(n):
    return [(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]


def _map_chunks(fn, n):
    """Evaluate fn(lo, hi) for every chunk, preserving chunk order."""
    ranges = _chunk_ranges(n)
    if _THREADS > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=_THREADS) as pool:
            return list(pool.map(lambda r: fn(*r), ranges))
    return [fn(lo, hi) for lo, hi in ranges]


def _neumaier_total(parts):
    s = 0.0
    comp = 0.0
    for v in parts:
        t = s + v
        if abs(s) >= abs(v):
            comp += (s - t) + v
        else:
            comp += (v - t) + s
        s = t
    return s + comp


def _neumaier_total_vec(parts, width):
    out = np.empty(width)
    for k in range(width):
        out[k] = _neumaier_total([p[k] for p in parts])
    return out


# ----------------------------------------------------------------------
# drivers

def weighted_total(values, w, backend=None):
    """Compensated sum of values[i] * w[i] in fixed node order."""
    fn = _impl("weighted", backend)
    parts = _map_chunks(lambda lo, hi: fn(values, w, lo, hi), len(w))
    return _neumaier_total(parts)


def kinetic_sum(xi, w, c1, c2, backend=None):
    """Sum of w * (Q1^-2 + Q2^-2) with Q_i = sum_j c_i[j] * xi_j^2."""
    fn = _impl("kinetic", backend)
    parts = _map_chunks(lambda lo, hi: fn(xi, w, c1, c2, lo, hi), len(w))
    return _neumaier_total(parts)


def potential_moments(xi, w, c1, c2, backend=None):
    """Upper-triangle sums of w * xi_j^2 xi_k^2 / (Q1^2 Q2^2), j <= k.

    Returns a length-10 vector in row-major upper-triangle order.
    """
    fn = _impl("potential", backend)
    parts = _map_chunks(lambda lo, hi: fn(xi, w, c1, c2, lo, hi), len(w))
    return _neumaier_total_vec(parts, 10)


def rational_sum(xi, w, amat, backend=None):
    """Sum of w / (xi^T A xi); raises if the form is not positive there."""
    fn = _impl("rational", backend)
    parts = _map_chunks(lambda lo, hi: fn(xi, w, amat, lo, hi), len(w))
    bad = sum(p[1] for p in parts)
    if bad:
        raise ValueError(
            f"quadratic form nonpositive or non-finite at {bad} quadrature "
            "nodes; the form must be positive definite"
        )
    return _neumaier_total([p[0] for p in parts])
