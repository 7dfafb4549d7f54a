"""Hot reduction kernels: vectorized numpy sums over the quadrature nodes.

Every reduction is accumulated over a fixed chunk decomposition of the node
range, compensated-summation style: chunk partials are computed
independently and combined in chunk order with Neumaier summation.
Results are therefore bit-identical between runs.
"""

from __future__ import annotations

import numpy as np

# Fixed chunk size; part of the determinism contract, do not make it
# configurable.
CHUNK = 1 << 16


def active_backend() -> str:
    """Name of the node-kernel implementation: always "numpy".

    Kept for callers that record it, such as the benchmark's run record.
    """
    return "numpy"


def get_threads() -> int:
    """Worker count for chunk evaluation: always 1.

    Chunks run serially in the calling thread.  Kept for callers that
    record the worker count, such as the benchmark's run record.
    """
    return 1


# ----------------------------------------------------------------------
# chunk kernels (vectorized; np.sum is pairwise and deterministic for a
# fixed slice length)

def _np_weighted_chunk(values, w, lo, hi):
    return float(np.sum(values[lo:hi] * w[lo:hi]))


def _form(z, c):
    # sum_j c[j] z_j as its 4 explicit terms in a fixed order
    return z[:, 0] * c[0] + z[:, 1] * c[1] + z[:, 2] * c[2] + z[:, 3] * c[3]


def _np_kinetic_chunk(xi, w, c1, c2, lo, hi):
    z = xi[lo:hi] * xi[lo:hi]
    q1 = _form(z, c1)
    q2 = _form(z, c2)
    return float(np.sum(w[lo:hi] * (1.0 / (q1 * q1) + 1.0 / (q2 * q2))))


def _np_potential_chunk(xi, w, c1, c2, lo, hi):
    z = xi[lo:hi] * xi[lo:hi]
    q1 = _form(z, c1)
    q2 = _form(z, c2)
    big = w[lo:hi] / ((q1 * q1) * (q2 * q2))
    out = np.empty(10)
    k = 0
    for a in range(4):
        za = z[:, a] * big
        for b in range(a, 4):
            out[k] = np.sum(za * z[:, b])
            k += 1
    return out


def _np_rational_chunk(xi, w, c, lo, hi):
    q = _form(xi[lo:hi] * xi[lo:hi], c)
    good = np.isfinite(q) & (q > 0.0)
    bad = int(q.size - np.count_nonzero(good))
    if bad:
        return 0.0, bad
    return float(np.sum(w[lo:hi] / q)), 0


def _chunk_parts(fn, n, *args):
    """Evaluate fn(*args, lo, hi) for every chunk of range(n), in order."""
    return [fn(*args, lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]


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

def weighted_total(values, w):
    """Compensated sum of values[i] * w[i] in fixed node order."""
    parts = _chunk_parts(_np_weighted_chunk, len(w), values, w)
    return _neumaier_total(parts)


def kinetic_sum(xi, w, c1, c2):
    """Sum of w * (Q1^-2 + Q2^-2) with Q_i = sum_j c_i[j] * xi_j^2."""
    parts = _chunk_parts(_np_kinetic_chunk, len(w), xi, w, c1, c2)
    return _neumaier_total(parts)


def potential_moments(xi, w, c1, c2):
    """Upper-triangle sums of w * xi_j^2 xi_k^2 / (Q1^2 Q2^2), j <= k.

    Returns a length-10 vector in row-major upper-triangle order.
    """
    parts = _chunk_parts(_np_potential_chunk, len(w), xi, w, c1, c2)
    return _neumaier_total_vec(parts, 10)


def rational_sum(xi, w, c):
    """Sum of w / Q with Q = sum_j c[j] * xi_j^2; raises if Q is not
    positive at a node."""
    parts = _chunk_parts(_np_rational_chunk, len(w), xi, w, c)
    bad = sum(p[1] for p in parts)
    if bad:
        raise ValueError(
            f"quadratic form nonpositive or non-finite at {bad} quadrature "
            "nodes; the form must be positive definite"
        )
    return _neumaier_total([p[0] for p in parts])
