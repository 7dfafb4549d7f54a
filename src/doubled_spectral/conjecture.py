"""Randomized invariance harness for the bimetric factorization of the
interaction potential.

The working hypothesis is that V(g1, g2) = 2 pi^2 W(sqrt(g2^-1 g1))
sqrt(det g2) for some function W of the relative eigenvalues alone.  Within
diagonal metrics, "depends only on the eigenvalues" is characterized by two
invariances of the normalized potential V' = V / (2 pi^2 sqrt(det g2)):
joint per-axis rescaling of both metrics, and joint relabeling of the four
axes.  Together with the exchange identity V'(g1,g2) sqrt(det g2) =
V'(g2,g1) sqrt(det g1) these are checked on seeded random pairs; the suite
records violations above a tolerance and is byte-reproducible per seed.

For the exact integral all three checks are theorems: the integrand is
homogeneous of degree -4, so a joint linear change of variables L scales
the sphere integral by |det L|^-1 (docs/derivation.md, section 1).  V' is
evaluated on the S^3 rule, so a violation the suite records is the error
of the rule, not a counterexample to the factorization.  The suite serves
as the rule's self-check.

On the rule, the permutation and exchange checks reuse the base pair's
plane sum (the canonical axis and sheet orders of `potential_numeric` make
them the same sum), so they see only the rounding of sqrt(det g): at most
5.2e-16 and 4.3e-16 on 5,000 pairs from default_rng(0).  The scaling check
sums a second plane and carries the rule's error.

The draws are those of numpy's ``default_rng(seed)``, that is
``Generator(PCG64)`` seeded by ``SeedSequence``, reproduced bit for bit in
pure Python by `_PCG64Stream`, so the suite loads numpy but not
numpy.random.  The drawn logs are exponentiated by ``np.exp``, not
``math.exp``: the two differ on 4.6% of such logs (numpy 2.4 on x86-64),
and the pinned reports hold numpy's values.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

import numpy as np

from .geometry import TWO_PI_SQ, DiagonalMetric, sqrt_det
from .s3quad import SphereRule, potential_numeric

# Metric entries are drawn log-uniformly from this box.
PARAM_RANGE = (0.5, 2.0)

# Per-axis scale factors for the scaling check.  Narrower than PARAM_RANGE,
# so rescaled metrics stay in the box [0.35, 2.8], where the level-64 rule
# is within 3.1e-9 of carlson.potential_elliptic (worst of 2,000 pairs
# from default_rng(0); the median is 2.5e-16).  Over the first 50,000 trials of each
# perfbench suite seed 1-5 (250,000 in all) the worst violation is that of
# the trial of seed 2831489971 (seed 4, trial index 5,893), 2.04e-10 at
# level 64, 490x below 1e-7.  Next come 1.82e-10 (seed 3, index 34,679)
# and 1.39e-10 and 1.17e-10 (seed 5); no other trial exceeds 1e-10.  The
# tail is rare but not bounded by these: suite seed 26 reaches 1.7e-9 at
# trial index 10,989 (seed 2317020048), a rescaled pair near the box bound.
# The ranking was made when the rule's nodes came from an eigensolve.  On
# the Newton-built rule the worst pair and the trials of seeds
# 2831489971, 3367618124 (seed 3, index 34,679) and 2317020048 keep the
# figures quoted; only the median moved, from 1.2e-15.
SCALE_RANGE = (0.7, 1.4)

RNG_ALGORITHM = "numpy.random.Generator(PCG64)"

_FLOOR = 1e-30


class CheckFailure(namedtuple("CheckFailure", "g1 g2 transformation discrepancy")):
    """One check of one trial above the tolerance: the pair's scales, the
    transformation's label and its relative discrepancy."""

    __slots__ = ()


class HypothesisReport(
    namedtuple("HypothesisReport", "trials seed level tol rng max_violation failures")
):
    """Outcome of run_hypothesis_suite; failures is a tuple of CheckFailure."""

    __slots__ = ()

    def to_dict(self) -> dict:
        failures = [dict(f._asdict(), g1=list(f.g1), g2=list(f.g2)) for f in self.failures]
        return dict(self._asdict(), failures=failures)


def v_prime(g1: DiagonalMetric, g2: DiagonalMetric, rule: SphereRule) -> float:
    """Normalized potential V(g1, g2) / (2 pi^2 sqrt(det g2))."""
    return potential_numeric(g1, g2, rule) / (TWO_PI_SQ * sqrt_det(g2))


def _rel(delta: float, reference: float) -> float:
    return abs(delta) / max(abs(reference), _FLOOR)


def check_scaling_invariance(
    g1: DiagonalMetric,
    g2: DiagonalMetric,
    scales,
    rule: SphereRule,
    base: float | None = None,
) -> float:
    """Relative change of V' under the joint per-axis rescaling
    a_{i,j} -> scales[j] * a_{i,j}, which leaves the relative eigenvalues
    untouched.  `base` may carry a precomputed V'(g1, g2)."""
    lam = tuple(float(s) for s in scales)
    if len(lam) != 4 or any(not (v > 0.0) for v in lam):
        raise ValueError(f"need 4 positive scale factors, got {scales}")
    if base is None:
        base = v_prime(g1, g2, rule)
    g1s = DiagonalMetric(tuple(l * a for l, a in zip(lam, g1.scales)))
    g2s = DiagonalMetric(tuple(l * a for l, a in zip(lam, g2.scales)))
    return _rel(v_prime(g1s, g2s, rule) - base, base)


def check_permutation_invariance(
    g1: DiagonalMetric,
    g2: DiagonalMetric,
    perm,
    rule: SphereRule,
    base: float | None = None,
) -> float:
    """Relative change of V' under a joint relabeling of the four axes."""
    p = tuple(int(i) for i in perm)
    if sorted(p) != [0, 1, 2, 3]:
        raise ValueError(f"not a permutation of 0..3: {perm}")
    if base is None:
        base = v_prime(g1, g2, rule)
    g1p = DiagonalMetric(tuple(g1.scales[i] for i in p))
    g2p = DiagonalMetric(tuple(g2.scales[i] for i in p))
    return _rel(v_prime(g1p, g2p, rule) - base, base)


def check_exchange_identity(
    g1: DiagonalMetric,
    g2: DiagonalMetric,
    rule: SphereRule,
    base: float | None = None,
) -> float:
    """Relative violation of V'(g1,g2) sqrt(det g2) = V'(g2,g1) sqrt(det g1)."""
    if base is None:
        base = v_prime(g1, g2, rule)
    lhs = base * sqrt_det(g2)
    rhs = v_prime(g2, g1, rule) * sqrt_det(g1)
    return _rel(lhs - rhs, lhs)


# SeedSequence (NEP 19) and PCG64 XSL-RR 128/64 (O'Neill, HMC-CS-2014-0905)
# constants, as numpy uses them.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return r ^ (r >> 16)


class _PCG64Stream:
    """The stream of numpy's ``default_rng(seed)``, that is
    ``Generator(PCG64(SeedSequence(seed)))``, bit for bit for the two calls
    the suite makes: ``uniform(lo, hi, size)`` and ``permutation(n)``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        words = [seed & _MASK32]
        while seed >> 32:
            seed >>= 32
            words.append(seed & _MASK32)
        # SeedSequence hashes each word with a running constant h that every
        # hash advances by a multiplier, as NEP 19 does: one walk for the
        # pool build, one from other constants for the state words
        h, mult = 0x43B0D7E5, 0x931E8875

        def hashmix(v: int) -> int:
            nonlocal h
            v = (v ^ h) * (h := h * mult & _MASK32) & _MASK32
            return v ^ (v >> 16)

        pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for w in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(w))
        h, mult = 0x8B51F9DD, 0x58F38DED
        state_words = [hashmix(pool[i % 4]) for i in range(8)]
        u64 = [state_words[k] | state_words[k + 1] << 32 for k in range(0, 8, 2)]
        # PCG64 seeding: inc from initseq, then step, add initstate, step
        inc = self._inc = (u64[2] << 65 | u64[3] << 1 | 1) & _MASK128
        self._state = ((inc + (u64[0] << 64 | u64[1])) * _PCG_MULT + inc) & _MASK128
        self._half = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def uniform(self, lo: float, hi: float, size: int) -> list:
        span = hi - lo
        return [lo + span * ((self._next64() >> 11) * 2.0**-53) for _ in range(size)]

    def permutation(self, n: int) -> list:
        """Fisher-Yates from the top, each index drawn by masked rejection
        on the 32-bit stream."""
        p = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            p[i], p[j] = p[j], p[i]
        return p


def _draw_log_uniform(rng, lo, hi, size):
    # plain floats, so a failure label reads the same on every numpy
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size)).tolist()


def check_suite_args(trials: int, seed: int, tol: float) -> None:
    """Raise ValueError unless trials >= 1, seed >= 0 (the generator takes
    no negative seed) and tol is finite and >= 0 (an infinite tol would pass
    every violation)."""
    if int(trials) < 1:
        raise ValueError(f"trials must be >= 1, got {int(trials)}")
    if int(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {int(seed)}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def run_hypothesis_suite(
    trials: int, seed: int, rule: SphereRule, tol: float
) -> HypothesisReport:
    """Run all three checks on `trials` seeded random diagonal pairs.

    Per trial the draw order is fixed (g1, g2, scale vector, permutation),
    so the report is a pure function of (trials, seed, rule, tol).
    """
    trials = int(trials)
    check_suite_args(trials, seed, tol)
    rng = _PCG64Stream(seed)
    failures = []
    max_violation = 0.0
    for _ in range(trials):
        g1 = DiagonalMetric(tuple(_draw_log_uniform(rng, *PARAM_RANGE, 4)))
        g2 = DiagonalMetric(tuple(_draw_log_uniform(rng, *PARAM_RANGE, 4)))
        lam = _draw_log_uniform(rng, *SCALE_RANGE, 4)
        perm = tuple(rng.permutation(4))
        base = v_prime(g1, g2, rule)
        checks = (
            ("scaling" + repr(lam), check_scaling_invariance(g1, g2, lam, rule, base)),
            ("permutation" + repr(list(perm)), check_permutation_invariance(g1, g2, perm, rule, base)),
            ("exchange", check_exchange_identity(g1, g2, rule, base)),
        )
        for label, disc in checks:
            max_violation = max(max_violation, disc)
            if disc > tol:
                failures.append(CheckFailure(g1.scales, g2.scales, label, disc))
    return HypothesisReport(
        trials=trials,
        seed=int(seed),
        level=rule.level,
        tol=float(tol),
        rng=RNG_ALGORITHM,
        max_violation=max_violation,
        failures=tuple(failures),
    )
