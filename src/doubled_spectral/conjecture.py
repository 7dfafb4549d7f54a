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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DiagonalMetric
from .s3quad import TWO_PI_SQ, SphereRule, potential_numeric

# Metric entries are drawn log-uniformly from this box.
PARAM_RANGE = (0.5, 2.0)

# Per-axis scale factors for the scaling check.  Narrower than PARAM_RANGE,
# so rescaled metrics stay in the box [0.35, 2.8], where the level-64 rule
# is within 3.1e-9 of carlson.potential_elliptic (worst of 2,000 pairs
# from default_rng(0); the median is 1.2e-15).  Over the first 50,000 trials of each
# perfbench suite seed 1-5 (250,000 in all) the worst violation is that of
# the trial of seed 2831489971 (seed 4, trial index 5,893), 2.04e-10 at
# level 64, 490x below 1e-7.  Next come 1.82e-10 (seed 3, index 34,679)
# and 1.39e-10 and 1.17e-10 (seed 5); no other trial exceeds 1e-10.  The
# tail is rare but not bounded by these: suite seed 26 reaches 1.7e-9 at
# trial index 10,989 (seed 2317020048), a rescaled pair near the box bound.
SCALE_RANGE = (0.7, 1.4)

RNG_ALGORITHM = "numpy.random.Generator(PCG64)"

_FLOOR = 1e-30


@dataclass(frozen=True)
class CheckFailure:
    g1: tuple[float, float, float, float]
    g2: tuple[float, float, float, float]
    transformation: str
    discrepancy: float


@dataclass(frozen=True)
class HypothesisReport:
    trials: int
    seed: int
    level: int
    tol: float
    rng: str
    max_violation: float
    failures: tuple[CheckFailure, ...]

    # not dataclasses.asdict, which is about 15x slower: the suite benchmark
    # converts one report per trial
    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "level": self.level,
            "tol": self.tol,
            "rng": self.rng,
            "max_violation": self.max_violation,
            "failures": [
                {
                    "g1": list(f.g1),
                    "g2": list(f.g2),
                    "transformation": f.transformation,
                    "discrepancy": f.discrepancy,
                }
                for f in self.failures
            ],
        }


def sqrt_det(g: DiagonalMetric) -> float:
    """sqrt(det g) = prod_j a_j for a diagonal metric."""
    return math.prod(g.scales)


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


def _draw_log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


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
    rng = np.random.default_rng(seed)
    failures = []
    max_violation = 0.0
    for _ in range(trials):
        g1 = DiagonalMetric(tuple(_draw_log_uniform(rng, *PARAM_RANGE, 4)))
        g2 = DiagonalMetric(tuple(_draw_log_uniform(rng, *PARAM_RANGE, 4)))
        # plain floats, so the failure label reads the same on every numpy
        lam = _draw_log_uniform(rng, *SCALE_RANGE, 4).tolist()
        perm = tuple(int(i) for i in rng.permutation(4))
        base = v_prime(g1, g2, rule)
        checks = (
            ("scaling" + repr(lam), check_scaling_invariance(g1, g2, lam, rule, base)),
            ("permutation" + repr(list(perm)), check_permutation_invariance(g1, g2, perm, rule, base)),
            ("exchange", check_exchange_identity(g1, g2, rule, base)),
        )
        for label, disc in checks:
            max_violation = max(max_violation, disc)
            if disc > tol:
                failures.append(
                    CheckFailure(
                        g1=g1.scales,
                        g2=g2.scales,
                        transformation=label,
                        discrepancy=disc,
                    )
                )
    return HypothesisReport(
        trials=trials,
        seed=int(seed),
        level=rule.level,
        tol=float(tol),
        rng=RNG_ALGORITHM,
        max_violation=max_violation,
        failures=tuple(failures),
    )
