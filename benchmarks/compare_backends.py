#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy fallback.

Times the three hot reductions (interaction-potential moment matrix,
kinetic term, rational integral) on the same rule with both backends and
prints per-call medians plus the speedup.  Each kernel runs on the node set
its evaluator uses: the potential and kinetic kernels on the rule's folded
set, the rational kernel on the full product set.  Also reports the worst
relative deviation between the backends, which should sit at the rounding
floor.

Usage: python benchmarks/compare_backends.py [--level N] [--repeats K]
"""

import argparse
import statistics
import time

import numpy as np

from doubled_spectral import _kernels, build_rule


def time_call(fn, repeats):
    times = []
    fn()  # warmup / jit compile
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--level", type=int, default=48)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    if not _kernels.HAVE_NUMBA:
        raise SystemExit("numba is not importable; nothing to compare")

    rule = build_rule(args.level)
    fxi, fw = rule.folded_xi, rule.folded_weights
    xi, w = rule.xi, rule.weights
    rng = np.random.default_rng(0)
    c1 = 1.0 / np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4)) ** 2
    c2 = 1.0 / np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4)) ** 2
    raw = rng.standard_normal((4, 4))
    amat = np.eye(4) + 0.05 * (raw + raw.T)

    cases = {
        "potential_moments": lambda b: _kernels.potential_moments(
            fxi, fw, c1, c2, backend=b
        ),
        "kinetic_sum": lambda b: _kernels.kinetic_sum(fxi, fw, c1, c2, backend=b),
        "rational_sum": lambda b: _kernels.rational_sum(xi, w, amat, backend=b),
    }

    print(f"level {args.level}: {len(fw)} folded nodes (potential, kinetic), "
          f"{len(w)} full nodes (rational), median of {args.repeats} calls")
    print(f"{'kernel':<20} {'numba':>10} {'numpy':>10} {'speedup':>8} {'max rel dev':>12}")
    for name, call in cases.items():
        t_nb = time_call(lambda: call("numba"), args.repeats)
        t_np = time_call(lambda: call("numpy"), args.repeats)
        a = np.atleast_1d(call("numba"))
        b = np.atleast_1d(call("numpy"))
        dev = float(np.max(np.abs(a - b) / np.abs(a)))
        print(f"{name:<20} {t_nb * 1e3:>8.1f}ms {t_np * 1e3:>8.1f}ms "
              f"{t_np / t_nb:>7.2f}x {dev:>12.2e}")


if __name__ == "__main__":
    main()
