#!/usr/bin/env python3
"""Benchmark of doubled_spectral: one workload, one seed, one run.

Usage:
    python3 perfbench/run.py --workload {suite,cli} --seed N \
        --seconds T --trace {0,1}

Run from the repository root (or any checkout of it); the package is
imported from ./src, nothing needs installing.  With --trace 0 the run
measures the end-to-end metrics with tracing off; with --trace 1 it runs a
fixed set of operations with the layer tracer and prints the per-layer
metrics.  Every output is checked (see checks.py).  The second-to-last line
of stdout is the machine and run record; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts checked operations whose output failed a check, and
`correct` is true only when none did.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads
from workloads import ROOT, SRC

# name -> unit, in BENCHMARK.json order
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_digits_min", "digits"),
]

SETUP_PROBES = 5
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import doubled_spectral\n"
    f"doubled_spectral.build_rule({workloads.LEVEL})\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_seconds() -> list[float]:
    """Import plus the first level-64 rule build, each in a fresh process."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                              env=workloads.child_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _cpu_record() -> dict:
    """CPU model and cache sizes as the OS reports them (read-only)."""
    rec = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            rec["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return rec


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def run_record(args) -> dict:
    import numpy

    import doubled_spectral as ds

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "level": workloads.LEVEL,
        "machine": _cpu_record(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": ds.active_backend(),
        "threads": ds.get_threads(),
        "version": ds.__version__,
        "git_commit": _git_commit(),
    }


def end_to_end(out: workloads.Outcome, setup: list[float]) -> dict:
    lat = out.latencies
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    return {
        "setup_s": statistics.median(setup),
        "throughput_per_s": out.units / out.elapsed,
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": p90,
        "peak_rss_mb": out.peak_rss_mb,
        "correct_digits_min": min(out.digits),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "doubled_spectral" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {SRC}; run from a checkout of the repository\n")
        return 2
    # the workloads, and every process they start, run at the default
    # thread count
    os.environ.pop(workloads.THREADS_ENV, None)
    sys.path.insert(0, str(SRC))

    seeded = {"suite": workloads.Suite, "cli": workloads.Cli}
    work = seeded[args.workload](args.seed)
    record = run_record(args)

    if args.trace:
        spans, metrics, out = work.trace()
        workloads.WORK.mkdir(exist_ok=True)
        spans_path = workloads.WORK / f"spans-{args.workload}-{args.seed}.json"
        tracing.dump_spans(spans, spans_path)
        record.update(spans=len(spans), spans_path=str(spans_path.relative_to(ROOT)))
        values, names = metrics, tracing.PER_LAYER
    else:
        setup = setup_seconds()
        out = work.run(args.seconds)
        values, names = end_to_end(out, setup), END_TO_END
        record.update(unit=work.unit, units=out.units, samples=len(out.latencies),
                      elapsed_s=out.elapsed, setup_samples=setup)
    record.update(error_rate=out.failed / out.attempted, problems=out.problems)
    result = {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in names}}
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
