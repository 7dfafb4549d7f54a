"""The benchmark's workloads: seeded inputs, the timed operations and
their checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Inputs are a pure function of the seed;
the program only ever sees the generated values.

* suite  -- in process, one `run_hypothesis_suite` trial per operation on
  general diagonal pairs in the [0.5, 2] box, level 64, tol 1e-7 (the
  acceptance configuration).  The rule is built once, so the time is the
  node kernel; matchings, hopf, _emit and cli are bypassed.
* cli    -- one `python -m doubled_spectral` process per request over a fixed
  100-request mix of all six subcommands at the default level, shuffled by
  the seed.  Every request pays interpreter start, import and usually a fresh
  level-64 rule, which `suite` amortises.
"""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "out"
LAUNCHER = HERE / "launch.py"

LEVEL = 64
TOL = 1e-7
BOX = (0.5, 2.0)
THREADS_ENV = "DOUBLED_SPECTRAL_THREADS"

# spectral radius range of the perturbations in `series` requests
RHO_RANGE = (0.01, 0.5)

# The cli mix, per round of 100 requests.  Shares: 10 of the 56 Hopf
# `potential` requests sit on the singular surface a2 b1 = a1 b2; 12 of 100
# requests have one metric with a scale ratio of 10, 30 or 100; 16 of 100 pay
# a cold census(7), so the 90th percentile falls among them, not at their
# edge.  Orders and m stop at 7: a cold census(8) alone takes tens of seconds.
# Every operation of a run must pass its check, so only the 10:1 requests ask
# for the level-64 quadrature (`both`, about 5e-10 relative off); beyond that
# ratio the rule is known to be inaccurate (5e-3 at 30:1, 0.47 at 100:1), and
# the 30:1 and 100:1 requests ask for the closed form.
BOTH_WIDE_RATIO = 10.0
CLOSED_WIDE_RATIOS = (30.0, 100.0)
CLI_MIX = (
    ("closed", 20),
    ("conjecture", 3),
    ("closed_tube", 6),
    ("both", 8),
    ("both_tube", 4),
    ("both_wide", 4),
    ("closed_wide", 8),
    ("numeric", 6),
    ("action", 6),
    ("hypothesis", 4),
    ("sweep", 4),
    ("moments", 6),      # m = 1..6
    ("moments_7", 12),
    ("series", 5),       # orders 2..6
    ("series_7", 4),
)
CLI_ROUND = sum(n for _, n in CLI_MIX)
SWEEP_STEPS = 3

# fixed operation counts of a traced run
TRACE_SUITE_TRIALS = 16
TRACE_CLI_PAIR_EVERY = 4


# ----------------------------------------------------------------------
# inputs

def _log_uniform(rng: random.Random, lo: float = BOX[0], hi: float = BOX[1]) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _perturbation(rng: random.Random, rho: float) -> dict:
    """Symmetric traceless 4x4 eps with spectral radius rho."""
    import numpy as np

    raw = np.array([[rng.gauss(0.0, 1.0) for _ in range(4)] for _ in range(4)])
    sym = 0.5 * (raw + raw.T)
    sym -= np.eye(4) * (np.trace(sym) / 4.0)
    sym *= rho / float(np.abs(np.linalg.eigvalsh(sym)).max())
    return {"omega": _log_uniform(rng), "eps": sym.tolist(), "rho": rho}


def suite_inputs(seed: int):
    """Per-trial seeds for run_hypothesis_suite."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**32)


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _hopf_args(a1, b1, a2, b2, method) -> dict:
    return {
        "argv": ["potential", "--g1", _fmt((b1, b1, a1, a1)),
                 "--g2", _fmt((b2, b2, a2, a2)), "--method", method],
        "method": method,
        "hopf": (a1, b1, a2, b2),
    }


def _cli_request(kind: str, rng: random.Random, index: int) -> dict:
    if kind in ("closed", "conjecture", "both"):
        req = _hopf_args(*(_log_uniform(rng) for _ in range(4)), kind)
    elif kind in ("closed_tube", "both_tube"):
        a1, a2, b2 = (_log_uniform(rng) for _ in range(3))
        req = _hopf_args(a1, b2 * a1 / a2, a2, b2, kind.split("_")[0])
    elif kind in ("both_wide", "closed_wide"):
        if kind == "both_wide":
            ratio = BOTH_WIDE_RATIO
        else:
            ratio = CLOSED_WIDE_RATIOS[index % len(CLOSED_WIDE_RATIOS)]
        a, other = _log_uniform(rng), (_log_uniform(rng), _log_uniform(rng))
        wide = (a, a * ratio) if rng.random() < 0.5 else (a * ratio, a)
        pair = (wide, other) if rng.random() < 0.5 else (other, wide)
        req = _hopf_args(pair[0][0], pair[0][1], pair[1][0], pair[1][1],
                         kind.split("_")[0])
    elif kind == "numeric":
        g1 = [_log_uniform(rng) for _ in range(4)]
        g2 = [_log_uniform(rng) for _ in range(4)]
        req = {"argv": ["potential", "--g1", _fmt(g1), "--g2", _fmt(g2),
                        "--method", "numeric"], "method": "numeric"}
    elif kind == "action":
        g1 = [_log_uniform(rng) for _ in range(4)]
        g2 = [_log_uniform(rng) for _ in range(4)]
        req = {"argv": ["action", "--g1", _fmt(g1), "--g2", _fmt(g2),
                        "--phi", repr(rng.uniform(0.0, 1.0)),
                        "--kappa", rng.choice(("1", "-1")),
                        "--lambda", repr(_log_uniform(rng)),
                        "--c", repr(_log_uniform(rng))]}
    elif kind == "hypothesis":
        req = {"argv": ["hypothesis", "--trials", "1",
                        "--seed", str(rng.randrange(2**31))]}
    elif kind == "sweep":
        b2, a2, a1 = (_log_uniform(rng) for _ in range(3))
        lo, hi = sorted((_log_uniform(rng), _log_uniform(rng)))
        req = {"argv": ["sweep", "--g2", _fmt((b2, b2, a2, a2)),
                        "--base", _fmt((1.0, 1.0, a1, a1)),
                        "--sweep", f"b:{lo!r}:{hi!r}:{SWEEP_STEPS}"],
               "steps": SWEEP_STEPS}
    elif kind.startswith("moments"):
        m = 7 if kind == "moments_7" else 1 + index % 6
        req = {"argv": ["moments", "--m", str(m)], "m": m}
    elif kind.startswith("series"):
        order = 7 if kind == "series_7" else 2 + index % 5
        form = _perturbation(rng, _log_uniform(rng, *RHO_RANGE))
        eps = form["eps"]
        upper = [eps[i][j] for i in range(4) for j in range(i, 4)]
        form["order"] = order
        # `--eps=` form: a value starting with "-" would read as an option
        req = {"argv": ["series", "--omega", repr(form["omega"]), f"--eps={_fmt(upper)}",
                        "--order", str(order)], "form": form}
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    req["kind"] = kind
    return req


def cli_inputs(seed: int):
    """Requests in rounds of CLI_ROUND, each round the full mix, shuffled."""
    rng = random.Random(seed)
    while True:
        kinds = [kind for kind, n in CLI_MIX for _ in range(n)]
        rng.shuffle(kinds)
        seen: dict[str, int] = {}
        for kind in kinds:
            index = seen.get(kind, 0)
            seen[kind] = index + 1
            yield _cli_request(kind, rng, index)


# ----------------------------------------------------------------------
# outcome of a run

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    units: int = 0
    elapsed: float = 0.0
    latencies: list = field(default_factory=list)
    digits: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def record(self, problems: list, label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 8:
                self.problems.append(f"{label}: {problems[0]}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    """Environment for the program's processes: the checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ----------------------------------------------------------------------
# suite workload

class Suite:
    """Hypothesis trials in this process on one level-64 rule."""

    unit = "hypothesis trial"

    def __init__(self, seed: int):
        from doubled_spectral import conjecture, s3quad

        self.conjecture = conjecture
        self.s3quad = s3quad
        self.inputs = suite_inputs(seed)
        self.rule = None

    def setup(self) -> None:
        self.rule = self.s3quad.build_rule(LEVEL)

    def run_op(self, trial_seed: int, out: Outcome) -> None:
        t0 = time.monotonic()
        report = self.conjecture.run_hypothesis_suite(
            trials=1, seed=trial_seed, rule=self.rule, tol=TOL)
        out.latencies.append(time.monotonic() - t0)
        problems, dig = checks.check_hypothesis(report.to_dict())
        out.record(problems, f"trial seed {trial_seed}")
        out.digits.append(dig)
        out.units += 1

    def run(self, seconds: float) -> Outcome:
        """Trials back to back until `seconds` have passed (whole trials
        only); the rule is built before the clock starts."""
        self.setup()
        out = Outcome()
        start = time.monotonic()
        while True:
            self.run_op(next(self.inputs), out)
            if time.monotonic() - start >= seconds:
                break
        out.elapsed = time.monotonic() - start
        out.peak_rss_mb = self_peak_rss_mb()
        return out

    def trace(self) -> tuple[list, dict, Outcome]:
        """TRACE_SUITE_TRIALS trials, each once traced and once untraced in
        alternating order; per-layer metrics and checks come from the
        traced copies.  The first rule build is traced too."""
        tracer = tracing.Tracer()
        out = Outcome()
        tracer.install()
        self.setup()
        tracer.uninstall()
        traced_s, diffs = [], []
        for i in range(TRACE_SUITE_TRIALS):
            trial_seed = next(self.inputs)
            times = {}
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                if traced:
                    tracer.install()
                t0 = time.monotonic()
                self.run_op(trial_seed, out if traced else Outcome())
                times[traced] = time.monotonic() - t0
                if traced:
                    tracer.uninstall()
            traced_s.append(times[True])
            diffs.append(times[True] - times[False])
        metrics = tracing.layer_metrics(
            tracer.spans, op_s=sum(traced_s), overhead_s=statistics.fmean(diffs))
        return tracer.spans, metrics, out


# ----------------------------------------------------------------------
# cli workload

class Cli:
    unit = "cli request"

    def __init__(self, seed: int):
        self.inputs = cli_inputs(seed)
        self.env = child_env()
        WORK.mkdir(exist_ok=True)
        self.stderr_path = WORK / "stderr.txt"

    def spawn(self, argv: list, spans_path=None, request: int = 0):
        """Run one request; returns (exit code, stdout, stderr, seconds from
        spawn to exit, spawn time, peak RSS in MB)."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "doubled_spectral", *argv]
        else:
            cmd = [sys.executable, str(LAUNCHER), str(spans_path), str(request), *argv]
        with open(self.stderr_path, "w+b") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        return (proc.returncode, stdout.decode("utf-8", "replace"),
                stderr.decode("utf-8", "replace"), t1 - t0, t0, usage.ru_maxrss / 1024.0)

    @staticmethod
    def check(req: dict, code: int, stdout: str, stderr: str):
        """Problems and correct-digit values for one request's output."""
        kind = req["kind"]
        if code != 0:
            return [f"exit {code}: {stderr.strip()[:200]}"], []
        if kind == "sweep":
            return checks.check_sweep(stdout, req["steps"]), []
        rec = checks.parse_json(stdout)
        if rec is None:
            return [f"output is not a JSON object: {stdout[:200]!r}"], []
        if kind.startswith("moments"):
            return checks.check_moments(req["m"], rec), []
        if kind.startswith("series"):
            return checks.check_series(req["form"], rec)[0], []
        if kind == "hypothesis":
            return checks.check_hypothesis(rec)[0], []
        if kind == "action":
            return checks.check_action(rec), []
        return checks.check_potential(req, rec)

    def run(self, seconds: float) -> Outcome:
        """Whole rounds of the mix until `seconds` have passed."""
        out = Outcome()
        start = time.monotonic()
        while True:
            req = next(self.inputs)
            code, stdout, stderr, latency, _, rss = self.spawn(req["argv"])
            problems, dig = self.check(req, code, stdout, stderr)
            out.record(problems, " ".join(req["argv"]))
            out.digits.extend(dig)
            out.latencies.append(latency)
            out.peak_rss_mb = max(out.peak_rss_mb, rss)
            out.units += 1
            if out.units % CLI_ROUND == 0 and time.monotonic() - start >= seconds:
                break
        out.elapsed = time.monotonic() - start
        self.stderr_path.unlink(missing_ok=True)
        return out

    def trace(self) -> tuple[list, dict, Outcome]:
        """One round, every request through the tracing launcher; every
        TRACE_CLI_PAIR_EVERY-th request also runs untraced, in alternating
        order, for the overhead."""
        out = Outcome()
        groups, diffs, latencies = [], [], []
        startup = 0.0
        spans_path = WORK / "request-spans.json"
        for i in range(CLI_ROUND):
            req = next(self.inputs)
            paired = i % TRACE_CLI_PAIR_EVERY == 0
            untraced_first = paired and (i // TRACE_CLI_PAIR_EVERY) % 2 == 1
            if untraced_first:
                plain = self.spawn(req["argv"])[3]
            code, stdout, stderr, latency, t_spawn, _ = self.spawn(
                req["argv"], spans_path, i)
            out.record(self.check(req, code, stdout, stderr)[0], " ".join(req["argv"]))
            if not spans_path.exists():
                raise RuntimeError(f"traced request wrote no spans: {stderr.strip()[:300]}")
            spans = tracing.load_spans(spans_path)
            spans_path.unlink()
            main = [s for s in spans if s.name == "cli.main" and s.parent < 0]
            if main:
                startup += main[0].start - t_spawn
            groups.append(spans)
            latencies.append(latency)
            if paired and not untraced_first:
                plain = self.spawn(req["argv"])[3]
            if paired:
                diffs.append(latency - plain)
        self.stderr_path.unlink(missing_ok=True)
        spans = tracing.merge(groups)
        metrics = tracing.layer_metrics(
            spans, op_s=sum(latencies),
            overhead_s=statistics.fmean(diffs), startup_s=startup)
        return spans, metrics, out
