"""Layer tracer: spans around the package's public functions, recorded from
the benchmark's own files.

Callers inside the package bind names at import (`from .s3quad import
build_rule`), so a function is wrapped wherever a loaded package module
holds it: the wrapper replaces every module attribute that is the original
function object.  `_emit.to_json` is recursive, so its own module keeps the
original and only its callers see the wrapper.

A span is (name, start, end, parent, request); spans stay in memory and are
written out at the end of a run.  Times come from time.monotonic(), which is
system-wide on Linux, so spans of a CLI subprocess line up with the spawn
time recorded by the benchmark.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field

PACKAGE = "doubled_spectral"

# (module, function, wrap inside the defining module too)
TARGETS = [
    ("s3quad", "build_rule", True),
    ("s3quad", "potential_numeric", True),
    ("s3quad", "kinetic_term", True),
    ("s3quad", "rational_integral", True),
    ("_kernels", "potential_moments", True),
    ("_kernels", "kinetic_sum", True),
    ("_kernels", "rational_sum", True),
    ("hopf", "potential_closed", True),
    ("hopf", "potential_via_conjecture", True),
    ("matchings", "pattern_census", True),
    ("matchings", "compare_series", True),
    ("matchings", "series_exact", True),
    ("conjecture", "run_hypothesis_suite", True),
    ("conjecture", "v_prime", True),
    ("cli", "main", True),
    ("_emit", "to_json", False),
    ("_emit", "to_csv", False),
]

KERNELS = ("potential_moments", "kinetic_sum", "rational_sum")


def metric_prefix(module: str, func: str) -> str:
    """Metric names start with a letter, so `_kernels` reads `kernels`."""
    return f"{module.lstrip('_')}.{func}"


# Per-layer metric names and units, in BENCHMARK.json order.
PER_LAYER = [
    ("s3quad.build_rule.calls", "count"),
    ("s3quad.build_rule.s", "s"),
    ("s3quad.build_rule.nodes", "count"),
    ("s3quad.potential_numeric.calls", "count"),
    ("s3quad.potential_numeric.s", "s"),
    ("s3quad.potential_numeric.self_s", "s"),
    ("s3quad.kinetic_term.calls", "count"),
    ("s3quad.kinetic_term.s", "s"),
    ("s3quad.rational_integral.calls", "count"),
    ("s3quad.rational_integral.s", "s"),
    ("kernels.potential_moments.calls", "count"),
    ("kernels.potential_moments.s", "s"),
    ("kernels.potential_moments.nodes", "count"),
    ("kernels.potential_moments.bytes_computed", "B"),
    ("kernels.potential_moments.nodes_per_s", "1/s"),
    ("kernels.kinetic_sum.calls", "count"),
    ("kernels.kinetic_sum.s", "s"),
    ("kernels.kinetic_sum.nodes", "count"),
    ("kernels.rational_sum.calls", "count"),
    ("kernels.rational_sum.s", "s"),
    ("kernels.rational_sum.nodes", "count"),
    ("hopf.potential_closed.calls", "count"),
    ("hopf.potential_closed.s", "s"),
    ("hopf.potential_closed.fallback_calls", "count"),
    ("hopf.potential_closed.fallback_ratio", "ratio"),
    ("hopf.potential_via_conjecture.calls", "count"),
    ("hopf.potential_via_conjecture.s", "s"),
    ("matchings.pattern_census.calls", "count"),
    ("matchings.pattern_census.misses", "count"),
    ("matchings.pattern_census.s", "s"),
    ("matchings.compare_series.calls", "count"),
    ("matchings.compare_series.s", "s"),
    ("matchings.compare_series.self_s", "s"),
    ("matchings.series_exact.calls", "count"),
    ("matchings.series_exact.s", "s"),
    ("conjecture.run_hypothesis_suite.s", "s"),
    ("conjecture.v_prime.calls", "count"),
    ("conjecture.v_prime.s", "s"),
    ("conjecture.evals_per_trial", "count"),
    ("cli.startup_s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("emit.to_json.calls", "count"),
    ("emit.to_json.s", "s"),
    ("emit.to_csv.calls", "count"),
    ("emit.to_csv.s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int
    info: dict = field(default_factory=dict)


def _array_bytes(args) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in args)


class Tracer:
    """Collects spans for the package functions in TARGETS while installed."""

    def __init__(self, request: int = 0):
        self.request = request
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for module, func, in_home in TARGETS:
            home = modules.get(f"{PACKAGE}.{module}")
            if home is None:
                continue
            original = getattr(home, func)
            wrapper = self._wrap(module, func, original)
            for mod in modules.values():
                if mod is home and not in_home:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, module: str, func: str, fn):
        name = metric_prefix(module, func)
        spans = self.spans
        stack = self._stack
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, time.monotonic(), 0.0,
                        stack[-1] if stack else -1, self.request)
            spans.append(span)
            stack.append(idx)
            misses = cache_info().misses if cache_info is not None else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.monotonic()
                stack.pop()
            if func in KERNELS:
                span.info["nodes"] = len(args[1])
                span.info["bytes"] = _array_bytes(args)
            elif func == "build_rule":
                span.info["nodes"] = result.node_count
            elif func == "pattern_census":
                span.info["miss"] = (
                    cache_info().misses > misses if cache_info is not None else True
                )
            elif func == "run_hypothesis_suite":
                span.info["trials"] = int(kwargs.get("trials", args[0] if args else 0))
            return result

        return traced


def dump_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(s) for s in spans], fh)


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**d) for d in json.load(fh)]


def merge(groups) -> list[Span]:
    """Concatenate span lists, shifting parent indices."""
    out: list[Span] = []
    for group in groups:
        base = len(out)
        for s in group:
            out.append(Span(s.name, s.start, s.end,
                            s.parent + base if s.parent >= 0 else -1,
                            s.request, s.info))
    return out


def layer_metrics(spans: list[Span], op_s: float, overhead_s: float,
                  startup_s: float = 0.0) -> dict[str, float]:
    """Per-layer metrics over a traced run's fixed set of operations.
    `.calls`, `.s` and `.self_s` are totals; `.nodes` and `.bytes_computed`
    are per call, computed from array sizes (not measured traffic).
    `trace.op_s` is the traced operations' wall time and `trace.overhead_s`
    the mean traced-minus-untraced time of one operation."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start

    def has_ancestor(i: int, name: str) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    m: dict[str, float] = {}
    for module, func, _ in TARGETS:
        name = metric_prefix(module, func)
        idx = by_name.get(name, [])
        m[f"{name}.calls"] = len(idx)
        m[f"{name}.s"] = sum(spans[i].end - spans[i].start for i in idx)
        m[f"{name}.self_s"] = sum(spans[i].end - spans[i].start - child_s[i] for i in idx)
        for key in ("nodes", "bytes"):
            vals = [spans[i].info[key] for i in idx if key in spans[i].info]
            m[f"{name}.{key}"] = sum(vals) / len(vals) if vals else 0

    pm = "kernels.potential_moments"
    m[f"{pm}.bytes_computed"] = m[f"{pm}.bytes"]
    m[f"{pm}.nodes_per_s"] = (
        m[f"{pm}.nodes"] * m[f"{pm}.calls"] / m[f"{pm}.s"] if m[f"{pm}.s"] > 0 else 0.0
    )
    closed = by_name.get("hopf.potential_closed", [])
    fallback = {
        p for i in by_name.get("s3quad.potential_numeric", [])
        for p in [spans[i].parent] if p >= 0 and spans[p].name == "hopf.potential_closed"
    }
    m["hopf.potential_closed.fallback_calls"] = len(fallback)
    m["hopf.potential_closed.fallback_ratio"] = len(fallback) / len(closed) if closed else 0.0
    m["matchings.pattern_census.misses"] = sum(
        1 for i in by_name.get("matchings.pattern_census", []) if spans[i].info.get("miss")
    )
    trials = sum(spans[i].info.get("trials", 0)
                 for i in by_name.get("conjecture.run_hypothesis_suite", []))
    evals = sum(1 for i in by_name.get("s3quad.potential_numeric", [])
                if has_ancestor(i, "conjecture.run_hypothesis_suite"))
    m["conjecture.evals_per_trial"] = evals / trials if trials else 0.0
    m["cli.startup_s"] = startup_s
    m["trace.op_s"] = op_s
    m["trace.overhead_s"] = overhead_s
    return {name: float(m[name]) for name, _ in PER_LAYER}
