"""Tests of the benchmark itself: seeded inputs, the checker and the tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from doubled_spectral import cli, hopf, s3quad  # noqa: E402


def _take(gen, n):
    return list(itertools.islice(gen, n))


def _cli_json(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


# ----------------------------------------------------------------------
# inputs

@pytest.mark.parametrize("make,n", [
    (workloads.suite_inputs, 20),
    (workloads.cli_inputs, workloads.CLI_ROUND),
])
def test_inputs_are_deterministic_per_seed(make, n):
    first = json.dumps(_take(make(7), n))
    assert json.dumps(_take(make(7), n)) == first
    assert json.dumps(_take(make(8), n)) != first


def test_cli_round_is_the_stated_mix():
    reqs = _take(workloads.cli_inputs(3), workloads.CLI_ROUND)
    counts = {}
    for r in reqs:
        counts[r["kind"]] = counts.get(r["kind"], 0) + 1
    assert counts == dict(workloads.CLI_MIX)
    def ratios(kind):
        return sorted(
            round(max(b1 / a1, a1 / b1, b2 / a2, a2 / b2))
            for r in reqs if r["kind"] == kind for a1, b1, a2, b2 in [r["hopf"]]
        )
    assert ratios("both_wide") == [10] * 4
    assert ratios("closed_wide") == [30] * 4 + [100] * 4
    assert all(r["method"] == "closed" for r in reqs if r["kind"] == "closed_wide")
    for r in reqs:
        if r["kind"].endswith("_tube"):
            a1, b1, a2, b2 = r["hopf"]
            assert abs(a2 * b1 - a1 * b2) <= 1e-15 * (a2 * b1 + a1 * b2)


def test_series_forms_have_the_stated_radius():
    import numpy as np

    forms = [r["form"] for r in _take(workloads.cli_inputs(5), workloads.CLI_ROUND)
             if r["kind"].startswith("series")]
    mix = dict(workloads.CLI_MIX)
    assert len(forms) == mix["series"] + mix["series_7"]
    for form in forms:
        eps = np.array(form["eps"])
        rho = np.abs(np.linalg.eigvalsh(eps)).max()
        assert rho == pytest.approx(form["rho"], rel=1e-12)
        assert workloads.RHO_RANGE[0] <= rho <= workloads.RHO_RANGE[1] * (1 + 1e-12)
        assert abs(np.trace(eps)) <= 1e-15


# ----------------------------------------------------------------------
# checker

def test_hopf_reference_matches_closed_form():
    rng = random.Random(11)
    for _ in range(50):
        a1, b1, a2, b2 = (math.exp(rng.uniform(-0.7, 0.7)) for _ in range(4))
        for args in ((a1, b1, a2, b2), (a1, 100.0 * a1, a2, b2)):
            ref = checks.hopf_reference(*args)
            closed = hopf.potential_closed(hopf.HopfMetric(args[0], args[1]),
                                           hopf.HopfMetric(args[2], args[3]))
            assert checks.rel_dev(closed, ref) <= 1e-12


def test_checker_rejects_bare_singular_limit(capsys):
    a1, a2, b2 = 1.3, 0.8, 1.1
    req = workloads._hopf_args(a1, b2 * a1 / a2, a2, b2, "both")
    rec = _cli_json(capsys, *req["argv"])
    problems, dig = checks.check_potential(req, rec)
    assert problems == [] and min(dig) == checks.DIGITS_CAP
    bare = dict(rec, value_closed=rec["value_closed"] / checks.TWO_PI_SQ)
    assert checks.check_potential(req, bare)[0]
    closed_req = dict(req, method="closed")
    assert checks.check_potential(closed_req, {"value": rec["value_closed"]})[0] == []
    assert checks.check_potential(closed_req, {"value": bare["value_closed"]})[0]


def test_checker_flags_wide_ratio_quadrature():
    a = 0.9
    req = workloads._hopf_args(a, 100.0 * a, 1.2, 0.7, "both")
    ref = checks.hopf_reference(*req["hopf"])
    problems, dig = checks.check_potential(
        req, {"value_closed": ref, "value_numeric": ref * 0.53})
    assert problems and min(dig) < 1


@pytest.mark.parametrize("corrupt", [
    lambda r: r["pattern_census"][0].update(count=r["pattern_census"][0]["count"] + 1),
    lambda r: r.update(forbidden_free_count=r["forbidden_free_count"] - 1),
    lambda r: r.update(c_m="1/48"),
])
def test_checker_rejects_corrupted_moments(capsys, corrupt):
    rec = _cli_json(capsys, "moments", "--m", "5")
    assert checks.check_moments(5, rec) == []
    corrupt(rec)
    assert checks.check_moments(5, rec)


def test_checker_rejects_single_trace_series(capsys):
    form = next(r["form"] for r in workloads.cli_inputs(2) if r["kind"] == "series")
    eps = form["eps"]
    upper = ",".join(repr(eps[i][j]) for i in range(4) for j in range(i, 4))
    rec = _cli_json(capsys, "series", "--omega", repr(form["omega"]), f"--eps={upper}",
                    "--order", "4", "--level", "32")
    form = dict(form, order=4)
    assert checks.check_series(form, rec)[0] == []
    swapped = dict(rec, value_exact=rec["value_single_trace"])
    assert checks.check_series(form, swapped)[0]


def test_checker_rejects_hypothesis_failures_and_bad_csv():
    ok = {"max_violation": 1e-12, "failures": []}
    assert checks.check_hypothesis(ok)[0] == []
    assert checks.check_hypothesis(dict(ok, failures=[{"discrepancy": 1.0}]))[0]
    header = ",".join(checks.SWEEP_HEADER)
    good = header + "\n1,1,1,1,2.5,,0.1\n"
    assert checks.check_sweep(good, 1) == []
    assert checks.check_sweep(good.replace("2.5", "NaN"), 1)
    assert checks.check_sweep(good, 2)


# ----------------------------------------------------------------------
# metric names and the tracer

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["suite", "cli"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert set(tracing.layer_metrics([], 1.0, 0.0)) == {n for n, _ in tracing.PER_LAYER}


def test_tracer_wraps_bindings_and_restores():
    original = s3quad.build_rule
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hopf.build_rule is s3quad.build_rule is not original
        hopf.potential_closed(hopf.HopfMetric(1.0, 1.0), hopf.HopfMetric(2.0, 2.0))
    finally:
        tracer.uninstall()
    assert hopf.build_rule is s3quad.build_rule is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "hopf.potential_closed"
    assert "s3quad.build_rule" in names and "kernels.potential_moments" in names
    m = tracing.layer_metrics(tracer.spans, 1.0, 0.0)
    assert m["hopf.potential_closed.fallback_calls"] == 1
    assert m["kernels.potential_moments.nodes"] == 4 * 64**3
