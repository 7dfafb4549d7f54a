"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criteria involving randomness use fixed seeds and are themselves
checked for byte-identical reruns (criterion 13).
"""

import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from doubled_spectral import (
    DiagonalMetric,
    DoubledGeometry,
    HopfMetric,
    PerturbedForm,
    UnitVector4,
    b2_trace_closed,
    b2_trace_matrix,
    c_coefficient,
    compare_series,
    count_n,
    count_n_formula,
    moment_integral,
    potential_closed,
    potential_numeric,
    potential_via_conjecture,
    rational_integral,
    run_hypothesis_suite,
    series_exact,
    to_diagonal,
)
from doubled_spectral._emit import to_json
from doubled_spectral.matchings import _eigenvalues
from doubled_spectral.reports import (
    adjudicate_singular_limit,
    series_inputs,
    singular_limit_rows,
)
from doubled_spectral.s3quad import _potential_sum
from conftest import product_sum

TWO_PI_SQ = 2.0 * math.pi**2
PI_SQ = math.pi**2

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _report(num, ok, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    assert ok, line


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _hopf_pair_sample(rng):
    """One Hopf pair in [0.5, 2]^4 off the singular surface (rejection)."""
    while True:
        a1, a2, b1, b2 = _log_uniform(rng, 0.5, 2.0, 4)
        if abs(a2 * b1 - a1 * b2) > 0.05 * (a2 * b1 + a1 * b2):
            return float(a1), float(a2), float(b1), float(b2)


def _closed_vs_numeric_rows(seed, count, rule):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        a1, a2, b1, b2 = _hopf_pair_sample(rng)
        h1, h2 = HopfMetric(a=a1, b=b1), HopfMetric(a=a2, b=b2)
        vn = potential_numeric(to_diagonal(h1), to_diagonal(h2), rule)
        vc = potential_closed(h1, h2)
        rows.append(
            {"a1": a1, "a2": a2, "b1": b1, "b2": b2,
             "numeric": vn, "closed": vc, "rel_diff": abs(vc - vn) / vn}
        )
    return rows


def test_criterion_01_sphere_area():
    # the identity form's rational integral is the area
    identity = PerturbedForm(omega=1.0, eps=np.zeros((4, 4)))
    rel = abs(rational_integral(_eigenvalues(identity)) - TWO_PI_SQ) / TWO_PI_SQ
    _report(1, rel <= 1e-12, f"sphere area in closed form: rel err {rel:.3e} <= 1e-12")


def test_criterion_02_closed_form_vs_quadrature(rule64):
    rows = _closed_vs_numeric_rows(seed=42, count=100, rule=rule64)
    worst = max(r["rel_diff"] for r in rows)
    _report(
        2,
        worst <= 1e-8,
        f"closed vs quadrature on 100 seeded Hopf pairs: worst rel {worst:.3e} <= 1e-8",
    )


def test_criterion_03_reduction_identities():
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(20):
        a, b1, b2 = _log_uniform(rng, 0.5, 2.0, 3)
        val = potential_closed(HopfMetric(a=a, b=b1), HopfMetric(a=a, b=b2))
        expect = TWO_PI_SQ * a * a * (b1 - b2) ** 2
        worst = max(worst, abs(val - expect) / expect)
    for _ in range(20):
        a1, a2, b = _log_uniform(rng, 0.5, 2.0, 3)
        val = potential_closed(HopfMetric(a=a1, b=b), HopfMetric(a=a2, b=b))
        expect = TWO_PI_SQ * (a1 - a2) ** 2 * b * b
        worst = max(worst, abs(val - expect) / expect)
    _report(
        3,
        worst <= 1e-12,
        f"equal-a and equal-b reductions at 20 points each: worst rel {worst:.3e} <= 1e-12",
    )


def test_criterion_04_singular_surface_adjudication():
    rows = singular_limit_rows()
    verdict = adjudicate_singular_limit(rows)
    worst = max(r["rel_err_2pi2"] for r in rows)
    exactly_one = verdict["candidate_2pi2"] != verdict["candidate_bare"]
    report_path = REPO_ROOT / "docs" / "discrepancy_report.md"
    recorded = report_path.exists() and "Verdict" in report_path.read_text()
    _report(
        4,
        verdict["candidate_2pi2"] and exactly_one and recorded,
        "singular-surface limit: quadrature matches the 2 pi^2-normalized "
        f"candidate (worst rel {worst:.3e} <= 1e-6), the bare candidate fails, "
        f"adjudication recorded in docs: {recorded}",
    )


def test_criterion_05_exchange_symmetry(rule64):
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        g1 = DiagonalMetric(tuple(_log_uniform(rng, 0.5, 2.0, 4)))
        g2 = DiagonalMetric(tuple(_log_uniform(rng, 0.5, 2.0, 4)))
        va = potential_numeric(g1, g2, rule64)
        vb = potential_numeric(g2, g1, rule64)
        worst = max(worst, abs(va - vb) / va)
    _report(
        5,
        worst <= 1e-10,
        f"exchange symmetry on 100 random pairs: worst rel {worst:.3e} <= 1e-10",
    )


def test_criterion_06_hypothesis_suite(rule64):
    report = run_hypothesis_suite(trials=200, seed=42, rule=rule64, tol=1e-7)
    _report(
        6,
        len(report.failures) == 0,
        f"hypothesis suite (200 trials, seed 42, level 64, tol 1e-7): "
        f"{len(report.failures)} failures, max violation {report.max_violation:.3e}",
    )


def test_criterion_07_bimetric_identity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        a1, a2, b1, b2 = _log_uniform(rng, 0.5, 2.0, 4)
        h1, h2 = HopfMetric(a=a1, b=b1), HopfMetric(a=a2, b=b2)
        lhs = potential_via_conjecture(h1, h2)
        rhs = potential_via_conjecture(h2, h1)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    _report(
        7,
        worst <= 1e-10,
        f"V(x,y) a2^2 b2^2 = V(1/x,1/y) a1^2 b1^2 on 100 pairs: worst rel "
        f"{worst:.3e} <= 1e-10",
    )


def test_criterion_08_combinatorics():
    enum_ok = all(count_n(m) == count_n_formula(m) for m in range(1, 9))
    small_ok = (count_n(1), count_n(2), count_n(3)) == (0, 2, 8)
    c1_ok = c_coefficient(1) == Fraction(1, 2)
    recursion_ok = all(
        c_coefficient(m) == c_coefficient(m - 1) / (2 * m + 2) for m in range(1, 13)
    )
    _report(
        8,
        enum_ok and small_ok and c1_ok and recursion_ok,
        "forbidden-free counts match inclusion-exclusion for m <= 8; "
        "N_2 = 0, N_4 = 2, N_6 = 8; c_1 = pi^2/2; recursion exact to m = 12",
    )


def test_criterion_09_moments_vs_quadrature():
    rng = np.random.default_rng(99)
    worst = 0.0
    zeros_ok = True
    for _ in range(50):
        m = int(rng.integers(1, 5))
        idx = tuple(int(v) for v in rng.integers(0, 4, 2 * m))
        exact = float(moment_integral(idx)) * PI_SQ
        quad = product_sum(32, lambda x: np.prod([x[:, i] for i in idx], axis=0))
        if exact == 0.0:
            zeros_ok = zeros_ok and abs(quad) <= 1e-13
        else:
            worst = max(worst, abs(quad - exact) / abs(exact))
    _report(
        9,
        worst <= 1e-11 and zeros_ok,
        f"50 random moment tuples (m <= 4) vs quadrature at level 32: worst rel "
        f"{worst:.3e} <= 1e-11, parity zeros below 1e-13: {zeros_ok}",
    )


def test_criterion_10_series_oracle():
    worst_frac = 0.0
    for pf in series_inputs(seed=777, count=20):
        diff = abs(series_exact(pf, 4) - rational_integral(_eigenvalues(pf)))
        bound = 10.0 * pf.spectral_radius**5 * TWO_PI_SQ / pf.omega
        worst_frac = max(worst_frac, diff / bound)
    _report(
        10,
        worst_frac <= 1.0,
        f"series_exact(M=4) vs closed form on 20 forms (rho <= 0.05): worst "
        f"diff/bound {worst_frac:.3e} <= 1",
    )


def test_criterion_11_matrix_closed_identity():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(1000):
        g1 = DiagonalMetric(tuple(_log_uniform(rng, 0.5, 2.0, 4)))
        g2 = DiagonalMetric(tuple(_log_uniform(rng, 0.5, 2.0, 4)))
        dg = DoubledGeometry(
            g1=g1, g2=g2,
            coupling=float(rng.uniform(0.0, 2.0)),
            kappa=int(rng.choice([1, -1])),
            cutoff=1.0,
            moment_coeff=1.0,
        )
        xi = UnitVector4.normalized(rng.standard_normal(4))
        mval = b2_trace_matrix(dg, xi)
        cval = b2_trace_closed(dg, xi)
        worst = max(worst, abs(mval - cval) / max(abs(mval), abs(cval), 1e-30))
    _report(
        11,
        worst <= 1e-12,
        f"matrix vs closed integrand on 1000 samples: worst rel {worst:.3e} <= 1e-12",
    )


def test_criterion_12_series_adjudication():
    comps = [compare_series(pf, 4) for pf in series_inputs(count=5)]
    exact_ok = all(
        abs(c.value_exact - c.value_quadrature)
        <= 10.0 * c.spectral_radius**5 * TWO_PI_SQ / c.omega
        for c in comps
    )
    ratios_ok = all(
        c.ratios_single_trace_vs_exact[2] is not None
        and abs(c.ratios_single_trace_vs_exact[2] - 4.0) <= 1e-9
        for c in comps
    )
    _report(
        12,
        exact_ok and ratios_ok,
        "per-order tables for 5 seeded inputs: exact column within tail bound "
        "of the closed form; single-trace/exact ratio 4 recorded at m = 2",
    )


def test_criterion_13_determinism(rule64):
    # the plane sum of potential_numeric is memoized: clear it before each
    # rerun so that the rerun sums afresh
    rows_a = _closed_vs_numeric_rows(seed=42, count=100, rule=rule64)
    _potential_sum.cache_clear()
    rows_b = _closed_vs_numeric_rows(seed=42, count=100, rule=rule64)
    two_ok = to_json(rows_a) == to_json(rows_b)

    rep_a = run_hypothesis_suite(trials=200, seed=42, rule=rule64, tol=1e-7)
    _potential_sum.cache_clear()
    rep_b = run_hypothesis_suite(trials=200, seed=42, rule=rule64, tol=1e-7)
    six_ok = to_json(rep_a.to_dict()) == to_json(rep_b.to_dict())

    cmp_a = [compare_series(pf, 4).to_dict() for pf in series_inputs(count=5)]
    cmp_b = [compare_series(pf, 4).to_dict() for pf in series_inputs(count=5)]
    twelve_ok = to_json(cmp_a) == to_json(cmp_b)

    _report(
        13,
        two_ok and six_ok and twelve_ok,
        f"byte-identical reruns: criterion 2 {two_ok}, criterion 6 {six_ok}, "
        f"criterion 12 {twelve_ok}",
    )
