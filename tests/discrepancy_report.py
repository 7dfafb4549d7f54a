"""Numerical adjudication report.

Two quantities in this toolkit have a closed form alongside an alternative
printed normalization that cannot both be right:

* the limit of the Hopf-family potential on its removable-singularity
  surface a2 b1 = a1 b2, where the candidate limits differ by a factor
  2 pi^2, and
* the perturbative series for the rational sphere integral, where the
  single-trace variant carries (-2)^m N_{2m} tr(eps^m) per order while the
  full Wick expansion carries (-1)^m and, from order 4 on, products of
  traces.

This script evaluates the limit candidates against the quadrature oracle
and the series against the rational integral's closed form
(`carlson.rational_integral`) on seeded inputs, and renders the findings as
markdown.  ``python tests/discrepancy_report.py`` regenerates
docs/discrepancy_report.md, which is committed so the adjudication ships
with the repository; test_discrepancy_report.py checks that the committed
file is what this script renders.
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from doubled_spectral.geometry import DEFAULT_LEVEL, TWO_PI_SQ, DiagonalMetric
from doubled_spectral.matchings import PerturbedForm, _spectrum, compare_series, pattern_census
from doubled_spectral.s3quad import build_rule, potential_numeric

SINGULAR_SEED = 20240901
SERIES_SEED = 20240902


def singular_limit_rows():
    """On-surface comparison rows.

    Each of 10 rows evaluates the potential on the DEFAULT_LEVEL rule at a
    seeded point of the surface b1 = b2 a1 / a2 and compares against the
    two candidate limits

        L       = (b2^2 / a2^2) (a1 - a2)^2 (a1^2 + a2^2)
        2 pi^2 L

    reporting the relative deviation from each.
    """
    rng = np.random.default_rng(SINGULAR_SEED)
    rule = build_rule(DEFAULT_LEVEL)
    rows = []
    for _ in range(10):
        a1, a2, b2 = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 3))
        b1 = b2 * a1 / a2
        g1 = DiagonalMetric((b1, b1, a1, a1))
        g2 = DiagonalMetric((b2, b2, a2, a2))
        quad = potential_numeric(g1, g2, rule)
        bare = (b2 * b2 / (a2 * a2)) * (a1 - a2) ** 2 * (a1 * a1 + a2 * a2)
        scaled = TWO_PI_SQ * bare
        rows.append(
            {
                "a1": float(a1),
                "a2": float(a2),
                "b1": float(b1),
                "b2": float(b2),
                "quadrature": quad,
                "candidate_bare": bare,
                "candidate_2pi2": scaled,
                "rel_err_bare": abs(quad - bare) / abs(bare),
                "rel_err_2pi2": abs(quad - scaled) / abs(scaled),
            }
        )
    return rows


def adjudicate_singular_limit(rows):
    """Match per candidate to 1e-6 relative; exactly one should hold."""
    bare_ok = all(r["rel_err_bare"] <= 1e-6 for r in rows)
    scaled_ok = all(r["rel_err_2pi2"] <= 1e-6 for r in rows)
    return {"candidate_bare": bare_ok, "candidate_2pi2": scaled_ok}


def series_inputs(seed: int = SERIES_SEED, count: int = 5):
    """Seeded traceless symmetric perturbations with spectral radius <= 0.05.
    The radius comes from matchings' pure-Python eigensolver, not LAPACK,
    whose last bits can change with the CPU kernel it picks."""
    rng = np.random.default_rng(seed)
    forms = []
    for _ in range(count):
        raw = rng.standard_normal((4, 4))
        sym = 0.5 * (raw + raw.T)
        sym -= np.eye(4) * (np.trace(sym) / 4.0)
        rho = max(abs(v) for v in _spectrum(sym.tolist()))
        scale = 0.05 * float(rng.uniform(0.5, 1.0)) / rho
        omega = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        forms.append(PerturbedForm(omega=omega, eps=sym * scale))
    return forms


def _md_table(header, rows) -> list[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(" --- " for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_markdown() -> str:
    lines = [
        "# Adjudication report",
        "",
        "Generated by `python tests/discrepancy_report.py`. All inputs are",
        "seeded; regenerating the file reproduces it byte for byte.",
        f"Computed with numpy {np.__version__}, which draws and exponentiates the",
        "inputs and builds and sums the quadrature rule of section 1; the rest",
        "is pure Python. Values have 12 significant digits and errors 2, so a",
        "last-bit move in any of these numpy steps changes at most an error, or",
        "a term that is 0 in exact arithmetic, at rounding level, about 1e-15.",
        "",
        "## 1. Limit of the Hopf potential on the singular surface",
        "",
        "The closed form of the Hopf-family potential is an indeterminate 0/0",
        "on the surface `a2 b1 = a1 b2`. The limit there is finite; two",
        "candidate normalizations differ by a factor `2 pi^2`:",
        "",
        "    L_bare = (b2^2/a2^2) (a1-a2)^2 (a1^2+a2^2)",
        "    L_2pi2 = 2 pi^2 * L_bare",
        "",
        "`L_2pi2` is what the ratio-variable form `2 pi^2 V(x, y) sqrt(det g2)`",
        "predicts at `x = y`; `L_bare` drops the prefactor. Quadrature at",
        f"level {DEFAULT_LEVEL} on 10 seeded surface points decides:",
        "",
    ]
    rows = singular_limit_rows()
    verdict = adjudicate_singular_limit(rows)
    table_rows = [
        [
            f"{r['a1']:.6f}",
            f"{r['a2']:.6f}",
            f"{r['b2']:.6f}",
            f"{r['quadrature']:.12g}",
            f"{r['rel_err_2pi2']:.1e}",
            f"{r['rel_err_bare']:.1e}",
        ]
        for r in rows
    ]
    lines += _md_table(
        ["a1", "a2", "b2", "quadrature", "rel err vs L_2pi2", "rel err vs L_bare"],
        table_rows,
    )
    lines += [
        "",
        f"Verdict: quadrature matches `L_2pi2` on every point "
        f"({'yes' if verdict['candidate_2pi2'] else 'no'}) and `L_bare` on every "
        f"point ({'yes' if verdict['candidate_bare'] else 'no'}). The limit of "
        "the potential on the singular surface carries the `2 pi^2` prefactor;",
        "the bare form is off by exactly that factor (about 19.74).",
        "",
        "## 2. Series normalization for the rational sphere integral",
        "",
        "For `I = int dS / (Omega (1 + xi^T eps xi))` the geometric expansion",
        "gives order-m terms `(-1)^m c_m sum_matchings prod_cycles tr(eps^k)`",
        "(the \"exact\" column). The single-trace variant replaces the matching",
        "sum by `(-2)^m N_2m tr(eps^m)`. Comparison on 5 seeded perturbations",
        "(spectral radius <= 0.05, order 4) against `I` in closed form, `4 pi^2",
        "R_F` of the eigenvalues of `Omega (1 + eps)` (`carlson.rational_integral`):",
        "",
    ]
    comps = [compare_series(pf, 4) for pf in series_inputs()]
    table_rows = []
    for i, cmp_ in enumerate(comps):
        tail = 10.0 * cmp_.spectral_radius**5 * TWO_PI_SQ / cmp_.omega
        table_rows.append(
            [
                str(i),
                f"{cmp_.spectral_radius:.4f}",
                f"{cmp_.value_quadrature:.12g}",
                f"{abs(cmp_.value_exact - cmp_.value_quadrature):.1e}",
                f"{abs(cmp_.value_single_trace - cmp_.value_quadrature):.1e}",
                f"{tail:.3e}",
            ]
        )
    lines += _md_table(
        [
            "input",
            "rho(eps)",
            "closed form",
            "abs(exact - closed)",
            "abs(single-trace - closed)",
            "tail bound 10 rho^5 2 pi^2/Omega",
        ],
        table_rows,
    )
    lines += [
        "",
        "Per-order ratios single-trace/exact for input 0 (None where the",
        "exact term is below 1e-12 of the constant term):",
        "",
    ]
    cmp0 = comps[0]
    table_rows = []
    for m in range(cmp0.order + 1):
        ratio = cmp0.ratios_single_trace_vs_exact[m]
        table_rows.append(
            [
                str(m),
                f"{cmp0.terms_exact[m]:.12g}",
                f"{cmp0.terms_single_trace[m]:.12g}",
                "None" if ratio is None else f"{ratio:.6f}",
            ]
        )
    lines += _md_table(["m", "exact term", "single-trace term", "ratio"], table_rows)
    census4 = dict((tuple(p), c) for p, c in pattern_census(4))
    lines += [
        "",
        "Findings:",
        "",
        "* The exact (full Wick) column agrees with the closed form within the",
        "  geometric tail bound on every input; the single-trace column does",
        "  not.",
        "* At m = 2 the single-trace/exact ratio is 4 = 2^2: the single-trace",
        "  coefficient `2 pi^2/3 tr(eps^2)` is `2^m` times the expansion value",
        "  `pi^2/6 tr(eps^2)`, consistent with `(-2)^m` standing where the",
        "  expansion produces `(-1)^m`.",
        "* From m = 4 on, matchings with several cycles contribute products of",
        f"  traces: of the 105 matchings at m = 4, {census4[(2, 2)]} contract to",
        "  `tr(eps^2)^2` and are absent from any `N_2m tr(eps^m)` form, so the",
        "  single-trace variant is structurally incomplete beyond order 3 even",
        "  after fixing the 2^m factor.",
        "",
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate the adjudication report markdown"
    )
    parser.add_argument(
        "--output",
        default="docs/discrepancy_report.md",
        help="destination path (default %(default)s)",
    )
    args = parser.parse_args(argv)
    text = render_markdown()
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
