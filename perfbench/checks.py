"""Correctness checks for the benchmark's operations.

Each check takes the inputs the benchmark generated and the record the
program returned (the parsed CLI output, or the same dict built from the
in-process API) and returns a list of problems; an empty list is a pass.
The references are computed here, independently of the package:

* the Hopf-family potential in the ratio variables x = b1/b2, y = a1/a2,
  with its limit (z-1)^2 (z^2+1) on the singular surface x = y;
* the combinatorial identities of the moment tables: census counts sum to
  (2m-1)!!, the forbidden-free count equals inclusion-exclusion, and
  c_m = 4/(2m+2)!!;
* the geometric tail bound 10 rho^(order+1) 2 pi^2 / Omega for the series
  against quadrature (the bound the adjudication report uses).
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

TWO_PI_SQ = 2.0 * math.pi * math.pi

# closed form against quadrature for `potential --method both`
HOPF_REL_TOL = 1e-8
# below this relative distance from x = y the reference takes the limit
SURFACE_TOL = 1e-12
TAIL_FACTOR = 10.0
# Invariance checks and in-box closed-form comparisons agree to 1e-11 ..
# 1e-16, the rounding floor of the level-64 rule; digits beyond 10 are that
# noise, not accuracy, so the metric is capped there.
DIGITS_CAP = 10.0
SWEEP_HEADER = ["g1_0", "g1_1", "g1_2", "g1_3", "v_numeric", "v_closed", "v_prime"]


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def inclusion_exclusion(m: int) -> int:
    """Matchings of {1..2m} with no pair (2l-1, 2l)."""
    return sum(
        (-1) ** k * math.comb(m, k) * double_factorial(2 * (m - k) - 1)
        for k in range(m + 1)
    )


def hopf_reference(a1: float, b1: float, a2: float, b2: float) -> float:
    """Potential of the Hopf pair (b1, b1, a1, a1), (b2, b2, a2, a2)."""
    x = b1 / b2
    y = a1 / a2
    if abs(x - y) <= SURFACE_TOL * max(x, y):
        z = 0.5 * (x + y)
        w = (z - 1.0) ** 2 * (z * z + 1.0)
    else:
        xy = x * y
        w = (
            4.0 * xy * xy * (x - 1.0) * (y - 1.0) / ((x - y) * (x + y) ** 2)
            * math.log(y / x)
            + xy * xy + 1.0 - 2.0 * xy * (xy + 1.0) / (x + y)
        )
    return TWO_PI_SQ * w * (a2 * a2) * (b2 * b2)


def rel_dev(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / max(abs(ref), 1e-300)


def capped_digits(dev: float) -> float:
    """-log10 of a relative deviation, within [0, DIGITS_CAP]."""
    if not math.isfinite(dev):
        return 0.0
    if dev <= 0.0:
        return DIGITS_CAP
    return max(0.0, min(DIGITS_CAP, -math.log10(dev)))


def digits(value: float, ref: float) -> float:
    return capped_digits(rel_dev(value, ref))


def _finite(record: dict, keys) -> list[str]:
    bad = []
    for k in keys:
        v = record.get(k)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            bad.append(f"{k} is not a finite number: {v!r}")
    return bad


def parse_json(text: str):
    """Parsed record, or None when the output is not one JSON object."""
    try:
        rec = json.loads(text)
    except ValueError:
        return None
    return rec if isinstance(rec, dict) else None


def check_potential(req: dict, rec: dict) -> tuple[list[str], list[float]]:
    """`potential` output.  For Hopf pairs every reported value is compared
    with the reference (digits); `both` also requires closed and numeric to
    agree at HOPF_REL_TOL, and `closed`/`conjecture` to match the reference
    there."""
    method = req["method"]
    value_keys = ["value_numeric", "value_closed"] if method == "both" else ["value"]
    problems = _finite(rec, value_keys)
    if problems:
        return problems, []
    hopf = req.get("hopf")
    if hopf is None:
        return problems, []
    ref = hopf_reference(*hopf)
    if method == "both":
        closed, numeric = rec["value_closed"], rec["value_numeric"]
        if rel_dev(numeric, closed) > HOPF_REL_TOL:
            problems.append(
                f"closed {closed!r} and numeric {numeric!r} differ by "
                f"{rel_dev(numeric, closed):.3e} relative"
            )
        if rel_dev(closed, ref) > HOPF_REL_TOL:
            problems.append(f"closed {closed!r} deviates from the reference {ref!r}")
        return problems, [digits(numeric, ref), digits(closed, ref)]
    if method in ("closed", "conjecture") and rel_dev(rec["value"], ref) > HOPF_REL_TOL:
        problems.append(f"{method} {rec['value']!r} deviates from the reference {ref!r}")
    return problems, [digits(rec["value"], ref)]


def check_moments(m: int, rec: dict) -> list[str]:
    problems = []
    census = rec.get("pattern_census") or []
    total = sum(int(entry["count"]) for entry in census)
    if total != double_factorial(2 * m - 1):
        problems.append(f"census counts sum to {total}, not (2m-1)!! = "
                        f"{double_factorial(2 * m - 1)}")
    for entry in census:
        if sum(entry["cycle_lengths"]) != m:
            problems.append(f"cycle type {entry['cycle_lengths']} is not a partition of {m}")
    expected_n = inclusion_exclusion(m)
    if rec.get("forbidden_free_count") != expected_n:
        problems.append(f"forbidden_free_count {rec.get('forbidden_free_count')!r} "
                        f"!= inclusion-exclusion {expected_n}")
    no_fixed = sum(int(e["count"]) for e in census if 1 not in e["cycle_lengths"])
    if no_fixed != expected_n:
        problems.append(f"census has {no_fixed} matchings without a 1-cycle, "
                        f"not {expected_n}")
    try:
        c_m = Fraction(rec.get("c_m", ""))
    except (TypeError, ValueError, ZeroDivisionError):
        c_m = None
    if c_m != Fraction(4, double_factorial(2 * m + 2)):
        problems.append(f"c_m {rec.get('c_m')!r} != 4/(2m+2)!!")
    return problems


def check_series(form: dict, rec: dict) -> tuple[list[str], float]:
    """Exact series against quadrature within the geometric tail bound."""
    problems = _finite(rec, ["value_exact", "value_quadrature", "value_single_trace"])
    if problems:
        return problems, 0.0
    exact, quad = rec["value_exact"], rec["value_quadrature"]
    bound = TAIL_FACTOR * form["rho"] ** (form["order"] + 1) * TWO_PI_SQ / form["omega"]
    if abs(exact - quad) > bound:
        problems.append(f"|exact - quadrature| = {abs(exact - quad):.3e} exceeds "
                        f"the tail bound {bound:.3e}")
    return problems, digits(exact, quad)


def check_hypothesis(rec: dict) -> tuple[list[str], float]:
    """No invariance failures at the tolerance; digits from the largest
    violation."""
    problems = _finite(rec, ["max_violation"])
    if problems:
        return problems, 0.0
    failures = rec.get("failures")
    if failures is None or len(failures) != 0:
        problems.append(f"{len(failures or [])} invariance failures above tol")
    return problems, capped_digits(rec["max_violation"])


def check_action(rec: dict) -> list[str]:
    return _finite(rec, ["lambda_e_sq", "alpha", "kinetic", "potential", "density"])


def check_sweep(text: str, steps: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return [f"sweep header {rows[0] if rows else None!r} is not {SWEEP_HEADER}"]
    body = rows[1:]
    if len(body) != steps:
        return [f"sweep has {len(body)} rows, expected {steps}"]
    problems = []
    for row in body:
        for name, cell in zip(SWEEP_HEADER, row):
            if name == "v_closed" and cell == "":
                continue
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"sweep cell {name}={cell!r} is not a finite number")
    return problems
