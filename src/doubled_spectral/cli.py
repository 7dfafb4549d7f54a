"""Command-line interface.

Subcommands: potential, action, hypothesis, series, moments, sweep.  Each
declares only the options it reads.  Output is machine-readable: one JSON
record (`--format csv` gives a header and one row for potential, action and
series), or the CSV table of a sweep.  Floats are printed with 17
significant digits, and a given command line always produces
byte-identical output.  Metrics are passed as comma-separated 4-tuples of
scale factors a_j (the square roots of the diagonal metric components).
Invalid input, usage errors included, and a result that is not a finite
double are one JSON error record on stderr and exit status 2, never a
printed NaN or Infinity.

The S^3 rule is the oracle: `potential --method numeric|both` and
`hypothesis` sum on it, and they are the subcommands with --level besides
`series`, which accepts it with no effect.  `action` and `sweep` take the
potential from its elliptic closed form (`carlson.potential_elliptic`), and
so does `potential --method closed|both` for a pair that is not
Hopf-shaped; a Hopf-shaped pair takes the Hopf closed form (`hopf`).
`series` compares its sums with the rational integral in closed form
(`carlson.rational_integral`).  This module imports no numpy; the S^3 rule,
the invariance suite and the Wick-pairing module are imported inside the
subcommands that use them, so `action`, `sweep`, `potential --method
closed|conjecture` and `moments` run without numpy or dataclasses (the
types they build are namedtuples), and `series` without the rule or
dataclasses.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

from ._emit import fmt_float, to_csv, to_json
from .carlson import potential_elliptic
from .geometry import (
    DEFAULT_LEVEL,
    MAX_LEVEL,
    MIN_LEVEL,
    TWO_PI_SQ,
    DiagonalMetric,
    DoubledGeometry,
    effective_params,
    kinetic_term,
    sqrt_det,
)
from .hopf import from_diagonal, potential_closed, potential_via_conjecture

DEFAULT_SEED = 42
DEFAULT_TOL = 1e-7


class CliError(Exception):
    pass


def _parse_metric(text: str, flag: str) -> DiagonalMetric:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"{flag} needs 4 comma-separated values, got {text!r}")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from exc
    if any(not (v > 0.0 and math.isfinite(v)) for v in vals):
        raise CliError(f"{flag} entries must be positive and finite: {text!r}")
    return DiagonalMetric(vals)


def _closed_form(g1: DiagonalMetric, g2: DiagonalMetric) -> float:
    """The Hopf closed form of a pair of Hopf-shaped metrics, else the
    elliptic closed form, which holds for every diagonal pair."""
    h1, h2 = from_diagonal(g1), from_diagonal(g2)
    if h1 is None or h2 is None:
        return potential_elliptic(g1, g2)
    return potential_closed(h1, h2)


def _check_finite(obj, name: str = "") -> None:
    """Raise CliError naming the first float in obj (nested dicts and
    lists) that is NaN or infinite."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise CliError(f"{name} is not finite: {fmt_float(obj)}")
    if isinstance(obj, dict):
        for key, value in obj.items():
            _check_finite(value, f"{name}.{key}" if name else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _check_finite(value, f"{name}[{i}]")


def _emit(args, payload) -> None:
    """Write one record: JSON, or a header and one CSV row where the
    subcommand has --format."""
    _check_finite(payload)
    if getattr(args, "format", "json") == "csv":
        text = to_csv(list(payload), [list(payload.values())])
    else:
        text = to_json(payload) + "\n"
    _write_out(args, text)


# --emit-config keys, in this order, for the options a subcommand declares
_CONFIG_KEYS = ("level", "seed", "tol", "output_path", "format")


def _config_only(args) -> bool:
    """With --emit-config, print the resolved run configuration and return
    True: the subcommand stops there.  Subcommands call this once their
    inputs are validated, so an invalid run fails the same way with or
    without the flag."""
    if not args.emit_config:
        return False
    options = vars(args)
    config = {"subcommand": args.subcommand}
    config.update((key, options[key]) for key in _CONFIG_KEYS if key in options)
    sys.stdout.write(to_json(config) + "\n")
    return True


def _write_out(args, text: str) -> None:
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands

def _cmd_potential(args) -> None:
    g1 = _parse_metric(args.g1, "--g1")
    g2 = _parse_metric(args.g2, "--g2")
    if args.method == "conjecture":
        h1, h2 = from_diagonal(g1), from_diagonal(g2)
        for flag, g, h in (("--g1", g1, h1), ("--g2", g2, h2)):
            if h is None:
                raise CliError(
                    f"{flag} is not Hopf-shaped (need a0 == a1 and a2 == a3): {g.scales}"
                )
    if _config_only(args):
        return
    record = {
        "g1": list(g1.scales),
        "g2": list(g2.scales),
        "method": args.method,
        "level": args.level,
    }
    if args.method == "closed":
        record["value"] = _closed_form(g1, g2)
    elif args.method == "conjecture":
        record["value"] = potential_via_conjecture(h1, h2)
    else:
        from .s3quad import build_rule, potential_numeric

        vn = potential_numeric(g1, g2, build_rule(args.level))
        if args.method == "numeric":
            record["value"] = vn
        else:
            vc = _closed_form(g1, g2)
            record["value_numeric"] = vn
            record["value_closed"] = vc
            record["abs_difference"] = abs(vn - vc)
    _emit(args, record)


def _cmd_action(args) -> None:
    g1 = _parse_metric(args.g1, "--g1")
    g2 = _parse_metric(args.g2, "--g2")
    dg = DoubledGeometry(
        g1=g1,
        g2=g2,
        coupling=args.phi,
        kappa=args.kappa,
        cutoff=args.lam,
        moment_coeff=args.c,
    )
    ep = effective_params(dg)
    if _config_only(args):
        return
    kin = kinetic_term(g1, g2)
    pot = potential_elliptic(g1, g2)
    _emit(
        args,
        {
            "g1": list(g1.scales),
            "g2": list(g2.scales),
            "phi": args.phi,
            "kappa": args.kappa,
            "lambda": args.lam,
            "c": args.c,
            "lambda_e_sq": ep.lambda_e_sq,
            "alpha": ep.alpha,
            "kinetic": kin,
            "potential": pot,
            "density": ep.lambda_e_sq * kin + ep.alpha * pot,
        },
    )


def _cmd_hypothesis(args) -> None:
    from .conjecture import check_suite_args, run_hypothesis_suite
    from .s3quad import build_rule

    check_suite_args(args.trials, args.seed, args.tol)
    if _config_only(args):
        return
    report = run_hypothesis_suite(
        trials=args.trials, seed=args.seed, rule=build_rule(args.level), tol=args.tol
    )
    _emit(args, report.to_dict())


def _cmd_series(args) -> None:
    entries = args.eps.split(",")
    if len(entries) != 10:
        raise CliError(
            "--eps needs the 10 upper-triangle entries "
            "e00,e01,e02,e03,e11,e12,e13,e22,e23,e33"
        )
    try:
        vals = [float(e) for e in entries]
    except ValueError as exc:
        raise CliError(f"--eps: {exc}") from exc
    from .matchings import PerturbedForm, check_series_order, compare_series

    eps = [[0.0] * 4 for _ in range(4)]
    upper = iter(vals)
    for i in range(4):
        for j in range(i, 4):
            eps[i][j] = eps[j][i] = next(upper)
    pf = PerturbedForm(omega=args.omega, eps=eps)
    check_series_order(args.order)
    if _config_only(args):
        return
    _emit(args, compare_series(pf, args.order).to_dict())


def _cmd_moments(args) -> None:
    from .matchings import (
        MAX_MATCHING_ORDER,
        c_coefficient,
        count_n,
        count_n_formula,
        pattern_census,
    )

    m = args.m
    if not 1 <= m <= MAX_MATCHING_ORDER:
        raise CliError(f"--m must be in 1..{MAX_MATCHING_ORDER}, got {m}")
    if _config_only(args):
        return
    frac = c_coefficient(m)
    census = pattern_census(m)
    _emit(
        args,
        {
            "m": m,
            "c_m": f"{frac.numerator}/{frac.denominator}",
            "c_m_times_pi_sq": float(frac) * math.pi * math.pi,
            "forbidden_free_count": count_n(m),
            "forbidden_free_inclusion_exclusion": count_n_formula(m),
            "pattern_census": [
                {"cycle_lengths": list(pat), "count": count}
                for pat, count in census
            ],
        },
    )


_SWEEP_AXES = {
    "0": (0,),
    "1": (1,),
    "2": (2,),
    "3": (3,),
    "b": (0, 1),
    "a": (2, 3),
}


def _parse_sweep(spec: str):
    parts = spec.split(":")
    if len(parts) != 4:
        raise CliError(f"sweep spec must be AXIS:MIN:MAX:STEPS, got {spec!r}")
    axis, lo, hi, steps = parts
    if axis not in _SWEEP_AXES:
        raise CliError(f"sweep axis must be one of {sorted(_SWEEP_AXES)}, got {axis!r}")
    try:
        lo_f, hi_f = float(lo), float(hi)
        steps_i = int(steps)
    except ValueError as exc:
        raise CliError(f"sweep spec {spec!r}: {exc}") from exc
    if not (0.0 < lo_f <= hi_f < math.inf) or steps_i < 1:
        raise CliError(f"sweep spec {spec!r}: need finite 0 < min <= max and steps >= 1")
    return _SWEEP_AXES[axis], lo_f, hi_f, steps_i


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    """np.linspace(lo, hi, steps) in pure Python, to the bit: lo + i * step
    before the last point, then hi exactly."""
    if steps == 1:
        return [lo]
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps - 1)] + [hi]


def _cmd_sweep(args) -> None:
    g2 = _parse_metric(args.g2, "--g2")
    base = list(_parse_metric(args.base, "--base").scales)
    specs = [_parse_sweep(s) for s in args.sweep]
    if len(specs) > 2:
        raise CliError("at most 2 swept parameters are supported")
    claimed = [ax for axes, *_ in specs for ax in axes]
    if len(set(claimed)) != len(claimed):
        raise CliError("swept axes overlap")
    norm = TWO_PI_SQ * sqrt_det(g2)
    if not 0.0 < norm < math.inf:
        raise CliError(
            f"--g2: 2 pi^2 sqrt(det g2) = {fmt_float(norm)} under- or overflows "
            "double precision, and v_prime divides by it"
        )
    if _config_only(args):
        return
    grids = [_grid(lo, hi, steps) for _, lo, hi, steps in specs]
    header = ["g1_0", "g1_1", "g1_2", "g1_3", "v_numeric", "v_closed", "v_prime"]
    h2 = from_diagonal(g2)
    rows = []
    # product walks the grid in meshgrid(indexing="ij") order
    for point in itertools.product(*grids):
        scales = list(base)
        for (axes, *_), value in zip(specs, point):
            for ax in axes:
                scales[ax] = value
        g1 = DiagonalMetric(tuple(scales))
        vn = potential_elliptic(g1, g2)
        h1 = from_diagonal(g1)
        vc = None if h1 is None or h2 is None else potential_closed(h1, h2)
        rows.append(list(g1.scales) + [vn, vc, vn / norm])
    _check_finite([dict(zip(header, row)) for row in rows], "rows")
    _write_out(args, to_csv(header, rows))


# ----------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Raises a usage error as CliError, so main prints it as one JSON
    record like any other invalid input."""

    def error(self, message):
        raise CliError(message)


def _level(text: str) -> int:
    """argparse type of --level: an integer in MIN_LEVEL..MAX_LEVEL."""
    try:
        level = int(text)
    except ValueError:
        level = None
    if level is None or level < MIN_LEVEL:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= {MIN_LEVEL}, got {text!r}"
        )
    if level > MAX_LEVEL:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_LEVEL}, got {text!r}")
    return level


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="doubled-spectral",
        description=(
            "Interaction potential between the two constant diagonal metrics "
            "of a doubled geometry: quadrature oracle, closed forms, and "
            "series combinatorics.  Metrics are comma-separated 4-tuples of "
            "scale factors a_j (ds^2 = sum a_j^2 (dx^j)^2)."
        ),
    )
    # option groups; each subcommand takes only the groups it reads
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", dest="output_path", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")
    output.add_argument("--emit-config", action="store_true",
                        help="print the resolved run configuration and exit")
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--level", type=_level, default=DEFAULT_LEVEL,
                       help=f"quadrature resolution ({MIN_LEVEL}..{MAX_LEVEL}, "
                            "default %(default)s)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json",
                     help="output format (default %(default)s)")
    record = [output, level, fmt]

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("potential", parents=record,
                       help="interaction potential of a metric pair")
    p.add_argument("--g1", required=True, help="first metric, e.g. 2,2,1,1")
    p.add_argument("--g2", required=True, help="second metric")
    p.add_argument("--method", choices=("numeric", "closed", "both", "conjecture"),
                   default="numeric",
                   help="numeric: the S^3 rule at --level; closed: the Hopf "
                        "closed form for Hopf-shaped metrics (a0 == a1 and "
                        "a2 == a3), else the elliptic closed form; both: "
                        "numeric and closed side by side; conjecture: the "
                        "paper's ratio form 2 pi^2 W(b1/b2, a1/a2) sqrt(det g2), "
                        "Hopf-shaped metrics only (use closed for any other "
                        "pair)")
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("action", parents=[output, fmt],
                       help="effective action density of a doubled geometry")
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--phi", type=float, required=True, help="coupling magnitude |Phi|")
    p.add_argument("--kappa", type=int, choices=(1, -1), required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="cutoff scale (> 0)")
    p.add_argument("--c", type=float, required=True, help="moment coefficient (nonzero)")
    p.set_defaults(func=_cmd_action)

    p = sub.add_parser("hypothesis", parents=[output, level],
                       help="randomized invariance suite for the bimetric factorization")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="RNG seed (default %(default)s)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="tolerance on each relative violation (default %(default)s)")
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=_cmd_hypothesis)

    p = sub.add_parser("series", parents=record,
                       help="per-order series comparison against the closed form",
                       description="Exact and single-trace series against the rational "
                                   "integral in closed form (value_quadrature); the "
                                   "single-trace terms grow like (2 rho)^m, rho the "
                                   "spectral radius of eps, so they diverge for rho >= 1/2. "
                                   "--level is accepted and has no effect.")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--eps", required=True,
                   help="10 upper-triangle entries e00,e01,e02,e03,e11,e12,e13,e22,e23,e33 "
                        "of the symmetric traceless perturbation")
    p.add_argument("--order", type=int, default=4,
                   help="highest order of both series, 2..100 (default %(default)s)")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("moments", parents=[output],
                       help="moment coefficient, forbidden-free count, and cycle-type census")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser(
        "sweep", parents=[output],
        help="CSV sweep of the potential over a 1- or 2-parameter grid of g1",
        description=(
            "CSV sweep of the potential over a 1- or 2-parameter grid of g1. "
            "Columns: g1_0..g1_3 are the scales of g1 at the grid point; "
            "v_numeric is the potential from its elliptic closed form "
            "(carlson.potential_elliptic), not from the S^3 rule; v_closed is "
            "the Hopf closed form where g1 and g2 are both Hopf-shaped "
            "(a0 == a1 and a2 == a3), else empty; v_prime is "
            "v_numeric / (2 pi^2 sqrt(det g2))."
        ),
    )
    p.add_argument("--g2", required=True, help="fixed second metric")
    p.add_argument("--base", required=True,
                   help="base value of g1 for the axes not swept")
    p.add_argument("--sweep", action="append", required=True, metavar="AXIS:MIN:MAX:STEPS",
                   help="swept parameter; AXIS is 0..3, or b (axes 0,1) or a (axes 2,3); "
                        "repeat for a 2D grid (at most twice)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.func(args)
        return 0
    except (CliError, ValueError, OSError) as exc:
        sys.stderr.write(to_json({"error": str(exc)}) + "\n")
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
