"""Command-line interface.

Subcommands: potential, action, hypothesis, series, moments, sweep.  Output
is machine-readable (JSON by default, CSV for sweeps), floats are printed
with 17 significant digits, and a given command line always produces
byte-identical output.  Metrics are passed as comma-separated 4-tuples of
scale factors a_j (the square roots of the diagonal metric components).
A result that is not a finite double is an error (exit status 2), never a
printed NaN or Infinity.

numpy, the S^3 rule and the invariance suite are imported inside the
subcommands that use them: `potential --method closed|conjecture` and
`moments` run without numpy.
"""

from __future__ import annotations

import argparse
import math
import sys

from ._emit import fmt_float, to_csv, to_json
from .feynman import kinetic_term
from .geometry import MIN_LEVEL, DiagonalMetric, DoubledGeometry, effective_params
from .hopf import HopfMetric, potential_closed, potential_via_conjecture
from .matchings import (
    MAX_MOMENT_ORDER,
    PerturbedForm,
    c_coefficient,
    check_series_order,
    compare_series,
    count_n,
    count_n_formula,
    pattern_census,
)

DEFAULT_LEVEL = 64
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


def _as_hopf(g: DiagonalMetric, flag: str) -> HopfMetric:
    a = g.scales
    if not _is_hopf(g):
        raise CliError(
            f"{flag} is not Hopf-shaped (need a0 == a1 and a2 == a3): {a}"
        )
    return HopfMetric(a=a[2], b=a[0])


def _is_hopf(g: DiagonalMetric) -> bool:
    a = g.scales
    return a[0] == a[1] and a[2] == a[3]


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


def _emit(args, payload, default_format: str = "json") -> None:
    _check_finite(payload)
    fmt = args.format or default_format
    if fmt == "json":
        text = to_json(payload) + "\n"
    elif fmt == "csv":
        header = list(payload.keys())
        row = [
            v if not isinstance(v, (list, tuple)) else ";".join(str(x) for x in v)
            for v in payload.values()
        ]
        text = to_csv(header, [row])
    else:
        raise CliError(f"unknown format {fmt!r}")
    _write_out(args, text)


def _config_only(args) -> bool:
    """With --emit-config, print the resolved run configuration and return
    True: the subcommand stops there.  Subcommands call this once their
    inputs are validated, so an invalid run fails the same way with or
    without the flag."""
    if not args.emit_config:
        return False
    config = {
        "subcommand": args.subcommand,
        "level": args.level,
        "seed": args.seed,
        "tol": args.tol,
        "output_path": args.output,
        "format": args.format or ("csv" if args.subcommand == "sweep" else "json"),
    }
    sys.stdout.write(to_json(config) + "\n")
    return True


def _write_out(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands

def _cmd_potential(args) -> None:
    g1 = _parse_metric(args.g1, "--g1")
    g2 = _parse_metric(args.g2, "--g2")
    if args.method in ("closed", "conjecture", "both"):
        h1 = _as_hopf(g1, "--g1")
        h2 = _as_hopf(g2, "--g2")
    if _config_only(args):
        return
    record = {
        "g1": list(g1.scales),
        "g2": list(g2.scales),
        "method": args.method,
        "level": args.level,
    }
    if args.method == "closed":
        record["value"] = potential_closed(h1, h2)
    elif args.method == "conjecture":
        record["value"] = potential_via_conjecture(h1, h2)
    else:
        from .s3quad import build_rule, potential_numeric

        vn = potential_numeric(g1, g2, build_rule(args.level))
        if args.method == "numeric":
            record["value"] = vn
        else:
            vc = potential_closed(h1, h2)
            record["value_numeric"] = vn
            record["value_closed"] = vc
            record["abs_difference"] = abs(vn - vc)
    _emit(args, record)


def _cmd_action(args) -> None:
    g1 = _parse_metric(args.g1, "--g1")
    g2 = _parse_metric(args.g2, "--g2")
    if args.c == 0.0:
        raise CliError("--c must be nonzero")
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
    from .s3quad import build_rule, potential_numeric

    kin = kinetic_term(g1, g2)
    pot = potential_numeric(g1, g2, build_rule(args.level))
    _emit(
        args,
        {
            "g1": list(g1.scales),
            "g2": list(g2.scales),
            "phi": args.phi,
            "kappa": args.kappa,
            "lambda": args.lam,
            "c": args.c,
            "level": args.level,
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

    check_suite_args(args.trials, args.tol)
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
    import numpy as np

    eps = np.zeros((4, 4))
    k = 0
    for i in range(4):
        for j in range(i, 4):
            eps[i, j] = vals[k]
            eps[j, i] = vals[k]
            k += 1
    try:
        pf = PerturbedForm(omega=args.omega, eps=eps)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    check_series_order(args.order)
    if _config_only(args):
        return
    from .s3quad import build_rule

    cmp_ = compare_series(pf, args.order, build_rule(args.level))
    _emit(args, cmp_.to_dict())


def _cmd_moments(args) -> None:
    m = args.m
    if not 1 <= m <= MAX_MOMENT_ORDER:
        raise CliError(f"--m must be in 1..{MAX_MOMENT_ORDER}, got {m}")
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
    if not (0.0 < lo_f <= hi_f) or steps_i < 1:
        raise CliError(f"sweep spec {spec!r}: need 0 < min <= max and steps >= 1")
    return _SWEEP_AXES[axis], lo_f, hi_f, steps_i


def _cmd_sweep(args) -> None:
    g2 = _parse_metric(args.g2, "--g2")
    base = list(_parse_metric(args.base, "--base").scales)
    specs = [_parse_sweep(s) for s in args.sweep]
    if len(specs) > 2:
        raise CliError("at most 2 swept parameters are supported")
    claimed = [ax for axes, *_ in specs for ax in axes]
    if len(set(claimed)) != len(claimed):
        raise CliError("swept axes overlap")
    if _config_only(args):
        return
    import numpy as np

    from .conjecture import v_prime
    from .s3quad import build_rule, potential_numeric

    grids = [
        np.linspace(lo, hi, steps) if steps > 1 else np.array([lo])
        for _, lo, hi, steps in specs
    ]
    rule = build_rule(args.level)
    header = ["g1_0", "g1_1", "g1_2", "g1_3", "v_numeric", "v_closed", "v_prime"]
    rows = []
    mesh = np.meshgrid(*grids, indexing="ij") if grids else []
    points = (
        np.stack([m.ravel() for m in mesh], axis=-1)
        if grids
        else np.zeros((1, 0))
    )
    for point in points:
        scales = list(base)
        for (axes, *_), value in zip(specs, point):
            for ax in axes:
                scales[ax] = float(value)
        g1 = DiagonalMetric(tuple(scales))
        vn = potential_numeric(g1, g2, rule)
        vc = None
        if _is_hopf(g1) and _is_hopf(g2):
            vc = potential_closed(_as_hopf(g1, "--base"), _as_hopf(g2, "--g2"))
        rows.append(list(g1.scales) + [vn, vc, v_prime(g1, g2, rule)])
    _check_finite([dict(zip(header, row)) for row in rows], "rows")
    _write_out(args, to_csv(header, rows))


# ----------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubled-spectral",
        description=(
            "Interaction potential between the two constant diagonal metrics "
            "of a doubled geometry: quadrature oracle, closed forms, and "
            "series combinatorics.  Metrics are comma-separated 4-tuples of "
            "scale factors a_j (ds^2 = sum a_j^2 (dx^j)^2)."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--level", type=int, default=DEFAULT_LEVEL,
                        help=f"quadrature resolution (>= {MIN_LEVEL}, "
                             "default %(default)s)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="RNG seed where applicable (default %(default)s)")
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="tolerance where applicable (default %(default)s)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (json default; sweeps default to csv)")
    common.add_argument("--emit-config", action="store_true",
                        help="print the resolved run configuration and exit")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("potential", parents=[common],
                       help="interaction potential of a metric pair")
    p.add_argument("--g1", required=True, help="first metric, e.g. 2,2,1,1")
    p.add_argument("--g2", required=True, help="second metric")
    p.add_argument("--method", choices=("numeric", "closed", "both", "conjecture"),
                   default="numeric",
                   help="closed/conjecture require Hopf-shaped metrics "
                        "(a0 == a1 and a2 == a3)")
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("action", parents=[common],
                       help="effective action density of a doubled geometry")
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--phi", type=float, required=True, help="coupling magnitude |Phi|")
    p.add_argument("--kappa", type=int, choices=(1, -1), required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="cutoff scale (> 0)")
    p.add_argument("--c", type=float, required=True, help="moment coefficient (nonzero)")
    p.set_defaults(func=_cmd_action)

    p = sub.add_parser("hypothesis", parents=[common],
                       help="randomized invariance suite for the bimetric factorization")
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=_cmd_hypothesis)

    p = sub.add_parser("series", parents=[common],
                       help="per-order series comparison against quadrature")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--eps", required=True,
                   help="10 upper-triangle entries e00,e01,e02,e03,e11,e12,e13,e22,e23,e33 "
                        "of the symmetric traceless perturbation")
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("moments", parents=[common],
                       help="moment coefficient, forbidden-free count, and cycle-type census")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("sweep", parents=[common],
                       help="CSV sweep of the potential over a 1- or 2-parameter grid of g1")
    p.add_argument("--g2", required=True, help="fixed second metric")
    p.add_argument("--base", required=True,
                   help="base value of g1 for the axes not swept")
    p.add_argument("--sweep", action="append", required=True, metavar="AXIS:MIN:MAX:STEPS",
                   help="swept parameter; AXIS is 0..3, or b (axes 0,1) or a (axes 2,3); "
                        "repeat for a 2D grid (at most twice)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.level < MIN_LEVEL:
            raise CliError(f"--level must be >= {MIN_LEVEL}, got {args.level}")
        if not math.isfinite(args.tol):
            raise CliError(f"--tol must be finite, got {args.tol}")
        if args.tol <= 0.0 and args.subcommand != "hypothesis":
            raise CliError(f"--tol must be > 0, got {args.tol}")
        args.func(args)
        return 0
    except (CliError, ValueError, OSError) as exc:
        sys.stderr.write(to_json({"error": str(exc)}) + "\n")
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
