"""Command-line front end.

Exit status: 0 on success, 1 on numerical failure, 2 on usage errors (bad
flags, out-of-range numbers, an empty --eta-inf or --columns list, an unknown
--columns name, an unwritable --output).  Data goes to --output
(default stdout); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .ode_core import IntegratorConfig, OdeError
from .nitm import NitmConfig, solve as nitm_solve
from .shooting import ShootingConfig, solve_shooting
from . import report

#: Most rows an --n-from/--n-to/--n-step range may ask for.
MAX_TABLE_ROWS = 10_000


def _integrator(args) -> IntegratorConfig:
    return IntegratorConfig(rel_tol=args.rtol, abs_tol=args.atol)


def _nitm_config(args) -> NitmConfig:
    return NitmConfig(eta_star_inf=args.eta_inf, c0=args.c0, integrator=_integrator(args))


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --output: {exc}") from exc


def _positive(text: str) -> float:
    """argparse type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _add_common(p: argparse.ArgumentParser, eta_inf: bool = True) -> None:
    if eta_inf:
        p.add_argument("--eta-inf", type=_positive, default=10.0, help="truncated boundary")
    p.add_argument("--c0", type=_positive, default=1.0, help="scaled wall curvature")
    p.add_argument("--rtol", type=_positive, default=1e-12)
    p.add_argument("--atol", type=_positive, default=1e-12)
    p.add_argument("--output", default=None, help="output file (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blasius-powerlaw",
        description="Power-law boundary-layer solver: one-IVP scaling method with a shooting cross-check.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="solve one exponent by the non-iterative method")
    p.add_argument("--n", type=_positive, required=True)
    _add_common(p)

    p = sub.add_parser("table", help="sweep a range of exponents")
    p.add_argument("--n", type=_positive, action="append", default=None, help="explicit exponent (repeatable)")
    p.add_argument("--n-from", type=_positive, default=None)
    p.add_argument("--n-to", type=_positive, default=None)
    p.add_argument("--n-step", type=_positive, default=None)
    p.add_argument("--method", choices=("nitm", "shooting", "both"), default="nitm")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)

    p = sub.add_parser("verify", help="compare the two methods at one exponent")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--tol", type=_positive, default=1e-6, help="allowed |nitm - shooting| / |shooting|")
    _add_common(p)

    p = sub.add_parser("sensitivity", help="wall curvature vs truncated boundary")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument(
        "--eta-inf",
        dest="eta_inf_list",
        default="6,8,10,15,20",
        help="comma-separated truncated boundaries",
    )
    _add_common(p, eta_inf=False)

    p = sub.add_parser("profile", help="export solution profile CSV")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--columns", default=",".join(report.PROFILE_COLUMNS))
    _add_common(p)

    return parser


def _grid(args) -> tuple[float, ...]:
    values = list(args.n or [])
    if args.n_from is not None or args.n_to is not None or args.n_step is not None:
        if None in (args.n_from, args.n_to, args.n_step):
            raise UsageError("--n-from, --n-to and --n-step must be given together")
        # Counted before any row is built; the loop still checks that v moves,
        # since a step under half an ulp of v leaves it where it is.
        if (args.n_to - args.n_from) / args.n_step >= MAX_TABLE_ROWS:
            raise UsageError(f"--n-step must be finite and > 0 and give < {MAX_TABLE_ROWS} rows")
        v = args.n_from
        while v <= args.n_to + 1e-12:
            values.append(round(v, 12))
            if v + args.n_step == v:
                raise UsageError(f"--n-step must be finite and > 0 and advance the range past {v}")
            v += args.n_step
    if not values:
        raise UsageError("give --n or an --n-from/--n-to/--n-step range")
    return tuple(values)


class UsageError(Exception):
    pass


def _cmd_solve(args) -> int:
    result = nitm_solve(args.n, _nitm_config(args))
    doc = {
        "n": result.n,
        "delta": result.delta,
        "lambda": result.lam,
        "fpp0": result.fpp0,
        "fp_star_inf": result.fp_star_inf,
        "eta_star_inf": args.eta_inf,
        "eta_inf_physical": result.profile.final.eta,
        "method_tag": result.method_tag,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def _cmd_table(args) -> int:
    spec = report.SweepSpec(
        n_values=_grid(args),
        method=args.method,
        nitm_config=_nitm_config(args),
    )
    rows = report.sweep_table(spec)
    if args.format == "json":
        config = {"method": args.method, "eta_inf": args.eta_inf, "c0": args.c0}
        text = report.emit_json(rows, config) + "\n"
    else:
        text = report.render_table(rows)
    _emit(text, args.output)
    return 0 if all(r.error is None for r in rows) else 1


def _cmd_verify(args) -> int:
    result = nitm_solve(args.n, _nitm_config(args))
    # The one-IVP method satisfies f'=1 at the rescaled endpoint, so the
    # shooting run must impose its far-field condition at the same spot.
    eta_match = result.profile.final.eta
    shoot = solve_shooting(
        args.n,
        ShootingConfig(eta_inf=eta_match, integrator=_integrator(args)),
    )
    discrepancy = report.relative_discrepancy(result.fpp0, shoot.fpp0)
    doc = {
        "n": args.n,
        "fpp0_nitm": result.fpp0,
        "fpp0_shooting": shoot.fpp0,
        "eta_inf_matched": eta_match,
        "discrepancy": discrepancy,
        "tol": args.tol,
        "agree": discrepancy <= args.tol,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0 if discrepancy <= args.tol else 1


def _cmd_sensitivity(args) -> int:
    try:
        etas = [_positive(x) for x in args.eta_inf_list.split(",") if x]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"bad --eta-inf list: {exc}") from exc
    if not etas:
        raise UsageError("--eta-inf must list at least one boundary")
    cfg = NitmConfig(c0=args.c0, integrator=_integrator(args))
    records = report.boundary_sensitivity(args.n, etas, cfg)
    lines = ["eta_inf,fpp0,error"]
    failed = False
    for eta, fpp0, err in records:
        failed = failed or err is not None
        lines.append(f"{eta:g},{'' if fpp0 is None else repr(fpp0)},{err or ''}")
    _emit("\n".join(lines) + "\n", args.output)
    return 1 if failed else 0


def _cmd_profile(args) -> int:
    columns = tuple(c for c in args.columns.split(",") if c)
    if not columns:
        raise UsageError("--columns must name at least one column")
    result = nitm_solve(args.n, _nitm_config(args))
    _emit(report.export_profile(result, columns), args.output)
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "sensitivity": _cmd_sensitivity,
    "profile": _cmd_profile,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.subcommand](args)
    except (UsageError, report.SelectionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OdeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
