"""Command-line front end.

Exit status: 0 on success, 1 on numerical failure, 2 on usage errors (bad
flags, out-of-range numbers, an empty --eta-inf or --columns list or --n-from
range, an unknown --columns name, an unwritable --output).  Data goes to --output
(default stdout); diagnostics go to stderr.  Each subcommand's handler returns
its text and exit status, and `run` writes the text.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from .ode_core import IntegratorConfig, OdeError
from .nitm import NitmConfig, solve as nitm_solve
from .shooting import ShootingConfig, solve_shooting
from . import report

#: Most rows an --n-from/--n-to/--n-step range may ask for.
MAX_TABLE_ROWS = 10_000


def _nitm_config(args) -> NitmConfig:
    # `sensitivity` has no scalar --eta-inf: each of its passes sets its own.
    boundary = {"eta_star_inf": args.eta_inf} if "eta_inf" in args else {}
    integrator = IntegratorConfig(rel_tol=args.rtol, abs_tol=args.atol)
    return NitmConfig(**boundary, c0=args.c0, integrator=integrator)


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
    defaults = NitmConfig()
    if eta_inf:
        p.add_argument("--eta-inf", type=_positive, default=defaults.eta_star_inf, help="truncated boundary")
    p.add_argument("--c0", type=_positive, default=defaults.c0, help="scaled wall curvature; moves the star boundary")
    p.add_argument("--rtol", type=_positive, default=defaults.integrator.rel_tol)
    p.add_argument("--atol", type=_positive, default=defaults.integrator.abs_tol)
    p.add_argument("--output", default=None, help="output file (default stdout)")


def _help_formatter(prog: str) -> argparse.HelpFormatter:
    """argparse's formatter at the width it would take from
    `shutil.get_terminal_size`: $COLUMNS if a positive integer, else the
    terminal on stdout, else 80.  Every `add_argument` builds a formatter,
    and argparse's own import of `shutil` for that width costs a process
    more than the package import."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
        except (AttributeError, ValueError, OSError):
            columns = 80
    return argparse.HelpFormatter(prog, width=columns - 2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blasius-powerlaw",
        description="Power-law boundary-layer solver: one-IVP scaling method with a shooting cross-check.",
        formatter_class=_help_formatter,
    )
    # `dest` is the name argparse's errors give the subcommand.  Subparsers
    # do not inherit the formatter.
    sub = parser.add_subparsers(
        dest="subcommand",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, formatter_class=_help_formatter),
    )

    p = sub.add_parser("solve", help="solve one exponent by the non-iterative method")
    p.set_defaults(handler=_cmd_solve)
    p.add_argument("--n", type=_positive, required=True)
    _add_common(p)

    p = sub.add_parser("table", help="sweep a range of exponents")
    p.set_defaults(handler=_cmd_table)
    p.add_argument("--n", type=_positive, action="append", default=None, help="explicit exponent (repeatable)")
    p.add_argument("--n-from", type=_positive, default=None)
    p.add_argument("--n-to", type=_positive, default=None)
    p.add_argument("--n-step", type=_positive, default=None)
    p.add_argument("--method", choices=report.SWEEP_METHODS, default=report.SWEEP_METHODS[0])
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)

    p = sub.add_parser("verify", help="compare the two methods at one exponent")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--tol", type=_positive, default=1e-6, help="allowed |nitm - shooting| / |shooting|")
    _add_common(p)

    p = sub.add_parser("sensitivity", help="wall curvature vs truncated boundary")
    p.set_defaults(handler=_cmd_sensitivity)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument(
        "--eta-inf",
        dest="eta_inf_list",
        default="6,8,10,15,20",
        help="comma-separated truncated boundaries",
    )
    _add_common(p, eta_inf=False)

    p = sub.add_parser("profile", help="export solution profile CSV")
    p.set_defaults(handler=_cmd_profile)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--columns", default=",".join(report.PROFILE_COLUMNS))
    _add_common(p)

    return parser


def _grid(args) -> tuple[float, ...]:
    values = list(args.n or [])
    if args.n_from is not None or args.n_to is not None or args.n_step is not None:
        if None in (args.n_from, args.n_to, args.n_step):
            raise UsageError("--n-from, --n-to and --n-step must be given together")
        # Counted before any row is built.
        if (args.n_to - args.n_from) / args.n_step >= MAX_TABLE_ROWS:
            raise UsageError(f"--n-step must be finite and > 0 and give < {MAX_TABLE_ROWS} rows")
        # Rows end within a relative slack of --n-to and keep 12 digits, which
        # drops the steps' rounding at any scale; a row must still move, which a
        # step under half an ulp of v, or under the 12th digit, does not.
        slack = 1e-12 * args.n_to
        if args.n_from - args.n_to > slack:
            raise UsageError(f"the range --n-from {args.n_from} --n-to {args.n_to} is empty")
        v, rows = args.n_from, []
        while v - args.n_to <= slack:
            row = float(f"{v:.12g}")
            if rows and rows[-1] == row:
                raise UsageError(f"--n-step must be finite and > 0 and advance the range past {v}")
            rows.append(row)
            v += args.n_step
        values += rows
    if not values:
        raise UsageError("give --n or an --n-from/--n-to/--n-step range")
    return tuple(values)


class UsageError(Exception):
    pass


def _cmd_solve(args) -> tuple[str, int]:
    result = nitm_solve(args.n, _nitm_config(args))
    doc = {
        "n": result.n,
        "delta": result.delta,
        "lambda": result.lam,
        "fpp0": result.fpp0,
        "fp_star_inf": result.fp_star_inf,
        "eta_star_inf": args.eta_inf,
        "eta_inf_physical": result.eta_inf_physical,
        "method_tag": result.method_tag,
    }
    return json.dumps(doc, indent=2) + "\n", 0


def _csv_text(header: list[str], rows) -> str:
    """CSV with LF endings; a cell holding a comma or a quote is quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def _key_cell(x: float) -> str:
    """`x` in `:g` form where that reads back as `x`, else `repr(x)`, so that
    rows with different keys never print the same key."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def _fpp0_cell(x: float | None) -> str:
    """Six decimals for 1e-4 <= |x| < 1e6, else six in exponent form, so
    that an answer far from the default boundary's stays short."""
    if x is None:
        return ""
    return f"{x:.6f}" if 1e-4 <= abs(x) < 1e6 else f"{x:.6e}"


def _render_table(rows: list[report.SweepRow]) -> str:
    """Six-decimal CSV rendering of a sweep, for eyeballing (JSON keeps full precision)."""
    header = "n,fpp0_nitm,fpp0_shooting,discrepancy,method,eta_star_inf,eta_inf_physical,error"
    cells = [
        [
            _key_cell(r.n),
            _fpp0_cell(r.fpp0_nitm),
            _fpp0_cell(r.fpp0_shooting),
            "" if r.discrepancy is None else f"{r.discrepancy:.2e}",
            r.method_tag or "",
            "" if r.eta_star_inf is None else _key_cell(r.eta_star_inf),
            "" if r.eta_inf_physical is None else (
                _key_cell(r.eta_inf_physical) if r.fpp0_nitm is None else f"{r.eta_inf_physical:g}"
            ),
            r.error or "",
        ]
        for r in rows
    ]
    return _csv_text(header.split(","), cells)


def _cmd_table(args) -> tuple[str, int]:
    rows = report.sweep_table(_grid(args), args.method, _nitm_config(args))
    if args.format == "json":
        doc = {
            "config": {"method": args.method, "eta_inf": args.eta_inf, "c0": args.c0},
            "rows": [{k: v for k, v in r._asdict().items() if v is not None} for r in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = _render_table(rows)
    return text, 0 if all(r.error is None for r in rows) else 1


def _cmd_verify(args) -> tuple[str, int]:
    config = _nitm_config(args)
    result = nitm_solve(args.n, config)
    # The one-IVP method satisfies f'=1 at the rescaled endpoint, so the
    # shooting run must impose its far-field condition at the same spot.  Its
    # first trial is the one-IVP answer: accepted when that satisfies the
    # physical BVP to shooting's own tolerance (discrepancy 0.0).
    eta_match = result.eta_inf_physical
    try:
        shoot = solve_shooting(
            args.n,
            ShootingConfig(eta_inf=eta_match, integrator=config.integrator),
            start=result.fpp0,
        )
    except OdeError as exc:  # named as `table --method both` names it
        raise type(exc)(f"shooting: {exc}") from None
    discrepancy = report.relative_discrepancy(result.fpp0, shoot.fpp0)
    doc = {
        "n": args.n,
        "fpp0_nitm": result.fpp0,
        "fpp0_shooting": shoot.fpp0,
        "eta_inf_matched": eta_match,
        "discrepancy": discrepancy,
        "residual_at_nitm": shoot.start_residual,
        "tol": args.tol,
        "agree": discrepancy <= args.tol,
    }
    return json.dumps(doc, indent=2) + "\n", 0 if doc["agree"] else 1


def _cmd_sensitivity(args) -> tuple[str, int]:
    try:
        etas = [_positive(x) for x in args.eta_inf_list.split(",") if x]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"bad --eta-inf list: {exc}") from exc
    if not etas:
        raise UsageError("--eta-inf must list at least one boundary")
    records = report.boundary_sensitivity(args.n, etas, _nitm_config(args))
    cells = [[_key_cell(eta), "" if fpp0 is None else repr(fpp0), err or ""] for eta, fpp0, err in records]
    code = 1 if any(err is not None for _, _, err in records) else 0
    return _csv_text(["eta_inf", "fpp0", "error"], cells), code


def _cmd_profile(args) -> tuple[str, int]:
    columns = report.select_columns(tuple(c for c in args.columns.split(",") if c))  # before the solve
    if not columns:
        raise UsageError("--columns must name at least one column")
    result = nitm_solve(args.n, _nitm_config(args))
    return report.export_profile(result, columns), 0


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, code = args.handler(args)
        _emit(text, args.output)
        return code
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
