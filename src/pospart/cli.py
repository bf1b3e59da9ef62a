"""Command-line interface.

Four subcommands: ``moment`` for a single positive-part moment, ``pin`` and
``curve`` for the tail bound, ``validate`` for the oracle cross-check suites.
Data rows go to stdout as CSV (or JSON objects with --format json), all
diagnostics to stderr.  Exit codes: 0 success, 2 usage or precondition
error, 3 numerical failure (a failing ``validate`` check included; its FAIL
lines say which).  ``main`` alone maps the package's exceptions to exit
codes: the subcommands raise, and it prints the one message line.

Numbers are printed with 17 significant digits, '.' decimal separator, no
locale dependence, so identical flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import PositivePartError, PreconditionError, SpecParseError
from .moments import match_discrete, ppm_cf, ppm_diff, ppm_laplace, ppm_negative_s
from .specparse import parse_spec
from .tailbound import TailBoundProblem, pin, pin_curve
from .validate import run_suite

__all__ = ["main", "console_main"]

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_NUMERICAL = 3
_TAIL_FIELDS = ["x", "t_x", "pin", "mu2", "mu3", "residual"]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _emit(rows: list[dict], header: list[str], fmt: str, out_path, header_row: bool = True) -> int:
    lines = []
    if fmt == "csv":
        if header_row:
            lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(row[k]) if isinstance(row[k], float) else str(row[k])
                                  for k in header))
    else:
        for row in rows:
            lines.append(json.dumps({k: row[k] for k in header}))
    text = "\n".join(lines) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return _EXIT_OK
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return _EXIT_USAGE
    return _EXIT_OK


def _cmd_moment(args) -> int:
    spec = parse_spec(args.dist)
    if args.other is not None and args.method != "diff":
        raise PreconditionError(f"--other applies to --method diff only, not {args.method}")
    line = args.method in ("laplace", "negative")
    for flag in ("s", "j"):
        if getattr(args, flag) is not None and not line:
            raise PreconditionError(f"--{flag} applies to --method laplace and negative only, "
                                    f"not {args.method}")
    if line:
        route, s = (ppm_laplace, 1.0) if args.method == "laplace" else (ppm_negative_s, -1.0)
        result = route(spec, args.p, s if args.s is None else args.s,
                       -1 if args.j is None else args.j, args.rel_tol)
    elif args.method == "cf":
        result = ppm_cf(spec, args.p, args.rel_tol)
    else:
        other = parse_spec(args.other) if args.other else match_discrete(spec, args.p)
        result = ppm_diff(spec, other, args.p, args.rel_tol)
    quad = result.quadrature
    row = {
        "value": result.value,
        "err_est": result.prefactor * quad.err_est,
        "tail_bound": result.prefactor * quad.tail_bound + result.extra_error,
        "evaluations": quad.evaluations,
    }
    return _emit([row], ["value", "err_est", "tail_bound", "evaluations"], args.format,
                 args.out, header_row=False)


def _tail_rows(results) -> list[dict]:
    return [{k: getattr(r, k) for k in _TAIL_FIELDS} for r in results]


def _cmd_pin(args) -> int:
    problem = TailBoundProblem(args.sigma, args.y, args.eps)
    row = pin(problem, args.x, rel_tol=args.rel_tol, tol_x=args.tol_x)
    return _emit(_tail_rows([row]), _TAIL_FIELDS, args.format, args.out)


def _cmd_curve(args) -> int:
    problem = TailBoundProblem(args.sigma, args.y, args.eps)
    rows = pin_curve(problem, args.x_min, args.x_max, args.steps,
                     rel_tol=args.rel_tol, tol_x=args.tol_x)
    failures = [r for r in rows if r.is_failure()]
    for r in failures:
        print(f"note: x={r.x:g} failed: {r.error}", file=sys.stderr)
    code = _emit(_tail_rows(rows), _TAIL_FIELDS, args.format, args.out)
    return code or (_EXIT_OK if len(failures) < len(rows) else _EXIT_NUMERICAL)


def _cmd_validate(args) -> int:
    checks = run_suite(args.suite, args.seed)
    width = max(len(c.check_id) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.check_id.ljust(width)}  {status}  {c.label} ({c.detail})")
    return _EXIT_OK if all(c.passed for c in checks) else _EXIT_NUMERICAL


class _Parser(argparse.ArgumentParser):
    """argparse reads "-0.5" as a value but "-1e-05" or "-inf" as an option,
    which left "--x-min -1e-05" and "--s -inf" without their argument.  No
    option here starts with a digit or is named inf, so a token is a number
    when "-" is followed by a digit, by "." and a digit, or by all of "inf"
    or "infinity" in any case."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf(inity)?$)", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pospart",
        description="Positive-part moments from transforms, and the optimal "
                    "tail bound for sums of bounded random variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mom = sub.add_parser("moment", help="one positive-part moment as a CSV row")
    mom.add_argument("--dist", required=True, help="distribution spec string")
    mom.add_argument("--p", type=float, required=True, help="moment order")
    mom.add_argument("--method", choices=("laplace", "cf", "diff", "negative"),
                     default="cf")
    mom.add_argument("--s", type=float, default=None,
                     help="line offset for laplace/negative (default 1.0 / -1.0)")
    mom.add_argument("--j", type=int, default=None,
                     help="remainder order for laplace/negative (default -1)")
    mom.add_argument("--other", default=None,
                     help="companion spec for --method diff (default: moment-matched atoms)")
    mom.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-9)
    mom.add_argument("--format", choices=("csv", "json"), default="csv")
    mom.add_argument("--out", default=None, help="write output to a file")
    mom.set_defaults(func=_cmd_moment)

    for name, help_text in (("pin", "tail bound at one level"),
                            ("curve", "tail bound on a uniform grid")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--sigma", type=float, required=True)
        cmd.add_argument("--y", type=float, required=True)
        cmd.add_argument("--eps", type=float, required=True)
        if name == "pin":
            cmd.add_argument("--x", type=float, required=True)
        else:
            cmd.add_argument("--x-min", dest="x_min", type=float, required=True)
            cmd.add_argument("--x-max", dest="x_max", type=float, required=True)
            cmd.add_argument("--steps", type=int, required=True)
        cmd.add_argument("--tol-x", dest="tol_x", type=float, default=1e-9)
        cmd.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-9)
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument("--out", default=None)
        cmd.set_defaults(func=_cmd_pin if name == "pin" else _cmd_curve)

    val = sub.add_parser("validate", help="run the oracle cross-check suite")
    val.add_argument("--suite", choices=("quick", "full"), default="quick")
    val.add_argument("--seed", type=int, default=0)
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SpecParseError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except PositivePartError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except ArithmeticError as exc:
        # float overflow or division by zero from extreme inputs; an
        # OverflowError from ** carries (errno, text) as its arguments
        text = exc.args[-1] if exc.args else ""
        print(f"numerical failure: {type(exc).__name__}: {text}", file=sys.stderr)
        return _EXIT_NUMERICAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
