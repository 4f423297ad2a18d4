"""Command-line front door.

Subcommands
-----------
estimate   price CSV -> validated params JSON (moments of excess returns)
solve      params JSON + gamma -> solver report JSON (one method or all)
compare    full simulation study: long-form CSV, ECDF files, nested JSON
frontier   gamma sweep of closed-form mean/variance plus the tangency row

Exit codes follow the exception classes of :mod:`crra_opt.errors`: 0
success, 2 I/O or usage error, 3 validation error, 4 gamma below the
admissibility bound (the bound is printed), 5 any solver failure (not
converged, no feasible step, non-finite iterate, no feasible scenario, no
maximizer).  ``solve --method all`` and ``compare`` name each failed method
or cell on stderr and exit 5 only if all failed.  Input files are UTF-8, a
leading byte-order mark allowed.  Identical invocations over identical files produce
byte-identical outputs.  Seeds are required for every stochastic command.
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys
from pathlib import Path

import numpy as np

from .closed_form import solve_analytical, tangency
from .errors import CrraOptError, GammaBelowBound, ValidationError, require_int
from .gradient import STEP_MAX, STEP_MIN, GdConfig
from .market import (
    RiskAversion,
    estimate_params,
    gamma_lower_bound,
    read_params_json,
    read_price_csv,
    require_admissible_gamma,
    write_params_json,
)
from .reports import (
    EcdfWriters,
    comparison_report_dict,
    dumps_json,
    human_comparison_table,
    solver_report_dict,
    write_comparison_csv,
    write_text,
)
from .simulation import METHODS, compare, fmt_gamma, simulate, solve_methods
from .taylor import TaylorConfig

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_GAMMA_BOUND = 4
EXIT_SOLVER_FAILED = 5

# argparse reads "-1e3", "-inf" or "-5,10" after a flag as an unknown option
# (exit 2), not as the value "--flag=-1e3" gives; each subcommand takes such
# a token as a value through argparse's private negative-number pattern.
NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crra-opt",
        description="Single-period power-utility portfolio solvers and the "
                    "simulation study comparing them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate excess-return moments from a price CSV")
    est.add_argument("--prices", required=True, type=Path,
                     help="price CSV with header date,<name1>,...,<namek>")
    est.add_argument("--rf", required=True, type=float,
                     help="per-period net risk-free rate")
    est.add_argument("--out", required=True, type=Path, help="params JSON output path")
    est.set_defaults(func=cmd_estimate)

    slv = sub.add_parser("solve", help="solve for optimal weights at one gamma")
    slv.add_argument("--params", required=True, type=Path, help="params JSON path")
    slv.add_argument("--gamma", required=True, type=float, help="relative risk aversion")
    slv.add_argument("--method", choices=(*METHODS, "all"),
                     default="analytical", help="solver to run (default: %(default)s)")
    slv.add_argument("--samples", type=int, default=None,
                     help="scenario count for gd/taylor (required for those methods)")
    slv.add_argument("--seed", type=int, default=None,
                     help="scenario seed for gd/taylor (required for those methods)")
    _add_solver_flags(slv)
    slv.add_argument("--out", type=Path, default=None,
                     help="report JSON path (default: print to stdout)")
    slv.set_defaults(func=cmd_solve)

    cmp_ = sub.add_parser("compare", help="run the full three-method comparison study")
    cmp_.add_argument("--params", required=True, type=Path, help="params JSON path")
    cmp_.add_argument("--gammas", required=True,
                      help="comma-separated risk aversions, e.g. 5,10,15,20")
    cmp_.add_argument("--samples", required=True, type=int, help="scenario count N")
    cmp_.add_argument("--seed", required=True, type=int, help="scenario seed")
    _add_solver_flags(cmp_)
    cmp_.add_argument("--ecdf-points", type=int, default=256,
                      help="grid points per ECDF table (default: %(default)s)")
    cmp_.add_argument("--outdir", required=True, type=Path,
                      help="directory for comparison.csv, comparison.json and ECDF files")
    cmp_.set_defaults(func=cmd_compare)

    fro = sub.add_parser("frontier", help="sweep closed-form mean/variance over gamma")
    fro.add_argument("--params", required=True, type=Path, help="params JSON path")
    fro.add_argument("--gamma-from", required=True, type=float, help="sweep start")
    fro.add_argument("--gamma-to", required=True, type=float, help="sweep end")
    fro.add_argument("--steps", type=int, default=50, help="grid size (default: %(default)s)")
    fro.add_argument("--out", required=True, type=Path, help="frontier CSV path")
    fro.set_defaults(func=cmd_frontier)
    for cmd in sub.choices.values():
        cmd._negative_number_matcher = NEGATIVE_NUMBER
        cmd.set_defaults(parser=cmd)
    return parser


def _add_solver_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--eta", type=float, default=GdConfig.eta,
                     help="gd's first step along M2's stiffest direction; its later, "
                          f"spectral steps stay within [{STEP_MIN:g}, {STEP_MAX:g}] x eta "
                          "(default: auto, matched to the sampled curvature at the start)")
    cmd.add_argument("--tol", type=float, default=GdConfig.tol,
                     help="gd stops when the gradient's norm in its step metric, "
                          "sqrt(g' M2^-1 g), is at most this; the norm does not "
                          "change when the returns are rescaled (default: %(default)s)")
    cmd.add_argument("--max-iter", type=int, default=GdConfig.max_iter,
                     help="gd iteration cap (default: %(default)s)")
    cmd.add_argument("--taylor-tol", type=float, default=TaylorConfig.tol,
                     help="fixed-point step threshold (default: %(default)s)")
    cmd.add_argument("--taylor-max-iter", type=int, default=TaylorConfig.max_iter,
                     help="fixed-point iteration cap (default: %(default)s)")


def cmd_estimate(args) -> int:
    series = read_price_csv(args.prices)
    params = estimate_params(series, args.rf)
    write_params_json(params, args.out)
    bound = gamma_lower_bound(params)
    print(f"assets k = {params.k}")
    print(f"observations T = {series.t}")
    print("mu = " + " ".join(f"{x:.6g}" for x in params.mu))
    print("diag(sigma) = " + " ".join(f"{x:.6g}" for x in np.diag(params.sigma)))
    print(f"gamma lower bound 1+4J = {bound:.6g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _solver_configs(args) -> tuple[GdConfig, TaylorConfig]:
    """gd and Taylor settings from the flags of :func:`_add_solver_flags`."""
    return (
        GdConfig(eta=args.eta, tol=args.tol, max_iter=args.max_iter),
        TaylorConfig(tol=args.taylor_tol, max_iter=args.taylor_max_iter),
    )


def cmd_solve(args) -> int:
    params = read_params_json(args.params)
    ra = RiskAversion(args.gamma)
    gd_cfg, taylor_cfg = _solver_configs(args)
    every = args.method == "all"
    methods = tuple(METHODS) if every else (args.method,)
    if "analytical" in methods:  # the bound binds the closed form alone; check it before the draw
        require_admissible_gamma(params, ra.gamma)
    scenarios = None
    if methods != ("analytical",):
        if args.samples is None or args.seed is None:
            raise ValidationError(f"--method {args.method} requires --samples and --seed")
        scenarios = simulate(params, args.samples, args.seed)
    # Under "all", as in compare, a failed method's error takes its place
    # and is named on stderr after the output.
    solved = solve_methods(methods, params, scenarios, ra, gd_cfg, taylor_cfg)
    failed = {m: exc for m, exc in solved.items() if isinstance(exc, CrraOptError)}
    if failed and not every:
        raise failed[args.method]
    payload = {m: {"error": str(r), "method": m} if m in failed else solver_report_dict(m, r)
               for m, r in solved.items()}
    if every:
        weights = {m: r.weights for m, r in solved.items() if m not in failed}
        payload["weight_distance_inf"] = {
            f"{a}_{b}": float(np.max(np.abs(weights[a] - weights[b])))
            for a, b in itertools.combinations(weights, 2)
        }
    text = dumps_json(payload if every else payload[args.method])
    if args.out is not None:
        write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    for m, exc in failed.items():
        print(f"method {m} failed: {exc}", file=sys.stderr)
    if len(failed) == len(methods):
        print("every method failed", file=sys.stderr)
        return EXIT_SOLVER_FAILED
    return EXIT_OK


def cmd_compare(args) -> int:
    params = read_params_json(args.params)
    try:
        gammas = [float(tok) for tok in args.gammas.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"--gammas must be comma-separated numbers, got {args.gammas!r}")
    gd_cfg, taylor_cfg = _solver_configs(args)
    outdir = Path(args.outdir)
    # The writers start before compare starts its threads.  Where they fork
    # processes, those write each gamma's ECDF files while the others are
    # still being solved; where they fork none, the files are written on
    # leaving the block, after comparison.{csv,json}.
    tables = 2 * len(METHODS) * len(gammas)
    with EcdfWriters.start(outdir, tables, tables * args.ecdf_points) as writers:
        report = compare(
            params, gammas, n=args.samples, seed=args.seed, gd_cfg=gd_cfg,
            taylor_cfg=taylor_cfg, ecdf_points=args.ecdf_points, ecdf_sink=writers,
        )
        outdir.mkdir(parents=True, exist_ok=True)
        write_comparison_csv(report, outdir / "comparison.csv")
        write_text(outdir / "comparison.json", dumps_json(comparison_report_dict(report)))
    print(human_comparison_table(report))
    print(f"wrote {outdir / 'comparison.csv'}")
    print(f"wrote {outdir / 'comparison.json'}")
    print(f"wrote {writers.files} ECDF files to {outdir}")
    failed = {key: cell.error for key, cell in report.cells.items() if cell.failed}
    for (g, method), error in failed.items():
        print(f"cell gamma={fmt_gamma(g)} method={method} failed: {error}", file=sys.stderr)
    if len(failed) == len(report.cells):
        print("every cell failed", file=sys.stderr)
        return EXIT_SOLVER_FAILED
    return EXIT_OK


def cmd_frontier(args) -> int:
    params = read_params_json(args.params)
    require_admissible_gamma(params, args.gamma_from)
    if not args.gamma_from <= args.gamma_to < np.inf:  # so --gamma-from is finite too
        raise ValidationError("--gamma-from and --gamma-to must be finite, from <= to")
    require_int("--steps", args.steps, 1)
    grid = np.linspace(args.gamma_from, args.gamma_to, args.steps)
    lines = ["gamma,mean_excess,variance,tangency"]
    for g in grid:
        g = float(g)
        sol = solve_analytical(params, RiskAversion(g))
        lines.append(f"{g!r},{sol.expected_excess_return!r},{sol.variance!r},false")
    tgc = tangency(params)
    mean = float(tgc.weights @ params.mu)
    variance = float(tgc.weights @ params.sigma @ tgc.weights)
    lines.append(f"{tgc.gamma_tgc!r},{mean!r},{variance!r},true")
    write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse drops the "--" of "--flag=--" and hands the flag [] without
    # calling its type; every flag here takes one value, so a list is a usage error.
    for name, value in vars(args).items():
        if isinstance(value, list):
            args.parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    # The exception's class alone picks the exit code, most specific first.
    try:
        return args.func(args)
    except GammaBelowBound as exc:
        print(f"error: {exc} (bound = {exc.bound:.6f})", file=sys.stderr)
        return EXIT_GAMMA_BOUND
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CrraOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
