"""Command line front end.

Subcommands expose the library analyses with JSON/CSV output:

  gamma        CHSH parameter of a state (exit 3 if the inequality is violated)
  sweep        curve data (gamma, concurrence) for the one-parameter families
  scan         Monte Carlo scan over random pure two-qutrit states
  optimize     direct maximization over measurement directions vs closed form
  concurrence  pure-state concurrence
  validate     invariant checks for states and spin operators

Exit codes: 0 success, 1 malformed input or flags, 2 invariant failure,
3 CHSH violation detected by ``gamma``, 4 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .correlations import (analytic_curves, analytic_gamma, chsh_analysis,
                           correlation_matrix_trace)
from .entanglement import analytic_concurrence, concurrence_pure
from .optimizer import OptimizerConfig, optimize_settings
from .scan import (ScanConfig, run_scan, table_rows, write_histogram_csv,
                   write_sample_rows_csv)
from .spin import SPIN_ALGEBRA_TOL, spin_operators, validate_spin_algebra
from .states import (FAMILIES, Example1, Example2, PureState,
                     StateInvariantError, Werner, _read_state, family_pure,
                     family_state, norm_residuals, physicality_residuals,
                     pure_to_density, state_from_json)

GAP_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    # malformed flags are malformed input: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _round_floats(obj, decimals):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if decimals is None:
            return float(f"{obj:.12g}")
        return round(obj, decimals)
    if isinstance(obj, dict):
        return {k: _round_floats(v, decimals) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, decimals) for v in obj]
    return obj


def _print_json(obj, decimals):
    print(json.dumps(_round_floats(obj, decimals), indent=2))


def _family_from_args(args):
    family = FAMILIES[args.family]
    values = [getattr(args, flag.name[2:].replace("-", "_")) for flag in family.flags]
    missing = [flag.name for flag, value in zip(family.flags, values)
               if flag.required and value is None]
    if missing:
        raise ValueError(f"--family {args.family} requires {' '.join(missing)}")
    return family.from_flags(*values)


def _state_from_args(args):
    """Resolve the state source to (density, spec-or-None, pure-or-None)."""
    if args.family is not None and args.state_file is not None:
        raise ValueError("give either --family or --state-file, not both")
    if args.family is not None:
        spec = _family_from_args(args)
        pure = family_pure(spec) if spec.pure else None
        return family_state(spec), spec, pure
    if args.state_file is not None:
        with open(args.state_file) as fh:
            data = json.load(fh)
        obj = state_from_json(data)
        if isinstance(obj, PureState):
            return pure_to_density(obj), None, obj
        return obj, None, None
    raise ValueError("a state source is required: --family or --state-file")


def _spin_for(args, rho):
    da, db = rho.dims
    if da != db:
        raise ValueError(f"spin measurements need equal local dimensions, got {rho.dims}")
    inferred = (da - 1) / 2
    if args.spin is not None and args.spin != inferred:
        raise ValueError(f"--spin {args.spin} does not match state dimension {da} (s = {inferred})")
    return inferred


def _cmd_gamma(args) -> int:
    rho, _, _ = _state_from_args(args)
    ops = spin_operators(_spin_for(args, rho))
    analysis = chsh_analysis(correlation_matrix_trace(rho, ops))
    payload = analysis.to_json()
    if args.format == "csv":
        keys = ["singular_value_1", "singular_value_2", "singular_value_3",
                "gamma", "upsilon", "violated"]
        values = [*payload["singular_values"], payload["gamma"],
                  payload["upsilon"], payload["violated"]]
        print(",".join(keys))
        print(",".join(str(_round_floats(v, args.decimals)) for v in values))
    else:
        _print_json(payload, args.decimals)
    return 3 if analysis.violated else 0


def _cmd_sweep(args) -> int:
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    rows = []
    if args.example == "werner":
        header = ["phi", "gamma"]
        for phi in np.linspace(-1.0, 1.0, args.points):
            rows.append([float(phi), analytic_gamma(Werner(float(phi)))])
    else:
        family = Example1 if args.example == "1" else Example2
        header = ["t", "gamma", "concurrence"]
        for t in np.linspace(0.0, 1.0, args.points):
            gamma, conc = analytic_curves(family(float(t)))
            rows.append([float(t), gamma, conc])
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_round_floats(v, args.decimals) for v in row])
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_scan(args) -> int:
    sampler = {"paper": "uniform"}.get(args.sampler, args.sampler)
    cfg = ScanConfig(n_samples=args.n, sampler=sampler, seed=args.seed,
                     histogram_bins=args.hist_bins, workers=args.workers)
    report = run_scan(cfg)
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(_round_floats(report.to_json(), args.decimals), fh, indent=2)
    if args.hist_out:
        write_histogram_csv(args.hist_out, report)
    if args.rows_out:
        rows = table_rows(cfg, min(args.rows, cfg.n_samples),
                          decimals=2 if args.decimals is None else args.decimals)
        write_sample_rows_csv(args.rows_out, rows)
    print(f"max_gamma={_round_floats(report.max_gamma, args.decimals)} "
          f"violation_count={report.violation_count}")
    return 0


def _cmd_optimize(args) -> int:
    rho, _, _ = _state_from_args(args)
    ops = spin_operators(_spin_for(args, rho))
    Z = correlation_matrix_trace(rho, ops)
    analysis = chsh_analysis(Z)
    cfg = OptimizerConfig(max_iterations=args.max_iter, convergence_tol=args.tol,
                          restarts=args.restarts, seed=args.seed)
    result = optimize_settings(Z, cfg)
    gap = abs(result.value - analysis.upsilon)
    payload = {
        "upsilon_analytic": analysis.upsilon,
        "optimized_value": result.value,
        "gap": gap,
        "iterations": result.iterations,
        "converged": result.converged,
        "setting": {
            "a1": list(result.setting.a1), "a2": list(result.setting.a2),
            "b1": list(result.setting.b1), "b2": list(result.setting.b2),
        },
    }
    _print_json(payload, args.decimals)
    if not result.converged:
        return 4
    return 0 if gap <= GAP_TOL else 2


def _cmd_concurrence(args) -> int:
    _, spec, pure = _state_from_args(args)
    if pure is None:
        raise ValueError("concurrence needs a pure state: a pure --family or an "
                         "amplitude --state-file")
    numeric = concurrence_pure(pure)
    analytic = analytic_concurrence(spec) if spec is not None else None
    payload = {"concurrence": numeric, "analytic": analytic}
    if args.format == "csv":
        print("concurrence,analytic")
        print(f"{_round_floats(numeric, args.decimals)},"
              f"{_round_floats(analytic, args.decimals) if analytic is not None else ''}")
    else:
        _print_json(payload, args.decimals)
    return 0


def _cmd_validate(args) -> int:
    if args.family is None and args.state_file is not None:
        # read as state_from_json reads it, but an unphysical state is reported, not refused
        with open(args.state_file) as fh:
            _, entries = _read_state(json.load(fh))
        checks = norm_residuals(entries) if entries.ndim == 1 else physicality_residuals(entries)
    else:
        checks = physicality_residuals(_state_from_args(args)[0].matrix)
    s = args.spin if args.spin is not None else 1.0
    algebra = validate_spin_algebra(spin_operators(s))
    algebra_ok = max(algebra.values()) <= SPIN_ALGEBRA_TOL
    payload = {"state": checks, "spin_algebra": algebra,
               "spin_algebra_valid": algebra_ok}
    _print_json(payload, args.decimals)
    return 0 if checks["valid"] and algebra_ok else 2


def _add_state_source(sub):
    sub.add_argument("--family", choices=list(FAMILIES),
                     help="named two-qutrit family")
    sub.add_argument("--state-file", metavar="JSON",
                     help="state file with 'dims' plus 'amplitudes' or 'matrix'")
    sub.add_argument("--spin", type=float, default=None,
                     help="measured spin (default: inferred from dimensions)")
    # a flag that two families share (--t) is added once
    flags = {flag.name: flag for family in FAMILIES.values() for flag in family.flags}
    for flag in flags.values():
        sub.add_argument(flag.name, type=flag.type, default=None,
                         help=flag.help, metavar=flag.metavar)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinchsh",
                     description="CHSH maxima under local spin measurements on two-qudit states")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # accepted both before and after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level
    decimals = _Parser(add_help=False)
    decimals.add_argument("--decimals", type=int, default=argparse.SUPPRESS,
                          help="round printed floats to this many decimal places "
                               "(default: 12 significant digits)")
    parser.add_argument("--decimals", type=int, default=None, help=argparse.SUPPRESS)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gamma", parents=[decimals], help="CHSH parameter of a state")
    _add_state_source(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_gamma)

    p = subs.add_parser("sweep", parents=[decimals],
                        help="curve data for the one-parameter families")
    p.add_argument("--example", choices=("1", "2", "werner"), required=True)
    p.add_argument("--points", type=int, default=101, help="grid size (>= 2)")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("scan", parents=[decimals],
                        help="Monte Carlo scan over random pure two-qutrit states")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--sampler", choices=("uniform", "haar", "paper"), default="uniform",
                   help="uniform: re/im parts uniform on [0,1) (alias: paper); "
                        "haar: rotation-invariant Gaussian")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hist-bins", type=int, default=40)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--report-out", metavar="JSON", default=None)
    p.add_argument("--hist-out", metavar="CSV", default=None)
    p.add_argument("--rows-out", metavar="CSV", default=None)
    p.add_argument("--rows", type=int, default=50,
                   help="number of leading samples for --rows-out")
    p.set_defaults(func=_cmd_scan)

    p = subs.add_parser("optimize", parents=[decimals],
                        help="maximize the CHSH expectation over settings")
    _add_state_source(p)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--tol", type=float, default=OptimizerConfig.convergence_tol)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_optimize)

    p = subs.add_parser("concurrence", parents=[decimals], help="pure-state concurrence")
    _add_state_source(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_concurrence)

    p = subs.add_parser("validate", parents=[decimals],
                        help="invariant checks for a state and the spin algebra")
    _add_state_source(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StateInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
