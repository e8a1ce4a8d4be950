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

The library computes; this module is the one place that formats its output:
JSON on stdout and in ``--report-out``, and every CSV through ``_write_csv``.
``_round_floats`` applies ``--decimals`` to every number in them (default: 12
significant digits; two decimals for the ``--rows-out`` table); ``_parser``
declares it at the top level and for each subcommand.

The CLI reads its tables rather than repeating them: ``states.FAMILIES``
(``--family`` and its flags), ``_SWEEPS`` (``sweep --example``; a family's
interval gives the grid), ``sampler.SAMPLERS`` (``scan --sampler``) and
``TABLE_COLUMNS`` (``--rows-out``, the report's leading sample rows).

The parser is built once per process, at first use rather than at import,
with every subcommand's arguments.  ``build_parser`` gives each call a shallow
copy: argparse's ``parse_args`` does not change a parser, so copies share its
arguments, while an attribute set on one copy stays on that copy.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import json
import sys
from contextlib import nullcontext

import numpy as np

from . import __version__
from .correlations import analytic_gamma, chsh_analysis, correlation_matrix_trace
from .entanglement import analytic_concurrence, concurrence_pure
from .optimizer import OptimizerConfig, optimize_settings
from .sampler import SAMPLERS
from .scan import SAMPLE_ROW_COUNT, ScanConfig, run_scan
from .spin import SPIN_ALGEBRA_TOL, spin_operators, validate_spin_algebra
from .states import (FAMILIES, Example1, Example2, PureState,
                     StateInvariantError, Werner, _read_state, _to_pairs, family_pure,
                     family_state, norm_residuals, physicality_residuals,
                     pure_to_density, state_from_json)

GAP_TOL = 1e-6

# sweep --example: the one-parameter families whose curves sweep writes
_SWEEPS = {"1": Example1, "2": Example2, "werner": Werner}
# scan --rows-out columns: re and im of each amplitude psi_mk (1-based), then gamma
TABLE_COLUMNS = tuple(f"psi{m}{k}_{part}" for m in range(1, 4) for k in range(1, 4)
                      for part in ("re", "im")) + ("gamma",)


class _Parser(argparse.ArgumentParser):
    """An argument parser that exits 1 on malformed flags."""

    # malformed flags are malformed input: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _round_floats(obj, decimals):
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


def _write_csv(path, header, rows) -> None:
    """CSV of a header row and ``rows``, to ``path`` or, with none, to stdout."""
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as out:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)


def _print_formatted(args, payload, header, row) -> None:
    """``payload`` as JSON, or with ``--format csv`` the one-row CSV ``header``, ``row``."""
    if args.format == "csv":
        _write_csv(None, header, [_round_floats(row, args.decimals)])
    else:
        _print_json(payload, args.decimals)


def _family_from_args(args):
    family = FAMILIES[args.family]
    values = [getattr(args, flag.name[2:].replace("-", "_")) for flag in family.flags]
    missing = [flag.name for flag, value in zip(family.flags, values)
               if flag.required and value is None]
    if missing:
        raise ValueError(f"--family {args.family} requires {' '.join(missing)}")
    return family.from_flags(*values)


def _state_from_args(args):
    """(state, spec) for the state source: the PureState or DensityMatrix as
    built, and its family member, None for a state file."""
    if args.family is not None and args.state_file is not None:
        raise ValueError("give either --family or --state-file, not both")
    if args.family is not None:
        spec = _family_from_args(args)
        return (family_pure if spec.pure else family_state)(spec), spec
    if args.state_file is not None:
        with open(args.state_file) as fh:
            data = json.load(fh)
        return state_from_json(data), None
    raise ValueError("a state source is required: --family or --state-file")


def _density(args):
    """The density matrix of the state source."""
    state = _state_from_args(args)[0]
    return pure_to_density(state) if isinstance(state, PureState) else state


def _spin_for(args, dims):
    da, db = dims
    if da != db:
        raise ValueError(f"spin measurements need equal local dimensions, got {dims}")
    inferred = (da - 1) / 2
    if args.spin is not None and args.spin != inferred:
        raise ValueError(f"--spin {args.spin} does not match state dimension {da} (s = {inferred})")
    return inferred


def _analysis(args):
    """(Z, its CHSH analysis) for the state the flags name, Z by the trace route."""
    rho = _density(args)
    Z = correlation_matrix_trace(rho, spin_operators(_spin_for(args, rho.dims)))
    return Z, chsh_analysis(Z)


def _cmd_gamma(args) -> int:
    _, analysis = _analysis(args)
    payload = analysis.to_json()
    _print_formatted(args, payload,
                     ["singular_value_1", "singular_value_2", "singular_value_3",
                      "gamma", "upsilon", "violated"],
                     [*payload["singular_values"], payload["gamma"],
                      payload["upsilon"], payload["violated"]])
    return 3 if analysis.violated else 0


def _cmd_sweep(args) -> int:
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    family = _SWEEPS[args.example]
    header = [family.flags[0].name[2:], "gamma"] + (["concurrence"] if family.pure else [])
    rows = []
    for x in np.linspace(*family.interval, args.points):
        spec = family(float(x))
        row = [float(x), analytic_gamma(spec)]
        if family.pure:
            row.append(analytic_concurrence(spec))
        rows.append(row)
    _write_csv(args.out, header, _round_floats(rows, args.decimals))
    return 0


def _cmd_scan(args) -> int:
    sampler = {"paper": "uniform"}.get(args.sampler, args.sampler)
    cfg = ScanConfig(n_samples=args.n, sampler=sampler, seed=args.seed,
                     histogram_bins=args.hist_bins, workers=args.workers)
    # the table is the report's leading sample rows, so --rows cannot ask
    # for more than the scan keeps
    if not 0 <= args.rows <= SAMPLE_ROW_COUNT:
        bound = ">= 0" if args.rows < 0 else f"<= {SAMPLE_ROW_COUNT}"
        raise ValueError(f"number of rows k = {args.rows} must be {bound}")
    report = run_scan(cfg)
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(_round_floats(report.to_json(), args.decimals), fh, indent=2)
    if args.hist_out:
        _write_csv(args.hist_out, ["bin_lo", "bin_hi", "count"],
                   _round_floats(report.histogram, args.decimals))
    if args.rows_out:
        rows = [[x for pair in _to_pairs(amps) for x in pair] + [gamma]
                for amps, gamma in report.sample_rows[:args.rows]]
        _write_csv(args.rows_out, TABLE_COLUMNS,
                   _round_floats(rows, 2 if args.decimals is None else args.decimals))
    print(f"max_gamma={_round_floats(report.max_gamma, args.decimals)} "
          f"violation_count={report.violation_count}")
    return 0


def _cmd_optimize(args) -> int:
    Z, analysis = _analysis(args)
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
    state, spec = _state_from_args(args)
    if not isinstance(state, PureState):
        raise ValueError("concurrence needs a pure state: a pure --family or an "
                         "amplitude --state-file")
    if args.spin is not None:  # concurrence needs no spin, but a given one must fit
        _spin_for(args, state.dims)
    numeric = concurrence_pure(state)
    analytic = analytic_concurrence(spec) if spec is not None else None
    _print_formatted(args, {"concurrence": numeric, "analytic": analytic},
                     ["concurrence", "analytic"], [numeric, analytic])
    return 0


def _cmd_validate(args) -> int:
    if args.family is None and args.state_file is not None:
        # read as state_from_json reads it, but an unphysical state is reported, not refused
        with open(args.state_file) as fh:
            dims, entries = _read_state(json.load(fh))
        checks = norm_residuals(entries) if entries.ndim == 1 else physicality_residuals(entries)
    else:
        rho = _density(args)
        dims, checks = rho.dims, physicality_residuals(rho.matrix)
    algebra = validate_spin_algebra(spin_operators(_spin_for(args, dims)))
    algebra_ok = max(algebra.values()) <= SPIN_ALGEBRA_TOL
    payload = {"state": checks, "spin_algebra": algebra,
               "spin_algebra_valid": algebra_ok}
    _print_json(payload, args.decimals)
    return 0 if checks["valid"] and algebra_ok else 2


# a flag that two families share (--t) is added once
_FAMILY_FLAGS = tuple({flag.name: flag for family in FAMILIES.values()
                       for flag in family.flags}.values())


def _decimal_places(text) -> int:
    try:
        places = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if places < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {places}")
    return places


def _add_source(p):
    p.add_argument("--family", choices=list(FAMILIES), help="named two-qutrit family")
    p.add_argument("--state-file", metavar="JSON",
                   help="state file with 'dims' plus 'amplitudes' or 'matrix'")
    p.add_argument("--spin", type=float, default=None,
                   help="measured spin (default: inferred from dimensions)")
    for flag in _FAMILY_FLAGS:
        p.add_argument(flag.name, type=flag.type, default=None,
                       help=flag.help, metavar=flag.metavar)


def _formatted_state_arguments(p):
    _add_source(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _sweep_arguments(p):
    p.add_argument("--example", choices=list(_SWEEPS), required=True)
    p.add_argument("--points", type=int, default=101, help="grid size (>= 2)")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")


def _scan_arguments(p):
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--sampler", choices=(*SAMPLERS, "paper"), default="uniform",
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


def _optimize_arguments(p):
    _add_source(p)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--tol", type=float, default=OptimizerConfig.convergence_tol)
    p.add_argument("--seed", type=int, default=0)


# subcommand: (help, function, arguments), in the order --help lists them
_COMMANDS = {
    "gamma": ("CHSH parameter of a state", _cmd_gamma, _formatted_state_arguments),
    "sweep": ("curve data for the one-parameter families", _cmd_sweep, _sweep_arguments),
    "scan": ("Monte Carlo scan over random pure two-qutrit states", _cmd_scan, _scan_arguments),
    "optimize": ("maximize the CHSH expectation over settings", _cmd_optimize,
                 _optimize_arguments),
    "concurrence": ("pure-state concurrence", _cmd_concurrence, _formatted_state_arguments),
    "validate": ("invariant checks for a state and the spin algebra", _cmd_validate,
                 _add_source),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinchsh",
                     description="CHSH maxima under local spin measurements on two-qudit states")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--decimals", type=_decimal_places, default=None, help=argparse.SUPPRESS)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (summary, func, arguments) in _COMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        # accepted both before and after the subcommand; SUPPRESS keeps the
        # subparser from clobbering a value parsed at the top level
        sub.add_argument("--decimals", type=_decimal_places, default=argparse.SUPPRESS,
                         help="round printed floats to this many decimal places "
                              "(default: 12 significant digits)")
        arguments(sub)
        sub.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """A new shallow copy of the parser built at first use.

    Set attributes on it freely, but add no arguments, subcommands or
    defaults: every copy shares those."""
    return copy.copy(_parser())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StateInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
