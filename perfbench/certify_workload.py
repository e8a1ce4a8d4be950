"""Certify workload: a closed loop of in-process ``spinchsh.cli.main`` calls.

One client cycles through a seeded list of ``gamma``, ``optimize``,
``concurrence`` and ``validate`` calls.  The list covers the one-parameter
families on a fixed grid, seeded antisym, sym and product members, random
pure states at s = 1/2, 1, 3/2 and 2 and random mixed two-qutrit states
(both as ``--state-file``s written at set-up), and two invalid states for
``validate``.  Its make-up is the same for every seed; only the seeded
states and the call order change.  It never enters ``spinchsh.scan``.

Every expected result is worked out at set-up by a route other than the
command's: closed forms for the families, a pure-state contraction for
random pure states, and the coefficient-tensor route for mixed states.
"""

import io
import json
import math
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from statistics import median
from time import perf_counter

import numpy as np

from spinchsh import cli
from spinchsh.correlations import (VIOLATION_TOL, analytic_gamma,
                                   correlation_matrix_coeff)
from spinchsh.entanglement import analytic_concurrence
from spinchsh.spin import spin_operators
from spinchsh.states import (GHZ3, Antisym, DensityMatrix, Example1, Example2,
                             Horodecki, Product, Sym, Werner)

from tracing import MIN_TRACED_PAIRS, patched, total

# Printed floats carry 12 significant digits.
VALUE_TOL = 1e-9
# An optimize call that uses up --max-iter (exit 4) must still be within
# this share of the closed form.  The ascent is slow only where the values
# it is choosing between differ little, so what is left after 500 sweeps is
# small: 1.8e-5 of upsilon at most over the workload's seeds 0 to 149 and
# 950570653, 9.8e-5 at most over a sweep of near-degenerate 3x3 matrices.
# A broken ascent lands tens of percent away.
UNCONVERGED_REL_GAP = 1e-2
# Share of the list's optimize calls that may exit 4.  Over seeds 0 to 149
# no list had more than one of its 107.
MAX_UNCONVERGED_SHARE = 0.05
# The optimizer's cost has a heavy tail: states whose top singular values
# nearly coincide take hundreds of sweeps.  The one-parameter families sit
# on a fixed grid, and there are enough random states of each kind that
# the mean call changes little from seed to seed.
GRID_POINTS = 6             # werner, horodecki, example1, example2 each
COEFFICIENT_STATES = 12     # antisym and sym members each
PRODUCT_STATES = 6
SPINS = (0.5, 1.0, 1.5, 2.0)
PURE_PER_SPIN = 10
MIXED_RANKS = (2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 9, 9)

# Public functions ``spinchsh.cli`` calls, by the layer span they report to.
CLI_LAYERS = {
    "family_state": "states.build",
    "family_pure": "states.build",
    "pure_to_density": "states.build",
    "state_from_json": "states.build",
    "spin_operators": "spin.operators",
    "validate_spin_algebra": "spin.operators",
    "correlation_matrix_trace": "correlations.trace",
    "chsh_analysis": "correlations.analysis",
    "concurrence_pure": "entanglement.concurrence",
    "analytic_concurrence": "entanglement.concurrence",
    "optimize_settings": "optimizer.optimize",
}


@dataclass
class Call:
    """One CLI invocation and what a correct program answers."""

    argv: list
    exit_code: int              # None for optimize: 0 if converged, else 4
    gamma: float = None
    upsilon: float = None       # optimize: 2 s^2 gamma
    max_iter: int = None        # optimize: the CLI's --max-iter for this call
    concurrence: float = None
    analytic: float = None      # concurrence of a named family, by closed form
    valid: bool = None          # validate: the expected state verdict


def _grid(lo, hi) -> list:
    return [float(x) for x in np.linspace(lo, hi, GRID_POINTS)]


def _unit_complex(rng, k) -> list:
    z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return [complex(c) for c in z / np.linalg.norm(z)]


def _random_density(rng, d, rank) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / rho.trace().real


def _pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.ravel(values)]


def _gamma_of(z, s) -> float:
    sv = np.linalg.svd(z, compute_uv=False)
    return math.hypot(sv[0], sv[1]) / (s * s)


def contraction_gamma(amplitudes, d) -> float:
    """gamma of a pure state from <psi| S_i (x) S_j |psi> contracted directly."""
    s = (d - 1) / 2
    S = spin_operators(s).components
    A = amplitudes.reshape(d, d)
    z = np.einsum("ab,iac,jbd,cd->ij", A.conj(), S, S, A).real
    return _gamma_of(z, s)


def purity_concurrence(amplitudes, d) -> float:
    A = amplitudes.reshape(d, d)
    reduced = A @ A.conj().T
    return math.sqrt(max(0.0, 2 * (1 - np.sum(np.abs(reduced) ** 2))))


def gamma_exit(gamma) -> int:
    return 3 if gamma > 1 + VIOLATION_TOL else 0


class CertifyWorkload:
    MIN_CALLS = 100

    def __init__(self, name, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.calls = []
        # (index into calls, exit code, stdout) -> times seen; identical
        # answers are stored once so the loop's memory stays flat
        self.outputs = {}

    @property
    def pass_length(self) -> int:
        return len(self.calls)

    def warm_up(self):
        with redirect_stdout(io.StringIO()):
            cli.main(["gamma", "--family", "ghz3"])

    def write(self, name, data) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(data))
        return str(path)

    def family_sources(self, rng) -> list:
        """(flags, spec) for every named family."""
        sources = [(["--family", "ghz3"], GHZ3())]
        for _ in range(COEFFICIENT_STATES):
            a = _unit_complex(rng, 3)
            sources.append((["--family", "antisym", "--alpha12", repr(a[0]),
                             "--alpha13", repr(a[1]), "--alpha23", repr(a[2])], Antisym(*a)))
            a = _unit_complex(rng, 3)
            sources.append((["--family", "sym", "--alpha11", repr(a[0]),
                             "--alpha22", repr(a[1]), "--alpha33", repr(a[2])], Sym(*a)))
        sources += [(["--family", "werner", f"--phi={p!r}"], Werner(p))
                    for p in _grid(-1.0, 1.0)]
        sources += [(["--family", "horodecki", f"--tau={t!r}"], Horodecki(t))
                    for t in _grid(2.0, 5.0)]
        for family, cls in (("example1", Example1), ("example2", Example2)):
            sources += [(["--family", family, f"--t={t!r}"], cls(t))
                        for t in _grid(0.0, 1.0)]
        for j in range(PRODUCT_STATES):
            rho_a, rho_b = _random_density(rng, 3, 3), _random_density(rng, 3, 2)
            flags = ["--family", "product",
                     "--state-a", self.write(f"product{j}a.json", {"matrix": _pairs(rho_a)}),
                     "--state-b", self.write(f"product{j}b.json", {"matrix": _pairs(rho_b)})]
            sources.append((flags, Product(rho_a, rho_b)))
        return sources

    def prepare(self):
        """Write the state files and the seeded call list with its expectations."""
        rng = np.random.default_rng(self.seed)
        calls = []
        for k, (flags, spec) in enumerate(self.family_sources(rng)):
            gamma = analytic_gamma(spec)
            calls += [Call(["gamma", *flags], gamma_exit(gamma), gamma=gamma),
                      Call(["optimize", *flags, "--seed", str(k)], None, upsilon=2 * gamma),
                      Call(["validate", *flags], 0, valid=True)]
            if not isinstance(spec, (Werner, Horodecki, Product)):
                conc = analytic_concurrence(spec)
                calls.append(Call(["concurrence", *flags], 0, concurrence=conc, analytic=conc))
        for s in SPINS:
            d = int(2 * s + 1)
            for j in range(PURE_PER_SPIN):
                amps = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
                amps /= np.linalg.norm(amps)
                path = self.write(f"pure{d}_{j}.json", {"dims": [d, d], "amplitudes": _pairs(amps)})
                gamma = contraction_gamma(amps, d)
                calls += [Call(["gamma", "--state-file", path], gamma_exit(gamma), gamma=gamma),
                          Call(["optimize", "--state-file", path, "--seed", str(j)], None,
                               upsilon=2 * s * s * gamma),
                          Call(["validate", "--state-file", path, "--spin", str(s)], 0, valid=True),
                          Call(["concurrence", "--state-file", path], 0,
                               concurrence=purity_concurrence(amps, d))]
        for j, rank in enumerate(MIXED_RANKS):
            rho = _random_density(rng, 9, rank)
            path = self.write(f"mixed{j}.json", {"dims": [3, 3], "matrix": _pairs(rho)})
            z = correlation_matrix_coeff(DensityMatrix(rho, (3, 3))).matrix
            gamma = _gamma_of(z, 1.0)
            calls += [Call(["gamma", "--state-file", path], gamma_exit(gamma), gamma=gamma),
                      Call(["optimize", "--state-file", path, "--seed", str(j)], None,
                           upsilon=2 * gamma),
                      Call(["validate", "--state-file", path], 0, valid=True)]
        unnormalized = np.full(9, 0.4 + 0j)    # sum |psi|^2 = 1.44
        not_psd = np.diag([0.6, 0.6, -0.2, 0, 0, 0, 0, 0, 0]).astype(complex)
        for name, data in (("unnormalized.json", {"dims": [3, 3], "amplitudes": _pairs(unnormalized)}),
                           ("not_psd.json", {"dims": [3, 3], "matrix": _pairs(not_psd)})):
            calls.append(Call(["validate", "--state-file", self.write(name, data)], 2, valid=False))
        for call in calls:
            if call.argv[0] == "optimize":
                call.max_iter = cli.build_parser().parse_args(call.argv).max_iter
        self.calls = [calls[i] for i in rng.permutation(len(calls))]

    def run(self, index):
        call = self.calls[index]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(call.argv)
            except SystemExit as exc:  # argparse rejects malformed flags this way
                code = exc.code
            except Exception:  # counted as a failed call; the loop keeps running
                traceback.print_exc(file=sys.__stderr__)
                code = None
        key = (index, code, out.getvalue())
        self.outputs[key] = self.outputs.get(key, 0) + 1

    def call(self, i) -> int:
        self.run(i % len(self.calls))
        return 1    # each call analyses one state

    def check(self) -> tuple:
        failed = sum(seen for (index, code, out), seen in self.outputs.items()
                     if not output_ok(self.calls[index], code, out))
        # Non-convergence is a property of rare states, not of most: an
        # optimizer that stops certifying fails every answer it left at exit 4.
        unconverged = {index for index, code, _ in self.outputs if code == 4}
        optimize_calls = sum(call.argv[0] == "optimize" for call in self.calls)
        if len(unconverged) > MAX_UNCONVERGED_SHARE * optimize_calls:
            failed += sum(seen for (index, code, out), seen in self.outputs.items()
                          if code == 4 and output_ok(self.calls[index], code, out))
        return sum(self.outputs.values()), failed

    def traced(self, seconds, recorder) -> tuple:
        """Per-layer metrics, in microseconds per call, from traced passes.

        Untraced and traced passes over the whole call list alternate, in
        pairs, at least ``MIN_TRACED_PAIRS`` of them and until ``seconds``
        have passed.  A layer's time is its spans' total over a pass divided
        by the calls in it, so the layers and ``cli.residual_us`` add up to
        the mean call.  Medians over the traced passes are reported, with
        the sample they rest on.
        """
        def parse_span(build_parser):
            # cli.main calls build_parser() and then its parse_args
            def traced_build():
                start = perf_counter()
                parser = build_parser()
                parse_args = parser.parse_args

                def traced_parse(*args, **kwargs):
                    try:
                        return parse_args(*args, **kwargs)
                    finally:
                        recorder.record("cli.parse", "cli.main", start, perf_counter())
                parser.parse_args = traced_parse
                return parser
            return traced_build

        wrappers = {name: recorder.wrap(getattr(cli, name), span, "cli.main",
                                        iterations if span == "optimizer.optimize" else None)
                    for name, span in CLI_LAYERS.items()}
        wrappers["build_parser"] = parse_span(cli.build_parser)
        plain, rows = [], []
        start, p = perf_counter(), 0
        while p < MIN_TRACED_PAIRS or perf_counter() < start + seconds:
            for traced in ((False, True) if p % 2 == 0 else (True, False)):
                walls = []
                with patched(cli, wrappers if traced else {}):
                    for index in range(len(self.calls)):
                        recorder.call_id += 1
                        t = perf_counter()
                        self.run(index)
                        walls.append(perf_counter() - t)
                if traced:
                    rows.append(layers(walls, recorder.collect()))
                else:
                    plain.append(sum(walls))
            p += 1
        metrics = {name: median(r[name] for r in rows) for name in rows[0]}
        for name in ("optimizer.iterations", "optimizer.unconverged"):
            metrics[name] = rows[0][name]
        metrics["trace.overhead_pct"] = (metrics.pop("wall") / median(plain) - 1) * 100
        calls = 2 * p * len(self.calls)
        return metrics, {"calls": calls, "states": calls, "measured_s": perf_counter() - start}

    def provenance(self) -> dict:
        return {"calls_in_list": len(self.calls)}


def iterations(args, result) -> dict:
    return {"iterations": result.iterations, "converged": result.converged}


def layers(walls, spans) -> dict:
    n = len(walls)
    row = {f"{name}_us": total(spans, name) / n * 1e6
           for name in ("cli.parse", *CLI_LAYERS.values())}
    row["cli.residual_us"] = (sum(walls) - sum(s["end"] - s["start"] for s in spans)) / n * 1e6
    optimizer = [s for s in spans if s["name"] == "optimizer.optimize"]
    row["optimizer.iterations"] = median(s["iterations"] for s in optimizer)
    row["optimizer.unconverged"] = sum(not s["converged"] for s in optimizer)
    row["wall"] = sum(walls)
    return row


def output_ok(call, code, out) -> bool:
    """Whether one captured CLI answer matches the expectation worked out at set-up."""
    try:
        data = json.loads(out)
    except json.JSONDecodeError:
        return False
    command = call.argv[0]
    if command == "optimize":
        value = data["optimized_value"]
        if (abs(data["upsilon_analytic"] - call.upsilon) > VALUE_TOL
                or abs(data["gap"] - abs(value - call.upsilon)) > VALUE_TOL):
            return False
        if data["converged"]:
            # a converged ascent certifies the closed form
            return code == 0 and data["gap"] <= cli.GAP_TOL
        # Alternating ascent is slow when two singular values of Z nearly
        # coincide, and the CLI documents what it does then: every restart
        # uses up --max-iter and it exits 4 without a certificate.  That
        # answer is right when the budget was really spent and the value is
        # one the ascent attained: below the closed form and near it.
        # Counted in optimizer.unconverged.
        return (code == 4 and data["iterations"] == call.max_iter
                and value <= call.upsilon + VALUE_TOL
                and call.upsilon - value <= UNCONVERGED_REL_GAP * call.upsilon)
    if code != call.exit_code:
        return False
    if command == "gamma":
        return abs(data["gamma"] - call.gamma) <= VALUE_TOL
    if command == "concurrence":
        if (call.analytic is None) != (data["analytic"] is None):
            return False
        return (abs(data["concurrence"] - call.concurrence) <= VALUE_TOL
                and (call.analytic is None or abs(data["analytic"] - call.analytic) <= VALUE_TOL))
    return data["state"]["valid"] == call.valid and data["spin_algebra_valid"]
