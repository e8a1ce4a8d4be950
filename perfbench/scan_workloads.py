"""Scan workloads: back-to-back ``run_scan`` calls on seeded configurations.

Call ``i`` is a paper-sized scan of ``N_STATES`` random pure two-qutrit
states, with its own scan seed drawn from the workload seed.  Reports are checked after
the clock stops: a pinned digest for a small reference scan, and each
report sample by sample against the independent single-state route
``sample_pure_state -> pure_to_density -> correlation_matrix_trace ->
chsh_analysis``.
"""

import hashlib
import json
import random
import sys
import traceback
from statistics import median
from time import perf_counter

import numpy as np

from spinchsh import scan
from spinchsh.correlations import chsh_analysis, correlation_matrix_trace
from spinchsh.spin import spin_operators
from spinchsh.states import pure_to_density, sample_pure_state

from tracing import MIN_TRACED_PAIRS, patched, total

WORKLOADS = {
    # The paper's sampler on one worker.  Sampling is most of the per-state
    # cost here, so a sampler change shows its full effect on this workload.
    "scan-uniform": {"sampler": "uniform", "workers": 1},
    # The Gaussian sampler on two workers: same kernel and reduction, a
    # sampling path a uniform-sampler change leaves alone, and the only
    # workload through the Pool fan-out and fan-in.
    "scan-haar-w2": {"sampler": "haar", "workers": 2},
}
# 122 chunks of scan.CHUNK = 8192: the whole number of chunks nearest the
# paper's 10^6 states.  Fixed in states, so that a change to CHUNK does not
# change the workload.  A small scan is not a stand-in: at 4 chunks a
# 2-worker scan spends about half its wall starting and stopping the Pool,
# at 10^6 states a few percent.
N_STATES = 999_424
# The reference scan: the program's default seed, 4 chunks (enough to fan
# out over two workers), this workload's sampler and worker count.  Its
# report is byte-identical at any worker count, so one digest per sampler
# pins it.
REFERENCE_SEED = 0
REFERENCE_STATES = 32_768
REFERENCE_DIGEST = {
    "uniform": "76992015061d7a545d4490c171998e2c2e294804fae205cbaffc043c004387f9",
    "haar": "7783b5e50974634e2c69d861a6c4fc07db65b378273e5ecd7dedf80b3c2da1f9",
}
# The trace route and the batched coefficient route agree to ~1e-15.
GAMMA_TOL = 1e-10
# Leading sample rows re-derived per report, and further indices whose gamma
# must not exceed the reported maximum.
CHECKED_ROWS = 3
CHECKED_INDICES = 3
OPS = spin_operators(1)
# Exact per-call counts, reported from the first traced call.
COUNTS = ("scan.chunks", "scan.low_concurrence", "scan.violations")


def report_digest(report) -> str:
    """SHA-256 of the report's JSON form, which keeps every float exactly."""
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


def route_gamma(state) -> float:
    """gamma of one pure state by the single-state operator-trace route."""
    return chsh_analysis(correlation_matrix_trace(pure_to_density(state), OPS)).gamma


def report_ok(cfg, report) -> bool:
    """Check one report against the independent single-state route."""
    n = cfg.n_samples
    if (report.n_samples != n or sum(c for _, _, c in report.histogram) != n
            or not 0 <= report.argmax_index < n
            or len(report.violations) != min(report.violation_count, scan.VIOLATION_RECORD_CAP)):
        return False

    def regenerated(index):
        return sample_pure_state((3, 3), cfg.sampler, cfg.seed, index)

    argmax = regenerated(report.argmax_index)
    if (not np.array_equal(argmax.amplitudes, report.argmax_state.amplitudes)
            or abs(route_gamma(argmax) - report.max_gamma) > GAMMA_TOL):
        return False
    picks = random.Random(cfg.seed)
    for row in picks.sample(range(len(report.sample_rows)), CHECKED_ROWS):
        amplitudes, gamma = report.sample_rows[row]
        state = regenerated(row)
        if (not np.array_equal(state.amplitudes, amplitudes)
                or abs(route_gamma(state) - gamma) > GAMMA_TOL):
            return False
    for _ in range(CHECKED_INDICES):
        if route_gamma(regenerated(picks.randrange(n))) > report.max_gamma + GAMMA_TOL:
            return False
    # a gamma > 1 is physics (a counterexample candidate), not a failure,
    # but it must be real
    return all(abs(route_gamma(state) - gamma) <= GAMMA_TOL and gamma > 1
               for _, gamma, state in report.violations)


def kernel_bytes(args, result) -> dict:
    return {"bytes": args[0].nbytes + sum(a.nbytes for a in result)}


def z_bytes(args, result) -> dict:
    return {"bytes": args[0].nbytes + result.nbytes}


class ScanWorkload:
    MIN_CALLS = 2
    pass_length = 1

    def __init__(self, name, seed, workdir):
        spec = WORKLOADS[name]
        self.sampler, self.workers = spec["sampler"], spec["workers"]
        self.n = N_STATES
        self.seed_stream = random.Random(f"{name}:{seed}")
        self.seeds = []
        self.reports = []   # (config, report or None) for every call made

    def config(self, seed, n=None):
        return scan.ScanConfig(n_samples=n or self.n, sampler=self.sampler, seed=seed,
                               workers=self.workers)

    def scan_seed(self, i) -> int:
        """Scan seed of call ``i``; the same workload seed gives the same list."""
        while len(self.seeds) <= i:
            self.seeds.append(self.seed_stream.getrandbits(63))
        return self.seeds[i]

    def warm_up(self):
        """One scan just large enough to start the Pool when there is one."""
        scan.run_scan(scan.ScanConfig(n_samples=self.workers * scan.CHUNK,
                                      sampler=self.sampler, workers=self.workers))

    def prepare(self):
        pass

    def run(self, cfg):
        try:
            report = scan.run_scan(cfg)
        except Exception:  # counted as a failed call; the loop keeps running
            traceback.print_exc(file=sys.stderr)
            report = None
        self.reports.append((cfg, report))
        return report

    def call(self, i) -> int:
        self.run(self.config(self.scan_seed(i)))
        return self.n

    def check(self) -> tuple:
        """(attempted, failed) over every call plus the pinned reference scan."""
        failed = sum(report is None or not report_ok(cfg, report)
                     for cfg, report in self.reports)
        reference = self.run(self.config(REFERENCE_SEED, REFERENCE_STATES))
        reference_ok = (reference is not None
                        and report_digest(reference) == REFERENCE_DIGEST[self.sampler])
        if not reference_ok:
            print(f"reference scan digest mismatch: "
                  f"{reference and report_digest(reference)}", file=sys.stderr)
        return len(self.reports), failed + (not reference_ok)

    def traced(self, seconds, recorder) -> tuple:
        """Per-layer metrics from traced ``run_scan`` calls at ``scan.CHUNK``.

        Untraced and traced calls on the same configuration alternate, in
        pairs, at least ``MIN_TRACED_PAIRS`` of them and until ``seconds``
        have passed; their wall ratio is the tracing overhead.  Layer times
        are medians over the traced calls; counts come from call 0.  Returns
        the metrics and the sample they rest on.
        """
        def gamma_span(fn):
            # eigvalsh of the Gram matrix runs inside the kernel between
            # correlation_from_coefficients and top_two_root, so this span
            # starts where the correlations.z span ended
            def traced_root(ev):
                result = fn(ev)
                recorder.record("correlations.gamma", "scan.kernel",
                                recorder.last_end["correlations.z"], perf_counter(),
                                bytes=ev.nbytes)
                return result
            return traced_root

        wrappers = {
            "sample_amplitude_batch": recorder.wrap(
                scan.sample_amplitude_batch, "states.sample", "scan.run_scan"),
            "batch_gamma_concurrence": recorder.wrap(
                scan.batch_gamma_concurrence, "scan.kernel", "scan.run_scan", kernel_bytes),
            "correlation_from_coefficients": recorder.wrap(
                scan.correlation_from_coefficients, "correlations.z", "scan.kernel", z_bytes),
            "top_two_root": gamma_span(scan.top_two_root),
        }
        plain, rows = [], []
        start, i = perf_counter(), 0
        while i < MIN_TRACED_PAIRS or perf_counter() < start + seconds:
            cfg = self.config(self.scan_seed(i))
            recorder.call_id = i
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                t = perf_counter()
                with patched(scan, wrappers if traced else {}):
                    report = self.run(cfg)
                wall = perf_counter() - t
                if traced:
                    rows.append(self.layers(cfg, report, wall, recorder.collect()))
                else:
                    plain.append(wall)
            i += 1
        metrics = {name: median(r[name] for r in rows) for name in rows[0]}
        metrics.update({name: rows[0][name] for name in COUNTS})
        metrics["trace.overhead_pct"] = (metrics.pop("wall") / median(plain) - 1) * 100
        return metrics, {"calls": len(self.reports), "states": self.n * len(self.reports),
                         "measured_s": perf_counter() - start}

    def layers(self, cfg, report, wall, spans) -> dict:
        n = cfg.n_samples
        chunks = sum(s["name"] == "states.sample" for s in spans)
        workers = cfg.workers if chunks > 1 else 1   # run_scan runs one chunk in-process
        busy = total(spans, "states.sample") + total(spans, "scan.kernel")
        kernel_bytes_total = sum(s.get("bytes", 0) for s in spans
                                 if s["name"] in ("scan.kernel", "correlations.z",
                                                  "correlations.gamma"))
        return {
            "wall": wall,
            "states.sample_us": total(spans, "states.sample") / n * 1e6,
            "scan.kernel_us": total(spans, "scan.kernel") / n * 1e6,
            "correlations.z_us": total(spans, "correlations.z") / n * 1e6,
            "correlations.gamma_us": total(spans, "correlations.gamma") / n * 1e6,
            "scan.overhead_us": (workers * wall - busy) / n * 1e6,
            "scan.pool_efficiency": busy / (workers * wall),
            "scan.kernel_bytes_per_state": kernel_bytes_total / n,
            "scan.chunks": chunks,
            "scan.low_concurrence": report.low_concurrence_count if report else -1,
            "scan.violations": report.violation_count if report else -1,
        }

    def provenance(self) -> dict:
        return {"sampler": self.sampler, "workers": self.workers,
                "states_per_call": self.n}

