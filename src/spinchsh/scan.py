"""Seeded Monte Carlo scan over random pure two-qutrit states.

Each sample is drawn from its own (seed, index) substream, piped through the
coefficient-tensor correlation route to the CHSH parameter gamma and the
concurrence, and folded into an order-independent reduction (max, counts,
histogram).  Reports are therefore byte-identical across worker counts.

A sample with gamma > 1 would refute the nonviolation conjecture; the scan
records such states in full rather than treating them as errors.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .correlations import (VIOLATION_TOL, check_norm_cap, check_tsirelson,
                           correlation_from_coefficients, top_two_root)
from .states import (SAMPLERS, PureState, _to_pairs, check_key,
                     sample_amplitude_batch, sample_pure_state)

logger = logging.getLogger(__name__)

# Fixed batch size; chunk boundaries must not depend on the worker count or
# the reduction would not be reproducible.
CHUNK = 8192
# Largest concurrence a two-qutrit state can have; histogram domain.
CONCURRENCE_MAX = 2 / math.sqrt(3)
# Samples this close to a product state are counted and logged.
LOW_CONCURRENCE = 1e-6
# At most this many conjecture counterexamples are serialized per report.
VIOLATION_RECORD_CAP = 100
# Number of leading samples kept verbatim in the report.
SAMPLE_ROW_COUNT = 50


@dataclass(frozen=True)
class ScanConfig:
    n_samples: int
    sampler: str = "uniform"
    seed: int = 0
    histogram_bins: int = 40
    workers: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}; choose from {SAMPLERS}")
        if self.histogram_bins < 1:
            raise ValueError("histogram_bins must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        check_key("seed", self.seed)


@dataclass
class ScanReport:
    n_samples: int
    sampler: str
    seed: int
    max_gamma: float
    argmax_index: int
    argmax_state: PureState
    violation_count: int
    histogram: list          # (bin_lo, bin_hi, count) triples covering [0, 2/sqrt(3)]
    sample_rows: list        # (amplitudes, gamma) for the first min(n, 50) samples
    min_concurrence: float
    low_concurrence_count: int
    violations: list         # (index, gamma, PureState), capped

    def to_json(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "sampler": self.sampler,
            "seed": self.seed,
            "max_gamma": float(self.max_gamma),
            "argmax_index": int(self.argmax_index),
            "argmax_state": self.argmax_state.to_json(),
            "violation_count": int(self.violation_count),
            "histogram": [[float(lo), float(hi), int(c)] for lo, hi, c in self.histogram],
            "sample_rows": [
                {"amplitudes": _to_pairs(amps), "gamma": float(g)}
                for amps, g in self.sample_rows
            ],
            "min_concurrence": float(self.min_concurrence),
            "low_concurrence_count": int(self.low_concurrence_count),
            "violations": [
                {"index": int(i), "gamma": float(g), "state": st.to_json()}
                for i, g, st in self.violations
            ],
        }


def batch_gamma_concurrence(amplitudes: np.ndarray) -> tuple:
    """(gamma, concurrence) arrays for a batch of normalized amplitude rows.

    Concurrence here is sqrt(2 (1 - purity)), which bottoms out near 1e-8
    for near-product states, where ``concurrence_pure`` uses the exact
    pairwise Schmidt form.  The two stay apart because switching this
    kernel would change the bytes of every scan report.  A gamma above the
    quantum cap sqrt(2), or a correlation matrix of operator norm above 1,
    raises ValueError, as ``chsh_analysis`` and ``CorrelationMatrix`` do.
    """
    b = amplitudes.shape[0]
    a = amplitudes.reshape(b, 3, 3)
    zeta = np.einsum("bmk,bpq->bmpkq", a, a.conj())
    z = correlation_from_coefficients(zeta)
    ev = np.linalg.eigvalsh(np.einsum("bji,bjk->bik", z, z))
    gamma = top_two_root(ev)
    check_tsirelson(gamma)
    check_norm_cap(ev)
    reduced = np.einsum("bij,bkj->bik", a, a.conj())
    purity = np.einsum("bik,bik->b", reduced, reduced.conj()).real
    concurrence = np.sqrt(np.clip(2.0 * (1.0 - purity), 0.0, None))
    return gamma, concurrence


def _scan_chunk(args) -> dict:
    cfg, edges, start, stop = args
    amps = sample_amplitude_batch((3, 3), cfg.sampler, cfg.seed, start, stop - start)
    gamma, conc = batch_gamma_concurrence(amps)
    hist, _ = np.histogram(np.clip(conc, 0.0, CONCURRENCE_MAX), bins=edges)
    local_arg = int(np.argmax(gamma))
    viol = np.nonzero(gamma > 1.0 + VIOLATION_TOL)[0]
    return {
        "max_gamma": float(gamma[local_arg]),
        "argmax_index": start + local_arg,
        "violation_pairs": [(start + int(i), float(gamma[i])) for i in viol],
        "hist": hist,
        "rows": [(amps[i].copy(), float(gamma[i]))  # none past the leading samples
                 for i in range(min(stop, SAMPLE_ROW_COUNT) - start)],
        "min_concurrence": float(conc.min()),
        "low_concurrence_count": int((conc <= LOW_CONCURRENCE).sum()),
    }


def run_scan(cfg: ScanConfig) -> ScanReport:
    """Scan cfg.n_samples random pure two-qutrit states and reduce.

    The report is a pure function of (seed, n_samples, sampler,
    histogram_bins); the worker count only affects wall time.  The seed
    lies in [0, 2**64); ScanConfig rejects any other value.
    """
    edges = np.linspace(0.0, CONCURRENCE_MAX, cfg.histogram_bins + 1)
    tasks = [(cfg, edges, start, min(start + CHUNK, cfg.n_samples))
             for start in range(0, cfg.n_samples, CHUNK)]
    if cfg.workers == 1 or len(tasks) == 1:
        parts = [_scan_chunk(t) for t in tasks]
    else:
        with Pool(processes=cfg.workers) as pool:
            parts = pool.map(_scan_chunk, tasks)

    best = max(parts, key=lambda part: part["max_gamma"])  # first maximum in chunk order
    violation_pairs = [pair for part in parts for pair in part["violation_pairs"]]
    hist = sum(part["hist"] for part in parts)
    low_conc = sum(part["low_concurrence_count"] for part in parts)
    if low_conc:
        logger.warning("%d sample(s) had concurrence <= %.0e (near-product states)",
                       low_conc, LOW_CONCURRENCE)
    if violation_pairs:
        logger.warning("%d sample(s) exceeded gamma = 1: conjecture counterexample candidates",
                       len(violation_pairs))

    histogram = [(float(edges[i]), float(edges[i + 1]), int(hist[i]))
                 for i in range(cfg.histogram_bins)]

    def regenerate(idx):
        return sample_pure_state((3, 3), cfg.sampler, cfg.seed, idx)

    violations = [(i, g, regenerate(i))
                  for i, g in violation_pairs[:VIOLATION_RECORD_CAP]]
    return ScanReport(
        n_samples=cfg.n_samples,
        sampler=cfg.sampler,
        seed=cfg.seed,
        max_gamma=best["max_gamma"],
        argmax_index=best["argmax_index"],
        argmax_state=regenerate(best["argmax_index"]),
        violation_count=len(violation_pairs),
        histogram=histogram,
        sample_rows=[row for part in parts for row in part["rows"]],
        min_concurrence=min(part["min_concurrence"] for part in parts),
        low_concurrence_count=low_conc,
        violations=violations,
    )


def table_rows(cfg: ScanConfig, k: int, decimals: int = 2) -> list:
    """First k sampled states as flat rows of rounded floats.

    Each row holds the 18 amplitude components (re, im interleaved in
    row-major state order) followed by gamma, all rounded to ``decimals``.
    """
    if k > cfg.n_samples:
        raise ValueError(f"k = {k} exceeds n_samples = {cfg.n_samples}")
    amps = sample_amplitude_batch((3, 3), cfg.sampler, cfg.seed, 0, k)
    gamma, _ = batch_gamma_concurrence(amps)
    rows = []
    for i in range(k):
        row = [round(x, decimals) for pair in _to_pairs(amps[i]) for x in pair]
        rows.append(row + [round(float(gamma[i]), decimals)])
    return rows


def write_histogram_csv(path, report: ScanReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for lo, hi, count in report.histogram:
            writer.writerow([lo, hi, count])


def write_sample_rows_csv(path, rows) -> None:
    header = []
    for m in range(1, 4):
        for k in range(1, 4):
            header += [f"psi{m}{k}_re", f"psi{m}{k}_im"]
    header.append("gamma")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
