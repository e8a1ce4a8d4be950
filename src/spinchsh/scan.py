"""Seeded Monte Carlo scan over random pure two-qutrit states.

Each sample is drawn from its own (seed, index) substream, piped through the
coefficient-tensor correlation route (only the distinct tensor entries that
route and the purity read are built) to the CHSH parameter gamma and the
concurrence.  ``ScanReport.merge`` folds the report of each chunk of samples
in chunk order, so reports are byte-identical across worker counts.

A sample with gamma > 1 would refute the nonviolation conjecture; the scan
records such states in full rather than treating them as errors.

The scan only computes: it rounds no number and writes no file.  The
command line formats the report, its histogram and its leading sample rows.
"""

from __future__ import annotations

import logging
import math
import operator
import os
from dataclasses import dataclass, replace
from functools import reduce
from itertools import product
from multiprocessing import Pool
from types import SimpleNamespace

import numpy as np

from .correlations import (VIOLATION_TOL, check_norm_cap, check_tsirelson,
                           correlation_from_coefficients, top_two_root)
from .sampler import amplitude_rows, check_key, check_sampler, sample_amplitude_batch
from .states import PureState, _to_pairs

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
# Products a[m, k] conj(a[p, q]) of a pure state's (3, 3) amplitudes that the
# kernel reads, as coefficient-tensor indices (m, p, k, q): first the 27 that
# the reduced state sum_j a[i, j] conj(a[k, j]) sums, in (i, k, j) order, then
# the 28 others correlation_from_coefficients reads (|m - p| <= 1, |k - q| = 1).
PRODUCTS = ([(i, k, j, j) for i, k, j in product(range(3), repeat=3)]
            + [(m, p, k, q) for m, p, k, q in product(range(3), repeat=4)
               if abs(m - p) <= 1 and abs(k - q) == 1])
# The conjugate of the product (m, p, k, q) is (p, m, q, k), also in PRODUCTS.
# 9 products are their own conjugate: (i, i, j, j), the reduced state's
# diagonal, which is a[x] conj(a[x]) for x = 3 i + j, in x order.  The other
# 46 form 23 pairs, and the kernel computes the member of each whose first
# factor comes first in row-major order (3 m + k < 3 p + q), in PRODUCTS
# order: the 9 of the reduced state with i < k, then 14 others.  Their
# imaginary parts are every one correlation_from_coefficients reads and all
# the purity needs; of a partner, only the real part is read.
PAIRED = [(m, p, k, q) for m, p, k, q in PRODUCTS if 3 * m + k < 3 * p + q]
# Relative widening of the kernel's two bounds on gamma; float round-off in
# ||Z||_F^2, det Z and eigvalsh is near 1e-15.
SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class ScanConfig:
    n_samples: int
    sampler: str = "uniform"
    seed: int = 0
    histogram_bins: int = 40
    workers: int = 1

    def __post_init__(self):
        # stored as plain ints; a float fails here rather than inside run_scan
        for name in ("n_samples", "histogram_bins", "workers"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "seed", check_key("seed", self.seed))
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.n_samples > 2 ** 64:  # sample indices, like seeds, lie in [0, 2**64)
            raise ValueError(f"n_samples must be <= 2**64, got {self.n_samples}")
        check_sampler(self.sampler)
        if self.histogram_bins < 1:
            raise ValueError("histogram_bins must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


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

    def merge(self, other: ScanReport) -> ScanReport:
        """The report of this report's samples followed by ``other``'s.

        Counts add; the maximum is the first (``other``'s only if greater, as
        ``max`` picks, NaN included) and the minimum concurrence ``min``'s;
        rows and capped violations concatenate.  Raises ValueError on reports
        of another sampler, seed or histogram bins."""
        if (self.sampler, self.seed, [h[:2] for h in self.histogram]) != \
                (other.sampler, other.seed, [h[:2] for h in other.histogram]):
            raise ValueError("cannot merge reports of another sampler, seed or histogram bins")
        best = other if other.max_gamma > self.max_gamma else self
        return replace(best, n_samples=self.n_samples + other.n_samples,
                       violation_count=self.violation_count + other.violation_count,
                       histogram=[(lo, hi, c + d) for (lo, hi, c), (_, _, d)
                                  in zip(self.histogram, other.histogram)],
                       sample_rows=self.sample_rows + other.sample_rows,
                       min_concurrence=min(self.min_concurrence, other.min_concurrence),
                       low_concurrence_count=self.low_concurrence_count + other.low_concurrence_count,
                       violations=(self.violations + other.violations)[:VIOLATION_RECORD_CAP])

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


def batch_gamma_concurrence(amplitudes: np.ndarray, *, keep_leading: int | None = None) -> tuple:
    """(gamma, concurrence) arrays for a batch of b normalized pure states,
    given as the (2, 9, b) or (2, 3, 3, b) float planes (re, im) that
    ``sample_amplitude_batch`` returns.

    With ``keep_leading=None`` (the default) every gamma is exact.  With a
    non-negative int, only the rows a scan reduction can read are exact:
    every row that may hold the batch maximum, every row with gamma > 1 or a
    correlation matrix Z of norm above 1, every row with a non-finite Z, and
    the first ``keep_leading`` rows.  Every other row holds -inf.  The
    screen rests on two bounds that hold in exact arithmetic, each widened
    by the relative margin SCREEN_MARGIN to cover round-off:
    gamma <= ||Z||_F, and gamma^2 >= ||Z||_F^2 - |det Z|^(2/3), since the
    smallest eigenvalue of Z^T Z is at most the cube root of its
    determinant det(Z)^2.

    Z and the purity are read from the amplitude products in PRODUCTS
    only, never from a full coefficient tensor, and carry the bits of the
    einsum route: ``correlation_from_coefficients`` of
    ``einsum("bmk,bpq->bmpkq", a, a.conj())``, and the reduced state and
    purity by ``einsum("bij,bkj->bik", ...)`` and
    ``einsum("bik,bik->b", ...)``.  Only the 32 distinct products are
    formed, each as einsum forms it, in the named blocks of rows of
    ``_PureBatch``: ``real`` and ``imag``, the parts of PAIRED, and
    ``diagonal``, the reduced state's diagonal.  A partner is read through
    its conjugate, and each sum is taken in einsum's order.

    Concurrence, exact for every row, is sqrt(2 (1 - purity)), which
    bottoms out near 1e-8 for near-product states, where
    ``concurrence_pure`` uses the exact pairwise Schmidt form.  The two stay
    apart because switching this kernel would change the bytes of every
    scan report.  A gamma above the quantum cap sqrt(2), or a correlation
    matrix of operator norm above 1, raises ValueError, as ``chsh_analysis``
    and ``CorrelationMatrix`` do; a row the screen drops can breach neither.
    """
    b = amplitudes.shape[-1]
    batch = _PureBatch(amplitudes)
    z = correlation_from_coefficients(batch)
    keep = slice(None) if keep_leading is None else _screen(z, keep_leading)
    kept = z[keep]
    ev = np.linalg.eigvalsh(np.einsum("bji,bjk->bik", kept, kept))
    gamma = np.full(b, -np.inf)
    gamma[keep] = top_two_root(ev)
    check_tsirelson(gamma)
    check_norm_cap(ev)
    # reduced-state entry (i, k) is ((0 + P(i, k, 0)) + P(i, k, 1)) + P(i, k, 2),
    # P(i, k, j) = a[i, j] conj(a[k, j]), in each part (the 0 + is in the
    # rows), and the first 9 rows of real and imag hold P for i < k in
    # (i, k, j) order; the purity is the running sum, from 0, of re re + im im
    # over (i, k) in row-major order: einsum's order, which the bits depend on.
    # Entry (k, i) has the real part of (i, k) and its imaginary part
    # negated, up to the sign of a zero, so both have one term; a diagonal
    # entry's imaginary part is +0, so its term is re re
    rr, ri, dr = ((t[0::3] + t[1::3]) + t[2::3]
                  for t in (batch.real[:9], batch.imag[:9], batch.diagonal))
    t01, t02, t12 = rr * rr + ri * ri
    t00, t11, t22 = dr * dr
    purity = sum((t00, t01, t02, t01, t11, t12, t02, t12, t22), 0.0)
    concurrence = np.sqrt(np.clip(2.0 * (1.0 - purity), 0.0, None))
    return gamma, concurrence


class _PureBatch:
    """The (b, 3, 3, 3, 3) coefficient tensor of a batch of b pure states,
    given as planes (re, im), (2, 9, b) or (2, 3, 3, b), as far as
    correlation_from_coefficients and the purity read it.  One (55, b)
    float64 array holds three blocks of rows: ``real``, the real part of
    each entry of PAIRED; ``diagonal``, a[x] conj(a[x]) for x = 3 i + j,
    the real part of (i, i, j, j); and ``imag``, the imaginary part of each
    entry of PAIRED.  ``[..., m, p, k, q]`` holds an entry's rows as
    ``real`` and, for an entry of PAIRED, ``imag``.  The conjugate
    (p, m, q, k) of an entry of PAIRED has that entry's ``real`` (products
    commute, and so does +) and no ``imag``, nor has a diagonal entry: the
    kernel reads neither, and reading one raises AttributeError.  An entry
    the kernel does not form raises KeyError.

    With x = a[m, k] and y = a[p, q], each part is re = x.re y.re + x.im y.im
    and im = x.im y.re - x.re y.im, plus 0.0, because einsum adds the
    product into a zeroed output.  Einsum forms x conj(y) as
    x.re y.re - x.im (-y.im) and x.re (-y.im) + x.im y.re; the exact IEEE
    identities a - (-b) = a + b, x (-y) = -(x y) and a + b = b + a give
    the same bits, so each row holds the bits of the coefficient tensor's
    entry.  (Numpy's complex ``multiply`` loop may fuse these operations
    and round differently.)  A diagonal product's real part x.re x.re +
    x.im x.im is never -0, so the + 0.0 changes none of its bits, and its
    imaginary part, +0.0, is not stored.  Every row is written in place
    into one array, read straight from the plane rows.
    """

    def __init__(self, amplitudes: np.ndarray):
        b = amplitudes.shape[-1]
        a_re, a_im = amplitudes.reshape(2, 9, b)   # row 3 m + k is a[m, k]
        n = len(PAIRED)
        rows = np.empty((n + 9 + n, b))
        self.real, self.diagonal, self.imag = rows[:n], rows[n:n + 9], rows[n + 9:]
        self.shape = (b, 3, 3, 3, 3)
        self.nbytes = rows.nbytes
        # the diagonal first, squaring the imaginary plane into rows not yet
        # written, so that no (9, b) scratch array is needed
        np.multiply(a_re, a_re, out=self.diagonal)
        np.multiply(a_im, a_im, out=self.imag[:9])
        np.add(self.diagonal, self.imag[:9], out=self.diagonal)
        self.entries = {(i, i, j, j): SimpleNamespace(real=row)
                        for (i, j), row in zip(product(range(3), repeat=2), self.diagonal)}
        scratch = np.empty(b)
        for (m, p, k, q), re, im in zip(PAIRED, self.real, self.imag):
            x, y = 3 * m + k, 3 * p + q
            np.multiply(a_re[x], a_re[y], out=re)        # x.re y.re
            np.multiply(a_im[x], a_im[y], out=scratch)   # x.im y.im
            np.add(re, scratch, out=re)
            np.add(re, 0.0, out=re)
            np.multiply(a_im[x], a_re[y], out=im)        # x.im y.re
            np.multiply(a_re[x], a_im[y], out=scratch)   # x.re y.im
            np.subtract(im, scratch, out=im)
            np.add(im, 0.0, out=im)
            self.entries[m, p, k, q] = SimpleNamespace(real=re, imag=im)
            self.entries[p, m, q, k] = SimpleNamespace(real=re)

    def __getitem__(self, key) -> SimpleNamespace:
        return self.entries[key[1:]]


def _screen(z: np.ndarray, keep_leading: int) -> np.ndarray:
    """Mask of the rows of a (b, 3, 3) batch of Z whose exact gamma a scan
    reduction can read; see ``batch_gamma_concurrence``."""
    if keep_leading < 0:
        raise ValueError(f"keep_leading must be >= 0, got {keep_leading}")
    f2 = np.einsum("bij,bij->b", z, z)
    det = (z[:, 0, 0] * (z[:, 1, 1] * z[:, 2, 2] - z[:, 1, 2] * z[:, 2, 1])
           - z[:, 0, 1] * (z[:, 1, 0] * z[:, 2, 2] - z[:, 1, 2] * z[:, 2, 0])
           + z[:, 0, 2] * (z[:, 1, 0] * z[:, 2, 1] - z[:, 1, 1] * z[:, 2, 0]))
    # squared bounds on gamma, each widened by at least SCREEN_MARGIN
    upper = f2 * (1.0 + SCREEN_MARGIN) ** 2
    lower = f2 * (1.0 - SCREEN_MARGIN) ** 2 - np.abs(det) ** (2 / 3)
    keep = (upper >= np.max(lower, initial=-np.inf)) | (upper >= 1.0) | ~np.isfinite(f2)
    keep[:keep_leading] = True
    return keep


def _scan_chunk(args) -> ScanReport:
    """The ScanReport of samples [start, stop), histogrammed over ``edges``."""
    cfg, edges, start, stop = args
    planes = sample_amplitude_batch((3, 3), cfg.sampler, cfg.seed, start, stop - start)
    gamma, conc = batch_gamma_concurrence(planes, keep_leading=max(0, SAMPLE_ROW_COUNT - start))
    hist, _ = np.histogram(np.clip(conc, 0.0, CONCURRENCE_MAX), bins=edges)
    local_arg = int(np.argmax(gamma))
    viol = np.nonzero(gamma > 1.0 + VIOLATION_TOL)[0]
    recorded = viol[:VIOLATION_RECORD_CAP]
    leading = range(min(stop, SAMPLE_ROW_COUNT) - start)   # empty past the leading samples
    # complex rows only for the states a report keeps
    return ScanReport(
        n_samples=stop - start, sampler=cfg.sampler, seed=cfg.seed,
        max_gamma=float(gamma[local_arg]),
        argmax_index=start + local_arg,
        argmax_state=PureState(amplitude_rows(planes[..., [local_arg]])[0], (3, 3)),
        violation_count=len(viol),
        histogram=list(zip(edges.tolist(), edges[1:].tolist(), hist.tolist())),
        sample_rows=[(row, float(gamma[i]))
                     for i, row in zip(leading, amplitude_rows(planes[..., leading]))],
        min_concurrence=float(conc.min()),
        low_concurrence_count=int((conc <= LOW_CONCURRENCE).sum()),
        violations=[(start + int(i), float(gamma[i]), PureState(row, (3, 3)))
                    for i, row in zip(recorded, amplitude_rows(planes[..., recorded]))],
    )


def run_scan(cfg: ScanConfig) -> ScanReport:
    """Scan cfg.n_samples random pure two-qutrit states and reduce.

    The report is a pure function of (seed, n_samples, sampler,
    histogram_bins); the worker count only affects wall time.  On any worker
    count no task list is built: chunk reports are folded in chunk order as
    they arrive.  The seed lies in [0, 2**64); ScanConfig rejects any other
    value.  The states it names are the rows the scan drew.
    """
    edges = np.linspace(0.0, CONCURRENCE_MAX, cfg.histogram_bins + 1)
    tasks = ((cfg, edges, start, min(start + CHUNK, cfg.n_samples))
             for start in range(0, cfg.n_samples, CHUNK))
    workers = min(cfg.workers, -(-cfg.n_samples // CHUNK), os.cpu_count() or 1)
    if workers == 1:
        report = reduce(ScanReport.merge, map(_scan_chunk, tasks))
    else:
        # up to 4 chunks per message, yet about 4 hand-outs per worker so none idles long
        handout = max(1, min(4, cfg.n_samples // (CHUNK * 4 * workers)))
        with Pool(processes=workers) as pool:
            report = reduce(ScanReport.merge, pool.imap(_scan_chunk, tasks, handout))
    if report.low_concurrence_count:
        logger.warning("%d sample(s) had concurrence <= %.0e (near-product states)",
                       report.low_concurrence_count, LOW_CONCURRENCE)
    if report.violation_count:
        logger.warning("%d sample(s) exceeded gamma = 1: conjecture counterexample candidates",
                       report.violation_count)
    return report
