"""Monte Carlo harness: determinism, reductions, table rows, serialization."""

import ast
import csv
import hashlib
import importlib.util
import json
import math
import multiprocessing
import multiprocessing.pool
import os
import platform
import subprocess
import sys
import textwrap
from dataclasses import replace
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchsh import (CorrelationMatrix, PureState, ScanConfig, ScanReport, chsh_analysis,
                      correlation_matrix_coeff, concurrence_pure, mix,
                      pure_to_density, run_scan, sample_pure_state)
from spinchsh.correlations import VIOLATION_TOL, correlation_from_coefficients, top_two_root
from spinchsh.scan import CHUNK, CONCURRENCE_MAX, SAMPLE_ROW_COUNT, batch_gamma_concurrence
from spinchsh import cli, scan, states
from spinchsh.sampler import amplitude_rows, sample_amplitude_batch


def pipeline_gamma(psi):
    return chsh_analysis(correlation_matrix_coeff(pure_to_density(psi))).gamma


def planes_of(rows):
    """The float planes (re, im), shape (2, ..., b), of a batch of complex
    amplitude rows (b, ...): the form batch_gamma_concurrence takes."""
    rows = np.asarray(rows)
    return np.ascontiguousarray(np.moveaxis(np.stack((rows.real, rows.imag)), 1, -1))


class TestRunScan:

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_key_domain_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ScanConfig(n_samples=10, seed=seed)

    def test_n_samples_outside_index_domain_rejected(self):
        # sample indices lie in [0, 2**64), so 2**64 samples is the most a scan can draw
        assert ScanConfig(n_samples=2 ** 64).n_samples == 2 ** 64
        with pytest.raises(ValueError, match="n_samples"):
            ScanConfig(n_samples=2 ** 64 + 1)

    def test_largest_seed_accepted(self):
        top = 2 ** 64 - 1
        report = run_scan(ScanConfig(n_samples=3, seed=top))
        assert report.seed == top
        assert np.array_equal(report.argmax_state.amplitudes,
                              sample_pure_state((3, 3), "uniform", top,
                                                report.argmax_index).amplitudes)

    def test_single_sample_matches_library_pipeline(self):
        report = run_scan(ScanConfig(n_samples=1, seed=7))
        psi = sample_pure_state((3, 3), "uniform", seed=7, index=0)
        assert report.max_gamma == pytest.approx(pipeline_gamma(psi), abs=1e-14)
        assert report.argmax_index == 0
        assert sum(c for _, _, c in report.histogram) == 1
        assert np.array_equal(report.argmax_state.amplitudes, psi.amplitudes)

    def test_worker_count_does_not_change_report(self):
        """Identical (seed, n, sampler) gives byte-identical reports at any
        worker count."""
        n = 2 * CHUNK + 771
        solo = run_scan(ScanConfig(n_samples=n, seed=5, workers=1))
        duo = run_scan(ScanConfig(n_samples=n, seed=5, workers=2))
        assert solo.max_gamma == duo.max_gamma
        assert solo.argmax_index == duo.argmax_index
        assert solo.histogram == duo.histogram
        assert solo.min_concurrence == duo.min_concurrence
        assert json.dumps(solo.to_json()) == json.dumps(duo.to_json())

    @staticmethod
    def recording_pool(monkeypatch, cpus):
        """Patch in a Pool whose imap runs its tasks lazily in this process, so
        no worker starts, and a CPU count; returns the record of the pool
        sizes asked for, the hand-out size of each imap and the tasks drawn."""
        record = SimpleNamespace(started=[], handouts=[], drawn=0)

        def drawn(tasks):
            for task in tasks:
                record.drawn += 1
                yield task

        class RecordingPool:
            def __init__(self, processes):
                record.started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks, chunksize):
                assert iter(tasks) is tasks   # a lazy iterator, not a task list
                record.handouts.append(chunksize)
                return map(fn, drawn(tasks))

        monkeypatch.setattr(scan, "Pool", RecordingPool)
        monkeypatch.setattr(scan.os, "cpu_count", lambda: cpus)
        return record

    def test_pool_never_outnumbers_chunks(self, monkeypatch):
        """A scan starts at most one worker per chunk; the report is unchanged."""
        pool = self.recording_pool(monkeypatch, cpus=64)
        n = CHUNK + 5  # two chunks
        wide = run_scan(ScanConfig(n_samples=n, seed=5, workers=64))
        assert pool.started == [2]
        assert pool.handouts == [1]   # too few chunks for a worker to get several hand-outs
        solo = run_scan(ScanConfig(n_samples=n, seed=5, workers=1))
        assert json.dumps(wide.to_json()) == json.dumps(solo.to_json())

    @pytest.mark.parametrize("cpus, pools", [(3, [3]), (1, []), (None, [])])
    def test_pool_never_outnumbers_cpus(self, cpus, pools, monkeypatch):
        """A scan starts at most one worker per CPU, and no pool on one CPU
        or when the count is unknown; the report is unchanged."""
        pool = self.recording_pool(monkeypatch, cpus)
        n = 4 * CHUNK + 5  # five chunks
        wide = run_scan(ScanConfig(n_samples=n, seed=5, workers=5000))
        assert pool.started == pools
        assert pool.handouts == [1] * len(pools)
        solo = run_scan(ScanConfig(n_samples=n, seed=5, workers=1))
        assert json.dumps(wide.to_json()) == json.dumps(solo.to_json())

    def test_pool_draws_tasks_lazily(self, monkeypatch):
        """A two-worker scan draws its chunk tasks as the pool hands them
        out, never as a list of every chunk, and a failing chunk stops it."""
        pool = self.recording_pool(monkeypatch, cpus=2)
        chunk = scan._scan_chunk
        calls = []

        class Sentinel(Exception):
            pass

        def third_fails(task):
            calls.append(task)
            if len(calls) == 3:
                raise Sentinel
            return chunk(task)

        monkeypatch.setattr(scan, "_scan_chunk", third_fails)
        with pytest.raises(Sentinel):
            run_scan(ScanConfig(n_samples=1000 * CHUNK, seed=5, workers=2))
        assert pool.started == [2] and pool.handouts == [4]
        assert pool.drawn <= 3 + pool.handouts[0]

    def test_handout_keeps_report_bytes(self, monkeypatch):
        """Chunks handed out several at a time, with a shorter last hand-out
        (35 chunks in hand-outs of 4), fold to the one-worker bytes."""
        handouts = []

        class HandoutPool(multiprocessing.pool.Pool):
            def imap(self, func, iterable, chunksize=1):
                handouts.append(chunksize)
                return super().imap(func, iterable, chunksize)

        monkeypatch.setattr(scan, "Pool", HandoutPool)
        monkeypatch.setattr(scan.os, "cpu_count", lambda: 2)
        n = 34 * CHUNK + 5
        duo = run_scan(ScanConfig(n_samples=n, seed=11, workers=2))
        assert handouts == [4] and -(-n // CHUNK) % 4 == 3
        solo = run_scan(ScanConfig(n_samples=n, seed=11, workers=1))
        assert json.dumps(duo.to_json()) == json.dumps(solo.to_json())

    def test_reduction_matches_per_sample_loop(self):
        n = 300
        report = run_scan(ScanConfig(n_samples=n, seed=3, histogram_bins=12))
        gammas, concs = [], []
        for i in range(n):
            psi = sample_pure_state((3, 3), "uniform", seed=3, index=i)
            gammas.append(pipeline_gamma(psi))
            concs.append(concurrence_pure(psi))
        assert report.max_gamma == pytest.approx(max(gammas), abs=1e-13)
        assert report.argmax_index == int(np.argmax(gammas))
        assert report.violation_count == sum(g > 1 + 1e-9 for g in gammas)
        assert report.min_concurrence == pytest.approx(min(concs), abs=1e-12)
        expected_hist, _ = np.histogram(concs, bins=np.linspace(0, CONCURRENCE_MAX, 13))
        assert [c for _, _, c in report.histogram] == expected_hist.tolist()

    def test_histogram_counts_conserved(self):
        report = run_scan(ScanConfig(n_samples=5000, seed=1, histogram_bins=20))
        assert sum(c for _, _, c in report.histogram) == 5000
        assert len(report.histogram) == 20
        assert report.histogram[0][0] == 0.0
        assert report.histogram[-1][1] == pytest.approx(CONCURRENCE_MAX)

    def test_uniform_sampler_states_are_entangled(self):
        report = run_scan(ScanConfig(n_samples=20000, seed=2))
        assert report.min_concurrence > 1e-6
        assert report.low_concurrence_count == 0

    def test_gamma_capped_by_tsirelson(self):
        amps = sample_amplitude_batch((3, 3), "uniform", seed=4, start=0, count=2000)
        gamma, _ = batch_gamma_concurrence(amps)
        assert gamma.max() <= math.sqrt(2) + 1e-9

    def test_kernel_rejects_gamma_above_tsirelson(self):
        # unnormalized rows: GHZ scaled by 2 has gamma = 4 sqrt(8/9) = 3.77
        ghz = np.full((3, 9), 0.0, dtype=complex)
        ghz[:, [0, 4, 8]] = 2 / math.sqrt(3)
        with pytest.raises(ValueError, match="quantum cap"):
            batch_gamma_concurrence(planes_of(ghz))

    def test_kernel_rejects_norm_above_one(self):
        # 1.1 |11> has Z = diag(0, 0, 1.21): gamma 1.21 passes the Tsirelson
        # cap, but no state has a spin-1 correlation matrix of norm above 1
        rows = np.zeros((2, 9), dtype=complex)
        rows[0, [0, 4, 8]] = 1 / math.sqrt(3)
        rows[1, 0] = 1.1
        with pytest.raises(ValueError, match="operator norm"):
            batch_gamma_concurrence(planes_of(rows))
        with pytest.raises(ValueError, match="operator norm"):
            CorrelationMatrix(np.diag([1.21, 0.0, 0.0]), s=1.0)

    def test_haar_scan_no_violations(self):
        report = run_scan(ScanConfig(n_samples=2000, sampler="haar", seed=8))
        assert report.violation_count == 0
        assert report.violations == []

    def test_sample_rows_collected(self):
        report = run_scan(ScanConfig(n_samples=200, seed=6))
        assert len(report.sample_rows) == 50
        amps0, g0 = report.sample_rows[0]
        psi0 = sample_pure_state((3, 3), "uniform", seed=6, index=0)
        assert np.array_equal(amps0, psi0.amplitudes)
        assert g0 == pytest.approx(pipeline_gamma(psi0), abs=1e-13)

    def test_small_run_keeps_all_rows(self):
        report = run_scan(ScanConfig(n_samples=3, seed=0))
        assert len(report.sample_rows) == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(n_samples=0)
        with pytest.raises(ValueError):
            ScanConfig(n_samples=10, sampler="bogus")
        with pytest.raises(ValueError):
            ScanConfig(n_samples=10, histogram_bins=0)
        with pytest.raises(ValueError):
            ScanConfig(n_samples=10, workers=0)

    @pytest.mark.parametrize("field, value", [
        ("n_samples", 10.5), ("n_samples", 1e3), ("histogram_bins", 4.5), ("workers", 1.5),
        ("seed", 2.0), ("n_samples", "10"),
    ])
    def test_non_integer_config_rejected(self, field, value):
        with pytest.raises(TypeError):
            ScanConfig(**{"n_samples": 10, field: value})

    def test_config_stores_plain_ints(self):
        cfg = ScanConfig(n_samples=True, seed=np.uint64(2 ** 63 + 5), histogram_bins=np.int64(4),
                         workers=np.int32(1))
        assert (cfg.n_samples, cfg.seed, cfg.histogram_bins, cfg.workers) == (1, 2 ** 63 + 5, 4, 1)
        assert all(type(v) is int for v in (cfg.n_samples, cfg.seed, cfg.histogram_bins, cfg.workers))
        data = run_scan(cfg).to_json()
        assert data["n_samples"] == 1 and type(data["n_samples"]) is int


class TestReportStates:
    """The states a report names are the rows the scan drew, never drawn again."""

    @pytest.fixture(autouse=True)
    def _no_second_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a report state was drawn a second time")

        monkeypatch.setattr(states, "sample_pure_state", refuse)
        monkeypatch.setattr(scan, "sample_pure_state", refuse, raising=False)

    @staticmethod
    def assert_own_row(state, row):
        assert np.array_equal(state.amplitudes, row)
        assert state.amplitudes.base is None        # not a view that keeps a chunk alive
        assert not state.amplitudes.flags.writeable

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    def test_argmax_state_is_the_drawn_row(self, sampler, workers):
        n = CHUNK + 300   # two chunks
        report = run_scan(ScanConfig(n_samples=n, sampler=sampler, seed=3, workers=workers))
        batch = amplitude_rows(sample_amplitude_batch((3, 3), sampler, 3, 0, n))
        self.assert_own_row(report.argmax_state, batch[report.argmax_index])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_violations_are_the_drawn_rows(self, monkeypatch, workers):
        kernel = scan.batch_gamma_concurrence

        def marked(amps, **kwargs):   # every 137th row of a chunk reads as gamma = 1.25
            gamma, conc = kernel(amps, **kwargs)
            gamma[::137] = 1.25
            return gamma, conc

        monkeypatch.setattr(scan, "batch_gamma_concurrence", marked)
        if workers > 1:   # the patched kernel reaches a worker only through fork
            monkeypatch.setattr(scan, "Pool", multiprocessing.get_context("fork").Pool)
        n = 2 * CHUNK
        report = run_scan(ScanConfig(n_samples=n, seed=4, workers=workers))
        marked_rows = [start + i for start in (0, CHUNK) for i in range(0, CHUNK, 137)]
        assert report.violation_count == len(marked_rows) > scan.VIOLATION_RECORD_CAP
        assert [i for i, _, _ in report.violations] == marked_rows[:scan.VIOLATION_RECORD_CAP]
        batch = amplitude_rows(sample_amplitude_batch((3, 3), "uniform", 4, 0, n))
        for i, gamma, state in report.violations:
            assert gamma == 1.25
            self.assert_own_row(state, batch[i])
        assert report.argmax_index == 0 and report.max_gamma == 1.25
        self.assert_own_row(report.argmax_state, batch[0])


def toy_report(max_gamma=0.5, argmax_index=0, min_concurrence=0.5, sampler="uniform", seed=0,
               bins=((0.0, 1.0),)):
    """A one-sample report with the given maximum and minimum concurrence."""
    return ScanReport(n_samples=1, sampler=sampler, seed=seed, max_gamma=max_gamma,
                      argmax_index=argmax_index, argmax_state=PureState(np.eye(9)[0], (3, 3)),
                      violation_count=0, histogram=[(lo, hi, 1) for lo, hi in bins],
                      sample_rows=[], min_concurrence=min_concurrence, low_concurrence_count=0,
                      violations=[])


def merge_grouped(parts, data):
    """The reports merged in order, grouped as hypothesis draws: any grouping
    into consecutive groups, nested to any depth."""
    if len(parts) == 1:
        return parts[0]
    cut = data.draw(st.integers(1, len(parts) - 1))
    return merge_grouped(parts[:cut], data).merge(merge_grouped(parts[cut:], data))


class TestReportMerge:
    """ScanReport.merge, the fold run_scan applies to chunk reports in chunk
    order: its maximum is the first, as ``max`` picks it."""

    @pytest.mark.parametrize("first, second, index", [
        (math.nan, 0.9, 3), (0.9, math.nan, 3), (0.9, 0.9, 3), (0.5, 0.9, 8), (0.9, 0.5, 3),
    ], ids=["earlier-nan-kept", "later-nan-ignored", "tie-lower-index", "later-greater",
            "earlier-greater"])
    def test_maximum_is_the_first(self, first, second, index):
        parts = [toy_report(first, 3), toy_report(second, 8)]
        merged = parts[0].merge(parts[1])
        assert merged.argmax_index == index == max(parts, key=lambda r: r.max_gamma).argmax_index
        assert repr(merged.max_gamma) == repr((first, second)[index == 8])

    @pytest.mark.parametrize("first, second", [
        (0.2, 0.1), (0.1, 0.2), (math.nan, 0.1), (0.1, math.nan), (0.0, -0.0), (-0.0, 0.0),
    ])
    def test_min_concurrence_as_builtin_min(self, first, second):
        merged = toy_report(min_concurrence=first).merge(toy_report(min_concurrence=second))
        assert repr(merged.min_concurrence) == repr(min(first, second))

    @pytest.mark.parametrize("other", [
        {"sampler": "haar"}, {"seed": 1}, {"bins": ((0.0, 0.5),)},
        {"bins": ((0.0, 0.5), (0.5, 1.0))},
    ])
    def test_reports_of_another_scan_rejected(self, other):
        with pytest.raises(ValueError, match="cannot merge"):
            toy_report().merge(toy_report(**other))

    def test_operands_unchanged(self):
        """merge builds a new report: the chunk reports it folds stay as they were."""
        parts = [replace(toy_report(), sample_rows=[(np.eye(9)[i], 0.5)],
                         violations=[(i, 1.25, PureState(np.eye(9)[i], (3, 3)))])
                 for i in range(2)]
        before = [json.dumps(part.to_json()) for part in parts]
        merged = parts[0].merge(parts[1])
        assert [json.dumps(part.to_json()) for part in parts] == before
        assert [i for i, _, _ in merged.violations] == [0, 1] and len(merged.sample_rows) == 2

    @pytest.fixture(scope="class")
    def scans(self):
        """(chunk reports in chunk order, run_scan's JSON on 1 and 2 workers)
        of a 1-chunk scan, a scan of whole chunks and one with a partial last
        chunk, on each sampler."""
        found = []
        for sampler, n in product(("uniform", "haar"), (CHUNK, 3 * CHUNK, 2 * CHUNK + 77)):
            cfg = ScanConfig(n_samples=n, sampler=sampler, seed=11)
            edges = np.linspace(0.0, CONCURRENCE_MAX, cfg.histogram_bins + 1)
            parts = [scan._scan_chunk((cfg, edges, start, min(start + CHUNK, n)))
                     for start in range(0, n, CHUNK)]
            found.append((parts, [json.dumps(run_scan(replace(cfg, workers=workers)).to_json())
                                  for workers in (1, 2)]))
        return found

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_grouping_merges_to_the_scan(self, scans, data):
        parts, expected = data.draw(st.sampled_from(scans))
        merged = json.dumps(merge_grouped(parts, data).to_json())
        assert [merged, merged] == expected


def chunk(sampler="uniform", seed=3, start=0):
    """A full chunk of samples as complex amplitude rows."""
    return amplitude_rows(sample_amplitude_batch((3, 3), sampler, seed, start, CHUNK))


def basis_row(scale, *indices):
    """Amplitude row with ``scale / sqrt(len(indices))`` at each index."""
    row = np.zeros(9, dtype=complex)
    row[list(indices)] = scale / math.sqrt(len(indices))
    return row


def screen_matches_exact(amps, keep_leading):
    """Screened and exact kernel on one batch: every figure a scan reduction
    reads agrees bit for bit.  Returns (screened, exact) gamma."""
    exact, conc = batch_gamma_concurrence(planes_of(amps))
    screened, screened_conc = batch_gamma_concurrence(planes_of(amps), keep_leading=keep_leading)
    kept = np.isfinite(screened)
    assert np.array_equal(screened_conc, conc)
    assert np.all(screened[~kept] == -np.inf)       # dropped rows hold -inf, never NaN
    assert np.array_equal(screened[kept], exact[kept])
    assert np.argmax(screened) == np.argmax(exact)
    assert screened.max() == exact.max()
    assert np.array_equal(np.nonzero(screened > 1 + VIOLATION_TOL)[0],
                          np.nonzero(exact > 1 + VIOLATION_TOL)[0])
    assert np.array_equal(screened[:keep_leading], exact[:keep_leading])
    return screened, exact


class TestScreenedKernel:
    """batch_gamma_concurrence(keep_leading=k) against the exact kernel."""

    @pytest.mark.parametrize("seed, start", [(0, 0), (3, 5 * CHUNK), (2 ** 63 + 5, 2 * CHUNK)])
    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    def test_screen_matches_exact_on_full_chunks(self, sampler, seed, start):
        amps = chunk(sampler, seed, start)
        screened, _ = screen_matches_exact(amps, max(0, SAMPLE_ROW_COUNT - start))
        assert np.isfinite(screened).sum() < CHUNK // 8   # the screen drops most rows

    def test_tie_for_maximum_first_in_chunk_order(self, monkeypatch):
        starts = (0, CHUNK, 2 * CHUNK)
        exact = {start: batch_gamma_concurrence(planes_of(chunk(seed=5, start=start)))[0]
                 for start in starts}
        best = max(starts, key=lambda start: exact[start].max())
        top = chunk(seed=5, start=best)[np.argmax(exact[best])]

        def tied(dims, sampler, seed, start, count):   # the top row again at 7 and 900
            amps = amplitude_rows(sample_amplitude_batch(dims, sampler, seed, start, count))
            amps[[7, 900]] = top
            return planes_of(amps)

        for start in starts:
            screened, _ = screen_matches_exact(amplitude_rows(tied((3, 3), "uniform", 5, start, CHUNK)), 0)
            assert screened[7] == screened[900] == exact[best].max()
        monkeypatch.setattr(scan, "sample_amplitude_batch", tied)
        report = run_scan(ScanConfig(n_samples=len(starts) * CHUNK, seed=5))
        assert report.argmax_index == 7   # first in chunk order, though every chunk ties
        assert report.max_gamma == exact[best].max()

    def test_zero_determinant_row_has_gamma_equal_to_frobenius_norm(self):
        amps = chunk()
        amps[500] = basis_row(1.0, 0)   # |11>: Z = diag(0, 0, 1)
        screened, _ = screen_matches_exact(amps, 0)
        z = correlation_matrix_coeff(pure_to_density(PureState(amps[500], (3, 3)))).matrix
        assert screened[500] == np.linalg.norm(z) == 1.0

    def test_lower_bound_is_tight_for_equal_singular_values(self):
        # GHZ has Z = diag(2, -2, 2) / 3, so ||Z||_F^2 - |det Z|^(2/3) is
        # exactly gamma^2; a |11> row only 1e-6 above it must be kept
        amps = chunk()[:1000]
        amps[:] = basis_row(math.sqrt(0.8 / math.sqrt(8 / 9)), 0, 4, 8)   # gamma 0.8
        amps[600] = basis_row(math.sqrt(0.8 * (1 + 1e-6)), 0)
        screened, _ = screen_matches_exact(amps, 0)
        assert np.argmax(screened) == 600

    def test_rows_with_norm_just_above_one_kept_exact(self):
        amps = chunk()
        amps[300] = basis_row(math.sqrt(1.2), 0, 4, 8)   # GHZ x sqrt(1.2): gamma 1.13
        amps[400] = basis_row(math.sqrt(1 + 1e-12), 0)   # ||Z||_F = 1 + 1e-12
        amps[401] = basis_row(math.sqrt(1 - 1e-12), 0)   # ||Z||_F = 1 - 1e-12
        screened, exact = screen_matches_exact(amps, 0)
        assert np.argmax(screened) == 300
        assert screened[400] == exact[400] > 1
        assert screened[401] == exact[401] < 1

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_raises(self, value):
        amps = chunk()
        amps[700, 3] = value
        for keep_leading in (None, 0):
            with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
                batch_gamma_concurrence(planes_of(amps), keep_leading=keep_leading)

    def test_negative_keep_leading_rejected(self):
        with pytest.raises(ValueError, match="keep_leading"):
            batch_gamma_concurrence(planes_of(chunk()[:10]), keep_leading=-1)

    @pytest.mark.parametrize("row, match", [
        (basis_row(2.0, 0, 4, 8), "quantum cap"),    # GHZ x 2: gamma 3.77
        (basis_row(1.1, 0), "operator norm"),        # 1.1 |11>: gamma 1.21, norm 1.21
    ])
    def test_caps_raise_through_screen(self, row, match):
        amps = chunk()
        amps[CHUNK - 10] = row
        with pytest.raises(ValueError, match=match):
            batch_gamma_concurrence(planes_of(amps), keep_leading=0)


def einsum_route(amps):
    """(Z, gamma, concurrence) of a batch of amplitude rows by the full
    coefficient tensor and numpy einsum: the kernel's reference."""
    a = amps.reshape(-1, 3, 3)
    ac = a.conj()
    z = correlation_from_coefficients(np.einsum("bmk,bpq->bmpkq", a, ac))
    gamma = top_two_root(np.linalg.eigvalsh(np.einsum("bji,bjk->bik", z, z)))
    reduced = np.einsum("bij,bkj->bik", a, ac)
    purity = np.einsum("bik,bik->b", reduced, reduced.conj()).real
    return z, gamma, np.sqrt(np.clip(2.0 * (1.0 - purity), 0.0, None))


def assert_same_bits(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


class TestKernelMatchesEinsumRoute:
    """The kernel builds Z and the purity from amplitude-product parts; every
    bit must equal the einsum route over the full coefficient tensor."""

    @staticmethod
    def kernel(amps, monkeypatch):
        """The kernel's (Z, gamma, concurrence) and the batch it passes to
        correlation_from_coefficients, both captured there."""
        seen = []

        def recording(coeffs):
            seen.append((coeffs, correlation_from_coefficients(coeffs)))
            return seen[-1][1]

        monkeypatch.setattr(scan, "correlation_from_coefficients", recording)
        gamma, conc = batch_gamma_concurrence(planes_of(amps))
        ((batch, z),) = seen
        return (z, gamma, conc), batch

    def check(self, amps, monkeypatch):
        figures, batch = self.kernel(amps, monkeypatch)
        for got, want in zip(figures, einsum_route(amps)):
            assert_same_bits(got, want)
        # every entry the kernel's batch answers, computed or a partner, in
        # each part it has; PRODUCTS covers each entry
        # correlation_from_coefficients and the purity read
        # (test_products_are_the_entries_read)
        a = amps.reshape(-1, 3, 3)
        tensor = np.einsum("bmk,bpq->bmpkq", a, a.conj())
        for entry in scan.PRODUCTS:
            got, want = batch[(..., *entry)], tensor[(..., *entry)]
            assert_same_bits(got.real, want.real)
            if entry in scan.PAIRED:   # the others have none
                assert_same_bits(got.imag, want.imag)

    def test_partner_and_diagonal_have_no_imaginary_part(self):
        """Only an entry of PAIRED has an imaginary row: a formula that read
        a partner's or a diagonal entry's imaginary part would fail."""
        batch = scan._PureBatch(planes_of(chunk()[:4]))
        partners = [(p, m, q, k) for m, p, k, q in scan.PAIRED]
        diagonal = [(i, i, j, j) for i in range(3) for j in range(3)]
        assert sorted(partners + scan.PAIRED + diagonal) == sorted(scan.PRODUCTS)
        for entry in partners + diagonal:
            with pytest.raises(AttributeError):
                batch[(..., *entry)].imag

    def test_batch_is_what_the_tracer_reads(self, monkeypatch):
        """perfbench's correlations.z span counts the bytes of the batch the
        kernel passes to correlation_from_coefficients as its .nbytes: the
        one (55, b) float64 array of products.  The batch reads as a
        (b, 3, 3, 3, 3) tensor, and an entry the kernel does not form raises
        rather than reading some other row."""
        b = 100
        _, batch = self.kernel(chunk()[:b], monkeypatch)
        assert batch.shape == (b, 3, 3, 3, 3)
        assert batch.nbytes == 55 * 8 * b
        unformed = [entry for entry in product(range(3), repeat=4) if entry not in scan.PRODUCTS]
        assert len(unformed) == 81 - 55
        for entry in unformed:
            with pytest.raises(KeyError):
                batch[(..., *entry)]

    @pytest.mark.parametrize("seed, start", [(0, 0), (11, 77 * CHUNK), (2 ** 63 + 5, 2 ** 64 - CHUNK)])
    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    def test_full_chunks(self, sampler, seed, start, monkeypatch):
        self.check(chunk(sampler, seed, start), monkeypatch)

    def test_rows_with_exact_and_signed_zeros(self, monkeypatch):
        rows = np.array([
            basis_row(1.0, 0),          # |11>
            basis_row(1.0, 0, 4, 8),    # GHZ
            -basis_row(1.0, 4),         # -|22>: every other entry is -0 - 0j
            -1j * basis_row(1.0, 1),    # |1> (x) (-i|2>)
            basis_row(1.0, 0, 4, 8),    # GHZ, with a -0 imaginary part set below
        ])
        # a[11] conj(a[22]) is then s^2 - 0i as a bare product; einsum adds it
        # into a zeroed output, which makes the -0 a +0
        rows[4, 0] = complex(rows[4, 0].real, -0.0)
        assert np.signbit(rows[2, 1:].real).all() and np.signbit(rows[2, 1:].imag).all()
        self.check(rows, monkeypatch)
        amps = chunk()
        amps[[10, 2000, 5000, 6000, CHUNK - 1]] = rows
        self.check(amps, monkeypatch)

    def test_row_shapes(self):
        amps = chunk()[:100]
        for got, want in zip(batch_gamma_concurrence(planes_of(amps.reshape(100, 3, 3))),
                             batch_gamma_concurrence(planes_of(amps))):
            assert_same_bits(got, want)
        for bad in (np.zeros((4, 10), dtype=complex), np.zeros((4, 8), dtype=complex)):
            with pytest.raises(ValueError):
                batch_gamma_concurrence(planes_of(bad))

    def test_products_are_the_entries_read(self):
        """PRODUCTS holds each entry correlation_from_coefficients reads, and
        the reduced state's 27 first, in (i, k, j) order.  The kernel
        computes one product of each conjugate pair and the 9 diagonal ones,
        and exactly the parts that correlation_from_coefficients and the
        purity read, directly or through a partner."""
        read = set()   # (entry, part) pairs

        class Entry:
            def __init__(self, entry):
                self.entry = entry

            def __getattr__(self, part):
                read.add((self.entry, part))
                return np.zeros(1)

        class Recording:
            shape = (1, 3, 3, 3, 3)

            def __getitem__(self, key):
                return Entry(key[1:])

        correlation_from_coefficients(Recording())
        reduced = [(i, k, j, j) for i in range(3) for k in range(3) for j in range(3)]
        assert scan.PRODUCTS[:27] == reduced
        assert set(scan.PRODUCTS) == {entry for entry, _ in read} | set(reduced)
        assert len(scan.PRODUCTS) == len(set(scan.PRODUCTS)) == 55

        def conjugate(entry):
            m, p, k, q = entry
            return (p, m, q, k)

        # the representatives: one of each of the 23 pairs, the first of each
        # pair in PRODUCTS order among the reduced state's 9 pairs (i < k)
        diagonal = [entry for entry in scan.PRODUCTS if conjugate(entry) == entry]
        assert diagonal == [(i, i, j, j) for i in range(3) for j in range(3)]
        pairs = {frozenset((entry, conjugate(entry))) for entry in scan.PRODUCTS} - {
            frozenset((entry,)) for entry in diagonal}
        assert len(scan.PAIRED) == len(pairs) == 23
        assert {frozenset((entry, conjugate(entry))) for entry in scan.PAIRED} == pairs
        assert scan.PAIRED[:9] == [(i, k, j, j) for i, k in ((0, 1), (0, 2), (1, 2)) for j in range(3)]
        assert scan.PAIRED == [entry for entry in scan.PRODUCTS if entry in scan.PAIRED]

        def representative(entry):
            return entry if entry in scan.PAIRED + diagonal else conjugate(entry)

        # the computed part each read part comes from.  A diagonal entry's
        # imaginary part is +0.0 and comes from none.  No imaginary part
        # correlation_from_coefficients reads is a partner's, which the batch
        # does not have; the purity squares each imaginary part of the reduced
        # state, so a partner's comes from its representative's
        sources = {("real", representative(entry)) for entry, part in read if part == "real"}
        for entry, part in read:
            if part == "imag" and entry not in diagonal:
                assert entry in scan.PAIRED, entry
                sources.add(("imag", entry))
        for entry in reduced:
            sources.add(("real", representative(entry)))
            if entry not in diagonal:
                sources.add(("imag", representative(entry)))
        computed = ({("real", entry) for entry in scan.PAIRED + diagonal}
                    | {("imag", entry) for entry in scan.PAIRED})
        assert sources == computed
        assert scan._PureBatch(planes_of(chunk()[:4])).nbytes == len(computed) * 4 * 8 == 55 * 4 * 8


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts minor page faults under glibc's malloc")
def test_warm_chunks_take_no_page_faults():
    """Past two warm-up chunks, a chunk reuses memory the process already
    holds: fewer than 100 minor page faults each (0-3 measured; a kernel
    with one array per amplitude product took ~2,530).  Runs in a fresh
    interpreter."""
    code = textwrap.dedent("""
        import json, resource
        import numpy as np
        from spinchsh.scan import CHUNK, CONCURRENCE_MAX, ScanConfig, _scan_chunk

        faults = {}
        for sampler in ("uniform", "haar"):
            cfg = ScanConfig(n_samples=6 * CHUNK, sampler=sampler)
            edges = np.linspace(0.0, CONCURRENCE_MAX, cfg.histogram_bins + 1)
            faults[sampler] = []
            for i in range(6):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                _scan_chunk((cfg, edges, i * CHUNK, (i + 1) * CHUNK))
                faults[sampler].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(json.dumps(faults))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    faults = json.loads(out.stdout)
    for sampler, counts in faults.items():
        assert max(counts[2:]) < 100, (sampler, counts)


def report_digest(report) -> str:
    """SHA-256 of the report's JSON form, the digest the benchmark pins."""
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


def benchmark_tree(module="scan_workloads") -> ast.Module:
    """Syntax tree of a perfbench module, read without importing it (it
    imports the benchmark's tracer)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{module}.py"
    return ast.parse(path.read_text())


def benchmark_constants(*names, module="scan_workloads") -> dict:
    """Literal module-level constants of a perfbench module."""
    found = {}
    for node in benchmark_tree(module).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                found[target.id] = ast.literal_eval(node.value)
    return found


class TestBenchmarkTracerNames:
    """The benchmark traces by rebinding names inside spinchsh.scan and
    spinchsh.cli; a name the program no longer has would silently go
    untraced."""

    def test_scan_tracer_names_are_scan_attributes(self):
        rebound = [key.value for node in ast.walk(benchmark_tree())
                   if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                   and [getattr(t, "id", None) for t in node.targets] == ["wrappers"]
                   for key in node.value.keys]
        assert sorted(rebound) == ["batch_gamma_concurrence", "correlation_from_coefficients",
                                   "sample_amplitude_batch", "top_two_root"]
        for name in rebound:
            assert hasattr(scan, name), name

    def test_cli_layers_are_cli_attributes(self):
        layers = benchmark_constants("CLI_LAYERS", module="certify_workload")["CLI_LAYERS"]
        assert len(layers) == 11
        for name in [*layers, "build_parser"]:
            assert hasattr(cli, name), name


class TestBenchmarkImports:
    """A name a perfbench module imports from spinchsh that the program no
    longer has makes every benchmark run exit non-zero."""

    def test_every_imported_name_exists(self):
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        imported = [(node.module, alias.name)
                    for path in sorted(perfbench.glob("*.py"))
                    for node in ast.walk(benchmark_tree(path.stem))
                    if isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "spinchsh"
                    for alias in node.names]
        assert imported
        for module, name in imported:
            # a from-import takes a submodule too, as ``from spinchsh import cli``
            found = importlib.import_module(module)
            assert hasattr(found, name) or importlib.util.find_spec(f"{module}.{name}"), (module, name)


class TestReportDigests:
    """Scan reports pinned byte for byte.  The bits of gamma come from the
    LAPACK build numpy ships, so the digests hold for the numpy version that
    wrote them; on any other version the test skips."""

    NUMPY_VERSION = "2.4.6"
    # 3 full chunks and a partial one, on a seed above 2**63
    PARTIAL_SEED = 2 ** 63 + 5
    PARTIAL_DIGEST = {
        "uniform": "4d2d032807d7b738190639f3e6d9b7196dd375239f6ee0a02cbbe61471512584",
        "haar": "9899482adda242742a949848bd78bec6c6cc323d7b71e66f746daae80ca7472b",
    }

    @pytest.fixture(autouse=True)
    def _same_numpy(self):
        if np.__version__ != self.NUMPY_VERSION:
            pytest.skip(f"digests written with numpy {self.NUMPY_VERSION}, "
                        f"running {np.__version__}")

    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    def test_benchmark_reference_scan(self, sampler):
        ref = benchmark_constants("REFERENCE_SEED", "REFERENCE_STATES", "REFERENCE_DIGEST")
        report = run_scan(ScanConfig(n_samples=ref["REFERENCE_STATES"], sampler=sampler,
                                     seed=ref["REFERENCE_SEED"]))
        assert report_digest(report) == ref["REFERENCE_DIGEST"][sampler]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    def test_partial_last_chunk(self, sampler, workers):
        report = run_scan(ScanConfig(n_samples=3 * CHUNK + 77, sampler=sampler,
                                     seed=self.PARTIAL_SEED, workers=workers))
        assert report_digest(report) == self.PARTIAL_DIGEST[sampler]


class TestMixtureSpotCheck:

    def test_mixtures_of_sampled_states_obey_bound_chain(self, rng):
        """gamma(mixture) <= sum_k lam_k gamma_k <= max_k gamma_k <= 1."""
        index = 0
        for _ in range(30):
            n = int(rng.integers(2, 5))
            pures = [sample_pure_state((3, 3), "uniform", seed=99, index=index + i)
                     for i in range(n)]
            index += n
            lam = rng.random(n) + 0.05
            lam /= lam.sum()
            gammas = [pipeline_gamma(p) for p in pures]
            mixture = mix([(w, pure_to_density(p)) for w, p in zip(lam, pures)])
            gamma_mix = chsh_analysis(correlation_matrix_coeff(mixture)).gamma
            avg = float(np.dot(lam, gammas))
            assert gamma_mix <= avg + 1e-9
            assert avg <= max(gammas) + 1e-12
            assert max(gammas) <= 1 + 1e-9


class TestTableRows:
    """The two-decimal table ``scan --rows-out`` writes: the report's leading
    sample rows, rounded by the command line."""

    @staticmethod
    def table(tmp_path, *argv):
        path = tmp_path / "rows.csv"
        assert cli.main(["scan", *argv, "--rows-out", str(path)]) == 0
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert tuple(header) == cli.TABLE_COLUMNS
        return [[float(x) for x in row] for row in rows]

    def test_layout_and_rounding(self, capsys, tmp_path):
        rows = self.table(tmp_path, "--n", "10", "--seed", "12", "--rows", "5")
        assert len(rows) == 5
        assert all(len(r) == 19 for r in rows)
        planes = sample_amplitude_batch((3, 3), "uniform", 12, 0, 5)
        gamma, _ = batch_gamma_concurrence(planes)
        amps = amplitude_rows(planes)
        for i, row in enumerate(rows):
            assert row[-1] == round(float(gamma[i]), 2)
            assert row[0] == round(float(amps[i, 0].real), 2)
            assert row[1] == round(float(amps[i, 0].imag), 2)

    def test_rows_are_the_reports_sample_rows(self, capsys, tmp_path):
        for decimals in (None, 0, 4):
            flag = [] if decimals is None else ["--decimals", str(decimals)]
            rows = self.table(tmp_path, *flag, "--n", "300", "--seed", "4", "--sampler", "haar",
                              "--rows", "20")
            report = run_scan(ScanConfig(n_samples=300, seed=4, sampler="haar"))
            places = 2 if decimals is None else decimals
            expected = [[round(x, places) for z in amps for x in (z.real, z.imag)]
                        + [round(g, places)] for amps, g in report.sample_rows[:20]]
            assert rows == expected

    def test_rounded_rows_reproduce_gamma_within_tolerance(self, capsys, tmp_path):
        """Renormalizing the two-decimal amplitudes moves gamma by < 0.02."""
        rows = self.table(tmp_path, "--n", "40", "--seed", "13", "--rows", "40")
        assert len(rows) == 40
        for row in rows:
            amps = np.array(row[:-1:2]) + 1j * np.array(row[1::2][:9])
            amps = amps / np.linalg.norm(amps)
            regenerated = pipeline_gamma(PureState(amps, (3, 3)))
            assert abs(regenerated - row[-1]) <= 0.02


class TestSerialization:

    def test_report_json_shape(self):
        report = run_scan(ScanConfig(n_samples=64, seed=21, histogram_bins=8))
        data = report.to_json()
        assert data["n_samples"] == 64
        assert data["sampler"] == "uniform"
        assert len(data["histogram"]) == 8
        assert len(data["sample_rows"]) == 50
        assert data["violation_count"] == 0
        round_trip = json.loads(json.dumps(data))
        assert round_trip["max_gamma"] == data["max_gamma"]

    def test_histogram_csv(self, tmp_path):
        path = tmp_path / "hist.csv"
        assert cli.main(["scan", "--n", "500", "--seed", "22", "--hist-bins", "10",
                         "--hist-out", str(path)]) == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lo", "bin_hi", "count"]
        assert len(rows) == 11
        assert sum(int(r[2]) for r in rows[1:]) == 500

    def test_sample_rows_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        assert cli.main(["scan", "--n", "12", "--seed", "23", "--rows", "12",
                         "--rows-out", str(path)]) == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["psi11_re", "psi11_im"]
        assert rows[0][-1] == "gamma"
        assert len(rows[0]) == 19
        assert len(rows) == 13
        assert all(len(row) == 19 for row in rows)
