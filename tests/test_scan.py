"""Monte Carlo harness: determinism, reductions, table rows, serialization."""

import csv
import json
import math

import numpy as np
import pytest

from spinchsh import (CorrelationMatrix, ScanConfig, ScanReport, chsh_analysis,
                      correlation_matrix_coeff, concurrence_pure, mix,
                      pure_to_density, run_scan, sample_pure_state,
                      table_rows, write_histogram_csv, write_sample_rows_csv)
from spinchsh.scan import CHUNK, CONCURRENCE_MAX, batch_gamma_concurrence
from spinchsh.states import sample_amplitude_batch


def pipeline_gamma(psi):
    return chsh_analysis(correlation_matrix_coeff(pure_to_density(psi))).gamma


class TestRunScan:

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_key_domain_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ScanConfig(n_samples=10, seed=seed)

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
            batch_gamma_concurrence(ghz)

    def test_kernel_rejects_norm_above_one(self):
        # 1.1 |11> has Z = diag(0, 0, 1.21): gamma 1.21 passes the Tsirelson
        # cap, but no state has a spin-1 correlation matrix of norm above 1
        rows = np.zeros((2, 9), dtype=complex)
        rows[0, [0, 4, 8]] = 1 / math.sqrt(3)
        rows[1, 0] = 1.1
        with pytest.raises(ValueError, match="operator norm"):
            batch_gamma_concurrence(rows)
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

    def test_layout_and_rounding(self):
        cfg = ScanConfig(n_samples=10, seed=12)
        rows = table_rows(cfg, k=5, decimals=2)
        assert len(rows) == 5
        assert all(len(r) == 19 for r in rows)
        amps = sample_amplitude_batch((3, 3), "uniform", 12, 0, 5)
        gamma, _ = batch_gamma_concurrence(amps)
        for i, row in enumerate(rows):
            assert row[-1] == round(float(gamma[i]), 2)
            assert row[0] == round(float(amps[i, 0].real), 2)
            assert row[1] == round(float(amps[i, 0].imag), 2)

    def test_rounded_rows_reproduce_gamma_within_tolerance(self):
        """Renormalizing the two-decimal amplitudes moves gamma by < 0.02."""
        cfg = ScanConfig(n_samples=40, seed=13)
        rows = table_rows(cfg, k=40, decimals=2)
        from spinchsh import PureState
        for row in rows:
            amps = np.array(row[:-1:2]) + 1j * np.array(row[1::2][:9])
            amps = amps / np.linalg.norm(amps)
            regenerated = pipeline_gamma(PureState(amps, (3, 3)))
            assert abs(regenerated - row[-1]) <= 0.02

    def test_k_cannot_exceed_n(self):
        with pytest.raises(ValueError):
            table_rows(ScanConfig(n_samples=5, seed=0), k=6)


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
        report = run_scan(ScanConfig(n_samples=500, seed=22, histogram_bins=10))
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, report)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lo", "bin_hi", "count"]
        assert len(rows) == 11
        assert sum(int(r[2]) for r in rows[1:]) == 500

    def test_sample_rows_csv(self, tmp_path):
        cfg = ScanConfig(n_samples=12, seed=23)
        path = tmp_path / "rows.csv"
        write_sample_rows_csv(path, table_rows(cfg, k=12))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["psi11_re", "psi11_im"]
        assert rows[0][-1] == "gamma"
        assert len(rows[0]) == 19
        assert len(rows) == 13
