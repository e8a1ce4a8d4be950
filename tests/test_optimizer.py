"""Alternating maximization over measurement directions vs the closed form."""

import math

import numpy as np
import pytest

from conftest import random_mixed, random_pure
from spinchsh import (CorrelationMatrix, GHZ3, Horodecki, MeasurementSetting,
                      OptimizerConfig, bilinear_reduce, chsh_analysis,
                      correlation_matrix_coeff, family_state,
                      optimize_settings, pure_to_density, settings_from_svd)

E1, E2, E3 = np.eye(3)


def closed_form(matrix):
    ev = np.linalg.eigvalsh(matrix.T @ matrix)
    return 2 * math.sqrt(max(ev[2], 0) + max(ev[1], 0))


class TestBilinearReduce:

    def test_direct_substitution(self):
        setting = MeasurementSetting(a1=E3, a2=E3, b1=E3, b2=-E3)
        assert bilinear_reduce(np.diag([0.0, 0.0, 1.0]), setting) == pytest.approx(2.0, abs=0)

    def test_second_term_vanishes_for_equal_bobs(self, rng):
        m = rng.standard_normal((3, 3)) * 0.2
        b = rng.standard_normal(3); b /= np.linalg.norm(b)
        a1 = rng.standard_normal(3); a1 /= np.linalg.norm(a1)
        for _ in range(5):
            a2 = rng.standard_normal(3); a2 /= np.linalg.norm(a2)
            setting = MeasurementSetting(a1=a1, a2=a2, b1=b, b2=b)
            assert bilinear_reduce(m, setting) == pytest.approx(2 * a1 @ m @ b, abs=1e-12)

    def test_ghz_optimal_value(self):
        setting = MeasurementSetting(a1=E3, a2=E1,
                                     b1=(E3 + E1) / math.sqrt(2), b2=(E3 - E1) / math.sqrt(2))
        z = correlation_matrix_coeff(family_state(GHZ3()))
        assert bilinear_reduce(z, setting) == pytest.approx(4 * math.sqrt(2) / 3, abs=1e-12)

    def test_global_negation_invariance(self, rng):
        m = rng.standard_normal((3, 3)) * 0.2
        vs = rng.standard_normal((4, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        value = bilinear_reduce(m, MeasurementSetting(*vs))
        assert bilinear_reduce(m, MeasurementSetting(*(-vs))) == pytest.approx(value, abs=1e-14)


class TestOptimizeSettings:

    @pytest.mark.parametrize("seed", [-5, 2 ** 64])
    def test_seed_outside_key_domain_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            OptimizerConfig(seed=seed)

    def test_largest_seed_accepted(self):
        z = CorrelationMatrix(np.diag([4, -4, -1]) / 21, s=1.0)
        result = optimize_settings(z, OptimizerConfig(seed=2 ** 64 - 1))
        assert result.value == pytest.approx(8 * math.sqrt(2) / 21, abs=1e-6)

    def test_horodecki_target(self):
        z = CorrelationMatrix(np.diag([4, -4, -1]) / 21, s=1.0)
        result = optimize_settings(z, OptimizerConfig(seed=2))
        assert result.converged
        assert result.value == pytest.approx(8 * math.sqrt(2) / 21, abs=1e-6)

    def test_zero_matrix(self):
        result = optimize_settings(np.zeros((3, 3)), OptimizerConfig(seed=0))
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert result.converged

    def test_random_states_reach_closed_form(self, rng):
        cfg = OptimizerConfig(seed=11)
        for i in range(30):
            rho = pure_to_density(random_pure(rng)) if i % 2 else random_mixed(rng)
            z = correlation_matrix_coeff(rho)
            result = optimize_settings(z, cfg)
            assert result.converged
            assert abs(result.value - closed_form(z.matrix)) <= 1e-6
            assert result.value <= chsh_analysis(z).upsilon + 1e-6

    def test_monotone_ascent(self, rng):
        for seed in range(5):
            z = correlation_matrix_coeff(random_mixed(rng))
            result = optimize_settings(z, OptimizerConfig(seed=seed, restarts=2))
            diffs = np.diff(result.history)
            assert np.all(diffs >= -1e-12)

    def test_deterministic_given_seed(self, rng):
        z = correlation_matrix_coeff(random_mixed(rng))
        r1 = optimize_settings(z, OptimizerConfig(seed=33))
        r2 = optimize_settings(z, OptimizerConfig(seed=33))
        assert r1.value == r2.value
        assert np.array_equal(r1.setting.a1, r2.setting.a1)

    def test_unconverged_flag(self, rng):
        z = correlation_matrix_coeff(random_mixed(rng))
        result = optimize_settings(z, OptimizerConfig(max_iterations=1, restarts=2, seed=0))
        assert not result.converged
        assert result.iterations == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0)
        with pytest.raises(ValueError):
            OptimizerConfig(convergence_tol=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            optimize_settings(np.full((3, 3), np.nan))


class TestSettingsFromSvd:

    def test_rank_one_collapse(self):
        setting = settings_from_svd(np.diag([1.0, 0.0, 0.0]))
        assert np.allclose(np.abs(setting.a1), E1, atol=1e-12)
        assert np.array_equal(setting.a1, setting.a2)
        assert bilinear_reduce(np.diag([1.0, 0.0, 0.0]), setting) == pytest.approx(2.0, abs=1e-12)

    def test_ghz_value(self):
        z = correlation_matrix_coeff(family_state(GHZ3()))
        setting = settings_from_svd(z)
        assert bilinear_reduce(z, setting) == pytest.approx(4 * math.sqrt(2) / 3, abs=1e-10)

    def test_horodecki_value(self):
        z = correlation_matrix_coeff(family_state(Horodecki(3.0)))
        setting = settings_from_svd(z)
        assert bilinear_reduce(z, setting) == pytest.approx(8 * math.sqrt(2) / 21, abs=1e-10)

    def test_random_matrices_reach_closed_form(self, rng):
        for _ in range(25):
            m = rng.standard_normal((3, 3)) * 0.3
            setting = settings_from_svd(m)
            assert bilinear_reduce(m, setting) == pytest.approx(closed_form(m), abs=1e-10)

    def test_degenerate_top_pair_included(self, rng):
        """zt = 0 still yields an exact maximizer."""
        u = rng.standard_normal(3); u /= np.linalg.norm(u)
        v = rng.standard_normal(3); v /= np.linalg.norm(v)
        m = 0.8 * np.outer(u, v)
        setting = settings_from_svd(m)
        assert bilinear_reduce(m, setting) == pytest.approx(1.6, abs=1e-10)

    def test_gauge_flip_invariance(self, rng):
        """Flipping a singular pair (u_i, v_i) leaves the achieved value unchanged."""
        m = rng.standard_normal((3, 3)) * 0.3
        u, sv, vt = np.linalg.svd(m)
        theta = math.atan2(sv[1], sv[0])
        for flips in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            u1, v1 = flips[0] * u[:, 0], flips[0] * vt[0]
            u2, v2 = flips[1] * u[:, 1], flips[1] * vt[1]
            setting = MeasurementSetting(
                a1=math.cos(theta) * u1 + math.sin(theta) * u2,
                a2=math.cos(theta) * u1 - math.sin(theta) * u2,
                b1=v1, b2=v2)
            assert bilinear_reduce(m, setting) == pytest.approx(closed_form(m), abs=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            settings_from_svd(np.zeros((3, 3)))
