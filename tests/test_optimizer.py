"""Alternating maximization over measurement directions vs the closed form."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from conftest import random_mixed, random_pure, random_qutrit_density, random_unit_triple
from spinchsh import (Antisym, CorrelationMatrix, Example1, Example2, GHZ3, Horodecki,
                      MeasurementSetting, OptimizerConfig, OptimizationResult, Product, Sym,
                      Werner, bilinear_reduce, chsh_analysis, correlation_matrix_coeff,
                      family_state, optimize_settings, pure_to_density, settings_from_svd)
from spinchsh import optimizer
from spinchsh.states import FAMILIES

E1, E2, E3 = np.eye(3)


def closed_form(matrix):
    ev = np.linalg.eigvalsh(matrix.T @ matrix)
    return 2 * math.sqrt(max(ev[2], 0) + max(ev[1], 0))


# The alternating sweep as it was written before it reused the objective's
# products: per sweep four np.linalg.norm, six @ products and one _bilinear.
# optimize_settings must return its bits.  fallbacks counts how often the
# zero-gradient branch ran.
fallbacks = [0]


def _loop_bilinear(m, a1, a2, b1, b2) -> float:
    return float(a1 @ (m @ (b1 + b2)) + a2 @ (m @ (b1 - b2)))


def _loop_random_unit(rng) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


def _loop_normalize_or_keep(v, fallback):
    n = np.linalg.norm(v)
    if n <= 1e-300:
        fallbacks[0] += 1
        return fallback
    return v / n


def loop_optimize_settings(Z, cfg):
    m = optimizer._matrix_of(Z)
    mt = m.T
    best = None
    any_converged = False
    for restart in range(cfg.restarts):
        rng = optimizer.keyed_generator(cfg.seed, restart)
        a1, a2 = _loop_random_unit(rng), _loop_random_unit(rng)
        b1, b2 = _loop_random_unit(rng), _loop_random_unit(rng)
        history = []
        prev = -math.inf
        converged = False
        iterations = 0
        for iterations in range(1, cfg.max_iterations + 1):
            a1 = _loop_normalize_or_keep(m @ (b1 + b2), a1)
            a2 = _loop_normalize_or_keep(m @ (b1 - b2), a2)
            b1 = _loop_normalize_or_keep(mt @ (a1 + a2), b1)
            b2 = _loop_normalize_or_keep(mt @ (a1 - a2), b2)
            obj = _loop_bilinear(m, a1, a2, b1, b2)
            history.append(obj)
            if obj - prev < cfg.convergence_tol:
                converged = True
                break
            prev = obj
        any_converged = any_converged or converged
        if best is None or history[-1] > best[0][-1]:
            best = history, iterations, (a1, a2, b1, b2)
    history, iterations, vectors = best
    return OptimizationResult(setting=MeasurementSetting(*vectors), value=history[-1],
                              iterations=iterations, converged=any_converged,
                              history=tuple(history))


def result_bytes(result):
    setting = result.setting
    return (type(result.value), np.float64(result.value).tobytes(), result.iterations,
            result.converged, [type(h) for h in result.history],
            np.array(result.history).tobytes(),
            [v.tobytes() for v in (setting.a1, setting.a2, setting.b1, setting.b2)])


def family_matrices(rng):
    """Z of members of every named family."""
    specs = [GHZ3(), *(Werner(p) for p in (-1.0, -0.5, 0.0, 0.5, 1.0)),
             *(Horodecki(t) for t in (2.0, 3.0, 4.0, 5.0)),
             *(cls(t) for cls in (Example1, Example2) for t in (0.0, 0.3, 0.7, 1.0))]
    for _ in range(3):
        specs += [Antisym(*random_unit_triple(rng)), Sym(*random_unit_triple(rng)),
                  Product(random_qutrit_density(rng), random_qutrit_density(rng))]
    assert {type(spec) for spec in specs} == set(FAMILIES.values())
    return [correlation_matrix_coeff(family_state(spec)).matrix for spec in specs]


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

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 2.5), ("max_iterations", 1e3), ("restarts", 1.5), ("restarts", "8"),
    ])
    def test_non_integer_config_rejected(self, field, value):
        with pytest.raises(TypeError):
            OptimizerConfig(**{field: value})

    def test_config_stores_plain_ints(self):
        cfg = OptimizerConfig(max_iterations=np.int64(40), restarts=True, seed=np.uint64(5))
        assert (cfg.max_iterations, cfg.restarts, cfg.seed) == (40, 1, 5)
        assert all(type(v) is int for v in (cfg.max_iterations, cfg.restarts, cfg.seed))
        assert json.loads(json.dumps(dataclasses.asdict(cfg)))["seed"] == 5
        assert optimize_settings(np.diag([0.5, 0.25, 0.0]), cfg).converged

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            optimize_settings(np.full((3, 3), np.nan))
        with pytest.raises(ValueError, match="float range"):   # 2 sqrt(2) 1e308 is no float
            optimize_settings(np.diag([1e308, 1e308, 0.0]))

    @pytest.mark.parametrize("x", [1e-200, 1e-170, 1e200, 1e300])
    def test_entries_far_from_one(self, x):
        """v . v would overflow above ~1e154 and lose bits below ~1e-154;
        the sweep runs on the matrix scaled by a power of two instead."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = optimize_settings(np.diag([x, x, 0.0]))
        assert result.value == pytest.approx(2 * math.sqrt(2) * x, rel=1e-12, abs=0)
        assert result.converged
        assert max(result.history) == result.value

    def test_optimizer_matches_loop_bits(self, rng):
        """Every field, to the byte, equals the per-sweep loop's: the
        objective's products handed to the next Alice step, sqrt(v . v) for
        np.linalg.norm, ndarray.dot for @ and one (4, 3) draw for four
        standard_normal(3) change no bit."""
        matrices = family_matrices(rng)
        for i in range(12):
            rho = pure_to_density(random_pure(rng)) if i % 2 else random_mixed(rng)
            matrices.append(correlation_matrix_coeff(rho).matrix)
        for _ in range(6):
            m = rng.standard_normal((3, 3)) * 0.3
            u, _, vt = np.linalg.svd(m)
            matrices += [np.asfortranarray(m), m.T,
                         0.7 * np.outer(u[:, 0], vt[0]),                    # rank 1
                         u @ np.diag([0.5, 0.5 - 1e-15, 0.2]) @ vt,        # near-degenerate
                         u @ np.diag([0.5, 0.5 * (1 - 1e-12), 0.0]) @ vt]
        matrices.append(np.zeros((3, 3)))
        configs = [OptimizerConfig(seed=7), OptimizerConfig(max_iterations=1, seed=1),
                   OptimizerConfig(max_iterations=3, seed=2), OptimizerConfig(restarts=1, seed=3),
                   OptimizerConfig(seed=2 ** 64 - 1)]
        fallbacks[0] = 0
        for m in matrices:
            for cfg in configs:
                assert result_bytes(optimize_settings(m, cfg)) == \
                    result_bytes(loop_optimize_settings(m, cfg)), (m, cfg)
        assert fallbacks[0] > 0

    @pytest.mark.parametrize("short", [[1], [3], [3, 4], [0, 4, 5], [0, 1, 2, 3]])
    def test_short_triples_skipped_in_stream_order(self, monkeypatch, short):
        """A starting triple of norm <= 1e-12 is skipped, and the next one
        read, in the same order by the batched draw as by four draws."""
        class Stream:
            def __init__(self, triples):
                self.values, self.read = np.concatenate(triples), 0

            def standard_normal(self, size):
                n = int(np.prod(size))
                self.read += n
                return self.values[self.read - n:self.read].reshape(size).copy()

        triples = list(np.random.default_rng(3).standard_normal((12, 3)))
        for i in short:
            triples[i] = np.array([1e-13, 0.0, 0.0]) if i % 2 else np.zeros(3)
        m = np.diag([0.6, -0.4, 0.2])
        cfg = OptimizerConfig(restarts=2, max_iterations=5)
        results, reads = [], []
        for route in (optimize_settings, loop_optimize_settings):
            streams = []
            monkeypatch.setattr(optimizer, "keyed_generator",
                                lambda seed, index: streams.append(Stream(triples)) or streams[-1])
            results.append(result_bytes(route(m, cfg)))
            reads.append([stream.read for stream in streams])
        assert results[0] == results[1]
        assert reads[0] == reads[1] == [3 * (4 + len(short))] * cfg.restarts


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
