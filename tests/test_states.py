"""State construction, named families, mixing, sampling, serialization."""

import numpy as np
import pytest

from conftest import random_mixed, random_pure, random_qutrit_density, random_unit_triple
from spinchsh import (Antisym, DensityMatrix, Example1, Example2, GHZ3,
                      Horodecki, Product, PureState, StateInvariantError, Sym,
                      Werner, family_pure, family_state, mix, pure_to_density,
                      sample_pure_state, state_from_json, swap_operator)
from spinchsh.states import keyed_generator, physicality_residuals, sample_amplitude_batch


def basis_state(m, k):
    amps = np.zeros(9, dtype=complex)
    amps[m * 3 + k] = 1.0
    return PureState(amps, (3, 3))


class TestPureAndDensity:

    def test_basis_projector(self):
        rho = pure_to_density(basis_state(0, 0))
        expected = np.zeros((9, 9))
        expected[0, 0] = 1.0
        assert np.array_equal(rho.matrix, expected.astype(complex))

    def test_ghz_coefficients_are_all_one_third(self):
        rho = family_state(GHZ3())
        coeffs = rho.coefficients()
        for m in range(3):
            for mp in range(3):
                assert coeffs[m, mp, m, mp] == pytest.approx(1 / 3, abs=1e-15)

    def test_random_pure_density_is_rank_one(self, rng):
        rho = pure_to_density(random_pure(rng))
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(eigs[:-1]) < 1e-12)

    def test_rejects_unnormalized_pure(self):
        amps = np.full(9, 0.5, dtype=complex)
        with pytest.raises(StateInvariantError):
            PureState(amps, (3, 3))

    def test_rejects_bad_density(self):
        herm_broken = np.eye(9, dtype=complex) / 9
        herm_broken[0, 1] = 1j * 1e-3
        with pytest.raises(StateInvariantError):
            DensityMatrix(herm_broken, (3, 3))
        with pytest.raises(StateInvariantError):
            DensityMatrix(np.eye(9, dtype=complex) / 8, (3, 3))
        negative = np.diag([1.1, -0.1] + [0.0] * 7).astype(complex)
        with pytest.raises(StateInvariantError):
            DensityMatrix(negative, (3, 3))

    def test_coefficient_view_matches_matrix(self, rng):
        rho = random_mixed(rng)
        coeffs = rho.coefficients()
        for _ in range(20):
            m, mp, k, kp = rng.integers(0, 3, size=4)
            assert coeffs[m, mp, k, kp] == rho.matrix[m * 3 + k, mp * 3 + kp]


class TestFamilies:

    def test_antisym_single_component(self):
        psi = family_pure(Antisym(1.0, 0.0, 0.0))
        expected = np.zeros(9, dtype=complex)
        expected[1] = 1 / np.sqrt(2)   # |12>
        expected[3] = -1 / np.sqrt(2)  # |21>
        assert np.allclose(psi.amplitudes, expected, atol=0)

    def test_antisym_coefficient_pattern(self, rng):
        """Nonzero coefficients follow the +-|a_ij|^2/2 block structure."""
        a = random_unit_triple(rng)
        spec = Antisym(*a)
        coeffs = family_state(spec).coefficients()
        amp = {(0, 1): a[0], (0, 2): a[1], (1, 2): a[2]}
        for (i, j), aij in amp.items():
            half = abs(aij) ** 2 / 2
            assert coeffs[i, i, j, j] == pytest.approx(half, abs=1e-14)
            assert coeffs[j, j, i, i] == pytest.approx(half, abs=1e-14)
            assert coeffs[i, j, j, i] == pytest.approx(-half, abs=1e-14)
            assert coeffs[j, i, i, j] == pytest.approx(-half, abs=1e-14)
        # cross terms between the (1j) and (23) components, j = 2, 3
        for j, a1j in ((2, a[0]), (3, a[1])):
            cross = a1j * np.conj(a[2]) / 2
            assert coeffs[0, 1, j - 1, 2] == pytest.approx(cross, abs=1e-14)
            assert coeffs[0, 2, j - 1, 1] == pytest.approx(-cross, abs=1e-14)
            assert coeffs[j - 1, 2, 0, 1] == pytest.approx(cross, abs=1e-14)

    def test_antisym_swap_invariance(self, rng):
        rho = family_state(Antisym(*random_unit_triple(rng)))
        v = swap_operator(3)
        assert np.allclose(v @ rho.matrix @ v, rho.matrix, atol=1e-15)

    def test_sym_coefficients(self, rng):
        a = random_unit_triple(rng)
        coeffs = family_state(Sym(*a)).coefficients()
        for i in range(3):
            for j in range(3):
                assert coeffs[i, j, i, j] == pytest.approx(a[i] * np.conj(a[j]), abs=1e-14)

    def test_ghz_is_symmetric_point(self):
        r = 1 / np.sqrt(3)
        assert np.allclose(family_state(GHZ3()).matrix, family_state(Sym(r, r, r)).matrix, atol=0)

    def test_examples_are_symmetric_states(self):
        for spec in (Example1(0.3), Example2(0.7)):
            via_sym = family_state(Sym(*spec.coefficients()))
            assert np.allclose(family_state(spec).matrix, via_sym.matrix, atol=0)

    def test_werner_extremes(self):
        v = swap_operator(3)
        sym_projector = family_state(Werner(1.0))
        assert np.allclose(sym_projector.matrix, (np.eye(9) + v) / 12, atol=1e-15)
        anti_projector = family_state(Werner(-1.0))
        assert np.allclose(anti_projector.matrix, (np.eye(9) - v) / 6, atol=1e-15)

    def test_horodecki_coefficients(self):
        tau = 3.0
        coeffs = family_state(Horodecki(tau)).coefficients()
        for a in range(3):
            for b in range(3):
                assert coeffs[a, b, a, b] == pytest.approx(2 / 21, abs=1e-15)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            assert coeffs[i, i, j, j] == pytest.approx(tau / 21, abs=1e-15)
            assert coeffs[j, j, i, i] == pytest.approx((5 - tau) / 21, abs=1e-15)

    def test_horodecki_two_assembly_routes_agree(self):
        """Mixture assembly and direct coefficient assembly give the same matrix."""
        tau = 4.2
        via_mix = family_state(Horodecki(tau)).matrix
        direct = np.zeros((9, 9), dtype=complex)
        for a in range(3):
            for b in range(3):
                direct[a * 3 + a, b * 3 + b] = 2 / 21
        for i, j in ((0, 1), (1, 2), (2, 0)):
            direct[i * 3 + j, i * 3 + j] = tau / 21
            direct[j * 3 + i, j * 3 + i] = (5 - tau) / 21
        assert np.abs(via_mix - direct).max() <= 1e-14

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            Werner(1.2)
        with pytest.raises(ValueError):
            Horodecki(1.9)
        with pytest.raises(ValueError):
            Example1(-0.1)
        with pytest.raises(ValueError):
            Example2(1.1)
        with pytest.raises(ValueError):
            Antisym(1.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            Sym(0.5, 0.5, 0.5)

    def test_product_family(self, rng):
        rho_a, rho_b = random_qutrit_density(rng), random_qutrit_density(rng)
        rho = family_state(Product(rho_a, rho_b))
        assert np.allclose(rho.matrix, np.kron(rho_a, rho_b), atol=1e-15)
        with pytest.raises(StateInvariantError):
            Product(np.diag([1.2, -0.2, 0.0]).astype(complex), rho_b)

    def test_family_pure_rejects_mixed(self):
        with pytest.raises(ValueError):
            family_pure(Werner(0.5))


class TestMix:

    def test_single_component_identity(self, rng):
        rho = random_mixed(rng)
        assert np.array_equal(mix([(1.0, rho)]).matrix, rho.matrix)

    def test_horodecki_from_constituents(self):
        tau = 2.8
        ghz = family_state(GHZ3())
        up = np.zeros((9, 9), dtype=complex)
        down = np.zeros((9, 9), dtype=complex)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            up[i * 3 + j, i * 3 + j] = 1 / 3
            down[j * 3 + i, j * 3 + i] = 1 / 3
        assembled = mix([
            (2 / 7, ghz),
            (tau / 7, DensityMatrix(up, (3, 3))),
            ((5 - tau) / 7, DensityMatrix(down, (3, 3))),
        ])
        assert np.allclose(assembled.matrix, family_state(Horodecki(tau)).matrix, atol=1e-15)

    def test_diagonal_mixture(self):
        rho = mix([(0.5, pure_to_density(basis_state(0, 0))),
                   (0.5, pure_to_density(basis_state(1, 1)))])
        diag = np.diag(rho.matrix).real
        assert diag[0] == 0.5 and diag[4] == 0.5 and diag.sum() == pytest.approx(1.0)

    def test_weight_validation(self, rng):
        rho = random_mixed(rng)
        with pytest.raises(ValueError):
            mix([(0.6, rho), (-0.1, rho), (0.5, rho)])
        with pytest.raises(ValueError):
            mix([(0.6, rho), (0.3, rho)])
        with pytest.raises(ValueError):
            mix([])


class TestSampling:

    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    def test_normalized(self, sampler):
        psi = sample_pure_state((3, 3), sampler, seed=3, index=5)
        assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_sampler_first_quadrant(self):
        for index in range(50):
            psi = sample_pure_state((3, 3), "uniform", seed=1, index=index)
            assert np.all(psi.amplitudes.real >= 0)
            assert np.all(psi.amplitudes.imag >= 0)

    def test_deterministic_in_seed_and_index(self):
        a = sample_pure_state((3, 3), "haar", seed=9, index=7)
        b = sample_pure_state((3, 3), "haar", seed=9, index=7)
        c = sample_pure_state((3, 3), "haar", seed=9, index=8)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert not np.array_equal(a.amplitudes, c.amplitudes)

    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    def test_batch_equals_single_path_bitwise(self, sampler):
        batch = sample_amplitude_batch((3, 3), sampler, seed=21, start=10, count=40)
        for i in range(40):
            single = sample_pure_state((3, 3), sampler, seed=21, index=10 + i)
            assert np.array_equal(batch[i], single.amplitudes)

    # first and last amplitude as (re, im) hex floats; the scan, the CLI and
    # every regenerated argmax state rest on this stream
    @pytest.mark.parametrize("sampler, seed, index, first, last", [
        ("uniform", 0, 0, ("0x1.5116693b501e4p-8", "0x1.b8b9c8acf7122p-4"),
         ("0x1.fdd74b969b495p-4", "0x1.367ffb799a79ap-4")),
        ("uniform", 2 ** 63 + 5, 17, ("0x1.daec51076b455p-3", "0x1.61804945c27f9p-2"),
         ("0x1.e415bd30385c1p-3", "0x1.1b3ba6c1e8bcep-3")),
        ("haar", 0, 0, ("0x1.1c378f0e21e3fp-5", "-0x1.8bb0f63fa7b4ap-2"),
         ("-0x1.0cd7671848482p-4", "-0x1.54be26b59d235p-3")),
        ("haar", 2 ** 64 - 1, 2 ** 64 - 1, ("0x1.3015a644f4402p-3", "-0x1.1712f87cf2cc7p-2"),
         ("-0x1.55fbbad2740a4p-2", "-0x1.35aecf6e1917ap-3")),
    ])
    def test_pinned_bits(self, sampler, seed, index, first, last):
        amps = sample_pure_state((3, 3), sampler, seed, index).amplitudes
        for a, (re, im) in ((amps[0], first), (amps[8], last)):
            assert (a.real, a.imag) == (float.fromhex(re), float.fromhex(im))

    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    @pytest.mark.parametrize("seed, index", [
        (0, 0), (2 ** 63 + 5, 3), (7, 2 ** 63 + 9), (2 ** 64 - 1, 2 ** 64 - 1)])
    def test_batch_rows_match_numpy_keyed_philox(self, sampler, seed, index):
        # reference: numpy's own Philox(key=(seed, i)), drawn into [re, im]
        # pairs and normalized as the sampler does; the batch spans up to two
        # samples either side of index, so row 0 is not always the key
        start = index - min(index, 2)
        count = min(index + 2, 2 ** 64 - 1) - start + 1
        batch = sample_amplitude_batch((3, 3), sampler, seed, start, count)
        assert batch.shape == (count, 9)
        for i, row in enumerate(batch):
            rng = keyed_generator(seed, start + i)
            pairs = rng.random((9, 2)) if sampler == "uniform" else rng.standard_normal((9, 2))
            amps = pairs[:, 0] + 1j * pairs[:, 1]
            amps /= np.sqrt(np.sum(amps.real ** 2 + amps.imag ** 2))
            assert np.array_equal(row, amps)

    def test_haar_marginal_statistics(self):
        """Mean of |psi_11|^2 sits within 3 standard errors of 1/9."""
        n = 10_000
        batch = sample_amplitude_batch((3, 3), "haar", seed=5, start=0, count=n)
        mean = float(np.mean(np.abs(batch[:, 0]) ** 2))
        # |psi_11|^2 is Beta(1, 8): variance (n-1)/(n^2 (n+1)) at n = 9
        se = np.sqrt(8 / (81 * 10) / n)
        assert abs(mean - 1 / 9) <= 3 * se

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError):
            sample_pure_state((3, 3), "bogus", seed=0)


class TestKeyDomain:
    """Seeds and sample indices are rejected outside [0, 2**64), not wrapped."""

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 7])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            keyed_generator(seed, 0)
        with pytest.raises(ValueError, match="seed"):
            sample_pure_state((3, 3), "uniform", seed=seed)
        with pytest.raises(ValueError, match="seed"):
            sample_amplitude_batch((3, 3), "uniform", seed, 0, 4)

    @pytest.mark.parametrize("index", [-1, 2 ** 64])
    def test_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="index"):
            sample_pure_state((3, 3), "uniform", seed=0, index=index)
        with pytest.raises(ValueError, match="index"):
            sample_amplitude_batch((3, 3), "uniform", 0, index, 1)

    def test_batch_checks_its_last_index(self):
        with pytest.raises(ValueError, match="index"):
            sample_amplitude_batch((3, 3), "uniform", 0, 2 ** 64 - 2, 3)
        with pytest.raises(ValueError, match="index"):
            sample_amplitude_batch((3, 3), "uniform", 0, -1, 3)

    def test_largest_seed_and_index_accepted(self):
        top = 2 ** 64 - 1
        batch = sample_amplitude_batch((3, 3), "haar", top, top - 1, 2)
        assert np.array_equal(batch[1], sample_pure_state((3, 3), "haar", top, top).amplitudes)

    @pytest.mark.parametrize("seed, index", [
        (2 ** 63 + 5, 3), (7, 2 ** 63 + 9), (2 ** 64 - 1, 0), (2 ** 63, 1)])
    def test_high_key_words_keep_single_and_batch_paths_equal(self, seed, index):
        # a key with one word above 2**63 and one below must not lose bits
        single = sample_pure_state((3, 3), "uniform", seed, index).amplitudes
        assert np.array_equal(single, sample_amplitude_batch((3, 3), "uniform", seed, index, 1)[0])
        assert not np.array_equal(single, sample_pure_state((3, 3), "uniform", seed ^ 1, index).amplitudes)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            keyed_generator(1.5, 0)

    def test_empty_batch(self):
        assert sample_amplitude_batch((3, 3), "uniform", 0, 0, 0).shape == (0, 9)


class TestPhysicalityResiduals:

    def test_valid_state(self, rng):
        m = random_mixed(rng).matrix
        m = (m + m.conj().T) / 2  # exactly Hermitian
        res = physicality_residuals(m)
        assert res["valid"] is True
        assert res["hermiticity_residual"] == 0.0
        # the Hermitian part of an exactly Hermitian matrix is the matrix itself
        assert res["min_eigenvalue"] == float(np.linalg.eigvalsh(m)[0])

    @staticmethod
    def _two_qubit(entries):
        m = np.zeros((4, 4), dtype=complex)
        for (i, j), v in entries.items():
            m[i, j] = v
        return m

    @pytest.mark.parametrize("entries, failing", [
        ({(0, 0): 0.5, (1, 1): 0.5, (2, 2): 0.5, (3, 3): 0.5}, "trace_deviation"),
        ({(0, 0): 0.5, (3, 3): 0.5, (0, 1): 0.1, (1, 0): -0.1}, "hermiticity_residual"),
        ({(0, 0): 1.2, (1, 1): -0.2}, "min_eigenvalue"),
    ])
    def test_each_check_fails_alone(self, entries, failing):
        m = self._two_qubit(entries)
        res = physicality_residuals(m)
        assert res["valid"] is False
        assert (res["hermiticity_residual"] > 0) == (failing == "hermiticity_residual")
        assert (res["trace_deviation"] > 0) == (failing == "trace_deviation")
        assert (res["min_eigenvalue"] < 0) == (failing == "min_eigenvalue")
        with pytest.raises(StateInvariantError):
            DensityMatrix(m, (2, 2))


class TestSerialization:

    def test_pure_round_trip(self, rng):
        psi = random_pure(rng)
        data = psi.to_json()
        assert set(data) == {"dims", "amplitudes"}
        back = state_from_json(data)
        assert isinstance(back, PureState)
        assert np.array_equal(back.amplitudes, psi.amplitudes)

    def test_density_round_trip(self, rng):
        rho = random_mixed(rng)
        data = rho.to_json()
        assert set(data) == {"dims", "matrix"}
        back = state_from_json(data)
        assert isinstance(back, DensityMatrix)
        assert np.array_equal(back.matrix, rho.matrix)

    def test_dispatch_requires_known_key(self):
        with pytest.raises(ValueError):
            state_from_json({"dims": [3, 3]})
