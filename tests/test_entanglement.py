"""Partial trace, purity, concurrence, and the spin-1/2 cross-check."""

import math

import numpy as np
import pytest

from conftest import random_pure, random_unit_triple
from spinchsh import (Antisym, Example1, Example2, GHZ3, Horodecki, Product,
                      PureState, ReducedState, Sym, Werner, analytic_concurrence,
                      chsh_analysis, concurrence_pure,
                      correlation_matrix_trace, family_pure, family_state,
                      partial_trace, pure_to_density, spin_operators)


def antisym_reduced(a12, a13, a23):
    """Closed form of either reduced state of an antisymmetric-family member."""
    return 0.5 * np.array([
        [abs(a12) ** 2 + abs(a13) ** 2, a13 * np.conj(a23), -a12 * np.conj(a23)],
        [np.conj(a13) * a23, abs(a12) ** 2 + abs(a23) ** 2, a12 * np.conj(a13)],
        [-np.conj(a12) * a23, np.conj(a12) * a13, abs(a13) ** 2 + abs(a23) ** 2],
    ])


class TestPartialTrace:

    def test_antisym_single_component(self):
        red = partial_trace(family_state(Antisym(1.0, 0.0, 0.0)), keep="A")
        assert np.allclose(red.matrix, np.diag([0.5, 0.5, 0.0]), atol=1e-15)
        assert red.purity == pytest.approx(0.5, abs=1e-14)

    def test_ghz_marginal_is_maximally_mixed(self):
        for keep in ("A", "B"):
            red = partial_trace(family_state(GHZ3()), keep=keep)
            assert np.allclose(red.matrix, np.eye(3) / 3, atol=1e-15)
            assert red.purity == pytest.approx(1 / 3, abs=1e-14)

    def test_product_state_marginal(self):
        amps = np.zeros(9, dtype=complex)
        amps[0] = 1.0
        red = partial_trace(pure_to_density(PureState(amps, (3, 3))), keep="B")
        assert np.allclose(red.matrix, np.diag([1.0, 0.0, 0.0]), atol=0)
        assert red.purity == pytest.approx(1.0, abs=1e-14)

    def test_purity_is_derived_from_the_matrix(self):
        red = ReducedState(np.eye(3) / 3)
        assert red.purity == pytest.approx(1 / 3, abs=1e-15)
        with pytest.raises(TypeError):
            ReducedState(np.eye(3) / 3, 0.9)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 3, 1), (), (0, 0)])
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            ReducedState(np.full(shape, 0.5))

    def test_schmidt_symmetry(self, rng):
        for _ in range(50):
            rho = pure_to_density(random_pure(rng))
            pa = partial_trace(rho, keep="A").purity
            pb = partial_trace(rho, keep="B").purity
            assert abs(pa - pb) <= 1e-12

    def test_antisym_reduced_matches_closed_form(self, rng):
        for _ in range(30):
            a = random_unit_triple(rng)
            rho = family_state(Antisym(*a))
            expected = antisym_reduced(*a)
            for keep in ("A", "B"):
                red = partial_trace(rho, keep=keep)
                assert np.abs(red.matrix - expected).max() <= 1e-12

    def test_bad_keep_rejected(self, rng):
        with pytest.raises(ValueError):
            partial_trace(pure_to_density(random_pure(rng)), keep="C")

    @pytest.mark.parametrize("keep", [0, None, b"A"])
    def test_non_string_keep_rejected(self, rng, keep):
        with pytest.raises(ValueError, match="keep must be 'A' or 'B'"):
            partial_trace(pure_to_density(random_pure(rng)), keep=keep)


class TestConcurrence:

    def test_antisym_always_one(self, rng):
        for _ in range(30):
            spec = Antisym(*random_unit_triple(rng))
            assert concurrence_pure(family_pure(spec)) == pytest.approx(1.0, abs=1e-12)
            # the underlying reduced purity is exactly 1/2
            assert partial_trace(family_state(spec), "A").purity == pytest.approx(0.5, abs=1e-12)

    def test_ghz_is_maximal(self):
        assert concurrence_pure(family_pure(GHZ3())) == pytest.approx(2 / math.sqrt(3), abs=1e-14)

    def test_product_state_is_zero(self):
        amps = np.zeros(9, dtype=complex)
        amps[0] = 1.0
        assert concurrence_pure(PureState(amps, (3, 3))) == 0.0

    def test_zero_iff_product(self, rng):
        for _ in range(20):
            va = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            vb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            amps = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
            assert concurrence_pure(PureState(amps, (3, 3))) < 1e-8
        for _ in range(20):
            psi = random_pure(rng)
            assert concurrence_pure(psi) > 1e-8  # Gaussian draws are never product

    def test_range_and_purity_consistency(self, rng):
        cap = 2 / math.sqrt(3)
        for _ in range(50):
            psi = random_pure(rng)
            c = concurrence_pure(psi)
            assert 0.0 <= c <= cap + 1e-10
            purity = partial_trace(pure_to_density(psi), "A").purity
            assert c == pytest.approx(math.sqrt(2 * (1 - purity)), abs=1e-12)


class TestAnalyticConcurrence:

    def test_named_values(self):
        r = 1 / math.sqrt(3)
        assert analytic_concurrence(Sym(r, r, r)) == pytest.approx(2 / math.sqrt(3), abs=1e-14)
        assert analytic_concurrence(Sym(1.0, 0.0, 0.0)) == 0.0
        assert analytic_concurrence(GHZ3()) == pytest.approx(2 / math.sqrt(3), abs=1e-15)
        assert analytic_concurrence(Example1(0.25)) == pytest.approx(0.6, abs=1e-12)

    def test_sym_matches_numeric(self, rng):
        for _ in range(100):
            spec = Sym(*random_unit_triple(rng))
            numeric = concurrence_pure(family_pure(spec))
            assert abs(analytic_concurrence(spec) - numeric) <= 1e-10

    def test_antisym_matches_numeric(self, rng):
        for _ in range(30):
            spec = Antisym(*random_unit_triple(rng))
            assert abs(analytic_concurrence(spec)
                       - concurrence_pure(family_pure(spec))) <= 1e-10

    @pytest.mark.parametrize("spec", [Werner(0.3), Horodecki(3.0)])
    def test_mixed_families_rejected(self, spec):
        with pytest.raises(ValueError):
            analytic_concurrence(spec)

    def test_product_family_rejected(self):
        with pytest.raises(ValueError):
            analytic_concurrence(Product(np.eye(3) / 3, np.eye(3) / 3))


class TestSpinHalfCrossCheck:

    def test_gamma_equals_sqrt_one_plus_c_squared(self, rng):
        """For pure two-qubit states the CHSH parameter is sqrt(1 + C^2)."""
        ops = spin_operators(0.5)
        for _ in range(200):
            psi = random_pure(rng, dims=(2, 2))
            c = concurrence_pure(psi)
            z = correlation_matrix_trace(pure_to_density(psi), ops)
            gamma = chsh_analysis(z).gamma
            assert abs(gamma - math.sqrt(1 + c * c)) <= 1e-10
