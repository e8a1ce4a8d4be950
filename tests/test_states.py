"""State construction, named families, mixing, physicality checks, serialization."""

import copy
import dataclasses
import importlib.util
import inspect
import math
import pickle
import pkgutil
import warnings

import numpy as np
import pytest

from conftest import random_mixed, random_pure, random_qutrit_density, random_unit_triple
from spinchsh import (Antisym, ChshAnalysis, CorrelationMatrix, DensityMatrix, Example1,
                      Example2, GHZ3, Horodecki, MeasurementSetting, Product, PureState,
                      ReducedState, SpinOperators, StateInvariantError, Sym, Werner, family_pure,
                      family_state, mix, pure_to_density, spin_operators, state_from_json,
                      swap_operator)
from spinchsh.states import _from_pairs, norm_residuals, physicality_residuals
import spinchsh
from spinchsh.spin import Value


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

    @pytest.mark.parametrize("make, value, field", [
        (lambda x: PureState(x, (3, 3)), np.eye(9, dtype=complex)[4], "amplitudes"),
        (lambda x: DensityMatrix(x, (3, 3)), np.eye(9, dtype=complex) / 9, "matrix"),
        (lambda x: Product(x, np.eye(3, dtype=complex) / 3), np.eye(3, dtype=complex) / 3, "rho_a"),
        (lambda x: CorrelationMatrix(x, s=1.0), np.diag([0.5, -0.5, 0.5]), "matrix"),
        (lambda x: MeasurementSetting(x, *np.eye(3)), np.array([0.6, 0.8, 0.0]), "a1"),
        (lambda x: ReducedState(x), np.eye(3, dtype=complex) / 3, "matrix"),
        (lambda x: SpinOperators(1.0, x), spin_operators(1.0).components, "components"),
        (lambda x: ChshAnalysis(x, 2.0, 3.0), np.array([1.0, 0.5, 0.0]), "singular_values"),
    ], ids=["PureState", "DensityMatrix", "Product", "CorrelationMatrix", "MeasurementSetting",
            "ReducedState", "SpinOperators", "ChshAnalysis"])
    def test_value_objects_own_their_arrays(self, make, value, field):
        """A value object copies the array it is given: the caller's array
        stays writable, and editing it later cannot break an invariant the
        object checked when it was built.  A pickled or deep-copied object
        is rebuilt the same way."""
        given = value.copy()
        make(given)
        assert given.flags.writeable
        base = np.stack([value, value])
        obj = make(base[0])
        base[0] = 0
        for copied in (obj, pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert np.array_equal(getattr(copied, field), value)
            assert not getattr(copied, field).flags.writeable

    def test_array_dataclasses_subclass_value(self):
        """Every dataclass of the package that has an array field is a Value,
        so it stores the array through ``own`` and pickles through its
        constructor: test_value_objects_own_their_arrays holds for every
        value object, not only those it lists."""
        found = set()
        for info in pkgutil.iter_modules(spinchsh.__path__):
            module = importlib.import_module(f"spinchsh.{info.name}")
            found.update(cls for cls in vars(module).values()
                         if inspect.isclass(cls) and cls.__module__ == module.__name__
                         and dataclasses.is_dataclass(cls)
                         and any("ndarray" in str(f.type) for f in dataclasses.fields(cls)))
        assert found >= {PureState, DensityMatrix, Product, CorrelationMatrix, MeasurementSetting,
                         ReducedState, SpinOperators, ChshAnalysis}
        assert [cls.__name__ for cls in found if not issubclass(cls, Value)] == []

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

    @pytest.mark.parametrize("d", range(2, 8))
    def test_swap_matches_loop_bits(self, d):
        v = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                v[i * d + j, j * d + i] = 1.0
        assert swap_operator(d).tobytes() == v.tobytes()

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

    @pytest.mark.parametrize("tau", [2.0, 2.5, 3.0, 3.7, 4.5, 5.0])
    def test_horodecki_matches_ket_sum_bits(self, tau):
        """The cyclic projectors as sums of basis-ket outer products: the
        reference for their diagonal form."""
        def projector(pairs):
            kets = [basis_state(i, j).amplitudes for i, j in pairs]
            return sum(np.outer(ket, ket.conj()) for ket in kets) / 3
        cyclic = ((0, 1), (1, 2), (2, 0))
        direct = (2 / 7 * family_state(GHZ3()).matrix + tau / 7 * projector(cyclic)
                  + (5 - tau) / 7 * projector([(j, i) for i, j in cyclic]))
        assert family_state(Horodecki(tau)).matrix.tobytes() == direct.tobytes()

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

    @pytest.mark.parametrize("family", [Antisym, Sym])
    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.0), np.inf, 1e200, 1e200j])
    def test_non_finite_coefficients_rejected(self, family, bad):
        with pytest.raises(ValueError, match="coefficients must have unit norm"):
            family(bad, 0.0, 0.0)

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

    @pytest.mark.parametrize("weights, message", [
        ((np.nan,), "must be positive"), ((0.5, np.nan), "must be positive"),
        ((np.inf,), "must sum to 1")])
    def test_non_finite_weights_rejected(self, rng, weights, message):
        rho = random_mixed(rng)
        with pytest.raises(ValueError, match=message):
            mix([(w, rho) for w in weights])


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

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3,), (), (2, 2, 2)])
    def test_non_square_matrix_rejected(self, shape):
        # the program's own error, not numpy's reduction or broadcast one
        with pytest.raises(ValueError, match="square"):
            physicality_residuals(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_non_finite_matrix_is_not_valid(self, bad, entry):
        m = np.eye(3, dtype=complex) / 3
        m[entry] = bad
        with np.errstate(invalid="ignore"):  # inf - inf
            res = physicality_residuals(m)
            assert res["valid"] is False and np.isnan(res["min_eigenvalue"])
            with pytest.raises(StateInvariantError):
                DensityMatrix(np.kron(m, np.eye(3) / 3), (3, 3))
            with pytest.raises(StateInvariantError):
                Product(m, np.eye(3) / 3)
            with pytest.raises(StateInvariantError):
                ReducedState(m)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entries", [[(0, 0)], [(0, 1)], [(0, 0), (1, 1)]])
    def test_non_finite_matrix_checked_without_warnings(self, dtype, bad, entries):
        # inf - inf in the Hermiticity residual, inf + -inf in the trace
        m = np.eye(9, dtype=dtype) / 9
        for sign, entry in zip((1, -1), entries):
            m[entry] = sign * bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = physicality_residuals(m)
            with pytest.raises(StateInvariantError):
                DensityMatrix(m, (3, 3))
        assert res["valid"] is False
        assert all(np.isnan(res[name])
                   for name in ("hermiticity_residual", "trace_deviation", "min_eigenvalue"))

    @pytest.mark.parametrize("entries, residuals", [
        # rho + rho^dagger overflows: no residuals
        ({(0, 0): 1e308, (1, 1): 1e308}, (math.nan, math.nan, math.nan)),
        ({(0, 1): 1e308, (1, 0): 1e308}, (math.nan, math.nan, math.nan)),
        # rho - rho^dagger overflows; the trace does
        ({(0, 1): 1.5e308, (1, 0): -1.5e308}, (math.inf, 0.0, 0.0)),
        ({(0, 0): 6e307, (1, 1): 6e307, (2, 2): 6e307}, (0.0, math.inf, 0.0)),
    ])
    def test_overflowing_matrix_checked_without_warnings(self, entries, residuals):
        m = np.zeros((9, 9), dtype=complex)
        m[8, 8] = 1.0
        for entry, value in entries.items():
            m[entry] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = physicality_residuals(m)
            with pytest.raises(StateInvariantError):
                DensityMatrix(m, (3, 3))
        assert res["valid"] is False
        got = (res["hermiticity_residual"], res["trace_deviation"], res["min_eigenvalue"])
        np.testing.assert_equal(got, residuals)

    def test_overflowing_amplitude_checked_without_warnings(self):
        amplitudes = np.zeros(9, dtype=complex)
        amplitudes[0] = 1e200  # its square overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = norm_residuals(amplitudes)
            with pytest.raises(StateInvariantError):
                PureState(amplitudes, (3, 3))
        assert res == {"norm_deviation": math.inf, "valid": False}


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

    @pytest.mark.parametrize("first", [["1", "0"], [True, False], [1.0, True], [1, False]])
    def test_strings_and_booleans_rejected(self, first):
        # numpy would read each of these as the number 1 + 0j
        data = {"dims": [3, 3], "amplitudes": [first] + [[0.0, 0.0]] * 8}
        with pytest.raises(ValueError, match="pairs of finite numbers"):
            state_from_json(data)

    @pytest.mark.parametrize("dtype", [bool, str])
    def test_non_numeric_arrays_rejected(self, dtype):
        with pytest.raises(ValueError, match="pairs of finite numbers"):
            _from_pairs(np.array([[1, 0]], dtype=dtype), (1,))
