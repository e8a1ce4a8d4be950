"""Correlation matrices (both routes), CHSH analysis, closed-form values."""

import math

import numpy as np
import pytest

from conftest import random_mixed, random_pure, random_qutrit_density, random_unit_triple
from spinchsh import (Antisym, ChshAnalysis, CorrelationMatrix, Example1,
                      Example2, GHZ3, Horodecki, MeasurementSetting, Product,
                      PureState, Sym, Werner, analytic_concurrence, analytic_gamma,
                      chsh_analysis, chsh_expectation, concurrence_pure,
                      correlation_matrix_coeff, correlation_matrix_trace,
                      family_pure, family_state, mix, pure_to_density,
                      settings_from_svd, spin_operators)

OPS1 = spin_operators(1)
E1, E2, E3 = np.eye(3)


def gamma_of(rho):
    return chsh_analysis(correlation_matrix_coeff(rho)).gamma


def trace_by_pairs(rho, ops):
    """The nine traces one np.kron at a time: the reference for the stacked
    product of correlation_matrix_trace."""
    S = ops.components
    entries = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            entries[i, j] = np.sum(rho.matrix * np.kron(S[i], S[j]).T)
    return entries


def product_gamma_by_moments(spec):
    """Product.gamma from the spin moments one component at a time."""
    S = spin_operators(1.0).components
    ma = np.array([np.sum(spec.rho_a * S[i].T).real for i in range(3)])
    mb = np.array([np.sum(spec.rho_b * S[i].T).real for i in range(3)])
    return float(np.linalg.norm(ma) * np.linalg.norm(mb))


# one member of every family; sym and werner are the golden optimize cases
# whose degenerate optimum prints settings that follow the last bit of Z
FAMILY_MEMBERS = (Antisym(0.48, 0.6j, 0.64), Sym(0.36 + 0.48j, 0.8, 0), GHZ3(),
                  Werner(-0.5), Horodecki(3.5), Example1(0.25), Example2(0.7),
                  Product(np.eye(3) / 3, np.eye(3) / 3),
                  Product(np.diag([1.0, 0, 0]), np.diag([0.25, 0.25, 0.5])))


class TestTraceRoute:

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
    def test_stacked_traces_match_kron_bits(self, s, rng):
        ops = spin_operators(s)
        dims = (ops.d, ops.d)
        states = [random_mixed(rng, dims, rank) for rank in range(1, ops.d ** 2 + 1)
                  for _ in range(2)]
        if s == 1.0:
            states += [family_state(spec) for spec in FAMILY_MEMBERS]
        for rho in states:
            z = correlation_matrix_trace(rho, ops)
            reference = trace_by_pairs(rho, ops)
            assert z.matrix.tobytes() == reference.real.tobytes()
            assert np.float64(z.imag_residual).tobytes() == np.abs(reference.imag).max().tobytes()

    @pytest.mark.parametrize("tau", [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0])
    def test_horodecki_matrix_constant_in_tau(self, tau):
        z = correlation_matrix_trace(family_state(Horodecki(tau)), OPS1)
        assert np.abs(z.matrix - np.diag([4, -4, -1]) / 21).max() <= 1e-14
        assert z.imag_residual <= 1e-10

    def test_werner_matrix_is_scaled_identity(self):
        for phi in np.linspace(-1, 1, 11):
            z = correlation_matrix_trace(family_state(Werner(phi)), OPS1)
            assert np.abs(z.matrix - (3 * phi - 1) / 12 * np.eye(3)).max() <= 1e-14

    def test_ghz_matrix(self):
        z = correlation_matrix_trace(family_state(GHZ3()), OPS1)
        assert np.abs(z.matrix - np.diag([2, -2, 2]) / 3).max() <= 1e-14

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            correlation_matrix_trace(random_mixed(rng, dims=(2, 2)), OPS1)


class TestCoefficientRoute:

    def test_product_basis_state(self):
        z = correlation_matrix_coeff(pure_to_density(family_pure(Sym(1.0, 0.0, 0.0))))
        assert np.abs(z.matrix - np.diag([0.0, 0.0, 1.0])).max() <= 1e-15

    def test_antisym_closed_form_matrix(self, rng):
        """Coefficient route reproduces the closed antisymmetric-family matrix."""
        for _ in range(10):
            a12, a13, a23 = random_unit_triple(rng)
            z = correlation_matrix_coeff(family_state(Antisym(a12, a13, a23)))
            expected = 0.5 * np.array([
                [-abs(a12 - a23) ** 2,
                 2 * np.imag(np.conj(a12) * a23),
                 math.sqrt(2) * np.real(a12 * np.conj(a13) - a13 * np.conj(a23))],
                [2 * np.imag(np.conj(a12) * a23),
                 -abs(a12 + a23) ** 2,
                 math.sqrt(2) * np.imag(a13 * (np.conj(a12) + np.conj(a23)))],
                [math.sqrt(2) * np.real(a12 * np.conj(a13) - a13 * np.conj(a23)),
                 math.sqrt(2) * np.imag(a13 * (np.conj(a12) + np.conj(a23))),
                 -2 * abs(a13) ** 2],
            ])
            assert np.abs(z.matrix - expected).max() <= 1e-14

    def test_sym_closed_form_matrix(self, rng):
        for _ in range(10):
            a11, a22, a33 = random_unit_triple(rng)
            z = correlation_matrix_coeff(family_state(Sym(a11, a22, a33)))
            w = np.conj(a11) * a22 + np.conj(a22) * a33
            expected = np.array([
                [w.real, w.imag, 0.0],
                [w.imag, -w.real, 0.0],
                [0.0, 0.0, abs(a11) ** 2 + abs(a33) ** 2],
            ])
            assert np.abs(z.matrix - expected).max() <= 1e-14

    def test_horodecki_routes_agree_tightly(self):
        rho = family_state(Horodecki(5.0))
        zc = correlation_matrix_coeff(rho)
        zt = correlation_matrix_trace(rho, OPS1)
        assert np.abs(zc.matrix - zt.matrix).max() <= 1e-14

    def test_dual_route_random_states(self, rng):
        worst = 0.0
        for _ in range(100):
            rho = pure_to_density(random_pure(rng))
            delta = np.abs(correlation_matrix_trace(rho, OPS1).matrix
                           - correlation_matrix_coeff(rho).matrix).max()
            worst = max(worst, delta)
        for _ in range(40):
            rho = random_mixed(rng)
            delta = np.abs(correlation_matrix_trace(rho, OPS1).matrix
                           - correlation_matrix_coeff(rho).matrix).max()
            worst = max(worst, delta)
        assert worst <= 1e-12

    def test_requires_two_qutrits(self, rng):
        with pytest.raises(ValueError):
            correlation_matrix_coeff(random_mixed(rng, dims=(2, 2)))


class TestChshAnalysis:

    def test_horodecki_value(self):
        analysis = chsh_analysis(CorrelationMatrix(np.diag([4, -4, -1]) / 21, s=1.0))
        assert analysis.gamma == pytest.approx(4 * math.sqrt(2) / 21, abs=1e-15)
        assert analysis.upsilon == pytest.approx(8 * math.sqrt(2) / 21, abs=1e-15)
        assert not analysis.violated
        assert np.allclose(analysis.singular_values, [4 / 21, 4 / 21, 1 / 21], atol=1e-15)

    def test_zero_matrix(self):
        analysis = chsh_analysis(CorrelationMatrix(np.zeros((3, 3)), s=1.0))
        assert analysis.gamma == 0.0
        assert analysis.upsilon == 0.0

    def test_ghz_value(self):
        analysis = chsh_analysis(correlation_matrix_coeff(family_state(GHZ3())))
        assert analysis.gamma == pytest.approx(math.sqrt(8 / 9), abs=1e-14)

    def test_singular_values_sorted_nonnegative(self, rng):
        for _ in range(20):
            analysis = chsh_analysis(correlation_matrix_coeff(random_mixed(rng)))
            sv = analysis.singular_values
            assert sv[0] >= sv[1] >= sv[2] >= 0
            assert analysis.gamma == pytest.approx(math.hypot(sv[0], sv[1]), abs=1e-14)

    def test_spin_half_scaling_flags_violation(self):
        """A Bell pair under spin-1/2 measurements reaches gamma = sqrt(2)."""
        bell = pure_to_density(PureState(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2)))
        z = correlation_matrix_trace(bell, spin_operators(0.5))
        analysis = chsh_analysis(z)
        assert analysis.gamma == pytest.approx(math.sqrt(2), abs=1e-12)
        assert analysis.violated
        # the LHV bound scales with s^2, so upsilon = 2 s^2 gamma = sqrt(2)/2
        assert analysis.upsilon == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_json_fields(self):
        data = chsh_analysis(correlation_matrix_coeff(family_state(GHZ3()))).to_json()
        assert set(data) == {"singular_values", "gamma", "upsilon", "violated"}
        assert data["violated"] is False

    def test_norm_cap_enforced(self):
        with pytest.raises(ValueError):
            CorrelationMatrix(np.diag([1.5, 0.0, 0.0]), s=1.0)

    @pytest.mark.parametrize("matrix, s", [
        (0.1 * np.eye(3), 0.0),
        (0.1 * np.eye(3), 1.3),
        (0.1 * np.eye(3), -1.0),
        (0.1 * np.eye(3), math.nan),
        (np.full((3, 3), math.nan), 1.0),
        (np.diag([math.inf, 0.0, 0.0]), 2.0),
    ])
    def test_out_of_domain_rejected(self, matrix, s):
        with pytest.raises(ValueError, match="half-integer|finite"):
            chsh_analysis(CorrelationMatrix(matrix, s=s))

    def test_spin_stored_snapped(self):
        assert CorrelationMatrix(np.zeros((3, 3)), s=1.5 + 1e-12).s == 1.5


class TestChshExpectation:

    def test_ghz_optimal_setting(self):
        setting = MeasurementSetting(
            a1=E3, a2=E1, b1=(E3 + E1) / math.sqrt(2), b2=(E3 - E1) / math.sqrt(2))
        value = chsh_expectation(family_state(GHZ3()), setting, OPS1)
        assert value == pytest.approx(4 * math.sqrt(2) / 3, abs=1e-12)

    def test_collapsed_setting(self, rng):
        rho = random_mixed(rng)
        a = rng.standard_normal(3); a /= np.linalg.norm(a)
        b = rng.standard_normal(3); b /= np.linalg.norm(b)
        setting = MeasurementSetting(a1=a, a2=a, b1=b, b2=b)
        from spinchsh import spin_projection
        direct = 2 * np.sum(rho.matrix * np.kron(
            spin_projection(OPS1, a), spin_projection(OPS1, b)).T).real
        assert chsh_expectation(rho, setting, OPS1) == pytest.approx(direct, abs=1e-12)

    def test_horodecki_svd_setting(self):
        rho = family_state(Horodecki(4.0))
        setting = settings_from_svd(correlation_matrix_trace(rho, OPS1))
        assert chsh_expectation(rho, setting, OPS1) == pytest.approx(
            8 * math.sqrt(2) / 21, abs=1e-10)

    def test_bilinearity_identity(self, rng):
        from spinchsh import bilinear_reduce
        for _ in range(20):
            rho = random_mixed(rng)
            z = correlation_matrix_trace(rho, OPS1)
            vs = rng.standard_normal((4, 3))
            vs /= np.linalg.norm(vs, axis=1, keepdims=True)
            setting = MeasurementSetting(*vs)
            assert chsh_expectation(rho, setting, OPS1) == pytest.approx(
                bilinear_reduce(z, setting), abs=1e-10)
            assert abs(chsh_expectation(rho, setting, OPS1)) <= chsh_analysis(z).upsilon + 1e-9

    def test_rejects_non_unit_setting(self):
        with pytest.raises(ValueError):
            MeasurementSetting(a1=E1 * 1.1, a2=E1, b1=E2, b2=E3)


class TestBounds:

    def test_norm_bound_on_random_states(self, rng):
        for _ in range(100):
            rho = pure_to_density(random_pure(rng))
            top = chsh_analysis(correlation_matrix_coeff(rho)).singular_values[0]
            assert top <= 1 + 1e-9

    def test_tsirelson_cap(self, rng):
        for _ in range(100):
            assert gamma_of(random_mixed(rng)) <= math.sqrt(2) + 1e-9

    def test_convexity_of_gamma(self, rng):
        for _ in range(50):
            n = rng.integers(2, 5)
            comps = [pure_to_density(random_pure(rng)) for _ in range(n)]
            weights = rng.random(n) + 0.05
            weights /= weights.sum()
            mixture = mix(list(zip(weights, comps)))
            bound = sum(w * gamma_of(c) for w, c in zip(weights, comps))
            assert gamma_of(mixture) <= bound + 1e-9

    def test_product_states_never_violate(self, rng):
        for _ in range(100):
            rho = family_state(Product(random_qutrit_density(rng), random_qutrit_density(rng)))
            assert gamma_of(rho) <= 1 + 1e-9


class TestAnalyticGamma:

    def test_named_values(self):
        assert analytic_gamma(Werner(-1.0)) == pytest.approx(math.sqrt(2) / 3, abs=1e-15)
        r = 1 / math.sqrt(2)
        assert analytic_gamma(Antisym(r, 0.0, r)) == pytest.approx(1.0, abs=1e-14)
        assert analytic_gamma(Sym(1.0, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
        assert analytic_gamma(GHZ3()) == pytest.approx(math.sqrt(8 / 9), abs=1e-15)
        assert analytic_gamma(Horodecki(2.0)) == analytic_gamma(Horodecki(5.0))
        assert analytic_gamma(Example2(1.0)) == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-15)
        assert analytic_gamma(Example1(0.77)) == 1.0

    def test_antisym_matches_pipeline(self, rng):
        for _ in range(200):
            spec = Antisym(*random_unit_triple(rng))
            numeric = gamma_of(family_state(spec))
            assert abs(analytic_gamma(spec) - numeric) <= 1e-10
            assert 0.5 - 1e-12 <= analytic_gamma(spec) <= 1 + 1e-12
            # the algebraic floor is in fact 1/sqrt(2), sharper than 1/2
            assert analytic_gamma(spec) >= 1 / math.sqrt(2) - 1e-12

    def test_antisym_singular_value_formula(self, rng):
        for _ in range(50):
            a12, a13, a23 = random_unit_triple(rng)
            z = correlation_matrix_coeff(family_state(Antisym(a12, a13, a23)))
            q = abs(a13 ** 2 - 2 * a12 * a23)
            expected = np.sort([0.0, abs(1 + q) / 2, abs(1 - q) / 2])[::-1]
            numeric = np.linalg.svd(z.matrix, compute_uv=False)
            assert np.abs(numeric - expected).max() <= 1e-10

    def test_sym_matches_pipeline_and_bound(self, rng):
        for _ in range(200):
            spec = Sym(*random_unit_triple(rng))
            numeric = gamma_of(family_state(spec))
            assert abs(analytic_gamma(spec) - numeric) <= 1e-10
            assert analytic_gamma(spec) <= 1 + 1e-12

    def test_sym_branch_boundary(self):
        """The two symmetric-family branches coincide where |w| = p, e.g. at the
        equal-coefficient point: w = p = 2/3."""
        r = 1 / math.sqrt(3)
        spec = Sym(r, r, r)
        w = abs(r * r + r * r)
        p = 2 * r * r
        assert w == pytest.approx(p, abs=1e-12)
        assert analytic_gamma(spec) == pytest.approx(math.sqrt(2) * w, abs=1e-12)
        assert analytic_gamma(spec) == pytest.approx(math.sqrt(w * w + p * p), abs=1e-12)

    def test_werner_grid_matches_trace_route(self):
        for phi in np.linspace(-1, 1, 101):
            spec = Werner(float(phi))
            numeric = chsh_analysis(
                correlation_matrix_trace(family_state(spec), OPS1)).gamma
            assert abs(numeric - analytic_gamma(spec)) <= 1e-12
            assert analytic_gamma(spec) <= 1.0

    def test_product_closed_form(self, rng):
        for _ in range(20):
            spec = Product(random_qutrit_density(rng), random_qutrit_density(rng))
            numeric = gamma_of(family_state(spec))
            assert abs(analytic_gamma(spec) - numeric) <= 1e-10

    def test_product_moments_match_loop_bits(self, rng):
        specs = [Product(random_qutrit_density(rng), random_qutrit_density(rng))
                 for _ in range(500)]
        for spec in specs + [m for m in FAMILY_MEMBERS if isinstance(m, Product)]:
            reference = product_gamma_by_moments(spec)
            assert np.float64(spec.gamma()).tobytes() == np.float64(reference).tobytes()


class TestAnalyticCurves:
    """The closed-form gamma and concurrence along the curves Example1/2."""

    def test_example1_values(self):
        assert analytic_gamma(Example1(0.5)) == 1.0
        assert analytic_concurrence(Example1(0.5)) == pytest.approx(1.0, abs=1e-12)
        assert analytic_gamma(Example1(0.0)) == 1.0
        assert analytic_concurrence(Example1(0.0)) == pytest.approx(0.0, abs=1e-15)
        assert analytic_gamma(Example1(0.25)) == 1.0
        assert analytic_concurrence(Example1(0.25)) == pytest.approx(0.6, abs=1e-12)

    def test_example2_values(self):
        assert analytic_gamma(Example2(0.0)) == pytest.approx(1.0, abs=1e-15)
        assert analytic_concurrence(Example2(0.0)) == pytest.approx(0.0, abs=1e-15)
        assert analytic_gamma(Example2(1.0)) == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-15)
        assert analytic_concurrence(Example2(1.0)) == pytest.approx(2 / math.sqrt(3), abs=1e-15)

    @pytest.mark.parametrize("family", [Example1, Example2])
    def test_curves_match_pipeline(self, family):
        for t in np.linspace(0, 1, 21):
            spec = family(float(t))
            assert abs(analytic_gamma(spec) - gamma_of(family_state(spec))) <= 1e-10
            assert abs(analytic_concurrence(spec) - concurrence_pure(family_pure(spec))) <= 1e-10

    def test_example2_gamma_decreases(self):
        grid = [analytic_gamma(Example2(float(t))) for t in np.linspace(0, 1, 51)]
        assert all(a >= b - 1e-13 for a, b in zip(grid, grid[1:]))
        assert grid[0] == pytest.approx(1.0)

    def test_rejects_other_specs(self):
        with pytest.raises(ValueError):
            analytic_concurrence(Werner(0.0))
