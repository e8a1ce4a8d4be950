"""Spin operator construction, projections, and algebra validation."""

import numpy as np
import pytest

from spinchsh import (MeasurementSetting, SpinOperators, spin_operators, spin_projection,
                      validate_spin_algebra)
from spinchsh.spin import _LEVI_CIVITA, INPUT_TOL, check_unit_vector

SQ2 = np.sqrt(2)


def components_by_index(s):
    """spin_operators' components with the raising operator filled one entry
    at a time: the reference for its superdiagonal form."""
    d = int(round(2 * s + 1))
    m = s - np.arange(d)
    raising = np.zeros((d, d))
    for i in range(d - 1):
        raising[i, i + 1] = np.sqrt(s * (s + 1) - m[i + 1] * (m[i + 1] + 1))
    lowering = raising.T
    return np.stack([((raising + lowering) / 2).astype(complex),
                     ((raising - lowering) / 2j).astype(complex),
                     np.diag(m).astype(complex)])


def residuals_by_components(ops):
    """validate_spin_algebra's residuals one component pair at a time: the
    reference for its stacked product."""
    S = ops.components
    s, d = ops.s, ops.d
    herm = max(np.abs(S[j] - S[j].conj().T).max() for j in range(3))
    comm = 0.0
    for j in range(3):
        for k in range(3):
            lhs = S[j] @ S[k] - S[k] @ S[j]
            rhs = 1j * sum(_LEVI_CIVITA[j, k, l] * S[l] for l in range(3))
            comm = max(comm, np.abs(lhs - rhs).max())
    c = s * (s + 1) * d / 3
    trace = max(abs(np.trace(S[j] @ S[k]) - (c if j == k else 0.0))
                for j in range(3) for k in range(3))
    casimir = np.abs(sum(Sj @ Sj for Sj in S) - s * (s + 1) * np.eye(d)).max()
    return {"hermiticity": float(herm), "commutation": float(comm),
            "trace_orthogonality": float(trace), "casimir": float(casimir)}


def residual_bytes(report):
    return np.array([report[key] for key in sorted(report)]).tobytes()


class TestConstruction:

    def test_spin1_matrices_exact(self):
        """s=1 components carry the entries 1/sqrt(2), +-i/sqrt(2) and diag(1,0,-1)."""
        ops = spin_operators(1)
        s1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / SQ2
        s2 = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / SQ2
        s3 = np.diag([1.0, 0.0, -1.0])
        assert np.allclose(ops.components[0], s1, atol=0)
        assert np.allclose(ops.components[1], s2, atol=0)
        assert np.array_equal(ops.components[2], s3.astype(complex))
        assert ops.d == 3

    def test_spin_half_is_half_pauli(self):
        ops = spin_operators(0.5)
        assert np.allclose(ops.components[0], np.array([[0, 1], [1, 0]]) / 2)
        assert np.allclose(ops.components[1], np.array([[0, -1j], [1j, 0]]) / 2)
        assert np.allclose(ops.components[2], np.diag([1, -1]) / 2)

    def test_spin1_casimir_and_trace(self):
        """S1^2 + S2^2 + S3^2 = 2 I and tr[S_j S_k] = 2 delta_jk for s = 1."""
        ops = spin_operators(1)
        total = sum(s @ s for s in ops.components)
        assert np.allclose(total, 2 * np.eye(3), atol=1e-15)
        for j in range(3):
            for k in range(3):
                expected = 2.0 if j == k else 0.0
                assert np.trace(ops.components[j] @ ops.components[k]) == pytest.approx(expected, abs=1e-14)

    def test_ladder_matches_loop_bits(self):
        for s in np.arange(1, 61) / 2:
            assert spin_operators(s).components.tobytes() == components_by_index(s).tobytes()

    def test_s3_diagonal_descending(self):
        ops = spin_operators(1.5)
        assert np.array_equal(np.diag(ops.components[2]).real, [1.5, 0.5, -0.5, -1.5])

    @pytest.mark.parametrize("bad", [0.7, 0.0, -1.0, 0.25])
    def test_rejects_non_half_integer(self, bad):
        with pytest.raises(ValueError):
            spin_operators(bad)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_non_finite_spin_rejected(self, s):
        with pytest.raises(ValueError, match=r"spin must be a half-integer"):
            spin_operators(s)


class TestValidation:

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_exact_construction_residuals(self, s):
        report = validate_spin_algebra(spin_operators(s))
        assert max(report.values()) <= 1e-12

    def test_residuals_match_loop_bits(self, rng):
        ops = [spin_operators(s) for s in np.arange(1, 41) / 2]
        # dented components, whose residuals are far from round-off
        for s in (0.5, 1.0, 2.0):
            exact = spin_operators(s).components
            noise = rng.standard_normal(exact.shape) + 1j * rng.standard_normal(exact.shape)
            ops.append(SpinOperators(s=s, components=exact + 1e-3 * noise))
        for op in ops:
            reference = residuals_by_components(op)
            assert residual_bytes(validate_spin_algebra(op)) == residual_bytes(reference)

    def test_perturbation_is_reported(self):
        """A 1e-3 dent in S3 shows up as a commutator residual of the same size."""
        ops = spin_operators(1)
        components = ops.components.copy()
        components[2, 0, 0] += 1e-3
        report = validate_spin_algebra(SpinOperators(s=1.0, components=components))
        assert report["commutation"] == pytest.approx(1e-3, rel=1e-9)
        assert report["hermiticity"] == 0.0

    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 3, 3), (3, 3, 4), (9, 3)])
    def test_components_of_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            SpinOperators(s=1.0, components=np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("s", [0.7, 0.0, -1.0, float("nan")])
    def test_components_of_no_spin_rejected(self, s):
        with pytest.raises(ValueError, match="spin"):
            SpinOperators(s=s, components=spin_operators(0.5).components)


class TestProjection:

    def test_axis_projections(self):
        ops = spin_operators(1)
        assert np.array_equal(spin_projection(ops, (0, 0, 1)), np.diag([1.0, 0.0, -1.0]).astype(complex))
        sx = spin_projection(ops, (1, 0, 0))
        assert sx[0, 1] == pytest.approx(1 / SQ2)
        assert sx[1, 0] == pytest.approx(1 / SQ2)
        assert np.allclose(np.sort(np.linalg.eigvalsh(sx)), [-1, 0, 1], atol=1e-12)

    def test_diagonal_direction_spectrum(self):
        ops = spin_operators(1)
        proj = spin_projection(ops, (1 / SQ2, 1 / SQ2, 0))
        assert np.allclose(np.sort(np.linalg.eigvalsh(proj)), [-1, 0, 1], atol=1e-10)

    def test_matches_explicit_matrix_form(self, rng):
        """r . S equals the closed 3x3 matrix in r for s = 1."""
        ops = spin_operators(1)
        for _ in range(10):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            expected = np.array([
                [r[2], (r[0] - 1j * r[1]) / SQ2, 0],
                [(r[0] + 1j * r[1]) / SQ2, 0, (r[0] - 1j * r[1]) / SQ2],
                [0, (r[0] + 1j * r[1]) / SQ2, -r[2]],
            ])
            assert np.allclose(spin_projection(ops, r), expected, atol=1e-15)

    def test_linear_and_odd(self, rng):
        ops = spin_operators(1)
        r = rng.standard_normal(3)
        r /= np.linalg.norm(r)
        assert np.array_equal(spin_projection(ops, -r), -spin_projection(ops, r))

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_spectrum_is_magnetic_ladder(self, s, rng):
        ops = spin_operators(s)
        for _ in range(5):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            spec = np.sort(np.linalg.eigvalsh(spin_projection(ops, r)))
            assert np.allclose(spec, np.arange(-s, s + 0.5), atol=1e-10)

    def test_rejects_bad_directions(self):
        ops = spin_operators(1)
        with pytest.raises(ValueError):
            spin_projection(ops, (1.0, 0.0, 0.01))
        with pytest.raises(ValueError):
            spin_projection(ops, (1.0, 0.0))


class TestUnitVectorCheck:
    """One check, one tolerance, for spin projections and measurement settings."""

    def test_returns_float_array(self):
        v = check_unit_vector("r", [0, 1, 0])
        assert v.dtype == float and v.shape == (3,)
        assert np.array_equal(v, [0.0, 1.0, 0.0])

    def test_tolerance_is_input_tol(self):
        check_unit_vector("r", (1.0 + 0.5 * INPUT_TOL, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"r must be a unit vector"):
            check_unit_vector("r", (1.0 + 2 * INPUT_TOL, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [(np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0), (1.0, np.nan, 0.0)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match=r"r must be a unit vector"):
            check_unit_vector("r", bad)
        with pytest.raises(ValueError, match=r"^direction must be a unit vector"):
            spin_projection(spin_operators(1), bad)
        e3 = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=r"^a1 must be a unit vector"):
            MeasurementSetting(bad, e3, e3, e3)

    @pytest.mark.parametrize("bad, message", [
        ((1.0, 0.0), "must have three components"), ((1.0, 0.0, 0.01), "must be a unit vector")])
    def test_projection_and_setting_share_the_check(self, bad, message):
        e3 = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=f"^direction {message}"):
            spin_projection(spin_operators(1), bad)
        with pytest.raises(ValueError, match=f"^b2 {message}"):
            MeasurementSetting(e3, e3, e3, bad)
