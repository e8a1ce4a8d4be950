"""Spin correlation matrices, the CHSH parameter and expectation, and
closed-form values for the named two-qutrit families.

For a bipartite state rho of two spin-s qudits and spin components S_i, the
correlation matrix is the real 3x3 array of expectations of S_i (x) S_j.  The
maximum of the CHSH expectation over local spin directions equals
2 sqrt(z^2 + zt^2), where z >= zt are the two largest singular values; the
ratio gamma = sqrt(z^2 + zt^2) / s^2 exceeds 1 exactly when the CHSH
inequality is violated, and never exceeds sqrt(2).

Two independent routes compute the matrix: ``correlation_matrix_trace``
evaluates the nine operator traces for any spin, while
``correlation_matrix_coeff`` (qutrits only) reads the entries directly off
the computational-basis coefficient tensor.  They agree to near machine
precision and cross-check one another.

The closed forms for the named two-qutrit families live in the family table
``states.FAMILIES``; ``analytic_gamma`` looks them up there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import analytic_concurrence
from .spin import INPUT_TOL, SpinOperators, spin_projection
from .states import DensityMatrix, Family, family_of

# Imaginary parts of correlation traces must vanish for physical states.
IMAG_TOL = 1e-10
# A state violates the CHSH inequality only if gamma clears 1 by more than
# this margin; exact boundary states (gamma = 1) are not flagged.
VIOLATION_TOL = 1e-9
# Spectral-norm cap on the spin-1 correlation matrix of a valid state.
NORM_CAP_TOL = 1e-9


@dataclass(frozen=True)
class CorrelationMatrix:
    """Real 3x3 spin correlation matrix together with the measured spin s.

    ``imag_residual`` records the largest imaginary part discarded when the
    entries were computed from operator traces (0 for analytic routes).
    """

    matrix: np.ndarray
    s: float
    imag_residual: float = 0.0

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"correlation matrix must be 3x3, got {m.shape}")
        if self.s == 1.0:
            check_norm_cap(np.linalg.eigvalsh(m.T @ m))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ChshAnalysis:
    """Singular values of the correlation matrix and the derived CHSH data.

    gamma = sqrt(z^2 + zt^2) / s^2 is the ratio of the quantum maximum to the
    local-hidden-variable bound 2; upsilon = 2 s^2 gamma is the maximum CHSH
    expectation itself.
    """

    singular_values: np.ndarray  # descending
    gamma: float
    upsilon: float
    s: float

    @property
    def violated(self) -> bool:
        return self.gamma > 1.0 + VIOLATION_TOL

    def to_json(self) -> dict:
        return {
            "singular_values": [float(v) for v in self.singular_values],
            "gamma": float(self.gamma),
            "upsilon": float(self.upsilon),
            "violated": bool(self.violated),
        }


@dataclass(frozen=True)
class MeasurementSetting:
    """Two measurement directions per party, each a unit vector in R^3."""

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            v = np.ascontiguousarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must have three components")
            if abs(np.linalg.norm(v) - 1.0) > INPUT_TOL:
                raise ValueError(f"{name} must be a unit vector, |{name}| = {np.linalg.norm(v)}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def correlation_matrix_trace(rho: DensityMatrix, ops: SpinOperators) -> CorrelationMatrix:
    """Correlation matrix from the nine traces against S_i (x) S_j."""
    d = ops.d
    if rho.dims != (d, d):
        raise ValueError(f"state dims {rho.dims} do not match spin dimension {d}")
    S = ops.components
    entries = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            # tr[rho K] as an elementwise sum; K = S_i (x) S_j
            entries[i, j] = np.sum(rho.matrix * np.kron(S[i], S[j]).T)
    residual = float(np.abs(entries.imag).max())
    if residual > IMAG_TOL:
        raise ValueError(f"correlation traces are not real (residual {residual:.3e}); invalid state")
    return CorrelationMatrix(entries.real, s=ops.s, imag_residual=residual)


def correlation_from_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Correlation entries from a coefficient tensor of shape (..., 3, 3, 3, 3).

    Leading axes are broadcast, so a whole batch of states is handled in one
    call.  Index order matches ``DensityMatrix.coefficients()``.
    """
    z = coeffs
    if z.shape[-4:] != (3, 3, 3, 3):
        raise ValueError(f"coefficient tensor must end in (3, 3, 3, 3), got {z.shape}")
    out = np.zeros(z.shape[:-4] + (3, 3))
    # ladder amplitudes: sqrt(m(3-m))/2 at positions (m, m+1), m = 1, 2
    for m in (1, 2):
        for k in (1, 2):
            c = 0.5 * math.sqrt(m * k * (3 - m) * (3 - k))
            up_up = z[..., m - 1, m, k - 1, k]      # <.. m, k ..|rho|.. m+1, k+1 ..>
            up_dn = z[..., m - 1, m, k, k - 1]
            dn_up = z[..., m, m - 1, k - 1, k]
            dn_dn = z[..., m, m - 1, k, k - 1]
            out[..., 0, 0] += c * (up_up + up_dn).real
            out[..., 0, 1] += c * (up_dn - up_up).imag
            out[..., 1, 0] += -c * (up_up + up_dn).imag
            out[..., 1, 1] += c * (dn_up - dn_dn).real
    for m in (1, 2):
        for k in (1, 2, 3):
            c = 0.5 * math.sqrt(m * (3 - m)) * (4 - 2 * k)
            out[..., 0, 2] += c * z[..., m, m - 1, k - 1, k - 1].real
            out[..., 1, 2] += -c * z[..., m - 1, m, k - 1, k - 1].imag
    for m in (1, 2, 3):
        for k in (1, 2):
            c = 0.5 * (4 - 2 * m) * math.sqrt(k * (3 - k))
            out[..., 2, 0] += c * z[..., m - 1, m - 1, k, k - 1].real
            out[..., 2, 1] += -c * z[..., m - 1, m - 1, k - 1, k].imag
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            out[..., 2, 2] += 0.25 * (4 - 2 * m) * (4 - 2 * k) * z[..., m - 1, m - 1, k - 1, k - 1].real
    return out


def correlation_matrix_coeff(rho: DensityMatrix) -> CorrelationMatrix:
    """Correlation matrix of a two-qutrit state read off its coefficient tensor."""
    if rho.dims != (3, 3):
        raise ValueError(f"coefficient route requires two qutrits, got dims {rho.dims}")
    return CorrelationMatrix(correlation_from_coefficients(rho.coefficients()), s=1.0)


def top_two_root(gram_eigenvalues: np.ndarray) -> np.ndarray:
    """sqrt of the sum of the two largest eigenvalues, batched over leading axes.

    Input is the ascending eigenvalue array of Z^T Z; negatives from round-off
    are clamped to zero before the square root.
    """
    ev = gram_eigenvalues
    return np.sqrt(np.clip(ev[..., 2], 0.0, None) + np.clip(ev[..., 1], 0.0, None))


def check_norm_cap(gram_eigenvalues) -> None:
    """Raise ValueError if a spin-1 correlation matrix Z has operator norm
    above 1 anywhere; input is the ascending eigenvalue array of Z^T Z,
    batched over leading axes."""
    top = math.sqrt(float(np.max(gram_eigenvalues[..., 2], initial=0.0)))
    if top > 1.0 + NORM_CAP_TOL:
        raise ValueError(f"spin-1 correlation matrix has operator norm {top} > 1; "
                         "no physical two-qutrit state produces this")


def check_tsirelson(gamma) -> None:
    """Raise ValueError if gamma (a float or an array) exceeds the cap sqrt(2) anywhere."""
    top = float(np.max(gamma, initial=0.0))
    if top > math.sqrt(2) + VIOLATION_TOL:
        raise ValueError(f"gamma = {top} exceeds the quantum cap sqrt(2); invalid correlation matrix")


def chsh_analysis(Z: CorrelationMatrix) -> ChshAnalysis:
    """Singular values, CHSH parameter gamma and maximum expectation upsilon."""
    M = Z.matrix
    ev = np.linalg.eigvalsh(M.T @ M)
    sv = np.sqrt(np.clip(ev, 0.0, None))[::-1]
    root = float(top_two_root(ev))
    s_sq = Z.s * Z.s
    gamma = root / s_sq
    check_tsirelson(gamma)
    sv.setflags(write=False)
    return ChshAnalysis(singular_values=sv, gamma=gamma, upsilon=2 * s_sq * gamma, s=Z.s)


def chsh_expectation(rho: DensityMatrix, setting: MeasurementSetting,
                     ops: SpinOperators) -> float:
    """CHSH expectation for explicit measurement directions.

    Evaluates the trace of rho against
    S_a1 (x) (S_b1 + S_b2) + S_a2 (x) (S_b1 - S_b2).
    """
    d = ops.d
    if rho.dims != (d, d):
        raise ValueError(f"state dims {rho.dims} do not match spin dimension {d}")
    sa1 = spin_projection(ops, setting.a1)
    sa2 = spin_projection(ops, setting.a2)
    sb1 = spin_projection(ops, setting.b1)
    sb2 = spin_projection(ops, setting.b2)
    bell = np.kron(sa1, sb1 + sb2) + np.kron(sa2, sb1 - sb2)
    val = complex(np.sum(rho.matrix * bell.T))
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(f"CHSH expectation is not real (imag {val.imag:.3e}); invalid state")
    return float(val.real)


# ---------------------------------------------------------------------------
# Closed forms for the named families (spin-1 measurements)
# ---------------------------------------------------------------------------

def analytic_gamma(spec: Family) -> float:
    """Closed-form spin-1 CHSH parameter of a named family member.

    The formula is the family's ``gamma()``; see ``states.FAMILIES``.
    """
    return family_of(spec).gamma(spec)


def analytic_curves(spec) -> tuple:
    """(gamma, concurrence) of a pure family member, such as the
    one-parameter curve families Example1/Example2; mixed families raise."""
    return analytic_gamma(spec), analytic_concurrence(spec)
