"""Spin component operators and their projections onto spatial directions.

Matrices are built from the ladder operators S+/S- with elements
sqrt(s(s+1) - m(m +- 1)), in the basis ordered so that S3 is diagonal
with eigenvalues s, s-1, ..., -s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for validating caller-supplied data (directions, spin values);
# the exact constructions themselves are held to 1e-12 in tests.
INPUT_TOL = 1e-9
# Largest residual of the spin-algebra identities that validation accepts.
SPIN_ALGEBRA_TOL = 1e-12

_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k, _s in ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                       (2, 1, 0, -1.0), (0, 2, 1, -1.0), (1, 0, 2, -1.0)):
    _LEVI_CIVITA[_i, _j, _k] = _s


@dataclass(frozen=True)
class SpinOperators:
    """The three d x d Hermitian spin component matrices for spin s (d = 2s+1)."""

    s: float
    components: np.ndarray  # shape (3, d, d), complex

    @property
    def d(self) -> int:
        return int(round(2 * self.s + 1))

    @property
    def x(self) -> np.ndarray:
        return self.components[0]

    @property
    def y(self) -> np.ndarray:
        return self.components[1]

    @property
    def z(self) -> np.ndarray:
        return self.components[2]


def _check_spin_value(s: float) -> float:
    s = float(s)
    if abs(2 * s - round(2 * s)) > INPUT_TOL or s < 0.5:
        raise ValueError(f"spin must be a half-integer >= 1/2, got {s}")
    return round(2 * s) / 2


def spin_operators(s: float) -> SpinOperators:
    """Construct the spin component matrices (S1, S2, S3) for spin s.

    S3 is diagonal descending; S1, S2 are assembled from the ladder
    operators.  For s = 1 the entries are 0, +-1 and 1/sqrt(2) exactly.
    """
    s = _check_spin_value(s)
    d = int(round(2 * s + 1))
    m = s - np.arange(d)  # magnetic quantum numbers, descending
    raising = np.zeros((d, d))
    for i in range(d - 1):
        raising[i, i + 1] = np.sqrt(s * (s + 1) - m[i + 1] * (m[i + 1] + 1))
    lowering = raising.T
    components = np.stack([
        ((raising + lowering) / 2).astype(complex),
        ((raising - lowering) / 2j).astype(complex),
        np.diag(m).astype(complex),
    ])
    components.setflags(write=False)
    return SpinOperators(s=s, components=components)


def spin_projection(ops: SpinOperators, direction) -> np.ndarray:
    """Projection of the spin onto a unit direction r, i.e. sum_j r_j S_j.

    The result is Hermitian with spectrum {-s, ..., s}.  Rejects
    directions whose Euclidean norm deviates from 1 by more than 1e-9.
    """
    r = np.asarray(direction, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"direction must have three components, got shape {r.shape}")
    if abs(np.linalg.norm(r) - 1.0) > INPUT_TOL:
        raise ValueError(f"direction must be a unit vector, |r| = {np.linalg.norm(r)}")
    return r[0] * ops.components[0] + r[1] * ops.components[1] + r[2] * ops.components[2]


def validate_spin_algebra(ops: SpinOperators) -> dict:
    """Max absolute residuals of the defining spin-algebra identities.

    Returns a dict with entries
      hermiticity          max |S_j - S_j^dagger|
      commutation          max |[S_j, S_k] - i sum_l eps_jkl S_l|
      trace_orthogonality  max |tr[S_j S_k] - c delta_jk|, c = s(s+1)d/3
      casimir              max |S1^2 + S2^2 + S3^2 - s(s+1) I|

    All residuals are <= SPIN_ALGEBRA_TOL for the exact ladder construction.
    """
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
    trace = max(
        abs(np.trace(S[j] @ S[k]) - (c if j == k else 0.0))
        for j in range(3) for k in range(3)
    )
    casimir = np.abs(sum(Sj @ Sj for Sj in S) - s * (s + 1) * np.eye(d)).max()
    return {
        "hermiticity": float(herm),
        "commutation": float(comm),
        "trace_orthogonality": float(trace),
        "casimir": float(casimir),
    }
