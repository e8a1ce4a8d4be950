"""Spin component operators and their projections onto spatial directions.

Matrices are built from the ladder operators S+/S- with elements
sqrt(s(s+1) - m(m +- 1)), in the basis ordered so that S3 is diagonal
with eigenvalues s, s-1, ..., -s.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

# Tolerance for validating caller-supplied data (directions, spin values);
# the exact constructions themselves are held to 1e-12 in tests.
INPUT_TOL = 1e-9
# Largest residual of the spin-algebra identities that validation accepts.
SPIN_ALGEBRA_TOL = 1e-12


class Value:
    """Base of the frozen value dataclasses, which check their invariants
    once, when they are built: each array field is stored by ``own``, and
    pickle and copy.deepcopy rebuild the object through its constructor
    from its ``init`` fields, so no copy comes back writable or unchecked."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def own(obj, name: str, dtype) -> np.ndarray:
    """Store field ``name`` of ``obj`` as a read-only C-ordered copy of
    ``dtype`` and return it; a caller's array is never kept or frozen."""
    a = np.array(getattr(obj, name), dtype=dtype, order="C")
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k, _s in ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                       (2, 1, 0, -1.0), (0, 2, 1, -1.0), (1, 0, 2, -1.0)):
    _LEVI_CIVITA[_i, _j, _k] = _s


@dataclass(frozen=True)
class SpinOperators(Value):
    """The three d x d Hermitian spin component matrices for spin s (d = 2s+1)."""

    s: float
    components: np.ndarray  # shape (3, d, d), complex

    def __post_init__(self):
        object.__setattr__(self, "s", _check_spin_value(self.s))
        # the spin algebra is checked by validate_spin_algebra, not here, so
        # perturbed operators can be built and measured
        c = own(self, "components", complex)
        if c.shape != (3, self.d, self.d):
            raise ValueError(f"spin-{self.s} components must have shape "
                             f"(3, {self.d}, {self.d}), got {c.shape}")

    @property
    def d(self) -> int:
        return int(round(2 * self.s + 1))


def _check_spin_value(s: float) -> float:
    s = float(s)
    if not (math.isfinite(s) and s >= 0.5 and abs(2 * s - round(2 * s)) <= INPUT_TOL):
        raise ValueError(f"spin must be a half-integer >= 1/2, got {s}")
    return round(2 * s) / 2


def check_unit_vector(name: str, v) -> np.ndarray:
    """``v`` as a new contiguous float array of shape (3,); raises ValueError
    unless its Euclidean norm is within INPUT_TOL of 1."""
    v = np.array(v, dtype=float, order="C")
    if v.shape != (3,):
        raise ValueError(f"{name} must have three components, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= INPUT_TOL:  # NaN fails
        raise ValueError(f"{name} must be a unit vector, |{name}| = {norm}")
    return v


def check_dims(dims) -> tuple:
    """``dims`` as a tuple of two ints; raises ValueError unless it is a
    list or tuple of two integers >= 2, the factors of a bipartite space."""
    if not (isinstance(dims, (list, tuple)) and len(dims) == 2
            and all(isinstance(d, numbers.Integral) and d >= 2 for d in dims)):
        raise ValueError(f"dims must be two factors >= 2, got {dims}")
    return tuple(int(d) for d in dims)


def spin_operators(s: float) -> SpinOperators:
    """Construct the spin component matrices (S1, S2, S3) for spin s.

    S3 is diagonal descending; S1, S2 are assembled from the ladder
    operators.  For s = 1 the entries are 0, +-1 and 1/sqrt(2) exactly.
    """
    s = _check_spin_value(s)
    d = int(round(2 * s + 1))
    m = s - np.arange(d)  # magnetic quantum numbers, descending
    raising = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1)
    lowering = raising.T
    components = np.stack([
        ((raising + lowering) / 2).astype(complex),
        ((raising - lowering) / 2j).astype(complex),
        np.diag(m).astype(complex),
    ])
    return SpinOperators(s=s, components=components)


def spin_projection(ops: SpinOperators, direction) -> np.ndarray:
    """Projection of the spin onto a unit direction r, i.e. sum_j r_j S_j.

    The result is Hermitian with spectrum {-s, ..., s}.  Rejects
    directions whose Euclidean norm deviates from 1 by more than 1e-9.
    """
    r = check_unit_vector("direction", direction)
    return r[0] * ops.components[0] + r[1] * ops.components[1] + r[2] * ops.components[2]


def validate_spin_algebra(ops: SpinOperators) -> dict:
    """Max absolute residuals of the defining spin-algebra identities.

    Returns a dict with entries
      hermiticity          max |S_j - S_j^dagger|
      commutation          max |[S_j, S_k] - i sum_l eps_jkl S_l|
      trace_orthogonality  max |tr[S_j S_k] - c delta_jk|, c = s(s+1)d/3
      casimir              max |S1^2 + S2^2 + S3^2 - s(s+1) I|

    One stacked product of every pair S_j S_k serves the last three.  All
    residuals are <= SPIN_ALGEBRA_TOL for the exact ladder construction.
    """
    S = ops.components
    s, d = ops.s, ops.d
    herm = np.abs(S - S.conj().transpose(0, 2, 1)).max()
    prod = S[:, None] @ S[None, :]  # prod[j, k] = S_j S_k
    rhs = 1j * np.tensordot(_LEVI_CIVITA, S, axes=1)  # i sum_l eps_jkl S_l
    comm = np.abs(prod - prod.transpose(1, 0, 2, 3) - rhs).max()
    c = s * (s + 1) * d / 3
    tr = np.trace(prod, axis1=2, axis2=3) - c * np.eye(3)
    # hypot rounds |z| as the scalar abs(complex) of one trace does, so each
    # residual equals the per-pair one; numpy's vectorized complex abs can
    # differ from both in the last bit
    trace = np.hypot(tr.real, tr.imag).max()
    casimir = np.abs(prod[0, 0] + prod[1, 1] + prod[2, 2] - s * (s + 1) * np.eye(d)).max()
    return {
        "hermiticity": float(herm),
        "commutation": float(comm),
        "trace_orthogonality": float(trace),
        "casimir": float(casimir),
    }
