"""Partial trace, reduced-state purity, and pure-state concurrence.

Concurrence of a pure bipartite state is sqrt(2 (1 - tr[rho_j^2])) with
rho_j either reduced state; it vanishes exactly on product states and
reaches 2/sqrt(3) on maximally entangled two-qutrit states.  Mixed-state
concurrence is a different (convex-roof) quantity and is deliberately not
implemented; passing a mixed family raises.  The closed-form concurrences
of the pure named families live in the family table ``states.FAMILIES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, PureState, family_of, require_physical

# Slack on the purity range [1/d, 1] of a reduced state.
PURITY_TOL = 1e-10


@dataclass(frozen=True)
class ReducedState:
    """Single-party density matrix with its purity tr[rho^2]."""

    matrix: np.ndarray
    purity: float

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        d = m.shape[0]
        if m.shape != (d, d):
            raise ValueError("reduced state must be square")
        require_physical(m, "reduced state")
        if not (1.0 / d - PURITY_TOL <= self.purity <= 1.0 + PURITY_TOL):
            raise ValueError(f"purity {self.purity} outside [1/{d}, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _frobenius_sq(m: np.ndarray) -> float:
    return float(np.sum(m.real ** 2 + m.imag ** 2))


def partial_trace(rho: DensityMatrix, keep: str = "A") -> ReducedState:
    """Trace out one party; ``keep`` selects the party that remains."""
    da, db = rho.dims
    t = rho.matrix.reshape(da, db, da, db)
    if keep.upper() == "A":
        red = np.einsum("ikjk->ij", t)
    elif keep.upper() == "B":
        red = np.einsum("kikj->ij", t)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return ReducedState(matrix=red, purity=_frobenius_sq(red))


def concurrence_pure(psi: PureState) -> float:
    """Concurrence sqrt(2 (1 - tr[rho_A^2])) of a pure bipartite state.

    Evaluated through the Schmidt coefficients: with lam_i the reduced-state
    eigenvalues, 1 - sum lam_i^2 = 2 sum_{i<j} lam_i lam_j, so
    C = 2 sqrt(sum_{i<j} lam_i lam_j).  The pairwise form stays exact near
    product states, where the direct difference would lose all precision and
    report C ~ 1e-8 instead of ~1e-16.
    """
    sv = np.linalg.svd(psi.matrix_form(), compute_uv=False)
    lam = sv * sv
    pairsum = 0.0
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            pairsum += lam[i] * lam[j]
    return 2.0 * math.sqrt(max(0.0, pairsum))


def analytic_concurrence(spec) -> float:
    """Closed-form concurrence of the pure named families.

    The formula is the family's ``concurrence()``; see ``states.FAMILIES``.
    Mixed families (Werner, Horodecki, Product) are rejected: the pure-state
    formula does not apply to them.
    """
    family = family_of(spec)
    if not family.pure:
        raise ValueError(f"no pure-state concurrence for the mixed family {family.__name__}")
    return family.concurrence(spec)
