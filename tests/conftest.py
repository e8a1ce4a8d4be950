"""Shared builders for randomized tests.

These generators are deliberately independent of the library's own sampler
(plain Gaussian/Ginibre draws from a numpy Generator) so that tests checking
the library's sampling and analysis paths do not share code with them.
"""

import numpy as np
import pytest

from spinchsh import DensityMatrix, PureState


def random_pure(rng, dims=(3, 3)) -> PureState:
    n = dims[0] * dims[1]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(v / np.linalg.norm(v), dims)


def random_mixed(rng, dims=(3, 3), rank=None) -> DensityMatrix:
    """Ginibre-ensemble density matrix of the given rank (default: full rank)."""
    n = dims[0] * dims[1]
    shape = (n, rank or n)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = g @ g.conj().T
    return DensityMatrix(rho / rho.trace().real, dims)


def random_qutrit_density(rng) -> np.ndarray:
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_unit_triple(rng):
    """Normalized complex coefficient triple."""
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return a / np.linalg.norm(a)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
