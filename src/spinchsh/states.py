"""Two-qudit states: pure vectors, density matrices, named qutrit families,
their state-file format, and the seeded random pure-state sampler.

Index convention: the amplitude vector of a bipartite pure state is ordered
row-major by (m, k), with m the first-party index (outer) and k the
second-party index (inner).  The computational-basis coefficient tensor of a
density matrix follows the same convention: ``coefficients()[m, m2, k, k2]``
is the matrix element between |m k> and |m2 k2> (all indices 0-based).
State files hold these arrays as row-major ``[re, im]`` pairs, decoded only by
``_from_pairs`` (through ``_read_state`` for state files) and written only by
``_to_pairs``; ``sample_pure_state`` is a batch of one.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .spin import spin_operators

NORM_TOL = 1e-12       # pure-state and family-coefficient normalization
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10        # minimum eigenvalue may round off to -PSD_TOL
WEIGHT_TOL = 1e-9

SAMPLERS = ("uniform", "haar")


class StateInvariantError(ValueError):
    """A state failed a physicality check (normalization, Hermiticity, trace, PSD)."""


def physicality_residuals(matrix) -> dict:
    """Hermiticity, trace and positivity residuals of a square matrix rho.

    ``min_eigenvalue`` is that of the Hermitian part, which is rho itself
    when rho is exactly Hermitian; ``valid`` says whether all three
    residuals are within HERMITICITY_TOL, TRACE_TOL and PSD_TOL.
    """
    m = np.asarray(matrix)
    herm = float(np.abs(m - m.conj().T).max())
    trace_dev = float(abs(m.trace() - 1.0))
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    return {
        "hermiticity_residual": herm,
        "trace_deviation": trace_dev,
        "min_eigenvalue": min_eig,
        "valid": herm <= HERMITICITY_TOL and trace_dev <= TRACE_TOL and min_eig >= -PSD_TOL,
    }


def norm_residuals(amplitudes) -> dict:
    """Normalization residual of an amplitude vector, and whether it is within NORM_TOL."""
    deviation = float(abs(np.sum(np.abs(amplitudes) ** 2) - 1.0))
    return {"norm_deviation": deviation, "valid": deviation <= NORM_TOL}


def require_physical(matrix, name: str) -> None:
    """Raise StateInvariantError unless ``matrix`` is Hermitian, trace-one and PSD."""
    res = physicality_residuals(matrix)
    if not res["valid"]:
        raise StateInvariantError(
            f"{name} is not a density matrix: max |rho - rho^dagger| = "
            f"{res['hermiticity_residual']:.3e}, |tr - 1| = {res['trace_deviation']:.3e}, "
            f"min eigenvalue = {res['min_eigenvalue']:.3e}")


@dataclass(frozen=True)
class PureState:
    """Normalized pure state on a (d_A * d_B)-dimensional bipartite space."""

    amplitudes: np.ndarray
    dims: tuple

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        dims = _check_dims(self.dims)
        if amps.shape != (dims[0] * dims[1],):
            raise ValueError(f"amplitude vector of length {amps.shape} does not match dims {dims}")
        res = norm_residuals(amps)
        if not res["valid"]:
            raise StateInvariantError(f"state is not normalized: off by {res['norm_deviation']!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def matrix_form(self) -> np.ndarray:
        """Amplitudes as a (d_A, d_B) matrix: row = first party, column = second."""
        return self.amplitudes.reshape(self.dims)

    def to_json(self) -> dict:
        return {"dims": list(self.dims), "amplitudes": _to_pairs(self.amplitudes)}


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite bipartite density matrix."""

    matrix: np.ndarray
    dims: tuple

    def __post_init__(self):
        rho = np.ascontiguousarray(self.matrix, dtype=complex)
        dims = _check_dims(self.dims)
        n = dims[0] * dims[1]
        if rho.shape != (n, n):
            raise ValueError(f"matrix shape {rho.shape} does not match dims {dims}")
        require_physical(rho, "matrix")
        rho.setflags(write=False)
        object.__setattr__(self, "matrix", rho)
        object.__setattr__(self, "dims", dims)

    def coefficients(self) -> np.ndarray:
        """Computational-basis coefficient tensor, shape (d_A, d_A, d_B, d_B).

        Entry [m, m2, k, k2] is the matrix element between |m k> and |m2 k2>.
        """
        da, db = self.dims
        return self.matrix.reshape(da, db, da, db).transpose(0, 2, 1, 3)

    def to_json(self) -> dict:
        return {"dims": list(self.dims), "matrix": _to_pairs(self.matrix)}


def _check_dims(dims) -> tuple:
    if not (isinstance(dims, (list, tuple)) and len(dims) == 2
            and all(isinstance(d, numbers.Integral) and d >= 2 for d in dims)):
        raise ValueError(f"dims must be two factors >= 2, got {dims}")
    return tuple(int(d) for d in dims)


def _to_pairs(values) -> list:
    return [[float(x.real), float(x.imag)] for x in np.ravel(values)]


def _from_pairs(pairs, shape: tuple) -> np.ndarray:
    """The complex array of ``shape`` from a row-major list of [re, im]
    pairs; raises ValueError unless there is exactly one finite pair per entry."""
    try:
        pairs = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        pairs = None
    if pairs is None or pairs.shape != (math.prod(shape), 2) or not np.isfinite(pairs).all():
        raise ValueError(f"expected a list of {math.prod(shape)} [re, im] pairs of finite numbers")
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(shape)


def _read_state(data) -> tuple:
    """(dims, entries) of a state dict: an amplitude vector or a square matrix, unchecked."""
    if not (isinstance(data, dict) and ("amplitudes" in data or "matrix" in data)):
        raise ValueError("state JSON must contain either 'amplitudes' or 'matrix'")
    dims = _check_dims(data.get("dims"))
    n = dims[0] * dims[1]
    if "amplitudes" in data:
        return dims, _from_pairs(data["amplitudes"], (n,))
    return dims, _from_pairs(data["matrix"], (n, n))


def state_from_json(data: dict) -> Union[PureState, DensityMatrix]:
    """Deserialize a state dict: a PureState from 'amplitudes', else a DensityMatrix."""
    dims, entries = _read_state(data)
    return (PureState if entries.ndim == 1 else DensityMatrix)(entries, dims)


def pure_to_density(psi: PureState) -> DensityMatrix:
    """Rank-one density matrix |psi><psi|."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.dims)


def mix(components) -> DensityMatrix:
    """Convex combination of density matrices.

    ``components`` is an iterable of (weight, DensityMatrix) with positive
    weights summing to one (tolerance 1e-9).
    """
    components = list(components)
    if not components:
        raise ValueError("mix() needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if np.any(weights <= 0):
        raise ValueError(f"weights must be positive, got {weights}")
    if abs(weights.sum() - 1.0) > WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
    dims = components[0][1].dims
    if any(rho.dims != dims for _, rho in components):
        raise ValueError("all components must share the same dims")
    acc = sum(w * rho.matrix for w, rho in components)
    return DensityMatrix(acc, dims)


# ---------------------------------------------------------------------------
# Named two-qutrit families
# ---------------------------------------------------------------------------

class Flag(NamedTuple):
    """Command-line flag for one family parameter, in argparse's terms."""

    name: str
    type: Optional[Callable]
    help: str
    metavar: Optional[str] = None
    required: bool = True


class Family:
    """A named two-qutrit family: an entry of the table FAMILIES.

    Each family is a frozen dataclass of its parameters that gives, in one
    place, the command-line ``flags`` carrying its parameters to
    ``from_flags``, its ``state()`` (a PureState for a ``pure`` family, a
    DensityMatrix for a mixed one), the closed-form spin-1 CHSH parameter
    ``gamma()`` and, for pure families only, the closed-form ``concurrence()``.
    """

    flags = ()
    pure = False

    @classmethod
    def from_flags(cls, *values):
        return cls(*values)


def _check_unit_coefficients(name, *coeffs):
    total = sum(abs(c) ** 2 for c in coeffs)
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"{name} coefficients must have unit norm, got sum |a|^2 = {total!r}")


_COEFFICIENT_HELP = "coefficient for --family antisym/sym"


@dataclass(frozen=True)
class Antisym(Family):
    """Pure state in the antisymmetric subspace of two qutrits.

    Coefficients a12, a13, a23 weight the singlet-like basis vectors
    (|ij> - |ji>)/sqrt(2); they must be normalized.
    """

    a12: complex
    a13: complex
    a23: complex

    flags = tuple(Flag(f"--alpha{ij}", complex, _COEFFICIENT_HELP) for ij in ("12", "13", "23"))
    pure = True

    def __post_init__(self):
        _check_unit_coefficients("Antisym", self.a12, self.a13, self.a23)

    def state(self) -> PureState:
        psi = np.zeros(9, dtype=complex)
        for (i, j), a in (((0, 1), self.a12), ((0, 2), self.a13), ((1, 2), self.a23)):
            psi[i * 3 + j] += a / math.sqrt(2)
            psi[j * 3 + i] -= a / math.sqrt(2)
        return PureState(psi, (3, 3))

    def gamma(self) -> float:
        q = abs(self.a13 ** 2 - 2 * self.a12 * self.a23)
        return math.sqrt((1 + q * q) / 2)

    def concurrence(self) -> float:
        return 1.0


@dataclass(frozen=True)
class Sym(Family):
    """Pure two-qutrit state a11 |11> + a22 |22> + a33 |33> (normalized)."""

    a11: complex
    a22: complex
    a33: complex

    flags = tuple(Flag(f"--alpha{ii}", complex, _COEFFICIENT_HELP) for ii in ("11", "22", "33"))
    pure = True

    def __post_init__(self):
        _check_unit_coefficients("Sym", self.a11, self.a22, self.a33)

    def state(self) -> PureState:
        psi = np.zeros(9, dtype=complex)
        psi[0], psi[4], psi[8] = self.a11, self.a22, self.a33
        return PureState(psi, (3, 3))

    def gamma(self) -> float:
        w = abs(np.conjugate(self.a11) * self.a22 + np.conjugate(self.a22) * self.a33)
        p = abs(self.a11) ** 2 + abs(self.a33) ** 2
        # doubly degenerate singular value w versus the simple one p
        if w >= p:
            return math.sqrt(2) * w
        return math.sqrt(w * w + p * p)

    def concurrence(self) -> float:
        return math.sqrt(2 * (1 - abs(self.a11) ** 4 - abs(self.a22) ** 4 - abs(self.a33) ** 4))


class _SymMember(Family):
    """A pure family whose members are the Sym states of ``coefficients()``."""

    pure = True

    def state(self) -> PureState:
        return Sym(*self.coefficients()).state()


@dataclass(frozen=True)
class GHZ3(_SymMember):
    """Maximally entangled two-qutrit state (|11> + |22> + |33>)/sqrt(3)."""

    def coefficients(self) -> tuple:
        r = 1 / math.sqrt(3)
        return (r, r, r)

    def gamma(self) -> float:
        return Sym(*self.coefficients()).gamma()

    def concurrence(self) -> float:
        return 2 / math.sqrt(3)


@dataclass(frozen=True)
class Werner(Family):
    """Two-qutrit Werner state: mixture of identity and the swap operator.

    phi in [-1, 1]; separable iff phi >= 0.
    """

    phi: float

    flags = (Flag("--phi", float, "Werner mixing parameter in [-1, 1]"),)

    def __post_init__(self):
        if not -1.0 <= self.phi <= 1.0:
            raise ValueError(f"phi must lie in [-1, 1], got {self.phi}")

    def state(self) -> DensityMatrix:
        rho = (3 - self.phi) / 24 * np.eye(9) + (3 * self.phi - 1) / 24 * swap_operator(3)
        return DensityMatrix(rho.astype(complex), (3, 3))

    def gamma(self) -> float:
        return math.sqrt(2) / 12 * abs(3 * self.phi - 1)


@dataclass(frozen=True)
class Horodecki(Family):
    """One-parameter two-qutrit mixture spanning separable, bound-entangled
    and free-entangled regimes as tau runs over [2, 5]."""

    tau: float

    flags = (Flag("--tau", float, "Horodecki parameter in [2, 5]"),)

    def __post_init__(self):
        if not 2.0 <= self.tau <= 5.0:
            raise ValueError(f"tau must lie in [2, 5], got {self.tau}")

    def state(self) -> DensityMatrix:
        # direct weighted assembly: the endpoint weight (5 - tau)/7 vanishes
        # at tau = 5, which mix() would reject
        ghz = family_state(GHZ3())
        cyc_up = sum(np.outer(_basis_ket(i, j), _basis_ket(i, j).conj())
                     for i, j in ((0, 1), (1, 2), (2, 0))) / 3
        cyc_down = sum(np.outer(_basis_ket(j, i), _basis_ket(j, i).conj())
                       for i, j in ((0, 1), (1, 2), (2, 0))) / 3
        rho = 2 / 7 * ghz.matrix + self.tau / 7 * cyc_up + (5 - self.tau) / 7 * cyc_down
        return DensityMatrix(rho, (3, 3))

    def gamma(self) -> float:
        return 4 * math.sqrt(2) / 21


@dataclass(frozen=True)
class _Curve(_SymMember):
    """A one-parameter pure family, t in [0, 1]."""

    t: float

    flags = (Flag("--t", float, "curve parameter in [0, 1]"),)

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {self.t}")


@dataclass(frozen=True)
class Example1(_Curve):
    """One-parameter pure family (1-t)|11> + t|33>, normalized.

    Entanglement varies with t while the spin-1 CHSH parameter stays
    equal to one on the whole interval.
    """

    def coefficients(self) -> tuple:
        norm = math.sqrt(1 - 2 * self.t + 2 * self.t ** 2)
        return ((1 - self.t) / norm, 0.0, self.t / norm)

    def gamma(self) -> float:
        return 1.0

    def concurrence(self) -> float:
        t = self.t
        return 2 * t * (1 - t) / (1 - 2 * t * (1 - t))


@dataclass(frozen=True)
class Example2(_Curve):
    """One-parameter pure family interpolating |11> (t=0) to the GHZ state (t=1).

    Entanglement increases monotonically while the spin-1 CHSH parameter
    decreases.
    """

    def coefficients(self) -> tuple:
        norm = math.sqrt(1 - self.t + 0.75 * self.t ** 2)
        return ((1 - self.t / 2) / norm, (self.t / 2) / norm, (self.t / 2) / norm)

    def gamma(self) -> float:
        t = self.t
        quartic = t ** 4 - 4 * t ** 3 + 9 * t ** 2 - 8 * t + 4
        return 2 * math.sqrt(quartic) / (3 * t * t - 4 * t + 4)

    def concurrence(self) -> float:
        t = self.t
        return 2 * t * math.sqrt(3 * t * t - 8 * t + 8) / (3 * t * t - 4 * t + 4)


def _load_qutrit_matrix(path):
    if path is None:
        return np.eye(3) / 3
    with open(path) as fh:
        data = json.load(fh)
    return _from_pairs(data.get("matrix") if isinstance(data, dict) else None, (3, 3))


@dataclass(frozen=True)
class Product(Family):
    """Product of two single-qutrit density matrices (3x3 arrays)."""

    rho_a: np.ndarray
    rho_b: np.ndarray

    flags = (Flag("--state-a", None, "first factor for --family product (default: maximally mixed)",
                  "JSON", required=False),
             Flag("--state-b", None, "second factor for --family product (default: maximally mixed)",
                  "JSON", required=False))

    def __post_init__(self):
        for name, rho in (("rho_a", self.rho_a), ("rho_b", self.rho_b)):
            rho = np.ascontiguousarray(rho, dtype=complex)
            if rho.shape != (3, 3):
                raise ValueError(f"{name} must be a 3x3 matrix")
            require_physical(rho, name)
            rho.setflags(write=False)
            object.__setattr__(self, name, rho)

    @classmethod
    def from_flags(cls, path_a, path_b) -> "Product":
        """Factors read from JSON files holding a 'matrix' of 9 [re, im]
        pairs ('dims' is not read); no path gives the maximally mixed qutrit."""
        return cls(_load_qutrit_matrix(path_a), _load_qutrit_matrix(path_b))

    def state(self) -> DensityMatrix:
        return DensityMatrix(np.kron(self.rho_a, self.rho_b), (3, 3))

    def gamma(self) -> float:
        # rank-one correlation matrix: gamma is the product of the two
        # single-party spin-moment norms
        S = spin_operators(1.0).components
        ma = np.array([np.sum(self.rho_a * S[i].T).real for i in range(3)])
        mb = np.array([np.sum(self.rho_b * S[i].T).real for i in range(3)])
        return float(np.linalg.norm(ma) * np.linalg.norm(mb))


def swap_operator(d: int) -> np.ndarray:
    """Permutation operator exchanging the two tensor factors of C^d x C^d."""
    V = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            V[i * d + j, j * d + i] = 1.0
    return V


def _basis_ket(m: int, k: int) -> np.ndarray:
    psi = np.zeros(9, dtype=complex)
    psi[m * 3 + k] = 1.0
    return psi


# The family table: every named family by command-line name, in the order
# the command line lists them.
FAMILIES = {"antisym": Antisym, "sym": Sym, "ghz3": GHZ3, "werner": Werner,
            "horodecki": Horodecki, "example1": Example1, "example2": Example2,
            "product": Product}


def family_of(spec: Family) -> type:
    """The FAMILIES entry (the class) of a family member; raises for anything else."""
    family = type(spec)
    if family not in FAMILIES.values():
        raise ValueError(f"unknown family spec: {spec!r}")
    return family


def family_pure(spec: Family) -> PureState:
    """State vector of a pure family member; raises for mixed families."""
    family = family_of(spec)
    if not family.pure:
        raise ValueError(f"{family.__name__} is not a pure family")
    return family.state(spec)


def family_state(spec: Family) -> DensityMatrix:
    """Density matrix of any named family member."""
    family = family_of(spec)
    if family.pure:
        return pure_to_density(family.state(spec))
    return family.state(spec)


# ---------------------------------------------------------------------------
# Random pure states
# ---------------------------------------------------------------------------
#
# Reproducibility contract: sample number i of a run seeded with `seed` is a
# pure function of the pair (seed, i).  The pair keys a Philox-4x64 counter
# based generator: each sample is drawn from the state Philox(key=(seed, i))
# starts in, assigned whole through numpy's documented ``state`` setter, so
# samples are independent of batching, ordering and worker count.  Seeds and
# indices outside [0, 2**64) are rejected rather than wrapped, so no two
# seeds name the same stream.

def check_key(name: str, value: int) -> int:
    """``value`` as one 64-bit word of a Philox key (a seed or a sample
    index); raises unless it is an integer in [0, 2**64)."""
    value = operator.index(value)
    if not 0 <= value < 2 ** 64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


def keyed_generator(seed: int, index: int) -> np.random.Generator:
    """Philox-4x64 generator keyed by (seed, index), both in [0, 2**64)."""
    # a uint64 array, because numpy converts a list that mixes words above
    # and below 2**63 through float64 and so loses key bits
    key = np.array([check_key("seed", seed), check_key("index", index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_pure_state(dims=(3, 3), sampler: str = "uniform",
                      seed: int = 0, index: int = 0) -> PureState:
    """Draw one random normalized pure state, determined by (seed, index):
    row 0 of ``sample_amplitude_batch`` started at ``index``."""
    return PureState(sample_amplitude_batch(dims, sampler, seed, index, 1)[0], tuple(dims))


def sample_amplitude_batch(dims, sampler: str, seed: int, start: int, count: int) -> np.ndarray:
    """Normalized amplitude rows for sample indices start .. start+count-1.

    Row i is sample start + i bit for bit in any batch; this is the one
    path from (seed, index) to a sample.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; choose from {SAMPLERS}")
    check_key("seed", seed)
    check_key("index", start)
    if count > 0:
        check_key("index", start + count - 1)
    n = int(dims[0]) * int(dims[1])
    bitgen = np.random.Philox(key=[0, 0])
    rng = np.random.Generator(bitgen)
    # uniform: real and imaginary parts uniform on [0, 1); all amplitudes lie
    # in the closed first quadrant before (and after) normalization.  haar:
    # independent standard complex Gaussians; invariant under rotations,
    # hence uniform on the unit sphere after normalization.
    draw = rng.random if sampler == "uniform" else rng.standard_normal
    pairs = np.empty((count * n, 2))  # [re, im] of each amplitude, n rows per sample
    for i in range(count):
        # the state Philox(key=(seed, start + i)) starts in
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"key": np.array([seed, start + i], dtype=np.uint64),
                                  "counter": np.zeros(4, dtype=np.uint64)},
                        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
        draw(out=pairs[i * n:(i + 1) * n])
    out = _from_pairs(pairs, (count, n))
    out /= np.sqrt(np.sum(out.real ** 2 + out.imag ** 2, axis=1, keepdims=True))
    return out
