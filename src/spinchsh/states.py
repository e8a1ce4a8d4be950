"""Two-qudit states: pure vectors, density matrices, named qutrit families
and their state-file format.

Index convention: the amplitude vector of a bipartite pure state is ordered
row-major by (m, k), with m the first-party index (outer) and k the
second-party index (inner).  The computational-basis coefficient tensor of a
density matrix follows the same convention: ``coefficients()[m, m2, k, k2]``
is the matrix element between |m k> and |m2 k2> (all indices 0-based).
State files hold these arrays as row-major ``[re, im]`` pairs, decoded only by
``_from_pairs`` (through ``_read_state`` for state files) and written only by
``_to_pairs``.  ``sample_pure_state`` is a batch of one from
``sampler.sample_amplitude_batch``.

A one-parameter family states its parameter's closed interval once, as the
class attribute ``interval`` that its range check, flag help and sweep read.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .sampler import amplitude_rows, sample_amplitude_batch
from .spin import Value, check_dims, own, spin_operators

NORM_TOL = 1e-12       # pure-state and family-coefficient normalization
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10        # minimum eigenvalue may round off to -PSD_TOL
WEIGHT_TOL = 1e-9


class StateInvariantError(ValueError):
    """A state failed a physicality check (normalization, Hermiticity, trace, PSD)."""


def physicality_residuals(matrix) -> dict:
    """Hermiticity, trace and positivity residuals of a square matrix rho;
    raises ValueError for any other array, an empty one included.

    ``min_eigenvalue`` is that of the Hermitian part, which is rho itself
    when rho is exactly Hermitian; ``valid`` says whether all three
    residuals are within HERMITICITY_TOL, TRACE_TOL and PSD_TOL.  A matrix
    whose Hermitian part is not finite, through a non-finite entry or two
    entries whose sum overflows, has no residuals: all three are NaN (inf -
    inf has no value, and eigvalsh does not converge on one) and it is not
    valid.  Other huge entries may overflow a residual to inf, not a warning.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian_part = (m + m.conj().T) / 2
        if np.isfinite(hermitian_part).all():
            herm = float(np.abs(m - m.conj().T).max())
            trace_dev = float(abs(m.trace() - 1.0))
            min_eig = float(np.linalg.eigvalsh(hermitian_part)[0])
        else:
            herm = trace_dev = min_eig = math.nan
    return {
        "hermiticity_residual": herm,
        "trace_deviation": trace_dev,
        "min_eigenvalue": min_eig,
        "valid": herm <= HERMITICITY_TOL and trace_dev <= TRACE_TOL and min_eig >= -PSD_TOL,
    }


def norm_residuals(amplitudes) -> dict:
    """Normalization residual of an amplitude vector (inf if a square
    overflows), and whether it is within NORM_TOL."""
    with np.errstate(over="ignore"):
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
class PureState(Value):
    """Normalized pure state on a (d_A * d_B)-dimensional bipartite space."""

    amplitudes: np.ndarray
    dims: tuple

    def __post_init__(self):
        amps = own(self, "amplitudes", complex)
        dims = check_dims(self.dims)
        if amps.shape != (dims[0] * dims[1],):
            raise ValueError(f"amplitude vector of length {amps.shape} does not match dims {dims}")
        res = norm_residuals(amps)
        if not res["valid"]:
            raise StateInvariantError(f"state is not normalized: off by {res['norm_deviation']!r}")
        object.__setattr__(self, "dims", dims)

    def matrix_form(self) -> np.ndarray:
        """Amplitudes as a (d_A, d_B) matrix: row = first party, column = second."""
        return self.amplitudes.reshape(self.dims)

    def to_json(self) -> dict:
        return {"dims": list(self.dims), "amplitudes": _to_pairs(self.amplitudes)}


@dataclass(frozen=True)
class DensityMatrix(Value):
    """Hermitian, trace-one, positive-semidefinite bipartite density matrix."""

    matrix: np.ndarray
    dims: tuple

    def __post_init__(self):
        rho = own(self, "matrix", complex)
        dims = check_dims(self.dims)
        n = dims[0] * dims[1]
        if rho.shape != (n, n):
            raise ValueError(f"matrix shape {rho.shape} does not match dims {dims}")
        require_physical(rho, "matrix")
        object.__setattr__(self, "dims", dims)

    def coefficients(self) -> np.ndarray:
        """Computational-basis coefficient tensor, shape (d_A, d_A, d_B, d_B).

        Entry [m, m2, k, k2] is the matrix element between |m k> and |m2 k2>.
        """
        da, db = self.dims
        return self.matrix.reshape(da, db, da, db).transpose(0, 2, 1, 3)

    def to_json(self) -> dict:
        return {"dims": list(self.dims), "matrix": _to_pairs(self.matrix)}


def _to_pairs(values) -> list:
    return [[float(x.real), float(x.imag)] for x in np.ravel(values)]


def _from_pairs(pairs, shape: tuple) -> np.ndarray:
    """The complex array of ``shape`` from a row-major list of [re, im]
    pairs; raises ValueError unless there is exactly one pair of finite
    numbers per entry."""
    try:
        # numpy would read the string "1" and True as 1.0; the exact-type test
        # spares JSON's floats and ints the slower abstract-class check
        numeric = all(type(x) in (float, int)
                      or (isinstance(x, numbers.Real) and not isinstance(x, bool))
                      for pair in pairs for x in pair)
        pairs = np.asarray(pairs, dtype=float) if numeric else None
    except (TypeError, ValueError):  # not nested lists, or ragged
        pairs = None
    if pairs is None or pairs.shape != (math.prod(shape), 2) or not np.isfinite(pairs).all():
        raise ValueError(f"expected a list of {math.prod(shape)} [re, im] pairs of finite numbers")
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(shape)


def _read_state(data) -> tuple:
    """(dims, entries) of a state dict holding exactly one of an amplitude
    vector and a square matrix, unchecked."""
    if not (isinstance(data, dict) and ("amplitudes" in data) != ("matrix" in data)):
        raise ValueError("state JSON must contain exactly one of 'amplitudes' or 'matrix'")
    dims = check_dims(data.get("dims"))
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


def sample_pure_state(dims=(3, 3), sampler: str = "uniform",
                      seed: int = 0, index: int = 0) -> PureState:
    """Draw one random normalized pure state, determined by (seed, index):
    sample 0 of ``sample_amplitude_batch`` started at ``index``."""
    planes = sample_amplitude_batch(dims, sampler, seed, index, 1)
    return PureState(amplitude_rows(planes)[0], tuple(dims))


def mix(components) -> DensityMatrix:
    """Convex combination of density matrices.

    ``components`` is an iterable of (weight, DensityMatrix) with positive
    weights summing to one (tolerance 1e-9).
    """
    components = list(components)
    if not components:
        raise ValueError("mix() needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if not np.all(weights > 0):  # NaN fails
        raise ValueError(f"weights must be positive, got {weights}")
    if not abs(weights.sum() - 1.0) <= WEIGHT_TOL:
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


def _span(interval) -> str:
    return "[{}, {}]".format(*interval)


class _OneParameter(Family):
    """A family of one real parameter, named as its one flag is, that must
    lie in the closed ``interval`` (lo, hi), a class attribute."""

    def __post_init__(self):
        name = self.flags[0].name[2:]
        value = getattr(self, name)
        if not self.interval[0] <= value <= self.interval[1]:  # NaN fails
            raise ValueError(f"{name} must lie in {_span(self.interval)}, got {value}")


def _check_unit_coefficients(name, *coeffs):
    checks = norm_residuals(coeffs)
    if not checks["valid"]:  # NaN fails; an overflowing square gives inf
        raise ValueError(f"{name} coefficients must have unit norm, "
                         f"got norm deviation {checks['norm_deviation']!r}")


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
class Werner(_OneParameter):
    """Two-qutrit Werner state: mixture of identity and the swap operator;
    separable iff phi >= 0."""

    phi: float

    interval = (-1, 1)
    flags = (Flag("--phi", float, f"Werner mixing parameter in {_span(interval)}"),)

    def state(self) -> DensityMatrix:
        rho = (3 - self.phi) / 24 * np.eye(9) + (3 * self.phi - 1) / 24 * swap_operator(3)
        return DensityMatrix(rho.astype(complex), (3, 3))

    def gamma(self) -> float:
        return math.sqrt(2) / 12 * abs(3 * self.phi - 1)


@dataclass(frozen=True)
class Horodecki(_OneParameter):
    """One-parameter two-qutrit mixture spanning separable, bound-entangled
    and free-entangled regimes as tau runs over its interval."""

    tau: float

    interval = (2, 5)
    flags = (Flag("--tau", float, f"Horodecki parameter in {_span(interval)}"),)

    def state(self) -> DensityMatrix:
        # direct weighted assembly: the endpoint weight (5 - tau)/7 vanishes
        # at tau = 5, which mix() would reject
        a = GHZ3().state().amplitudes
        # projectors onto |12>, |23>, |31> and onto |21>, |32>, |13>
        cyc_up = np.diag([0.0, 1, 0, 0, 0, 1, 1, 0, 0]) / 3
        cyc_down = np.diag([0.0, 0, 1, 1, 0, 0, 0, 1, 0]) / 3
        rho = 2 / 7 * np.outer(a, a.conj()) + self.tau / 7 * cyc_up + (5 - self.tau) / 7 * cyc_down
        return DensityMatrix(rho, (3, 3))

    def gamma(self) -> float:
        return 4 * math.sqrt(2) / 21


@dataclass(frozen=True)
class _Curve(_OneParameter, _SymMember):
    """A one-parameter pure family of Sym states."""

    t: float

    interval = (0, 1)
    flags = (Flag("--t", float, f"curve parameter in {_span(interval)}"),)


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
class Product(Family, Value):
    """Product of two single-qutrit density matrices (3x3 arrays)."""

    rho_a: np.ndarray
    rho_b: np.ndarray

    flags = (Flag("--state-a", None, "first factor for --family product (default: maximally mixed)",
                  "JSON", required=False),
             Flag("--state-b", None, "second factor for --family product (default: maximally mixed)",
                  "JSON", required=False))

    def __post_init__(self):
        for name in ("rho_a", "rho_b"):
            rho = own(self, name, complex)
            if rho.shape != (3, 3):
                raise ValueError(f"{name} must be a 3x3 matrix")
            require_physical(rho, name)

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
        S_T = spin_operators(1.0).components.transpose(0, 2, 1)
        ma = np.sum(self.rho_a * S_T, axis=(1, 2)).real
        mb = np.sum(self.rho_b * S_T, axis=(1, 2)).real
        return float(np.linalg.norm(ma) * np.linalg.norm(mb))


def swap_operator(d: int) -> np.ndarray:
    """Permutation operator exchanging the two tensor factors of C^d x C^d."""
    return np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)


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

