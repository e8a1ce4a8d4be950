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

A one-parameter family states its parameter's closed interval once, as the
class attribute ``interval`` that its range check, flag help and sweep read.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .spin import Value, own, spin_operators
from .ziggurat import FI_DOUBLE, KI_DOUBLE, WI_DOUBLE

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
    residuals are within HERMITICITY_TOL, TRACE_TOL and PSD_TOL.  A matrix
    whose Hermitian part is not finite, through a non-finite entry or two
    entries whose sum overflows, has no residuals: all three are NaN (inf -
    inf has no value, and eigvalsh does not converge on one) and it is not
    valid.  Other huge entries may overflow a residual to inf, not a warning.
    """
    m = np.asarray(matrix)
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
        dims = _check_dims(self.dims)
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
        dims = _check_dims(self.dims)
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


def _check_dims(dims) -> tuple:
    if not (isinstance(dims, (list, tuple)) and len(dims) == 2
            and all(isinstance(d, numbers.Integral) and d >= 2 for d in dims)):
        raise ValueError(f"dims must be two factors >= 2, got {dims}")
    return tuple(int(d) for d in dims)


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


# ---------------------------------------------------------------------------
# Random pure states
# ---------------------------------------------------------------------------
#
# Reproducibility contract: sample number i of a run seeded with `seed` is a
# pure function of the pair (seed, i).  The pair keys a Philox-4x64 counter
# based generator, and each sample is drawn from the stream numpy's
# Philox(key=(seed, i)) gives, so samples are independent of batching,
# ordering and worker count.  Both samplers compute the raw words of every
# key of a batch as array operations (``_philox_raw``), a tile of keys at a
# time, word-major: one contiguous row per word, holding that word of every
# key.  Each word depends only on its key and counter, so neither the batch
# nor the tile changes a bit.  The uniform sampler scales them.  The
# Gaussian sampler runs numpy's ziggurat on them (``_ziggurat``): its fast
# path on every word (``_ziggurat_fast_path``), then, for the samples with a
# word that path rejects (about one in four), numpy's own draw loop from
# that word on, one word of every such sample a step, with further blocks of
# their words from the same ``_philox_raw`` (``_ziggurat_slow_path``).  No
# numpy generator is built.  Seeds and indices outside [0, 2**64) are
# rejected rather than wrapped, so no two seeds name the same stream.
#
# The draws stay in word-major rows: ``_normalize`` divides them by each
# sample's norm in place, with the bits of numpy's complex division, and a
# batch leaves the sampler as float planes (re, im) of shape (2, n, count),
# the form the scan kernel reads.  Complex rows (``amplitude_rows``) are
# built only for the samples a caller keeps.

# Philox-4x64-10 constants (Salmon et al., SC'11), stacked (2, 1, 1) along
# the two multiplied lanes x0 and x2 of a round, with the multipliers'
# 32-bit halves.  Every constant and shift is a numpy uint64, so numpy 1.x
# value-based casting and numpy 2 (NEP 50) both keep the arithmetic in
# exact, wrapping 64-bit words.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _SHIFT32
# Keys per tile of _philox_raw's rounds.  At 18 words a key its six buffers
# then take under 1 MB, which a 2 MiB L2 cache holds; of tiles of 512 to
# 8192 keys, 2048 measured fastest on such a Xeon (BENCH_chunk.json), as a
# smaller tile pays more in ufunc calls than the cache saves
_PHILOX_TILE = 2048
_SHIFT_DOUBLE = np.uint64(11)  # random() keeps the top 53 bits of a word

# numpy's standard-normal ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8),
# 2000): per layer, the bound a word's 52-bit magnitude must stay below to be
# taken on the fast path, and the scale that turns it into a draw
_ZIGGURAT_KI = np.array(KI_DOUBLE, dtype=np.uint64)
_ZIGGURAT_WI = np.array(WI_DOUBLE, dtype=np.float64)
# the wedge test's density at each layer's edge, and numpy's tail constants
# ziggurat_nor_r (the base layer's outer edge) and ziggurat_nor_inv_r
_ZIGGURAT_FI = np.array(FI_DOUBLE, dtype=np.float64)
_ZIGGURAT_R = 3.6541528853610087963519472518
_ZIGGURAT_INV_R = 0.27366123732975827203338247596
_LOW_BYTE = np.uint64(0xFF)
_SHIFT_BYTE = np.uint64(8)
_SHIFT_RABS = np.uint64(9)
_SIGN_WORD = np.uint64(0x100)      # a raw word's sign bit
_SHIFT_SIGN = np.uint64(63)        # a float64's sign bit
_SIGN_TO_FLOAT = _SHIFT_SIGN - _SHIFT_BYTE
_ONE = np.uint64(1)
_MANTISSA = np.uint64(2 ** 52 - 1)


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


def _mulhilo(lanes: slice, x, hi, lo, t, u) -> None:
    """Write into ``hi`` and ``lo`` the high and low words of the 128-bit
    products m * x, m the multipliers ``_PHILOX_M[lanes]`` broadcast along
    x's first axis; ``t`` and ``u`` are scratch, all of x's shape.  The high
    word is summed from 32-bit partial products as in Hacker's Delight's
    ``mulhu``, where no partial sum overflows; the low word is the wrapped
    product."""
    m_lo, m_hi = _PHILOX_M_LO[lanes], _PHILOX_M_HI[lanes]
    np.bitwise_and(x, _LO32, out=u)         # x.lo
    np.multiply(u, m_lo, out=t)
    np.right_shift(t, _SHIFT32, out=t)      # (x.lo m.lo) >> 32
    np.right_shift(x, _SHIFT32, out=hi)     # x.hi
    np.multiply(hi, m_lo, out=lo)
    np.add(lo, t, out=t)                    # x.hi m.lo + carry, below 2**64
    np.multiply(u, m_hi, out=u)
    np.bitwise_and(t, _LO32, out=lo)
    np.add(u, lo, out=u)                    # x.lo m.hi + low half, below 2**64
    np.right_shift(t, _SHIFT32, out=t)
    np.multiply(hi, m_hi, out=hi)
    np.add(hi, t, out=hi)
    np.right_shift(u, _SHIFT32, out=u)
    np.add(hi, u, out=hi)
    np.multiply(x, _PHILOX_M[lanes], out=lo)


def _philox_raw(seed: int, keys: np.ndarray, k: int, block: int = 0) -> np.ndarray:
    """(k, count) uint64 array whose column i is words 4 block .. 4 block +
    k - 1 of ``np.random.Philox(key=(seed, keys[i])).random_raw()``, keys a
    (count,) uint64 array: row j holds that word of every key, contiguously.

    numpy increments the counter before each block of four words, so block
    b of a key is Philox-4x64-10 of counter (b + 1, 0, 0, 0).  The rounds
    run over tiles of at most ``_PHILOX_TILE`` keys, with the key axis last,
    each lane pair one (2, blocks, tile) array: (x0, x2), the words a round
    multiplies, which its one ``_mulhilo`` takes at once, and (x1, x3).
    Every operation writes into a few buffers allocated once, sized to
    min(tile, count), and each tile's last round writes its words straight
    into the result.  Round 0 and the x0 half of round 1 do not depend on
    the key (the zero counter words have not been mixed in yet), so they
    are computed once, per block.
    """
    blocks = -(-k // 4)
    count = len(keys)
    out = np.empty((blocks, 4, count), dtype=np.uint64)
    tile = max(1, min(_PHILOX_TILE, count))
    k0 = np.uint64(seed)
    # round 0 on counter (b + 1, 0, 0, 0) leaves x0 = k0, x1 = 0, x2 = hi ^ k1
    # and x3 = lo, hi and lo from x0's product; round 1 then multiplies k0
    first = np.empty((4, 1, blocks, 1), dtype=np.uint64)    # hi, lo and scratch
    counters = np.arange(block + 1, block + blocks + 1, dtype=np.uint64)
    _mulhilo(slice(0, 1), counters.reshape(1, blocks, 1), *first)
    ctr_hi, ctr_lo = first[:2, 0]            # (blocks, 1)
    second = np.empty((4, 1, 1, 1), dtype=np.uint64)
    _mulhilo(slice(0, 1), np.full((1, 1, 1), k0), *second)
    key_hi, key_lo = second[:2, 0]           # (1, 1)
    mixed = ctr_lo ^ key_hi                  # x2 after round 1, before the key
    key_words = np.empty((2, 1, tile), dtype=np.uint64)
    buffers = np.empty((6, 2, blocks, tile), dtype=np.uint64)
    for t0 in range(0, count, tile):
        n = min(tile, count - t0)
        x, y, hi, lo, t, u = buffers[..., :n]   # (x0, x2) and (x1, x3)
        key = key_words[..., :n]
        key[0] = k0
        key[1, 0] = keys[t0:t0 + n]
        np.bitwise_xor(ctr_hi, key[1], out=x[1])          # x2 after round 0
        np.add(key, _PHILOX_BUMP, out=key)
        _mulhilo(slice(1, 2), x[1:], hi[1:], lo[1:], t[1:], u[1:])
        np.bitwise_xor(hi[1], key[0], out=x[0])
        np.bitwise_xor(mixed, key[1], out=x[1])
        lo[0] = key_lo
        y, lo = lo[::-1], y                                 # (x1, x3) after round 1
        words = out[..., t0:t0 + n].transpose(1, 0, 2)      # x0 .. x3, each (blocks, n)
        for r in range(2, _PHILOX_ROUNDS):
            np.add(key, _PHILOX_BUMP, out=key)
            _mulhilo(slice(None), x, hi, lo, t, u)
            # x0 = hi(x2) ^ x1 ^ k0, x2 = hi(x0) ^ x3 ^ k1; x1 = lo(x2), x3 = lo(x0)
            np.bitwise_xor(hi[::-1], y, out=x)
            np.bitwise_xor(x, key, out=x if r < _PHILOX_ROUNDS - 1 else words[0::2])
            y, lo = lo[::-1], y
        words[1::2] = y
    return out.reshape(4 * blocks, count)[:k]


def _ziggurat(seed: int, keys: np.ndarray, k: int) -> tuple:
    """(x, read): column i of the (k, count) float array x is the first k
    ``standard_normal`` draws of key (seed, keys[i]) bit for bit, and
    read[i] the number of raw words numpy reads for them."""
    # whole blocks: the words past k start the slow path's supply
    x, slow, words = _ziggurat_fast_path(_philox_raw(seed, keys, 4 * -(-k // 4)), k)
    read = np.full(len(keys), k)
    if slow.size:
        x[:, slow], read[slow] = _ziggurat_slow_path(seed, keys[slow], words, x[:, slow], k)
    return x, read


def _ziggurat_fast_path(words: np.ndarray, k: int) -> tuple:
    """(x, slow, raw) for the (W, count) raw words of count keys, W >= k.

    numpy's ziggurat turns raw word r into a draw on its fast path: layer
    ``idx = r & 0xff``, sign bit ``(r >> 8) & 1`` and magnitude ``rabs =
    (r >> 9) & (2**52 - 1)``; it takes ``±rabs * wi[idx]`` iff ``rabs <
    ki[idx]`` and otherwise reads further words.  So column i of the (k,
    count) float array x is that key's first k draws bit for bit unless i
    is in ``slow``, the columns with a word among the first k that the fast
    path rejects; ``raw`` is those keys' W raw words, (len(slow), W).  x
    takes the place of the first k words, and one scratch array holds the
    magnitudes, so the peak stays near two (k, count) arrays.
    """
    r = words[:k]
    scratch = np.empty_like(r)
    idx = np.bitwise_and(r, _LOW_BYTE, out=scratch).astype(np.uint8)
    negative = np.bitwise_and(r, _SIGN_WORD, out=scratch).astype(bool)
    rabs = np.right_shift(r, _SHIFT_RABS, out=scratch)
    rabs &= _MANTISSA
    # the rejected words a row at a time, whose table lookup then stays
    # small: the raw words must last until the slow columns are known
    rejected = np.zeros(r.shape[1], dtype=bool)
    ki = np.empty(r.shape[1], dtype=np.uint64)
    for rabs_row, idx_row in zip(rabs, idx):
        # mode="clip" (a no-op on a uint8 index into 256 entries) writes
        # out= directly, where the default mode would go through a buffer
        np.take(_ZIGGURAT_KI, idx_row, out=ki, mode="clip")
        rejected |= rabs_row >= ki
    slow = np.flatnonzero(rejected)
    raw = words.T[slow]
    x = np.take(_ZIGGURAT_WI, idx, out=r.view(np.float64), mode="clip")
    x *= rabs
    # every x is +0 or positive, so setting its sign bit negates it, -0.0
    # included; np.negative(..., where=) took ten times as long
    np.copyto(rabs, negative)
    rabs <<= _SHIFT_SIGN
    np.bitwise_or(x.view(np.uint64), rabs, out=x.view(np.uint64))
    return x, slow, raw


def _ziggurat_slow_path(seed: int, keys: np.ndarray, words: np.ndarray, x: np.ndarray, k: int) -> tuple:
    """(x, read) as ``_ziggurat`` returns them, for keys the fast path
    cannot finish: ``words`` holds each key's (count, W) raw words, W >= k
    in whole blocks, and ``x`` its (k, count) fast-path draws, right up to
    its first rejected word.

    From that word on, numpy's ``random_standard_normal`` loop runs on
    every unfinished key at once, a step a draw attempt: each step reads
    the word at every such key's cursor.  A word the fast path takes is a
    draw.  At a rejected word of layer ``idx >= 1`` numpy reads the next
    word as a uniform u and keeps x iff ``(fi[idx - 1] - fi[idx]) u +
    fi[idx] < exp(-x**2 / 2)``; at one of layer 0 it reads pairs of
    uniforms until ``yy + yy > xx**2``, with ``xx = -log1p(-u1) / r`` and
    ``yy = -log1p(-u2)``, and draws ``±(r + xx)``, its sign bit ``(rabs >>
    8) & 1``.  A failed wedge test leaves the draw to the next step, at
    the word after u.  The exp and log1p of those few values go through
    ``math``, which calls the platform's libm as numpy's C code does
    (``np.exp`` may run a SIMD loop with other bits).  When a key needs a
    word past those here, every unfinished key gets its next block from
    one ``_philox_raw`` call.  A key's cursor, once its k-th draw lands,
    is the number of words it read.
    """
    count = len(keys)
    r = words[:, :k]
    # each key's next draw, and the word it reads next: its first rejected word
    j = np.argmax(((r >> _SHIFT_RABS) & _MANTISSA) >= _ZIGGURAT_KI[(r & _LOW_BYTE).astype(np.intp)], axis=1)
    cursor = j.copy()
    todo = np.arange(count)

    def reach(n):  # words holds at least n words of every unfinished key
        nonlocal words
        while words.shape[1] < n:
            more = np.zeros((count, 4), dtype=np.uint64)
            more[todo] = _philox_raw(seed, keys[todo], 4, words.shape[1] // 4).T
            words = np.hstack([words, more])

    while todo.size:
        c = cursor[todo]
        reach(c.max() + 1)
        r = words[todo, c]
        cursor[todo] = c + 1
        rabs, idx = (r >> _SHIFT_RABS) & _MANTISSA, (r & _LOW_BYTE).astype(np.intp)
        value = rabs * _ZIGGURAT_WI[idx]
        np.bitwise_or(value.view(np.uint64), (r & _SIGN_WORD) << _SIGN_TO_FLOAT, out=value.view(np.uint64))
        drew = rabs < _ZIGGURAT_KI[idx]
        rejected = np.flatnonzero(~drew)
        layer = idx[rejected]
        wedge, i = rejected[layer > 0], layer[layer > 0]
        if wedge.size:
            reach(c[wedge].max() + 2)
            v = value[wedge]
            u = (words[todo[wedge], c[wedge] + 1] >> _SHIFT_DOUBLE) * 2.0 ** -53
            height = (_ZIGGURAT_FI[i - 1] - _ZIGGURAT_FI[i]) * u + _ZIGGURAT_FI[i]
            drew[wedge] = height < np.array(list(map(math.exp, (-0.5 * v * v).tolist())))
            cursor[todo[wedge]] += 1
        for e in rejected[layer == 0].tolist():
            t = c[e] + 1
            while True:
                reach(t + 2)
                u1, u2 = ((words[todo[e], t:t + 2] >> _SHIFT_DOUBLE) * 2.0 ** -53).tolist()
                xx = -_ZIGGURAT_INV_R * math.log1p(-u1)
                yy = -math.log1p(-u2)
                t += 2
                if yy + yy > xx * xx:
                    break
            value[e] = -(_ZIGGURAT_R + xx) if rabs[e] >> _SHIFT_BYTE & _ONE else _ZIGGURAT_R + xx
            drew[e], cursor[todo[e]] = True, t
        done = todo[drew]
        x[j[done], done] = value[drew]
        j[done] += 1
        todo = todo[j[todo] < k]
    return x, cursor


def amplitude_rows(planes) -> np.ndarray:
    """The (b, n) complex amplitude rows of (2, n, b) planes (re, im): each
    part is copied, not computed, so every bit, the sign of a zero
    included, is the plane's."""
    re, im = planes
    rows = np.empty(re.shape[::-1], dtype=complex)
    rows.real = re.T
    rows.imag = im.T
    return rows


def sample_pure_state(dims=(3, 3), sampler: str = "uniform",
                      seed: int = 0, index: int = 0) -> PureState:
    """Draw one random normalized pure state, determined by (seed, index):
    sample 0 of ``sample_amplitude_batch`` started at ``index``."""
    planes = sample_amplitude_batch(dims, sampler, seed, index, 1)
    return PureState(amplitude_rows(planes)[0], tuple(dims))


def sample_amplitude_batch(dims, sampler: str, seed: int, start: int, count: int) -> np.ndarray:
    """Normalized amplitudes of samples start .. start+count-1, as
    (2, n, count) float planes re and im, n = d_A d_B: row ``[p, x]``
    holds part p of amplitude x of every sample and is C-contiguous (the
    planes are a view of the sampler's (n, 2, count) draws, so the array as
    a whole is not).

    Column i is sample start + i bit for bit in any batch; this is the one
    path from (seed, index) to a sample.  ``amplitude_rows`` turns the
    planes into complex (count, n) rows.
    """
    dims = _check_dims(dims)
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; choose from {SAMPLERS}")
    # plain ints before any arithmetic: numpy integers would wrap past 2**64
    seed, start, count = check_key("seed", seed), check_key("index", start), operator.index(count)
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    if count > 0:
        check_key("index", start + count - 1)
    n = dims[0] * dims[1]
    # the keys' second words, built in place: a second 64 kB array here made
    # uniform batches ~5% slower across processes (heap placement), not
    # within one
    keys = np.arange(count, dtype=np.uint64)
    keys += np.uint64(start)
    # uniform: real and imaginary parts uniform on [0, 1); all amplitudes lie
    # in the closed first quadrant before (and after) normalization.  haar:
    # independent standard complex Gaussians; invariant under rotations,
    # hence uniform on the unit sphere after normalization.  Draw 2 x + p
    # of a sample is part p of its amplitude x
    if sampler == "uniform":
        # Generator.random(): the top 53 bits of each raw word, times 2**-53
        draws = (_philox_raw(seed, keys, 2 * n) >> _SHIFT_DOUBLE) * 2.0 ** -53
    else:
        # Generator.standard_normal(): numpy's ziggurat, fast path and all
        draws = _ziggurat(seed, keys, 2 * n)[0]
    return _normalize(draws.reshape(n, 2, count))


def _normalize(pairs: np.ndarray) -> np.ndarray:
    """Divide the (n, 2, b) [re, im] draws in place by each sample's norm,
    with the bits of the complex route they replace, ``a = re + 1j * im``
    and then ``a /= sqrt(sum(a.real**2 + a.imag**2))`` over each sample's
    n amplitudes; returns them as a (2, n, b) view, the planes re and im.

    ``1j * im`` is (0 im - 0) + (0 + im) j, so a's parts are re + 0 im and
    im + 0 (the zeros change only the sign of a zero).  The squares are
    written as a (b, n) array, so numpy's reduction adds them in the order
    it did over the complex route's (b, n) rows.  numpy divides a complex a
    by a real d, as d + 0j, by Smith's method (CACM Algorithm 116): scl =
    1 / (d + 0 * 0), then (a.re + a.im 0) scl and (a.im - a.re 0) scl.  At
    d = 0 it divides each part by d instead, which scl = inf matches.
    """
    re, im = pairs[:, 0], pairs[:, 1]
    squares, scratch = np.empty((2,) + re.shape)
    np.multiply(im, 0.0, out=scratch)
    np.add(re, scratch, out=re)             # re + 0 im
    np.add(im, 0.0, out=im)                 # im + 0
    np.multiply(re, re, out=squares)
    np.multiply(im, im, out=scratch)
    rows = np.empty(re.shape[::-1])
    np.add(squares, scratch, out=rows.T)
    scl = np.sqrt(np.sum(rows, axis=1))
    np.divide(1.0, scl, out=scl)
    np.multiply(re, 0.0, out=scratch)       # a.re 0, before a.re is scaled
    np.multiply(im, 0.0, out=squares)
    np.add(re, squares, out=re)
    np.subtract(im, scratch, out=im)
    planes = pairs.transpose(1, 0, 2)
    planes *= scl
    return planes
