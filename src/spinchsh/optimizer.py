"""Direct maximization of the CHSH expectation over measurement directions.

The expectation is bilinear in the four unit vectors, so for fixed Bob
directions the optimal Alice directions are closed form (normalize Z b), and
vice versa.  Alternating these exact half-steps gives a monotonically
increasing objective; random restarts guard against saddle starts.  The
converged value certifies the closed form 2 sqrt(z^2 + zt^2) numerically.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .correlations import CorrelationMatrix, MeasurementSetting
from .sampler import check_key, keyed_generator


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 500
    convergence_tol: float = 1e-12
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        # stored as plain ints; a float fails here rather than inside optimize_settings
        for name in ("max_iterations", "restarts"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        object.__setattr__(self, "seed", check_key("seed", self.seed))


@dataclass(frozen=True)
class OptimizationResult:
    """Best setting found, its objective value, and convergence info.

    ``history`` holds the objective after each sweep of the winning restart;
    it is non-decreasing up to round-off.
    """

    setting: MeasurementSetting
    value: float
    iterations: int
    converged: bool
    history: tuple = ()


def _matrix_of(Z) -> np.ndarray:
    if isinstance(Z, CorrelationMatrix):
        return Z.matrix
    m = np.asarray(Z, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 correlation matrix, got shape {m.shape}")
    return m


def bilinear_reduce(Z, setting: MeasurementSetting) -> float:
    """CHSH expectation as a bilinear form in the measurement directions:
    a1 . Z (b1 + b2) + a2 . Z (b1 - b2)."""
    m, s = _matrix_of(Z), setting
    return float(s.a1 @ (m @ (s.b1 + s.b2)) + s.a2 @ (m @ (s.b1 - s.b2)))


def _random_units(rng) -> list:
    # four unit vectors from the stream's triples of norm above 1e-12; one
    # (4, 3) draw reads it as four standard_normal(3) calls do
    units, triples = [], list(rng.standard_normal((4, 3)))
    while len(units) < 4:
        v = triples.pop(0) if triples else rng.standard_normal(3)
        n = math.sqrt(v.dot(v))
        if n > 1e-12:
            units.append(v / n)
    return units


def _normalize_or_keep(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    # a zero gradient direction leaves the objective flat; any unit vector
    # is optimal, so keep the previous one for stability.  sqrt(v . v) is
    # what np.linalg.norm computes for a real vector; a NaN norm divides
    n = math.sqrt(v.dot(v))
    return fallback if n <= 1e-300 else v / n


def optimize_settings(Z, cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationResult:
    """Alternating maximization of the CHSH bilinear form over four unit vectors.

    Deterministic given ``cfg.seed``: restart r draws its starting directions
    from the (seed, r) substream.  Returns the best restart; ``converged`` is
    False only if every restart exhausted ``max_iterations``.

    A sweep's objective a1 . x + a2 . y reads x, y = Z (b1 + b2), Z (b1 - b2),
    the vectors the next sweep's Alice step normalizes, so a sweep forms four
    matrix-vector products and reuses two.
    """
    m = _matrix_of(Z)
    if not np.all(np.isfinite(m)):
        raise ValueError("correlation matrix must be finite")
    # v . v overflows above ~1e154 and loses bits below ~1e-154.  Out there
    # the sweep runs on m times an exact power of two, which no unit vector
    # sees, and the objectives are scaled back
    peak = float(np.abs(m).max())
    shift = math.frexp(peak)[1] if peak > 2.0 ** 500 or 0 < peak < 2.0 ** -500 else 0
    if shift:
        m = np.ldexp(m, -shift)
    mt = m.T
    best = None   # (history, iterations, vectors) of the first best restart
    any_converged = False
    for restart in range(cfg.restarts):
        a1, a2, b1, b2 = _random_units(keyed_generator(cfg.seed, restart))
        x, y = m.dot(b1 + b2), m.dot(b1 - b2)
        history, prev = [], -math.inf
        for iterations in range(1, cfg.max_iterations + 1):
            a1 = _normalize_or_keep(x, a1)
            a2 = _normalize_or_keep(y, a2)
            b1 = _normalize_or_keep(mt.dot(a1 + a2), b1)
            b2 = _normalize_or_keep(mt.dot(a1 - a2), b2)
            x, y = m.dot(b1 + b2), m.dot(b1 - b2)
            obj = float(a1.dot(x) + a2.dot(y))
            history.append(obj)
            if obj - prev < cfg.convergence_tol:
                any_converged = True
                break
            prev = obj
        if best is None or history[-1] > best[0][-1]:
            best = history, iterations, (a1, a2, b1, b2)
    history, iterations, vectors = best
    try:
        history = [math.ldexp(h, shift) for h in history]
    except OverflowError:
        raise ValueError(f"the CHSH maximum of a matrix with entries up to {peak} "
                         "exceeds the float range") from None
    return OptimizationResult(
        setting=MeasurementSetting(*vectors),
        value=history[-1],
        iterations=iterations,
        converged=any_converged,
        history=tuple(history),
    )


def settings_from_svd(Z) -> MeasurementSetting:
    """Maximizing directions built from the top two singular triples of Z.

    Alice directions mix the two leading left-singular vectors with angle
    atan2(zt, z); Bob measures along the corresponding right-singular
    vectors.  The resulting bilinear value is exactly 2 sqrt(z^2 + zt^2),
    including the degenerate case zt = 0.
    """
    m = _matrix_of(Z)
    u, sv, vt = np.linalg.svd(m)
    z, zt = sv[0], sv[1]
    if z * z + zt * zt <= 0.0:
        raise ValueError("zero correlation matrix has no preferred directions")
    theta = math.atan2(zt, z)
    a1 = math.cos(theta) * u[:, 0] + math.sin(theta) * u[:, 1]
    a2 = math.cos(theta) * u[:, 0] - math.sin(theta) * u[:, 1]
    return MeasurementSetting(a1=a1, a2=a2, b1=vt[0], b2=vt[1])
