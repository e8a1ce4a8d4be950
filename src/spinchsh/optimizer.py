"""Direct maximization of the CHSH expectation over measurement directions.

The expectation is bilinear in the four unit vectors, so for fixed Bob
directions the optimal Alice directions are closed form (normalize Z b), and
vice versa.  Alternating these exact half-steps gives a monotonically
increasing objective; random restarts guard against saddle starts.  The
converged value certifies the closed form 2 sqrt(z^2 + zt^2) numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .correlations import CorrelationMatrix, MeasurementSetting
from .states import check_key, keyed_generator


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 500
    convergence_tol: float = 1e-12
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        check_key("seed", self.seed)


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
    return _bilinear(_matrix_of(Z), setting.a1, setting.a2, setting.b1, setting.b2)


def _bilinear(m, a1, a2, b1, b2) -> float:
    return float(a1 @ (m @ (b1 + b2)) + a2 @ (m @ (b1 - b2)))


def _random_unit(rng) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


def _normalize_or_keep(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    # a zero gradient direction leaves the objective flat; any unit vector
    # is optimal, so keep the previous one for stability
    n = np.linalg.norm(v)
    if n <= 1e-300:
        return fallback
    return v / n


def optimize_settings(Z, cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationResult:
    """Alternating maximization of the CHSH bilinear form over four unit vectors.

    Deterministic given ``cfg.seed``: restart r draws its starting directions
    from the (seed, r) substream.  Returns the best restart; ``converged`` is
    False only if every restart exhausted ``max_iterations``.
    """
    m = _matrix_of(Z)
    if not np.all(np.isfinite(m)):
        raise ValueError("correlation matrix must be finite")
    mt = m.T
    best = None
    any_converged = False
    for restart in range(cfg.restarts):
        rng = keyed_generator(cfg.seed, restart)
        a1, a2 = _random_unit(rng), _random_unit(rng)
        b1, b2 = _random_unit(rng), _random_unit(rng)
        history = []
        prev = -math.inf
        converged = False
        iterations = 0
        for iterations in range(1, cfg.max_iterations + 1):
            a1 = _normalize_or_keep(m @ (b1 + b2), a1)
            a2 = _normalize_or_keep(m @ (b1 - b2), a2)
            b1 = _normalize_or_keep(mt @ (a1 + a2), b1)
            b2 = _normalize_or_keep(mt @ (a1 - a2), b2)
            obj = _bilinear(m, a1, a2, b1, b2)
            history.append(obj)
            if obj - prev < cfg.convergence_tol:
                converged = True
                break
            prev = obj
        any_converged = any_converged or converged
        candidate = OptimizationResult(
            setting=MeasurementSetting(a1, a2, b1, b2),
            value=history[-1],
            iterations=iterations,
            converged=converged,
            history=tuple(history),
        )
        if best is None or candidate.value > best.value:
            best = candidate
    return replace(best, converged=any_converged)


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
