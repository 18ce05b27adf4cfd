"""Three-point Lyapunov value and monotone-decrease verification.

For a solved recurrence x_{k+1} = a x_k + b x_{k-1} the value
V_k = x_{k-1}^2 - x_k x_{k-2} contracts exactly: V_{k+1} = -b V_k, for any
real (a, b).  Under the conjugate-pair condition -b = |lambda|^2 in [0, 1),
so V is nonnegative and monotonically decreasing along the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .methods import TwoStepCoefficients
from .spectral import IneligibleError, is_conjugate_pair

DEFAULT_TOLERANCE = 1e-9


def scalar_V(x_k: float, x_km1: float, x_km2: float) -> float:
    """V = x_{k-1}^2 - x_k x_{k-2} for one coordinate."""
    return x_km1 * x_km1 - x_k * x_km2


def per_coordinate_V(x_k: np.ndarray, x_km1: np.ndarray, x_km2: np.ndarray) -> np.ndarray:
    """Coordinate-wise V for eigenbasis iterates (already centered)."""
    x_k = np.asarray(x_k, dtype=float)
    x_km1 = np.asarray(x_km1, dtype=float)
    x_km2 = np.asarray(x_km2, dtype=float)
    if not (x_k.shape == x_km1.shape == x_km2.shape):
        raise ValueError("iterates must share a dimension")
    return x_km1 * x_km1 - x_k * x_km2


def vector_V(x_k: np.ndarray, x_km1: np.ndarray, x_km2: np.ndarray,
             x_star: np.ndarray) -> float:
    """V = ||x_{k-1} - x*||^2 - <x_k - x*, x_{k-2} - x*>.

    Summed coordinate-wise after centering; in any orthonormal basis this
    equals the sum of per-coordinate scalar values.
    """
    x_star = np.asarray(x_star, dtype=float)
    return float(np.sum(per_coordinate_V(
        np.asarray(x_k, dtype=float) - x_star,
        np.asarray(x_km1, dtype=float) - x_star,
        np.asarray(x_km2, dtype=float) - x_star,
    )))


def contraction_factor(c: TwoStepCoefficients) -> float:
    """Exact one-step factor of V, equal to -b; requires a conjugate pair."""
    if not is_conjugate_pair(c):
        raise IneligibleError("contraction factor is certified only for conjugate pairs")
    return -c.b


@dataclass(frozen=True)
class LyapunovSeries:
    """V values along a trace, starting at iterate index ``start_index``."""

    values: np.ndarray
    start_index: int = 2
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] < 1:
            raise ValueError("series must hold at least one value")
        if self.start_index < 2:
            raise ValueError("V needs three iterates, so start_index >= 2")
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Violation:
    """A step where V_{k+1} exceeded V_k beyond tolerance (index is k)."""

    index: int
    v_prev: float
    v_next: float
    excess: float


@dataclass(frozen=True)
class MonotonicityReport:
    monotone: bool
    violations: tuple
    max_ratio: float

    def describe(self) -> str:
        if self.monotone:
            return (f"monotone decrease: yes (max ratio "
                    f"{self.max_ratio:.6g} over positive values)")
        if not self.violations:
            return "monotone decrease: NO (non-finite V)"
        first = self.violations[0]
        return (
            f"monotone decrease: NO ({len(self.violations)} violations); first at "
            f"k={first.index}: V={first.v_prev:.9g} -> {first.v_next:.9g} "
            f"(excess {first.excess:.3g}); max ratio {self.max_ratio:.6g}"
        )


def check_monotone(series: LyapunovSeries) -> MonotonicityReport:
    """Flag every k with V_{k+1} > V_k + tol * max(1, |V_k|), and every step
    into or out of a NaN or infinite V; a series holding one is never monotone.

    ``max_ratio`` is the largest V_{k+1} / V_k over positive V_k (nan when the
    series has no positive value with a successor).
    """
    v = series.values
    finite = np.isfinite(v)
    tol = series.tolerance
    violations = []
    max_ratio = math.nan
    for j in range(v.shape[0] - 1):
        allowed = v[j] + tol * max(1.0, abs(v[j])) if finite[j] else math.nan
        if v[j + 1] > allowed or not (finite[j] and finite[j + 1]):
            violations.append(Violation(
                index=series.start_index + j,
                v_prev=float(v[j]),
                v_next=float(v[j + 1]),
                excess=float(v[j + 1] - allowed),
            ))
        if finite[j] and v[j] > 0:
            r = v[j + 1] / v[j]
            if math.isnan(max_ratio) or r > max_ratio:
                max_ratio = r
    return MonotonicityReport(
        monotone=not violations and bool(finite.all()),
        violations=tuple(violations),
        max_ratio=max_ratio,
    )
