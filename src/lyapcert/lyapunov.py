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

DEFAULT_TOLERANCE = 1e-9


def _require_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):  # NaN or inf would pass every step
        raise ValueError("tolerance must be finite and nonnegative")


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
        _require_tolerance(self.tolerance)
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

    ``max_ratio`` is the largest V_{k+1} / V_k over positive V_k, NaN ratios
    skipped (nan when no such ratio is left); the first of equal maxima wins.
    """
    v = series.values
    finite = np.isfinite(v)
    prev, nxt = v[:-1], v[1:]
    positive = finite[:-1] & (prev > 0)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite steps are flagged
        allowed = prev + series.tolerance * np.maximum(1.0, np.abs(prev))
        allowed[~finite[:-1]] = math.nan
        excess = nxt - allowed
        flagged = (nxt > allowed) | ~(finite[:-1] & finite[1:])
        ratios = nxt[positive] / prev[positive]
    ratios = ratios[~np.isnan(ratios)]
    violations = tuple(
        Violation(index=series.start_index + j, v_prev=float(prev[j]),
                  v_next=float(nxt[j]), excess=float(excess[j]))
        for j in np.flatnonzero(flagged).tolist())
    return MonotonicityReport(
        monotone=not violations and bool(finite.all()),
        violations=violations,
        max_ratio=float(ratios[ratios.argmax()]) if ratios.size else math.nan,
    )
