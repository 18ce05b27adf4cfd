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


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """The verdict and every flagged step k as columns, ``index`` ascending:
    V_k (``v_prev``), V_{k+1} (``v_next``) and V_{k+1} minus the allowed
    value (``excess``, nan after a non-finite V_k)."""

    monotone: bool
    index: np.ndarray
    v_prev: np.ndarray
    v_next: np.ndarray
    excess: np.ndarray
    max_ratio: float

    def describe(self) -> str:
        if self.monotone:
            return (f"monotone decrease: yes (max ratio "
                    f"{self.max_ratio:.6g} over positive values)")
        if not self.index.size:
            return "monotone decrease: NO (non-finite V)"
        return (
            f"monotone decrease: NO ({self.index.size} violations); first at "
            f"k={self.index[0]}: V={self.v_prev[0]:.9g} -> {self.v_next[0]:.9g} "
            f"(excess {self.excess[0]:.3g}); max ratio {self.max_ratio:.6g}"
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
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite steps are flagged
        # prev + tol * max(1, |prev|), built in one array
        allowed = np.abs(prev)
        np.maximum(allowed, 1.0, out=allowed)
        allowed *= series.tolerance
        allowed += prev
        allowed[~finite[:-1]] = math.nan
        j = np.flatnonzero((nxt > allowed) | ~(finite[:-1] & finite[1:]))
        excess = nxt[j] - allowed[j]
        # the same array then holds the ratios over positive V_k, -inf
        # elsewhere and where V_{k+1} is NaN: an all -inf maximum reads the same
        counted = finite[:-1] & (prev > 0) & ~np.isnan(nxt)
        ratios = allowed
        ratios.fill(-math.inf)
        np.divide(nxt, prev, out=ratios, where=counted)
    return MonotonicityReport(
        monotone=not j.size and bool(finite.all()),
        index=series.start_index + j,
        v_prev=prev[j],
        v_next=nxt[j],
        excess=excess,
        max_ratio=float(ratios[ratios.argmax()]) if counted.any() else math.nan,
    )
