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

_C = 32  # the constant of a step's roundoff slack, derived in ``check_monotone``


@dataclass(frozen=True)
class LyapunovSeries:
    """V values along a trace from iterate index ``start_index`` (s), and the
    distances d_{s-2} ... d_{s+n-1} of the iterates n values are made of."""

    values: np.ndarray
    distance: np.ndarray
    start_index: int = 2

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        dist = np.asarray(self.distance, dtype=float)
        if vals.ndim != 1:
            raise ValueError("series values must be a vector")
        if not vals.shape[0]:
            raise ValueError("trace too short for a Lyapunov series")
        if self.start_index < 2:
            raise ValueError("V needs three iterates, so start_index >= 2")
        if dist.shape != (vals.shape[0] + 2,):
            raise ValueError("series needs two more distances than values")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "distance", dist)


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """The verdict and every flagged step k as columns, ``index`` ascending:
    V_k (``v_prev``), V_{k+1} (``v_next``) and V_{k+1} minus the allowed
    value (``excess``, nan after a non-finite V_k or slack).  ``left_out``
    counts the steps with a positive V_k that ``max_ratio`` leaves out."""

    monotone: bool
    index: np.ndarray
    v_prev: np.ndarray
    v_next: np.ndarray
    excess: np.ndarray
    max_ratio: float
    left_out: int

    def describe(self, bounds: bool = True) -> str:
        """The verdict line; it ends in a caveat unless ``bounds`` (``_bounds_distance``)."""
        counted = not math.isnan(self.max_ratio)
        rate = f"max ratio {self.max_ratio:.6g}" if counted else "no step counted for a max ratio"
        n = self.left_out
        left = f", {n} step{'s' * (n > 1)} within roundoff left out" if n else ""
        if self.monotone:
            line = f"monotone decrease: yes ({rate}{' over positive values' * counted}{left})"
        elif not self.index.size:
            line = "monotone decrease: NO (non-finite V or distance)"
        else:
            line = (f"monotone decrease: NO ({self.index.size} violation"
                    f"{'s' * (self.index.size > 1)}); first at {self._step(0)}; {rate}{left}")
        return line + "; V is not positive definite here and bounds no distance" * (not bounds)

    def _step(self, i: int) -> str:
        """Flagged step ``i``: the one wording of a step, in a verdict or a list."""
        return (f"k={self.index[i]}: V={self.v_prev[i]:.9g} -> {self.v_next[i]:.9g} "
                f"(excess {self.excess[i]:.3g})")


def _bounds_distance(diverged: bool, certificate) -> bool:
    """V bounds a run's distance iff it did not diverge and its certificate,
    if it has one, is eligible."""
    return not diverged and (certificate is None or certificate.eligible)


def check_monotone(series: LyapunovSeries) -> MonotonicityReport:
    """Flag every k with V_{k+1} > V_k + slack_k, every step into or out of a
    NaN or infinite V, and every step whose slack is not finite; a series
    holding a non-finite V or distance is never monotone.

    slack_k = C u (S_k + S_{k+1}) + tiny, S_k = d_{k-1}^2 + d_k d_{k-2} (d the
    distances, u = eps / 2, tiny the smallest normal double, for rows that
    underflow), bounds what rounding adds to V_{k+1} - V_k.  C = 4 + h, to
    first order and in the worst case, from two sources (z_k the centred
    eigen-coordinates of a quadratic run):

    - Summing V_k = sum_i z_{k-1,i}^2 - z_{k,i} z_{k-2,i} from the stored
      rows: the products and the difference of term i round within 2u s_i,
      s_i = z_{k-1,i}^2 + |z_{k,i} z_{k-2,i}|, and the sum rounds a term at
      most h times more, so V_k is off by at most (2 + h) u S_k
      (Cauchy-Schwarz) and a step's two values by (2 + h) u (S_k + S_{k+1}).
      numpy sums a row in blocks of at most 128 terms, eight running sums
      to a block, and adds the blocks pairwise: h <= 28 up to d = 2048.
    - The recurrence: z_{k+1} = a z_k + b z_{k-1} + delta, with |delta_i| <=
      u (|a z_{k,i}| + |b z_{k-1,i}| + |z_{k+1,i}|), gives V_{k+1} =
      -b V_k - delta . z_{k-1}.  On an eligible coordinate (|a| <= 2,
      0 <= -b < 1, V_k >= 0) -b V_k <= V_k, and |delta . z_{k-1}| <=
      u (d_k^2 + 2 d_{k-1}^2 + d_{k+1} d_{k-1}) <= 2u (S_k + S_{k+1}).

    The check bounds S_k + S_{k+1} by 4 max(d_{k-2}, ..., d_{k+1})^2, which
    needs no second work array.  An objective run's oracle step rounds with
    |x_k|, not |x_k - x*|, which the slack does not cover: V near that floor
    can be flagged for rounding alone.

    ``max_ratio`` is the largest V_{k+1} / V_k over the steps whose finite V_k
    exceeds slack_k, NaN ratios skipped (nan if none is left), the first of
    equal maxima winning; the other steps with V_k > 0 are ``left_out``.
    """
    v, d = series.values, series.distance
    finite = np.isfinite(v)
    prev, nxt = v[:-1], v[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite steps are flagged
        # the slack, then prev + slack, then the ratios, in one array
        allowed = np.maximum(d[:-3], d[1:-2])
        np.maximum(allowed, d[2:-1], out=allowed)
        np.maximum(allowed, d[3:], out=allowed)
        allowed *= allowed
        allowed *= 2 * _C * np.finfo(float).eps  # 4 C u
        allowed += np.finfo(float).tiny
        judged = finite[:-1] & np.isfinite(allowed)
        counted = judged & (prev > allowed) & ~np.isnan(nxt)
        left_out = np.count_nonzero(judged & (prev > 0) & (prev <= allowed))
        allowed += prev
        allowed[~judged] = math.nan
        j = np.flatnonzero((nxt > allowed) | ~(judged & finite[1:]))
        excess = nxt[j] - allowed[j]
        # -inf where no ratio is counted: an all -inf maximum reads the same
        ratios = allowed
        ratios.fill(-math.inf)
        np.divide(nxt, prev, out=ratios, where=counted)
    return MonotonicityReport(
        monotone=not j.size and bool(finite.all() and np.isfinite(d).all()),
        index=series.start_index + j,
        v_prev=prev[j],
        v_next=nxt[j],
        excess=excess,
        max_ratio=float(ratios[ratios.argmax()]) if counted.any() else math.nan,
        left_out=int(left_out),
    )
