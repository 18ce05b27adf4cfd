"""Three-point Lyapunov value and monotone-decrease verification.

For a solved recurrence x_{k+1} = a x_k + b x_{k-1} the value
V_k = x_{k-1}^2 - x_k x_{k-2} contracts exactly: V_{k+1} = -b V_k, for any
real (a, b).  Under the conjugate-pair condition -b = |lambda|^2 in [0, 1),
so V is nonnegative and monotonically decreasing along the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

_C = 32  # the constant of a step's roundoff slack, derived in ``_judge``
_4CU, _TINY = 2 * _C * float(np.finfo(float).eps), float(np.finfo(float).tiny)  # 4 C u, tiny
_LISTED = 10  # the flagged steps a report lists, as ``lyapcert check`` prints them
_PIECE = 1 << 12  # the rows a scan holds and judges at once: 32 KB a column


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """The verdict, the number ``count`` of flagged steps, and the first ten
    of them (fewer if fewer are flagged) as columns, ``index`` ascending:
    V_k (``v_prev``), V_{k+1} (``v_next``) and V_{k+1} minus the allowed
    value (``excess``, nan after a non-finite V_k or slack).  ``left_out``
    counts the steps with a positive V_k that ``max_ratio`` leaves out."""

    monotone: bool
    count: int
    index: np.ndarray
    v_prev: np.ndarray
    v_next: np.ndarray
    excess: np.ndarray
    max_ratio: float
    left_out: int

    def describe(self, caveat: Optional[str] = None) -> str:
        """The verdict line; it ends in ``caveat``, when given: the clause
        ``_bounds_distance`` gives a run whose distance V does not bound."""
        counted = not math.isnan(self.max_ratio)
        rate = f"max ratio {self.max_ratio:.6g}" if counted else "no step counted for a max ratio"
        n = self.left_out
        left = f", {n} step{'s' * (n > 1)} within roundoff left out" if n else ""
        if self.monotone:
            line = f"monotone decrease: yes ({rate}{' over positive values' * counted}{left})"
        elif not self.count:
            line = "monotone decrease: NO (non-finite V or distance)"
        else:
            line = (f"monotone decrease: NO ({self.count} violation"
                    f"{'s' * (self.count > 1)}); first at {self._step(0)}; {rate}{left}")
        return line if caveat is None else f"{line}; {caveat}"

    def _step(self, i: int) -> str:
        """Flagged step ``i``: the one wording of a step, in a verdict or a list."""
        return (f"k={self.index[i]}: V={self.v_prev[i]:.9g} -> {self.v_next[i]:.9g} "
                f"(excess {self.excess[i]:.3g})")


def _bounds_distance(diverged: bool, certificate) -> Optional[str]:
    """None when V bounds a run's distance: the run did not diverge and its
    certificate is eligible.  Otherwise the clause that says why not."""
    if diverged:
        return "the run diverged"
    if certificate is None:
        return "no certificate covers this run"
    if not certificate.per_coordinate.conjugate_pair.all():
        return "V is not positive definite here and bounds no distance"
    if not certificate.eligible:  # every coordinate a pair: the radius is at least one
        return "the spectral radius is not below one"
    return None


class _MonotoneScan:
    """The one monotonicity check: the rows of a run's V fed a block of rows
    at a time and judged as ``_judge`` defines, in memory that does not
    grow with the run.  It carries the last V and the last three distances,
    and keeps the count of flagged steps, the first ``_LISTED``, the max
    ratio and the left-out count.  Any split of the rows into blocks gives
    the same report, to the bit.

    ``feed`` takes the V and distance of each next row, from iterate index 0
    on: the series starts at row ``start``, or, when it is None, at the
    first row whose V is not NaN (``lyapcert check``'s rule for a CSV); rows
    before it give only the distances d_{s-2} and d_{s-1}.  A series holding
    a non-finite V or distance is never monotone.  Rows wait in a buffer of
    ``_PIECE`` rows and are judged a full buffer at a time, so small blocks
    cost a copy each, and the work arrays stay small; ``report`` judges the
    rest, and ``start`` and ``d`` are those of every row fed once it has.
    """

    def __init__(self, start: Optional[int] = None):
        self.row, self.start = 0, start  # row: the first row not judged yet
        self.v = np.empty(0)  # the last V of the series, none before its start
        self.d = np.full(3, math.nan)  # the distances of the last three rows judged
        self.finite = True  # every V and distance of the series so far
        self.count = self.left_out = 0
        self.listed = []  # (index, v_prev, v_next, excess) arrays of the first flagged steps
        self.max_ratio = math.nan
        self.waiting = np.empty((2, _PIECE))  # V and distance of the rows fed, not judged
        self.n = 0  # rows waiting

    def feed(self, values, distance) -> None:
        """Take the next rows: ``values`` and ``distance`` hold one V (NaN
        where undefined) and one distance a row."""
        values, distance = np.asarray(values, dtype=float), np.asarray(distance, dtype=float)
        i = 0
        while i < len(values):
            k = min(len(values) - i, _PIECE - self.n)
            self.waiting[0, self.n:self.n + k] = values[i:i + k]
            self.waiting[1, self.n:self.n + k] = distance[i:i + k]
            self.n, i = self.n + k, i + k
            if self.n == _PIECE:
                self._judge_waiting()

    def _judge_waiting(self) -> None:
        v, d = self.waiting[:, :self.n]
        r, m = self.row, self.n
        self.n = 0
        self.row += m
        if self.start is None and not (blank := np.isnan(v)).all():
            self.start = r + int(blank.argmin())
        t = m if self.start is None else min(max(self.start - r, 0), m)  # rows before it
        dd = np.concatenate((self.d, d))  # from the distance of row r - 3
        self.d = dd[-3:].copy()
        if t == m:
            return
        # the V of rows k0, k0 + 1, ... and the distances from row k0 - 2 on
        k0 = r - 1 if self.v.size else r + t
        vv = np.concatenate((self.v, v[t:]))
        dd = dd[k0 - r + 1:]
        self.v = vv[-1:].copy()
        self.finite = self.finite and bool(np.isfinite(vv).all() and np.isfinite(dd).all())
        j, excess, ratio, left_out = _judge(vv, dd)
        n = min(j.size, _LISTED - sum(c[0].size for c in self.listed))
        if n:
            self.listed.append((k0 + j[:n], vv[j[:n]], vv[j[:n] + 1], excess[:n]))
        self.count += j.size
        self.left_out += left_out
        if not math.isnan(ratio) and not ratio <= self.max_ratio:  # the first maximum wins
            self.max_ratio = ratio

    def report(self) -> MonotonicityReport:
        """The report of the rows fed so far; the series must have a V."""
        if self.n:
            self._judge_waiting()
        cols = [np.concatenate(c) for c in zip(*self.listed)] if self.listed else \
            [np.empty(0, dtype=np.intp)] + [np.empty(0)] * 3
        return MonotonicityReport(self.count == 0 and self.finite, self.count, *cols,
                                  max_ratio=self.max_ratio, left_out=self.left_out)


def _judge(v: np.ndarray, d: np.ndarray):
    """The steps of the series v_0, v_1, ... (V_s, V_{s+1}, ...) with the
    distances d (d_{s-2}, d_{s-1}, ...): the flagged steps' positions and
    excesses, the largest counted ratio (nan if none) and the left-out count.

    Step k is flagged when V_{k+1} > V_k + slack_k, when it goes into or out
    of a NaN or infinite V, and when its slack is not finite.

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

    The max ratio is the largest V_{k+1} / V_k over the steps whose finite
    V_k exceeds slack_k, NaN ratios skipped, the first of equal maxima
    winning; the other steps with V_k > 0 are left out.
    """
    finite = np.isfinite(v)
    prev, nxt = v[:-1], v[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite steps are flagged
        # the slack, then prev + slack, then the ratios, in one array
        allowed = np.maximum(d[:-3], d[1:-2])
        np.maximum(allowed, d[2:-1], out=allowed)
        np.maximum(allowed, d[3:], out=allowed)
        allowed *= allowed
        allowed *= _4CU
        allowed += _TINY
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
    ratio = float(ratios[ratios.argmax()]) if counted.any() else math.nan
    return j, excess, ratio, int(left_out)
