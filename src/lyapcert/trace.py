"""Iteration traces: run a method, record metrics, serialize to CSV.

One driver serves both targets; only the row engine differs.  Quadratic
targets advance in the eigenbasis so the recorded Lyapunov values keep full
relative accuracy all the way down to underflow: the engine runs nothing but
the recurrence z_{k+1} = a z_k + b z_{k-1}, a block of rows at a time, and
the driver checks each finished block as arrays (non-finite rows,
divergence, the V floor), cutting the run at the first hit, in the order a
step-by-step loop would meet them.  Objective targets take the literal
method updates through the gradient oracle, one step per block, so no
gradient is evaluated past the stop.  Gap and V come from one vectorized
pass afterwards; the full-space iterates of a quadratic run are built from
the stored eigen-coordinates only when ``Trace.iterates`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .lyapunov import LyapunovSeries, DEFAULT_TOLERANCE
from .methods import NAGGS, IterationState, MethodSpec, coefficient_arrays, step_general
from .problems import Objective, QuadraticProblem

DIVERGENCE_THRESHOLD = 1e12
_CHUNK = 512  # quadratic rows advanced between two checks


@dataclass
class Trace:
    """Recorded rows and per-iterate metrics of one run.

    ``rows`` holds the centred eigen-coordinates of a quadratic run, or the
    iterates themselves for an objective; ``frame`` is the (eigvecs,
    minimizer) pair that maps quadratic rows back to x, and None otherwise.
    ``lyapunov[k]`` is defined from k = 2 on (NaN before that).
    """

    rows: np.ndarray
    objective_gap: np.ndarray
    distance: np.ndarray
    lyapunov: np.ndarray
    method: MethodSpec
    descriptor: dict = field(default_factory=dict)
    seed: Optional[int] = None
    diverged: bool = False
    frame: Optional[tuple] = None

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def iterates(self) -> np.ndarray:
        """Row k is x_k; a quadratic trace rebuilds it on every read."""
        if self.frame is None:
            return self.rows
        eigvecs, minimizer = self.frame
        return self.rows @ eigvecs.T + minimizer

    def lyapunov_series(self, tolerance: float = DEFAULT_TOLERANCE) -> LyapunovSeries:
        vals = self.lyapunov[2:]
        if vals.shape[0] < 1:
            raise ValueError("trace too short for a Lyapunov series")
        return LyapunovSeries(values=vals, start_index=2, tolerance=tolerance)


def run_trace(target: Union[QuadraticProblem, Objective], spec: MethodSpec,
              x0: np.ndarray, iters: int, *, x1: Optional[np.ndarray] = None,
              v_floor: Optional[float] = None, seed: Optional[int] = None,
              divergence_threshold: float = DIVERGENCE_THRESHOLD) -> Trace:
    """Run ``iters`` recorded iterates (x0 included) and collect metrics.

    ``x1`` overrides the default equal start x_{-1} = x0 (under which the
    first step of every method is a plain gradient step).  ``v_floor`` stops
    the run once V drops below it, mirroring the measurement floor used by
    the showcase scenarios.  Divergence (distance beyond the threshold) stops
    the run and flags the trace instead of raising.
    """
    if iters < 3:
        raise ValueError("iters must be >= 3 so V is defined at least once")
    x0 = np.asarray(x0, dtype=float)
    starts = [x0]
    if x1 is not None:
        x1 = np.asarray(x1, dtype=float)
        if x1.shape != x0.shape:
            raise ValueError("x1 must match x0's dimension")
        starts.append(x1)
    quadratic = isinstance(target, QuadraticProblem)
    if target.minimizer is None:
        raise ValueError("objective needs a known minimizer to compute metrics")
    if x0.shape != (target.dim,):
        raise ValueError("x0 has wrong dimension")
    xs = np.asarray(target.minimizer, dtype=float)
    # quadratic rows are centred eigen-coordinates; oracle rows are x itself,
    # one step per block so no gradient is taken past the stopping row
    if quadratic:
        block, advance = _eigenbasis_engine(target, spec, starts)
        chunk = _CHUNK
    else:
        block, advance = _oracle_engine(target, spec, starts)
        chunk = 1

    rows, dists = [], []
    tail = block[:0]  # centred rows n-2 and n-1, for V at the block's first rows
    n = 0  # rows recorded before this block
    # quadratic rows past the stop may overflow; they are cut before any output
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            m = block.shape[0]
            Z = block if quadratic else block - xs
            dist = [math.sqrt(z.dot(z)) for z in Z]  # np.linalg.norm(z), to the bit
            # the run stops on the block's row ``stop`` (m: it goes on) at the
            # first row beyond the threshold (a start: at the last start), the
            # iters-th row, or the first V below the floor
            far = next((j for j, d in enumerate(dist) if d > divergence_threshold), m)
            stop = max(far, len(starts) - 1 - n) if far < m else m
            if n + m == iters:
                stop = min(stop, m - 1)
            if v_floor is not None:
                W = np.concatenate([tail, Z])
                v = _lyapunov_rows(W[:-2], W[1:-1], W[2:])
                stop = min(stop, m - v.shape[0] + _first(v < v_floor))
                tail = W[-2:]
            # a non-finite row up to the stop raises (starts are not checked);
            # only a row with a non-finite norm can hold a non-finite entry
            bad = next((j for j, d in enumerate(dist[:stop + 1]) if not math.isfinite(d)
                        and not np.isfinite(Z[j]).all()), m) if n else m
            if bad < m:
                raise ValueError("non-finite iterate produced")
            if stop < m:
                rows.append(block[:stop + 1])
                dists += dist[:stop + 1]
                diverged = far <= stop
                break
            rows.append(block)
            dists += dist
            n += m
            block = advance(min(chunk, iters - n))

    R = np.concatenate(rows)
    del rows, tail  # free the blocks before the metric temporaries
    Z = R if quadratic else R - xs
    lyap = np.full(R.shape[0], math.nan)
    lyap[2:] = _lyapunov_rows(Z[:-2], Z[1:-1], Z[2:])
    if quadratic:
        gaps = 0.5 * np.sum(target.eigvals * Z * Z, axis=1)
    else:
        values = np.array([float(target.value(x)) for x in R])
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite objective value from the oracle")
        gaps = values - float(target.value(xs))
    return Trace(
        rows=R,
        objective_gap=gaps,
        distance=np.array(dists),
        lyapunov=lyap,
        method=spec,
        descriptor=_descriptor(target, spec),
        seed=seed,
        diverged=diverged,
        frame=(target.eigvecs, xs) if quadratic else None,
    )


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length when none is."""
    return int(mask.argmax()) if mask.any() else mask.shape[0]


def _lyapunov_rows(z_km2: np.ndarray, z_km1: np.ndarray, z_k: np.ndarray):
    """V = sum_i z_{k-1,i}^2 - z_{k,i} z_{k-2,i} over the last axis; row-wise
    on stacked rows, with the same summation (and bytes) as one row at a time."""
    terms = z_km1 * z_km1
    terms -= z_k * z_km2
    return np.sum(terms, axis=-1)


def _eigenbasis_engine(p: QuadraticProblem, spec: MethodSpec, starts):
    """Centred eigen-coordinates of the starts, and ``advance(n)``, the next
    n rows of a x_k + b x_{k-1}."""
    a, b = coefficient_arrays(spec, p.eigvals)
    first = np.stack([p.eigvecs.T @ (x - p.minimizer) for x in starts])
    prev, cur = first[0], first[-1]

    def advance(n: int) -> np.ndarray:
        nonlocal prev, cur
        block = np.empty((n, cur.shape[0]))
        for row in block:
            np.add(a * cur, b * prev, out=row)
            prev, cur = cur, row
        return block

    return first, advance


def _oracle_engine(obj: Objective, spec: MethodSpec, starts):
    """The starts, and ``advance(n)``, the next n literal method steps through
    the gradient oracle."""
    prev, cur = starts[0], starts[-1]
    aux = None
    if spec.kind == NAGGS:
        if len(starts) == 1:
            aux = cur
        elif spec.beta == 1.0:
            raise ValueError("cannot reconstruct NAG-GS auxiliary state for beta = 1")
        else:  # the averaged y behind x1 = beta x0 + (1 - beta) y
            aux = (cur - spec.beta * prev) / (1.0 - spec.beta)
    state = IterationState(current=cur, previous=prev, auxiliary=aux)

    def advance(n: int) -> np.ndarray:
        nonlocal state
        block = np.empty((n, cur.shape[0]))
        for row in block:
            state = step_general(obj, spec, state)
            row[:] = state.current
        return block

    return np.stack(starts), advance


def _descriptor(target, spec: MethodSpec) -> dict:
    d = {"method": spec.kind, "alpha": spec.alpha, "beta": spec.beta,
         "gamma": spec.gamma, "dim": target.dim}
    if target.mu is not None:
        d["mu"] = target.mu
    if getattr(target, "lipschitz", None) is not None:
        d["L"] = target.lipschitz
    d["kind"] = "quadratic" if isinstance(target, QuadraticProblem) else "objective"
    return d


def export_csv(trace: Trace, path) -> None:
    """Write ``iter,objective_gap,distance,lyapunov`` rows, 17 significant
    digits, LF line endings; the lyapunov cell is empty where undefined."""
    lines = ["iter,objective_gap,distance,lyapunov"]
    for k in range(len(trace)):
        v = trace.lyapunov[k]
        cell = "" if math.isnan(v) else f"{v:.17g}"
        lines.append(f"{k},{trace.objective_gap[k]:.17g},{trace.distance[k]:.17g},{cell}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> dict:
    """Parse a trace CSV back into metric arrays (lyapunov NaN where empty)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0].split(",") != ["iter", "objective_gap", "distance", "lyapunov"]:
        raise ValueError("not a trace CSV")
    gaps, dists, lyap = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError("malformed trace row")
        gaps.append(float(parts[1]))
        dists.append(float(parts[2]))
        lyap.append(float(parts[3]) if parts[3] else math.nan)
    return {
        "objective_gap": np.array(gaps),
        "distance": np.array(dists),
        "lyapunov": np.array(lyap),
    }


def series_from_csv(path, tolerance: float = DEFAULT_TOLERANCE) -> LyapunovSeries:
    """Rebuild the Lyapunov series of an exported trace: every value from the
    first defined one on, so a later empty or NaN cell fails the check."""
    data = read_trace_csv(path)
    vals = data["lyapunov"]
    defined = np.where(~np.isnan(vals))[0]
    if defined.shape[0] < 1:
        raise ValueError("trace CSV holds no Lyapunov values")
    start = int(defined[0])
    return LyapunovSeries(values=vals[start:], start_index=start, tolerance=tolerance)
