"""Iteration traces: run a method, record metrics, serialize to CSV.

One step loop serves both targets; only the row engine differs.  Quadratic
targets advance in the eigenbasis so the recorded Lyapunov values keep full
relative accuracy all the way down to underflow; full-space iterates are
reconstructed for output.  Objective targets use the literal method updates
via the gradient oracle.  The step loop stores each row with its distance
and checks it; V and the gap come from one vectorized pass afterwards.
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


@dataclass
class Trace:
    """Recorded iterates and per-iterate metrics of one run.

    Row k holds iterate x_k; ``lyapunov[k]`` is defined from k = 2 on (NaN
    before that).
    """

    iterates: np.ndarray
    objective_gap: np.ndarray
    distance: np.ndarray
    lyapunov: np.ndarray
    method: MethodSpec
    descriptor: dict = field(default_factory=dict)
    seed: Optional[int] = None
    diverged: bool = False

    def __len__(self) -> int:
        return self.iterates.shape[0]

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
    # quadratic rows are centred eigen-coordinates; oracle rows are x itself
    engine = (_eigenbasis_rows(target, spec, starts) if quadratic
              else _oracle_rows(target, spec, starts))

    rows, dists = [], []
    window = ()  # centred rows k-2, k-1, k
    diverged = False
    for k, x in enumerate(engine):
        if k >= len(starts) and not np.all(np.isfinite(x)):
            raise ValueError("non-finite iterate produced")
        rows.append(x)
        z = x if quadratic else x - xs
        window = window[-2:] + (z,)
        dists.append(math.sqrt(z.dot(z)))  # np.linalg.norm(z), to the bit
        diverged = diverged or dists[-1] > divergence_threshold
        if k + 1 < len(starts):
            continue
        if diverged or len(rows) == iters:
            break
        if v_floor is not None and k >= 2 and _lyapunov_rows(*window) < v_floor:
            break

    R = np.vstack(rows)
    del rows, window  # free the row list before the metric temporaries
    Z = R if quadratic else R - xs
    lyap = np.full(R.shape[0], math.nan)
    lyap[2:] = _lyapunov_rows(Z[:-2], Z[1:-1], Z[2:])
    if quadratic:
        gaps = 0.5 * np.sum(target.eigvals * Z * Z, axis=1)
        iterates = R @ target.eigvecs.T + xs
    else:
        values = np.array([float(target.value(x)) for x in R])
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite objective value from the oracle")
        gaps = values - float(target.value(xs))
        iterates = R
    return Trace(
        iterates=iterates,
        objective_gap=gaps,
        distance=np.array(dists),
        lyapunov=lyap,
        method=spec,
        descriptor=_descriptor(target, spec),
        seed=seed,
        diverged=diverged,
    )


def _lyapunov_rows(z_km2: np.ndarray, z_km1: np.ndarray, z_k: np.ndarray):
    """V = sum_i z_{k-1,i}^2 - z_{k,i} z_{k-2,i} over the last axis; row-wise
    on stacked rows, with the same summation (and bytes) as one row at a time."""
    terms = z_km1 * z_km1
    terms -= z_k * z_km2
    return np.sum(terms, axis=-1)


def _eigenbasis_rows(p: QuadraticProblem, spec: MethodSpec, starts):
    """Centred eigen-coordinates of the starts, then a x_k + b x_{k-1} forever."""
    a, b = coefficient_arrays(spec, p.eigvals)
    cur = prev = p.eigvecs.T @ (starts[0] - p.minimizer)
    yield cur
    if len(starts) > 1:
        cur = p.eigvecs.T @ (starts[1] - p.minimizer)
        yield cur
    while True:
        cur, prev = a * cur + b * prev, cur
        yield cur


def _oracle_rows(obj: Objective, spec: MethodSpec, starts):
    """The starts, then literal method steps through the gradient oracle."""
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
    yield from starts
    while True:
        state = step_general(obj, spec, state)
        yield state.current


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
