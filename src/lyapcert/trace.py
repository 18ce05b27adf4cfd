"""Iteration traces: run a method, record metrics, serialize to CSV.

One driver, ``_blocks``, is the only step loop; only the row engine differs.
Quadratic targets advance in the eigenbasis so the recorded Lyapunov values
keep full relative accuracy all the way down to underflow: the engine runs
nothing but the recurrence z_{k+1} = a z_k + b z_{k-1}, a block of rows at a
time.  Objective targets take the family update of ``methods._step``
through the gradient oracle, with no state beyond the last two iterates;
their engine ends a block at the first row beyond the divergence threshold
(and steps one row per block under a V floor), so no gradient is evaluated
past the stop.  The driver checks each finished block as arrays
(non-finite rows, divergence, the V floor), cutting the run at the first hit
in the order a step-by-step loop would meet them, and hands the block on
with its gap, distance and V, computed once per block from a two-row carry.

``run_trace`` joins the blocks into a ``Trace``; the full-space iterates of a
quadratic run are built from the stored eigen-coordinates only when
``Trace.iterates`` is read.  ``lyapcert run`` streams instead: each block's
CSV lines are written as the block arrives and only the V column is kept, so
its memory does not grow with the rows' width, and ``read_trace_csv`` parses
one line at a time.
"""

from __future__ import annotations

import errno
import math
import os
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .lyapunov import LyapunovSeries, DEFAULT_TOLERANCE
from .methods import MethodSpec, _family, _step, coefficient_arrays
from .problems import Objective, QuadraticProblem

DIVERGENCE_THRESHOLD = 1e12
_CHUNK = 512  # rows advanced between two checks


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
        return _series(self.lyapunov, tolerance)


def _series(lyapunov: np.ndarray, tolerance: float) -> LyapunovSeries:
    """The V values of a run's lyapunov column, from row 2 on."""
    vals = lyapunov[2:]
    if vals.shape[0] < 1:
        raise ValueError("trace too short for a Lyapunov series")
    return LyapunovSeries(values=vals, start_index=2, tolerance=tolerance)


def run_trace(target: Union[QuadraticProblem, Objective], spec: MethodSpec,
              x0: np.ndarray, iters: int, *, x1: Optional[np.ndarray] = None,
              v_floor: Optional[float] = None,
              divergence_threshold: float = DIVERGENCE_THRESHOLD) -> Trace:
    """Run ``iters`` recorded iterates (x0 included) and collect metrics.

    ``x1`` overrides the default equal start x_{-1} = x0 (under which the
    first step of every method is a plain gradient step).  ``v_floor`` stops
    the run once V drops below it, mirroring the measurement floor used by
    the showcase scenarios.  Divergence (distance beyond the threshold) stops
    the run and flags the trace instead of raising.
    """
    blocks = list(_blocks(target, spec, x0, iters, x1, v_floor, divergence_threshold))
    quadratic = isinstance(target, QuadraticProblem)
    return Trace(
        rows=np.concatenate([blk.rows for blk in blocks]),
        objective_gap=np.concatenate([blk.objective_gap for blk in blocks]),
        distance=np.concatenate([blk.distance for blk in blocks]),
        lyapunov=np.concatenate([blk.lyapunov for blk in blocks]),
        method=spec,
        diverged=blocks[-1].diverged,
        frame=(target.eigvecs, np.asarray(target.minimizer, dtype=float)) if quadratic else None,
    )


class _Block(NamedTuple):
    """Consecutive finished rows of a run with their metrics; ``diverged`` is
    set on the last block of a run stopped by divergence."""

    rows: np.ndarray
    objective_gap: np.ndarray
    distance: np.ndarray
    lyapunov: np.ndarray
    diverged: bool


def _row_norms(Z: np.ndarray) -> np.ndarray:
    """Each row's ``np.linalg.norm``, to the bit: the root of its dot with
    itself, taken for all rows in one call."""
    return np.sqrt(np.matmul(Z[:, None, :], Z[:, :, None]).ravel())


def _blocks(target, spec: MethodSpec, x0, iters: int, x1=None, v_floor=None,
            divergence_threshold: float = DIVERGENCE_THRESHOLD) -> Iterator[_Block]:
    """The only step loop: yield a run's rows block by block, each checked
    and with its gap, distance and V, up to and including the stopping row."""
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
    # and no gradient is taken past the stopping row: the oracle engine ends
    # a block at a row beyond the threshold, and steps one row per block
    # when V may stop the run
    chunk = _CHUNK
    if quadratic:
        block, advance = _eigenbasis_engine(target, spec, starts)
    else:
        block, advance = _oracle_engine(target, spec, starts, divergence_threshold)
        if v_floor is not None:
            chunk = 1
        f_star = float(target.value(xs))
        bad_value = False

    tail = block[:0]  # centred rows n-2 and n-1, for V at the block's first rows
    n = 0  # rows recorded before this block
    while True:
        # rows past the stop may overflow; they are cut before any output.
        # No yield inside: the error state must not leak to the consumer.
        with np.errstate(over="ignore", invalid="ignore"):
            if n:
                block = advance(min(chunk, iters - n))
            m = block.shape[0]
            Z = block if quadratic else block - xs
            dist = _row_norms(Z)
            W = np.concatenate([tail, Z])
            v = _lyapunov_rows(W[:-2], W[1:-1], W[2:])  # V of the block's last len(v) rows
            tail = W[-2:]
            # the run stops on the block's row ``stop`` (m: it goes on) at the
            # first row beyond the threshold (a start: at the last start), the
            # iters-th row, or the first V below the floor
            far = _first(dist > divergence_threshold)
            stop = max(far, len(starts) - 1 - n) if far < m else m
            if n + m == iters:
                stop = min(stop, m - 1)
            if v_floor is not None:
                stop = min(stop, m - v.shape[0] + _first(v < v_floor))
            k = min(stop + 1, m)  # rows kept
            # a non-finite row up to the stop raises (starts are not checked);
            # only a row with a non-finite norm can hold a non-finite entry
            if n and not np.isfinite(dist[:k]).all() and not np.isfinite(Z[:k]).all():
                raise ValueError("non-finite iterate produced")
            if v.shape[0] < m:  # rows 0 and 1 have no V
                v = np.concatenate([np.full(m - v.shape[0], math.nan), v])
            if quadratic:
                gap = 0.5 * np.sum(target.eigvals * Z[:k] * Z[:k], axis=1)
            else:
                values = [float(target.value(x)) for x in block[:k]]
                bad_value = bad_value or not all(map(math.isfinite, values))
                gap = np.array(values) - f_star
                if stop < m and bad_value:
                    raise ValueError("non-finite objective value from the oracle")
        yield _Block(block[:k], gap, dist[:k], v[:k], diverged=far <= stop < m)
        if stop < m:
            return
        n += m


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


def _oracle_engine(obj: Objective, spec: MethodSpec, starts, threshold: float):
    """The starts, and ``advance(n)``, the next n method steps through the
    gradient oracle, or fewer: up to the first row whose distance from the
    minimizer is not within ``threshold``."""
    prev, cur = starts[0], starts[-1]
    xs = np.asarray(obj.minimizer, dtype=float)
    family = _family(spec)

    def advance(n: int) -> np.ndarray:
        nonlocal prev, cur
        block = np.empty((n, cur.shape[0]))
        for i, row in enumerate(block):
            prev, cur = cur, _step(obj, family, cur, prev)
            row[:] = cur
            z = row - xs
            if not math.sqrt(z.dot(z)) <= threshold:
                return block[:i + 1]
        return block

    return np.stack(starts), advance


_CSV_HEADER = "iter,objective_gap,distance,lyapunov\n"
_CSV_ROW = "%d,%.17g,%.17g,%.17g\n"
_CSV_ROW_NO_V = "%d,%.17g,%.17g,%.0s\n"  # takes V and prints nothing


def _csv_lines(k0: int, gap: np.ndarray, dist: np.ndarray, lyap: np.ndarray) -> str:
    """CSV lines of rows k0, k0+1, ...: 17 significant digits, LF endings,
    the lyapunov cell empty where undefined; one ``%`` for the whole block."""
    template = "".join(map((_CSV_ROW, _CSV_ROW_NO_V).__getitem__, np.isnan(lyap).tolist()))
    cols = np.column_stack([np.arange(k0, k0 + gap.shape[0]), gap, dist, lyap])
    return template % tuple(cols.ravel().tolist())


def export_csv(trace: Trace, path) -> None:
    """Write ``iter,objective_gap,distance,lyapunov`` rows, 17 significant
    digits, LF line endings; the lyapunov cell is empty where undefined.
    The file appears whole or not at all, as with ``lyapcert run``."""
    _stream_csv([trace], path)  # a Trace has the four columns of a block


def _stream_csv(blocks: Iterable[_Block], path):
    """Write the CSV of a run as its blocks arrive, holding no rows; a whole
    ``Trace`` may stand in as a single block.

    The lines go to a temporary file beside ``path``, which replaces ``path``
    only once the run is complete; a run that raises leaves ``path`` as it
    was.  Returns the row count, the last block and the V column.
    """
    path = os.fspath(path)
    if os.path.isdir(path):  # fail before the run, not at os.replace after it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(_CSV_HEADER)
            n, lyap = 0, []
            for blk in blocks:
                fh.write(_csv_lines(n, blk.objective_gap, blk.distance, blk.lyapunov))
                n += blk.rows.shape[0]
                lyap.append(blk.lyapunov)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the file asked for, not the temporary one
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
    return n, blk, np.concatenate(lyap)


def read_trace_csv(path) -> dict:
    """Parse a trace CSV back into metric arrays (lyapunov NaN where empty);
    blank lines are skipped.  Reads one line at a time."""
    cols = gaps, dists, lyap = array("d"), array("d"), array("d")
    with open(path, "r", encoding="utf-8") as fh:
        lines = (ln.strip() for ln in fh)
        if next((ln for ln in lines if ln), "").split(",") != _CSV_HEADER.strip().split(","):
            raise ValueError("not a trace CSV")
        for ln in lines:
            if not ln:
                continue
            parts = ln.split(",")
            if len(parts) != 4:
                raise ValueError("malformed trace row")
            gaps.append(float(parts[1]))
            dists.append(float(parts[2]))
            lyap.append(float(parts[3]) if parts[3] else math.nan)
    return dict(zip(("objective_gap", "distance", "lyapunov"),
                    (np.frombuffer(c, dtype=float) for c in cols)))


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
