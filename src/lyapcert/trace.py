"""Iteration traces: run a method, record metrics, serialize to CSV.

One driver, ``_blocks``, is the only step loop; only the row engine differs.
Quadratic targets advance in the eigenbasis so the recorded Lyapunov values
keep full relative accuracy all the way down to underflow: the engine runs
nothing but the recurrence z_{k+1} = a z_k + b z_{k-1}, a block of rows at a
time.  Objective targets take the family update of ``methods._step``
through the gradient oracle, with no state beyond the last two iterates;
their engine ends a block at the first row beyond the divergence threshold,
so no gradient is evaluated past the stop.  ``_blocks`` checks each finished
block as arrays (non-finite rows, divergence, on quadratics the V floor),
cutting the run at the first hit in the order a step-by-step loop would
meet them, and hands the block on with its gap, distance and V, computed
once per block from a two-row carry.

``run_trace`` keeps the metric columns of the blocks and drops their rows:
a ``Trace``, on either target, stores the arguments of its ``_blocks`` call
and replays it whenever ``rows`` or ``iterates`` is read, so its memory does
not grow with the rows' width.  ``lyapcert run`` streams instead: each
block's CSV lines are written as the block arrives and only the V column is
kept, and ``read_trace_csv`` reads the file back a chunk of lines at a time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from ._files import whole_file
from ._g17 import csv_rows
from .lyapunov import LyapunovSeries, DEFAULT_TOLERANCE
from .methods import MethodSpec, _family, _step, coefficient_arrays
from .problems import Objective, QuadraticProblem

DIVERGENCE_THRESHOLD = 1e12  # read at call time
_CHUNK = 512  # rows advanced between two checks


@dataclass
class Trace:
    """Per-iterate metrics of one run, and its rows on request.

    ``objective_gap``, ``distance`` and ``lyapunov`` hold one value per
    recorded iterate; ``lyapunov[k]`` is defined from k = 2 on (NaN before
    that).  ``run`` is the argument tuple of the ``_blocks`` call that made
    the trace.  A trace keeps no row: ``rows`` and ``iterates`` are computed
    again by replaying ``run`` on every read.  The engines are deterministic
    (an objective's oracles are taken to be functions of their argument), so
    each read gives the same bits.
    """

    objective_gap: np.ndarray
    distance: np.ndarray
    lyapunov: np.ndarray
    diverged: bool
    run: tuple

    def __len__(self) -> int:
        return self.objective_gap.shape[0]

    @property
    def rows(self) -> np.ndarray:
        """The engine's rows, rebuilt on every read (not kept: that is the
        memory a trace saves): centred eigen-coordinates of a quadratic run,
        the iterates of an objective run."""
        return np.concatenate([blk.rows for blk in _blocks(*self.run)])

    @property
    def iterates(self) -> np.ndarray:
        """Row k is x_k, rebuilt on every read."""
        target = self.run[0]
        if not isinstance(target, QuadraticProblem):
            return self.rows
        return self.rows @ target.eigvecs.T + target.minimizer

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
              v_floor: Optional[float] = None) -> Trace:
    """Run ``iters`` recorded iterates (x0 included) and collect metrics.

    ``x1`` overrides the default equal start x_{-1} = x0 (under which the
    first step of every method is a plain gradient step).  ``v_floor`` stops
    a quadratic run once V drops below it, the showcase scenarios' floor.
    Divergence (distance beyond ``DIVERGENCE_THRESHOLD``) stops the run and
    flags the trace instead of raising.
    """
    # copies of the starts: a caller changing its arrays later must not
    # change the rows a trace replays
    run = (target, spec, np.array(x0, dtype=float), iters,
           None if x1 is None else np.array(x1, dtype=float), v_floor)
    gap, dist, lyap = [], [], []
    for blk in _blocks(*run):
        gap.append(blk.objective_gap)
        dist.append(blk.distance)
        lyap.append(blk.lyapunov)
    return Trace(np.concatenate(gap), np.concatenate(dist), np.concatenate(lyap),
                 blk.diverged, run)


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


def _blocks(target, spec: MethodSpec, x0, iters: int, x1=None, v_floor=None) -> Iterator[_Block]:
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
    if v_floor is not None and not quadratic:
        raise ValueError("v_floor applies to quadratic runs only")
    if target.minimizer is None:
        raise ValueError("objective needs a known minimizer to compute metrics")
    if x0.shape != (target.dim,):
        raise ValueError("x0 has wrong dimension")
    xs = np.asarray(target.minimizer, dtype=float)
    # quadratic rows are centred eigen-coordinates; oracle rows are x itself,
    # and no gradient is taken past the stopping row: the oracle engine ends
    # a block at a row beyond the threshold
    if quadratic:
        W, advance = _eigenbasis_engine(target, spec, starts)
    else:
        W, advance = _oracle_engine(target, spec, starts)
        f_star = float(target.value(xs))

    n = 0  # rows recorded before this block
    while True:
        # rows past the stop may overflow; they are cut before any output.
        # No yield inside: the error state must not leak to the consumer.
        with np.errstate(over="ignore", invalid="ignore"):
            if n:  # the block, after rows n-2 and n-1 (x_{-1} = x0 for one start)
                W = advance(min(_CHUNK, iters - n))
            block = W[2:] if n else W
            m = block.shape[0]
            Wz = W if quadratic else W - xs
            Z = Wz[-m:]
            dist = _row_norms(Z)
            v = _lyapunov_rows(Wz[:-2], Wz[1:-1], Wz[2:])  # V of the block's last len(v) rows
            if n == 1:  # row 1 has no V
                v[0] = math.nan
            # the run stops on the block's row ``stop`` (m: it goes on) at the
            # first row beyond the threshold (a start: at the last start), the
            # iters-th row, or the first V below the floor
            far = _first(dist > DIVERGENCE_THRESHOLD)
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
            if v.shape[0] < m:  # the starts have no V
                v = np.concatenate([np.full(m - v.shape[0], math.nan), v])
            if quadratic:
                gap = 0.5 * np.sum(target.eigvals * Z[:k] * Z[:k], axis=1)
            else:
                values = [float(target.value(x)) for x in block[:k]]
                if not all(map(math.isfinite, values)):
                    raise ValueError("non-finite objective value from the oracle")
                gap = np.array(values) - f_star
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
    """Centred eigen-coordinates of the starts, and ``advance(n)``: the last
    two rows so far, then the next n rows of a z_k + b z_{k-1}."""
    ba = np.stack(coefficient_arrays(spec, p.eigvals)[::-1])
    first = np.stack([p.eigvecs.T @ (x - p.minimizer) for x in starts])
    last = first[[0, -1]]  # z_{k-1}, z_k
    work = np.empty_like(ba)
    bz, az = work

    def advance(n: int) -> np.ndarray:
        # row k+1 = b z_{k-1} + a z_k from the window (z_{k-1}, z_k) above
        # it: each product and the sum rounded once, as in a z_k + b z_{k-1}
        nonlocal last
        rows = np.empty((n + 2, ba.shape[1]))
        rows[:2] = last
        pairs = np.ndarray((n, 2, rows.shape[1]), buffer=rows,
                           strides=(rows.strides[0],) + rows.strides)
        for pair, row in zip(pairs, rows[2:]):
            np.multiply(ba, pair, out=work)
            np.add(bz, az, out=row)
        last = rows[-2:].copy()
        return rows

    return first, advance


def _oracle_engine(obj: Objective, spec: MethodSpec, starts):
    """The starts, and ``advance(n)``: the last two iterates so far, then the
    next n method steps through the gradient oracle, or fewer: up to the first
    row whose distance from the minimizer is not within the threshold."""
    prev, cur = starts[0], starts[-1]
    xs = np.asarray(obj.minimizer, dtype=float)
    family = _family(spec)

    def advance(n: int) -> np.ndarray:
        nonlocal prev, cur
        rows = np.empty((n + 2, cur.shape[0]))
        rows[0], rows[1] = prev, cur
        for i, row in enumerate(rows[2:]):
            prev, cur = cur, _step(obj, family, cur, prev)
            row[:] = cur
            z = row - xs
            if not math.sqrt(z.dot(z)) <= DIVERGENCE_THRESHOLD:
                return rows[:i + 3]
        return rows

    return np.stack(starts), advance


_CSV_HEADER = "iter,objective_gap,distance,lyapunov\n"


def _csv_chunks(k0: int, gap: np.ndarray, dist: np.ndarray, lyap: np.ndarray):
    """CSV lines of rows k0, k0+1, ...: 17 significant digits, LF endings,
    the lyapunov cell empty where undefined; as consecutive strings of a
    bounded size."""
    k = np.arange(k0, k0 + gap.shape[0], dtype=float)  # '%.17g' of k is '%d' below 1e17
    return csv_rows([k, gap, dist, lyap], empty=np.isnan(lyap))


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
    with whole_file(path) as fh:
        fh.write(_CSV_HEADER)
        n, lyap = 0, []
        for blk in blocks:
            fh.writelines(_csv_chunks(n, blk.objective_gap, blk.distance, blk.lyapunov))
            n += blk.objective_gap.shape[0]
            lyap.append(blk.lyapunov)
    return n, blk, np.concatenate(lyap)


def read_trace_csv(path) -> dict:
    """Parse a trace CSV back into metric arrays (lyapunov NaN where empty);
    blank lines are skipped.

    ``_parse_lines`` defines the format.  It reads the header and the leading
    rows with an empty lyapunov cell; numpy's C parser reads the rest in
    chunks of about 16 KB of text, and a chunk counts only if every row parses
    as four numbers.  Otherwise the whole file is read again with
    ``_parse_lines``, so the result and any error are always its own.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cols, first = _parse_lines(fh, until_v=True)
        if first is not None and not _load_rows(first, fh, cols):
            fh.seek(0)
            cols, _ = _parse_lines(fh)
    return dict(zip(("objective_gap", "distance", "lyapunov"),
                    (np.frombuffer(c, dtype=float) for c in cols)))


def _parse_lines(fh, until_v: bool = False):
    """The gap, distance and lyapunov columns of a trace CSV, one line at a
    time.  With ``until_v``, stop before the first row whose lyapunov cell
    is filled and return that line as well (None if there is none)."""
    cols = gaps, dists, lyap = array("d"), array("d"), array("d")
    lines = (ln.strip() for ln in fh)
    if next((ln for ln in lines if ln), "").split(",") != _CSV_HEADER.strip().split(","):
        raise ValueError("not a trace CSV")
    for ln in lines:
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError("malformed trace row")
        if until_v and parts[3]:
            return cols, ln
        gaps.append(float(parts[1]))
        dists.append(float(parts[2]))
        lyap.append(float(parts[3]) if parts[3] else math.nan)
    return cols, None


def _load_rows(first: str, fh, cols) -> bool:
    """Append the line ``first`` and the rest of ``fh`` to ``cols`` through
    ``np.loadtxt``; False, with ``cols`` partly filled, as soon as a chunk
    is not all rows of four numbers."""
    lines = [first + "\n"]
    while lines:
        if any(map(str.strip, lines)):  # loadtxt warns on a chunk of blank lines
            try:
                rows = np.loadtxt(lines, delimiter=",", dtype=float, comments=None, ndmin=2)
            except ValueError:
                return False
            if rows.shape[1:] != (4,):
                return False
            for col, j in zip(cols, (1, 2, 3)):
                col.frombytes(np.ascontiguousarray(rows[:, j]).view(np.uint8))
        lines = fh.readlines(1 << 14)
    return True


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
