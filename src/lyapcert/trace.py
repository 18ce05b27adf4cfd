"""Iteration traces: run a method, record metrics, serialize to CSV.

One driver, ``_blocks``, is the only step loop; only the row engine differs.
It advances one or more runs that share a target, start(s), ``iters`` and V
floor side by side: a block is a (rows, runs, dim) array, one run per method
spec, and holds no more rows x runs than a block of one run does.
Quadratic targets advance in the eigenbasis so the recorded Lyapunov values
keep full relative accuracy all the way down to underflow: the engine runs
nothing but the recurrence z_{k+1} = a z_k + b z_{k-1}, a block of rows at a
time, with the (a, b) columns of all runs' certificates (each spec's made
once, by ``spectral.analyze``) as one (2, runs, dim) array, so one multiply
and one add make a row of every run.  Objective targets take the family
update of ``methods`` for all runs in one set of ufunc calls
and call the gradient oracle once per run and row, with no state beyond the
last two iterates; a run takes no gradient at a row beyond the divergence
threshold, so none is evaluated past its stop.  ``_blocks`` checks each
finished block as arrays (non-finite rows, divergence, on quadratics the V
floor), cutting each run at its first hit in the order a step-by-step loop
would meet them, and hands each run's part on with its gap, distance and V,
computed once per block from a two-row carry.  A run leaves the others at
its stop; a run that fails raises once the runs before it have finished,
so a batch raises what its runs, made one after another, would raise first.
A ``_blocks`` call allocates one rows buffer and the work arrays of the
metrics once: each engine writes every block into that buffer, below the
carry copied to its top, and the metrics are computed into the work arrays
with ``out=``, so a long run allocates no block-sized array per block.  The
rows a block hands on are a view into the buffer, valid until the next block
is drawn; its gap, distance and V columns are arrays of their own.

``run_trace`` is the batch of one; the scenarios run their methods as one
batch through ``_run_traces``.  A trace keeps the metric columns of its
blocks and drops their rows: a ``Trace``, on either target, stores the
arguments of its own run and replays it alone whenever ``iterates`` is
read, so its memory does not grow with the rows' width.
``lyapcert run`` streams instead: each block's CSV lines are written as the
block arrives and only the V and distance columns are kept, and
``read_trace_csv`` reads the file back a chunk of lines at a time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from ._files import whole_file
from ._g17 import csv_rows
from .lyapunov import LyapunovSeries
from .methods import MethodSpec, _family
from .problems import Objective, QuadraticProblem
from .spectral import SpectralCertificate, analyze

DIVERGENCE_THRESHOLD = 1e12  # read at call time
_CHUNK = 512  # rows x runs advanced between two checks


@dataclass
class Trace:
    """Per-iterate metrics of one run, and its iterates on request.

    ``objective_gap``, ``distance`` and ``lyapunov`` hold one value per
    recorded iterate; ``lyapunov[k]`` is defined from k = 2 on (NaN before
    that).  ``certificate`` is the certificate whose (a, b) a quadratic run
    stepped, None on an objective.  ``run`` is the argument tuple (target,
    spec, x0, iters, x1, v_floor) of the run, alone, that made the trace.
    A trace keeps no row: ``iterates`` is computed again by replaying
    ``run`` on every read.  The engines are deterministic (an objective's
    oracles are taken to be functions of their argument), so each read
    gives the same bits.
    """

    objective_gap: np.ndarray
    distance: np.ndarray
    lyapunov: np.ndarray
    diverged: bool
    certificate: Optional[SpectralCertificate]
    run: tuple

    def __len__(self) -> int:
        return self.objective_gap.shape[0]

    @property
    def iterates(self) -> np.ndarray:
        """Row k is x_k, rebuilt on every read (not kept: that is the memory
        a trace saves) from the engine's rows: the iterates themselves on an
        objective, centred eigen-coordinates on a quadratic, stepped from the
        trace's certificate, not certified again."""
        target, spec, *rest = self.run
        spec = self.certificate or spec
        # each block's rows are a view into the buffer the next one overwrites
        rows = np.concatenate([blk.rows.copy() for blk in _blocks(target, (spec,), *rest)])
        if not isinstance(target, QuadraticProblem):
            return rows
        return rows @ target.eigvecs.T + target.minimizer

    def lyapunov_series(self) -> LyapunovSeries:
        return LyapunovSeries(self.lyapunov[2:], self.distance)


def run_trace(target: Union[QuadraticProblem, Objective],
              spec: Union[MethodSpec, SpectralCertificate], x0: np.ndarray, iters: int, *,
              x1: Optional[np.ndarray] = None, v_floor: Optional[float] = None) -> Trace:
    """Run ``iters`` recorded iterates (x0 included) and collect metrics.

    On a quadratic, ``spec`` may be ``analyze(spec, target.eigvals)`` itself.
    ``x1`` overrides the default equal start x_{-1} = x0 (under which the
    first step of every method is a plain gradient step).  ``v_floor`` stops
    a quadratic run once V drops below it, the showcase scenarios' floor.
    Divergence (distance beyond ``DIVERGENCE_THRESHOLD``) stops the run and
    flags the trace instead of raising.
    """
    [trace] = _run_traces(target, (spec,), x0, iters, x1=x1, v_floor=v_floor)
    return trace


def _run_traces(target, specs, x0, iters: int, *, x1=None, v_floor=None) -> Iterator[Trace]:
    """``run_trace`` of each of ``specs`` (a sequence) on one target from one
    start, the runs advanced side by side by one ``_blocks`` call.  The
    traces come in the order of ``specs``, each once it and those before it
    are complete, so a caller that judges each as it comes meets the errors
    of calls made one after another, in the same order."""
    # copies of the starts: a caller changing its arrays later must not
    # change the rows a trace replays
    x0 = np.array(x0, dtype=float)
    x1 = None if x1 is None else np.array(x1, dtype=float)
    cols = [(array("d"), array("d"), array("d")) for _ in specs]
    # (diverged, certificate) of each complete run not yet handed out; r: the next
    done, r = {}, 0
    for blk in _blocks(target, specs, x0, iters, x1, v_floor):
        _extend(cols[blk.run], (blk.objective_gap, blk.distance, blk.lyapunov))
        if blk.last:
            done[blk.run] = blk.diverged, blk.certificate
        while r in done:
            yield Trace(*map(np.frombuffer, cols[r]), *done.pop(r),
                        (target, specs[r], x0, iters, x1, v_floor))
            cols[r] = None
            r += 1


def _extend(cols, values) -> None:
    """Append each array of ``values`` to its growing ``array('d')`` column in
    ``cols``: each value is held once, and ``np.frombuffer`` reads a column
    without a copy."""
    for col, c in zip(cols, values):
        col.frombytes(np.ascontiguousarray(c).view(np.uint8))


class _Block(NamedTuple):
    """Consecutive finished rows of the run at index ``run`` of a ``_blocks``
    call, with their metrics; ``last`` is set on the run's last block, and
    ``diverged`` too when divergence stopped the run; ``certificate`` is the
    run's.  ``rows`` is a view into the call's one rows buffer, valid until
    the next block is drawn: a consumer that keeps rows copies them."""

    run: int
    rows: np.ndarray
    objective_gap: np.ndarray
    distance: np.ndarray
    lyapunov: np.ndarray
    last: bool
    diverged: bool
    certificate: Optional[SpectralCertificate]


def _row_norms(Z: np.ndarray) -> np.ndarray:
    """Each row's ``np.linalg.norm``, to the bit: the root of its dot with
    itself, taken for all rows (of any leading shape) in one call."""
    return np.sqrt(np.matmul(Z[..., None, :], Z[..., :, None])[..., 0, 0])


def _blocks(target, specs, x0, iters: int, x1=None, v_floor=None) -> Iterator[_Block]:
    """The only step loop: advance the runs of ``specs`` side by side and
    yield each run's rows block by block, each checked and with its gap,
    distance and V, up to and including the run's stopping row.

    A quadratic run steps the (a, b) of its spec's certificate, made once by
    ``analyze``; a certificate may stand in for its spec if its ``lambda_w``
    is the target's ``eigvals``, bitwise.

    A run leaves the others at its stop.  A run that fails (its certificate,
    or a non-finite iterate or objective value) leaves too, and its error is
    raised once no run before it is still going: the error that the runs,
    made one after another, would raise first.  An exception raised by an
    oracle itself goes up at once.

    Every block is written into one rows buffer, allocated with the metric
    work arrays once per call, so a block's ``rows`` are valid until the
    next block is drawn; its metric columns are new arrays.
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
    if v_floor is not None and not quadratic:
        raise ValueError("v_floor applies to quadratic runs only")
    if not quadratic and any(isinstance(s, SpectralCertificate) for s in specs):
        raise ValueError("a certificate applies to quadratic runs only")
    if target.minimizer is None:
        raise ValueError("objective needs a known minimizer to compute metrics")
    if x0.shape != (target.dim,):
        raise ValueError("x0 has wrong dimension")
    xs = np.asarray(target.minimizer, dtype=float)
    # quadratic rows are centred eigen-coordinates; oracle rows are x itself,
    # and no gradient is taken past the stopping row: the oracle engine stops
    # a run at a row beyond the threshold
    failed = {}  # run -> the error that ended it
    certs = {}  # run -> its certificate, on a quadratic
    if quadratic:
        for r, spec in enumerate(specs):
            try:
                cert = (spec if isinstance(spec, SpectralCertificate)
                        else analyze(spec, target.eigvals))
                if cert.per_coordinate.lambda_w.tobytes() != target.eigvals.tobytes():
                    raise ValueError("the certificate is of another spectrum")
                certs[r] = cert
            except ValueError as exc:
                failed[r] = exc
        if 0 in failed:  # the first run fails before its first row
            raise failed[0]
        alive = list(certs)  # the engine's runs, in order
        first, advance = _eigenbasis_engine(target, list(certs.values()), starts)
    else:
        alive = list(range(len(specs)))
        first, advance = _oracle_engine(target, [_family(s) for s in specs], starts)
        f_star = float(target.value(xs))

    n, keep = 0, None  # rows recorded before this block; the runs going on
    ends = [len(starts)] * len(alive)  # the rows each run has in the block
    # one rows buffer and the metric work arrays (two products of the V
    # terms, then the gap's; an objective's centred rows), with room for the
    # call's widest block, of all runs; each block is a view into them,
    # reshaped once runs have stopped
    size = (max(_CHUNK, len(alive)) + 2 * len(alive)) * target.dim
    bufs = [np.empty(size) for _ in range(3 if quadratic else 4)]
    while True:
        if failed and (not alive or min(failed) < alive[0]):
            raise failed[min(failed)]
        if not alive:
            return
        shape = (min(max(1, _CHUNK // len(alive)), iters - n) + 2, len(alive), target.dim)
        rows, t1, t2, *wz = (b[:math.prod(shape)].reshape(shape) for b in bufs)
        # rows past a stop may overflow; they are cut before any output.
        # No yield inside: the error state must not leak to the consumer.
        with np.errstate(over="ignore", invalid="ignore"):
            if n:  # the block, after rows n-2 and n-1 (x_{-1} = x0 for one start)
                W, ends = advance(rows, keep)
            else:
                W = rows[:len(starts)]
                W[...] = first
            block = W[2:] if n else W  # a row, then a run: (rows, runs, dim)
            m = block.shape[0]
            Wz = W if quadratic else np.subtract(W, xs, out=wz[0][:W.shape[0]])
            Z = Wz[-m:]
            dist = _row_norms(Z)
            z_k = Wz[2:]  # the rows with a V: the block's (none of the starts')
            v = _lyapunov_rows(Wz[:-2], Wz[1:-1], z_k, t1[:len(z_k)], t2[:len(z_k)])
            if n == 1:  # row 1 has no V
                v[0] = math.nan
            if v.shape[0] < m:  # the starts have no V
                v = np.concatenate([np.full((m - v.shape[0], v.shape[1]), math.nan), v])
            if quadratic:
                gaps = np.multiply(target.eigvals, Z, out=t1[:m])  # (eigvals * Z) * Z
                gaps = 0.5 * np.sum(np.multiply(gaps, Z, out=gaps), axis=-1)
            out, keep = [], []
            for pos, (r, mr) in enumerate(zip(alive, ends)):
                # the run stops on the block's row ``stop`` (mr, the rows it
                # made: it goes on) at the first row beyond the threshold (a
                # start: at the last start), the iters-th row, or the first V
                # below the floor
                far = _first(dist[:mr, pos] > DIVERGENCE_THRESHOLD)
                stop = max(far, len(starts) - 1 - n) if far < mr else mr
                if n + mr == iters:
                    stop = min(stop, mr - 1)
                if v_floor is not None:
                    stop = min(stop, _first(v[:, pos] < v_floor))
                k = min(stop + 1, mr)  # rows kept
                # the first row up to the stop with a non-finite entry, or an
                # objective value, raises (starts are not checked); only a
                # row with a non-finite norm can hold a non-finite entry
                bad = k
                if n and not (np.isfinite(dist[:k, pos]).all() or np.isfinite(Z[:k, pos]).all()):
                    bad = _first(~np.isfinite(Z[:k, pos]).all(axis=-1))
                    failed[r] = ValueError("non-finite iterate produced")
                if quadratic:
                    gap = gaps[:k, pos]
                else:
                    values = [float(target.value(x)) for x in block[:bad, pos]]
                    if not all(map(math.isfinite, values)):
                        failed[r] = ValueError("non-finite objective value from the oracle")
                    gap = np.array(values) - f_star
                if r in failed:
                    continue
                out.append(_Block(r, block[:k, pos], gap, dist[:k, pos], v[:k, pos],
                                  last=stop < mr, diverged=far <= stop < mr,
                                  certificate=certs.get(r)))
                if stop == mr:
                    keep.append(pos)
        if not keep:  # no run goes on: the work arrays go before the last blocks are read
            del bufs, t1, t2, wz, Wz, Z, z_k
        yield from out
        alive = [alive[pos] for pos in keep]
        if len(keep) == len(ends):
            keep = None
        n += m


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length when none is."""
    return int(mask.argmax()) if mask.any() else mask.shape[0]


def _lyapunov_rows(z_km2: np.ndarray, z_km1: np.ndarray, z_k: np.ndarray,
                   out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """V = sum_i z_{k-1,i}^2 - z_{k,i} z_{k-2,i} over the last axis; row-wise
    on stacked rows, with the same summation (and bytes) as one row at a time.
    The terms go to ``out`` and ``tmp``, work arrays of ``z_k``'s shape."""
    terms = np.multiply(z_km1, z_km1, out=out)
    terms -= np.multiply(z_k, z_km2, out=tmp)
    return np.sum(terms, axis=-1)


def _eigenbasis_engine(p: QuadraticProblem, certs: list, starts):
    """Centred eigen-coordinates of the starts, for each run of the
    certificates ``certs`` (one per run), and ``advance(rows, keep)``: for
    the runs at positions ``keep`` (all when None), the last two rows so
    far, then the next rows of a z_k + b z_{k-1}, written into ``rows`` (a
    (n + 2, runs, dim) array: the one buffer a ``_blocks`` call fills block
    after block); with the rows each run made (all n).  ``ba`` holds the
    certificates' columns as (b|a, run, coordinate)."""
    ba = np.stack([(c.per_coordinate.b, c.per_coordinate.a) for c in certs], axis=1)
    first = np.stack([p.eigvecs.T @ (x - p.minimizer) for x in starts])
    first = np.repeat(first[:, None], len(certs), axis=1)
    last = first[[0, -1]]  # z_{k-1}, z_k
    work = np.empty_like(ba)

    def advance(rows: np.ndarray, keep) -> tuple:
        # row k+1 = b z_{k-1} + a z_k from the window (z_{k-1}, z_k) above
        # it: each product and the sum rounded once, as in a z_k + b z_{k-1}
        nonlocal ba, last, work
        if keep is not None:
            ba, last, work = ba[:, keep], last[:, keep], work[:, keep]
        bz, az = work
        rows[:2] = last  # the carry: the last block's bottom rows, in this buffer
        n = rows.shape[0] - 2
        pairs = np.ndarray((n, 2) + rows.shape[1:], buffer=rows,
                           strides=(rows.strides[0],) + rows.strides)
        for pair, row in zip(pairs, rows[2:]):
            np.multiply(ba, pair, out=work)
            np.add(bz, az, out=row)
        last = rows[-2:]
        return rows, [n] * rows.shape[1]

    return first, advance


def _oracle_engine(obj: Objective, families: list, starts):
    """The starts, for each run of the family members ``families`` (an
    (alpha, beta, gamma) per run), and ``advance(rows, keep)``: for the runs
    at positions ``keep`` (all when None), the last two iterates so far,
    then the next method steps through the gradient oracle, written into
    ``rows`` (a (n + 2, runs, dim) array: the one buffer a ``_blocks`` call
    fills block after block); with the rows each run made.  A run takes no
    gradient at a row whose distance from the minimizer is not within the
    threshold: its rows end there, and the block ends where no run is left."""
    xs = np.asarray(obj.minimizer, dtype=float)
    first = np.repeat(np.stack(starts)[:, None], len(families), axis=1)
    # one coefficient per entry: same-shape ufuncs, cheaper than broadcasting;
    # and no in-place ufunc, slow on one-entry rows
    al, be, ga = np.array(families).T[:, :, None].repeat(xs.shape[0], axis=2)
    prev, cur = first[0], first[-1]

    def advance(rows: np.ndarray, keep) -> tuple:
        # x_{k+1} = x_k + beta d_k - alpha grad f(x_k + gamma d_k), the
        # family update of ``methods``, for all runs at once; the oracle
        # once per run
        nonlocal al, be, ga, prev, cur
        if keep is not None:
            al, be, ga, prev, cur = (a[keep] for a in (al, be, ga, prev, cur))
        rows[0], rows[1] = prev, cur  # prev is read before row 1 is written
        prev, cur = rows[0], rows[1]
        grad = np.empty_like(cur)
        live = list(range(cur.shape[0]))
        ends = [rows.shape[0] - 2] * len(live)
        for i, row in enumerate(rows[2:]):
            d = cur - prev
            y = ga * d + cur
            z = cur - xs  # the rows above the block were judged by the driver
            for pos in live[:]:
                zr = z[pos]
                if i and not math.sqrt(zr.dot(zr)) <= DIVERGENCE_THRESHOLD:
                    live.remove(pos)
                    ends[pos] = i
                else:
                    grad[pos] = obj.gradient(y[pos])
            if not live:
                return rows[:i + 2], ends
            np.subtract(be * d + cur, al * grad, out=row)
            prev, cur = cur, row
        return rows, ends

    return first, advance


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


def _stream_csv(blocks: Iterable[_Block], path, kept=()):
    """Write the CSV of a run as its blocks arrive, holding no rows; a whole
    ``Trace`` may stand in as a single block.  The V and distance cells go
    to the two ``array('d')`` columns ``kept`` too, when they are given.

    The lines go to a temporary file beside ``path``, which replaces ``path``
    only once the run is complete; a run that raises leaves ``path`` as it
    was.  Returns the row count and the last block.
    """
    with whole_file(path) as fh:
        fh.write(_CSV_HEADER)
        n = 0
        for blk in blocks:
            fh.writelines(_csv_chunks(n, blk.objective_gap, blk.distance, blk.lyapunov))
            n += blk.objective_gap.shape[0]
            _extend(kept, (blk.lyapunov, blk.distance))
    return n, blk


def read_trace_csv(path) -> dict:
    """Parse a trace CSV back into metric arrays (lyapunov NaN where empty);
    blank lines are skipped.

    ``_parse_lines`` defines the format.  After the header the rows come in
    chunks of about 16 KB of text: numpy's C parser reads a chunk if every
    row in it parses as four numbers, and ``_parse_lines`` reads any other
    chunk, so the result and any error are always its own.
    """
    cols = array("d"), array("d"), array("d")
    with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
        header = next((ln for ln in fh if ln.strip()), "")
        if header.strip().split(",") != _CSV_HEADER.strip().split(","):
            raise ValueError("not a trace CSV")
        while lines := fh.readlines(1 << 14):
            if not any(map(str.strip, lines)):  # loadtxt warns on a chunk of blank lines
                continue
            try:
                rows = np.loadtxt(lines, delimiter=",", dtype=float, comments=None, ndmin=2)
            except ValueError:
                rows = None
            if rows is None or rows.shape[1:] != (4,):
                _parse_lines(lines, cols)
            else:
                _extend(cols, rows[:, 1:].T)
    return dict(zip(("objective_gap", "distance", "lyapunov"), map(np.frombuffer, cols)))


def _parse_lines(lines, cols) -> None:
    """Append the gap, distance and lyapunov cells of the trace rows among
    ``lines`` to ``cols``, one line at a time; blank lines are skipped."""
    gaps, dists, lyap = cols
    for ln in map(str.strip, lines):
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError("malformed trace row")
        gaps.append(float(parts[1]))
        dists.append(float(parts[2]))
        lyap.append(float(parts[3]) if parts[3] else math.nan)


def series_from_csv(path) -> LyapunovSeries:
    """Rebuild the Lyapunov series of an exported trace: every value from the
    first defined one on, so a later empty or NaN cell fails the check."""
    data = read_trace_csv(path)
    vals = data["lyapunov"]
    defined = np.where(~np.isnan(vals))[0]
    if defined.shape[0] < 1:
        raise ValueError("trace CSV holds no Lyapunov values")
    start = int(defined[0])
    return LyapunovSeries(values=vals[start:], distance=data["distance"][start - 2:],
                          start_index=start)
