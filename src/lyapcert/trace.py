"""Iteration traces: run a method, record metrics, serialize to CSV.

One driver, ``_blocks``, is the only step loop; only the row engine differs.
It advances one or more runs that share a target, start(s) and ``iters``
side by side: a block is a (rows, runs, dim) array, one run per method spec;
up to 256 runs, it holds no more rows x runs than a block of one run does.
Quadratic targets advance in the eigenbasis so the recorded Lyapunov values
keep full relative accuracy all the way down to underflow: the engine runs
nothing but the recurrence z_{k+1} = a z_k + b z_{k-1}, a block of rows at a
time, with the (a, b) columns of all runs' certificates (each spec's made
once, by ``spectral.analyze``) as one (2, runs, dim) array, so one multiply
and one add make a row of every run.  A settling eigen-coordinate (spectral
radius at most 1 - 2^-20, lambda at most 2^600) reads exact 0 after its
first two consecutive rows below 2^-900: every term such rows give the gap,
distance and V underflows to +0 anyway (``_eigenbasis_engine`` derives it),
so no recorded bit moves and no subnormal is stepped.  Objective targets
take the family update of ``methods`` for all runs in one set of ufunc calls
and one gradient call per row, on the stack of the live runs' points, from
the last two iterates alone; a run takes no gradient at a row beyond the
divergence threshold, so none is evaluated past its stop.  The driver calls
the value oracle once per block and run, on the rows up to the run's
stop.  ``_blocks`` keeps the two-row carry, checks each finished block as
arrays (non-finite rows, divergence, the iters-th row), cutting each run at
its first hit in the order a step-by-step loop would meet them, and hands
each run's part on with its gap, distance and V, computed once per block
from the carry (the first block is the starts; rows 0 and 1 have no V).  A
run's lane idles from its stop; a run that fails raises once the runs before
it have finished, so a batch raises what its runs, made one after another,
would raise first.  A ``_blocks`` call allocates one rows buffer and a
fixed scratch for the metrics once: the driver copies the carry to the top
of that buffer, an engine fills every row below it, and V and the gap are
computed through the scratch a few whole rows at a time (``_SCRATCH``
numbers), so a long run allocates no block-sized array per block and the
products stay in cache at any dim.  The rows a block hands on are a view
into the buffer, valid until the next block is drawn; its gap, distance and
V columns are arrays of their own.

``run_trace`` is the batch of one; the scenarios run their methods as one
batch through ``_run_traces``.  A trace keeps the metric columns of its
blocks and drops their rows: a ``Trace``, on either target, stores the
arguments of its own run and replays it alone whenever ``iterates`` is
read, so its memory does not grow with the rows' width.
``lyapcert run`` streams instead and keeps no column: each block's CSV lines
are written, and its V and distance cells fed to the verdict's
``_MonotoneScan``, as the block arrives.  ``read_trace_csv`` reads the file
back a chunk of lines at a time, and ``lyapcert check`` feeds each chunk to
the same scan (``_scan_csv``), so neither command's memory grows with
``iters``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from ._files import whole_file
from ._g17 import csv_rows
from .lyapunov import LyapunovSeries, _MonotoneScan
from .methods import MethodSpec, _family
from .problems import Objective, QuadraticProblem, _squared_norms
from .spectral import SpectralCertificate, analyze

DIVERGENCE_THRESHOLD = 1e12  # read at call time
_CHUNK = 512  # rows x runs advanced between two checks
# numbers in each of the two scratch arrays of the V and gap products: 2^13
# doubles are 64 KB, so both and the rows of z they read (as many again, and
# two rows) stay within a 256 KB L2 cache at any dim, where products of a
# whole block (514 rows, 0.4 MB each at dim 100) do not
_SCRATCH = 1 << 13
# a settling eigen-coordinate reads 0 after two consecutive rows below _TAU;
# it settles at radius <= 1 - _DELTA and lambda <= _LAMBDA_MAX, all three
# derived in ``_eigenbasis_engine``
_TAU, _DELTA, _LAMBDA_MAX = 2.0 ** -900, 2.0 ** -20, 2.0 ** 600


@dataclass
class Trace:
    """Per-iterate metrics of one run, and its iterates on request.

    ``objective_gap``, ``distance`` and ``lyapunov`` hold one value per
    recorded iterate; ``lyapunov[k]`` is defined from k = 2 on (NaN before
    that).  ``certificate`` is the certificate whose (a, b) a quadratic run
    stepped, None on an objective.  ``run`` is the argument tuple (target,
    spec, x0, iters, x1) of the run, alone, that made the trace.
    A trace keeps no row: ``iterates`` is computed again by replaying
    ``run`` on every read.  The engines are deterministic (an objective's
    oracles are taken to give each point's result whatever else its stack
    holds), so each read gives the same bits.
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
        trace's certificate, not certified again.  A settled eigen-coordinate
        reads exact 0 where the plain recurrence is below 2^-856 (see
        ``_eigenbasis_engine``)."""
        target, spec, *rest = self.run
        spec = self.certificate or spec
        # each block's rows are a view into the buffer the next one overwrites
        rows = np.concatenate([blk.rows.copy() for blk in _blocks(target, (spec,), *rest)])
        if not isinstance(target, QuadraticProblem):
            return rows
        return rows @ target.eigvecs.T + target.minimizer

    def lyapunov_series(self) -> LyapunovSeries:
        return _lyapunov_series(self.lyapunov, self.distance)


def _lyapunov_series(lyapunov, distance) -> LyapunovSeries:
    """A run's series."""
    _require_v(len(distance))
    return LyapunovSeries(lyapunov[2:], distance)


def _require_v(rows: int) -> None:
    """Only divergence ends a run before row 2, V's first."""
    if rows < 3:
        raise ValueError(f"the run diverged at row {rows - 1}, before V is defined")


def run_trace(target: Union[QuadraticProblem, Objective],
              spec: Union[MethodSpec, SpectralCertificate], x0: np.ndarray, iters: int, *,
              x1: Optional[np.ndarray] = None) -> Trace:
    """Run ``iters`` recorded iterates (x0 included) and collect metrics.

    On a quadratic, ``spec`` may be ``analyze(spec, target.eigvals)`` itself.
    ``x1`` overrides the default equal start x_{-1} = x0 (under which the
    first step of every method is a plain gradient step).  Divergence
    (distance beyond ``DIVERGENCE_THRESHOLD``) stops the run and flags the
    trace instead of raising.
    """
    [trace] = _run_traces(target, (spec,), x0, iters, x1=x1)
    return trace


def _run_traces(target, specs, x0, iters: int, *, x1=None) -> Iterator[Trace]:
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
    for blk in _blocks(target, specs, x0, iters, x1):
        _extend(cols[blk.run], (blk.objective_gap, blk.distance, blk.lyapunov))
        if blk.last:
            done[blk.run] = blk.diverged, blk.certificate
        while r in done:
            yield Trace(*map(np.frombuffer, cols[r]), *done.pop(r),
                        (target, specs[r], x0, iters, x1))
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
    return np.sqrt(_squared_norms(Z))


def _squared_threshold(t: float) -> float:
    """The largest s whose rounded square root is at most ``t``: as the root
    is monotone, ``s <= _squared_threshold(t)`` is ``sqrt(s) <= t`` for every
    s >= 0, and NaN, so a row's dot with itself tests the driver's threshold
    without taking the root."""
    if not t >= 0.0:  # no root is at most t
        return -math.inf
    s = t * t
    while math.sqrt(s) > t:
        s = math.nextafter(s, 0.0)
    while s < math.inf and math.sqrt(math.nextafter(s, math.inf)) <= t:
        s = math.nextafter(s, math.inf)
    return s


def _oracle(fn, points: np.ndarray, shape: tuple) -> np.ndarray:
    """``fn(points)`` as a float array, refused unless it has ``shape``: an
    ``Objective``'s value of a stack of points (..., d) is (...), its
    gradient (..., d)."""
    out = np.asarray(fn(points), dtype=float)
    if out.shape != shape:
        raise ValueError(f"an Objective oracle maps a stack of points (..., d) to values "
                         f"(...) and gradients (..., d); it gave shape {out.shape} for a "
                         f"stack of shape {points.shape}")
    return out


def _blocks(target, specs, x0, iters: int, x1=None) -> Iterator[_Block]:
    """The only step loop: advance the runs of ``specs`` side by side and
    yield each run's rows block by block, each checked and with its gap,
    distance and V, up to and including the run's stopping row.

    A quadratic run steps the (a, b) of its spec's certificate, made once by
    ``analyze``; a certificate may stand in for its spec if its ``lambda_w``
    is the target's ``eigvals``, bitwise.

    Run r keeps lane r of every block, to the call's end; a run that stops,
    or fails (its certificate, or a non-finite iterate or objective value),
    leaves it idle.  A failed run's error is raised once no run before it
    is still going: the error that the runs, made one after another, would
    raise first.  An exception raised by an oracle itself goes up at once.

    Every block is written into one rows buffer, allocated in block shape
    once per call, so a block's ``rows`` are valid until the next block is
    drawn; its metric columns are new arrays, V's and the gap's made through
    a scratch of ``_SCRATCH`` numbers (``_metric_rows``), not of a block.
    Every pass reads its block, distance and V from below a two-row carry
    at the buffer's top: the first, the starts (rows 0 and 1 have no V);
    each later one, what ``advance(rows, going)`` fills below the driver's
    copy of the carry.  The driver's threshold test alone decides each
    run's last row; a lane's rows past its run's stop are cut before any
    check, value call or output reads them.
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
    if not quadratic and any(isinstance(s, SpectralCertificate) for s in specs):
        raise ValueError("a certificate applies to quadratic runs only")
    if target.minimizer is None:
        raise ValueError("objective needs a known minimizer to compute metrics")
    if x0.shape != (target.dim,):
        raise ValueError("x0 has wrong dimension")
    xs = np.asarray(target.minimizer, dtype=float)
    # quadratic rows are centred eigen-coordinates; oracle rows are x itself
    failed = {}  # run -> the error that ended it
    certs = [None] * len(specs)  # each run's certificate, on a quadratic
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
        first, advance = _eigenbasis_engine(target, certs, starts)
    else:
        first, advance = _oracle_engine(target, [_family(s) for s in specs], starts)
        f_star = float(_oracle(target.value, xs, ()))

    going = [r for r in range(len(specs)) if r not in failed]  # the runs going on
    n = 0  # rows recorded before this block
    step = max(len(starts), _CHUNK // len(specs))  # the most rows of a block
    # one rows buffer (and an objective's centred rows) in the call's block
    # shape, a lane per run; each block is a view of their top rows
    bufs = [np.empty((step + 2, len(specs), target.dim)) for _ in range(1 if quadratic else 2)]
    # the scratch of the V and gap products: whole rows, up to a block's, to
    # _SCRATCH numbers, or one row
    sub = max(1, min(step, _SCRATCH // (len(specs) * target.dim)))
    scratch = np.empty((2, sub, len(specs), target.dim))
    while True:
        if failed and (not going or min(failed) < going[0]):
            raise failed[min(failed)]
        if not going:
            return
        rows, *wz = (b[:min(step, iters - n) + 2] for b in bufs)
        # rows past a stop may overflow; they are cut before any output.
        # No yield inside: the error state must not leak to the consumer.
        with np.errstate(over="ignore", invalid="ignore"):
            if n:  # the carry, rows n-2 and n-1, then the block
                rows[:2] = W[-2:]
                advance(rows, going)
                W = rows
            else:  # the starts, each in every lane, below a carry of the first
                W = rows[:len(starts) + 2]
                W[2:] = first[:, None]
                W[:2] = W[2]  # so x_{-1} = x0 for one start
            block = W[2:]  # a row, then a run: (rows, runs, dim)
            m = block.shape[0]
            Wz = W if quadratic else np.subtract(W, xs, out=wz[0][:W.shape[0]])
            Z = Wz[2:]
            dist = _row_norms(Z)
            v, gaps = _metric_rows(Wz, target.eigvals if quadratic else None, scratch)
            v[:max(0, 2 - n)] = math.nan  # rows 0 and 1 have no V
            out, on = [], []
            for r in going:
                # the run stops on the block's row ``stop`` (m: it goes on) at
                # the first row beyond the threshold (a start: at the last
                # start) or the iters-th row
                far = _first(dist[:, r] > DIVERGENCE_THRESHOLD)
                stop = max(far, len(starts) - 1 - n) if far < m else m
                if n + m == iters:
                    stop = min(stop, m - 1)
                k = min(stop + 1, m)  # rows kept
                # the first row up to the stop with a non-finite entry, or an
                # objective value, raises (starts are not checked); only a
                # row with a non-finite norm can hold a non-finite entry
                bad = k
                if n and not (np.isfinite(dist[:k, r]).all() or np.isfinite(Z[:k, r]).all()):
                    bad = _first(~np.isfinite(Z[:k, r]).all(axis=-1))
                    failed[r] = ValueError("non-finite iterate produced")
                if quadratic:
                    gap = gaps[:k, r]
                elif bad:  # else the run failed on the block's first row
                    values = _oracle(target.value, block[:bad, r], (bad,))
                    if not np.isfinite(values).all():
                        failed[r] = ValueError("non-finite objective value from the oracle")
                    gap = values - f_star
                if r in failed:
                    continue
                out.append(_Block(r, block[:k, r], gap, dist[:k, r], v[:k, r],
                                  last=stop < m, diverged=far <= stop < m,
                                  certificate=certs[r]))
                if stop == m:
                    on.append(r)
        if not on:  # no run goes on: the buffers go before the last blocks are read
            del bufs, scratch, wz, Wz, Z
        yield from out
        going = on
        n += m


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length when none is."""
    return int(mask.argmax()) if mask.any() else mask.shape[0]


def _metric_rows(W: np.ndarray, eigvals: Optional[np.ndarray], scratch: np.ndarray):
    """V_k = sum_i z_{k-1,i}^2 - z_{k,i} z_{k-2,i} of every row k of ``W[2:]``
    (rows, runs, dim), from the two rows above it, and, given ``eigvals``,
    the quadratic gap 0.5 sum_i (eigvals_i z_{k,i}) z_{k,i}; the gap is None
    without them.  The products go to ``scratch`` (2, sub, runs, dim), sub
    rows at a time: numpy sums each row along its own last axis, so the
    split moves no bit, and every row's terms are those of one row alone."""
    m, sub = W.shape[0] - 2, scratch.shape[1]
    v = np.empty((m,) + W.shape[1:-1])
    gaps = None if eigvals is None else np.empty_like(v)
    terms, tmp = scratch
    for i in range(0, m, sub):
        j = min(i + sub, m)
        z_k, z_km1, t, u = W[i + 2:j + 2], W[i + 1:j + 1], terms[:j - i], tmp[:j - i]
        np.multiply(z_km1, z_km1, out=t)
        np.subtract(t, np.multiply(z_k, W[i:j], out=u), out=t)
        np.add.reduce(t, axis=-1, out=v[i:j])  # ``np.sum``
        if gaps is not None:  # (eigvals * z) * z
            np.multiply(eigvals, z_k, out=t)
            np.add.reduce(np.multiply(t, z_k, out=t), axis=-1, out=gaps[i:j])
    if gaps is not None:
        gaps *= 0.5
    return v, gaps


def _eigenbasis_engine(p: QuadraticProblem, certs: list, starts):
    """Centred eigen-coordinates of the starts, and ``advance(rows, going)``
    for the runs of the certificates ``certs`` (one per run; None for a run
    that failed, which steps zero coefficients).  ``rows`` is a (n + 2, runs,
    dim) array whose top two rows hold z_{k-1} and z_k; ``advance`` fills the
    n rows below them with the next rows of a z_k + b z_{k-1}, in every lane,
    a stopped run's too, and returns nothing.  ``ba`` holds the
    certificates' columns as (b|a, run, coordinate).

    A coordinate settles when the spectral radius rho of M = [[a, b], [1, 0]]
    is at most 1 - delta and its lambda at most 2^600.  After its first two
    consecutive rows (the carry's included) below tau in magnitude, every
    later row of a settling coordinate is written as 0.  rho comes from (a, b)
    themselves, off by < 1e-7 < delta / 9: a certificate's ``rate`` reads a
    real split inside its discriminant tolerance as |a| / 2.  With tau =
    2^-900 and delta = 2^-20 the zeros move no recorded bit (s_k = (z_k,
    z_{k-1}), max norm, u = eps / 2):

    - rho < 1 gives |a| <= 2, |b| <= 1, ||M|| <= 3, and Cayley-Hamilton
      gives ||M^j|| <= j rho^(j-1) (||M|| + rho), so sum_j ||M^j|| <=
      1 + 4 / (1 - rho)^2 < 2^43 =: K, as 1 - rho > 8 delta / 9.
    - A float step adds at most 7u ||s_k|| + 2^-1073 (two rounded products,
      subnormal ones off by up to 2^-1075 each, and a rounded sum), so from
      ||s_0|| < tau the plain recurrence stays below
      K (tau + 2^-1073) / (1 - 7u K) < 2^-856.
    - Every z^2, z_k z_{k-2} and (lambda z) z is then below 2^-1075 and rounds
      to +-0, and each V or gap term to +0, as a zero row's do.  Sums of
      terms equal term by term are equal in any order, and a dot product
      with FMA adds each exact square to a nonnegative partial sum, which
      it leaves as it is.

    So every gap, distance and V, and every stop and error, is the plain
    recurrence's.  Only the rows differ: they read 0 where the plain ones are
    below 2^-856 and head for subnormal numbers, whose every multiply costs
    a microcode assist.
    """
    zero = np.zeros(p.dim)
    ba = np.stack([(c.per_coordinate.b, c.per_coordinate.a) if c else (zero, zero)
                   for c in certs], axis=1)
    work = np.empty_like(ba)
    bz, az = work
    b, a = ba
    with np.errstate(over="ignore"):  # a huge a is a radius of inf
        rho = np.maximum(np.abs(a) / 2 + np.sqrt(np.maximum(a * a / 4 + b, 0.0)),
                         np.sqrt(np.maximum(-b, 0.0)))
    settles = (rho <= 1.0 - _DELTA) & (p.eigvals <= _LAMBDA_MAX)

    def advance(rows: np.ndarray, going) -> None:
        # row k+1 = b z_{k-1} + a z_k from the window (z_{k-1}, z_k) above
        # it: each product and the sum rounded once, as in a z_k + b z_{k-1}
        pairs = np.ndarray((rows.shape[0] - 2, 2) + rows.shape[1:], buffer=rows,
                           strides=(rows.strides[0],) + rows.strides)
        for pair, row in zip(pairs, rows[2:]):
            np.multiply(ba, pair, out=work)
            np.add(bz, az, out=row)
        # pair[j]: rows j and j + 1 below tau on a settling coordinate; a
        # coordinate's rows from 2 past its first pair on are zeroed
        low = rows < _TAU
        low &= rows > -_TAU
        low &= settles
        pair = np.logical_and(low[:-1], low[1:], out=low[:-1])
        if pair[:-1].any():
            pair[-1] = True  # rows n and n + 1 zero no row of this block
            first = pair.argmax(axis=0).astype(np.int32)  # int32: a faster compare
            after = np.greater_equal(np.arange(len(rows) - 2, dtype=np.int32)[:, None, None],
                                     first, out=low[:-2])
            np.copyto(rows[2:], 0.0, where=after)

    return np.stack([p.eigvecs.T @ (x - p.minimizer) for x in starts]), advance


def _oracle_engine(obj: Objective, families: list, starts):
    """The starts, and ``advance(rows, going)`` for the runs of the family
    members ``families`` (an (alpha, beta, gamma) per run).  ``rows`` is a
    (n + 2, runs, dim) array whose top two rows hold x_{k-1} and x_k;
    ``advance`` fills every row below them with the next method steps
    through the gradient oracle, one call per row on the stack of the live
    lanes' points, and returns nothing.  Only the runs ``going`` take
    gradients, each up to a row whose distance from the minimizer is not
    within the threshold (the driver's test, to the bit): a lane past that
    row steps on with no new gradient, its rows left for the driver to
    cut."""
    xs = np.asarray(obj.minimizer, dtype=float)
    runs = len(families)
    # one coefficient per entry, and the minimizer in every lane: same-shape
    # ufuncs, cheaper than broadcasting; and no in-place ufunc, slow on
    # one-entry rows
    al, be, ga = np.array(families).T[:, :, None].repeat(xs.shape[0], axis=2)
    xr = np.tile(xs, (runs, 1))
    grad = np.zeros_like(al)
    lanes = np.arange(runs)
    # a row's centred points as a (1, dim) matrix per lane, their dots with
    # themselves as (1, 1): ``_row_norms``' product, to the bit
    z, zz = np.empty((runs, 1, xs.shape[0])), np.empty((runs, 1, 1))
    zrow, zt, squares = z[:, 0], z.transpose(0, 2, 1), zz[:, 0, 0]

    def advance(rows: np.ndarray, going) -> None:
        # x_{k+1} = x_k + beta d_k - alpha grad f(x_k + gamma d_k), the
        # family update of ``methods``, for all runs at once; the oracle
        # once, on the points of the lanes still live
        prev, cur = rows[0], rows[1]
        # the live lanes: a slice while every lane is, so no row is gathered
        live = slice(None) if len(going) == runs else lanes[going]
        within = _squared_threshold(DIVERGENCE_THRESHOLD)  # the largest dot within it
        for i, row in enumerate(rows[2:]):
            d = cur - prev
            y = ga * d + cur
            if i:  # the rows above the block were judged by the driver
                np.subtract(cur, xr, out=zrow)
                np.matmul(z, zt, out=zz)
                near = squares[live] <= within
                if np.count_nonzero(near) < near.shape[0]:
                    live = lanes[live][near]
            points = y[live]
            if points.shape[0]:
                grad[live] = _oracle(obj.gradient, points, points.shape)
            np.subtract(be * d + cur, al * grad, out=row)
            prev, cur = cur, row

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


def _stream_csv(blocks: Iterable[_Block], path, scan: Optional[_MonotoneScan] = None):
    """Write the CSV of a run as its blocks arrive, holding no rows; a whole
    ``Trace`` may stand in as a single block.  Each block's V and distance
    cells are fed to ``scan`` too, when it is given.

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
            if scan is not None:
                scan.feed(blk.lyapunov, blk.distance)
    return n, blk


def read_trace_csv(path) -> dict:
    """Parse a trace CSV back into metric arrays (lyapunov NaN where empty);
    blank lines are skipped.  ``_csv_columns`` reads it."""
    cols = array("d"), array("d"), array("d")
    for chunk in _csv_columns(path):
        _extend(cols, chunk)
    return dict(zip(("objective_gap", "distance", "lyapunov"), map(np.frombuffer, cols)))


def _csv_columns(path) -> Iterator[tuple]:
    """The gap, distance and lyapunov columns of a trace CSV's rows, a chunk
    at a time.

    ``_parse_lines`` defines the format.  After the header the rows come in
    chunks of about 16 KB of text: numpy's C parser reads a chunk if every
    row in it parses as four numbers, and ``_parse_lines`` reads any other
    chunk, so the result and any error are always its own.
    """
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
                cols = array("d"), array("d"), array("d")
                _parse_lines(lines, cols)
                yield tuple(map(np.frombuffer, cols))
            else:
                yield tuple(rows[:, 1:].T)


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


def _scan_csv(path):
    """``check_monotone(series_from_csv(path))`` and the series' last
    distance, from a scan fed each chunk the reader parses, so memory does
    not grow with the file; the same errors, in the same order."""
    scan = _MonotoneScan()
    for _, dist, lyap in _csv_columns(path):
        scan.feed(lyap, dist)
    report = scan.report()
    if scan.start is None:
        raise ValueError("trace CSV holds no Lyapunov values")
    if scan.start < 2:
        raise ValueError("V needs three iterates, so start_index >= 2")
    return report, scan.d[-1]


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
