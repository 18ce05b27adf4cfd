"""Exact ``'%.17g'`` text of float arrays, and the CSV rows built from it.

``g17_fields(x)`` gives, for every value, the bytes of ``'%.17g' % v`` in one
row of a uint8 matrix: each character has a fixed slot, and the slots a
value does not use hold NUL, so the text is the row with its NULs dropped.
``csv_rows`` joins such rows into CSV lines; the trace and certificate
writers format every 17-digit cell through it.

The digits are D = round-half-even(|x| * 10^(16 - X)) with X the decimal
exponent, so that 1e16 <= D < 1e17.  X starts as floor(log10 |x|) and is
corrected once where the scaled value falls outside [1e16, 1e17).  With
|x| = m * 2^e2 (``np.frexp``, m in [1/2, 1)) and 10^k = (hi + lo) * 2^ek
from a table built on first use with Python integers (hi in [1, 2] the
nearest double, lo the nearest double to the rest), the product is formed
as p + err: p = fl(m * hi), the exact remainder m * hi - p by Dekker's split
(numpy has no fused multiply-add), plus fl(m * lo).

Error bound.  |lo| <= 2^-53, so hi + lo is within 2^-106 of 10^k / 2^ek;
fl(m * lo) and its sum with the exact remainder are each rounded once, on
quantities below 2^-52 * m * hi.  Together the computed p + err is within
2^-104 * m * hi of the true product, a relative error below 2^-100.  Scaled
by 2^(e2 + ek), which is exact, y = |x| * 10^(16 - X) < 1e17 < 2^57 is known
to within 2^-47, and the fraction of y decides the rounding of D whenever it
is more than 2^-30 from 1/2.  Values closer than that to a half, values
whose exponent is still off after the one correction, and the non-finite
ones take Python's own ``'%.17g'`` instead, one at a time.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

WIDTH = 44  # slots per value; see ``_layout``
_K_MIN, _K_MAX = -292, 340  # 10^k for k = 16 - X over every finite double
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_HALF_MARGIN = 2.0 ** -30
_ROWS = 512  # CSV rows formatted at a time
_MINUS, _POINT, _NUL = np.uint8(ord("-")), np.uint8(ord(".")), np.uint8(0)


@functools.cache
def _powers() -> tuple:
    """Columns hi_hi, hi_lo, hi, lo and ek of 10^k = (hi + lo) * 2^ek for k
    from _K_MIN to _K_MAX, hi in [1, 2]; hi = hi_hi + hi_lo is hi split into
    two 26-bit halves."""
    table = np.empty((5, _K_MAX - _K_MIN + 1))
    for j, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        e = num.bit_length() - den.bit_length()
        if (num << max(-e, 0)) < (den << max(e, 0)):
            e -= 1
        num, den = num << max(-e, 0), den << max(e, 0)  # num / den in [1, 2)
        q, r = divmod(num << 52, den)
        if 2 * r > den or (2 * r == den and q & 1):
            q, r = q + 1, r - den
        hi = q / 2 ** 52
        c = _SPLIT * hi
        hh = c - (c - hi)
        table[:, j] = hh, hi - hh, hi, r / (den << 52), e
    return table


@functools.cache
def _layout_tables() -> tuple:
    """Slots 1-5 of fixed notation below 1 by -X; slots 39-43 by X + 324,
    with a blank last column; the place values of six digits; 16^i; and '0'
    for digit i when the first s digits show, by (i, s)."""
    prefix = [("0." + "0" * (z - 1)).ljust(5, "\0") for z in range(5)]
    exp = [("e%+04d" % X).replace("+0", "+\0").replace("-0", "-\0")
           for X in range(-324, 309)] + ["\0" * 5]
    prefix, exp = (np.frombuffer("".join(t).encode("ascii"), dtype=np.uint8)
                   .reshape(len(t), 5).T.copy() for t in (prefix, exp))
    place = np.array([[10.0 ** j] for j in range(5, -1, -1)], dtype=np.float32)
    hexes = np.array([16.0 ** i for i in range(17)], dtype=np.float32)
    zero = np.array([[48.0 * (i < s) for s in range(18)] for i in range(17)], dtype=np.float32)
    return prefix, exp, place, hexes, zero


def _scaled(ax: np.ndarray, X: np.ndarray):
    """floor(y), round(y) and whether y is near a half, for
    y = ax * 10^(16 - X) (X integral, as floats)."""
    hh, hl, hi, lo, ek = (col[(16 - _K_MIN - X).astype(np.intp)] for col in _powers())
    m, e2 = np.frexp(ax)
    c = m * _SPLIT
    mh = c - (c - m)
    ml = m - mh
    p = m * hi
    err = mh * hh - p
    err += mh * hl
    err += ml * hh
    err += ml * hl
    err += m * lo
    s = (e2 + ek).astype(np.int32)
    whole = np.ldexp(p, s).astype(np.int64)  # exact: y >= 2^53 when X is right
    frac = np.ldexp(err, s)
    fl = np.floor(frac)
    frac -= fl
    base = whole + fl.astype(np.int64)
    return base, base + np.floor(frac + 0.5).astype(np.int64), np.abs(frac - 0.5) <= _HALF_MARGIN


def _decimal(ax: np.ndarray):
    """D (17 digits), X and a fallback mask for positive finite ``ax``."""
    X = np.floor(np.log10(ax))
    base, D, near = _scaled(ax, X)
    off = (base < 10 ** 16) | (base >= 10 ** 17)
    if off.any():  # log10 rounded across a power of ten: one correction
        j = np.flatnonzero(off)
        X[j] += np.where(base[j] < 10 ** 16, -1.0, 1.0)
        base[j], D[j], near[j] = _scaled(ax[j], X[j])
        near[j] |= (base[j] < 10 ** 16) | (base[j] >= 10 ** 17)
    X = X.astype(np.int64)
    carry = np.flatnonzero(D == 10 ** 17)
    D[carry] = 10 ** 16
    X[carry] += 1
    return D, X, near


def g17_fields(x) -> np.ndarray:
    """``'%.17g' % v`` for every value of ``x``, as an x.shape + (WIDTH,)
    uint8 array (a transposed view): the text is a row without its NULs."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    ax = np.abs(flat)
    finite = np.isfinite(flat)
    zero = ax == 0.0
    D, X, slow = _decimal(np.where(finite & ~zero, ax, 1.0))
    D[zero] = 0
    X[zero] = 0
    slow |= ~finite
    out = _layout(D, X, np.signbit(flat), zero)
    for j in np.flatnonzero(slow).tolist():
        text = ("%.17g" % flat[j]).encode("ascii")
        out[:, j] = 0
        out[:len(text), j] = np.frombuffer(text, dtype=np.uint8)
    return out.T.reshape(x.shape + (WIDTH,))


def _layout(D: np.ndarray, X: np.ndarray, neg: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """The slots of ``%g`` at precision 17 for sign * D * 10^(X - 16), one
    row per slot and one column per value.

    Slot 0 holds the sign and 1-5 the ``0.000`` of fixed notation below 1;
    slot 6 + 2i holds digit i, and 7 + 2i the point that may follow it;
    39-43 hold ``e``, the exponent's sign and its digits.  Fixed notation
    holds for -4 <= X < 17 and keeps every integer digit; trailing zeros of
    the fraction and a bare point are dropped; the exponent has at least two
    digits.  Zero is D = X = 0."""
    prefix, exp, place, hexes, zeros = _layout_tables()
    n = D.shape[0]
    # three parts of six digits (the first with a leading zero), exact in
    # float32, as are the quotients floor(part / 10^j)
    q = np.empty((3, 6, n), dtype=np.float32)
    hi, rest = np.divmod(D, 10 ** 12)
    for part, rows in zip((hi, *np.divmod(rest, 10 ** 6)), q):
        np.divide(part.astype(np.float32), place, out=rows)
    np.floor(q, out=q)
    q[:, 1:] -= 10.0 * q[:, :-1]
    q = q.reshape(18, n)[1:]
    # significant digits, up to the last nonzero one, digit i: the sum of
    # digit_j * 16^j lies in [16^i, 10 * 16^i) however it is rounded
    nsig = np.floor((np.frexp(hexes @ q)[1] + 3.0) / 4.0)
    nsig[zero] = 1.0
    fixed = (X >= -4) & (X < 17)
    whole = fixed & (X >= 0)
    shown = np.maximum(nsig, np.where(whole, X + 1, 0)).astype(np.intp)
    q += zeros[:, shown]  # a digit past those shown is 0 and stays NUL

    out = np.empty((WIDTH, n), dtype=np.uint8)
    out[0] = np.where(neg, _MINUS, _NUL)
    out[1:6] = 0
    at = np.flatnonzero(fixed & (X < 0))
    out[1:6, at] = prefix[:, -X[at]]
    out[6:40:2] = q
    out[7] = np.where(~fixed & (nsig > 1), _POINT, _NUL)
    out[9:39:2] = 0
    at = np.flatnonzero(whole & (nsig > X + 1))
    out[7 + 2 * X[at], at] = _POINT
    at = np.where(fixed, exp.shape[1] - 1, X + 324)
    for row, chars in zip(out[39:], exp):
        row[...] = chars[at]
    return out


def csv_rows(cols, empty=None) -> Iterator[str]:
    """CSV lines from equal-length columns, each cell as ``'%.17g'`` prints
    it, LF endings, a cell of the last column empty where ``empty`` is set;
    one string per ``_ROWS`` rows, so the work arrays stay small."""
    sep = np.full(len(cols), ord(","), dtype=np.uint8)
    sep[-1] = ord("\n")
    for s in range(0, cols[0].shape[0], _ROWS):
        block = np.stack([col[s:s + _ROWS] for col in cols], axis=1)
        text = np.empty(block.shape + (WIDTH + 1,), dtype=np.uint8)
        text[..., :WIDTH] = g17_fields(block)
        text[..., WIDTH] = sep
        if empty is not None:
            text[empty[s:s + _ROWS], -1, :WIDTH] = 0
        yield text.tobytes().translate(None, b"\0").decode("ascii")
