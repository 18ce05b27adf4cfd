"""Spectral analysis of the per-coordinate 2x2 iteration matrices.

The recurrence x_{k+1} = a x_k + b x_{k-1} has companion matrix
M = [[a, b], [1, 0]] with eigenvalues (a +- sqrt(a^2 + 4b)) / 2.  When the
discriminant is nonpositive the eigenvalues are a conjugate pair of modulus
sqrt(-b), which is the structural condition the certificate checks on every
eigen-coordinate of a quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._g17 import csv_rows
from .methods import MethodSpec, coefficient_arrays

DEFAULT_TOL = 1e-12
_ULPS = 4 * np.finfo(float).eps  # how far below 0 a rounded -b may read


def _require_tolerance(tol: float) -> None:
    if not (np.isfinite(tol) and tol >= 0.0):  # NaN or inf would decide every coordinate
        raise ValueError("tolerance must be finite and nonnegative")


@dataclass(frozen=True)
class SpectralCertificate:
    """Per-coordinate eigenstructure of a method on a spectrum.

    ``eligible`` means every coordinate carries a conjugate eigenvalue pair
    and the overall spectral radius is strictly below one: the three-point
    value V is then nonnegative and falls from every pair of starts.
    ``equal_start_monotone`` means every -b lies in [0, 1]: V is then
    nonnegative and nonincreasing from every equal start x_{-1} = x_0
    (``analyze`` derives both).  ``per_coordinate`` is a record array, one row
    per coordinate: ``lambda_w, a, b``, the dominant eigenvalue ``re, im``,
    the other one ``re2, -im``, its modulus ``rate``, and ``conjugate_pair``.
    """

    method: MethodSpec
    per_coordinate: np.recarray
    spectral_radius: float
    eligible: bool
    equal_start_monotone: bool


def _half_root(a, b):
    """sqrt(a^2 + 4b) / 2 from coefficients scaled to at most one in modulus,
    for when a^2 or 4b overflows; NaN for a complex pair."""
    s = np.maximum(np.abs(a), 2.0 * np.sqrt(np.abs(b)))
    t = a / s
    with np.errstate(invalid="ignore"):
        return s * np.sqrt(t * t + 4.0 * (b / s) / s) / 2.0


def analyze(spec: MethodSpec, eigvals: np.ndarray, tol: float = DEFAULT_TOL) -> SpectralCertificate:
    """Certificate for a method over a problem spectrum, on whole columns.

    A coordinate is a conjugate pair (repeated real allowed) iff its
    discriminant passes the relative test a^2 + 4b <= tol * max(1, a^2, |4b|),
    so boundary coordinates that land at +-1e-16 in floats classify stably;
    a positive discriminant inside that band counts as zero (the double root
    a/2).  A coordinate where a^2 or 4b overflows is never a pair; its real
    roots come from rescaled coefficients.

    What V covers, on coordinate i (z = x - x* in the eigenbasis, V_k =
    z_{k-1}^2 - z_k z_{k-2}, V_{k+1} = -b V_k): the first step from a pair of
    starts (z_{-1}, z_0) is z_1 = a z_0 + b z_{-1}, so
    V_1 = z_0^2 - a z_0 z_{-1} - b z_{-1}^2, a quadratic form with matrix
    [[1, -a/2], [-a/2, -b]].  It is nonnegative for every pair iff its
    determinant -b - a^2/4 >= 0, i.e. a^2 + 4b <= 0 (positive definite when
    < 0): a conjugate pair.  The same form in (z_{k-2}, z_{k-1}) is V_k, so
    on an eligible certificate V bounds the distance and falls by
    -b = |lambda|^2 < 1 per step from every start.  From an equal start
    z_{-1} = z_0, where a + b = 1 - alpha lambda (alpha the family's),
    V_1 = (1 - a - b) z_0^2 = alpha lambda z_0^2 >= 0 and
    V_k = (-b)^(k-1) alpha lambda z_0^2: V falls from every equal start iff
    0 <= -b <= 1 on every coordinate with lambda > 0, whatever the
    discriminant.  That is ``equal_start_monotone``, which says nothing of
    convergence (a run with radius above one may still have falling V) and
    nothing of the distance (V is not definite on a real split).  b is
    rounded, so -b may read a few ulps below an exact 0 (tuned TMM at L):
    the flag allows ``_ULPS``.  A -b of -t makes V_2 = -t V_1 and V_3 =
    t^2 V_1, a rise of about t V_1 <= 4 t z_0^2 (alpha lambda = 1 - a - b <= 4
    when |a| <= 2 and |b| <= 1), inside ``lyapunov._judge``'s slack at that
    step, 64 eps max(d)^2 >= 64 eps |z_0|^2, for t <= 4 eps.
    """
    lam = np.asarray(eigvals, dtype=float)
    if lam.ndim != 1 or lam.shape[0] < 1:
        raise ValueError("eigvals must be a nonempty vector")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    with np.errstate(invalid="ignore"):  # inf - inf: coefficient_arrays rejects it
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigvals must be sorted nondecreasing")
    _require_tolerance(tol)
    a, b = coefficient_arrays(spec, lam)
    # |a| > 1e154 overflows a*a to inf: handled below, no warning
    with np.errstate(over="ignore", invalid="ignore"):
        d = a * a + 4.0 * b
        scale = np.maximum(np.maximum(1.0, a * a), np.abs(4.0 * b))
        big = ~np.isfinite(scale)
        conj = (d <= tol * scale) & ~big
        s = np.sqrt(np.abs(d))
        # real split: roots (a +- sqrt(d)) / 2, the larger modulus first
        l1, l2 = (a + s) / 2.0, (a - s) / 2.0
        if big.any():  # the larger root from rescaled coefficients, then -b / it
            l1[big] = a[big] / 2.0 + np.copysign(_half_root(a[big], b[big]), a[big])
            l2[big] = -b[big] / l1[big]
        swap = np.abs(l2) > np.abs(l1)
        re = np.where(conj, a / 2.0, np.where(swap, l2, l1))
        re2 = np.where(conj, a / 2.0, np.where(swap, l1, l2))
        im = np.where(conj & (d < 0.0), s / 2.0, 0.0)
        rate = np.hypot(re, im)
    radius = float(rate.max())
    return SpectralCertificate(
        method=spec,
        per_coordinate=np.rec.fromarrays(
            [lam, a, b, re, im, re2, rate, conj],
            names="lambda_w,a,b,re,im,re2,rate,conjugate_pair"),
        spectral_radius=radius,
        eligible=bool(conj.all() and radius < 1.0),
        equal_start_monotone=bool(((b <= _ULPS) & (b >= -1.0)).all()),
    )


def certificate_csv_text(cert: SpectralCertificate) -> str:
    """One row per coordinate: lambda_W, a, b, Re/Im of the dominant eigenvalue,
    its modulus, and the conjugate-pair flag (1/0)."""
    r = cert.per_coordinate
    return ("lambda_W,a,b,re_lambda,im_lambda,modulus,conjugate_pair\n"
            + "".join(csv_rows([r.lambda_w, r.a, r.b, r.re, r.im, r.rate,
                                r.conjugate_pair.astype(float)])))


def certificate_report_text(cert: SpectralCertificate) -> str:
    """Line-oriented human-readable certificate summary."""
    m, r = cert.method, cert.per_coordinate
    lines = [
        f"method: {m.kind}  alpha={m.alpha:.12g}  beta={m.beta:.12g}  gamma={m.gamma:.12g}",
        f"coordinates: {len(r)}",
        f"spectral_radius: {cert.spectral_radius:.12g}",
        f"eligible: {'yes' if cert.eligible else 'no'}",
        f"equal_start_monotone: {'yes' if cert.equal_start_monotone else 'no'}",
    ]
    bad = r.lambda_w[~r.conjugate_pair]
    if bad.size:
        worst = ", ".join(f"{lam:.6g}" for lam in bad[:8].tolist())
        more = "" if bad.size <= 8 else f" (+{bad.size - 8} more)"
        lines.append(f"real-split coordinates at lambda: {worst}{more}")
    lines.append("idx  lambda_W        a               b               |lambda|       conjugate")
    row = "%-4d %-15.8g %-15.8g %-15.8g %-14.8g "
    table = "".join(map((row + "no\n", row + "yes\n").__getitem__, r.conjugate_pair.tolist()))
    cols = np.column_stack([np.arange(len(r)), r.lambda_w, r.a, r.b, r.rate])
    return "\n".join(lines) + "\n" + table % tuple(cols.ravel().tolist())
