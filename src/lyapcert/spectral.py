"""Spectral analysis of the per-coordinate 2x2 iteration matrices.

The recurrence x_{k+1} = a x_k + b x_{k-1} has companion matrix
M = [[a, b], [1, 0]] with eigenvalues (a +- sqrt(a^2 + 4b)) / 2.  When the
discriminant is nonpositive the eigenvalues are a conjugate pair of modulus
sqrt(-b), which is the structural condition the certificate checks on every
eigen-coordinate of a quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .methods import MethodSpec, coefficient_arrays

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class SpectralCertificate:
    """Per-coordinate eigenstructure of a method on a spectrum.

    ``eligible`` means every coordinate carries a conjugate eigenvalue pair
    and the overall spectral radius is strictly below one; that is exactly
    the premise under which the three-point Lyapunov value is guaranteed to
    decrease monotonically.  ``per_coordinate`` is a record array, one row
    per coordinate: ``lambda_w, a, b``, the dominant eigenvalue ``re, im``,
    the other one ``re2, -im``, its modulus ``rate``, and ``conjugate_pair``.
    """

    method: MethodSpec
    per_coordinate: np.recarray
    spectral_radius: float
    eligible: bool


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
    """
    lam = np.asarray(eigvals, dtype=float)
    if lam.ndim != 1 or lam.shape[0] < 1:
        raise ValueError("eigvals must be a nonempty vector")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    with np.errstate(invalid="ignore"):  # inf - inf: coefficient_arrays rejects it
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigvals must be sorted nondecreasing")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tolerance must be finite and nonnegative")
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
    )


def certificate_csv_text(cert: SpectralCertificate) -> str:
    """One row per coordinate: lambda_W, a, b, Re/Im of the dominant eigenvalue,
    its modulus, and the conjugate-pair flag (1/0)."""
    r = cert.per_coordinate
    cols = np.column_stack([r.lambda_w, r.a, r.b, r.re, r.im, r.rate, r.conjugate_pair])
    return ("lambda_W,a,b,re_lambda,im_lambda,modulus,conjugate_pair\n"
            + "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n" * len(r) % tuple(cols.ravel().tolist()))


def certificate_report_text(cert: SpectralCertificate) -> str:
    """Line-oriented human-readable certificate summary."""
    m, r = cert.method, cert.per_coordinate
    lines = [
        f"method: {m.kind}  alpha={m.alpha:.12g}  beta={m.beta:.12g}  gamma={m.gamma:.12g}",
        f"coordinates: {len(r)}",
        f"spectral_radius: {cert.spectral_radius:.12g}",
        f"eligible: {'yes' if cert.eligible else 'no'}",
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
