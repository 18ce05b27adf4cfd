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

from .methods import MethodSpec, TwoStepCoefficients, coefficient_arrays

DEFAULT_TOL = 1e-12


class IneligibleError(ValueError):
    """Raised when an operation needs the conjugate-pair premise and it fails."""


@dataclass(frozen=True)
class ComplexPair:
    """Eigenvalue pair of a companion matrix, dominant modulus first."""

    lambda1: complex
    lambda2: complex


@dataclass(frozen=True)
class SchurFactors:
    """Unitary U and upper-triangular T with M = U T U*."""

    U: np.ndarray
    T: np.ndarray


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


def companion_matrix(c: TwoStepCoefficients) -> np.ndarray:
    return np.array([[c.a, c.b], [1.0, 0.0]])


def _discriminant_scale(a: float, b: float) -> tuple[float, float]:
    return a * a + 4.0 * b, max(1.0, a * a, abs(4.0 * b))


def _half_root(a, b):
    """sqrt(a^2 + 4b) / 2 from coefficients scaled to at most one in modulus,
    for when a^2 or 4b overflows; NaN for a complex pair."""
    s = np.maximum(np.abs(a), 2.0 * np.sqrt(np.abs(b)))
    t = a / s
    with np.errstate(invalid="ignore"):
        return s * np.sqrt(t * t + 4.0 * (b / s) / s) / 2.0


def is_conjugate_pair(c: TwoStepCoefficients, tol: float = DEFAULT_TOL) -> bool:
    """True iff the eigenvalues form a conjugate pair (repeated real allowed).

    The discriminant test is relative, a^2 + 4b <= tol * max(1, a^2, |4b|),
    so boundary coordinates that land at +-1e-16 in floats classify stably.
    A coordinate where a^2 or 4b overflows is never counted as a pair.
    """
    d, scale = _discriminant_scale(c.a, c.b)
    return d <= tol * scale and math.isfinite(scale)


def eigenvalues_2x2(c: TwoStepCoefficients, tol: float = DEFAULT_TOL) -> ComplexPair:
    """Eigenvalues of the companion matrix, dominant modulus first.

    Within the conjugate tolerance band the positive part of the discriminant
    is clamped to zero so the reported moduli match sqrt(-b) exactly.
    """
    d, scale = _discriminant_scale(c.a, c.b)
    if not math.isfinite(scale):  # a^2 or 4b overflows: a real split, rescaled
        l1 = c.a / 2.0 + math.copysign(float(_half_root(c.a, c.b)), c.a)
        return ComplexPair(complex(l1, 0.0), complex(-c.b / l1, 0.0))
    if d > tol * scale:
        r = math.sqrt(d)
        l1, l2 = (c.a + r) / 2.0, (c.a - r) / 2.0
        if abs(l2) > abs(l1):
            l1, l2 = l2, l1
        return ComplexPair(complex(l1, 0.0), complex(l2, 0.0))
    im = math.sqrt(-d) / 2.0 if d < 0.0 else 0.0
    return ComplexPair(complex(c.a / 2.0, im), complex(c.a / 2.0, -im))


def schur_2x2(c: TwoStepCoefficients, tol: float = DEFAULT_TOL) -> SchurFactors:
    """Schur factorization M = U T U* built from the eigenvector (lambda1, 1).

    Requires a conjugate pair: with lambda2 = conj(lambda1) the basis

        u1 = (lambda1, 1) / n,   u2 = (1, -conj(lambda1)) / n,
        n = sqrt(1 + |lambda1|^2)

    is exactly unitary.  T has the eigenvalues on the diagonal, the lower-left
    entry is exact zero and t12 = u1* M u2.
    """
    if not is_conjugate_pair(c, tol):
        raise IneligibleError("real split eigenvalues: the conjugate basis is not unitary")
    pair = eigenvalues_2x2(c, tol)
    l1, l2 = pair.lambda1, pair.lambda2
    n = math.sqrt(1.0 + abs(l1) ** 2)
    u1 = np.array([l1, 1.0], dtype=complex) / n
    u2 = np.array([1.0, -np.conj(l1)], dtype=complex) / n
    U = np.column_stack([u1, u2])
    M = companion_matrix(c).astype(complex)
    t12 = np.conj(u1) @ (M @ u2)
    T = np.array([[l1, t12], [0.0, l2]], dtype=complex)
    return SchurFactors(U=U, T=T)


def analyze(spec: MethodSpec, eigvals: np.ndarray, tol: float = DEFAULT_TOL) -> SpectralCertificate:
    """Certificate for a method over a problem spectrum: the arithmetic of
    ``is_conjugate_pair`` and ``eigenvalues_2x2`` on whole columns at once."""
    lam = np.asarray(eigvals, dtype=float)
    if lam.ndim != 1 or lam.shape[0] < 1:
        raise ValueError("eigvals must be a nonempty vector")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    with np.errstate(invalid="ignore"):  # inf - inf: non-finite coefficients, below
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigvals must be sorted nondecreasing")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tolerance must be finite and nonnegative")
    a, b = coefficient_arrays(spec, lam)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("coefficients must be finite")
    # |a| > 1e154 overflows a*a to inf; like the scalar reference, no warning
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
    lines = ["lambda_W,a,b,re_lambda,im_lambda,modulus,conjugate_pair"]
    for lam, a, b, re, im, rate, conj in zip(
            r.lambda_w.tolist(), r.a.tolist(), r.b.tolist(), r.re.tolist(),
            r.im.tolist(), r.rate.tolist(), r.conjugate_pair.tolist()):
        lines.append(f"{lam:.17g},{a:.17g},{b:.17g},{re:.17g},{im:.17g},"
                     f"{rate:.17g},{1 if conj else 0}")
    return "\n".join(lines) + "\n"


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
    for i, (lam, a, b, rate, conj) in enumerate(zip(
            r.lambda_w.tolist(), r.a.tolist(), r.b.tolist(), r.rate.tolist(),
            r.conjugate_pair.tolist())):
        lines.append(
            f"{i:<4d} {lam:<15.8g} {a:<15.8g} {b:<15.8g} "
            f"{rate:<14.8g} {'yes' if conj else 'no'}"
        )
    return "\n".join(lines) + "\n"
