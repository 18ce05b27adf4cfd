"""Scalar reference oracles: one coordinate, one (a, b) pair at a time.

The library computes coefficients, eigenvalues and V on whole columns
(``coefficient_arrays``, ``analyze``, ``run_trace``).  These plain
functions are the per-coordinate statements those columns are checked
against, written out with ``math`` on Python floats: the eigenvalues of the
companion matrix M = [[a, b], [1, 0]], the conjugate-pair test, the 2x2
Schur factorization behind the certificate, and the three-point value V.
"""

import math

import numpy as np

DEFAULT_TOL = 1e-12


def companion(a, b):
    """M = [[a, b], [1, 0]], the one-step matrix of x_{k+1} = a x_k + b x_{k-1}."""
    return np.array([[a, b], [1.0, 0.0]])


def _discriminant_scale(a, b):
    return a * a + 4.0 * b, max(1.0, a * a, abs(4.0 * b))


def _half_root(a, b):
    """sqrt(a^2 + 4b) / 2 from coefficients scaled to at most one in modulus;
    NaN for a complex pair."""
    s = max(abs(a), 2.0 * math.sqrt(abs(b)))
    t = a / s
    d = t * t + 4.0 * (b / s) / s
    return s * math.sqrt(d) / 2.0 if d >= 0.0 else math.nan


def is_conjugate_pair(a, b, tol=DEFAULT_TOL):
    """True iff the eigenvalues form a conjugate pair (repeated real allowed).

    The discriminant test is relative, a^2 + 4b <= tol * max(1, a^2, |4b|);
    a coordinate where a^2 or 4b overflows is never counted as a pair.
    """
    d, scale = _discriminant_scale(a, b)
    return d <= tol * scale and math.isfinite(scale)


def eigenvalues(a, b, tol=DEFAULT_TOL):
    """(lambda1, lambda2) of the companion matrix, dominant modulus first.

    Within the conjugate tolerance band the positive part of the discriminant
    is clamped to zero.
    """
    d, scale = _discriminant_scale(a, b)
    if not math.isfinite(scale):  # a^2 or 4b overflows: a real split, rescaled
        l1 = a / 2.0 + math.copysign(_half_root(a, b), a)
        return complex(l1, 0.0), complex(-b / l1, 0.0)
    if d > tol * scale:
        r = math.sqrt(d)
        l1, l2 = (a + r) / 2.0, (a - r) / 2.0
        if abs(l2) > abs(l1):
            l1, l2 = l2, l1
        return complex(l1, 0.0), complex(l2, 0.0)
    im = math.sqrt(-d) / 2.0 if d < 0.0 else 0.0
    return complex(a / 2.0, im), complex(a / 2.0, -im)


def schur(a, b, tol=DEFAULT_TOL):
    """(U, T) with M = U T U*, U unitary and T upper triangular.

    Requires a conjugate pair: with lambda2 = conj(lambda1) the basis

        u1 = (lambda1, 1) / n,   u2 = (1, -conj(lambda1)) / n,
        n = sqrt(1 + |lambda1|^2)

    is exactly unitary.  T has the eigenvalues on the diagonal, the lower-left
    entry is exact zero and t12 = u1* M u2.
    """
    if not is_conjugate_pair(a, b, tol):
        raise ValueError("real split eigenvalues: the conjugate basis is not unitary")
    l1, l2 = eigenvalues(a, b, tol)
    n = math.sqrt(1.0 + abs(l1) ** 2)
    u1 = np.array([l1, 1.0], dtype=complex) / n
    u2 = np.array([1.0, -np.conj(l1)], dtype=complex) / n
    U = np.column_stack([u1, u2])
    t12 = np.conj(u1) @ (companion(a, b).astype(complex) @ u2)
    T = np.array([[l1, t12], [0.0, l2]], dtype=complex)
    return U, T


def scalar_V(x_k, x_km1, x_km2):
    """V = x_{k-1}^2 - x_k x_{k-2} for one coordinate."""
    return x_km1 * x_km1 - x_k * x_km2


def per_coordinate_V(x_k, x_km1, x_km2):
    """Coordinate-wise V for eigenbasis iterates (already centred)."""
    return np.asarray(x_km1) * x_km1 - np.asarray(x_k) * x_km2


def vector_V(x_k, x_km1, x_km2, x_star):
    """V = ||x_{k-1} - x*||^2 - <x_k - x*, x_{k-2} - x*>, summed coordinate-wise."""
    x_star = np.asarray(x_star, dtype=float)
    return float(np.sum(per_coordinate_V(
        np.asarray(x_k, dtype=float) - x_star,
        np.asarray(x_km1, dtype=float) - x_star,
        np.asarray(x_km2, dtype=float) - x_star,
    )))
