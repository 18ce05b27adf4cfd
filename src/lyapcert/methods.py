"""Two-step momentum methods: hyperparameters, coefficients, family map.

Every method is a member of one three-parameter family (Lessard, Recht and
Packard, 2016).  With d_k = x_k - x_{k-1}:

    x_{k+1} = x_k + beta d_k - alpha grad f(x_k + gamma d_k)

A ``MethodSpec`` holds the method's own hyperparameters; ``_family`` maps
them to the family's (alpha, beta, gamma):

    HB      (alpha,            beta,     0)
    NAG     (alpha,            beta,     beta)
    TMM     (alpha,            beta,     gamma)
    NAG-GS  (alpha (1 - beta), beta^2,   0)   its averaged sequence y eliminated

On a quadratic, per eigen-coordinate with eigenvalue ``lam``, the family is
the scalar recurrence ``x_{k+1} = a x_k + b x_{k-1}`` around the minimizer
with ``a = 1 + beta - alpha (1 + gamma) lam`` and ``b = alpha gamma lam - beta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import _require_finite_bounds

HB = "HB"
NAG = "NAG"
TMM = "TMM"
NAGGS = "NAGGS"
KINDS = (HB, NAG, TMM, NAGGS)


@dataclass(frozen=True)
class MethodSpec:
    """A method kind with hyperparameters. ``gamma`` is meaningful for TMM only."""

    kind: str
    alpha: float
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.kind != TMM and self.beta < 0:
            raise ValueError("beta must be nonnegative for HB/NAG/NAG-GS")
        if self.kind != TMM and self.gamma != 0.0:
            raise ValueError("gamma is only used by TMM")


def optimal_hyperparams(kind: str, mu: float, L: float) -> MethodSpec:
    """Classical per-method tuned hyperparameters for a [mu, L] spectrum.

    Requires mu > 0; for mu == L the methods degenerate to a plain gradient
    step (HB/NAG get beta = 0).  A spectrum so large that HB's (sqrt(L) +
    sqrt(mu))^2 overflows, or NAG-GS's sqrt(mu) (sqrt(L) + sqrt(mu)) with it
    (its alpha then reads 0), is refused by name, and so is one so small
    (subnormal) that any kind's alpha overflows to inf.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown method kind {kind!r}")
    _require_finite_bounds(mu, L)
    if mu <= 0:
        raise ValueError("mu must be positive for tuned hyperparameters")
    if L < mu:
        raise ValueError("L must be >= mu")
    sL, sm = math.sqrt(L), math.sqrt(mu)
    overflow = ValueError(f"tuned {kind} hyperparameters overflow for mu={mu:g}, L={L:g}")
    try:
        if kind == HB:
            hyper = 4.0 / (sL + sm) ** 2, ((sL - sm) / (sL + sm)) ** 2, 0.0
        elif kind == NAG:
            hyper = 1.0 / L, (sL - sm) / (sL + sm), 0.0
        elif kind == TMM:
            rho = 1.0 - sm / sL
            hyper = (1.0 + rho) / L, rho ** 2 / (2.0 - rho), rho ** 2 / ((1.0 + rho) * (2.0 - rho))
        else:
            hyper = 2.0 / (sm * (sL + sm)), (sL - sm) / (sL + sm), 0.0
    except OverflowError:  # a float's ** raises where * gives inf
        raise overflow from None
    if not 0.0 < hyper[0] < math.inf:  # NAG-GS: 2 / inf; a subnormal L: 1 / L
        raise overflow
    return MethodSpec(kind, *hyper)


def _family(spec: MethodSpec) -> tuple[float, float, float]:
    """The family's (alpha, beta, gamma) for ``spec``: the only place a
    method's update rule is spelled out."""
    if spec.kind == NAG:
        return spec.alpha, spec.beta, spec.beta
    if spec.kind == NAGGS:
        return spec.alpha * (1.0 - spec.beta), spec.beta * spec.beta, 0.0
    return spec.alpha, spec.beta, spec.gamma  # HB's gamma is 0


def coefficient_arrays(spec: MethodSpec, eigvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence coefficients (a, b) of the method on each eigenvalue; raises
    if a coefficient is not finite (e.g. alpha * lam overflows)."""
    lam = np.asarray(eigvals, dtype=float)
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    al, be, ga = _family(spec)
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        a = 1.0 + be - al * (1.0 + ga) * lam
        b = al * ga * lam - be
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("coefficients must be finite")
    # + 0.0 turns negative zeros (e.g. alpha gamma lam - beta at lam = 0 with
    # gamma < 0 and beta = 0) into plain zeros so serialized coefficients
    # never read "-0"
    return a + 0.0, b + 0.0

