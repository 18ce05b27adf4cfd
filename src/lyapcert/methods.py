"""Two-step momentum methods: hyperparameters, coefficients, oracle step.

Each method reduces, on a quadratic and per eigen-coordinate, to the scalar
recurrence ``x_{k+1} = a x_k + b x_{k-1}`` around the minimizer.  The
coefficient rows implemented here (general hyperparameters, eigenvalue
``lam``):

    HB      a = 1 - alpha lam + beta            b = -beta
    NAG     a = (1 - alpha lam)(1 + beta)       b = -(1 - alpha lam) beta
    TMM     a = 1 + beta - alpha(1+gamma) lam   b = alpha gamma lam - beta
    NAG-GS  a = 2 beta + (1-beta)^2
                - alpha (1-beta) lam            b = -beta^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import Objective, _require_finite_bounds

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
    step (HB/NAG get beta = 0).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown method kind {kind!r}")
    _require_finite_bounds(mu, L)
    if mu <= 0:
        raise ValueError("mu must be positive for tuned hyperparameters")
    if L < mu:
        raise ValueError("L must be >= mu")
    sL, sm = math.sqrt(L), math.sqrt(mu)
    if kind == HB:
        return MethodSpec(HB, alpha=4.0 / (sL + sm) ** 2, beta=((sL - sm) / (sL + sm)) ** 2)
    if kind == NAG:
        return MethodSpec(NAG, alpha=1.0 / L, beta=(sL - sm) / (sL + sm))
    if kind == TMM:
        rho = 1.0 - sm / sL
        return MethodSpec(
            TMM,
            alpha=(1.0 + rho) / L,
            beta=rho ** 2 / (2.0 - rho),
            gamma=rho ** 2 / ((1.0 + rho) * (2.0 - rho)),
        )
    denom = L + mu + 2.0 * math.sqrt(mu * L)
    return MethodSpec(NAGGS, alpha=(2.0 + 2.0 * math.sqrt(L / mu)) / denom, beta=(L - mu) / denom)


def coefficient_arrays(spec: MethodSpec, eigvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence coefficients (a, b) of the method on each eigenvalue; raises
    if a coefficient is not finite (e.g. alpha * lam overflows)."""
    lam = np.asarray(eigvals, dtype=float)
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    al, be, ga = spec.alpha, spec.beta, spec.gamma
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        if spec.kind == HB:
            a = 1.0 - al * lam + be
            b = np.full_like(lam, -be)
        elif spec.kind == NAG:
            s = 1.0 - al * lam
            a = s * (1.0 + be)
            b = -s * be
        elif spec.kind == TMM:
            a = 1.0 + be - al * (1.0 + ga) * lam
            b = al * ga * lam - be
        else:  # NAGGS
            a = 2.0 * be + (1.0 - be) ** 2 - al * (1.0 - be) * lam
            b = np.full_like(lam, -be * be)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("coefficients must be finite")
    # + 0.0 turns negative zeros (e.g. -s * be when s underflows to 0.0)
    # into plain zeros so serialized coefficients never read "-0"
    return a + 0.0, b + 0.0


def _step(obj: Objective, spec: MethodSpec, cur: np.ndarray, prev: np.ndarray,
          aux: Optional[np.ndarray]) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """One literal method update through the gradient oracle: x_{k+1} and
    the auxiliary y, which only NAG-GS reads and updates."""
    al, be, ga = spec.alpha, spec.beta, spec.gamma
    if spec.kind == HB:
        return cur - al * np.asarray(obj.gradient(cur), dtype=float) + be * (cur - prev), aux
    if spec.kind == NAG:
        y = cur + be * (cur - prev)
        return y - al * np.asarray(obj.gradient(y), dtype=float), aux
    if spec.kind == TMM:
        z = (1.0 + ga) * cur - ga * prev
        return (1.0 + be) * cur - be * prev - al * np.asarray(obj.gradient(z), dtype=float), aux
    # NAG-GS keeps the averaged sequence y as persistent auxiliary state
    y = be * aux + (1.0 - be) * cur - al * np.asarray(obj.gradient(cur), dtype=float)
    return be * cur + (1.0 - be) * y, y
