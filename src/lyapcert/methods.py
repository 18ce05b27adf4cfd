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


@dataclass(frozen=True)
class TwoStepCoefficients:
    """Scalar recurrence coefficients (a, b) of x_{k+1} = a x_k + b x_{k-1}."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("coefficients must be finite")


@dataclass(frozen=True)
class IterationState:
    """Pair of consecutive iterates; ``auxiliary`` carries NAG-GS's y sequence."""

    current: np.ndarray
    previous: np.ndarray
    auxiliary: Optional[np.ndarray] = None

    def __post_init__(self):
        cur = np.asarray(self.current, dtype=float)
        prev = np.asarray(self.previous, dtype=float)
        if cur.ndim != 1 or cur.shape != prev.shape:
            raise ValueError("current and previous must be equal-length vectors")
        aux = self.auxiliary
        if aux is not None:
            aux = np.asarray(aux, dtype=float)
            if aux.shape != cur.shape:
                raise ValueError("auxiliary must match the iterate dimension")
        object.__setattr__(self, "current", cur)
        object.__setattr__(self, "previous", prev)
        object.__setattr__(self, "auxiliary", aux)


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
    """Vectorized scalar_coefficients over an eigenvalue array."""
    lam = np.asarray(eigvals, dtype=float)
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    al, be, ga = spec.alpha, spec.beta, spec.gamma
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
    # + 0.0 turns negative zeros (e.g. -s * be when s underflows to 0.0)
    # into plain zeros so serialized coefficients never read "-0"
    return a + 0.0, b + 0.0


def scalar_coefficients(spec: MethodSpec, lam: float) -> TwoStepCoefficients:
    """Recurrence coefficients of the method on the eigenvalue ``lam``."""
    if not math.isfinite(lam) or lam < 0:
        raise ValueError("lam must be finite and nonnegative")
    a, b = coefficient_arrays(spec, np.array([lam]))
    return TwoStepCoefficients(a=float(a[0]), b=float(b[0]))


def theoretical_rate(spec: MethodSpec, mu: float) -> float:
    """Guaranteed contraction factor per step, valid when the coefficients at
    ``lam = mu`` form a conjugate pair (the worst eigenvalue direction)."""
    from .spectral import IneligibleError, is_conjugate_pair

    c = scalar_coefficients(spec, mu)
    if not is_conjugate_pair(c):
        raise IneligibleError(
            f"{spec.kind} coefficients at lam={mu} have real split eigenvalues")
    if spec.kind == HB:
        return math.sqrt(spec.beta)
    if spec.kind == NAG:
        return math.sqrt((1.0 - spec.alpha * mu) * spec.beta)
    if spec.kind == TMM:
        return math.sqrt(spec.beta - spec.alpha * spec.gamma * mu)
    return spec.beta


def step_general(obj: Objective, spec: MethodSpec, state: IterationState) -> IterationState:
    """Advance one step using the literal method update and the gradient oracle."""
    cur, prev = state.current, state.previous
    if cur.shape[0] != obj.dim:
        raise ValueError("state dimension does not match the objective")
    al, be, ga = spec.alpha, spec.beta, spec.gamma
    if spec.kind == HB:
        nxt = cur - al * np.asarray(obj.gradient(cur), dtype=float) + be * (cur - prev)
        return IterationState(current=nxt, previous=cur)
    if spec.kind == NAG:
        y = cur + be * (cur - prev)
        nxt = y - al * np.asarray(obj.gradient(y), dtype=float)
        return IterationState(current=nxt, previous=cur, auxiliary=y)
    if spec.kind == TMM:
        z = (1.0 + ga) * cur - ga * prev
        nxt = (1.0 + be) * cur - be * prev - al * np.asarray(obj.gradient(z), dtype=float)
        return IterationState(current=nxt, previous=cur)
    # NAG-GS keeps the averaged sequence y as persistent auxiliary state
    if state.auxiliary is None:
        raise ValueError("NAG-GS requires the auxiliary y vector in the state")
    y = be * state.auxiliary + (1.0 - be) * cur - al * np.asarray(obj.gradient(cur), dtype=float)
    nxt = be * cur + (1.0 - be) * y
    return IterationState(current=nxt, previous=cur, auxiliary=y)
