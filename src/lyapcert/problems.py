"""Quadratic test problems and non-quadratic objectives with analytic gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_RECONSTRUCTION_TOL = 1e-10
_ORTHOGONALITY_TOL = 1e-10
_RESIDUAL_TOL = 1e-8


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuadraticProblem:
    """Convex quadratic ``0.5 x'Wx - linear'x + constant`` with known eigenfactors.

    ``W = eigvecs @ diag(eigvals) @ eigvecs.T`` with ``eigvals`` nondecreasing,
    ``mu = eigvals[0]`` and ``lipschitz = eigvals[-1]``.  ``minimizer`` is the
    point used to form ``linear = W @ minimizer``; it is the unique minimizer
    when ``mu > 0`` and one of infinitely many when ``mu == 0``.
    """

    dim: int
    W: np.ndarray
    linear: np.ndarray
    constant: float
    eigvals: np.ndarray
    eigvecs: np.ndarray
    minimizer: np.ndarray
    mu: float
    lipschitz: float

    def __post_init__(self):
        d = self.dim
        if d < 1:
            raise ValueError("dim must be >= 1")
        W = np.asarray(self.W, dtype=float)
        vals = np.asarray(self.eigvals, dtype=float)
        vecs = np.asarray(self.eigvecs, dtype=float)
        lin = np.asarray(self.linear, dtype=float)
        mini = np.asarray(self.minimizer, dtype=float)
        if W.shape != (d, d) or vecs.shape != (d, d):
            raise ValueError("W and eigvecs must be dim x dim")
        if vals.shape != (d,) or lin.shape != (d,) or mini.shape != (d,):
            raise ValueError("eigvals, linear and minimizer must be dim-vectors")
        scale = max(1.0, float(np.abs(W).max()))
        if np.abs(W - W.T).max() > 1e-10 * scale:
            raise ValueError("W must be symmetric")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigvals must be nondecreasing")
        if vals[0] < 0:
            raise ValueError("eigvals must be nonnegative")
        if not (math.isclose(self.mu, vals[0], rel_tol=0, abs_tol=1e-12 * scale)
                and math.isclose(self.lipschitz, vals[-1], rel_tol=0, abs_tol=1e-12 * scale)):
            raise ValueError("mu and lipschitz must equal the extreme eigenvalues")
        if self.lipschitz <= 0:
            raise ValueError("lipschitz must be positive")
        ortho = np.abs(vecs.T @ vecs - np.eye(d)).max()
        if ortho > _ORTHOGONALITY_TOL:
            raise ValueError("eigvecs must be orthogonal")
        recon = (vecs * vals) @ vecs.T
        err = np.linalg.norm(W - recon) / max(np.linalg.norm(W), 1e-300)
        if err > _RECONSTRUCTION_TOL:
            raise ValueError("W does not match its eigenfactors")
        if self.mu > 0:
            resid = np.linalg.norm(W @ mini - lin)
            if resid > _RESIDUAL_TOL * max(np.linalg.norm(lin), 1e-300):
                raise ValueError("minimizer does not solve W x = linear")
        # freeze arrays so instances are safe to share
        object.__setattr__(self, "W", _readonly(W))
        object.__setattr__(self, "linear", _readonly(lin))
        object.__setattr__(self, "eigvals", _readonly(vals))
        object.__setattr__(self, "eigvecs", _readonly(vecs))
        object.__setattr__(self, "minimizer", _readonly(mini))

    @property
    def unique_minimizer(self) -> bool:
        return self.mu > 0

    def evaluate(self, x: np.ndarray) -> float:
        """Objective value ``0.5 x'Wx - linear'x + constant``."""
        x = self._point(x)
        return float(0.5 * (x @ (self.W @ x)) - self.linear @ x + self.constant)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient ``Wx - linear``."""
        return self.W @ self._point(x) - self.linear

    def as_objective(self) -> "Objective":
        """Wrap the quadratic behind the value/gradient oracle interface."""
        return Objective(dim=self.dim, value=self.evaluate, gradient=self.gradient,
                         minimizer=self.minimizer, mu=self.mu, lipschitz=self.lipschitz)

    def _point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError("x has wrong dimension")
        return x


@dataclass(frozen=True)
class Objective:
    """Black-box objective given by value and gradient oracles."""

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    minimizer: Optional[np.ndarray] = None
    mu: Optional[float] = None
    lipschitz: Optional[float] = None


def _require_finite_bounds(mu: float, L: float) -> None:
    """Reject a NaN or infinite spectrum bound by name."""
    for name, value in (("mu", mu), ("L", L)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_spectrum(mu: float, L: float) -> None:
    """Reject bounds that span no eigenvalue grid: non-finite, a negative
    ``mu``, or an ``L - mu`` beyond the largest double."""
    _require_finite_bounds(mu, L)
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if not math.isfinite(L - mu):
        raise ValueError(f"L - mu must be finite, got {L - mu}")


def generate_quadratic(dim: int, mu: float, L: float, seed: int) -> QuadraticProblem:
    """Build a random quadratic with an equally spaced spectrum on [mu, L].

    The eigenvector basis is orthogonal (QR of a standard normal matrix with
    sign-corrected R diagonal) and the minimizer has standard normal entries;
    draw order is fixed so a seed fully determines the problem.  For
    ``dim == 1`` the single eigenvalue is ``L``.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    _require_spectrum(mu, L)
    if L <= mu and not (dim == 1 and L == mu):
        raise ValueError("L must exceed mu (mu == L only for dim == 1)")
    if L <= 0:
        raise ValueError("L must be positive")
    rng = np.random.default_rng(seed)
    if dim == 1:
        eigvals = np.array([float(L)])
    else:
        eigvals = np.linspace(mu, L, dim)
    raw = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    q = q * signs
    minimizer = rng.standard_normal(dim)
    W = (q * eigvals) @ q.T
    W = (W + W.T) / 2.0
    linear = W @ minimizer
    return QuadraticProblem(
        dim=dim,
        W=W,
        linear=linear,
        constant=0.0,
        eigvals=eigvals,
        eigvecs=q,
        minimizer=minimizer,
        mu=float(eigvals[0]),
        lipschitz=float(eigvals[-1]),
    )


def cosine_counterexample() -> Objective:
    """Strongly convex 1-d objective x^2 + (1.99/400) cos(20 x).

    Second derivative 2 - 1.99 cos(20 x) stays in [0.01, 3.99], so mu = 0.01,
    L = 3.99 and the unique minimizer is 0.
    """
    amp = 1.99 / 400.0

    def value(x: np.ndarray) -> float:
        t = float(np.asarray(x, dtype=float)[0])
        return t * t + amp * math.cos(20.0 * t)

    def grad(x: np.ndarray) -> np.ndarray:
        t = float(np.asarray(x, dtype=float)[0])
        return np.array([2.0 * t - amp * 20.0 * math.sin(20.0 * t)])

    return Objective(dim=1, value=value, gradient=grad,
                     minimizer=np.zeros(1), mu=0.01, lipschitz=3.99)


def exp_norm_objective(dim: int = 2) -> Objective:
    """Convex objective exp(||x||^2); gradient 2 exp(||x||^2) x, minimizer 0."""
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def value(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(math.exp(float(x @ x)))

    def grad(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 2.0 * math.exp(float(x @ x)) * x

    return Objective(dim=dim, value=value, gradient=grad, minimizer=np.zeros(dim))


def rosenbrock_objective() -> Objective:
    """Nonconvex 2-d Rosenbrock (1-x)^2 + 100 (y-x^2)^2 with minimizer (1, 1)."""

    def value(x: np.ndarray) -> float:
        a, b = float(x[0]), float(x[1])
        return (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2

    def grad(x: np.ndarray) -> np.ndarray:
        a, b = float(x[0]), float(x[1])
        return np.array([
            -2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
            200.0 * (b - a * a),
        ])

    return Objective(dim=2, value=value, gradient=grad, minimizer=np.array([1.0, 1.0]))


_ARRAYS = ("W", "linear", "constant", "eigvals", "eigvecs", "minimizer")


def save_problem(p: QuadraticProblem, path) -> None:
    """Serialize a problem to .npz (arrays plus scalars)."""
    np.savez(
        path,
        W=p.W,
        linear=p.linear,
        constant=np.array(p.constant),
        eigvals=p.eigvals,
        eigvecs=p.eigvecs,
        minimizer=p.minimizer,
    )


def load_problem(path) -> QuadraticProblem:
    """Load a problem written by save_problem; a missing array or an empty
    spectrum raises ValueError naming the file."""
    npz = np.load(path)
    if not isinstance(npz, np.lib.npyio.NpzFile):  # a bare .npy array
        raise ValueError(f"{path}: not an .npz problem file")
    with npz:
        for k in _ARRAYS:
            if k not in npz.files:
                raise ValueError(f"{path}: no {k} array in the problem file")
        data = {k: npz[k] for k in _ARRAYS}
    vals = data["eigvals"]
    if vals.ndim != 1 or vals.shape[0] < 1:
        raise ValueError(f"{path}: the problem has no eigenvalues")
    return QuadraticProblem(
        dim=int(vals.shape[0]),
        W=data["W"],
        linear=data["linear"],
        constant=float(data["constant"]),
        eigvals=vals,
        eigvecs=data["eigvecs"],
        minimizer=data["minimizer"],
        mu=float(vals[0]),
        lipschitz=float(vals[-1]),
    )
