"""Quadratic test problems and non-quadratic objectives with analytic gradients."""

from __future__ import annotations

import math
import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat, starmap
from typing import Callable, Optional

import numpy as np

from ._files import whole_file

_RECONSTRUCTION_TOL = 1e-10
_ORTHOGONALITY_TOL = 1e-10
_RESIDUAL_TOL = 1e-8


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """Convex quadratic ``0.5 x'Wx - linear'x + constant`` given by its
    eigendecomposition.

    ``eigvals`` is nondecreasing and ``W = eigvecs @ diag(eigvals) @
    eigvecs.T``; ``mu = eigvals[0]``, ``lipschitz = eigvals[-1]`` and
    ``linear = W @ minimizer``.  ``minimizer`` is the unique minimizer when
    ``mu > 0`` and one of infinitely many when ``mu == 0``.  ``W`` and
    ``linear`` are computed on first read.  Problems compare and hash by
    identity, as array fields have no single truth value.
    """

    eigvals: np.ndarray
    eigvecs: np.ndarray
    minimizer: np.ndarray
    constant: float = 0.0

    def __post_init__(self):
        vals = _readonly(self.eigvals)
        vecs = _readonly(self.eigvecs)
        mini = _readonly(self.minimizer)
        if vals.ndim != 1 or vals.shape[0] < 1:
            raise ValueError("eigvals must be a nonempty vector")
        d = vals.shape[0]
        if vecs.shape != (d, d):
            raise ValueError("eigvecs must be dim x dim")
        if mini.shape != (d,):
            raise ValueError("minimizer must be a dim-vector")
        # comparisons are written so that a NaN fails them
        if not np.all(np.diff(vals) >= 0):
            raise ValueError("eigvals must be nondecreasing")
        if not vals[0] >= 0:
            raise ValueError("eigvals must be nonnegative")
        if not vals[-1] > 0:
            raise ValueError("lipschitz must be positive")
        # |vecs'vecs - I| in place on the one Gram matrix, without an identity
        gram = vecs.T @ vecs
        gram.flat[::d + 1] -= 1.0
        if not np.abs(gram, out=gram).max() <= _ORTHOGONALITY_TOL:
            raise ValueError("eigvecs must be orthogonal")
        # freeze arrays so instances are safe to share
        object.__setattr__(self, "eigvals", vals)
        object.__setattr__(self, "eigvecs", vecs)
        object.__setattr__(self, "minimizer", mini)

    @property
    def dim(self) -> int:
        return self.eigvals.shape[0]

    @property
    def mu(self) -> float:
        return float(self.eigvals[0])

    @property
    def lipschitz(self) -> float:
        return float(self.eigvals[-1])

    @cached_property
    def W(self) -> np.ndarray:
        W = (self.eigvecs * self.eigvals) @ self.eigvecs.T
        W = (W + W.T) / 2.0
        W.flags.writeable = False
        return W

    @cached_property
    def linear(self) -> np.ndarray:
        linear = self.W @ self.minimizer
        linear.flags.writeable = False
        return linear


@dataclass(frozen=True, eq=False)
class Objective:
    """Black-box objective given by value and gradient oracles over stacks of
    points; compared and hashed by identity.

    ``value`` maps a stack of points, an array of shape (..., dim), to the
    (...) array of their values, and ``gradient`` maps it to the (..., dim)
    array of their gradients; a bare (dim,) point is a stack of none, with a
    0-d value.  Each point's result must not depend on the rest of the
    stack, to the bit: the trace driver takes the gradients of a batch's
    live runs in one call per row and the values of a run's rows in one call
    per block, and a batch equals its runs made one at a time only if the
    oracles do not look past the point.  A row product such as ``x @ W``
    over the stack is not batch-invariant (a BLAS matrix product differs
    from its rows' products); the dot of one point's vectors
    (``np.matmul(x[..., None, :], v[..., :, None])``) and elementwise ufuncs
    are.
    """

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
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


def _spectrum_grid(mu: float, L: float, n: int) -> np.ndarray:
    """n equally spaced eigenvalues on [mu, L]; L alone for one point."""
    return np.linspace(mu, L, n) if n > 1 else np.array([float(L)])


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
    eigvals = _spectrum_grid(mu, L, dim)
    # only Q outlives the factorisation: its column signs are read off R
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.where(np.diag(r) < 0, -1.0, 1.0)
    del r
    minimizer = rng.standard_normal(dim)
    return QuadraticProblem(eigvals, q, minimizer)


def cosine_counterexample() -> Objective:
    """Strongly convex 1-d objective x^2 + (1.99/400) cos(20 x).

    Second derivative 2 - 1.99 cos(20 x) stays in [0.01, 3.99], so mu = 0.01,
    L = 3.99 and the unique minimizer is 0.
    """
    amp = 1.99 / 400.0

    def value(x: np.ndarray) -> np.ndarray:
        t = np.asarray(x, dtype=float)[..., 0]
        with np.errstate(over="ignore"):
            return t * t + amp * _inf_on_overflow(_cos, 20.0 * t)

    def grad(x: np.ndarray) -> np.ndarray:
        return _each_point(lambda t: (2.0 * t - amp * 20.0 * _sin(20.0 * t),), x)

    return Objective(dim=1, value=value, gradient=grad,
                     minimizer=np.zeros(1), mu=0.01, lipschitz=3.99)


def _nan_at_inf(fn: Callable[[float], float]) -> Callable[[float], float]:
    """``fn``, ``math.cos`` or ``math.sin``, with C's NaN at +-inf, where
    ``math`` raises ``ValueError``: a point so far out (|x| >= about 9e306
    for cosine's 20 x) gives a non-finite result, which the driver refuses."""
    return lambda t: math.nan if math.isinf(t) else fn(t)


_cos, _sin = _nan_at_inf(math.cos), _nan_at_inf(math.sin)


def _inf_on_overflow(fn: Callable[..., float], x: np.ndarray, *args) -> np.ndarray:
    """``fn(t, *args)`` of each entry t of the array ``x``, in its shape, by
    libm one entry at a time (numpy's SIMD ``exp`` differs from
    ``math.exp``, and its square from ``pow``, in the last bit of some
    arguments), with ``inf`` where it overflows instead of an error, so the
    trace driver reports the non-finite value or iterate it leads to."""
    def one(t: float) -> float:
        try:
            return fn(t, *args)
        except OverflowError:
            return math.inf

    entries = x.ravel().tolist()
    try:  # overflows are rare: one ``map`` first, and entry by entry after one
        out = list(map(fn, entries, *map(repeat, args)))
    except OverflowError:
        out = list(map(one, entries))
    return np.array(out).reshape(x.shape)


def _each_point(f: Callable[..., tuple], x: np.ndarray) -> np.ndarray:
    """``f(*point)``, a gradient as a tuple, of each point of the stack ``x``
    (..., d), in ``x``'s shape: Python float arithmetic and libm, as cheap as
    numpy on the few points of a row, and an overflow is ``inf`` with no
    warning."""
    x = np.asarray(x, dtype=float)
    out = chain.from_iterable(starmap(f, x.reshape(-1, x.shape[-1]).tolist()))
    return np.fromiter(out, float, x.size).reshape(x.shape)


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Each point's dot x.x over the last axis, for a stack of any leading
    shape in one call: the BLAS dot of ``x @ x`` and ``np.linalg.norm``, to
    the bit, whatever else the stack holds."""
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


def exp_norm_objective(dim: int = 2) -> Objective:
    """Convex objective exp(||x||^2); gradient 2 exp(||x||^2) x, minimizer 0."""
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def value(x: np.ndarray) -> np.ndarray:
        return _inf_on_overflow(math.exp, _squared_norms(np.asarray(x, dtype=float)))

    def grad(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan
            return (2.0 * _inf_on_overflow(math.exp, _squared_norms(x)))[..., None] * x

    return Objective(dim=dim, value=value, gradient=grad, minimizer=np.zeros(dim))


def rosenbrock_objective() -> Objective:
    """Nonconvex 2-d Rosenbrock (1-x)^2 + 100 (y-x^2)^2 with minimizer (1, 1)."""

    def value(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        a, b = x[..., 0], x[..., 1]
        # pow(t, 2) is ``t ** 2``; the product t * t can differ in the last bit
        with np.errstate(over="ignore", invalid="ignore"):
            return (_inf_on_overflow(pow, 1.0 - a, 2)
                    + 100.0 * _inf_on_overflow(pow, b - a * a, 2))

    def grad(x: np.ndarray) -> np.ndarray:
        return _each_point(lambda a, b: (-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                                         200.0 * (b - a * a)), x)

    return Objective(dim=2, value=value, gradient=grad, minimizer=np.array([1.0, 1.0]))


_ARRAYS = ("W", "linear", "constant", "eigvals", "eigvecs", "minimizer")


def save_problem(p: QuadraticProblem, path) -> None:
    """Serialize a problem as an .npz archive (arrays plus scalars) to
    exactly ``path``, whole or not at all; no suffix is added.  A problem
    whose ``W`` or ``linear`` overflows is refused (ValueError naming its
    L) before anything is written."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        W, linear = p.W, p.linear
    if not (np.isfinite(W).all() and np.isfinite(linear).all()):
        raise ValueError(f"L = {p.lipschitz:g} is too large: W or linear of the "
                         "problem is not finite")
    with whole_file(path) as fh:
        np.savez(
            fh.buffer,
            W=W,
            linear=linear,
            constant=np.array(p.constant),
            eigvals=p.eigvals,
            eigvecs=p.eigvecs,
            minimizer=p.minimizer,
        )


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)``, finite wherever the true norm is.  numpy sums
    the squares, which overflow once entries pass about 1.3e154; such a norm
    is taken again on a copy scaled by a power of two, which is exact, so
    every other norm keeps numpy's bits."""
    with np.errstate(over="ignore"):
        n = np.linalg.norm(x)
        if np.isinf(n):
            e = math.frexp(np.abs(x).max())[1]
            n = np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e)
    return float(n)


# what numpy and zipfile raise on a file that is no .npz archive of arrays:
# empty, cut short, corrupt, or a pickle, which is never loaded
_UNREADABLE = (EOFError, NotImplementedError, RuntimeError, ValueError,
               zipfile.BadZipFile, zlib.error)


def load_problem(path) -> QuadraticProblem:
    """Load a problem written by save_problem.

    Every array must be real, ``constant`` a 0-d number and ``eigvals`` a
    vector; the file's ``W`` and ``linear`` must agree with its eigenfactors:
    a missing or malformed array, an empty spectrum or a disagreement raises
    ValueError.  The problem returned derives ``W`` and ``linear`` from the
    factors.  The reconstruction of ``W`` is formed as B B' with B =
    eigvecs * sqrt(eigvals), one symmetric product; the checks hold at most
    two d x d work arrays beside ``W`` and the factors, B and the product.
    The norms hold at any finite scale.  A file that cannot be read as an
    .npz archive of arrays raises ValueError too."""
    # the file is opened here, so it is closed whatever np.load raises
    with open(path, "rb") as fh:
        try:
            npz = np.load(fh)
            if not isinstance(npz, np.lib.npyio.NpzFile):  # a bare .npy array
                raise ValueError
            with npz:
                missing = [k for k in _ARRAYS if k not in npz.files]
                data = {} if missing else {k: npz[k] for k in _ARRAYS}
        except _UNREADABLE:
            raise ValueError(f"{path}: not an .npz problem file") from None
    if missing:
        raise ValueError(f"{path}: no {missing[0]} array in the problem file")
    for k in _ARRAYS:  # before any conversion to float
        if data[k].dtype.kind not in "biuf":
            raise ValueError(f"{path}: {k} must be real")
    if data["constant"].ndim != 0:
        raise ValueError(f"{path}: constant must be a 0-d number")
    vals = data["eigvals"]
    if vals.ndim != 1:
        raise ValueError(f"{path}: eigvals must be a vector")
    if vals.shape[0] < 1:
        raise ValueError(f"{path}: the problem has no eigenvalues")
    d = vals.shape[0]
    W = np.asarray(data["W"], dtype=float)
    lin = np.asarray(data["linear"], dtype=float)
    if W.shape != (d, d) or data["eigvecs"].shape != (d, d):
        raise ValueError("W and eigvecs must be dim x dim")
    if lin.shape != (d,) or data["minimizer"].shape != (d,):
        raise ValueError("eigvals, linear and minimizer must be dim-vectors")
    # comparisons are written so that a NaN fails them
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN, which fails
        asym = W - W.T
    if not np.abs(asym, out=asym).max() <= 1e-10 * max(1.0, float(W.max()), -float(W.min())):
        raise ValueError("W must be symmetric")
    del asym
    # the problem holds the only copy of the eigenvectors
    p = QuadraticProblem(vals, data.pop("eigvecs"), data["minimizer"], float(data["constant"]))
    # B B' with B = eigvecs * sqrt(eigvals) (nonnegative, checked above) is
    # one symmetric product, half the flops of (eigvecs * eigvals) @ eigvecs.T
    root = p.eigvecs * np.sqrt(p.eigvals)
    recon = root @ root.T
    del root
    np.subtract(W, recon, out=recon)
    if not _norm(recon) / max(_norm(W), 1e-300) <= _RECONSTRUCTION_TOL:
        raise ValueError("W does not match its eigenfactors")
    # as ratios: an inf in ``linear`` makes one a NaN, which fails
    if p.mu > 0 and not (_norm(W @ p.minimizer - lin) / max(_norm(lin), 1e-300)
                         <= _RESIDUAL_TOL):
        raise ValueError("minimizer does not solve W x = linear")
    return p
