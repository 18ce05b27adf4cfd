"""Scalar reference oracles: one coordinate, one (a, b) pair at a time.

The library computes coefficients, eigenvalues and V on whole columns
(``coefficient_arrays``, ``analyze``, ``run_trace``).  These plain
functions are the per-coordinate statements those columns are checked
against, written out with ``math`` on Python floats: the eigenvalues of the
companion matrix M = [[a, b], [1, 0]], the conjugate-pair test, the 2x2
Schur factorization behind the certificate, the three-point value V, and
NAG-GS in its literal two-sequence form.  ``quadratic_objective`` puts a
quadratic problem behind the value/gradient oracles in the full space, so
the eigenbasis engine can be checked against the oracle engine, and
``trace_rows`` replays a trace's run for the engine's rows.
``OBJECTIVE_POINTS`` holds the packaged objectives' formulas one point at a
time, on Python floats and libm: the bits their stacked oracles keep.  The text
writers at the end format one row or point at a time, and ``svg_m4`` picks
a polyline's points one pixel column at a time; the library's block writers
must give the same bytes.
"""

import math

import numpy as np

from lyapcert import Objective
from lyapcert.trace import _blocks

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


def naggs_iterates(gradient, alpha, beta, starts, rows):
    """Rows x_0, x_1, ... of NAG-GS in its own two-sequence form,

        y_{k+1} = beta y_k + (1 - beta) x_k - alpha grad f(x_k)
        x_{k+1} = beta x_k + (1 - beta) y_{k+1},

    from ``starts`` = (x0,) with y = x0, or (x0, x1) with the y behind
    x1 = beta x0 + (1 - beta) y (beta != 1).  The library runs the same method
    as the family member (alpha (1 - beta), beta^2, 0), with y eliminated.
    """
    xs = [np.asarray(x, dtype=float) for x in starts]
    y = xs[0] if len(xs) == 1 else (xs[1] - beta * xs[0]) / (1.0 - beta)
    while len(xs) < rows:
        x = xs[-1]
        y = beta * y + (1.0 - beta) * x - alpha * np.asarray(gradient(x), dtype=float)
        xs.append(beta * x + (1.0 - beta) * y)
    return np.stack(xs)


def row_dot(a, b):
    """Each point's dot a.b over the last axis, one BLAS dot per point, for
    stacks of any leading shape: the same bits whatever else the stacks hold
    (a matrix product over the stack would not keep them)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def quadratic_objective(p):
    """The problem ``0.5 x'Wx - linear'x + constant`` of a ``QuadraticProblem``
    through the full-space oracles over stacks of points (..., d): value as
    written, gradient ``Wx - linear``, with one matrix-vector product ``Wx``
    and one ``row_dot`` per point, so a point's result is its own."""
    W, linear = p.W, p.linear

    def product(x):
        return np.matmul(W, x[..., :, None])[..., 0]

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * row_dot(x, product(x)) - row_dot(linear, x) + p.constant

    def gradient(x):
        return product(np.asarray(x, dtype=float)) - linear

    return Objective(dim=p.dim, value=value, gradient=gradient,
                     minimizer=p.minimizer, mu=p.mu, lipschitz=p.lipschitz)


def _inf_on_overflow(fn, *args):
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _cosine_point(x):
    t, amp = float(x[0]), 1.99 / 400.0
    # C's cos and sin of +-inf are NaN, where ``math`` raises
    c, s = (math.nan, math.nan) if math.isinf(20.0 * t) else (math.cos(20.0 * t),
                                                              math.sin(20.0 * t))
    return t * t + amp * c, np.array([2.0 * t - amp * 20.0 * s])


def _exp_norm_point(x):
    e = _inf_on_overflow(math.exp, float(x @ x))
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan
        return e, 2.0 * e * x


def _rosenbrock_point(x):
    a, b = float(x[0]), float(x[1])
    return (_inf_on_overflow(pow, 1.0 - a, 2) + 100.0 * _inf_on_overflow(pow, b - a * a, 2),
            np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]))


# each packaged objective's (value, gradient) at one point x of shape (dim,)
OBJECTIVE_POINTS = {"cosine": _cosine_point, "expnorm": _exp_norm_point,
                    "rosenbrock": _rosenbrock_point}


def trace_rows(tr):
    """The engine's rows of a trace, replayed from its ``run`` through the
    trace driver: centred eigen-coordinates of a quadratic run, the iterates
    of an objective run."""
    target, spec, *rest = tr.run
    # each block's rows are a view into the buffer the next one overwrites
    return np.concatenate([blk.rows.copy() for blk in _blocks(target, (spec,), *rest)])


def family_step(obj, family, cur, prev):
    """x_{k+1} = x_k + beta d_k - alpha grad f(x_k + gamma d_k) of the family
    member ``family = (alpha, beta, gamma)`` through the gradient oracle, on
    plain arrays: one step of one run, the update the trace driver makes for
    all its runs at once."""
    al, be, ga = family
    d = cur - prev
    return cur + be * d - al * np.asarray(obj.gradient(cur + ga * d), dtype=float)


# Text writers, one row or point at a time: the formatting the library's
# block writers must reproduce byte for byte.

def trace_csv_lines(k0, gap, dist, lyap):
    """CSV lines of trace rows k0, k0+1, ...: 17 significant digits, the
    lyapunov cell empty where V is NaN."""
    return "".join(
        f"{k},{g:.17g},{d:.17g},{'' if math.isnan(v) else f'{v:.17g}'}\n"
        for k, g, d, v in zip(range(k0, k0 + len(gap)), gap.tolist(),
                              dist.tolist(), lyap.tolist()))


def certificate_csv_text(cert):
    r = cert.per_coordinate
    lines = ["lambda_W,a,b,re_lambda,im_lambda,modulus,conjugate_pair"]
    for lam, a, b, re, im, rate, conj in zip(
            r.lambda_w.tolist(), r.a.tolist(), r.b.tolist(), r.re.tolist(),
            r.im.tolist(), r.rate.tolist(), r.conjugate_pair.tolist()):
        lines.append(f"{lam:.17g},{a:.17g},{b:.17g},{re:.17g},{im:.17g},"
                     f"{rate:.17g},{1 if conj else 0}")
    return "\n".join(lines) + "\n"


def certificate_report_text(cert):
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
    for i, (lam, a, b, rate, conj) in enumerate(zip(
            r.lambda_w.tolist(), r.a.tolist(), r.b.tolist(), r.rate.tolist(),
            r.conjugate_pair.tolist())):
        lines.append(
            f"{i:<4d} {lam:<15.8g} {a:<15.8g} {b:<15.8g} "
            f"{rate:<14.8g} {'yes' if conj else 'no'}"
        )
    return "\n".join(lines) + "\n"


def svg_polyline_points(x, y, box, lo, hi, xmax):
    """``points`` of a line-log polyline: x linear, y in decades lo..hi."""
    x0, y0, x1, y1 = box

    def px(x):
        return x0 + (x1 - x0) * (x / max(xmax, 1e-300))

    def py(v):
        return y1 - (y1 - y0) * ((math.log10(v) - lo) / (hi - lo))

    return " ".join(f"{px(xx):.2f},{py(vv):.2f}" for xx, vv in zip(x, y))


def svg_m4(x, y, box, xmax):
    """Indices of the points a line-log polyline keeps of its drawn points:
    of each maximal run of consecutive points in one pixel column, the
    first, lowest, highest and last, the first of equal values; a run of at
    most four points is kept whole."""
    x0, _, x1, _ = box
    cols = [math.floor(x0 + (x1 - x0) * (xx / max(xmax, 1e-300))) for xx in x]
    kept = []
    i = 0
    while i < len(cols):
        j = i
        while j + 1 < len(cols) and cols[j + 1] == cols[i]:
            j += 1
        run = range(i, j + 1)
        if len(run) <= 4:
            kept.extend(run)
        else:  # min and max return the first of equal values
            lowest = min(run, key=lambda k: y[k])
            highest = max(run, key=lambda k: y[k])
            kept.extend(sorted({i, lowest, highest, j}))
        i = j + 1
    return kept


def svg_circles(x, y, cx, cy, scale, color):
    """The ``<circle class="pt">`` lines of one scatter series."""
    return [f'<circle class="pt" cx="{cx + xx * scale:.2f}" cy="{cy - yy * scale:.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.75"/>'
            for xx, yy in zip(x, y)]
