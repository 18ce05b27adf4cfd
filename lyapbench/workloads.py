"""Benchmark workloads: CLI operations, expected outcomes and artifact checks.

Each workload is a list of ``lyapcert`` CLI invocations built from the
workload seed and an output directory.  Expected exit codes follow the
paper's results, not whatever the code prints: every scenario verdict that
the paper states for all starts passes; tuned HB, NAG and NAG-GS are
certificate-eligible and tuned TMM is not; every equal-start run of a tuned
method has a nonnegative, nonincreasing exact V (for TMM because -b lies in
[0, 0.97] on [1, 1e4]).

fig1's ``*_distance_has_increase`` verdicts are the exception: they hold for
the default start (seed 0) but not for every seed (NAG's distance falls
monotonically at seeds 13, 14, 15, 24 and 29 of 0..30).  For those the
benchmark recomputes the truth from the trace CSV's distance column, and the
expected exit code is 1 exactly when such a verdict is rightly FAIL.
"""

from __future__ import annotations

import csv
import math
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

SCENARIO_NAMES = ("fig1", "quadratic", "nonoptimal", "convex-mu0", "cosine",
                  "tmm-witness", "expnorm", "rosenbrock")
METHODS = ("HB", "NAG", "TMM", "NAG-GS")

# long-trace problem and run size
LT_DIM, LT_MU, LT_L, LT_ITERS, LT_SCALE = 100, 1.0, 10000.0, 20000, 10.0
# certify problem and grid size
CT_DIM, CT_MU, CT_L, CT_GRID = 1000, 1.0, 10000.0, 25000

# Roundoff-level reordering of the V arithmetic stays near 1e-15 relative to
# V_2 on long-trace; an engine that loses real accuracy (a blocked
# matrix-power prototype lost about 1e-3) lands far above this.
V_LAW_TOLERANCE = 1e-9
ROW0_TOLERANCE = 1e-12

WHY = {
    "scenarios": (
        "All eight catalog scenarios at their defaults: what a user "
        "reproducing the paper runs, and the only workload that renders SVG "
        "and runs the gradient-oracle engine (many short write-only traces)."),
    "long-trace": (
        "One long 20000-step trace per op for HB, NAG, TMM and NAG-GS, then "
        "check on the exported CSV: the per-step loop dominates and the CSV "
        "is written and read back. NAG and TMM keep about 35% of "
        "eigen-coordinate steps subnormal while HB and NAG-GS flush all "
        "coordinates to zero together, so an engine rewrite must show its "
        "gain in both arithmetic regimes."),
    "certify": (
        "Generate a d=1000 problem, then certify all four methods on a "
        "25000-point grid and on the generated .npz: no trace engine at all, "
        "so it isolates spectral analysis, certificate text and problem "
        "generation, validation and I/O."),
}

# layers expected to dominate self time on each workload; the traced run
# reports whether the largest one agrees
STATED_DOMINANT = {
    "scenarios": ("trace.run_objective", "svgplot.render_svg"),
    "long-trace": ("trace.run_quadratic",),
    "certify": ("spectral.", "problems."),
}


class CheckError(ValueError):
    """An operation's artifacts or output disagree with the expected result."""


@dataclass
class Op:
    """One CLI invocation and what its outcome must be."""

    name: str
    argv: list
    expect_exit: Union[int, Callable[[], int]]     # callable: judged from artifacts
    check: Optional[Callable[[str], None]] = None  # gets the stdout tail
    facts: dict = field(default_factory=dict)      # filled in by ``check``


def build(workload: str, seed: int, out: str) -> list:
    """The operations of one pass of ``workload`` writing under ``out``."""
    if workload == "scenarios":
        return _scenarios(seed, out)
    if workload == "long-trace":
        return _long_trace(seed, out)
    if workload == "certify":
        return _certify(seed, out)
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WHY)})")


def _scenarios(seed, out):
    ops = []
    for name in SCENARIO_NAMES:
        d = os.path.join(out, name)
        ops.append(Op(f"scenario:{name}",
                      ["scenario", name, "--seed", str(seed), "--out", d],
                      lambda d=d, name=name: _scenario_expected_exit(d, name),
                      lambda tail, d=d: _check_scenario_dir(d, tail)))
    return ops


def _long_trace(seed, out):
    ops = []
    for kind in METHODS:
        path = os.path.join(out, f"{kind.lower()}_trace.csv")
        run = Op(f"run:{kind}",
                 ["run", "--method", kind.lower(), "--optimal",
                  "--dim", str(LT_DIM), "--mu", f"{LT_MU:g}", "--L", f"{LT_L:g}",
                  "--iters", str(LT_ITERS), "--seed", str(seed),
                  "--x0-scale", f"{LT_SCALE:g}", "--out", path], 0)
        run.check = lambda tail, op=run, kind=kind, path=path: \
            _check_long_run(op, kind, seed, path)
        ops.append(run)
        ops.append(Op(f"check:{kind}", ["check", path], 0,
                      lambda tail: _expect_in(tail, "monotone decrease: yes")))
    return ops


def _certify(seed, out):
    npz = os.path.join(out, "problem.npz")
    ops = [Op("generate",
              ["generate", "--dim", str(CT_DIM), "--mu", f"{CT_MU:g}",
               "--L", f"{CT_L:g}", "--seed", str(seed), "--out", npz], 0,
              lambda tail: _check_problem_file(npz))]
    for kind in METHODS:
        common = ["analyze", "--method", kind.lower(), "--optimal"]
        expect = 1 if kind == "TMM" else 0
        grid_csv = os.path.join(out, f"{kind.lower()}_grid_certificate.csv")
        npz_csv = os.path.join(out, f"{kind.lower()}_problem_certificate.csv")
        ops.append(Op(f"analyze-grid:{kind}",
                      common + ["--mu", f"{CT_MU:g}", "--L", f"{CT_L:g}",
                                "--dim", str(CT_GRID), "--out", grid_csv], expect,
                      lambda tail, p=grid_csv, e=expect:
                      _check_certificate_csv(p, CT_GRID, e == 0)))
        ops.append(Op(f"analyze-problem:{kind}",
                      common + ["--problem", npz, "--out", npz_csv], expect,
                      lambda tail, p=npz_csv, e=expect:
                      _check_certificate_csv(p, CT_DIM, e == 0)))
    return ops


def _expect_in(text: str, needle: str) -> None:
    if needle not in text:
        raise CheckError(f"expected {needle!r} in the output")


def _csv_rows(path) -> list:
    """Rows of a numeric CSV (header dropped); every non-empty cell is a float."""
    if not os.path.isfile(path):
        raise CheckError(f"missing artifact {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise CheckError(f"{path}: no data rows")
    width = len(rows[0])
    for row in rows[1:]:
        if len(row) != width:
            raise CheckError(f"{path}: ragged row")
        for cell in row:
            if cell:
                float(cell)
    return rows[1:]


def _scenario_expected_exit(d, name) -> int:
    """0 unless an instance-specific verdict is rightly FAIL; any other
    failing verdict, or a wrong instance-specific one, is an error."""
    report = os.path.join(d, f"{name}_report.txt")
    if not os.path.isfile(report):
        raise CheckError(f"missing report {report}")
    with open(report, "r", encoding="utf-8") as fh:
        verdicts = dict(re.findall(r"^verdict (\S+): (PASS|FAIL)$", fh.read(), re.M))
    if not verdicts:
        raise CheckError(f"{report}: no verdicts")
    for key, value in verdicts.items():
        m = re.fullmatch(r"(\w+)_distance_has_increase", key)
        if m:
            rows = _csv_rows(os.path.join(d, f"{name}_{m.group(1)}_trace.csv"))
            dist = np.array([float(r[2]) for r in rows])
            truth = "PASS" if np.any(np.diff(dist) > 0) else "FAIL"
            if value != truth:
                raise CheckError(f"verdict {key} is {value}, the trace says {truth}")
        elif value != "PASS":
            raise CheckError(f"verdict {key}: FAIL")
    return 0 if all(v == "PASS" for v in verdicts.values()) else 1


def _check_scenario_dir(d, tail) -> None:
    files = sorted(os.listdir(d))
    _expect_in(tail, f"artifacts: {len(files)} files in {d}")
    for f in files:
        p = os.path.join(d, f)
        if f.endswith(".csv"):
            _csv_rows(p)
        elif f.endswith(".svg"):
            if not ET.parse(p).getroot().tag.endswith("svg"):
                raise CheckError(f"{p}: not an SVG document")
        elif os.path.getsize(p) == 0:
            raise CheckError(f"{p}: empty")


def _check_problem_file(path) -> None:
    if not os.path.isfile(path):
        raise CheckError(f"missing problem file {path}")
    with np.load(path) as data:
        W, vals = data["W"], data["eigvals"]
    if W.shape != (CT_DIM, CT_DIM) or vals.shape != (CT_DIM,):
        raise CheckError("problem file has the wrong dimension")
    if not (vals[0] == CT_MU and vals[-1] == CT_L):
        raise CheckError("problem spectrum does not span [mu, L]")


def _check_certificate_csv(path, n, eligible) -> None:
    rows = _csv_rows(path)
    if len(rows) != n:
        raise CheckError(f"{path}: {len(rows)} rows, expected {n}")
    conj = all(r[6] == "1" for r in rows)
    radius = max(float(r[5]) for r in rows)
    if eligible != (conj and radius < 1.0):
        raise CheckError(f"{path}: conjugate/radius columns contradict the verdict")


# --- exact V law ------------------------------------------------------------
# Tuned hyperparameters and recurrence coefficients, written out here from the
# paper's formulas rather than imported, so the residual does not share a
# defect with the code it checks.

def tuned_coefficients(kind: str, mu: float, L: float, lam: np.ndarray):
    """(a, b) of x_{k+1} = a x_k + b x_{k-1} for the tuned method."""
    sL, sm = math.sqrt(L), math.sqrt(mu)
    if kind == "HB":
        al, be = 4.0 / (sL + sm) ** 2, ((sL - sm) / (sL + sm)) ** 2
        return 1.0 - al * lam + be, np.full_like(lam, -be)
    if kind == "NAG":
        al, be = 1.0 / L, (sL - sm) / (sL + sm)
        s = 1.0 - al * lam
        return s * (1.0 + be), -s * be
    if kind == "TMM":
        rho = 1.0 - sm / sL
        al = (1.0 + rho) / L
        be = rho ** 2 / (2.0 - rho)
        ga = rho ** 2 / ((1.0 + rho) * (2.0 - rho))
        return 1.0 + be - al * (1.0 + ga) * lam, al * ga * lam - be
    if kind == "NAG-GS":
        denom = L + mu + 2.0 * math.sqrt(mu * L)
        al = (2.0 + 2.0 * math.sqrt(L / mu)) / denom
        be = (L - mu) / denom
        return 2.0 * be + (1.0 - be) ** 2 - al * (1.0 - be) * lam, np.full_like(lam, -be * be)
    raise ValueError(f"unknown method {kind!r}")


def exact_run(kind, eigvals, eigvecs, minimizer, seed, scale, rows):
    """Row-0 objective gap and the exact V_k (k = 2 .. rows-1) of an
    equal-start run: V_k = sum_i (-b_i)^(k-2) V_{2,i} in the eigenbasis."""
    rng = np.random.default_rng([seed, 1])  # the CLI's start-point recipe
    v = rng.standard_normal(minimizer.shape[0])
    z0 = eigvecs.T @ (scale * v / np.linalg.norm(v))
    gap0 = 0.5 * float(np.sum(eigvals * z0 * z0))
    a, b = tuned_coefficients(kind, float(eigvals[0]), float(eigvals[-1]), eigvals)
    z1 = (a + b) * z0
    z2 = a * z1 + b * z0
    v2 = z1 * z1 - z2 * z0
    exact = np.empty(rows - 2)
    with np.errstate(under="ignore"):
        for lo in range(0, rows - 2, 2000):
            k = np.arange(lo, min(lo + 2000, rows - 2), dtype=float)
            exact[lo:lo + k.shape[0]] = np.power(-b[None, :], k[:, None]) @ v2
    return gap0, exact


def v_law_residual(gap_col, v_col, gap0, exact) -> float:
    """max_k |V_rec,k - V_exact,k| / |V_exact,2| after checking that the
    recorded run starts where the recipe says it does."""
    if abs(gap_col[0] - gap0) > ROW0_TOLERANCE * abs(gap0):
        raise CheckError(f"row-0 objective gap {gap_col[0]!r} does not match the "
                         f"regenerated start ({gap0!r}): start recipe drifted")
    rec = np.asarray(v_col[2:], dtype=float)
    if rec.shape != exact.shape or not np.all(np.isfinite(rec)):
        raise CheckError("recorded V column is incomplete or not finite")
    return float(np.max(np.abs(rec - exact)) / abs(exact[0]))


def _check_long_run(op: Op, kind, seed, path) -> None:
    from lyapcert.problems import generate_quadratic

    rows = _csv_rows(path)
    if len(rows) != LT_ITERS:
        raise CheckError(f"{path}: {len(rows)} rows, expected {LT_ITERS}")
    gap = [float(r[1]) for r in rows]
    vcol = [float(r[3]) if r[3] else math.nan for r in rows]
    p = generate_quadratic(LT_DIM, LT_MU, LT_L, seed)
    gap0, exact = exact_run(kind, p.eigvals, p.eigvecs, p.minimizer, seed,
                            LT_SCALE, LT_ITERS)
    res = v_law_residual(gap, vcol, gap0, exact)
    op.facts["v_law_residual"] = res
    if not res <= V_LAW_TOLERANCE:
        raise CheckError(f"V-law residual {res:.3g} exceeds {V_LAW_TOLERANCE:g}")
