"""Named experiment scenarios: problems, runs, artifacts and verdicts.

Every scenario writes trace CSVs, certificate files where a spectrum exists,
SVG panels and a text report into an output directory, and returns verdicts.
A scenario whose setup is certificate-eligible fails loudly when any V
violation beyond tolerance shows up.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lyapunov import DEFAULT_TOLERANCE, check_monotone
from .methods import (HB, NAG, NAGGS, TMM, KINDS, MethodSpec, optimal_hyperparams)
from .problems import (cosine_counterexample, exp_norm_objective,
                       generate_quadratic, rosenbrock_objective)
from .spectral import analyze, certificate_csv_text, certificate_report_text
from .svgplot import Panel, Series, render_svg
from .trace import Trace, export_csv, run_trace

LABELS = {HB: "HB", NAG: "NAG", TMM: "TMM", NAGGS: "NAG-GS"}

# explicit hyperparameters that satisfy the conjugate-pair condition on [1, 10]
SUITABLE = {
    HB: (0.15, 0.5, 0.0),
    NAG: (0.1, 0.6, 0.0),
    TMM: (0.15, 0.5, 0.05),
    NAGGS: (0.5, 0.6, 0.0),
}


@dataclass
class ScenarioConfig:
    """User-adjustable knobs; None fields fall back to scenario defaults."""

    name: str
    out: str
    dim: Optional[int] = None
    mu: Optional[float] = None
    L: Optional[float] = None
    method: Optional[str] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None
    optimal: Optional[bool] = None
    iters: Optional[int] = None
    seed: int = 0
    x0_scale: Optional[float] = None
    tolerance: float = DEFAULT_TOLERANCE


@dataclass
class ScenarioResult:
    name: str
    ok: bool
    verdicts: dict
    artifacts: list = field(default_factory=list)
    report_path: Optional[str] = None
    notes: list = field(default_factory=list)


def parse_config_file(path) -> dict:
    """Flat ``key = value`` format with # comments; keys mirror CLI flags."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _x0(xstar: np.ndarray, scale: float, seed: int, tag: int = 1) -> np.ndarray:
    rng = np.random.default_rng([seed, tag])
    v = rng.standard_normal(xstar.shape[0])
    return xstar + scale * v / np.linalg.norm(v)


def _specs(cfg: ScenarioConfig, mu: float, L: float, default_optimal: bool,
           kinds=None) -> dict:
    kinds = list(kinds if kinds is not None else KINDS)
    if cfg.method is not None:
        if cfg.method not in KINDS:
            raise ValueError(f"unknown method kind {cfg.method!r} (known: {', '.join(KINDS)})")
        kinds = [cfg.method]
    optimal = default_optimal if cfg.optimal is None else cfg.optimal
    specs = {}
    for kind in kinds:
        if cfg.alpha is not None:
            specs[kind] = MethodSpec(kind, alpha=cfg.alpha, beta=cfg.beta or 0.0,
                                     gamma=(cfg.gamma or 0.0) if kind == TMM else 0.0)
        elif optimal:
            specs[kind] = optimal_hyperparams(kind, mu, L)
        else:
            al, be, ga = SUITABLE[kind]
            specs[kind] = MethodSpec(kind, alpha=al, beta=be, gamma=ga)
    return specs


def _has_strict_increase(values: np.ndarray) -> bool:
    return bool(np.any(np.diff(values) > 0))


def _spectrum_series(certs: dict) -> list:
    # both eigenvalues of each coordinate, dominant first
    series = []
    for kind, cert in certs.items():
        r = cert.per_coordinate
        series.append(Series(label=LABELS[kind],
                             x=np.column_stack([r.re, r.re2]).ravel(),
                             y=np.column_stack([r.im, -r.im]).ravel()))
    return series


def _write_certificate(out: str, stem: str, cert, artifacts: list) -> None:
    """Write ``<stem>_certificate.csv`` and ``<stem>_certificate.txt``."""
    for ext, render in (("csv", certificate_csv_text), ("txt", certificate_report_text)):
        path = os.path.join(out, f"{stem}_certificate.{ext}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(render(cert))
        artifacts.append(path)


def _write_family_artifacts(name: str, out: str, traces: dict, certs: dict,
                            artifacts: list) -> None:
    for kind, trace in traces.items():
        p = os.path.join(out, f"{name}_{kind.lower()}_trace.csv")
        export_csv(trace, p)
        artifacts.append(p)
    for kind, cert in certs.items():
        _write_certificate(out, f"{name}_{kind.lower()}", cert, artifacts)
    panels = {
        "gap": Panel(title=f"{name}: objective gap", kind="line-log",
                     ylabel="f(x_k) - f*",
                     series=[Series(LABELS[k], traces[k].objective_gap) for k in traces]),
        "distance": Panel(title=f"{name}: distance to minimizer", kind="line-log",
                          ylabel="|x_k - x*|",
                          series=[Series(LABELS[k], traces[k].distance) for k in traces]),
        "lyapunov": Panel(title=f"{name}: Lyapunov value", kind="line-log",
                          ylabel="V_k",
                          series=[Series(LABELS[k], traces[k].lyapunov[2:]) for k in traces]),
    }
    if certs:
        panels["spectrum"] = Panel(title=f"{name}: iteration-matrix spectrum",
                                   kind="scatter", xlabel="Re", ylabel="Im",
                                   unit_circle=True, series=_spectrum_series(certs))
    for key, panel in panels.items():
        p = os.path.join(out, f"{name}_{key}.svg")
        render_svg([panel], p, columns=1)
        artifacts.append(p)
    p = os.path.join(out, f"{name}_overview.svg")
    render_svg(list(panels.values()), p)
    artifacts.append(p)


def _write_report(name: str, out: str, lines: list, verdicts: dict,
                  artifacts: list) -> str:
    path = os.path.join(out, f"{name}_report.txt")
    body = [f"scenario: {name}"]
    body.extend(lines)
    for key, ok in verdicts.items():
        body.append(f"verdict {key}: {'PASS' if ok else 'FAIL'}")
    body.append(f"overall: {'PASS' if all(verdicts.values()) else 'FAIL'}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(body) + "\n")
    artifacts.append(path)
    return path


def _run_quadratic_family(cfg: ScenarioConfig, *, dim: int, mu: float, L: float,
                          iters: int, optimal: bool, v_floor, verdict_mode: str) -> ScenarioResult:
    dim = cfg.dim if cfg.dim is not None else dim
    mu = cfg.mu if cfg.mu is not None else mu
    L = cfg.L if cfg.L is not None else L
    iters = cfg.iters if cfg.iters is not None else iters
    scale = cfg.x0_scale if cfg.x0_scale is not None else 10.0
    tol = cfg.tolerance
    os.makedirs(cfg.out, exist_ok=True)

    problem = generate_quadratic(dim, mu, L, cfg.seed)
    x0 = _x0(problem.minimizer, scale, cfg.seed)
    specs = _specs(cfg, mu, L, optimal)
    traces, certs, reports = {}, {}, {}
    for kind, spec in specs.items():
        traces[kind] = run_trace(problem, spec, x0, iters, v_floor=v_floor, seed=cfg.seed)
        certs[kind] = analyze(spec, problem.eigvals)
        reports[kind] = check_monotone(traces[kind].lyapunov_series(tol))

    artifacts: list = []
    _write_family_artifacts(cfg.name, cfg.out, traces, certs, artifacts)

    lines = [f"config: dim={dim} mu={mu:g} L={L:g} iters={iters} seed={cfg.seed} "
             f"x0_scale={scale:g} tolerance={tol:g}"]
    for kind in specs:
        cert, rep, tr = certs[kind], reports[kind], traces[kind]
        terminal = tr.lyapunov[-1] if not math.isnan(tr.lyapunov[-1]) else math.nan
        lines.append(
            f"{LABELS[kind]}: eligible={'yes' if cert.eligible else 'no'} "
            f"radius={cert.spectral_radius:.6g} rows={len(tr)} "
            f"terminal_V={terminal:.6g} {rep.describe()}")

    verdicts = {}
    if verdict_mode == "fig1":
        for kind in (HB, NAG, NAGGS):
            if kind in specs:
                verdicts[f"{kind.lower()}_certificate_eligible"] = certs[kind].eligible
                verdicts[f"{kind.lower()}_V_monotone"] = reports[kind].monotone
        for kind in (HB, NAG):
            if kind in specs:
                verdicts[f"{kind.lower()}_distance_has_increase"] = \
                    _has_strict_increase(traces[kind].distance)
    elif verdict_mode == "eligible-monotone":
        for kind in specs:
            if certs[kind].eligible:
                verdicts[f"{kind.lower()}_V_monotone"] = reports[kind].monotone
                if v_floor is not None:
                    verdicts[f"{kind.lower()}_terminal_V_below_floor"] = \
                        bool(traces[kind].lyapunov[-1] < v_floor)
        if not any(certs[k].eligible for k in specs):
            verdicts["some_certificate_eligible"] = False
    elif verdict_mode == "all-eligible":
        for kind in specs:
            verdicts[f"{kind.lower()}_certificate_eligible"] = certs[kind].eligible
            verdicts[f"{kind.lower()}_V_monotone"] = reports[kind].monotone
    elif verdict_mode == "mu0":
        for kind in specs:
            cert = certs[kind]
            unit = abs(float(cert.per_coordinate.rate[0]) - 1.0) <= 1e-9
            verdicts[f"{kind.lower()}_certificate_ineligible"] = not cert.eligible
            verdicts[f"{kind.lower()}_unit_eigenvalue_at_zero"] = unit
        for kind in specs:
            vals = traces[kind].lyapunov[2:]
            vals = vals[~np.isnan(vals)]
            drop = float(vals[0] / max(abs(vals[-1]), 1e-300)) if vals.size else math.nan
            lines.append(f"{LABELS[kind]}: V drops by factor {drop:.3g} before the "
                         f"floating-point floor; oscillation beyond that is roundoff")
    else:
        raise ValueError(f"unknown verdict mode {verdict_mode}")

    report_path = _write_report(cfg.name, cfg.out, lines, verdicts, artifacts)
    return ScenarioResult(name=cfg.name, ok=all(verdicts.values()),
                          verdicts=verdicts, artifacts=artifacts,
                          report_path=report_path)


def find_cosine_witness(seed: int = 0, seeds: int = 100, iters: int = 400,
                        tolerance: float = DEFAULT_TOLERANCE):
    """Search seeded starts in [-2, 2] for a V violation of tuned HB on the
    cosine objective.  Returns (seed_index, x0, trace, report) or None."""
    obj = cosine_counterexample()
    spec = optimal_hyperparams(HB, obj.mu, obj.lipschitz)
    for s in range(seeds):
        rng = np.random.default_rng([seed, s, 11])
        x0 = rng.uniform(-2.0, 2.0, size=1)
        trace = run_trace(obj, spec, x0, iters, seed=s)
        rep = check_monotone(trace.lyapunov_series(tolerance))
        if not rep.monotone:
            return s, x0, trace, rep
    return None


def find_tmm_witness(seed: int = 0, dim: int = 2, mu: float = 1.0, L: float = 4.0,
                     seeds: int = 100, iters: int = 80, scale: float = 10.0,
                     tolerance: float = DEFAULT_TOLERANCE):
    """Search seeded (x0, x1) pairs for a V violation of tuned TMM on a
    quadratic whose spectrum includes L.  Equal starts provably cannot violate
    (per-coordinate V2 = alpha*lambda*(-b)*x0^2 >= 0), so both iterates are
    drawn randomly.  Low dimension matters: V contracts per coordinate at
    -b(lambda) regardless of eligibility, and only the ineligible lambda=mu
    coordinate can carry a negative component (start ratio inside the real
    eigenvalue cone, ~7% of draws); in high dimension the positive bulk hides
    it below tolerance.  Returns (seed_index, trace, report) or None."""
    problem = generate_quadratic(dim, mu, L, seed)
    spec = optimal_hyperparams(TMM, mu, L)
    xs = problem.minimizer
    for s in range(seeds):
        rng = np.random.default_rng([seed, s, 7])
        v = rng.standard_normal(dim)
        w = rng.standard_normal(dim)
        x0 = xs + scale * v / np.linalg.norm(v)
        x1 = xs + scale * w / np.linalg.norm(w)
        trace = run_trace(problem, spec, x0, iters, x1=x1, seed=s)
        rep = check_monotone(trace.lyapunov_series(tolerance))
        if not rep.monotone:
            return s, trace, rep
    return None


def _run_cosine(cfg: ScenarioConfig) -> ScenarioResult:
    os.makedirs(cfg.out, exist_ok=True)
    iters = cfg.iters if cfg.iters is not None else 400
    tol = cfg.tolerance
    obj = cosine_counterexample()
    spec = optimal_hyperparams(HB, obj.mu, obj.lipschitz)
    artifacts: list = []
    lines = [f"objective: x^2 + (1.99/400) cos(20x), mu={obj.mu:g}, L={obj.lipschitz:g}",
             f"method: HB tuned for [mu, L] (alpha={spec.alpha:.12g}, beta={spec.beta:.12g})",
             f"search: 100 starts uniform in [-2, 2], {iters} iterates, tolerance {tol:g}"]

    found = find_cosine_witness(seed=cfg.seed, iters=iters, tolerance=tol)
    verdicts = {"violation_found": found is not None}
    if found is not None:
        s, x0, trace, rep = found
        first = rep.violations[0]
        lines.append(f"witness: seed={s} x0={x0[0]:.12g} first violation at k={first.index} "
                     f"V {first.v_prev:.6g} -> {first.v_next:.6g} (excess {first.excess:.3g})")
        p = os.path.join(cfg.out, f"{cfg.name}_hb_trace.csv")
        export_csv(trace, p)
        artifacts.append(p)
        panels = [
            Panel(title="cosine: Lyapunov value", kind="line-log", ylabel="V_k",
                  series=[Series("HB", trace.lyapunov[2:])]),
            Panel(title="cosine: distance to minimizer", kind="line-log",
                  ylabel="|x_k - x*|", series=[Series("HB", trace.distance)]),
        ]
        for panel, key in zip(panels, ("lyapunov", "distance")):
            sp = os.path.join(cfg.out, f"{cfg.name}_{key}.svg")
            render_svg([panel], sp, columns=1)
            artifacts.append(sp)
        sp = os.path.join(cfg.out, f"{cfg.name}_overview.svg")
        render_svg(panels, sp)
        artifacts.append(sp)

        # exploratory: walk beta down from the tuned value until V turns monotone
        boundary = None
        for j in range(0, 21):
            beta_j = spec.beta * (1.0 - j / 20.0)
            spec_j = MethodSpec(HB, alpha=spec.alpha, beta=beta_j)
            tr_j = run_trace(obj, spec_j, x0, iters, seed=s)
            if check_monotone(tr_j.lyapunov_series(tol)).monotone:
                boundary = beta_j
                break
        if boundary is not None:
            lines.append(f"exploratory: from this x0, V turns monotone at beta <= "
                         f"{boundary:.12g} (tuned beta {spec.beta:.12g})")
        else:
            lines.append("exploratory: no monotone beta found on the sweep down to 0")
    else:
        lines.append("no violation found across 100 seeded starts; this contradicts "
                     "the expected counterexample behaviour")

    # certificate over the [mu, L] interval as a 33-point grid (quadratic view)
    grid = np.linspace(obj.mu, obj.lipschitz, 33)
    cert = analyze(spec, grid)
    _write_certificate(cfg.out, f"{cfg.name}_hb", cert, artifacts)
    lines.append(f"quadratic-view certificate on [mu, L]: eligible="
                 f"{'yes' if cert.eligible else 'no'} radius={cert.spectral_radius:.6g} "
                 f"(the violation above is what that certificate cannot promise here)")

    report_path = _write_report(cfg.name, cfg.out, lines, verdicts, artifacts)
    return ScenarioResult(name=cfg.name, ok=all(verdicts.values()), verdicts=verdicts,
                          artifacts=artifacts, report_path=report_path)


def _run_tmm_witness(cfg: ScenarioConfig) -> ScenarioResult:
    os.makedirs(cfg.out, exist_ok=True)
    dim = cfg.dim if cfg.dim is not None else 2
    mu = cfg.mu if cfg.mu is not None else 1.0
    L = cfg.L if cfg.L is not None else 4.0
    iters = cfg.iters if cfg.iters is not None else 80
    scale = cfg.x0_scale if cfg.x0_scale is not None else 10.0
    tol = cfg.tolerance
    artifacts: list = []
    lines = [f"problem: quadratic dim={dim} spectrum [{mu:g}, {L:g}] seed={cfg.seed}",
             "method: TMM tuned; search over seeded random (x0, x1) pairs"]

    spec = optimal_hyperparams(TMM, mu, L)
    cert = analyze(spec, generate_quadratic(dim, mu, L, cfg.seed).eigvals)
    _write_certificate(cfg.out, f"{cfg.name}_tmm", cert, artifacts)
    lines.append(f"certificate: eligible={'yes' if cert.eligible else 'no'} "
                 f"radius={cert.spectral_radius:.6g}")

    found = find_tmm_witness(seed=cfg.seed, dim=dim, mu=mu, L=L, iters=iters,
                             scale=scale, tolerance=tol)
    verdicts = {"violation_found": found is not None}
    if found is not None:
        s, trace, rep = found
        first = rep.violations[0]
        lines.append(f"witness: seed={s} first violation at k={first.index} "
                     f"V {first.v_prev:.6g} -> {first.v_next:.6g} (excess {first.excess:.3g})")
        p = os.path.join(cfg.out, f"{cfg.name}_tmm_trace.csv")
        export_csv(trace, p)
        artifacts.append(p)
        panel = Panel(title="TMM witness: Lyapunov value", kind="line-log",
                      ylabel="V_k", series=[Series("TMM", trace.lyapunov[2:])])
        sp = os.path.join(cfg.out, f"{cfg.name}_lyapunov.svg")
        render_svg([panel], sp, columns=1)
        artifacts.append(sp)
    else:
        lines.append("no violation found; recorded for investigation instead of assumed")

    report_path = _write_report(cfg.name, cfg.out, lines, verdicts, artifacts)
    return ScenarioResult(name=cfg.name, ok=all(verdicts.values()), verdicts=verdicts,
                          artifacts=artifacts, report_path=report_path)


def _run_objective_family(cfg: ScenarioConfig, *, objective, name_lines: list,
                          specs: dict, iters: int, scale: float) -> ScenarioResult:
    os.makedirs(cfg.out, exist_ok=True)
    iters = cfg.iters if cfg.iters is not None else iters
    scale = cfg.x0_scale if cfg.x0_scale is not None else scale
    tol = cfg.tolerance
    if cfg.method is not None:
        specs = {cfg.method: specs[cfg.method]}
    x0 = _x0(np.asarray(objective.minimizer, dtype=float), scale, cfg.seed)
    traces, verdicts = {}, {}
    lines = list(name_lines)
    lines.append(f"config: iters={iters} seed={cfg.seed} x0_scale={scale:g}")
    for kind, spec in specs.items():
        # no V floor here: slow small-step iterates keep V near zero from the
        # start, which says nothing about convergence
        tr = run_trace(objective, spec, x0, iters, seed=cfg.seed)
        traces[kind] = tr
        rep = check_monotone(tr.lyapunov_series(tol))
        verdicts[f"{kind.lower()}_completed"] = not tr.diverged
        lines.append(f"{LABELS[kind]}: rows={len(tr)} diverged={'yes' if tr.diverged else 'no'} "
                     f"final_gap={tr.objective_gap[-1]:.6g} {rep.describe()}")

    artifacts: list = []
    _write_family_artifacts(cfg.name, cfg.out, traces, {}, artifacts)
    report_path = _write_report(cfg.name, cfg.out, lines, verdicts, artifacts)
    return ScenarioResult(name=cfg.name, ok=all(verdicts.values()), verdicts=verdicts,
                          artifacts=artifacts, report_path=report_path)


def _run_fig1(cfg):
    return _run_quadratic_family(cfg, dim=107, mu=1.0, L=1000.0, iters=2000,
                                 optimal=True, v_floor=None, verdict_mode="fig1")


def _run_quadratic(cfg):
    return _run_quadratic_family(cfg, dim=100, mu=1.0, L=1000.0, iters=2000,
                                 optimal=True, v_floor=1e-9,
                                 verdict_mode="eligible-monotone")


def _run_nonoptimal(cfg):
    return _run_quadratic_family(cfg, dim=50, mu=1.0, L=10.0, iters=2000,
                                 optimal=False, v_floor=1e-9,
                                 verdict_mode="all-eligible")


def _run_convex_mu0(cfg):
    return _run_quadratic_family(cfg, dim=50, mu=0.0, L=10.0, iters=1000,
                                 optimal=False, v_floor=None, verdict_mode="mu0")


def _run_expnorm(cfg):
    specs = {k: MethodSpec(k, alpha=0.02, beta=0.3,
                           gamma=0.05 if k == TMM else 0.0) for k in KINDS}
    return _run_objective_family(
        cfg, objective=exp_norm_objective(cfg.dim if cfg.dim is not None else 2),
        name_lines=["objective: exp(|x|^2), small-step runs (no global smoothness bound)"],
        specs=specs, iters=600, scale=0.8)


def _run_rosenbrock(cfg):
    specs = {k: MethodSpec(k, alpha=5e-4, beta=0.5,
                           gamma=0.05 if k == TMM else 0.0) for k in KINDS}
    return _run_objective_family(
        cfg, objective=rosenbrock_objective(),
        name_lines=["objective: Rosenbrock, small-step runs near the minimizer"],
        specs=specs, iters=4000, scale=0.5)


SCENARIOS = {
    "fig1": _run_fig1,
    "quadratic": _run_quadratic,
    "nonoptimal": _run_nonoptimal,
    "convex-mu0": _run_convex_mu0,
    "cosine": _run_cosine,
    "tmm-witness": _run_tmm_witness,
    "expnorm": _run_expnorm,
    "rosenbrock": _run_rosenbrock,
}


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run a scenario from the catalog; artifact files land in ``cfg.out``."""
    if cfg.name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {cfg.name!r} (known: {known})")
    return SCENARIOS[cfg.name](cfg)
