"""Named experiment scenarios: problems, runs, artifacts and verdicts.

Every scenario computes its traces, certificates (where a spectrum exists),
SVG panels, report lines and verdicts, and hands them to one writer,
``_finish``, which writes the files into the output directory.
A quadratic scenario judges each run by what certifies it, and fails loudly
when any V violation beyond roundoff shows up.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from ._files import whole_file
from .lyapunov import _bounds_distance, check_monotone
from .methods import (HB, NAG, NAGGS, TMM, KINDS, MethodSpec, optimal_hyperparams)
from .problems import (QuadraticProblem, _spectrum_grid, cosine_counterexample,
                       exp_norm_objective, generate_quadratic, rosenbrock_objective)
from .spectral import SpectralCertificate, analyze, certificate_csv_text, certificate_report_text
from .svgplot import Panel, Series, render_svg
from .trace import _run_traces, export_csv, run_trace

LABELS = {HB: "HB", NAG: "NAG", TMM: "TMM", NAGGS: "NAG-GS"}

# explicit hyperparameters that satisfy the conjugate-pair condition on [1, 10]
SUITABLE = {
    HB: (0.15, 0.5, 0.0),
    NAG: (0.1, 0.6, 0.0),
    TMM: (0.15, 0.5, 0.05),
    NAGGS: (0.5, 0.6, 0.0),
}
COSINE_SEEDS = 100  # seeded starts the cosine witness search tries


@dataclass
class ScenarioConfig:
    """User-adjustable knobs.  A field left None takes the default of its
    scenario's row in ``SCENARIOS``; a set one outside the row is refused."""

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


@dataclass
class ScenarioResult:
    name: str
    ok: bool
    verdicts: dict
    artifacts: list = field(default_factory=list)
    report_path: Optional[str] = None


def parse_config_file(path) -> dict:
    """Flat ``key = value`` format with # comments; keys mirror CLI flags,
    and a key given twice is refused."""
    out = {}
    with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = (part.strip() for part in line.partition("="))
            if not (sep and key):
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            if key in out:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            out[key] = val
    return out


def _require_finite_scale(scale: float) -> None:
    if not math.isfinite(scale):  # a NaN or inf start would surface as a bad iterate
        raise ValueError(f"x0-scale must be finite, got {scale}")


def _x0(xstar: np.ndarray, scale: float, seed: int) -> np.ndarray:
    _require_finite_scale(scale)
    rng = np.random.default_rng([seed, 1])
    v = rng.standard_normal(xstar.shape[0])
    return xstar + scale * v / np.linalg.norm(v)


def _kinds(cfg: ScenarioConfig) -> tuple:
    if cfg.method not in (None, *KINDS):
        raise ValueError(f"unknown method kind {cfg.method!r} (known: {', '.join(KINDS)})")
    return KINDS if cfg.method is None else (cfg.method,)


def _specs(cfg: ScenarioConfig) -> dict:
    specs = {}
    for kind in _kinds(cfg):
        if cfg.alpha is not None:
            # one --gamma serves TMM among all kinds; a named kind takes it as given
            gamma = (cfg.gamma or 0.0) if kind == TMM or cfg.method is not None else 0.0
            specs[kind] = MethodSpec(kind, alpha=cfg.alpha, beta=cfg.beta or 0.0, gamma=gamma)
        elif cfg.optimal:
            specs[kind] = optimal_hyperparams(kind, cfg.mu, cfg.L)
        else:
            al, be, ga = SUITABLE[kind]
            specs[kind] = MethodSpec(kind, alpha=al, beta=be, gamma=ga)
    return specs


def _describe(rep, tr) -> str:  # the verdict line of trace ``tr``
    return rep.describe(_bounds_distance(tr.diverged, tr.certificate))


def _panels(name: str, traces: dict, certs: dict) -> dict:
    panels = {
        "gap": Panel(title=f"{name}: objective gap", kind="line-log",
                     ylabel="f(x_k) - f*",
                     series=[Series(LABELS[k], tr.objective_gap) for k, tr in traces.items()]),
        "distance": Panel(title=f"{name}: distance to minimizer", kind="line-log",
                          ylabel="|x_k - x*|",
                          series=[Series(LABELS[k], tr.distance) for k, tr in traces.items()]),
        "lyapunov": Panel(title=f"{name}: Lyapunov value", kind="line-log",
                          ylabel="V_k",
                          series=[Series(LABELS[k], tr.lyapunov[2:]) for k, tr in traces.items()]),
    }
    if certs:
        # both eigenvalues of each coordinate, dominant first
        series = []
        for kind, cert in certs.items():
            r = cert.per_coordinate
            series.append(Series(label=LABELS[kind],
                                 x=np.column_stack([r.re, r.re2]).ravel(),
                                 y=np.column_stack([r.im, -r.im]).ravel()))
        panels["spectrum"] = Panel(title=f"{name}: iteration-matrix spectrum",
                                   kind="scatter", xlabel="Re", ylabel="Im",
                                   unit_circle=True, series=series)
    return panels


def _finish(cfg: ScenarioConfig, lines: list, verdicts: dict, traces: dict,
            certs: dict, panels: dict) -> ScenarioResult:
    """Write every artifact of a scenario into ``cfg.out`` and return its result.

    Traces and certificates are keyed by method kind, panels by file key:
    ``<name>_<kind>_trace.csv`` per trace, ``<name>_<kind>_certificate.csv``
    and ``.txt`` per certificate, ``<name>_<key>.svg`` per panel,
    ``<name>_overview.svg`` of all panels when there are several, and
    ``<name>_report.txt`` with the lines and verdicts.
    """
    os.makedirs(cfg.out, exist_ok=True)
    stem = os.path.join(cfg.out, cfg.name)
    artifacts: list = []

    def write(path: str, text: str) -> None:
        with whole_file(path) as fh:
            fh.write(text)
        artifacts.append(path)

    for kind, trace in traces.items():
        artifacts.append(f"{stem}_{kind.lower()}_trace.csv")
        export_csv(trace, artifacts[-1])
    for kind, cert in certs.items():
        write(f"{stem}_{kind.lower()}_certificate.csv", certificate_csv_text(cert))
        write(f"{stem}_{kind.lower()}_certificate.txt", certificate_report_text(cert))
    own = [f"{stem}_{key}.svg" for key in panels]
    artifacts += own
    if len(panels) > 1:  # each panel is drawn once, for its own file and the overview
        artifacts.append(f"{stem}_overview.svg")
        render_svg(list(panels.values()), artifacts[-1], own)
    elif panels:
        render_svg(list(panels.values()), own[0])
    ok = all(verdicts.values())
    body = [f"scenario: {cfg.name}", *lines]
    body += [f"verdict {key}: {'PASS' if v else 'FAIL'}" for key, v in verdicts.items()]
    body.append(f"overall: {'PASS' if ok else 'FAIL'}")
    write(f"{stem}_report.txt", "\n".join(body) + "\n")
    return ScenarioResult(name=cfg.name, ok=ok, verdicts=verdicts,
                          artifacts=artifacts, report_path=artifacts[-1])


def _run_quadratic_family(cfg: ScenarioConfig, *, tests=(), notes=()) -> ScenarioResult:
    """Run every method of ``cfg`` on its quadratic, side by side in one
    batch.  Each method gets a verdict ``<kind>_<suffix>`` from each
    ``test(cert, report, trace) -> (suffix, value)`` in ``tests``, in that
    order.  Each ``note(trace)`` adds a line per method, and one more line,
    when tuned HB and tuned NAG-GS both run, says that they are one method.
    """
    problem = generate_quadratic(cfg.dim, cfg.mu, cfg.L, cfg.seed)
    x0 = _x0(problem.minimizer, cfg.x0_scale, cfg.seed)
    specs = _specs(cfg)
    lines = [f"config: dim={cfg.dim} mu={cfg.mu:g} L={cfg.L:g} iters={cfg.iters} "
             f"seed={cfg.seed} x0_scale={cfg.x0_scale:g}"]
    traces, certs, verdicts = {}, {}, {}
    for tr, kind in zip(_run_traces(problem, list(specs.values()), x0, cfg.iters), specs):
        traces[kind] = tr
        cert = certs[kind] = tr.certificate
        rep = check_monotone(tr.lyapunov_series())
        lines.append(
            f"{LABELS[kind]}: eligible={'yes' if cert.eligible else 'no'} "
            f"radius={cert.spectral_radius:.6g} rows={len(tr)}{' diverged=yes' * tr.diverged} "
            f"terminal_V={tr.lyapunov[-1]:.6g} {_describe(rep, tr)}")
        for test in tests:
            suffix, value = test(cert, rep, tr)
            verdicts[f"{kind.lower()}_{suffix}"] = bool(value)
    lines += [f"{LABELS[kind]}: {note(tr)}" for note in notes for kind, tr in traces.items()]
    if cfg.optimal and cfg.alpha is None and traces.keys() >= {HB, NAGGS}:
        lines.append("NAG-GS: tuned NAG-GS is tuned HB: its family member (alpha(1 - beta), "
                     "beta^2, 0) is HB's tuned (alpha, beta, 0) in exact arithmetic, so its "
                     "rows and verdicts repeat HB's up to rounding")
    return _finish(cfg, lines, verdicts, traces, certs, _panels(cfg.name, traces, certs))


def _distance_rises(tr) -> str:
    # the distance oscillates or not depending on the start: an observation
    rises = int(np.count_nonzero(np.diff(tr.distance) > 0))
    return f"distance rises at {rises} of {len(tr) - 1} steps"


def _v_drop(tr) -> str:
    vals = tr.lyapunov[2:]
    vals = vals[~np.isnan(vals)]
    drop = float(vals[0] / max(abs(vals[-1]), 1e-300)) if vals.size else math.nan
    return f"V drops by factor {drop:.3g} before the floating-point floor"


def find_cosine_witness(seed: int = 0, iters: int = 400):
    """Search ``COSINE_SEEDS`` seeded starts in [-2, 2] for a V violation of tuned
    HB on the cosine objective.  Returns (seed_index, x0, trace, report) or None."""
    obj = cosine_counterexample()
    spec = optimal_hyperparams(HB, obj.mu, obj.lipschitz)
    for s in range(COSINE_SEEDS):
        rng = np.random.default_rng([seed, s, 11])
        x0 = rng.uniform(-2.0, 2.0, size=1)
        trace = run_trace(obj, spec, x0, iters)
        rep = check_monotone(trace.lyapunov_series())
        if not rep.monotone:
            return s, x0, trace, rep
    return None


def find_tmm_witness(problem: QuadraticProblem, cert: SpectralCertificate, iters: int,
                     scale: float = 10.0):
    """Run and judge the start whose V increases, read off ``cert``, the
    certificate of a method on ``problem``'s eigenvalues, whose (a, b) the
    run steps.

    On a real-split coordinate i with roots l1, l2 the start z_0 = s,
    z_1 = s (l1 + l2) / 2 (s = ``scale``, every other coordinate zero) has
    V_2 = z_1^2 - z_2 z_0 = -s^2 (l1 - l2)^2 / 4 < 0, and V_{k+1} = -b V_k
    rises at step 2 if -b < 1, and toward 0 at every step if -b is in (0, 1).
    The coordinate is the real-split one with the largest -b below 1, which
    contracts slowest, so V rises longest (for tuned TMM, lambda = mu).
    Returns (coordinate, trace, report), or None when no real-split -b is
    below 1, as when every coordinate is a conjugate pair (V >= 0 always).
    """
    _require_finite_scale(scale)
    r = cert.per_coordinate
    rising = ~r.conjugate_pair & (r.b > -1.0)
    if not rising.any():
        return None
    i = int(np.where(rising, -r.b, -np.inf).argmax())
    step = scale * problem.eigvecs[:, i]
    xs = problem.minimizer
    trace = run_trace(problem, cert, xs + step, iters,
                      x1=xs + (r.re[i] + r.re2[i]) / 2.0 * step)
    return i, trace, check_monotone(trace.lyapunov_series())


def _run_cosine(cfg: ScenarioConfig) -> ScenarioResult:
    iters = cfg.iters
    obj = cosine_counterexample()
    spec = optimal_hyperparams(HB, obj.mu, obj.lipschitz)
    lines = [f"objective: x^2 + (1.99/400) cos(20x), mu={obj.mu:g}, L={obj.lipschitz:g}",
             f"method: HB tuned for [mu, L] (alpha={spec.alpha:.12g}, beta={spec.beta:.12g})",
             f"search: {COSINE_SEEDS} starts uniform in [-2, 2], {iters} iterates"]

    found = find_cosine_witness(seed=cfg.seed, iters=iters)
    verdicts = {"violation_found": found is not None}
    traces, panels = {}, {}
    if found is not None:
        s, x0, trace, rep = found
        lines.append(f"witness: seed={s} x0={x0[0]:.12g} {_describe(rep, trace)}")
        traces[HB] = trace
        drawn = _panels("cosine", traces, {})
        panels = {key: drawn[key] for key in ("lyapunov", "distance")}

        # exploratory: walk beta down from the tuned one (j = 0: the witness run)
        sweep = [MethodSpec(HB, alpha=spec.alpha, beta=spec.beta * (1.0 - j / 20.0))
                 for j in range(1, 21)]
        for spec_j, tr_j in zip(sweep, _run_traces(obj, sweep, x0, iters)):
            if check_monotone(tr_j.lyapunov_series()).monotone:
                lines.append(f"exploratory: from this x0, V turns monotone at beta <= "
                             f"{spec_j.beta:.12g} (tuned beta {spec.beta:.12g})")
                break
        else:
            lines.append("exploratory: no monotone beta found on the sweep down to 0")
    else:
        lines.append(f"no violation found across {COSINE_SEEDS} seeded starts; this "
                     "contradicts the expected counterexample behaviour")

    # certificate over the [mu, L] interval as a 33-point grid (quadratic view)
    cert = analyze(spec, _spectrum_grid(obj.mu, obj.lipschitz, 33))
    lines.append(f"quadratic-view certificate on [mu, L]: eligible="
                 f"{'yes' if cert.eligible else 'no'} radius={cert.spectral_radius:.6g} "
                 f"(the violation above is what that certificate cannot promise here)")
    return _finish(cfg, lines, verdicts, traces, {HB: cert}, panels)


def _run_tmm_witness(cfg: ScenarioConfig) -> ScenarioResult:
    problem = generate_quadratic(cfg.dim, cfg.mu, cfg.L, cfg.seed)
    cert = analyze(optimal_hyperparams(TMM, cfg.mu, cfg.L), problem.eigvals)
    lines = [f"problem: quadratic dim={cfg.dim} spectrum [{cfg.mu:g}, {cfg.L:g}] "
             f"seed={cfg.seed}",
             "method: TMM tuned; start on the real-split coordinate with the largest -b: "
             "z_0 = x0_scale, z_1 = x0_scale*(l1+l2)/2",
             "start: deliberately not x_{-1} = x_0, from which V_k = (-b)^(k-1)*alpha*lambda*"
             "z_0^2 falls where -b is in [0, 1]; V_2 < 0 needs a real split and z_1 != (a+b)*z_0",
             f"certificate: eligible={'yes' if cert.eligible else 'no'} "
             f"radius={cert.spectral_radius:.6g}"]

    found = find_tmm_witness(problem, cert, cfg.iters, cfg.x0_scale)
    verdicts = {"violation_found": found is not None and not found[2].monotone}
    traces, panels = {}, {}
    if found is not None:
        i, trace, rep = found
        v2 = trace.lyapunov[2]
        lines.append(f"witness: coordinate {i} lambda={cert.per_coordinate.lambda_w[i]:.6g} "
                     f"V_2={v2:.6g} {'<' if v2 < 0 else '>='} 0 {_describe(rep, trace)}")
        traces[TMM] = trace
        # the log panel draws values below 1e-16 at its floor, so plot -V
        panels["lyapunov"] = Panel(title="TMM witness: Lyapunov value", kind="line-log",
                                   ylabel="-V_k", series=[Series("TMM", -trace.lyapunov[2:])])
    else:
        lines.append("no real-split coordinate: every coordinate is a conjugate pair, "
                     "so V >= 0 from every start")
    return _finish(cfg, lines, verdicts, traces, {TMM: cert}, panels)


def _run_objective_family(cfg: ScenarioConfig, *, objective, title: str,
                          alpha: float, beta: float) -> ScenarioResult:
    """Run every method of ``cfg`` on ``objective(cfg)`` with step ``alpha``
    and momentum ``beta`` (TMM's gamma 0.05), side by side in one batch."""
    objective = objective(cfg)
    specs = {k: MethodSpec(k, alpha=alpha, beta=beta, gamma=0.05 if k == TMM else 0.0)
             for k in _kinds(cfg)}
    x0 = _x0(np.asarray(objective.minimizer, dtype=float), cfg.x0_scale, cfg.seed)
    traces, verdicts = {}, {}
    lines = [title, f"config: iters={cfg.iters} seed={cfg.seed} x0_scale={cfg.x0_scale:g}"]
    for tr, kind in zip(_run_traces(objective, list(specs.values()), x0, cfg.iters), specs):
        traces[kind] = tr
        rep = check_monotone(tr.lyapunov_series())
        verdicts[f"{kind.lower()}_completed"] = not tr.diverged
        lines.append(f"{LABELS[kind]}: rows={len(tr)} diverged={'yes' if tr.diverged else 'no'} "
                     f"final_gap={tr.objective_gap[-1]:.6g} {_describe(rep, tr)}")
    return _finish(cfg, lines, verdicts, traces, {}, _panels(cfg.name, traces, {}))


# unset, a quadratic scenario runs all four methods with its own values
_HYPER = dict(method=None, alpha=None, beta=None, gamma=None)
_V_FLOOR = 1e-9  # the V that quadratic's terminal_V_below_floor asks each run to reach


def _coverage(cert, rep, tr) -> tuple:
    """What certifies V along an equal-start run, the only start a quadratic
    scenario runs: an eligible certificate covers every pair of starts, and
    ``equal_start_monotone`` with a radius below one covers x_{-1} = x_0;
    ``certificate_eligible`` fails when neither does."""
    if not cert.eligible and cert.equal_start_monotone and cert.spectral_radius < 1.0:
        return "equal_start_monotone", True
    return "certificate_eligible", cert.eligible


def _v_monotone(cert, rep, tr) -> tuple:
    return "V_monotone", rep.monotone


# name: (runner, settings), where settings maps every field the scenario
# reads, besides ``seed``, to its default.  A quadratic scenario's runner
# names its verdict tests ``test(cert, report, trace) -> (suffix, value)``
# and notes; every run goes to ``iters`` rows unless it diverges
SCENARIOS = {
    "fig1": (partial(_run_quadratic_family, tests=(_coverage, _v_monotone),
                     notes=(_distance_rises,)),
             dict(dim=107, mu=1.0, L=1000.0, iters=2000, optimal=True, x0_scale=10.0, **_HYPER)),
    "quadratic": (partial(_run_quadratic_family,
                          tests=(_coverage, _v_monotone, lambda cert, rep, tr:
                                 ("terminal_V_below_floor", tr.lyapunov[-1] < _V_FLOOR))),
                  dict(dim=100, mu=1.0, L=1000.0, iters=300, optimal=True, x0_scale=10.0,
                       **_HYPER)),
    "nonoptimal": (partial(_run_quadratic_family, tests=(_coverage, _v_monotone)),
                   dict(dim=50, mu=1.0, L=10.0, iters=40, optimal=False, x0_scale=10.0,
                        **_HYPER)),
    "convex-mu0": (partial(_run_quadratic_family,
                           tests=(lambda cert, rep, tr: ("certificate_ineligible",
                                                         not cert.eligible),
                                  lambda cert, rep, tr: ("unit_eigenvalue_at_zero", abs(
                                      float(cert.per_coordinate.rate[0]) - 1.0) <= 1e-9)),
                           notes=(_v_drop,)),
                   dict(dim=50, mu=0.0, L=10.0, iters=1000, optimal=False, x0_scale=10.0,
                        **_HYPER)),
    "cosine": (_run_cosine, dict(iters=400)),
    "tmm-witness": (_run_tmm_witness, dict(dim=107, mu=1.0, L=1000.0, iters=80, x0_scale=10.0)),
    "expnorm": (partial(_run_objective_family, objective=lambda cfg: exp_norm_objective(cfg.dim),
                        title="objective: exp(|x|^2), small-step runs (no global smoothness "
                              "bound)", alpha=0.02, beta=0.3),
                dict(dim=2, iters=600, x0_scale=0.8, method=None)),
    "rosenbrock": (partial(_run_objective_family, objective=lambda cfg: rosenbrock_objective(),
                           title="objective: Rosenbrock, small-step runs near the minimizer",
                           alpha=5e-4, beta=0.5),
                   dict(iters=4000, x0_scale=0.5, method=None)),
}


class _Refused(ValueError):
    """A scenario setting refused before anything runs: a usage error."""


def _with_row(cfg: ScenarioConfig) -> ScenarioConfig:
    """``cfg`` with each unset setting of its scenario's row at the row's
    default; an unknown name, a set field outside the row (named by its
    flag) and beta or gamma without alpha are ``_Refused`` before anything runs."""
    if cfg.name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise _Refused(f"unknown scenario {cfg.name!r} (known: {known})")
    row = SCENARIOS[cfg.name][1]
    unread = [f"--{key.replace('_', '-')}" for key, value in vars(cfg).items()
              if value is not None and key not in (*row, "name", "out", "seed")]
    if unread:
        raise _Refused(f"scenario {cfg.name} does not take {', '.join(unread)}")
    for key in ("beta", "gamma"):  # without alpha a scenario runs its own values
        if getattr(cfg, key) is not None and cfg.alpha is None:
            raise _Refused(f"--{key} needs --alpha")
    return replace(cfg, **{k: v for k, v in row.items() if getattr(cfg, k) is None})


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run a scenario from the catalog; artifact files land in ``cfg.out``."""
    cfg = _with_row(cfg)
    return SCENARIOS[cfg.name][0](cfg)
