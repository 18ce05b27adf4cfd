"""Command line interface.

Subcommands: generate, analyze, run, scenario, check.  Every flag can also be
supplied through ``--config FILE`` (flat ``key = value`` lines, ``#`` comments,
keys named like the flags); explicit flags take precedence over the file.

Exit codes: 0 success, 1 verdict failure (ineligible certificate, diverged
run, violated monotonicity, failed scenario), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .lyapunov import DEFAULT_TOLERANCE, _require_tolerance, check_monotone
from .methods import HB, NAG, NAGGS, TMM, MethodSpec, optimal_hyperparams
from .problems import (_require_spectrum, generate_quadratic, load_problem,
                       save_problem)
from .scenarios import (SCENARIOS, ScenarioConfig, _with_row, _x0,
                        parse_config_file, run_scenario)
from .spectral import (DEFAULT_TOL, analyze, certificate_csv_text,
                       certificate_report_text)
from .trace import _blocks, _series, _stream_csv, series_from_csv

_METHOD_NAMES = {
    "hb": HB, "heavy-ball": HB,
    "nag": NAG,
    "tmm": TMM,
    "nag-gs": NAGGS, "naggs": NAGGS, "nag_gs": NAGGS,
}


class UsageError(argparse.ArgumentTypeError, ValueError):
    """Bad invocation: unknown names, missing or conflicting options.

    Doubles as an ``argparse`` type error so values rejected during flag
    parsing surface as a normal usage message (exit 2), not a traceback.
    """


def parse_method(text: str) -> str:
    key = text.strip().lower()
    if key not in _METHOD_NAMES:
        known = ", ".join(sorted(set(_METHOD_NAMES)))
        raise UsageError(f"unknown method {text!r} (known: {known})")
    return _METHOD_NAMES[key]


def _count(name: str, low: int):
    def parse(text: str) -> int:
        if not text.strip().lstrip("+-").isdecimal() or int(text) < low:
            raise UsageError(f"{name} must be an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def _parse_bool(text: str) -> bool:
    key = text.strip().lower()
    if key in ("1", "true", "yes", "on"):
        return True
    if key in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


# every flag, keyed like its config-file key; a config value goes through
# the flag's ``type``, and the ``optimal`` switch reads a boolean
_FLAGS = {
    "dim": dict(type=_count("dim", 1), help="problem dimension / grid size"),
    "mu": dict(type=float, help="smallest curvature"),
    "L": dict(type=float, help="largest curvature"),
    "method": dict(type=parse_method, help="hb | nag | tmm | nag-gs"),
    "alpha": dict(type=float, help="step size"),
    "beta": dict(type=float, help="momentum"),
    "gamma": dict(type=float, help="second momentum (tmm only)"),
    "optimal": dict(action="store_const", const=True,
                    help="use tuned hyperparameters for [mu, L]"),
    "iters": dict(type=_count("iters", 3), help="iteration count (>= 3)"),
    "seed": dict(type=int, help="random seed"),
    "out": dict(type=str, help="output path (file or directory)"),
    "x0-scale": dict(type=float, help="initial distance from the minimizer"),
    "tolerance": dict(type=float, help="comparison tolerance"),
    "problem": dict(type=str, help="problem .npz written by 'generate'"),
}


def _merged(args, config: dict, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is None and key in config:
        val = _FLAGS[key].get("type", _parse_bool)(config[key])
    return default if val is None else val


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required {flag}")
    return value


def _optimal(args, config) -> bool:
    """The ``optimal`` switch; tuned values leave no hyperparameter to set."""
    optimal = _merged(args, config, "optimal", False)
    given = [f"--{k}" for k in ("alpha", "beta", "gamma")
             if _merged(args, config, k) is not None]
    if optimal and given:
        raise UsageError(f"--optimal conflicts with explicit {', '.join(given)}")
    return optimal


def _method_spec(args, config, mu, L) -> MethodSpec:
    kind = _require(_merged(args, config, "method"), "--method")
    alpha = _merged(args, config, "alpha")
    if _optimal(args, config):
        _require(mu, "--mu (needed by --optimal)")
        _require(L, "--L (needed by --optimal)")
        return optimal_hyperparams(kind, mu, L)
    _require(alpha, "--alpha (or --optimal)")
    beta = _merged(args, config, "beta", 0.0)
    gamma = _merged(args, config, "gamma", 0.0)
    return MethodSpec(kind, alpha=alpha, beta=beta, gamma=gamma)


def _cmd_generate(args, config) -> int:
    dim = _merged(args, config, "dim", 50)
    mu = _merged(args, config, "mu", 1.0)
    L = _merged(args, config, "L", 10.0)
    seed = _merged(args, config, "seed", 0)
    out = _require(_merged(args, config, "out"), "--out")
    problem = generate_quadratic(dim, mu, L, seed)
    save_problem(problem, out)
    print(f"wrote quadratic problem: dim={dim} spectrum=[{mu:g}, {L:g}] "
          f"seed={seed} -> {out}")
    return 0


def _load_or_generate(args, config):
    path = _merged(args, config, "problem")
    if path is not None:
        return load_problem(path)
    dim = _merged(args, config, "dim", 50)
    mu = _merged(args, config, "mu", 1.0)
    L = _merged(args, config, "L", 10.0)
    seed = _merged(args, config, "seed", 0)
    return generate_quadratic(dim, mu, L, seed)


def _cmd_analyze(args, config) -> int:
    tol = _merged(args, config, "tolerance", DEFAULT_TOL)
    path = _merged(args, config, "problem")
    if path is not None:
        problem = load_problem(path)
        eigvals = problem.eigvals
        mu, L = problem.mu, problem.lipschitz
    else:
        mu = _require(_merged(args, config, "mu"), "--mu (or --problem)")
        L = _require(_merged(args, config, "L"), "--L (or --problem)")
    spec = _method_spec(args, config, mu, L)  # tuned: rejects non-finite mu, L
    if path is None:
        _require_spectrum(mu, L)
        npts = _merged(args, config, "dim", 100)
        eigvals = np.linspace(mu, L, npts) if npts > 1 else np.array([L])
    cert = analyze(spec, eigvals, tol=tol)
    out = _merged(args, config, "out")
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(certificate_csv_text(cert))
    sys.stdout.write(certificate_report_text(cert))
    if out is not None:
        print(f"certificate rows -> {out}")
    return 0 if cert.eligible else 1


def _cmd_run(args, config) -> int:
    problem = _load_or_generate(args, config)
    spec = _method_spec(args, config, problem.mu, problem.lipschitz)
    iters = _merged(args, config, "iters", 2000)
    seed = _merged(args, config, "seed", 0)
    scale = _merged(args, config, "x0-scale", 10.0)
    out = _require(_merged(args, config, "out"), "--out")
    tol = _merged(args, config, "tolerance", DEFAULT_TOLERANCE)
    _require_tolerance(tol)  # before the run writes ``out``
    x0 = _x0(problem.minimizer, scale, seed)
    rows, last, lyap = _stream_csv(_blocks(problem, spec, x0, iters), out)
    rep = check_monotone(_series(lyap, tol))
    print(f"rows={rows} final_gap={last.objective_gap[-1]:.6g} "
          f"final_distance={last.distance[-1]:.6g} "
          f"diverged={'yes' if last.diverged else 'no'}")
    print(rep.describe())
    print(f"trace -> {out}")
    return 1 if last.diverged else 0


def _cmd_scenario(args, config) -> int:
    name = args.name or config.get("scenario")
    if name is None:
        raise UsageError("missing scenario name")
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise UsageError(f"unknown scenario {name!r} (known: {known})")
    out = _merged(args, config, "out", os.path.join("artifacts", name))
    # unset fields keep the dataclass defaults (seed, tolerance) or the row's
    values = {f.name: _merged(args, config, f.name.replace("_", "-"))
              for f in fields(ScenarioConfig) if f.name not in ("name", "out")}
    cfg = ScenarioConfig(name=name, out=out,
                         **{k: v for k, v in values.items() if v is not None})
    _with_row(cfg)  # a flag the scenario does not read is refused first (exit 1)
    _optimal(args, config)
    for key in ("beta", "gamma"):  # without --alpha a scenario runs its own values
        if values[key] is not None and values["alpha"] is None:
            raise UsageError(f"--{key} needs --alpha")
    result = run_scenario(cfg)
    with open(result.report_path, "r", encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    print(f"artifacts: {len(result.artifacts)} files in {out}")
    return 0 if result.ok else 1


def _cmd_check(args, config) -> int:
    path = args.trace or config.get("trace")
    if path is None:
        raise UsageError("missing trace CSV path")
    tol = _merged(args, config, "tolerance", DEFAULT_TOLERANCE)
    series = series_from_csv(path, tolerance=tol)
    rep = check_monotone(series)
    print(rep.describe())
    for v in rep.violations[:10]:
        print(f"  k={v.index}: V {v.v_prev:.9g} -> {v.v_next:.9g} (excess {v.excess:.3g})")
    if len(rep.violations) > 10:
        print(f"  ... {len(rep.violations) - 10} more")
    return 0 if rep.monotone else 1


def _add_common(sub: argparse.ArgumentParser, *names) -> None:
    # accepted after the subcommand too; SUPPRESS keeps the subparser from
    # clobbering a value parsed before the subcommand
    sub.add_argument("--config", type=str, default=argparse.SUPPRESS,
                     help="flat key = value file mirroring the flags")
    for name in names:
        sub.add_argument(f"--{name}", default=None, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyapcert",
        description="Spectral certificates and Lyapunov traces for two-step "
                    "momentum methods on quadratics.")
    parser.add_argument("--config", type=str, default=None,
                        help="flat key = value file mirroring the flags")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("generate", help="generate a quadratic problem file")
    _add_common(g, "dim", "mu", "L", "seed", "out")

    a = subs.add_parser("analyze", help="certificate for a method on a spectrum")
    _add_common(a, "method", "alpha", "beta", "gamma", "optimal",
                "mu", "L", "dim", "problem", "tolerance", "out")

    r = subs.add_parser("run", help="run one method and export the trace CSV")
    _add_common(r, "method", "alpha", "beta", "gamma", "optimal", "dim",
                "mu", "L", "iters", "seed", "x0-scale", "problem",
                "tolerance", "out")

    s = subs.add_parser("scenario", help="run a named scenario end to end")
    s.add_argument("name", nargs="?", default=None,
                   help=f"one of: {', '.join(sorted(SCENARIOS))}")
    _add_common(s, "dim", "mu", "L", "method", "alpha", "beta", "gamma",
                "optimal", "iters", "seed", "x0-scale", "tolerance", "out")

    c = subs.add_parser("check", help="monotonicity verdict for a trace CSV")
    c.add_argument("trace", nargs="?", default=None, help="trace CSV path")
    _add_common(c, "tolerance")

    return parser


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "run": _cmd_run,
    "scenario": _cmd_scenario,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = parse_config_file(args.config) if args.config else {}
        return _COMMANDS[args.command](args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
