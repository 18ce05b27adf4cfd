"""Command line interface.

Subcommands: generate, analyze, run, scenario, check.  Every flag can also be
supplied through ``--config FILE`` (flat ``key = value`` lines, ``#`` comments,
keys named like the flags); explicit flags take precedence over the file,
and a key the subcommand has no flag for is refused.  ``COMMANDS`` holds
each subcommand's flags and defaults.

Exit codes: 0 success, 1 verdict failure (ineligible certificate, diverged
run, violated monotonicity, failed scenario), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import MISSING, fields

from ._files import whole_file
from .lyapunov import _bounds_distance, _MonotoneScan
from .methods import HB, NAG, NAGGS, TMM, MethodSpec, optimal_hyperparams
from .problems import (_require_spectrum, _spectrum_grid, generate_quadratic,
                       load_problem, save_problem)
from .scenarios import (SCENARIOS, ScenarioConfig, _Refused, _require_finite_scale, _x0,
                        parse_config_file, run_scenario)
from .spectral import (DEFAULT_TOL, _require_tolerance, analyze, certificate_csv_text,
                       certificate_report_text)
from . import trace
from .trace import _blocks, _require_v, _scan_csv, _stream_csv

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
        digits = text.strip()
        digits = digits[1:] if digits.startswith(("+", "-")) else digits
        if not digits.isdecimal() or int(text) < low:
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
    "seed": dict(type=_count("seed", 0), help="random seed (>= 0)"),
    "out": dict(type=str, help="output path (file or directory)"),
    "x0-scale": dict(type=float, help="initial distance from the minimizer"),
    "tolerance": dict(type=float, help="conjugate-pair discriminant tolerance"),
    "problem": dict(type=str, help="problem .npz written by 'generate'"),
}


def _merged(args, config: dict, key: str):
    """Flag value if given, else config-file value, else None."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is None and key in config:
        val = _FLAGS[key].get("type", _parse_bool)(config[key])
    return val


def _resolve(args, config: dict, row: dict, positional) -> dict:
    """Every option of ``row``: flag, else config value, else the row's
    default; options that exclude each other are refused here."""
    given = {key: val for key in row
             if (val := _merged(args, config, key)) is not None}
    clash = [f"--{key}" for key in ("dim", "mu", "L") if key in given]
    if "problem" in given and clash:
        raise UsageError(f"--problem conflicts with {', '.join(clash)}")
    clash = [f"--{key}" for key in ("alpha", "beta", "gamma") if key in given]
    if given.get("optimal") and clash:
        raise UsageError(f"--optimal conflicts with explicit {', '.join(clash)}")
    options = {**row, **given}
    if positional is not None:
        options[positional] = getattr(args, positional) or config.get(positional)
    return options


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required {flag}")
    return value


def _method_spec(o: dict, mu=None, L=None) -> MethodSpec | None:
    """The method of ``o``; a tuned one needs the spectrum's (mu, L) and is
    None without it."""
    kind = _require(o["method"], "--method")
    if o["optimal"]:
        return None if mu is None else optimal_hyperparams(kind, mu, L)
    alpha = _require(o["alpha"], "--alpha (or --optimal)")
    return MethodSpec(kind, alpha=alpha, beta=o["beta"], gamma=o["gamma"])


def _cmd_generate(o: dict) -> int:
    """generate a quadratic problem file"""
    out = _require(o["out"], "--out")
    save_problem(generate_quadratic(o["dim"], o["mu"], o["L"], o["seed"]), out)
    print(f"wrote quadratic problem: dim={o['dim']} spectrum=[{o['mu']:g}, {o['L']:g}] "
          f"seed={o['seed']} -> {out}")
    return 0


def _cmd_analyze(o: dict) -> int:
    """certificate for a method on a spectrum"""
    path = o["problem"]
    if path is None:
        mu = _require(o["mu"], "--mu (or --problem)")
        L = _require(o["L"], "--L (or --problem)")
    spec = _method_spec(o)  # usage errors first, then an explicit spec's values
    _require_tolerance(o["tolerance"])  # before a problem is read
    if path is not None:
        problem = load_problem(path)
        eigvals = problem.eigvals
        mu, L = problem.mu, problem.lipschitz
    spec = spec or _method_spec(o, mu, L)  # tuned: rejects non-finite mu, L
    if path is None:
        _require_spectrum(mu, L)
        eigvals = _spectrum_grid(mu, L, o["dim"])
    cert = analyze(spec, eigvals, tol=o["tolerance"])
    out = o["out"]
    if out is not None:
        with whole_file(out) as fh:
            fh.write(certificate_csv_text(cert))
    sys.stdout.write(certificate_report_text(cert))
    if out is not None:
        print(f"certificate rows -> {out}")
    return 0 if cert.eligible else 1


def _cmd_run(o: dict) -> int:
    """run one method and export the trace CSV"""
    out = _require(o["out"], "--out")
    spec = _method_spec(o)  # usage errors first, then an explicit spec's values
    _require_finite_scale(o["x0-scale"])  # before a problem is built or read
    problem = (load_problem(o["problem"]) if o["problem"] is not None
               else generate_quadratic(o["dim"], o["mu"], o["L"], o["seed"]))
    spec = spec or _method_spec(o, problem.mu, problem.lipschitz)
    x0 = _x0(problem.minimizer, o["x0-scale"], o["seed"])
    scan = _MonotoneScan(start=2)  # the verdict, fed as the CSV is written
    rows, last = _stream_csv(_blocks(problem, (spec,), x0, o["iters"]), out, scan)
    # the summary first: a run cut before V is defined still shows it
    print(f"rows={rows} final_gap={last.objective_gap[-1]:.6g} "
          f"final_distance={last.distance[-1]:.6g} "
          f"diverged={'yes' if last.diverged else 'no'}")
    _require_v(rows)
    print(scan.report().describe(_bounds_distance(last.diverged, last.certificate)))
    print(f"trace -> {out}")
    return 1 if last.diverged else 0


def _cmd_scenario(o: dict) -> int:
    """run a named scenario end to end"""
    name = o.pop("scenario")
    if name is None:
        raise UsageError("missing scenario name")
    if o["out"] is None:
        o["out"] = os.path.join("artifacts", name)
    cfg = ScenarioConfig(name=name, **{k.replace("-", "_"): v for k, v in o.items()})
    result = run_scenario(cfg)
    with open(result.report_path, "r", encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    print(f"artifacts: {len(result.artifacts)} files in {cfg.out}")
    return 0 if result.ok else 1


def _cmd_check(o: dict) -> int:
    """monotonicity verdict for a trace CSV"""
    path = o["trace"]
    if path is None:
        raise UsageError("missing trace CSV path")
    rep, last = _scan_csv(path)
    # the run's own stop rule: a last row beyond the threshold diverged
    diverged = bool(last > trace.DIVERGENCE_THRESHOLD)
    if diverged:
        print(f"final_distance={last:.6g} diverged=yes")
    print(rep.describe(_bounds_distance(diverged, None)))  # a CSV has no certificate
    for i in range(rep.index.size):  # the first ten
        print(f"  {rep._step(i)}")
    if rep.count > rep.index.size:
        print(f"  ... {rep.count - rep.index.size} more")
    return 0 if rep.monotone and not diverged else 1


# the method options ``_method_spec`` reads, shared by analyze and run
_SPEC = dict(method=None, alpha=None, beta=0.0, gamma=0.0, optimal=False)

# name: (handler, positional, {flag: default}); a default of None is "unset",
# and the positional is also a config key.  The scenario row is
# ``ScenarioConfig``'s fields, so unset options take the scenario's own row.
COMMANDS = {
    "generate": (_cmd_generate, None, dict(dim=50, mu=1.0, L=10.0, seed=0, out=None)),
    "analyze": (_cmd_analyze, None, dict(**_SPEC, mu=None, L=None, dim=100, problem=None,
                                         tolerance=DEFAULT_TOL, out=None)),
    "run": (_cmd_run, None, {**_SPEC, "dim": 50, "mu": 1.0, "L": 10.0, "iters": 2000,
                             "seed": 0, "x0-scale": 10.0, "problem": None, "out": None}),
    "scenario": (_cmd_scenario, "scenario",
                 {f.name.replace("_", "-"): None if f.default is MISSING else f.default
                  for f in fields(ScenarioConfig) if f.name != "name"}),
    "check": (_cmd_check, "trace", {}),
}

_POSITIONALS = {"scenario": f"one of: {', '.join(sorted(SCENARIOS))}",
                "trace": "trace CSV path"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, from ``COMMANDS`` and ``_FLAGS``.

    Built once per process: both tables are constant, so every call returns
    the same parser, which ``main`` reuses; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lyapcert",
        description="Spectral certificates and Lyapunov traces for two-step "
                    "momentum methods on quadratics.")
    parser.add_argument("--config", type=str, default=None,
                        help="flat key = value file mirroring the flags")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, positional, row) in COMMANDS.items():
        sub = subs.add_parser(name, help=handler.__doc__, description=handler.__doc__)
        if positional is not None:
            sub.add_argument(positional, nargs="?", default=None,
                             help=_POSITIONALS[positional])
        # accepted after the subcommand too; SUPPRESS keeps the subparser
        # from clobbering a value parsed before the subcommand
        sub.add_argument("--config", type=str, default=argparse.SUPPRESS,
                         help="flat key = value file mirroring the flags")
        for key, default in row.items():
            spec = dict(_FLAGS[key])
            if default is not None:
                spec["help"] += f" (default: {default})"
            sub.add_argument(f"--{key}", default=None, **spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, positional, row = COMMANDS[args.command]
    try:
        config = parse_config_file(args.config) if args.config else {}
        unread = [key for key in config if key not in row and key != positional]
        if unread:  # refused before anything runs, as an unknown flag is
            raise UsageError(f"{args.command} does not read config "
                             f"key{'s' * (len(unread) > 1)} {', '.join(unread)}")
        return handler(_resolve(args, config, row, positional))
    except (UsageError, _Refused) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
