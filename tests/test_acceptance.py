"""End-to-end acceptance gate.

Each test checks one headline behaviour of the package and prints a single
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  Tolerances and runtime bounds are asserted, not aspirational.
"""

import time

import numpy as np
import pytest

from lyapcert import (HB, NAG, NAGGS, TMM, ScenarioConfig, analyze,
                      cosine_counterexample, exp_norm_objective,
                      find_cosine_witness, generate_quadratic,
                      optimal_hyperparams, rosenbrock_objective, run_scenario,
                      run_trace)
from conftest import fd_gradient, random_eligible_coeffs
from reference import (companion, eigenvalues, per_coordinate_V,
                       quadratic_objective, scalar_V, schur, vector_V)


def verdict(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


def test_01_exact_contraction_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-1.5, 1.5)
        xs = [rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)]
        for _ in range(50):
            xs.append(a * xs[-1] + b * xs[-2])
        scale = max(1.0, max(x * x for x in xs))
        for k in range(2, len(xs) - 1):
            v_k = scalar_V(xs[k], xs[k - 1], xs[k - 2])
            v_k1 = scalar_V(xs[k + 1], xs[k], xs[k - 1])
            worst = max(worst, abs(v_k1 - (-b) * v_k) / scale)
    elapsed = time.perf_counter() - t0
    verdict(1, "V contracts by exactly -b for arbitrary coefficients",
            worst <= 1e-12 and elapsed < 1.0,
            f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_02_tuned_hb_modulus_and_trace_rate():
    spec = optimal_hyperparams(HB, 1.0, 4.0)
    cert = analyze(spec, np.linspace(1.0, 4.0, 100))
    rates = np.array([r.rate for r in cert.per_coordinate])
    moduli_ok = cert.eligible and np.max(np.abs(rates - 1.0 / 3.0)) <= 1e-10

    p = generate_quadratic(10, 1.0, 4.0, seed=7)
    rng = np.random.default_rng(202)
    x0 = p.minimizer + rng.standard_normal(10)
    tr = run_trace(p, spec, x0, 400)
    v = tr.lyapunov[2:]
    ratios = [v[k + 1] / v[k] for k in range(v.shape[0] - 1) if v[k] > 1e-300]
    ratio_err = max(abs(r - 1.0 / 9.0) for r in ratios)
    verdict(2, "tuned HB: every modulus 1/3 and V ratio 1/9 down to 1e-300",
            moduli_ok and ratio_err <= 1e-8,
            f"max rate err {np.max(np.abs(rates - 1/3)):.2e}, "
            f"max ratio err {ratio_err:.2e} over {len(ratios)} steps")


def test_03_eligibility_split_across_tunings():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(20):
        mu = rng.uniform(0.01, 10.0)
        L = mu * 10.0 ** rng.uniform(np.log10(1.05), 4.0)
        grid = np.linspace(mu, L, 1000)
        for kind in (HB, NAG, NAGGS):
            ok = ok and analyze(optimal_hyperparams(kind, mu, L), grid).eligible
        cert = analyze(optimal_hyperparams(TMM, mu, L), grid)
        ok = ok and not cert.eligible
        ok = ok and not cert.per_coordinate[-1].conjugate_pair  # lam = L
    elapsed = time.perf_counter() - t0
    verdict(3, "tuned HB/NAG/NAG-GS certify any spectrum, tuned TMM never does",
            ok and elapsed < 5.0, f"20 spectra x 1000 points, {elapsed:.2f}s")


def test_04_schur_factorization_invariants():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        a, b = random_eligible_coeffs(rng)
        U, T = schur(a, b)
        l1, l2 = eigenvalues(a, b)
        eye = np.eye(2)
        worst = max(
            worst,
            float(np.max(np.abs(U @ U.conj().T - eye))),
            float(np.max(np.abs(U.conj().T @ U - eye))),
            float(np.max(np.abs(U @ T @ U.conj().T - companion(a, b)))),
            abs(T[1, 0]),
            abs(T[0, 0] - l1),
            abs(T[1, 1] - l2),
        )
    verdict(4, "Schur factors: unitary, triangular, exact reconstruction",
            worst <= 1e-12, f"worst residual {worst:.2e} over 1000 samples")


def test_05_lyapunov_value_decomposition():
    rng = np.random.default_rng(505)
    worst = 0.0
    for i in range(100):
        p = generate_quadratic(8, 1.0, 10.0, seed=i)
        xs = p.minimizer
        x2, x1, x0 = (xs + rng.standard_normal(8) for _ in range(3))
        direct = vector_V(x2, x1, x0, xs)
        q = p.eigvecs
        in_basis = float(np.sum(per_coordinate_V(
            q.T @ (x2 - xs), q.T @ (x1 - xs), q.T @ (x0 - xs))))
        worst = max(worst, abs(direct - in_basis) / max(1.0, abs(direct)))
    verdict(5, "vector V equals the sum of its eigenbasis coordinates",
            worst <= 1e-10, f"worst relative gap {worst:.2e} over 100 triples")


def test_06_showcase_scenario_verdicts(tmp_path):
    t0 = time.perf_counter()
    res = run_scenario(ScenarioConfig(name="fig1", out=str(tmp_path)))
    elapsed = time.perf_counter() - t0
    failed = [k for k, v in res.verdicts.items() if not v]
    verdict(6, "full-size showcase scenario: certificates, monotone V, "
               "non-monotone distances", res.ok and elapsed < 30.0,
            f"{len(res.verdicts)} verdicts, failed={failed or 'none'}, {elapsed:.1f}s")


def test_07_degenerate_convex_spectrum(tmp_path):
    res = run_scenario(ScenarioConfig(name="convex-mu0", out=str(tmp_path)))
    failed = [k for k, v in res.verdicts.items() if not v]
    verdict(7, "mu = 0: unit eigenvalue at the flat direction, no certificate",
            res.ok, f"failed={failed or 'none'}")


def test_08_cosine_monotonicity_witness():
    found = find_cosine_witness()
    if found is None:
        verdict(8, "tuned HB on the cosine objective violates V-monotonicity",
                False, "no violation across 100 seeded starts")
    s, x0, trace, rep = found
    verdict(8, "tuned HB on the cosine objective violates V-monotonicity",
            not rep.monotone,
            f"seed={s} x0={x0[0]:.6g} first violation k={rep.index[0]}")


def test_09_modulus_equalization_contrast():
    grid = np.linspace(1.0, 100.0, 200)
    spreads = {}
    for kind in (HB, NAG, TMM, NAGGS):
        cert = analyze(optimal_hyperparams(kind, 1.0, 100.0), grid)
        rates = [r.rate for r in cert.per_coordinate]
        spreads[kind] = max(rates) - min(rates)
    ok = (spreads[HB] < 1e-6 and spreads[NAGGS] < 1e-6
          and spreads[NAG] > 1e-3 and spreads[TMM] > 1e-3)
    verdict(9, "tuned HB/NAG-GS equalize all moduli; tuned NAG/TMM do not",
            ok, ", ".join(f"{k}={v:.2e}" for k, v in spreads.items()))


def test_10_gradient_oracle_consistency():
    rng = np.random.default_rng(1010)
    quad = quadratic_objective(generate_quadratic(20, 1.0, 10.0, seed=5))
    targets = [
        ("quadratic", quad, lambda: rng.standard_normal(20)),
        ("cosine", cosine_counterexample(), lambda: rng.uniform(-3, 3, size=1)),
        ("expnorm", exp_norm_objective(3), lambda: rng.uniform(-1, 1, size=3)),
        ("rosenbrock", rosenbrock_objective(), lambda: rng.uniform(-1.5, 1.5, size=2)),
    ]
    worst = {}
    for name, obj, draw in targets:
        err = 0.0
        for _ in range(100):
            x = draw()
            g = np.asarray(obj.gradient(x), dtype=float)
            fd = fd_gradient(obj.value, x)
            err = max(err, float(np.max(np.abs(g - fd))) /
                      max(1.0, float(np.linalg.norm(g))))
        worst[name] = err
    ok = all(v <= 1e-6 for v in worst.values())
    verdict(10, "every gradient oracle matches central finite differences",
            ok, ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_11_scaling_runs_emit_artifacts(tmp_path):
    t0 = time.perf_counter()
    ok = True
    notes = []
    for dim in (100, 200, 500):
        out = tmp_path / f"d{dim}"
        res = run_scenario(ScenarioConfig(name="quadratic", out=str(out), dim=dim))
        ok = ok and res.ok
        csvs = [p for p in res.artifacts if p.endswith(".csv")]
        svgs = [p for p in res.artifacts if p.endswith(".svg")]
        ok = ok and len(csvs) >= 8 and len(svgs) >= 4
        floors = [k for k in res.verdicts if k.endswith("terminal_V_below_floor")]
        ok = ok and len(floors) >= 3 and all(res.verdicts[k] for k in floors)
        notes.append(f"d={dim} ok={res.ok}")
    elapsed = time.perf_counter() - t0
    verdict(11, "large instances finish fast with full CSV/SVG artifact sets",
            ok and elapsed < 120.0, f"{'; '.join(notes)}; total {elapsed:.1f}s")
