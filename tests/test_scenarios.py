import contextlib
import errno
import hashlib
import json
import os
import pathlib
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from lyapcert import (HB, NAG, NAGGS, SCENARIOS, SUITABLE, TMM, MethodSpec,
                      ScenarioConfig, analyze, find_cosine_witness, find_tmm_witness,
                      generate_quadratic, optimal_hyperparams, parse_config_file,
                      run_scenario)
from lyapcert import scenarios, svgplot
from lyapcert.cli import main
from lyapcert.scenarios import _specs, _with_row
from reference import read_trace_csv


def run_quick(name, out, **overrides):
    cfg = ScenarioConfig(name=name, out=str(out), **overrides)
    return run_scenario(cfg)


def report_text(result):
    with open(result.report_path, "r", encoding="utf-8") as fh:
        return fh.read()


class TestParseConfigFile:
    def test_basic(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("dim = 5\nmu=1.0\n L = 10 \n", encoding="utf-8")
        assert parse_config_file(p) == {"dim": "5", "mu": "1.0", "L": "10"}

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\n\nseed = 3  # inline\n   \n", encoding="utf-8")
        assert parse_config_file(p) == {"seed": "3"}

    def test_error_names_the_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("dim = 5\nnot a pair\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":2:"):
            parse_config_file(p)

    @pytest.mark.parametrize("line,message", [
        ("= 5", "expected 'key = value'"), ("  =", "expected 'key = value'"),
        ("dim = 7", "key 'dim' given twice")])
    def test_keyless_or_repeated_line(self, tmp_path, line, message):
        # not a key named '', nor the last of two values
        p = tmp_path / "c.cfg"
        p.write_text(f"dim = 5\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            parse_config_file(p)
        assert str(exc.value) == f"{p}:2: {message}"


class TestCatalog:
    def test_scenario_names(self):
        assert sorted(SCENARIOS) == ["convex-mu0", "cosine", "expnorm", "fig1",
                                     "nonoptimal", "quadratic", "rosenbrock",
                                     "tmm-witness"]

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_quick("nope", tmp_path)

    def test_suitable_table_is_eligible_on_its_interval(self):
        grid = np.linspace(1.0, 10.0, 33)
        for kind, (al, be, ga) in SUITABLE.items():
            cert = analyze(MethodSpec(kind, alpha=al, beta=be, gamma=ga), grid)
            assert cert.eligible, kind

    def test_gamma_serves_tmm_among_all_kinds(self):
        cfg = ScenarioConfig(name="nonoptimal", out="unused", alpha=0.1, beta=0.2, gamma=0.3)
        assert {k: s.gamma for k, s in _specs(cfg).items()} == {
            HB: 0.0, NAG: 0.0, TMM: 0.3, NAGGS: 0.0}

    @pytest.mark.parametrize("kind", [HB, NAG, NAGGS])
    def test_gamma_for_one_named_kind_is_passed_on(self, kind):
        cfg = ScenarioConfig(name="nonoptimal", out="unused", method=kind,
                             alpha=0.1, beta=0.2, gamma=0.3)
        with pytest.raises(ValueError, match="gamma is only used by TMM"):
            _specs(cfg)
        assert _specs(replace(cfg, method=TMM))[TMM].gamma == 0.3


class TestQuadraticScenarios:
    def test_fig1_quick(self, tmp_path):
        res = run_quick("fig1", tmp_path, dim=8, iters=300)
        assert res.ok
        assert res.verdicts["hb_certificate_eligible"]
        assert res.verdicts["nag_V_monotone"]
        assert not [key for key in res.verdicts if "distance" in key]
        for path in res.artifacts:
            assert os.path.isfile(path)
        text = report_text(res)
        assert "overall: PASS" in text
        assert re.search(r"^HB: distance rises at [1-9]\d* of 299 steps$", text, re.M)
        assert "TMM: eligible=no" in text
        assert os.path.isfile(tmp_path / "fig1_spectrum.svg")
        assert os.path.isfile(tmp_path / "fig1_overview.svg")

    def test_fig1_tmm_rate_is_resolved(self, tmp_path):
        # under a fixed floor of 1e-9 the default fig1 reported TMM's max
        # ratio as 2.1468e+21, a ratio of roundoff; the rate now leaves out
        # the steps whose V is within the slack, and says how many; the
        # certificate is not eligible, so the line says V bounds no distance
        line = next(ln for ln in report_text(run_quick("fig1", tmp_path)).splitlines()
                    if ln.startswith("TMM: eligible"))
        assert "e+21" not in line
        assert re.search(r"monotone decrease: yes \(max ratio 0\.9\d+ over positive values, "
                         r"[1-9]\d* steps within roundoff left out\); V is not positive "
                         r"definite here and bounds no distance$", line)

    def test_quadratic_quick(self, tmp_path):
        res = run_quick("quadratic", tmp_path, dim=5, mu=1.0, L=16.0, iters=400)
        assert res.ok
        for kind in ("hb", "nag", "tmm", "naggs"):
            assert res.verdicts[f"{kind}_V_monotone"]
            assert res.verdicts[f"{kind}_terminal_V_below_floor"]
        # tuned TMM is judged too: its equal start is covered, not its certificate
        assert res.verdicts["tmm_equal_start_monotone"]
        assert "tmm_certificate_eligible" not in res.verdicts

    def test_nonoptimal_quick(self, tmp_path):
        res = run_quick("nonoptimal", tmp_path, dim=5, iters=200)
        assert res.ok
        for kind in ("hb", "nag", "tmm", "naggs"):
            assert res.verdicts[f"{kind}_certificate_eligible"]
            assert res.verdicts[f"{kind}_V_monotone"]

    def test_convex_mu0_quick(self, tmp_path):
        res = run_quick("convex-mu0", tmp_path, dim=5, iters=150)
        assert res.ok
        for kind in ("hb", "nag", "tmm", "naggs"):
            assert res.verdicts[f"{kind}_certificate_ineligible"]
            assert res.verdicts[f"{kind}_unit_eigenvalue_at_zero"]
        assert "roundoff" in report_text(res)

    def test_method_restriction(self, tmp_path):
        res = run_quick("nonoptimal", tmp_path, dim=4, iters=150, method="HB")
        assert res.ok
        assert set(res.verdicts) == {"hb_certificate_eligible", "hb_V_monotone"}
        assert not os.path.isfile(tmp_path / "nonoptimal_nag_trace.csv")
        assert os.path.isfile(tmp_path / "nonoptimal_hb_trace.csv")

    def test_rejects_unnormalized_method(self, tmp_path):
        with pytest.raises(ValueError, match="unknown method kind"):
            run_quick("nonoptimal", tmp_path, dim=4, iters=150, method="hb")

    @pytest.mark.parametrize("name", sorted(set(SCENARIOS) - {"cosine", "rosenbrock"}))
    def test_zero_dim_is_not_the_default(self, tmp_path, name):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            run_quick(name, tmp_path, dim=0)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_zero_iters_is_not_the_default(self, tmp_path, name):
        with pytest.raises(ValueError, match="iters must be >= 3"):
            run_quick(name, tmp_path, iters=0)

    @pytest.mark.parametrize("seed", [13, 14])
    def test_fig1_passes_where_nag_distance_never_rises(self, tmp_path, capsys, seed):
        rc = main(["scenario", "fig1", "--seed", str(seed), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0 and "overall: PASS" in out
        assert "NAG: distance rises at 0 of 1999 steps" in out

    @pytest.mark.parametrize("name,overrides,count", [
        ("fig1", {}, 1), ("quadratic", {}, 1), ("fig1", dict(method="HB"), 0),
        ("quadratic", dict(method="HB"), 0), ("fig1", dict(alpha=0.001, beta=0.5), 0),
        ("nonoptimal", {}, 0), ("convex-mu0", {}, 0)])
    def test_tuned_naggs_is_named_as_tuned_hb(self, tmp_path, name, overrides, count):
        # tuned NAG-GS's family member is tuned HB's in exact arithmetic
        res = run_quick(name, tmp_path, **{**QUICK[name], **overrides})
        lines = report_text(res).splitlines()
        assert sum(ln.startswith("NAG-GS: tuned NAG-GS is tuned HB: ") for ln in lines) == count

    def test_deterministic_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_quick("nonoptimal", a, dim=4, iters=120)
        run_quick("nonoptimal", b, dim=4, iters=120)
        fa = (a / "nonoptimal_hb_trace.csv").read_bytes()
        fb = (b / "nonoptimal_hb_trace.csv").read_bytes()
        assert fa == fb


class TestSizedRuns:
    """No stop but divergence and ``iters``: at their defaults quadratic and
    nonoptimal run every method for exactly ``iters`` rows, which is room
    enough for every quadratic run, tuned TMM's too, to take V below its floor."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 7919])
    @pytest.mark.parametrize("name", ["quadratic", "nonoptimal"])
    def test_every_method_runs_iters_rows(self, tmp_path, name, seed):
        res = run_quick(name, tmp_path, seed=seed)
        assert res.ok and all(res.verdicts.values())
        iters = SCENARIOS[name][1]["iters"]
        assert re.findall(r" rows=(\d+) ", report_text(res)) == [str(iters)] * 4
        if name == "quadratic":
            assert sorted(k for k in res.verdicts if k.endswith("_terminal_V_below_floor")) == [
                "hb_terminal_V_below_floor", "nag_terminal_V_below_floor",
                "naggs_terminal_V_below_floor", "tmm_terminal_V_below_floor"]

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_slowest_start_reaches_the_floor(self, tmp_path, monkeypatch, seed):
        # d = 2 from the lambda = mu coordinate: tuned NAG's V first falls
        # below the floor on row 288, the latest of any small quadratic
        def start(xstar, scale, seed):
            return xstar + scale * generate_quadratic(2, 1.0, 1000.0, seed).eigvecs[:, 0]

        monkeypatch.setattr(scenarios, "_x0", start)
        res = run_quick("quadratic", tmp_path, dim=2, seed=seed)
        assert res.ok and res.verdicts["nag_terminal_V_below_floor"]
        v = read_trace_csv(tmp_path / "quadratic_nag_trace.csv")["lyapunov"]
        assert v.shape == (SCENARIOS["quadratic"][1]["iters"],)
        assert int(np.argmax(v < scenarios._V_FLOOR)) == 288


class TestWitnessScenarios:
    def test_cosine_finds_violation(self, tmp_path):
        res = run_quick("cosine", tmp_path, iters=60)
        assert res.ok
        assert res.verdicts["violation_found"]
        assert os.path.isfile(tmp_path / "cosine_hb_trace.csv")
        text = report_text(res)
        assert "witness: seed=" in text
        assert "certificate" in text

    def test_cosine_runs_no_start_twice(self, tmp_path, monkeypatch):
        # the sweep's first beta is below the tuned one: the witness run is
        # not made again; each start of the search is a batch of one, and
        # the sweep's 20 betas run as one batch
        made, batches = [], []
        run_traces = scenarios._run_traces

        def recording(target, specs, x0, iters, **kw):
            batches.append(len(specs))
            made.extend((spec.beta, float(x0[0])) for spec in specs)
            return run_traces(target, specs, x0, iters, **kw)

        monkeypatch.setattr(scenarios, "_run_traces", recording)
        for seed in (0, 7919):
            made.clear()
            batches.clear()
            assert run_quick("cosine", tmp_path, seed=seed).verdicts["violation_found"]
            assert batches[-1] == 20 and set(batches[:-1]) == {1}
            assert len(set(made)) == len(made) > 20

    def test_tmm_witness_scenario(self, tmp_path):
        res = run_quick("tmm-witness", tmp_path)
        assert res.ok
        assert res.verdicts["violation_found"]
        text = report_text(res)
        assert "witness" in text
        assert "eligible=no" in text
        assert os.path.isfile(tmp_path / "tmm-witness_tmm_trace.csv")

    def test_find_cosine_witness_directly(self):
        found = find_cosine_witness(iters=60)
        assert found is not None
        s, x0, trace, rep = found
        assert not rep.monotone
        assert -2.0 <= x0[0] <= 2.0

    @pytest.mark.parametrize("flags", [["--seed", "0"], ["--seed", "13"], ["--seed", "7919"],
                                       ["--dim", "2"], ["--dim", "107"]],
                             ids=["seed0", "seed13", "seed7919", "dim2", "dim107"])
    def test_tmm_witness_exits_0_at_every_size(self, tmp_path, capsys, flags):
        rc = main(["scenario", "tmm-witness", *flags, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict violation_found: PASS" in out
        assert re.search(r"^witness: coordinate 0 lambda=1 V_2=-0\.0234439 < 0 "
                         r"monotone decrease: NO \(\d+ violations\); first at k=2: V=", out,
                         re.M)

    def test_find_tmm_witness_starts_on_the_real_split(self):
        s, mu, L = 10.0, 1.0, 1000.0
        for dim in (2, 107):
            problem = generate_quadratic(dim, mu, L, seed=0)
            cert = analyze(optimal_hyperparams(TMM, mu, L), problem.eigvals)
            r = cert.per_coordinate
            i, trace, rep = find_tmm_witness(problem, cert, 400, scale=s)
            # lambda = mu contracts slowest among the real-split coordinates
            assert i == 0 and not r.conjugate_pair[i]
            # V_2 cancels terms of size s^2 (a/2)^2 <= s^2, each rounded a few times
            v2 = -s * s * (r.re[i] - r.re2[i]) ** 2 / 4.0
            assert trace.lyapunov[2] == pytest.approx(v2, rel=0, abs=64 * np.finfo(float).eps * s * s)
            # V_{k+1} = -b V_k with -b = 0.908: negative, rising at every step
            v = trace.lyapunov[2:]
            assert (v < 0).all() and (np.diff(v) > 0).all()
            assert not rep.monotone
            assert rep.index.tolist() == list(range(2, 2 + rep.index.size))
            eligible = analyze(optimal_hyperparams(HB, mu, L), problem.eigvals)
            assert find_tmm_witness(problem, eligible, 400, scale=s) is None


    @given(mu=st.floats(0.0, 5.0), spread=st.floats(0.1, 100.0), dim=st.integers(2, 20),
           seed=st.integers(0, 2 ** 32 - 1), alpha_l=st.floats(0.01, 4.0),
           beta=st.floats(-0.5, 1.2), gamma=st.floats(-1.0, 2.0), scale=st.floats(1e-3, 1e3))
    # real-split at both ends: -b = 1.2 at lambda = 0, where V_2 < 0 would fall, and 0.3 at L
    @example(mu=0.0, spread=1.0, dim=5, seed=0, alpha_l=3.0, beta=1.2, gamma=0.3, scale=10.0)
    def test_find_tmm_witness_is_flagged(self, mu, spread, dim, seed, alpha_l, beta, gamma,
                                         scale):
        # a TMM member with a real-split coordinate whose -b is in (0, 1):
        # the witness start has V_2 < 0 and V_3 = -b V_2 above it
        p = generate_quadratic(dim, mu, mu + spread, seed=seed)
        spec = MethodSpec(TMM, alpha=alpha_l / (mu + spread), beta=beta, gamma=gamma)
        cert = analyze(spec, p.eigvals)
        r = cert.per_coordinate
        assume(np.any(~r.conjugate_pair & (r.b < 0) & (r.b > -1)))
        found = find_tmm_witness(p, cert, 10, scale)
        assert found is not None
        i, trace, rep = found
        assert not r.conjugate_pair[i] and -1 < r.b[i]
        # the rise at k = 2, (1 + b) s^2 (l1 - l2)^2 / 4, clears four times the
        # slack there, 64 eps max(d_0 .. d_3)^2 with d_k <= s max(1, |l1|)^k
        l1, l2 = r.re[i], r.re2[i]
        assume((1 + r.b[i]) * (l1 - l2) ** 2 / 4 > 4 * 64 * np.finfo(float).eps
               * max(1.0, abs(l1)) ** 6)
        assert not rep.monotone and 2 in rep.index.tolist()


class TestObjectiveScenarios:
    def test_expnorm_quick(self, tmp_path):
        res = run_quick("expnorm", tmp_path, iters=80)
        assert res.ok
        for kind in ("hb", "nag", "tmm", "naggs"):
            assert res.verdicts[f"{kind}_completed"]
        # no quadratic certificate exists off-quadratics
        assert not os.path.isfile(tmp_path / "expnorm_spectrum.svg")
        assert os.path.isfile(tmp_path / "expnorm_overview.svg")

    def test_rosenbrock_quick(self, tmp_path):
        res = run_quick("rosenbrock", tmp_path, iters=150)
        assert res.ok
        assert all(res.verdicts.values())
        text = report_text(res)
        assert "diverged=no" in text


# the quick sizes of the scenario tests above
QUICK = {
    "fig1": dict(dim=8, iters=300),
    "quadratic": dict(dim=5, mu=1.0, L=16.0, iters=400),
    "nonoptimal": dict(dim=5, iters=200),
    "convex-mu0": dict(dim=5, iters=150),
    "cosine": dict(iters=60),
    "tmm-witness": dict(),
    "expnorm": dict(iters=80),
    "rosenbrock": dict(iters=150),
}

DIGESTS = {
    "fig1": {
        "fig1_distance.svg":
            "2e48b9cfafe93136b0929c7d376d0eb658affb2f0844cbae0d449e03feab73a9",
        "fig1_gap.svg":
            "54c677c99398a54194f499ae037205c3338d481b69354c775294f718aa48e468",
        "fig1_hb_certificate.csv":
            "3c9efdb38dc4566f01244d4b62f0ee82b662023e8480381875c90d5cb06b223b",
        "fig1_hb_certificate.txt":
            "821187c3d57e7a45691c52f060ade557428367ac9f214b713db4ec8c8a46a882",
        "fig1_hb_trace.csv":
            "a21027d7376fd1cf7a5161dc81482775e9ceb5a9d65c9e5ddf47d9d2e35ee938",
        "fig1_lyapunov.svg":
            "467e071452768383ff0298c15bf982394611556bb8adecca1c3fa1b534f4bef5",
        "fig1_nag_certificate.csv":
            "9368174bd6c9efa595e402ff6f6779da5ddbb88d261f1a2bfdb02170297c89a3",
        "fig1_nag_certificate.txt":
            "33ef43c1d790880daad71d0832083757d2aa3887d402e8a2ed6de97050f39754",
        "fig1_nag_trace.csv":
            "a03a52b585c4b971bb83380b56c00d8af1f8662be93f6e1d9c8b0125b741f410",
        "fig1_naggs_certificate.csv":
            "ea643fc19ed48744c78aa3ee4bc26e48895200146bf51749e70d8c6be9d8232c",
        "fig1_naggs_certificate.txt":
            "c0110691d57282e907cf671a0dc2867f41d1e518bacb1aae1eb19e6528ce559b",
        "fig1_naggs_trace.csv":
            "72cc899a93add225a90759dac2aae73eb4e9cbc9fe1813ea7495dc3da94e02a2",
        "fig1_overview.svg":
            "a5d8005f5a692e3ee009b2d0f6959bec1f47b2e2012b5c106005cedb3d0f42a5",
        "fig1_report.txt":
            "3ea64f26f5de9827b76b42e29ed76fc95b3ace6a1e92976051159f604769985c",
        "fig1_spectrum.svg":
            "20ebd84019b084b5faf35ad292a002c1ba1baac77a42a846ff8de1232cf8f192",
        "fig1_tmm_certificate.csv":
            "522ae9b0306bc4fa537fa088019848f6ef4e65160fa993a5262f81f6bf96b3f9",
        "fig1_tmm_certificate.txt":
            "6c2e69ff761c09b935c8e4be547ea30da73991b9b33f2b75060e824873b20a25",
        "fig1_tmm_trace.csv":
            "503f23ea110ab4b914af6a35c4fe96b9a86a2f7edbfe5bcbf2efbb8de025534a",
    },
    "quadratic": {
        "quadratic_distance.svg":
            "c31e9f07717f4c888caaf2ca2174048348ccd001d3ac8f8f12628b7266263721",
        "quadratic_gap.svg":
            "98a48e34ebb0e08f692c27cfd78af76e2ddd19f6f1f4e2fbe0f3e8cc9b8f4ee5",
        "quadratic_hb_certificate.csv":
            "85dc16e8186171380c0a84a42b512b42a12039e4523ef3b43944272e8f149cae",
        "quadratic_hb_certificate.txt":
            "542578c744ba0448be7781b2c365c352146f13f46f96a2c49301b3c745ab821b",
        "quadratic_hb_trace.csv":
            "455631a6881523967c05b8ad750f1cd6f87ec485c485db0a74a92340866c1a37",
        "quadratic_lyapunov.svg":
            "64094f8faec51aff47978aee46a1884f38eeb480d3c66dbff02eac9f573f3b0e",
        "quadratic_nag_certificate.csv":
            "0ddb3ad091cc1bc472599958d36438f21c846f6e6bc09787234a07690f818f53",
        "quadratic_nag_certificate.txt":
            "a122763128e814fc2cec2cbd881cdcf58cb19cacfc993c9ccdea75ff8f8f8aa9",
        "quadratic_nag_trace.csv":
            "32112be3ddf5f9f32811d536c0fff7baecc0ffa4473207aafd96d53f3b751810",
        "quadratic_naggs_certificate.csv":
            "6855c9b840d2c27a46428908ad8aa243520a0e5c13e32ca3b09969f0a808ff8c",
        "quadratic_naggs_certificate.txt":
            "a5af69177846ec2fc10d7aa133c33a7119e204a37ee6aaa002f2901ba6f1f63c",
        "quadratic_naggs_trace.csv":
            "57f7e4f48fb59dc190f7902dae3fa53cb540e44f4ca90a20c73ce4cf5f6a8060",
        "quadratic_overview.svg":
            "16b0217e52f215766a34a4cbccd4033895bcbb0eaad41e7cc196cb4444cdd298",
        "quadratic_report.txt":
            "fbd188eef9ca8e812153c3715c3194035053b5d3cda5b7852cd60b8e232e9cb0",
        "quadratic_spectrum.svg":
            "e3ee8314380800ed51cb6d823bb9368b677ac9b235b0a622cca657138165dfae",
        "quadratic_tmm_certificate.csv":
            "8e766f06aa504fcd594b6bd505bb1cf160d501ee446887086b926403b7f378f8",
        "quadratic_tmm_certificate.txt":
            "7cf83748d27073c0090e230bc70af9134e4e7ea59ce075bbfe8573497e37d60f",
        "quadratic_tmm_trace.csv":
            "b5ab71b3786468340a0c2679331e84f4921789412e70567e12a892a40a5a925c",
    },
    "nonoptimal": {
        "nonoptimal_distance.svg":
            "0426d563fff6014359eeda7ef97da45a65597abbd99852295f271608bd2dfa2c",
        "nonoptimal_gap.svg":
            "80fcc3c62aa7e089f3246052c1d35ccc6e7925ebd6610117dab1560b5ccdf1e8",
        "nonoptimal_hb_certificate.csv":
            "ac3e6b8057050f3a1683968245d770b6451e7a208c07e772a1d49167ed0237b0",
        "nonoptimal_hb_certificate.txt":
            "8a6aa45710b0055188a97b909aa9fe1e4ba46d3ce6c54d141f12d07dfe261164",
        "nonoptimal_hb_trace.csv":
            "009b760e6ef7b71d8f7e962289176655fcbeb906d0d98169ce7c91bca84c92e6",
        "nonoptimal_lyapunov.svg":
            "ddb7a0b1e179af0ee77d2bc7415e18f18749ebb03860efd9bf96b9657228311b",
        "nonoptimal_nag_certificate.csv":
            "06b272ef0f14bafe0faa1aadde3e6841f632e94f1198aed0d055bc86c15cbdab",
        "nonoptimal_nag_certificate.txt":
            "bff7e43ecf5b0f470f9c0ca305a29a21ff92870ead47db7c1d0236e3356b9a45",
        "nonoptimal_nag_trace.csv":
            "c2525797d49682a1d732e4f5fe8e6a613ab5540f52fb7b0ce26452a57af6df6d",
        "nonoptimal_naggs_certificate.csv":
            "276eaaf80394795240e8fa4161f146c78eb8d6dcc6e2a2cad1f9d7c1c18956de",
        "nonoptimal_naggs_certificate.txt":
            "9cd6721b32b213d66b027d15cdb4562faa46bc578f5c21ab482023dce041e8ea",
        "nonoptimal_naggs_trace.csv":
            "afcb0dea67440d6b3bc28a3121fae290adb226d4b6e2ae1642b4ea5eb05bcb98",
        "nonoptimal_overview.svg":
            "57d97b7d4ff445d469c62d9fb843bd7623a453e62c8a8a21ec68993f8a23b4d2",
        "nonoptimal_report.txt":
            "888cd589c722b71718cc7e7f943bc82974e8ba17d1b4d7760754f8132457b556",
        "nonoptimal_spectrum.svg":
            "862c44116244f5bf110942e86565ec135c1dcbd1e79f548c466b70378150729d",
        "nonoptimal_tmm_certificate.csv":
            "e531d576bdee72dc968ee197760d9ded209436b9eb5924b961aaecaa5f9d107f",
        "nonoptimal_tmm_certificate.txt":
            "b5399c7b86ad8f73394eb8fd83428520c667fd64d1135e466df7b8ec8fdae28b",
        "nonoptimal_tmm_trace.csv":
            "d1222743f06489a1116c9fe9c9fc98c057c5544720befd752e21779c679a5b42",
    },
    "convex-mu0": {
        "convex-mu0_distance.svg":
            "219392230862e7a063d9551534641dd4f05de6929fee70b1aaf7dca31ebb14ba",
        "convex-mu0_gap.svg":
            "66b515caf9afdac339e5a3bf3365f3cd08cb1d1c668bc93dd74b49b6d2b71e5e",
        "convex-mu0_hb_certificate.csv":
            "5c2a95dc1db6cf160697a7cd3ca05e5fcfce899e624140ccec1e15a4a3ba0e5a",
        "convex-mu0_hb_certificate.txt":
            "37240f478207f7cccd4fb89a368ff90316db0fe2a967f891b50e700888651930",
        "convex-mu0_hb_trace.csv":
            "cc5acd8a725dc3bf65d1369da095a30bb766ecd989fec4e3b1264a1236f5472e",
        "convex-mu0_lyapunov.svg":
            "49fc95034fee6a0195b62b7b28be46fde31e5ca7a71620fdd01a8b36b086b132",
        "convex-mu0_nag_certificate.csv":
            "b77c055c87db28a5fc90e02c79c5f67dc5348f58abfb8c20a8ca186dde9f8443",
        "convex-mu0_nag_certificate.txt":
            "779a8c2c80bd73526bbe998f41b0e75234b5f92fb7f804902fbf414be40b9cc0",
        "convex-mu0_nag_trace.csv":
            "39937b991a8efff7fb2945d67669f62b0d89e20c4ec232a00107a13c904d79f8",
        "convex-mu0_naggs_certificate.csv":
            "1b1551b3b4ca074cf66e6e44f72d3f0dc61cfd94aeeed57c39f99e76b8d547e4",
        "convex-mu0_naggs_certificate.txt":
            "87421f348c793ac81c46078958416f1d97a2703bec722a74e44c8e0e17b87370",
        "convex-mu0_naggs_trace.csv":
            "d11ed61339c2bae4e28ad55814dc9798496d4d0dd1b591797a7ebd95f8577c65",
        "convex-mu0_overview.svg":
            "42c09529e350f9f951eb4d0633ebcfd21312b157b255349244053135918a6294",
        "convex-mu0_report.txt":
            "4340f0c31f056bfbf9aa83d791f3d9ecf239a7e24b5b47f95e771f5615cbfe30",
        "convex-mu0_spectrum.svg":
            "07d51c1421380dc239353bd80bcd077c2a4de0792a8cef234485f472c1849f1f",
        "convex-mu0_tmm_certificate.csv":
            "165ca03d29b9503648920526ba98dc7adac56281da64c40a48c0b1d07de5b3bb",
        "convex-mu0_tmm_certificate.txt":
            "3a812e1054a39041b6ece6848d594f55bc5397d0a41ba45948a9ccbe03cf30d6",
        "convex-mu0_tmm_trace.csv":
            "ab479e34875204f2edff30ffa7d33b6b914a6fd2a52edcff90071b3e54fdbb79",
    },
    "cosine": {
        "cosine_distance.svg":
            "adbb680b3ea1a5dc3de1815b9c819bb1c4cda38d914257ad80dd8a18044fec70",
        "cosine_hb_certificate.csv":
            "f39076f5ff8537d24d29cda4f4bb79caa0418e5724131e31e3954503fb2647bb",
        "cosine_hb_certificate.txt":
            "1fe50c20da843d779da731e0e552f70754208ccb89a820c0a7bf56881e039bff",
        "cosine_hb_trace.csv":
            "f0a9fa92d01e5961ae18ef20f42495bdcf7fbac341543d61769a14c6b76cca6d",
        "cosine_lyapunov.svg":
            "3f1645348a912d32b175ca3da57c920b6cb04c03bf05fff2324bb85cbcfe3238",
        "cosine_overview.svg":
            "143a9db2d1c24a3056bc53800f9a07c48a19d218ebb1e8bd6b888e554f0ca678",
        "cosine_report.txt":
            "019fdf579418bad582e689b2a63adac5e9e377809baf688458c33b8c9cfefa2c",
    },
    "tmm-witness": {
        "tmm-witness_lyapunov.svg":
            "9e08c51991187861962e53811c27e6dcb31cefcb15823a293262406dc50191e1",
        "tmm-witness_report.txt":
            "ed3030cec65f3ae24bfaca60b71dbd1d8d6dd31cb599ec1da9a51ee017d7c8b5",
        "tmm-witness_tmm_certificate.csv":
            "8292709c52b4b9e1bd0e3fa377002a528a3fa1b3b3f0e39ffa0902787d8cbeaf",
        "tmm-witness_tmm_certificate.txt":
            "001dff8435dd96c5e63826289921b5b0c3ff1ea360cef97b0a1974a94e1cfb6b",
        "tmm-witness_tmm_trace.csv":
            "f6787fa7083f05e1697d84ab8773029e0181d38c7c7c8031c66f13dea3524e53",
    },
    "expnorm": {
        "expnorm_distance.svg":
            "37a66391a4c35e3a4b60e6579239d20ef1f2e7c8a85e81e794b2bd5e6c69ee30",
        "expnorm_gap.svg":
            "ac4f32026c466c5fae48f78e5db8b0d3ab3a5ed0a8f7f3f15fda4cead381790a",
        "expnorm_hb_trace.csv":
            "9af7832d7e1498204f72d62d34abdeb2cf595d715913fcfe05d4ae91d26c6b81",
        "expnorm_lyapunov.svg":
            "5c0448197c1dc104b1333d09ccbb89f5a4e82bbef4890495395be977061624c5",
        "expnorm_nag_trace.csv":
            "c88e7b269cc623e7f3254a14c40e43d5c79bae9d01a3fd2a590eeb616256ad04",
        "expnorm_naggs_trace.csv":
            "dcc003afc3ec38b5d76c607e568be03b467f9d3208b3ae1e2388cbdd6388a512",
        "expnorm_overview.svg":
            "e8ae0b62821804d7dbf9b64c07eeda75f894dbc99967cb973325e254827fa49b",
        "expnorm_report.txt":
            "9fd1dfd04ced881c630e16ba6f94f48fce2d550978173ff377cfd62022830569",
        "expnorm_tmm_trace.csv":
            "e0917e1406dc834c96408a4fa936f39406da75c5b3dda2740d197ef353d8920e",
    },
    "rosenbrock": {
        "rosenbrock_distance.svg":
            "720b7cd5017ab66143cf8679820d79b3323c3e3563aef0b41a9654bb8572109b",
        "rosenbrock_gap.svg":
            "ee72047ab223f7c76ac45986d35fefee650db452b590de368dbd5cba2cb132d7",
        "rosenbrock_hb_trace.csv":
            "119bde173f4c36e0c87c73e38d4eec9f7c94af18639252953ac6e8e1656bd7b3",
        "rosenbrock_lyapunov.svg":
            "64b31f818771058640c92eb152eac73d655f3246d8b09e8e6444cab5767a16c4",
        "rosenbrock_nag_trace.csv":
            "737e5cbdcc6cdf3befb416d0d0109c0e6e8097fa101d5bc214a9bf1c01315b36",
        "rosenbrock_naggs_trace.csv":
            "b975f41375c172a1cbd4b4dff507b1e5a12de4312d367937357b73fb932970ce",
        "rosenbrock_overview.svg":
            "f3cf3995ef36356f4f30da07f890ef77443da4d0fbd0a3740a44d553a7a34378",
        "rosenbrock_report.txt":
            "7a33723efbb58c519f9a52fd151665cc35a2261724d440a491ffa261ab8b4490",
        "rosenbrock_tmm_trace.csv":
            "5b48a6ab01af2f126bc669650da2054b78db3246587fd32a36ab5f20804d1822",
    },
}


class TestArtifactBytes:
    """Every artifact of every scenario at the quick sizes, by sha256.

    The digests were taken with numpy 2.4.6 on x86-64; another numpy may
    change the random problems and so the bytes.  A change to them must be
    named and explained, not just re-recorded.
    """

    @pytest.mark.parametrize("name", sorted(QUICK))
    def test_digests(self, tmp_path, name):
        res = run_quick(name, tmp_path, **QUICK[name])
        listed = sorted(os.path.basename(p) for p in res.artifacts)
        assert listed == sorted(os.listdir(tmp_path))
        digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                   for f in listed}
        assert digests == DIGESTS[name]



class TestVerdictRows:
    """The verdicts of each quadratic scenario, in report order, and its exit
    code at ``--dim 20 --iters 200`` (seed 0): for all four methods and for
    each method alone.  Every run is judged first by what covers it: tuned
    TMM, whose certificate is not eligible, by ``equal_start_monotone``.  At
    200 rows only TMM's V is below quadratic's floor."""

    VERDICTS = {
        ("fig1", None): (0, "hb_certificate_eligible: PASS, hb_V_monotone: PASS, "
                            "nag_certificate_eligible: PASS, nag_V_monotone: PASS, "
                            "tmm_equal_start_monotone: PASS, tmm_V_monotone: PASS, "
                            "naggs_certificate_eligible: PASS, naggs_V_monotone: PASS"),
        ("fig1", HB): (0, "hb_certificate_eligible: PASS, hb_V_monotone: PASS"),
        ("fig1", NAG): (0, "nag_certificate_eligible: PASS, nag_V_monotone: PASS"),
        ("fig1", TMM): (0, "tmm_equal_start_monotone: PASS, tmm_V_monotone: PASS"),
        ("fig1", NAGGS): (0, "naggs_certificate_eligible: PASS, naggs_V_monotone: PASS"),
        ("quadratic", None): (1, "hb_certificate_eligible: PASS, hb_V_monotone: PASS, "
                                 "hb_terminal_V_below_floor: FAIL, "
                                 "nag_certificate_eligible: PASS, nag_V_monotone: PASS, "
                                 "nag_terminal_V_below_floor: FAIL, "
                                 "tmm_equal_start_monotone: PASS, tmm_V_monotone: PASS, "
                                 "tmm_terminal_V_below_floor: PASS, "
                                 "naggs_certificate_eligible: PASS, naggs_V_monotone: PASS, "
                                 "naggs_terminal_V_below_floor: FAIL"),
        ("quadratic", HB): (1, "hb_certificate_eligible: PASS, hb_V_monotone: PASS, "
                               "hb_terminal_V_below_floor: FAIL"),
        ("quadratic", NAG): (1, "nag_certificate_eligible: PASS, nag_V_monotone: PASS, "
                                "nag_terminal_V_below_floor: FAIL"),
        ("quadratic", TMM): (0, "tmm_equal_start_monotone: PASS, tmm_V_monotone: PASS, "
                                "tmm_terminal_V_below_floor: PASS"),
        ("quadratic", NAGGS): (1, "naggs_certificate_eligible: PASS, naggs_V_monotone: PASS, "
                                  "naggs_terminal_V_below_floor: FAIL"),
        ("nonoptimal", None): (0, "hb_certificate_eligible: PASS, hb_V_monotone: PASS, "
                                  "nag_certificate_eligible: PASS, nag_V_monotone: PASS, "
                                  "tmm_certificate_eligible: PASS, tmm_V_monotone: PASS, "
                                  "naggs_certificate_eligible: PASS, naggs_V_monotone: PASS"),
        ("nonoptimal", HB): (0, "hb_certificate_eligible: PASS, hb_V_monotone: PASS"),
        ("nonoptimal", NAG): (0, "nag_certificate_eligible: PASS, nag_V_monotone: PASS"),
        ("nonoptimal", TMM): (0, "tmm_certificate_eligible: PASS, tmm_V_monotone: PASS"),
        ("nonoptimal", NAGGS): (0, "naggs_certificate_eligible: PASS, naggs_V_monotone: PASS"),
        ("convex-mu0", None): (0, "hb_certificate_ineligible: PASS, "
                                  "hb_unit_eigenvalue_at_zero: PASS, "
                                  "nag_certificate_ineligible: PASS, "
                                  "nag_unit_eigenvalue_at_zero: PASS, "
                                  "tmm_certificate_ineligible: PASS, "
                                  "tmm_unit_eigenvalue_at_zero: PASS, "
                                  "naggs_certificate_ineligible: PASS, "
                                  "naggs_unit_eigenvalue_at_zero: PASS"),
        ("convex-mu0", HB): (0, "hb_certificate_ineligible: PASS, "
                                "hb_unit_eigenvalue_at_zero: PASS"),
        ("convex-mu0", NAG): (0, "nag_certificate_ineligible: PASS, "
                                 "nag_unit_eigenvalue_at_zero: PASS"),
        ("convex-mu0", TMM): (0, "tmm_certificate_ineligible: PASS, "
                                 "tmm_unit_eigenvalue_at_zero: PASS"),
        ("convex-mu0", NAGGS): (0, "naggs_certificate_ineligible: PASS, "
                                   "naggs_unit_eigenvalue_at_zero: PASS"),
    }

    @pytest.mark.parametrize("flags", [
        # NAG at alpha 1.5 / L: -b = (1 - alpha lambda) beta reaches -0.45
        ["--method", "nag", "--alpha", "0.0015", "--beta", "0.9"],
        # HB at radius 1.68: -b = 0.2 is in [0, 1], but the run diverges
        ["--method", "hb", "--alpha", "0.03", "--beta", "0.2", "--L", "100"],
    ], ids=["nag-negative-b", "hb-radius-above-one"])
    def test_a_run_nothing_covers_fails(self, tmp_path, capsys, flags):
        # at fig1's defaults otherwise: neither the certificate nor the equal
        # start covers the run, so its eligibility verdict fails
        rc = main(["scenario", "fig1", *flags, "--out", str(tmp_path)])
        out = capsys.readouterr().out.splitlines()
        kind = flags[1]
        assert rc == 1
        assert f"verdict {kind}_certificate_eligible: FAIL" in out
        assert not [ln for ln in out if "equal_start_monotone" in ln]

    @pytest.mark.parametrize("name,method", list(VERDICTS))
    def test_verdicts(self, tmp_path, capsys, name, method):
        argv = ["scenario", name, "--dim", "20", "--iters", "200", "--out", str(tmp_path)]
        rc = main(argv + (["--method", method] if method else []))
        out = capsys.readouterr().out.splitlines()
        verdicts = [line.removeprefix("verdict ") for line in out if line.startswith("verdict ")]
        assert (rc, ", ".join(verdicts)) == self.VERDICTS[name, method]
        assert f"overall: {'FAIL' if rc else 'PASS'}" in out


DEFAULT_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "default_digests.json").read_text(encoding="utf-8"))


class TestDefaultBytes:
    """Every scenario at its default settings, seeds 0 and 7919: the sha256
    of each artifact and of stdout, and the exit code, as
    ``tests/default_digests.json`` records them.

    The digests were taken with numpy 2.4.6 on x86-64; another numpy may
    change the random problems and so the bytes.  A change to them must be
    named and explained, not just re-recorded.
    """

    def test_every_scenario_and_seed(self):
        assert sorted(DEFAULT_DIGESTS) == sorted(
            f"scenario {name} --seed {seed}" for name in SCENARIOS for seed in (0, 7919))

    @pytest.mark.parametrize("case", sorted(DEFAULT_DIGESTS))
    def test_digests(self, tmp_path, capsys, monkeypatch, case):
        monkeypatch.chdir(tmp_path)  # a relative --out keeps stdout fixed
        rc = main([*case.split(), "--out", "o"])
        stdout = capsys.readouterr().out.encode()
        files = {f: hashlib.sha256((tmp_path / "o" / f).read_bytes()).hexdigest()
                 for f in os.listdir(tmp_path / "o")}
        assert dict(exit=rc, stdout=hashlib.sha256(stdout).hexdigest(),
                    files=files) == DEFAULT_DIGESTS[case]


def panel_bodies(text):
    """The text inside each ``<g class="panel">`` of an SVG, in order."""
    return [part.split("\n", 1)[1].split("\n</g>\n", 1)[0]
            for part in text.split('<g class="panel"')[1:]]


class TestDrawOnce:
    """A scenario draws each panel one time, for its own file and the overview."""

    # the quick sizes, and fig1 long enough that its lines drop points
    SIZES = {**QUICK, "fig1-long": dict(dim=8, iters=3000)}

    @staticmethod
    def svgs(res):
        own = [p for p in res.artifacts if p.endswith(".svg") and not p.endswith("_overview.svg")]
        overview = [p for p in res.artifacts if p.endswith("_overview.svg")]
        return own, overview

    @pytest.mark.parametrize("case", sorted(SIZES))
    def test_overview_holds_the_panel_files(self, tmp_path, case):
        res = run_quick(case.removesuffix("-long"), tmp_path, **self.SIZES[case])
        own, overview = self.svgs(res)
        bodies = [panel_bodies(pathlib.Path(p).read_text(encoding="utf-8")) for p in own]
        assert all(len(b) == 1 for b in bodies)
        if len(own) > 1:
            text = pathlib.Path(overview[0]).read_text(encoding="utf-8")
            assert panel_bodies(text) == [b[0] for b in bodies]
        else:
            assert overview == []

    @pytest.mark.parametrize("name", sorted(QUICK))
    def test_each_panel_drawn_once(self, tmp_path, monkeypatch, name):
        titles = []
        for attr in ("_line_log_panel", "_scatter_panel"):
            def draw(p, w, h, real=getattr(svgplot, attr)):
                titles.append(p.title)
                return real(p, w, h)
            monkeypatch.setattr(svgplot, attr, draw)
        own, _ = self.svgs(run_quick(name, tmp_path, **QUICK[name]))
        assert len(titles) == len(set(titles)) == len(own)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_svg(self, tmp_path, monkeypatch, existing):
        # the spectrum file, written last, fails as a full disk does
        real = svgplot.whole_file

        class FullDisk:
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        @contextlib.contextmanager
        def whole_file(path):
            with real(path) as fh:
                yield FullDisk() if path.endswith("_spectrum.svg") else fh

        monkeypatch.setattr(svgplot, "whole_file", whole_file)
        names = [f"fig1_{key}.svg" for key in ("gap", "distance", "lyapunov", "spectrum",
                                               "overview")]
        if existing:
            for name in names:
                (tmp_path / name).write_text("before", encoding="utf-8")
        with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
            run_quick("fig1", tmp_path, **QUICK["fig1"])
        left = sorted(f for f in os.listdir(tmp_path) if not f.endswith((".csv", ".txt")))
        assert left == (sorted(names) if existing else [])
        for name in left:
            assert (tmp_path / name).read_text(encoding="utf-8") == "before"


class TestSettingsTable:
    """Each scenario's row in ``SCENARIOS`` is the whole of what it reads."""

    @staticmethod
    def artifacts(out, name, **settings):
        res = run_quick(name, out, **settings)
        return {os.path.basename(p): pathlib.Path(p).read_bytes() for p in res.artifacts}

    @pytest.mark.parametrize("name", sorted(QUICK))
    def test_row_defaults_are_the_defaults(self, tmp_path, name):
        # a runner with a default of its own would tell these apart
        unset = self.artifacts(tmp_path / "unset", name, **QUICK[name])
        for key, default in SCENARIOS[name][1].items():
            if default is None or key in QUICK[name]:
                continue
            explicit = {**QUICK[name], key: default}
            assert self.artifacts(tmp_path / key, name, **explicit) == unset, key

    # a set value for each setting
    SAMPLES = dict(dim=3, mu=1.0, L=9.0, method=HB, alpha=0.1, beta=0.2, gamma=0.0,
                   optimal=False, iters=20, x0_scale=1.0)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_row_is_what_is_taken(self, name):
        row = SCENARIOS[name][1]
        assert set(self.SAMPLES) == {f.name for f in fields(ScenarioConfig)} - {
            "name", "out", "seed"}
        for key, value in self.SAMPLES.items():
            given = {key: value}
            if key in ("beta", "gamma") and key in row:  # refused without alpha
                given["alpha"] = self.SAMPLES["alpha"]
            cfg = ScenarioConfig(name=name, out="unused", **given)
            if key in row:
                assert getattr(_with_row(cfg), key) == value
            else:
                with pytest.raises(ValueError, match=f"^scenario {name} does not take "
                                                     f"--{key.replace('_', '-')}$"):
                    _with_row(cfg)

    @pytest.mark.parametrize("key", ["beta", "gamma"])
    def test_momentum_without_alpha_is_refused(self, tmp_path, key):
        # without alpha a scenario runs its own hyperparameters, so the
        # library refuses what the CLI refuses, before anything is written
        out = tmp_path / "art"
        for name, (_, row) in SCENARIOS.items():
            if key not in row:
                continue
            cfg = ScenarioConfig(name=name, out=str(out), **{key: 0.3})
            with pytest.raises(ValueError, match=f"^--{key} needs --alpha$"):
                run_scenario(cfg)
            assert not out.exists()
            assert getattr(_with_row(replace(cfg, alpha=0.1)), key) == 0.3

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_is_refused_before_anything_runs(self, tmp_path, value):
        # every scenario judges V against the roundoff of its own rows: a
        # config takes no tolerance
        for name in SCENARIOS:
            with pytest.raises(TypeError):
                run_quick(name, tmp_path / "art", tolerance=value)
        assert not (tmp_path / "art").exists()
