import os

import numpy as np
import pytest

from lyapcert import (SCENARIOS, SUITABLE, MethodSpec, ScenarioConfig, analyze,
                      find_cosine_witness, find_tmm_witness, parse_config_file,
                      run_scenario)


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


class TestQuadraticScenarios:
    def test_fig1_quick(self, tmp_path):
        res = run_quick("fig1", tmp_path, dim=8, iters=300)
        assert res.ok
        assert res.verdicts["hb_certificate_eligible"]
        assert res.verdicts["nag_V_monotone"]
        assert res.verdicts["hb_distance_has_increase"]
        assert res.verdicts["nag_distance_has_increase"]
        for path in res.artifacts:
            assert os.path.isfile(path)
        text = report_text(res)
        assert "overall: PASS" in text
        assert "TMM: eligible=no" in text
        assert os.path.isfile(tmp_path / "fig1_spectrum.svg")
        assert os.path.isfile(tmp_path / "fig1_overview.svg")

    def test_quadratic_quick(self, tmp_path):
        res = run_quick("quadratic", tmp_path, dim=5, mu=1.0, L=16.0, iters=400)
        assert res.ok
        for kind in ("hb", "nag", "naggs"):
            assert res.verdicts[f"{kind}_V_monotone"]
            assert res.verdicts[f"{kind}_terminal_V_below_floor"]
        assert "tmm_V_monotone" not in res.verdicts

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

    @pytest.mark.parametrize("name", ["nonoptimal", "tmm-witness", "expnorm"])
    def test_zero_dim_is_not_the_default(self, tmp_path, name):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            run_quick(name, tmp_path, dim=0)

    @pytest.mark.parametrize("name", ["nonoptimal", "cosine", "tmm-witness", "expnorm"])
    def test_zero_iters_is_not_the_default(self, tmp_path, name):
        with pytest.raises(ValueError, match="iters must be >= 3"):
            run_quick(name, tmp_path, iters=0)

    def test_deterministic_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_quick("nonoptimal", a, dim=4, iters=120)
        run_quick("nonoptimal", b, dim=4, iters=120)
        fa = (a / "nonoptimal_hb_trace.csv").read_bytes()
        fb = (b / "nonoptimal_hb_trace.csv").read_bytes()
        assert fa == fb


class TestWitnessScenarios:
    def test_cosine_finds_violation(self, tmp_path):
        res = run_quick("cosine", tmp_path, iters=60)
        assert res.ok
        assert res.verdicts["violation_found"]
        assert os.path.isfile(tmp_path / "cosine_hb_trace.csv")
        text = report_text(res)
        assert "witness: seed=" in text
        assert "certificate" in text

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

    def test_find_tmm_witness_needs_unequal_starts(self):
        found = find_tmm_witness(iters=60)
        assert found is not None
        s, trace, rep = found
        assert not rep.monotone
        first = rep.violations[0]
        assert first.v_next > first.v_prev


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
