import contextlib
import errno
import hashlib
import importlib
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lyapcert import (HB, NAG, NAGGS, SCENARIOS, TMM, MethodSpec, check_monotone, cli,
                      export_csv, generate_quadratic, load_problem,
                      optimal_hyperparams, parse_config_file, read_trace_csv,
                      run_trace, series_from_csv)
from lyapcert import scenarios
from lyapcert import trace as trace_module
from lyapcert.scenarios import _x0
from lyapcert.cli import UsageError, build_parser, main, parse_method
from conftest import peak_bytes

VIOLATING_CSV = (
    "iter,objective_gap,distance,lyapunov\n"
    "0,1,1,\n"
    "1,1,1,\n"
    "2,1,1,1\n"
    "3,1,1,2\n"
)


class TestParseMethod:
    def test_aliases(self):
        assert parse_method("hb") == "HB"
        assert parse_method("Heavy-Ball") == "HB"
        assert parse_method("NAG") == "NAG"
        assert parse_method("tmm") == "TMM"
        assert parse_method("nag-gs") == "NAGGS"
        assert parse_method("nag_gs") == "NAGGS"
        assert parse_method("naggs") == "NAGGS"

    def test_unknown(self):
        with pytest.raises(UsageError):
            parse_method("sgd")


class TestGenerate:
    def test_writes_loadable_problem(self, tmp_path, capsys):
        out = tmp_path / "p.npz"
        rc = main(["generate", "--dim", "6", "--mu", "1", "--L", "9",
                   "--seed", "4", "--out", str(out)])
        assert rc == 0
        assert "wrote quadratic problem" in capsys.readouterr().out
        p = load_problem(out)
        assert p.dim == 6
        assert p.eigvals[0] == pytest.approx(1.0)
        assert p.eigvals[-1] == pytest.approx(9.0)

    def test_out_without_suffix_round_trips(self, tmp_path, capsys, monkeypatch):
        # the file lands at --out exactly, where analyze --problem reads it
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--dim", "3", "--out", "prob"]) == 0
        assert capsys.readouterr().out.endswith(" -> prob\n")
        assert os.listdir(tmp_path) == ["prob"]
        assert main(["analyze", "--method", "hb", "--optimal", "--problem", "prob"]) == 0
        want = generate_quadratic(3, 1.0, 10.0, seed=0)
        assert np.array_equal(load_problem("prob").eigvals, want.eigvals)

    @pytest.mark.parametrize("existing", [None, b"old contents\n"])
    def test_failed_save_leaves_no_file(self, tmp_path, capsys, monkeypatch, existing):
        real = np.lib.format.write_array
        calls = []

        def write_array(fh, array, **kwargs):  # the third array meets a full disk
            calls.append(1)
            real(fh, array, **kwargs)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(np.lib.format, "write_array", write_array)
        out = tmp_path / "p.npz"
        if existing is not None:
            out.write_bytes(existing)
        assert main(["generate", "--dim", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno {errno.ENOSPC}] " \
                               f"{os.strerror(errno.ENOSPC)}: {str(out)!r}\n"
        assert captured.out == "" and len(calls) == 3
        assert os.listdir(tmp_path) == ([] if existing is None else ["p.npz"])
        if existing is not None:
            assert out.read_bytes() == existing

    def test_missing_out(self, capsys):
        rc = main(["generate", "--dim", "6"])
        assert rc == 2
        assert "missing required --out" in capsys.readouterr().err

    def test_zero_spectrum_is_refused(self, tmp_path, capsys):
        # mu == L passes for dim 1, so only the L > 0 check refuses it
        assert main(["generate", "--dim", "1", "--mu", "0", "--L", "0",
                     "--out", str(tmp_path / "p.npz")]) == 1
        assert capsys.readouterr().err == "error: L must be positive\n"
        assert os.listdir(tmp_path) == []

    def test_overflowing_problem_is_refused(self, tmp_path, capsys):
        # (W + W.T) / 2 overflows on the diagonal at L = 1e308
        rc = main(["generate", "--dim", "3", "--mu", "0", "--L", "1e308",
                   "--out", str(tmp_path / "p.npz")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error: L = 1e+308 is too large: W or linear of the "
                                "problem is not finite\n")
        assert captured.out == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command,rc", [("analyze", 1), ("run", 0)])
    def test_wide_spectrum_round_trips(self, tmp_path, capsys, command, rc):
        # entries past 1.3e154: the sum of squares of each norm the load
        # checks take overflows unless the entries are scaled first
        path = str(tmp_path / "p.npz")
        assert main(["generate", "--dim", "5", "--mu", "1", "--L", "1e200", "--out", path]) == 0
        capsys.readouterr()
        argv = [command, "--method", "hb", "--optimal", "--problem", path]
        if command == "run":
            argv += ["--out", str(tmp_path / "t.csv")]
        assert main(argv) == rc  # analyze: ineligible, the spectral radius is 1
        assert capsys.readouterr().err == ""


class TestAnalyze:
    def test_eligible_exits_zero(self, capsys):
        rc = main(["analyze", "--method", "hb", "--optimal",
                   "--mu", "1", "--L", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "eligible: yes" in out
        assert "spectral_radius" in out

    def test_ineligible_exits_one(self, capsys):
        rc = main(["analyze", "--method", "tmm", "--optimal",
                   "--mu", "1", "--L", "4"])
        assert rc == 1
        assert "eligible: no" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["hb", "nag", "nag-gs"])
    def test_tuned_where_mu_times_L_overflows(self, capsys, method):
        # mu L = 1e599: NAG-GS once formed sqrt(mu L), read alpha = 0 and exited 1
        rc = main(["analyze", "--method", method, "--optimal", "--mu", "1e299",
                   "--L", "1e300", "--dim", "3"])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, "")
        assert "eligible: yes" in captured.out

    def test_explicit_hyperparameters(self, capsys):
        rc = main(["analyze", "--method", "hb", "--alpha", "0.15",
                   "--beta", "0.5", "--mu", "1", "--L", "10"])
        assert rc == 0
        assert "eligible: yes" in capsys.readouterr().out

    def test_writes_certificate_csv(self, tmp_path, capsys):
        out = tmp_path / "cert.csv"
        rc = main(["analyze", "--method", "hb", "--optimal", "--mu", "1",
                   "--L", "4", "--dim", "7", "--out", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "lambda_W,a,b,re_lambda,im_lambda,modulus,conjugate_pair"
        assert len(lines) == 8

    def test_analyze_problem_file(self, tmp_path, capsys):
        path = tmp_path / "p.npz"
        assert main(["generate", "--dim", "5", "--mu", "1", "--L", "4",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        rc = main(["analyze", "--method", "nag", "--optimal",
                   "--problem", str(path)])
        assert rc == 0
        assert "coordinates: 5" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["hb", "nag", "nag-gs"])
    @pytest.mark.parametrize("command", ["analyze", "run"])
    def test_gamma_outside_tmm_is_an_error(self, tmp_path, capsys, method, command):
        # not certified as gamma = 0: TMM is the family member that takes gamma
        out = tmp_path / "o.csv"
        rc = main([command, "--method", method, "--alpha", "0.1", "--beta", "0.2",
                   "--gamma", "0.3", "--mu", "1", "--L", "4", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: gamma is only used by TMM\n"
        assert captured.out == "" and not out.exists()

    def test_optimal_conflicts_with_alpha(self, capsys):
        rc = main(["analyze", "--method", "hb", "--optimal", "--alpha", "0.1",
                   "--mu", "1", "--L", "4"])
        assert rc == 2
        assert "conflicts" in capsys.readouterr().err

    def test_missing_method(self, capsys):
        rc = main(["analyze", "--mu", "1", "--L", "4", "--optimal"])
        assert rc == 2
        assert "--method" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--tolerance", "nan", "tolerance must be finite and nonnegative"),
        ("--tolerance", "-1", "tolerance must be finite and nonnegative"),
        ("--mu", "nan", "mu must be finite, got nan"),
    ])
    def test_bad_number_is_runtime_error(self, capsys, flag, value, message):
        argv = ["analyze", "--method", "hb", "--alpha", "0.15", "--beta", "0.5",
                "--mu", "1", "--L", "10", flag, value]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {message}\n"
        assert "eligible" not in captured.out

    @pytest.mark.parametrize("command", [
        "analyze", "run", pytest.param("analyze --alpha 0.1", id="analyze-alpha")])
    @pytest.mark.parametrize("flag,value", [("--mu", "nan"), ("--L", "inf"), ("--L", "nan")])
    def test_non_finite_bound_is_named(self, tmp_path, capsys, command, flag, value):
        # fails before the eigenvalue grid or the problem is built: no numpy
        # warning reaches stderr, only the error line
        argv = [*command.split(), "--method", "hb", "--mu", "1", "--L", "10",
                flag, value, "--dim", "5"]
        if "--alpha" not in command:
            argv.append("--optimal")
        if command == "run":
            argv += ["--iters", "10", "--out", str(tmp_path / "t.csv")]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {flag[2:]} must be finite, got {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("bounds,message", [
        (["--mu=-1e308", "--L", "1e308"], "mu must be >= 0"),
        (["--mu=-1", "--L", "1"], "mu must be >= 0"),
        (["--mu", "1e308", "--L=-1e308"], "L - mu must be finite, got -inf"),
    ])
    def test_grid_bounds_are_named(self, capsys, bounds, message):
        # rejected before the eigenvalue grid is built: no numpy warning
        rc = main(["analyze", "--method", "hb", "--alpha", "0.1", *bounds, "--dim", "5"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "run"])
    def test_overflowing_coefficients_are_named(self, tmp_path, capsys, command):
        # alpha * lambda overflows: no numpy warning, and not an iterate fault
        out = tmp_path / "t.csv"
        argv = [command, "--method", "hb", "--alpha", "1e308", "--L", "1e4", "--dim", "3"]
        argv += ["--mu", "1"] if command == "analyze" else ["--iters", "10", "--out", str(out)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: coefficients must be finite\n"
        assert captured.out == ""
        assert not out.exists()

    def test_bad_method_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--method", "sgd", "--optimal",
                  "--mu", "1", "--L", "4"])
        assert exc.value.code == 2


class TestRunAndCheck:
    def test_run_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main(["run", "--method", "hb", "--optimal", "--dim", "6",
                   "--mu", "1", "--L", "4", "--iters", "80", "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "diverged=no" in text
        assert "monotone decrease: yes" in text
        data = read_trace_csv(out)
        assert data["distance"].shape[0] == 80

    def test_run_divergence_exit_code(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main(["run", "--method", "hb", "--alpha", "3", "--beta", "0.5",
                   "--dim", "2", "--mu", "1", "--L", "4", "--iters", "200",
                   "--out", str(out)])
        assert rc == 1
        assert "diverged=yes" in capsys.readouterr().out

    def test_run_cut_before_v_still_summarizes(self, tmp_path, capsys):
        # a start beyond the divergence threshold ends the run at row 0: the
        # summary line comes before the V series that cannot be built
        out = tmp_path / "d.csv"
        rc = main(["run", "--method", "hb", "--optimal", "--x0-scale", "1e13",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert re.fullmatch(r"rows=1 final_gap=\S+ final_distance=1e\+13 diverged=yes\n",
                            captured.out)
        assert captured.err == "error: the run diverged at row 0, before V is defined\n"
        assert read_trace_csv(out)["distance"].shape == (1,)

    def test_check_clean_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        main(["run", "--method", "hb", "--optimal", "--dim", "6", "--mu", "1",
              "--L", "4", "--iters", "80", "--out", str(out)])
        capsys.readouterr()
        rc = main(["check", str(out)])
        assert rc == 0
        verdict = check_monotone(series_from_csv(out)).describe()
        assert verdict.startswith("monotone decrease: yes")
        assert capsys.readouterr().out == verdict + "\n"  # the verdict alone

    @pytest.mark.parametrize("threshold, diverged", [(None, True), (1.5e12, False)])
    def test_check_a_diverged_csv_says_so(self, tmp_path, capsys, monkeypatch, threshold,
                                          diverged):
        # radius 1.68: the run stops at distance 1.48e12 while V falls; read
        # with a threshold above that distance, the CSV is one that converged
        out = tmp_path / "div.csv"
        assert main(["run", "--method", "hb", "--alpha", "0.03", "--beta", "0.2", "--dim", "50",
                     "--mu", "1", "--L", "100", "--out", str(out)]) == 1
        summary, verdict, _ = capsys.readouterr().out.splitlines()
        distance = summary.split()[2]
        assert distance == "final_distance=1.47557e+12"
        assert verdict.endswith("; V is not positive definite here and bounds no distance")
        if threshold is not None:
            monkeypatch.setattr(trace_module, "DIVERGENCE_THRESHOLD", threshold)
        rc = main(["check", str(out)])
        text = capsys.readouterr().out
        if diverged:
            assert rc == 1 and text == f"{distance} diverged=yes\n{verdict}\n"
        else:
            assert rc == 0 and text == check_monotone(series_from_csv(out)).describe() + "\n"

    def test_check_flags_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(VIOLATING_CSV, encoding="utf-8")
        rc = main(["check", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "NO" in out
        assert "k=2" in out

    def test_check_lists_first_ten(self, tmp_path, capsys):
        # 14 flagged steps, two beside a NaN, and two rises that roundoff in
        # rows at distance 1 cannot explain (0 -> 1e-12, 12 -> 12.000000001):
        # the first ten, each worded as the verdict words its first, then a count
        vals = ["1", "2", "1.5", "3.25", "-0", "0", "1e-12", "7", "nan", "4", "5", "6",
                "7", "8", "9", "10", "11", "12.000000001"]
        path = tmp_path / "many.csv"
        path.write_text(VIOLATING_CSV.split("2,1,1,1")[0]
                        + "".join(f"{k},1,1,{v}\n" for k, v in enumerate(vals, start=2)),
                        encoding="utf-8")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out == (
            "monotone decrease: NO (14 violations); first at k=2: V=1 -> 2 (excess 1); "
            "max ratio 7e+12\n"
            "  k=2: V=1 -> 2 (excess 1)\n"
            "  k=4: V=1.5 -> 3.25 (excess 1.75)\n"
            "  k=7: V=0 -> 1e-12 (excess 9.86e-13)\n"
            "  k=8: V=1e-12 -> 7 (excess 7)\n"
            "  k=9: V=7 -> nan (excess nan)\n"
            "  k=10: V=nan -> 4 (excess nan)\n"
            "  k=11: V=4 -> 5 (excess 1)\n"
            "  k=12: V=5 -> 6 (excess 1)\n"
            "  k=13: V=6 -> 7 (excess 1)\n"
            "  k=14: V=7 -> 8 (excess 1)\n"
            "  ... 4 more\n")

    def test_check_missing_path(self, capsys):
        rc = main(["check"])
        assert rc == 2
        assert "missing trace" in capsys.readouterr().err

    def test_check_missing_file_is_runtime_error(self, tmp_path, capsys):
        rc = main(["check", str(tmp_path / "nope.csv")])
        assert rc == 1

    def test_check_empty_file_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        rc = main(["check", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_check_flags_nan_value(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text(VIOLATING_CSV.replace("3,1,1,2", "3,1,1,nan\n4,1,1,0.5"),
                        encoding="utf-8")
        rc = main(["check", str(path)])
        assert rc == 1
        assert "monotone decrease: NO" in capsys.readouterr().out


def reference_run(tmp_path, kind, iters, *, dim=7, mu=1.0, L=50.0, spec=None,
                  seed=0, scale=10.0):
    """CSV bytes and stdout of ``run`` built from ``run_trace`` + ``export_csv``
    + ``check_monotone``: the command as a whole trace in memory.  The
    verdict line of a run that diverged or whose certificate is not eligible
    says that V bounds no distance there."""
    problem = generate_quadratic(dim, mu, L, seed)
    spec = spec or optimal_hyperparams(kind, mu, L)
    tr = run_trace(problem, spec, _x0(problem.minimizer, scale, seed), iters)
    path = tmp_path / "reference.csv"
    export_csv(tr, path)
    out = tmp_path / "t.csv"
    bound = tr.certificate.eligible and not tr.diverged
    text = (f"rows={len(tr)} final_gap={tr.objective_gap[-1]:.6g} "
            f"final_distance={tr.distance[-1]:.6g} "
            f"diverged={'yes' if tr.diverged else 'no'}\n"
            f"{check_monotone(tr.lyapunov_series()).describe()}"
            f"{'' if bound else '; V is not positive definite here and bounds no distance'}\n"
            f"trace -> {out}\n")
    return path.read_bytes(), text, out


class TestStreamingRun:
    """``run`` writes its CSV block by block without holding the trace; the
    bytes and stdout equal the whole-trace path, and ``--out`` is replaced
    only by a complete run."""

    @pytest.mark.parametrize("kind", [HB, NAG, TMM, NAGGS])
    @pytest.mark.parametrize("iters", [3, 511, 512, 513, 1027])
    def test_matches_whole_trace(self, tmp_path, capsys, kind, iters):
        csv, text, out = reference_run(tmp_path, kind, iters)
        rc = main(["run", "--method", kind.lower(), "--optimal", "--dim", "7",
                   "--mu", "1", "--L", "50", "--iters", str(iters), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == text
        assert out.read_bytes() == csv
        assert sorted(os.listdir(tmp_path)) == ["reference.csv", "t.csv"]

    def test_diverging_run_is_written(self, tmp_path, capsys):
        # a = 1 - 0.51 * 4 = -1.04 on lambda = L: 10 grows past 1e12 in ~650 steps
        spec = MethodSpec(HB, alpha=0.51)
        csv, text, out = reference_run(tmp_path, HB, 2000, dim=2, L=4.0, spec=spec)
        rc = main(["run", "--method", "hb", "--alpha", "0.51", "--dim", "2",
                   "--mu", "1", "--L", "4", "--iters", "2000", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().out == text
        assert "diverged=yes" in text and text.startswith("rows=")
        assert int(text.split()[0][5:]) > 512  # stops past the first block
        assert out.read_bytes() == csv

    def test_a_falling_v_that_bounds_nothing_says_so(self, tmp_path, capsys):
        # radius 1.68: V falls at -b = 0.2 while the distance reaches 1.5e12
        rc = main(["run", "--method", "hb", "--alpha", "0.03", "--beta", "0.2", "--dim", "50",
                   "--mu", "1", "--L", "100", "--out", str(tmp_path / "t.csv")])
        line = capsys.readouterr().out.splitlines()[1]
        assert rc == 1
        assert line.startswith("monotone decrease: yes (max ratio 0.200277 ")
        assert line.endswith("; V is not positive definite here and bounds no distance")

    @pytest.mark.parametrize("existing", [None, b"old contents\n"])
    def test_raising_run_leaves_out_alone(self, tmp_path, capsys, monkeypatch, existing):
        blocks = cli._blocks

        def failing(*args, **kwargs):  # three blocks written, then a fault
            for i, blk in enumerate(blocks(*args, **kwargs)):
                if i == 3:
                    raise ValueError("non-finite iterate produced")
                yield blk

        monkeypatch.setattr(cli, "_blocks", failing)
        out = tmp_path / "t.csv"
        if existing is not None:
            out.write_bytes(existing)
        rc = main(["run", "--method", "hb", "--optimal", "--dim", "4",
                   "--iters", "5000", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: non-finite iterate produced\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == ([] if existing is None else ["t.csv"])
        if existing is not None:
            assert out.read_bytes() == existing

    def test_non_finite_first_step_leaves_no_file(self, tmp_path, capsys):
        # the start block is written, then the first step overflows
        out = tmp_path / "t.csv"
        rc = main(["run", "--method", "hb", "--alpha", "1e300", "--dim", "3",
                   "--L", "1e4", "--x0-scale", "1e6", "--iters", "10", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: non-finite iterate produced\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_named(self, tmp_path, capsys, where):
        out = tmp_path / "nope" / "t.csv" if where == "missing-dir" else tmp_path
        rc = main(["run", "--method", "hb", "--optimal", "--dim", "3",
                   "--iters", "10", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ")
        assert captured.err.rstrip().endswith(f"{str(out)!r}")
        assert captured.out == ""
        assert os.listdir(tmp_path) == []

    def test_directory_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        built = []
        engine = trace_module._eigenbasis_engine
        monkeypatch.setattr(trace_module, "_eigenbasis_engine",
                            lambda *args: built.append(1) or engine(*args))
        out = tmp_path / "outdir"
        out.mkdir()
        rc = main(["run", "--method", "hb", "--optimal", "--dim", "3",
                   "--iters", "200000", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: [Errno {errno.EISDIR}] " \
                               f"{os.strerror(errno.EISDIR)}: {str(out)!r}\n"
        assert captured.out == ""
        assert built == []  # the engine was never built, so never stepped
        assert os.listdir(tmp_path) == ["outdir"] and os.listdir(out) == []

    def test_peak_memory_is_below_the_rows(self, tmp_path, capsys):
        # the trace rows alone would be iters * dim * 8 bytes; a short run
        # first, so one-time lazy imports are not counted
        iters, dim = 10000, 50
        argv = ["run", "--method", "hb", "--optimal", "--dim", str(dim), "--L", "1e4",
                "--out", str(tmp_path / "t.csv"), "--iters"]
        assert main([*argv, "3"]) == 0
        tracemalloc.start()
        try:
            rc = main([*argv, str(iters)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < iters * dim * 8 / 2


class TestMemoryFlatInIters:
    """``run`` feeds its verdict each block as it writes it, and ``check``
    each chunk it parses: neither keeps a column, so their traced peaks at
    2e3 and 2e5 rows agree within 256 KB (kept columns would cost 16 bytes
    a row in ``run`` and 24 in ``check``, over 3 MB at 2e5 rows).  Tuned HB
    on [1, 1.0001] reaches distance 0 at row 36, so the rows are short."""

    ARGV = ["run", "--method", "hb", "--optimal", "--dim", "2", "--mu", "1",
            "--L", "1.0001", "--x0-scale", "1", "--iters"]

    @staticmethod
    def peak(argv):
        codes = []
        peak = peak_bytes(lambda: codes.append(main(argv)))
        assert codes == [0]
        return peak

    @pytest.fixture(scope="class")
    def csvs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("flat")
        paths = [str(out / f"t{n}.csv") for n in (2000, 200_000)]
        with contextlib.redirect_stdout(None):
            for n, path in zip((2000, 200_000), paths):
                assert main([*self.ARGV, str(n), "--out", path]) == 0
        return paths

    def test_run(self, tmp_path, capsys):
        out = str(tmp_path / "t.csv")
        self.peak([*self.ARGV, "3", "--out", out])  # one-time lazy imports are not counted
        small, large = (self.peak([*self.ARGV, str(n), "--out", out]) for n in (2000, 200_000))
        assert abs(large - small) <= 256 * 1024

    def test_check(self, csvs, capsys):
        self.peak(["check", csvs[0]])
        small, large = (self.peak(["check", path]) for path in csvs)
        assert abs(large - small) <= 256 * 1024


class TestOutputPins:
    """sha256 of the output file plus stdout of ``run``, ``analyze`` and
    ``generate`` at sizes the scenario digests do not reach: three CSV blocks
    (the first with its two rows without V), a 10001-row certificate, whose
    index column outgrows its width, and the ``.npz`` of a 50-d and a 1-d
    problem.  Recorded with the row-at-a-time writers and with ``W`` and
    ``linear`` built inside ``generate_quadratic``, numpy 2.4.6 on x86-64;
    the HB and NAG pins re-taken with the family's coefficient formula, and
    the ``run`` pins when its verdict line began to leave out the ratios of
    V within roundoff (the CSVs unchanged); the TMM ``run`` pin when that
    line began to say that V bounds no distance on an ineligible
    certificate, and both ``analyze`` pins when the report gained its
    ``equal_start_monotone`` line (the CSVs unchanged); the NAG-GS ``run`` pin
    when tuned NAG-GS began to be formed from sqrt(mu) and sqrt(L) (last-ulp
    rounding of alpha and beta, so its CSV moved); ``TestStreamingRun`` compares
    ``run`` with ``export_csv``, which share one formatter, so only a pin
    catches a formatting change."""

    RUN = {
        HB: "9982af6031beb3f4021ef032ecc3ff2b426e177d559c8b2c0ffa083ba35b0905",
        NAG: "522c405a44b6af3293d5a3ce80c43f6d773892780ebaad7a3a851bb3bdbe4f88",
        TMM: "a00fef2c1167bdaabc07585ea6d1865fa7df9bf09701632d0ba48cd3bd2361b8",
        NAGGS: "ddd80924d6265150638a02a77812a426dab200664a12bc7b0bb78e04650bc765",
    }
    ANALYZE = {
        HB: (0, "98e8263b0465f8b4352e5bad1a996adb446056dfd293601c43b69064df93ee4a"),
        TMM: (1, "021daa9b470633294ccdf929d0880c0c96686b4ec1ef0ad2df7580c31100d1a9"),
    }

    @staticmethod
    def digest(argv, out, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # a relative --out keeps stdout fixed
        rc = main([*argv, "--out", out])
        text = capsys.readouterr().out
        return rc, hashlib.sha256((tmp_path / out).read_bytes() + text.encode()).hexdigest()

    @pytest.mark.parametrize("kind", [HB, NAG, TMM, NAGGS])
    def test_run(self, tmp_path, capsys, monkeypatch, kind):
        argv = ["run", "--method", kind.lower(), "--optimal", "--dim", "20", "--iters", "1027"]
        assert self.digest(argv, "t.csv", capsys, monkeypatch, tmp_path) == (0, self.RUN[kind])

    GENERATE = {
        "50": "140b074ae971378b1e0f05e665004cc69951ee946460f63a88af65ce3397ce0c",
        "1": "3e9c9210fe1259917ae32cf5396707033517733b7eff1e8d407c46d34e32719a",
    }

    @pytest.mark.parametrize("dim", ["50", "1"])
    def test_generate(self, tmp_path, capsys, monkeypatch, dim):
        argv = ["generate", "--dim", dim, "--seed", "0"]
        assert self.digest(argv, "p.npz", capsys, monkeypatch, tmp_path) == (0, self.GENERATE[dim])

    @pytest.mark.parametrize("kind", [HB, TMM])
    def test_analyze(self, tmp_path, capsys, monkeypatch, kind):
        argv = ["analyze", "--method", kind.lower(), "--optimal", "--mu", "1", "--L", "1000",
                "--dim", "10001"]
        assert self.digest(argv, "c.csv", capsys, monkeypatch, tmp_path) == self.ANALYZE[kind]


class TestProblemFile:
    """A problem file without arrays or a spectrum, with an array of the
    wrong kind, or that is no .npz archive of arrays (a bare array, an empty
    file, a zip header over junk, an archive cut short, other bytes, which
    numpy would only read as a pickle), gives one error line, exit 1, and no
    traceback or warning."""

    UNREADABLE = {"empty_file": b"", "zip_magic": b"PK\x03\x04 not a zip archive",
                  "garbage": b"garbage", "cut": None}
    MESSAGES = {"missing": "no eigvals array in the problem file",
                "empty": "the problem has no eigenvalues",
                "npy": "not an .npz problem file",
                **dict.fromkeys(UNREADABLE, "not an .npz problem file"),
                "constant_vector": "constant must be a 0-d number",
                "constant_1": "constant must be a 0-d number",
                "complex_eigvecs": "eigvecs must be real",
                "complex_constant": "constant must be real",
                "eigvals_2d": "eigvals must be a vector"}

    @pytest.mark.parametrize("command", ["run", "analyze"])
    @pytest.mark.parametrize("case", sorted(MESSAGES))
    def test_bad_spectrum_is_named(self, tmp_path, capsys, command, case):
        p = generate_quadratic(3, 1.0, 4.0, seed=0)
        arrays = dict(W=p.W, linear=p.linear, constant=np.array(p.constant),
                      eigvecs=p.eigvecs, minimizer=p.minimizer)
        if case != "missing":
            arrays["eigvals"] = p.eigvals
        if case == "empty":
            arrays["eigvals"] = np.zeros(0)
        elif case == "constant_vector":
            arrays["constant"] = np.zeros(3)
        elif case == "constant_1":
            arrays["constant"] = np.zeros(1)
        elif case == "complex_eigvecs":  # a tiny imaginary part, not dropped
            arrays["eigvecs"] = p.eigvecs + 1e-30j
        elif case == "complex_constant":
            arrays["constant"] = np.array(1.0 + 0.0j)
        elif case == "eigvals_2d":
            arrays["eigvals"] = p.eigvals[None, :]
        path = tmp_path / "p.npz"
        if case == "npy":  # a bare array under the problem's name
            with open(path, "wb") as fh:
                np.save(fh, p.eigvals)
        else:
            np.savez(path, **arrays)
        if case == "cut":  # the archive's first 1000 bytes
            path.write_bytes(path.read_bytes()[:1000])
        elif case in self.UNREADABLE:
            path.write_bytes(self.UNREADABLE[case])
        argv = [command, "--method", "hb", "--optimal", "--problem", str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "t.csv")]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {path}: {self.MESSAGES[case]}\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["p.npz"]


class TestProblemFileChecks:
    """A problem file whose W or linear disagrees with its eigenfactors, or
    whose eigvecs are not orthogonal, gives one error line and exit 1."""

    MESSAGES = {"nonsymmetric": "W must be symmetric",
                "off_factors": "W does not match its eigenfactors",
                "residual": "minimizer does not solve W x = linear",
                "wide_residual": "minimizer does not solve W x = linear",
                "nonorthogonal": "eigvecs must be orthogonal"}

    @staticmethod
    def arrays(case):
        # wide_residual: a linear 1.5 times the true one at a scale where the
        # sums of squares in its norm and the residual's overflow
        p = generate_quadratic(3, 1.0, 1e160 if case == "wide_residual" else 4.0, seed=0)
        arrays = dict(W=p.W, linear=p.linear, constant=np.array(p.constant),
                      eigvals=p.eigvals, eigvecs=p.eigvecs, minimizer=p.minimizer)
        if case == "nonsymmetric":
            arrays["W"] = p.W + np.triu(np.ones((3, 3)), 1)
        elif case == "off_factors":
            arrays["W"] = 2.0 * p.W
        elif case == "residual":  # mu = 1 > 0, so the minimizer is checked
            arrays["linear"] = p.linear + 1.0
        elif case == "wide_residual":
            arrays["linear"] = 1.5 * p.linear
        else:  # a symmetric W built from a non-orthogonal basis
            vecs = p.eigvecs.copy()
            vecs[:, 0] *= 2.0
            W = (vecs * p.eigvals) @ vecs.T
            arrays.update(W=W, linear=W @ p.minimizer, eigvecs=vecs)
        return arrays

    @pytest.mark.parametrize("command", ["run", "analyze"])
    @pytest.mark.parametrize("case", sorted(MESSAGES))
    def test_disagreement_is_named(self, tmp_path, capsys, command, case):
        path = tmp_path / "p.npz"
        np.savez(path, **self.arrays(case))
        argv = [command, "--method", "hb", "--optimal", "--problem", str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "t.csv")]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {self.MESSAGES[case]}\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["p.npz"]


class TestOptimalConflicts:
    """--optimal leaves no hyperparameter to set: with any explicit alpha,
    beta or gamma, from flags or a config file, it is a usage error."""

    ARGV = {"analyze": ["analyze", "--mu", "1", "--L", "4"],
            "run": ["run", "--dim", "3", "--iters", "10"],
            "scenario": ["scenario", "quadratic", "--dim", "3", "--iters", "10"]}
    VALUES = {"alpha": "0.1", "beta": "0.9", "gamma": "0.3"}

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("given", [
        ("alpha",), ("beta",), ("gamma",), ("alpha", "beta"), ("alpha", "gamma"),
        ("beta", "gamma"), ("alpha", "beta", "gamma")])
    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_is_a_usage_error(self, tmp_path, capsys, command, given, source):
        out = tmp_path / "out"
        settings = {"method": "hb", "optimal": "yes", "out": str(out),
                    **{k: self.VALUES[k] for k in given}}
        argv = list(self.ARGV[command])
        if source == "flags":
            for key, value in settings.items():
                argv += [f"--{key}"] if key == "optimal" else [f"--{key}", value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()),
                           encoding="utf-8")
            argv += ["--config", str(cfg)]
        rc = main(argv)
        captured = capsys.readouterr()
        flags = ", ".join(f"--{k}" for k in given)
        assert rc == 2
        assert captured.err == f"error: --optimal conflicts with explicit {flags}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_optimal_off_in_config_takes_explicit_values(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("optimal = no\n", encoding="utf-8")
        argv = self.ARGV[command] + ["--config", str(cfg), "--method", "hb", "--alpha",
                                     "0.1", "--beta", "0.2", "--out", str(tmp_path / "o")]
        assert main(argv) in (0, 1)
        assert "error" not in capsys.readouterr().err


UP_CSV = VIOLATING_CSV.replace("3,1,1,2\n", "3,1,1,5\n4,1,1,9\n")


class TestBadTolerance:
    """A NaN or infinite tolerance would let every rise pass as monotone.
    The monotonicity check takes none, its slack comes from the distance
    column: run, check and scenario refuse ``--tolerance`` as an unknown
    flag (exit 2), and ``tolerance =`` in a config file as an unread key
    (``TestCommandTable``).  analyze's discriminant band is checked before
    its problem is read (``TestValuesBeforeProblem``)."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["check", "run", "scenario"])
    def test_refused(self, tmp_path, capsys, monkeypatch, command, value):
        def no_engine(*args):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(trace_module, "_eigenbasis_engine", no_engine)
        up = tmp_path / "up.csv"
        up.write_text(UP_CSV, encoding="utf-8")
        out = tmp_path / "out"
        argv = {"check": ["check", str(up)],
                "run": ["run", "--method", "hb", "--optimal", "--dim", "3",
                        "--iters", "10", "--out", str(out)],
                "scenario": ["scenario", "nonoptimal", "--dim", "3", "--iters", "10",
                             "--out", str(out)]}[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--tolerance={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(f"error: unrecognized arguments: --tolerance={value}\n")
        assert captured.out == "" and not out.exists()
        assert main(["check", str(up)]) == 1  # V 1 -> 5 -> 9 rises
        assert "monotone decrease: NO (2 violations)" in capsys.readouterr().out

    def test_check_refuses_before_it_reads(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SystemExit) as exc:
            main(["check", missing, "--tolerance", "nan"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance nan" in capsys.readouterr().err
        assert main(["check", missing]) == 1
        assert "missing.csv" in capsys.readouterr().err


class TestBadX0Scale:
    """A NaN or infinite start scale is named, not met later as a bad iterate
    or objective value."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["run", "tmm-witness", "expnorm"])
    def test_refused(self, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        argv = {"run": ["run", "--method", "hb", "--optimal", "--dim", "3", "--iters", "10"],
                "tmm-witness": ["scenario", "tmm-witness", "--dim", "5", "--iters", "10"],
                "expnorm": ["scenario", "expnorm", "--iters", "10"]}[command]
        assert main([*argv, f"--x0-scale={value}", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: x0-scale must be finite, got {value}\n"
        assert captured.out == "" and not out.exists()


class TestValuesBeforeProblem:
    """run and analyze refuse a bad value that needs no problem before they
    build or read one, and a usage error before that."""

    @pytest.fixture(autouse=True)
    def no_problem(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a problem was built or read")

        monkeypatch.setattr(cli, "generate_quadratic", fail)
        monkeypatch.setattr(cli, "load_problem", fail)

    @pytest.mark.parametrize("argv, message", [
        (["run", "--method", "hb", "--optimal", "--x0-scale", "nan"],
         "x0-scale must be finite, got nan"),
        (["run", "--method", "hb", "--alpha", "-1", "--problem", "p.npz"],
         "alpha must be positive"),
        (["analyze", "--method", "hb", "--optimal", "--problem", "p.npz", "--tolerance", "nan"],
         "tolerance must be finite and nonnegative"),
        (["analyze", "--method", "nag", "--alpha", "0.1", "--beta", "-1", "--problem", "p.npz"],
         "beta must be nonnegative for HB/NAG/NAG-GS"),
    ], ids=["run-x0-scale", "run-alpha", "analyze-tolerance", "analyze-beta"])
    def test_value_refused_first(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["run", "--method", "hb", "--optimal", "--x0-scale", "nan"], "--out"),
        (["run", "--method", "hb", "--x0-scale", "nan", "--out", "t.csv"],
         "--alpha (or --optimal)"),
        (["analyze", "--optimal", "--problem", "p.npz", "--tolerance", "nan"], "--method"),
    ], ids=["run-out", "run-alpha", "analyze-method"])
    def test_usage_refused_before_values(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: missing required {message}\n"


# a value for each flag a scenario row may hold (``--optimal`` takes none)
ROW_FLAGS = {"dim": "3", "mu": "1", "L": "9", "method": "hb", "alpha": "0.1",
             "beta": "0.2", "gamma": "0.3", "optimal": None, "iters": "20",
             "x0-scale": "1"}
UNREAD = [(name, flag) for name, (_, row) in sorted(SCENARIOS.items())
          for flag in ROW_FLAGS if flag.replace("-", "_") not in row]


class TestScenarioCommand:
    def test_scenario_runs_and_reports(self, tmp_path, capsys):
        rc = main(["scenario", "nonoptimal", "--dim", "4", "--iters", "150",
                   "--out", str(tmp_path / "art")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overall: PASS" in out
        assert "artifacts:" in out
        assert (tmp_path / "art" / "nonoptimal_report.txt").is_file()

    def test_default_out_is_under_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["scenario", "tmm-witness", "--dim", "4", "--iters", "10"]) == 0
        out = os.path.join("artifacts", "tmm-witness")
        assert capsys.readouterr().out.endswith(f"artifacts: 5 files in {out}\n")
        assert os.listdir(tmp_path) == ["artifacts"]
        assert (tmp_path / out / "tmm-witness_report.txt").is_file()

    def test_gamma_for_one_named_kind_outside_tmm_is_an_error(self, tmp_path, capsys):
        # not run as gamma = 0, as analyze and run refuse it too
        rc = main(["scenario", "nonoptimal", "--method", "hb", "--alpha", "0.1",
                   "--beta", "0.2", "--gamma", "0.3", "--out", str(tmp_path / "art")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: gamma is only used by TMM\n"
        assert captured.out == "" and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("method", [[], ["--method", "hb"]])
    @pytest.mark.parametrize("key", ["beta", "gamma"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_momentum_without_alpha_is_usage_error(self, tmp_path, capsys, method, key, source):
        # without --alpha every scenario runs its own hyperparameters
        argv = ["scenario", "nonoptimal", *method, "--out", str(tmp_path / "art")]
        if source == "flag":
            argv += [f"--{key}", "0.9"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = 0.9\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --{key} needs --alpha\n" and captured.out == ""
        assert not (tmp_path / "art").exists()

    def test_unread_pairs(self):
        # with --seed and --tolerance, which every scenario reads: 69 of 96
        # (scenario, flag) pairs are taken
        counts = {name: sum(n == name for n, _ in UNREAD) for name in SCENARIOS}
        assert counts == {"fig1": 0, "quadratic": 0, "nonoptimal": 0, "convex-mu0": 0,
                          "cosine": 9, "tmm-witness": 5, "expnorm": 6, "rosenbrock": 7}
        assert len(SCENARIOS) * (len(ROW_FLAGS) + 2) - len(UNREAD) == 69

    @pytest.mark.parametrize("name,flag", UNREAD, ids=[f"{n}--{f}" for n, f in UNREAD])
    def test_unread_flag_is_refused(self, tmp_path, capsys, name, flag):
        # a usage error, refused before anything runs, not run with the
        # scenario's own value
        value = ROW_FLAGS[flag]
        out = tmp_path / "art"
        argv = ["scenario", name, f"--{flag}", *([value] if value else []), "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: scenario {name} does not take --{flag}\n"
        assert captured.out == "" and not out.exists()

    def test_unread_config_key_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = cosine\ndim = 5\nmu = 3\n", encoding="utf-8")
        assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path / "art")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: scenario cosine does not take --dim, --mu\n"
        assert captured.out == "" and not (tmp_path / "art").exists()

    @pytest.mark.parametrize("name,scale", [("expnorm", "30"), ("rosenbrock", "1e200")])
    def test_oracle_overflow_is_named(self, tmp_path, capsys, name, scale):
        # exp(|x|^2) and the Rosenbrock squares overflow to inf, not an error
        rc = main(["scenario", name, "--x0-scale", scale, "--out", str(tmp_path / "art")])
        captured = capsys.readouterr()
        assert rc == 1
        assert re.fullmatch(r"error: non-finite [^\n]+\n", captured.err)
        assert captured.out == "" and os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv,err", [
        (["fig1", "--x0-scale", "1e300"], "row 0"),
        (["rosenbrock", "--x0-scale", "1e10"], "row 1"),
    ], ids=["fig1-start", "rosenbrock-first-step"])
    def test_divergence_before_v_is_named(self, tmp_path, capsys, argv, err):
        # a run that diverges before row 2 has no V series; the error says so
        rc = main(["scenario", *argv, "--out", str(tmp_path / "art")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: the run diverged at {err}, before V is defined\n"
        assert captured.out == "" and os.listdir(tmp_path) == []

    def test_diverged_run_is_named_on_its_line(self, tmp_path, capsys):
        # radius 1.1: the run goes to the divergence threshold, says so
        # before terminal_V, and its verdict says that V bounds no distance
        rc = main(["scenario", "quadratic", "--method", "hb", "--alpha", "0.0021",
                   "--out", str(tmp_path / "art")])
        out = capsys.readouterr().out.splitlines()
        assert rc == 1
        [line] = [ln for ln in out if ln.startswith("HB: ")]
        assert re.fullmatch(r"HB: eligible=no radius=1\.1 rows=288 diverged=yes terminal_V=\S+ "
                            r"monotone decrease: .*; V is not positive definite here and "
                            r"bounds no distance", line)

    def test_the_first_run_error_is_printed(self, tmp_path, capsys, monkeypatch):
        # HB's run fails on its first stepped row, NAG's alpha (1 + beta) lambda
        # overflows: each run is certified in run order, so HB's error comes first
        monkeypatch.chdir(tmp_path)
        rc = main(["scenario", "quadratic", "--alpha", "1e307", "--beta", "0.9", "--L", "10"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: non-finite iterate produced\n"
        assert captured.out == "" and os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv,line", [
        (["cosine", "--iters", "3"], "no violation found across 100 seeded starts; "),
        (["tmm-witness", "--dim", "1", "--mu", "1", "--L", "1"], "no real-split coordinate: "),
    ], ids=["cosine", "tmm-witness"])
    def test_no_witness_fails(self, tmp_path, capsys, argv, line):
        rc = main(["scenario", *argv, "--out", str(tmp_path / "art")])
        out = capsys.readouterr().out
        assert rc == 1
        assert any(ln.startswith(line) for ln in out.splitlines())
        assert "verdict violation_found: FAIL\n" in out

    def test_unknown_scenario(self, tmp_path, capsys):
        rc = main(["scenario", "nope", "--out", str(tmp_path / "art")])
        assert rc == 2
        known = ", ".join(sorted(SCENARIOS))
        assert capsys.readouterr().err == f"error: unknown scenario 'nope' (known: {known})\n"
        assert os.listdir(tmp_path) == []

    def test_missing_name(self, capsys):
        rc = main(["scenario"])
        assert rc == 2
        assert "missing scenario name" in capsys.readouterr().err


SUFFIX = "; V is not positive definite here and bounds no distance"

# the three runs every printer of a judged run is shown, from one start at
# distance 10 on one quadratic (dim 6, spectrum [1, 100], seed 0): tuned HB
# (eligible, converges), tuned TMM (not eligible, converges) and HB at
# spectral radius 1.68 (diverges); V bounds the distance along the first only
JUDGED = {
    "eligible": (optimal_hyperparams(HB, 1.0, 100.0), ["--method", "hb", "--optimal"]),
    "ineligible": (optimal_hyperparams(TMM, 1.0, 100.0), ["--method", "tmm", "--optimal"]),
    "diverged": (MethodSpec(HB, alpha=0.03, beta=0.2),
                 ["--method", "hb", "--alpha", "0.03", "--beta", "0.2"]),
}
SIZE = ["--dim", "6", "--mu", "1", "--L", "100", "--iters", "300"]


class TestOneVerdictWording:
    """Every line that words a judged run's verdict ends in ``SUFFIX`` exactly
    when V bounds no distance along the run: the run diverged, or its
    certificate is not eligible.  The objective runner and the TMM witness
    cannot make all three runs themselves, so each is handed them."""

    @staticmethod
    def verdict_line(printer, flags, tr, tmp_path, capsys, monkeypatch) -> str:
        """The verdict line ``printer`` prints of the run made by ``flags``,
        which is ``tr``."""
        csv, art = str(tmp_path / "t.csv"), str(tmp_path / "art")
        if printer in ("run", "check"):
            main(["run", *flags, *SIZE, "--out", csv])
            if printer == "check":
                capsys.readouterr()
                main(["check", csv])
        elif printer == "quadratic":
            main(["scenario", "quadratic", *flags, *SIZE, "--out", art])
        elif printer == "objective":
            monkeypatch.setattr(scenarios, "_run_traces", lambda *args, **kw: iter([tr]))
            main(["scenario", "rosenbrock", "--method", tr.run[1].kind, "--out", art])
        else:
            monkeypatch.setattr(scenarios, "find_tmm_witness", lambda *args: (
                0, tr, check_monotone(tr.lyapunov_series())))
            main(["scenario", "tmm-witness", "--dim", "6", "--L", "100", "--out", art])
        [line] = [ln for ln in capsys.readouterr().out.splitlines()
                  if "monotone decrease: " in ln]
        return line

    @pytest.mark.parametrize("case", sorted(JUDGED))
    @pytest.mark.parametrize("printer", ["run", "check", "quadratic", "objective", "witness"])
    def test_suffix_exactly_when_v_bounds_nothing(self, tmp_path, capsys, monkeypatch,
                                                  printer, case):
        spec, flags = JUDGED[case]
        problem = generate_quadratic(6, 1.0, 100.0, 0)
        tr = run_trace(problem, spec, _x0(problem.minimizer, 10.0, 0), 300)
        assert (tr.certificate.eligible, tr.diverged) == {
            "eligible": (True, False), "ineligible": (False, False),
            "diverged": (False, True)}[case]
        line = self.verdict_line(printer, flags, tr, tmp_path, capsys, monkeypatch)
        # a CSV carries no certificate: check knows of divergence alone
        bounds = case == "eligible" or (printer == "check" and case == "ineligible")
        assert line.count(SUFFIX) == (not bounds)
        assert line.endswith(SUFFIX) == (not bounds)

    def test_each_wording_is_spelled_once(self):
        src = pathlib.Path(scenarios.__file__).parent
        text = "".join(f.read_text(encoding="utf-8") for f in sorted(src.glob("*.py")))
        assert text.count("bounds no distance") == 1
        assert text.count("(excess ") == 1
        assert "first violation" not in text


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["scenario", "nonoptimal", "--dim", "0", "--iters", "0"],
        ["scenario", "nonoptimal", "--iters", "2"],
        ["analyze", "--method", "hb", "--optimal", "--mu", "1", "--L", "10",
         "--dim", "-3"],
        ["run", "--method", "hb", "--optimal", "--iters", "0", "--out", "t.csv"],
        ["generate", "--dim", "0", "--out", "p.npz"],
        ["generate", "--dim", "two", "--out", "p.npz"],
    ])
    def test_out_of_range_flag_is_usage_error(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["+-5", "-+5", "++5", "--5"])
    def test_one_sign_at_most(self, tmp_path, capsys, value):
        # the value is named, not met by int() as an invalid literal
        with pytest.raises(SystemExit) as exc:
            main(["generate", f"--dim={value}", "--out", str(tmp_path / "p.npz")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --dim: dim must be an integer >= 1, got {value!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["-3", "+-3", "1.5", "x"])
    def test_seed_is_named(self, tmp_path, capsys, value):
        # a negative seed is refused here, not by numpy without the flag's name
        with pytest.raises(SystemExit) as exc:
            main(["generate", f"--seed={value}", "--out", str(tmp_path / "p.npz")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --seed: seed must be an integer >= 0, got {value!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_seed_config_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("seed = -3\n", encoding="utf-8")
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "p.npz")])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got '-3'\n"
        assert sorted(os.listdir(tmp_path)) == ["g.cfg"]

    def test_one_sign_is_read(self, tmp_path, capsys):
        assert main(["generate", "--dim=+3", "--out", str(tmp_path / "p.npz")]) == 0
        assert load_problem(tmp_path / "p.npz").dim == 3

    @pytest.mark.parametrize("body,message", [
        ("dim = 0\n", "dim must be an integer >= 1, got '0'"),
        ("iters = 2\n", "iters must be an integer >= 3, got '2'"),
        ("dim = 2.5\n", "dim must be an integer >= 1, got '2.5'"),
        ("dim = +-5\n", "dim must be an integer >= 1, got '+-5'"),
        ("iters = -+5\n", "iters must be an integer >= 3, got '-+5'"),
        ("seed = -3\n", "seed must be an integer >= 0, got '-3'"),
    ])
    def test_out_of_range_config_is_usage_error(self, tmp_path, capsys, body, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'art'}\n" + body, encoding="utf-8")
        rc = main(["scenario", "nonoptimal", "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "art").exists()


class TestConfigFile:
    def write_config(self, tmp_path, body):
        path = tmp_path / "run.cfg"
        path.write_text(body, encoding="utf-8")
        return str(path)

    def test_config_supplies_flags(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, (
            "# analyze settings\n"
            "method = nag\n"
            "optimal = true\n"
            "mu = 1\n"
            "L = 9\n"
        ))
        rc = main(["analyze", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        # tuned NAG on [1, 9] certifies radius 2/3
        assert "spectral_radius: 0.6666" in out

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, (
            "method = nag\noptimal = true\nmu = 1\nL = 9\n"))
        rc = main(["analyze", "--config", cfg, "--method", "hb"])
        out = capsys.readouterr().out
        assert rc == 0
        # tuned HB on [1, 9] certifies radius 1/2 instead
        assert "spectral_radius: 0.5" in out
        assert "spectral_radius: 0.6666" not in out

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        body = "method = nag\noptimal = true\nmu = 1\nL = 9\n"
        plain = self.write_config(tmp_path, body)
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
        assert main(["analyze", "--config", plain]) == 0
        want = capsys.readouterr()
        assert main(["analyze", "--config", str(marked)]) == 0
        assert capsys.readouterr() == want

    def test_config_before_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, (
            "method = nag\noptimal = true\nmu = 1\nL = 9\n"))
        rc = main(["--config", cfg, "analyze"])
        assert rc == 0
        assert "spectral_radius: 0.6666" in capsys.readouterr().out

    def test_scenario_name_from_config(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, (
            f"scenario = nonoptimal\ndim = 4\niters = 150\n"
            f"out = {tmp_path / 'art'}\n"))
        rc = main(["scenario", "--config", cfg])
        assert rc == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_config_parse_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "what is this\n")
        rc = main(["analyze", "--config", cfg])
        assert rc == 1
        assert "expected 'key = value'" in capsys.readouterr().err

    # one sample per flag: config text and the value the flag must read
    EVERY_KEY = {
        "dim": ("7", 7), "mu": ("0.5", 0.5), "L": ("12", 12.0),
        "method": ("nag-gs", "NAGGS"), "alpha": ("0.25", 0.25),
        "beta": ("0.75", 0.75), "gamma": ("0.125", 0.125),
        "optimal": ("false", False), "iters": ("30", 30), "seed": ("5", 5),
        "out": ("o.csv", "o.csv"), "x0-scale": ("2.5", 2.5),
        "tolerance": ("1e-6", 1e-6), "problem": ("p.npz", "p.npz"),
    }

    def test_config_reads_every_flag(self, tmp_path):
        assert set(self.EVERY_KEY) == set(cli._FLAGS)
        config = parse_config_file(self.write_config(tmp_path, "".join(
            f"{key} = {text}\n" for key, (text, _) in self.EVERY_KEY.items())))
        args = build_parser().parse_args(["analyze"])
        for key, (_, expected) in self.EVERY_KEY.items():
            got = cli._merged(args, config, key)
            assert got == expected and type(got) is type(expected), key
        assert cli._merged(args, {"optimal": "yes"}, "optimal") is True
        # on the command line the switch takes no value
        assert build_parser().parse_args(["analyze", "--optimal"]).optimal is True

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "method = sgd\nmu = 1\nL = 9\noptimal = yes\n")
        rc = main(["analyze", "--config", cfg])
        assert rc == 2
        assert "unknown method" in capsys.readouterr().err

    def test_boolean_key_needs_a_boolean(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "method = hb\noptimal = maybe\n")
        assert main(["analyze", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: expected a boolean, got 'maybe'\n"
        assert captured.out == ""

    def test_repeated_key_is_refused(self, tmp_path, capsys):
        # not run with the last value
        cfg = self.write_config(tmp_path, "dim = 5\n# again\n dim=7\n")
        out = tmp_path / "p.npz"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {cfg}:3: key 'dim' given twice\n"
        assert captured.out == "" and not out.exists()


# (command, key) pairs of every flag against every subcommand's row
TABLE_PAIRS = [(name, key) for name in cli.COMMANDS for key in cli._FLAGS]
UNREAD_KEYS = [(n, k) for n, k in TABLE_PAIRS if k not in cli.COMMANDS[n][2]]
READ_KEYS = [(n, k) for n, k in TABLE_PAIRS if k in cli.COMMANDS[n][2]]


class TestCommandTable:
    """``COMMANDS`` is the one list of each subcommand's options: it builds
    the parser, and a config key outside a row is refused before anything
    runs, as a flag outside it is."""

    write_config = TestConfigFile.write_config
    EVERY_KEY = TestConfigFile.EVERY_KEY

    def test_pair_counts(self):
        counts = {name: sum(n == name for n, _ in UNREAD_KEYS) for name in cli.COMMANDS}
        assert counts == {"generate": 9, "analyze": 3, "run": 1, "scenario": 2, "check": 14}
        assert len(READ_KEYS) == 41

    def test_parser_is_built_once(self):
        # one parser serves every call in a process, and a parse leaves no
        # value behind for the next one
        assert build_parser() is build_parser()
        assert build_parser().parse_args(["run", "--dim", "3"]).dim == 3
        assert build_parser().parse_args(["run"]).dim is None

    @pytest.mark.parametrize("name,key", UNREAD_KEYS, ids=[f"{n}-{k}" for n, k in UNREAD_KEYS])
    def test_unread_key_is_refused(self, tmp_path, capsys, name, key):
        out = tmp_path / "out"
        trace = tmp_path / "t.csv"
        trace.write_text(VIOLATING_CSV, encoding="utf-8")
        argv = {"generate": ["generate", "--out", str(out)],
                "analyze": ["analyze", "--method", "hb", "--optimal", "--mu", "1",
                            "--L", "4", "--out", str(out)],
                "run": ["run", "--method", "hb", "--optimal", "--dim", "3", "--iters", "10",
                        "--out", str(out)],
                "scenario": ["scenario", "nonoptimal", "--dim", "3", "--iters", "10",
                             "--out", str(out)],
                "check": ["check", str(trace)]}[name]
        cfg = self.write_config(tmp_path, f"{key} = {self.EVERY_KEY[key][0]}\n")
        assert main([*argv, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {name} does not read config key {key}\n"
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["run.cfg", "t.csv"]

    @pytest.mark.parametrize("name,key", READ_KEYS, ids=[f"{n}-{k}" for n, k in READ_KEYS])
    def test_read_key_reaches_the_handler(self, tmp_path, monkeypatch, name, key):
        seen = []
        _, positional, row = cli.COMMANDS[name]
        monkeypatch.setitem(cli.COMMANDS, name, (seen.append, positional, row))
        text, expected = self.EVERY_KEY[key]
        assert main([name, "--config", self.write_config(tmp_path, f"{key} = {text}\n")]) is None
        assert seen[0][key] == expected and type(seen[0][key]) is type(expected)
        assert {k: v for k, v in seen[0].items() if k not in (key, positional)} == \
            {k: v for k, v in row.items() if k != key}

    def test_positional_keys(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "trace = t.csv\n")
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: run does not read config key trace\n"
        cfg = self.write_config(tmp_path, "scenario = fig1\ntrace = t.csv\nitres = 7\n")
        assert main(["check", "--config", cfg]) == 2
        assert capsys.readouterr().err == \
            "error: check does not read config keys scenario, itres\n"

    def test_typo_in_scenario_config(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "itres = 7\n")
        out = tmp_path / "art"
        assert main(["scenario", "nonoptimal", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: scenario does not read config key itres\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_help_lists_the_row(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        listed = re.findall(r"^  (--[\w-]+)", text, re.M)
        assert listed == ["--config", *(f"--{key}" for key in cli.COMMANDS[name][2])]
        assert cli.COMMANDS[name][0].__doc__ in text

    @pytest.mark.parametrize("command", ["run", "analyze"])
    @pytest.mark.parametrize("given", [("dim",), ("mu",), ("L",), ("dim", "mu", "L")])
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_problem_conflicts_with_its_shape(self, tmp_path, capsys, command, given, source):
        # refused before the file is read: it does not exist
        out = tmp_path / "out.csv"
        argv = [command, "--method", "hb", "--optimal", "--problem",
                str(tmp_path / "missing.npz"), "--out", str(out)]
        settings = {"dim": "9", "mu": "3", "L": "77"}
        if source == "flags":
            for key in given:
                argv += [f"--{key}", settings[key]]
        else:
            argv += ["--config", self.write_config(
                tmp_path, "".join(f"{k} = {settings[k]}\n" for k in given))]
        assert main(argv) == 2
        captured = capsys.readouterr()
        flags = ", ".join(f"--{k}" for k in given)
        assert captured.err == f"error: --problem conflicts with {flags}\n"
        assert captured.out == "" and not out.exists()


class _HalfWrites:
    """A text handle that writes half of what it is given, then fails as a
    full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _half_writes(module, monkeypatch):
    real = module.whole_file

    @contextlib.contextmanager
    def whole_file(path):
        with real(path) as fh:
            yield _HalfWrites(fh)

    monkeypatch.setattr(module, "whole_file", whole_file)


class TestTextArtifactsWholeOrNot:
    """``analyze --out`` and a scenario's certificate and report files go
    through the one writer: a write that fails part way leaves no file, and
    an existing file as it was."""

    @pytest.mark.parametrize("existing", [None, b"old contents\n"])
    def test_analyze_out(self, tmp_path, capsys, monkeypatch, existing):
        _half_writes(cli, monkeypatch)
        out = tmp_path / "c.csv"
        if existing is not None:
            out.write_bytes(existing)
        rc = main(["analyze", "--method", "hb", "--optimal", "--mu", "1", "--L", "4",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: [Errno {errno.ENOSPC}] " \
                               f"{os.strerror(errno.ENOSPC)}: {str(out)!r}\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == ([] if existing is None else ["c.csv"])
        if existing is not None:
            assert out.read_bytes() == existing

    @pytest.mark.parametrize("existing", [None, b"old contents\n"])
    def test_scenario_certificate(self, tmp_path, capsys, monkeypatch, existing):
        _half_writes(importlib.import_module("lyapcert.scenarios"), monkeypatch)
        art = tmp_path / "art"
        cert = art / "nonoptimal_hb_certificate.csv"
        if existing is not None:
            art.mkdir()
            cert.write_bytes(existing)
        rc = main(["scenario", "nonoptimal", "--dim", "3", "--iters", "10",
                   "--out", str(art)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: [Errno {errno.ENOSPC}] " \
                               f"{os.strerror(errno.ENOSPC)}: {str(cert)!r}\n"
        # the traces were written before the first certificate, nothing after
        left = sorted(os.listdir(art))
        assert left == sorted([f"nonoptimal_{k}_trace.csv" for k in ("hb", "nag", "tmm", "naggs")]
                              + ([] if existing is None else [cert.name]))
        if existing is not None:
            assert cert.read_bytes() == existing


class TestInstalledEntryPoint:
    def test_help_via_subprocess(self):
        exe = shutil.which("lyapcert")
        cmd = [exe, "--help"] if exe else [sys.executable, "-m", "lyapcert.cli", "--help"]
        # the child imports the package under test, installed or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        for word in ("generate", "analyze", "run", "scenario", "check"):
            assert word in proc.stdout
