"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q lyapbench
"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import lyapcert.cli  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from lyapcert.problems import generate_quadratic  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_subtracts_only_direct_children():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tr.wrap("leaf", lambda: None)
    mid = tr.wrap("mid", lambda: (leaf(), leaf()))
    top = tr.wrap("top", lambda: (mid(), leaf()))
    top()
    # clock reads: top 0, mid 1, leaf 2-3, leaf 4-5, mid ends 6, leaf 7-8, top ends 9
    by_name = {}
    for s, self_s in zip(tr.spans, tracing.self_times(tr.spans)):
        by_name.setdefault(s.name, []).append(self_s)
    assert by_name["leaf"] == [1.0, 1.0, 1.0]
    assert by_name["mid"] == [3.0]   # 5 long, minus two 1-tick leaves
    assert by_name["top"] == [3.0]   # 9 long, minus mid (5) and one leaf (1)
    assert [s.parent for s in tr.spans] == [None, 0, 1, 1, 0]


def test_span_records_exceptions_and_unwinds():
    tr = tracing.Tracer()

    def boom():
        raise ValueError("x")
    wrapped = tr.wrap("problems.load_problem", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tr.stack == []
    assert tracing.layer_metrics(tr.spans)["problems.load_problem.errors"] == 1


def test_metric_names_are_valid_and_match_benchmark_json():
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WHY)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == tracing.metric_units()
    assert set(tracing.layer_metrics([])) == set(per_layer)


def test_traced_cli_call_reports_layer_counts(tmp_path, monkeypatch):
    for mod in (lyapcert.cli, lyapcert.scenarios):
        for k, v in list(vars(mod).items()):
            if callable(v):
                monkeypatch.setattr(mod, k, v)  # restored after the test
    tr = tracing.Tracer()
    tracing.install(tr, lyapcert.cli, lyapcert.scenarios, lyapcert.QuadraticProblem)
    out = str(tmp_path / "t.csv")
    code = lyapcert.cli.main(["run", "--method", "nag", "--optimal", "--dim", "4",
                              "--mu", "1", "--L", "10", "--iters", "30", "--out", out])
    assert code == 0
    m = tracing.layer_metrics(tr.spans)
    assert m["trace.run_quadratic.calls"] == 1
    assert m["trace.run_quadratic.coord_steps"] == 30 * 4
    assert m["trace.export_csv.rows"] == 30
    assert m["trace.export_csv.bytes"] == os.path.getsize(out)
    assert m["problems.generate_quadratic.coords"] == 4
    assert m["trace.run_objective.calls"] == 0


def _tiny_ops(tmp_path, expect_exit=0):
    csv_path = str(tmp_path / "hb.csv")
    run = workloads.Op("run:HB", ["run", "--method", "hb", "--optimal", "--dim", "3",
                                  "--mu", "1", "--L", "10", "--iters", "20",
                                  "--out", csv_path], expect_exit)
    check = workloads.Op("check:HB", ["check", csv_path], 0,
                         lambda tail: workloads._expect_in(tail, "monotone decrease: yes"))
    return [run, check]


def test_expected_outcomes_pass_and_injected_wrong_exit_code_fails(tmp_path):
    sink, err = worker.Sink(), worker.Sink()
    ops = _tiny_ops(tmp_path)
    outcomes = worker.judge(ops, worker.run_ops(ops, lyapcert.cli.main, sink, err))
    assert [o["ok"] for o in outcomes] == [True, True]

    ops = _tiny_ops(tmp_path, expect_exit=1)
    outcomes = worker.judge(ops, worker.run_ops(ops, lyapcert.cli.main, sink, err))
    failed = sum(not o["ok"] for o in outcomes)
    assert failed / len(outcomes) == 0.5
    assert "expected 1" in outcomes[0]["error"]


def _tiny_run(tmp_path, kind="NAG", seed=3, dim=6, iters=60, scale=10.0):
    path = str(tmp_path / "run.csv")
    code = lyapcert.cli.main(["run", "--method", kind.lower(), "--optimal",
                              "--dim", str(dim), "--mu", "1", "--L", "100",
                              "--iters", str(iters), "--seed", str(seed),
                              "--x0-scale", str(scale), "--out", path])
    assert code == 0
    rows = workloads._csv_rows(path)
    gap = [float(r[1]) for r in rows]
    v = np.array([float(r[3]) if r[3] else np.nan for r in rows])
    p = generate_quadratic(dim, 1.0, 100.0, seed)
    gap0, exact = workloads.exact_run(kind, p.eigvals, p.eigvecs, p.minimizer,
                                      seed, scale, iters)
    return gap, v, gap0, exact


@pytest.mark.parametrize("kind", workloads.METHODS)
def test_v_law_residual_is_roundoff_on_the_real_engine(tmp_path, kind):
    gap, v, gap0, exact = _tiny_run(tmp_path, kind)
    assert workloads.v_law_residual(gap, v, gap0, exact) < 1e-13


def test_v_perturbed_by_1e_6_of_v2_is_caught(tmp_path):
    gap, v, gap0, exact = _tiny_run(tmp_path)
    v = v.copy()
    v[30] += 1e-6 * exact[0]
    res = workloads.v_law_residual(gap, v, gap0, exact)
    assert res > workloads.V_LAW_TOLERANCE
    assert res == pytest.approx(1e-6, rel=1e-3)


def test_start_recipe_drift_is_a_failure_not_a_residual(tmp_path):
    gap, v, gap0, exact = _tiny_run(tmp_path, scale=10.0)
    _, _, gap0_other, _ = _tiny_run(tmp_path, scale=9.0)
    with pytest.raises(workloads.CheckError, match="row-0"):
        workloads.v_law_residual(gap, v, gap0_other, exact)


def test_workload_op_counts_and_expected_exits():
    counts = {w: workloads.build(w, 0, "out") for w in workloads.WHY}
    assert {w: len(ops) for w, ops in counts.items()} == \
        {"scenarios": 8, "long-trace": 8, "certify": 9}
    exits = {op.name: op.expect_exit for op in counts["certify"]}
    assert exits["analyze-grid:TMM"] == exits["analyze-problem:TMM"] == 1
    assert sum(exits.values()) == 2
    assert all(op.expect_exit == 0 for op in counts["long-trace"])
    assert all(callable(op.expect_exit) for op in counts["scenarios"])


def _fig1_dir(tmp_path, verdicts, distance):
    d = tmp_path / "fig1"
    d.mkdir(parents=True)
    lines = [f"verdict {k}: {v}" for k, v in verdicts.items()]
    (d / "fig1_report.txt").write_text("scenario: fig1\n" + "\n".join(lines) + "\n")
    rows = "".join(f"{k},1,{x!r},\n" for k, x in enumerate(distance))
    (d / "fig1_nag_trace.csv").write_text("iter,objective_gap,distance,lyapunov\n" + rows)
    return str(d)


def test_fig1_distance_verdict_may_fail_only_when_the_trace_agrees(tmp_path):
    ok = {"nag_V_monotone": "PASS", "nag_distance_has_increase": "PASS"}
    assert workloads._scenario_expected_exit(
        _fig1_dir(tmp_path / "a", ok, [3.0, 1.0, 2.0]), "fig1") == 0
    rightly_failed = dict(ok, nag_distance_has_increase="FAIL")
    assert workloads._scenario_expected_exit(
        _fig1_dir(tmp_path / "b", rightly_failed, [3.0, 2.0, 1.0]), "fig1") == 1
    with pytest.raises(workloads.CheckError, match="the trace says PASS"):
        workloads._scenario_expected_exit(
            _fig1_dir(tmp_path / "c", rightly_failed, [3.0, 1.0, 2.0]), "fig1")
    with pytest.raises(workloads.CheckError, match="nag_V_monotone: FAIL"):
        workloads._scenario_expected_exit(
            _fig1_dir(tmp_path / "d", dict(ok, nag_V_monotone="FAIL"), [3.0, 1.0, 2.0]),
            "fig1")
