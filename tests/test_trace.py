import numpy as np
import pytest

from lyapcert import (HB, KINDS, NAG, NAGGS, TMM, MethodSpec, Objective,
                      check_monotone, coefficient_arrays, export_csv,
                      generate_quadratic, optimal_hyperparams,
                      per_coordinate_V, read_trace_csv, run_trace,
                      series_from_csv, vector_V)


def offset_start(p, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return p.minimizer + scale * rng.standard_normal(p.dim)


class TestRunTraceQuadratic:
    def test_optimal_hb_contracts_to_the_floor(self):
        p = generate_quadratic(10, 1.0, 4.0, seed=0)
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        tr = run_trace(p, spec, offset_start(p), 200)
        assert len(tr) == 200
        assert not tr.diverged
        series = tr.lyapunov_series()
        assert check_monotone(series).monotone
        v2 = tr.lyapunov[2]
        assert v2 > 0
        assert tr.lyapunov[199] <= v2 * (1.0 / 9.0 + 1e-3) ** 190

    def test_exact_gradient_step_hits_minimizer(self):
        p = generate_quadratic(1, 1.0, 1.0, seed=0)
        spec = MethodSpec(HB, alpha=1.0, beta=0.0)
        tr = run_trace(p, spec, p.minimizer + np.array([2.0]), 10)
        assert np.allclose(tr.iterates[1], p.minimizer, atol=1e-12)
        assert np.allclose(tr.distance[1:], 0.0, atol=1e-12)
        assert np.allclose(tr.objective_gap[1:], 0.0, atol=1e-12)
        assert np.allclose(tr.lyapunov[2:], 0.0, atol=1e-24)

    def test_start_at_minimizer_stays_there(self):
        p = generate_quadratic(5, 1.0, 10.0, seed=1)
        spec = optimal_hyperparams(NAG, 1.0, 10.0)
        tr = run_trace(p, spec, p.minimizer.copy(), 8)
        assert np.allclose(tr.iterates, np.tile(p.minimizer, (8, 1)), atol=1e-12)
        assert np.allclose(tr.distance, 0.0)
        assert np.allclose(tr.lyapunov[2:], 0.0)

    def test_requires_three_iterates(self):
        p = generate_quadratic(3, 1.0, 4.0, seed=0)
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        with pytest.raises(ValueError):
            run_trace(p, spec, offset_start(p), 2)

    def test_divergence_stops_and_flags(self):
        p = generate_quadratic(2, 1.0, 4.0, seed=0)
        spec = MethodSpec(HB, alpha=3.0, beta=0.5)
        tr = run_trace(p, spec, offset_start(p), 500)
        assert tr.diverged
        assert len(tr) < 500
        assert tr.distance[-1] > 1e12

    def test_overflow_raises(self):
        p = generate_quadratic(2, 1.0, 4.0, seed=0)
        spec = MethodSpec(HB, alpha=1e303, beta=0.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                run_trace(p, spec, p.minimizer + np.full(2, 1e8), 10)

    def test_wrong_start_dimension(self):
        p = generate_quadratic(4, 1.0, 4.0, seed=0)
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        with pytest.raises(ValueError):
            run_trace(p, spec, np.zeros(3), 10)

    def test_explicit_second_iterate(self):
        p = generate_quadratic(4, 1.0, 4.0, seed=0)
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        x0 = offset_start(p, seed=5)
        x1 = offset_start(p, seed=6)
        tr = run_trace(p, spec, x0, 20, x1=x1)
        assert np.allclose(tr.iterates[0], x0, atol=1e-10)
        assert np.allclose(tr.iterates[1], x1, atol=1e-10)
        with pytest.raises(ValueError):
            run_trace(p, spec, x0, 20, x1=np.zeros(3))

    def test_v_floor_stops_early(self):
        p = generate_quadratic(6, 1.0, 4.0, seed=2)
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        tr = run_trace(p, spec, offset_start(p, scale=10.0), 2000, v_floor=1e-6)
        assert len(tr) < 2000
        assert tr.lyapunov[-1] < 1e-6
        assert np.nanmin(tr.lyapunov[:-1]) >= 1e-6

    def test_descriptor_records_the_run(self):
        p = generate_quadratic(4, 1.0, 4.0, seed=0)
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        tr = run_trace(p, spec, offset_start(p), 10, seed=99)
        assert tr.descriptor["kind"] == "quadratic"
        assert tr.descriptor["dim"] == 4
        assert tr.descriptor["mu"] == 1.0
        assert tr.descriptor["L"] == 4.0
        assert tr.seed == 99


class TestRunTraceObjective:
    def test_rejects_objective_without_minimizer(self):
        obj = Objective(dim=1, value=lambda x: float(x[0] ** 2),
                        gradient=lambda x: 2.0 * x)
        spec = MethodSpec(HB, alpha=0.1, beta=0.1)
        with pytest.raises(ValueError, match="minimizer"):
            run_trace(obj, spec, np.array([1.0]), 10)

    @pytest.mark.parametrize("kind,params", [
        (HB, dict(alpha=0.15, beta=0.5)),
        (NAG, dict(alpha=0.1, beta=0.6)),
        (TMM, dict(alpha=0.15, beta=0.5, gamma=0.05)),
        (NAGGS, dict(alpha=0.5, beta=0.6)),
    ])
    def test_oracle_engine_matches_eigenbasis_engine(self, kind, params):
        p = generate_quadratic(6, 1.0, 10.0, seed=4)
        spec = MethodSpec(kind, **params)
        x0 = offset_start(p, seed=7)
        for x1 in (None, offset_start(p, seed=8)):
            tr_q = run_trace(p, spec, x0, 30, x1=x1)
            tr_o = run_trace(p.as_objective(), spec, x0, 30, x1=x1)
            assert tr_o.descriptor["kind"] == "objective"
            assert np.max(np.abs(tr_q.iterates - tr_o.iterates)) <= 1e-8
            assert np.max(np.abs(tr_q.distance - tr_o.distance)) <= 1e-8

    def test_objective_divergence_flags(self):
        p = generate_quadratic(2, 1.0, 4.0, seed=0)
        spec = MethodSpec(HB, alpha=3.0, beta=0.5)
        tr = run_trace(p.as_objective(), spec, offset_start(p), 500)
        assert tr.diverged
        assert len(tr) < 500


class TestMetricsPassBitIdentity:
    """The vectorized metrics equal a per-row reference to the last bit, so
    engine edits cannot silently change exported CSV bytes."""

    @staticmethod
    def eigen_rows(p, spec, x0, x1, n):
        a, b = coefficient_arrays(spec, p.eigvals)
        q, xs = p.eigvecs, p.minimizer
        prev = cur = q.T @ (x0 - xs)
        rows = [cur]
        if x1 is not None:
            cur = q.T @ (x1 - xs)
            rows.append(cur)
        while len(rows) < n:
            cur, prev = a * cur + b * prev, cur
            rows.append(cur)
        return rows

    def assert_matches(self, tr, gaps, rows, v_of):
        n = len(tr)
        dists = [float(np.linalg.norm(z)) for z in rows]
        lyap = [np.nan, np.nan] + [v_of(k) for k in range(2, n)]
        assert np.array_equal(tr.objective_gap, np.array(gaps))
        assert np.array_equal(tr.distance, np.array(dists))
        assert np.array_equal(tr.lyapunov, np.array(lyap), equal_nan=True)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("variant", ["equal", "x1", "v_floor"])
    def test_quadratic(self, kind, variant):
        p = generate_quadratic(37, 1.0, 50.0, seed=3)
        spec = optimal_hyperparams(kind, 1.0, 50.0)
        x0 = offset_start(p, seed=1, scale=3.0)
        x1 = offset_start(p, seed=2, scale=3.0) if variant == "x1" else None
        v_floor = 1e-6 if variant == "v_floor" else None
        tr = run_trace(p, spec, x0, 400, x1=x1, v_floor=v_floor)
        if v_floor is not None:
            assert len(tr) < 400 and tr.lyapunov[-1] < v_floor
        z = self.eigen_rows(p, spec, x0, x1, len(tr))
        gaps = [0.5 * float(np.sum(p.eigvals * r * r)) for r in z]
        self.assert_matches(tr, gaps, z, lambda k: float(np.sum(
            per_coordinate_V(z[k], z[k - 1], z[k - 2]))))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("variant", ["equal", "x1", "v_floor"])
    def test_objective(self, kind, variant):
        p = generate_quadratic(5, 1.0, 10.0, seed=5)
        obj = p.as_objective()
        spec = MethodSpec(kind, alpha=0.1, beta=0.5, gamma=0.05 if kind == TMM else 0.0)
        x0 = offset_start(p, seed=1)
        x1 = offset_start(p, seed=2) if variant == "x1" else None
        v_floor = 1e-8 if variant == "v_floor" else None
        tr = run_trace(obj, spec, x0, 300, x1=x1, v_floor=v_floor)
        if v_floor is not None:
            assert len(tr) < 300 and tr.lyapunov[-1] < v_floor
        x, xs = tr.iterates, p.minimizer
        f_star = float(obj.value(xs))
        gaps = [float(obj.value(r)) - f_star for r in x]
        self.assert_matches(tr, gaps, [r - xs for r in x], lambda k: vector_V(
            x[k], x[k - 1], x[k - 2], xs))


class TestLyapunovSeriesAccess:
    def test_strips_undefined_prefix(self):
        p = generate_quadratic(3, 1.0, 4.0, seed=0)
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        tr = run_trace(p, spec, offset_start(p), 3)
        series = tr.lyapunov_series()
        assert series.values.shape == (1,)
        assert series.start_index == 2
        assert not np.any(np.isnan(series.values))


class TestCsvRoundTrip:
    def make_trace(self, iters=40):
        p = generate_quadratic(5, 1.0, 4.0, seed=8)
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        return run_trace(p, spec, offset_start(p, seed=8), iters)

    def test_header_and_empty_cells(self, tmp_path):
        tr = self.make_trace(iters=3)
        path = tmp_path / "t.csv"
        export_csv(tr, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iter,objective_gap,distance,lyapunov"
        assert len(lines) == 4
        assert lines[1].startswith("0,") and lines[1].endswith(",")
        assert lines[2].startswith("1,") and lines[2].endswith(",")
        assert not lines[3].endswith(",")

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        export_csv(self.make_trace(), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_round_trip_is_exact(self, tmp_path):
        tr = self.make_trace()
        path = tmp_path / "t.csv"
        export_csv(tr, path)
        data = read_trace_csv(path)
        assert np.array_equal(data["objective_gap"], tr.objective_gap)
        assert np.array_equal(data["distance"], tr.distance)
        assert np.array_equal(data["lyapunov"], tr.lyapunov, equal_nan=True)

    def test_series_from_csv_matches_live_verdict(self, tmp_path):
        tr = self.make_trace()
        path = tmp_path / "t.csv"
        export_csv(tr, path)
        on_disk = check_monotone(series_from_csv(path))
        live = check_monotone(tr.lyapunov_series())
        assert on_disk.monotone == live.monotone
        assert series_from_csv(path).start_index == 2

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(self.make_trace(), p1)
        export_csv(self.make_trace(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_trace_csv(path)
