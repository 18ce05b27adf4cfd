import gc
import math
import os
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lyapcert import trace as trace_module
from lyapcert.methods import _family
from lyapcert import (HB, KINDS, NAG, NAGGS, TMM, MethodSpec, Objective,
                      QuadraticProblem, analyze, coefficient_arrays,
                      cosine_counterexample, exp_norm_objective, export_csv,
                      find_tmm_witness, generate_quadratic, optimal_hyperparams,
                      rosenbrock_objective, run_trace)
from conftest import peak_bytes, random_eligible_coeffs
from reference import (check_monotone, eigenvalues, family_step, per_coordinate_V,
                       quadratic_objective, read_trace_csv, report_bits, row_dot, schur,
                       trace_iterates, trace_rows, vector_V)


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
        assert tr.report.monotone
        v2 = tr.lyapunov[2]
        assert v2 > 0
        assert tr.lyapunov[199] <= v2 * (1.0 / 9.0 + 1e-3) ** 190

    def test_exact_gradient_step_hits_minimizer(self):
        p = generate_quadratic(1, 1.0, 1.0, seed=0)
        spec = MethodSpec(HB, alpha=1.0, beta=0.0)
        x0 = p.minimizer + np.array([2.0])
        tr = run_trace(p, spec, x0, 10)
        assert np.allclose(trace_iterates(p, spec, x0, 10)[1], p.minimizer, atol=1e-12)
        assert np.allclose(tr.distance[1:], 0.0, atol=1e-12)
        assert np.allclose(tr.objective_gap[1:], 0.0, atol=1e-12)
        assert np.allclose(tr.lyapunov[2:], 0.0, atol=1e-24)

    def test_start_at_minimizer_stays_there(self):
        p = generate_quadratic(5, 1.0, 10.0, seed=1)
        spec = optimal_hyperparams(NAG, 1.0, 10.0)
        tr = run_trace(p, spec, p.minimizer, 8)
        assert np.allclose(trace_iterates(p, spec, p.minimizer, 8), np.tile(p.minimizer, (8, 1)),
                           atol=1e-12)
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
        x = trace_iterates(p, spec, x0, 20, x1=x1)
        assert np.allclose(x[0], x0, atol=1e-10)
        assert np.allclose(x[1], x1, atol=1e-10)
        with pytest.raises(ValueError):
            run_trace(p, spec, x0, 20, x1=np.zeros(3))

    def test_takes_no_v_floor(self):
        # a run stops at divergence or at its iters-th row, nowhere else
        p = generate_quadratic(6, 1.0, 4.0, seed=2)
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        x0 = offset_start(p, scale=10.0)
        with pytest.raises(TypeError, match="v_floor"):
            run_trace(p, spec, x0, 2000, v_floor=1e-6)
        tr = run_trace(p, spec, x0, 2000)
        assert len(tr) == 2000


class TestRunTraceObjective:
    def test_rejects_objective_without_minimizer(self):
        obj = Objective(dim=1, value=lambda x: x[..., 0] ** 2, gradient=lambda x: 2.0 * x)
        spec = MethodSpec(HB, alpha=0.1, beta=0.1)
        with pytest.raises(ValueError, match="minimizer"):
            run_trace(obj, spec, np.array([1.0]), 10)

    @pytest.mark.parametrize("which", ["value", "gradient"])
    def test_a_per_point_oracle_is_refused_by_the_contract(self, which):
        # oracles written for one point: a float for any stack, and the
        # gradient of a stack's first point
        per_point = {"value": lambda x: float(np.sum(x * x)),
                     "gradient": lambda x: 2.0 * np.reshape(x, (-1, 2))[0]}
        oracles = {"value": lambda x: row_dot(x, x), "gradient": lambda x: 2.0 * x,
                   which: per_point[which]}
        obj = Objective(dim=2, minimizer=np.zeros(2), **oracles)
        with pytest.raises(ValueError, match=r"^an Objective oracle maps a stack of points "
                                             r"\(\.\.\., d\) to values \(\.\.\.\) and "
                                             r"gradients \(\.\.\., d\); it gave shape"):
            run_trace(obj, MethodSpec(HB, alpha=0.1, beta=0.5), np.array([1.0, 0.5]), 50)

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
            obj = quadratic_objective(p)
            tr_q = run_trace(p, spec, x0, 30, x1=x1)
            tr_o = run_trace(obj, spec, x0, 30, x1=x1)
            x_q, x_o = (trace_iterates(t, spec, x0, 30, x1=x1) for t in (p, obj))
            assert np.max(np.abs(x_q - x_o)) <= 1e-8
            assert np.max(np.abs(tr_q.distance - tr_o.distance)) <= 1e-8

    def test_objective_divergence_flags(self):
        p = generate_quadratic(2, 1.0, 4.0, seed=0)
        spec = MethodSpec(HB, alpha=3.0, beta=0.5)
        tr = run_trace(quadratic_objective(p), spec, offset_start(p), 500)
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
    @pytest.mark.parametrize("variant", ["equal", "x1"])
    def test_quadratic(self, kind, variant):
        p = generate_quadratic(37, 1.0, 50.0, seed=3)
        spec = optimal_hyperparams(kind, 1.0, 50.0)
        x0 = offset_start(p, seed=1, scale=3.0)
        x1 = offset_start(p, seed=2, scale=3.0) if variant == "x1" else None
        tr = run_trace(p, spec, x0, 400, x1=x1)
        z = self.eigen_rows(p, spec, x0, x1, len(tr))
        gaps = [0.5 * float(np.sum(p.eigvals * r * r)) for r in z]
        self.assert_matches(tr, gaps, z, lambda k: float(np.sum(
            per_coordinate_V(z[k], z[k - 1], z[k - 2]))))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("variant", ["equal", "x1"])
    def test_objective(self, kind, variant):
        p = generate_quadratic(5, 1.0, 10.0, seed=5)
        obj = quadratic_objective(p)
        spec = MethodSpec(kind, alpha=0.1, beta=0.5, gamma=0.05 if kind == TMM else 0.0)
        x0 = offset_start(p, seed=1)
        x1 = offset_start(p, seed=2) if variant == "x1" else None
        tr = run_trace(obj, spec, x0, 300, x1=x1)
        x, xs = trace_rows(obj, spec, x0, 300, x1=x1), p.minimizer
        f_star = float(obj.value(xs))
        gaps = [float(obj.value(r)) - f_star for r in x]
        self.assert_matches(tr, gaps, [r - xs for r in x], lambda k: vector_V(
            x[k], x[k - 1], x[k - 2], xs))

    @given(t=st.one_of(st.floats(allow_nan=True), st.sampled_from([1e12, 1e3, 30.0, 0.0])),
           s=st.floats(0.0, math.inf), ulps=st.integers(-4, 4))
    def test_squared_threshold_is_the_root_test(self, t, s, ulps):
        # the engine's test of a row's dot with itself is the driver's
        # test of its root, at any s and around the bound
        bound = trace_module._squared_threshold(t)
        near = bound if math.isfinite(bound) else s
        for _ in range(abs(ulps)):
            near = math.nextafter(near, math.copysign(math.inf, ulps))
        for x in (s, abs(near), math.nan):
            assert (x <= bound) == (math.sqrt(x) <= t)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 16, 33, 100, 107, 2000])
    def test_row_norms(self, dim):
        # magnitudes up to e^+-700 (overflow and underflow of the square),
        # subnormals, signed zeros and non-finite entries
        rng = np.random.default_rng(dim)
        specials = np.array([0.0, -0.0, 5e-324, -2.5e-310, np.nan, np.inf, -np.inf])
        for _ in range(20):
            m = int(rng.integers(1, 40))
            Z = rng.standard_normal((m, dim)) * np.exp(rng.uniform(-700, 700, (m, 1)))
            hit = rng.random((m, dim)) < rng.choice([0.0, 0.01, 0.5])
            Z[hit] = rng.choice(specials, size=int(hit.sum()))
            with np.errstate(over="ignore", invalid="ignore"):  # as in _blocks
                want = np.array([np.linalg.norm(z) for z in Z])
                got = trace_module._row_norms(Z)
            assert np.array_equal(got, want, equal_nan=True)


def per_step_reference(p, spec, x0, iters, x1=None,
                       threshold=trace_module.DIVERGENCE_THRESHOLD):
    """The quadratic driver as one step at a time: each row is checked as it
    is made (non-finite, then divergence, then the iteration count), and the
    metrics and iterates come from the stored rows.  A coordinate whose
    companion matrix has spectral radius at most 1 - delta, and lambda at
    most its bound, steps to 0 from two consecutive rows below tau: the
    engine's documented rows."""
    a, b = coefficient_arrays(spec, p.eigvals)
    q, xs = p.eigvecs, p.minimizer
    companion = np.stack([np.stack([a, b], -1), np.stack([np.ones_like(a), 0 * b], -1)], -2)
    settles = ((np.abs(np.linalg.eigvals(companion)).max(-1) <= 1 - trace_module._DELTA)
               & (p.eigvals <= trace_module._LAMBDA_MAX))
    tau = trace_module._TAU
    nstarts = 1 if x1 is None else 2
    prev = cur = q.T @ (x0 - xs)
    rows, diverged = [], False
    with np.errstate(over="ignore", invalid="ignore"):  # warnings are not under test
        for k in range(10 ** 9):
            if k == 1 and x1 is not None:
                cur = q.T @ (x1 - xs)
            elif k >= nstarts:
                low = settles & (np.abs(cur) < tau) & (np.abs(prev) < tau)
                cur, prev = np.where(low, 0.0, a * cur + b * prev), cur
                if not np.all(np.isfinite(cur)):
                    raise ValueError("non-finite iterate produced")
            rows.append(cur)
            diverged = diverged or math.sqrt(cur.dot(cur)) > threshold
            if k + 1 < nstarts:
                continue
            if diverged or len(rows) == iters:
                break
        Z = np.vstack(rows)
        lyap = np.full(len(rows), np.nan)
        lyap[2:] = np.sum(Z[1:-1] * Z[1:-1] - Z[2:] * Z[:-2], axis=1)
        return dict(rows=len(rows), diverged=diverged,
                    distance=np.array([math.sqrt(z.dot(z)) for z in rows]),
                    lyapunov=lyap, gap=0.5 * np.sum(p.eigvals * Z * Z, axis=1),
                    eigen=Z, iterates=Z @ q.T + xs)


class TestChunkedDriver:
    """The chunked quadratic engine stops, flags and raises on the same row
    as a per-step loop, and every column keeps its bits."""

    CHUNK = trace_module._CHUNK

    @staticmethod
    def assert_same(tr, ref, run):
        # ``run``: the (target, spec, x0, iters, x1) that made ``tr``
        assert len(tr) == ref["rows"]
        assert tr.diverged == ref["diverged"]
        assert np.array_equal(tr.distance, ref["distance"])
        assert np.array_equal(tr.lyapunov, ref["lyapunov"], equal_nan=True)
        assert np.array_equal(tr.objective_gap, ref["gap"])
        assert np.array_equal(trace_rows(*run), ref["eigen"], equal_nan=True)
        assert np.array_equal(trace_iterates(*run), ref["iterates"], equal_nan=True)

    @staticmethod
    def stop_rows(with_x1):
        """Row 2, the last row of the first stepped chunk, the first of the next."""
        first = 2 if with_x1 else 1
        return [2, first + TestChunkedDriver.CHUNK - 1, first + TestChunkedDriver.CHUNK]

    @staticmethod
    def converging(with_x1):
        # equal starts keep every V positive, so V falls by beta each step
        p = generate_quadratic(6, 1.0, 100.0, seed=3)
        x0 = offset_start(p, seed=4, scale=5.0)
        return p, optimal_hyperparams(HB, 1.0, 100.0), x0, (x0.copy() if with_x1 else None)

    @staticmethod
    def diverging(with_x1, scale=1.0):
        # HB with a step past 2/L: a root below -1 on every coordinate; the
        # distance grows at every step, from x1 = 1.5 x0 (centred) too
        p = generate_quadratic(3, 1.0, 1.1, seed=5)
        x0 = offset_start(p, seed=6, scale=scale)
        x1 = p.minimizer + 1.5 * (x0 - p.minimizer) if with_x1 else None
        return p, MethodSpec(HB, alpha=3.1, beta=0.5), x0, x1

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("with_x1", [False, True])
    def test_iteration_counts(self, kind, with_x1):
        p = generate_quadratic(9, 1.0, 100.0, seed=1)
        spec = optimal_hyperparams(kind, 1.0, 100.0)
        x0 = offset_start(p, seed=2)
        x1 = offset_start(p, seed=3) if with_x1 else None
        for iters in (3, self.CHUNK - 1, self.CHUNK, self.CHUNK + 1, 2 * self.CHUNK + 3):
            tr = run_trace(p, spec, x0, iters, x1=x1)
            assert len(tr) == iters
            self.assert_same(tr, per_step_reference(p, spec, x0, iters, x1=x1),
                             (p, spec, x0, iters, x1))

    @pytest.mark.parametrize("with_x1", [False, True])
    def test_divergence_stop_rows(self, monkeypatch, with_x1):
        p, spec, x0, x1 = self.diverging(with_x1)
        rows = self.stop_rows(with_x1)
        dist = per_step_reference(p, spec, x0, rows[-1] + 1, x1=x1,
                                  threshold=math.inf)["distance"]
        for row in rows:
            threshold = dist[:row].max()
            assert dist[row] > threshold
            monkeypatch.setattr(trace_module, "DIVERGENCE_THRESHOLD", threshold)
            tr = run_trace(p, spec, x0, 3 * self.CHUNK, x1=x1)
            assert len(tr) == row + 1 and tr.diverged
            self.assert_same(tr, per_step_reference(p, spec, x0, 3 * self.CHUNK,
                                                    x1=x1, threshold=threshold),
                             (p, spec, x0, 3 * self.CHUNK, x1))

    def overflowing(self, with_x1, row):
        """The diverging run, with its starts scaled so that ``row`` is its
        first non-finite row."""

        def rows_made(log2_scale, iters):
            p, spec, x0, x1 = self.diverging(with_x1, scale=2.0 ** log2_scale)
            try:
                return per_step_reference(p, spec, x0, iters, x1=x1, threshold=math.inf)["rows"]
            except ValueError:
                return None

        lo, hi = 0.0, 1023.99  # log2 of the start scale: finite rows up to ``row`` at lo
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if rows_made(mid, row + 1) is None:
                hi = mid
            else:
                lo = mid
        assert rows_made(hi, row + 1) is None and rows_made(hi, row) == row
        return self.diverging(with_x1, scale=2.0 ** hi)

    @pytest.mark.parametrize("with_x1", [False, True])
    def test_non_finite_rows(self, monkeypatch, with_x1):
        monkeypatch.setattr(trace_module, "DIVERGENCE_THRESHOLD", math.inf)
        for row in self.stop_rows(with_x1):
            p, spec, x0, x1 = self.overflowing(with_x1, row)
            for iters in (row + 1, 3 * self.CHUNK):
                with pytest.raises(ValueError, match="non-finite"):
                    run_trace(p, spec, x0, iters, x1=x1)
                with pytest.raises(ValueError, match="non-finite"):
                    per_step_reference(p, spec, x0, iters, x1=x1, threshold=math.inf)
            if row < 3:
                continue
            # a run one row shorter never makes the non-finite row
            with np.errstate(over="ignore", invalid="ignore"):  # metrics of huge rows
                tr = run_trace(p, spec, x0, row, x1=x1)
                ref = per_step_reference(p, spec, x0, row, x1=x1, threshold=math.inf)
            assert len(tr) == row and not tr.diverged
            self.assert_same(tr, ref, (p, spec, x0, row, x1))

    @staticmethod
    def one_step_overflow(start, second=None):
        """A 1-d run about the origin that multiplies x by 1 - 1e160 per step."""
        p = QuadraticProblem(eigvals=np.ones(1), eigvecs=np.eye(1), minimizer=np.zeros(1))
        x1 = None if second is None else np.array([second])
        return p, MethodSpec(HB, alpha=1e160), np.array([start]), x1

    @pytest.mark.parametrize("with_x1", [False, True])
    def test_non_finite_row_against_a_stop(self, monkeypatch, with_x1):
        # the first stepped row is non-finite and the first beyond the
        # threshold: the non-finite check comes first
        p, spec, x0, x1 = self.one_step_overflow(1e150, 1e150 if with_x1 else None)
        monkeypatch.setattr(trace_module, "DIVERGENCE_THRESHOLD", 1e151)
        with pytest.raises(ValueError, match="non-finite"):
            run_trace(p, spec, x0, 100, x1=x1)
        with pytest.raises(ValueError, match="non-finite"):
            per_step_reference(p, spec, x0, 100, x1=x1, threshold=1e151)
        # rows 1e-170, -1e-10, 1e150, inf: a divergence stop on row 2, with
        # row 1 far within the threshold or just within it, returns normally,
        # though the chunk went on to make row 3 (which is beyond the
        # threshold too, but after the stop)
        p, spec, x0, x1 = self.one_step_overflow(
            1e-170, (1.0 - 1e160) * 1e-170 if with_x1 else None)
        for threshold in (1e100, 2e-10):
            monkeypatch.setattr(trace_module, "DIVERGENCE_THRESHOLD", threshold)
            tr = run_trace(p, spec, x0, 100, x1=x1)
            assert len(tr) == 3 and tr.diverged
            self.assert_same(tr, per_step_reference(p, spec, x0, 100, x1=x1,
                                                    threshold=threshold),
                             (p, spec, x0, 100, x1))

    @pytest.mark.parametrize("with_x1", [False, True])
    @pytest.mark.parametrize("start", [1e150, math.inf])
    def test_start_beyond_threshold(self, monkeypatch, with_x1, start):
        # a start is never checked for finiteness; beyond the threshold it
        # ends the run at the last start
        p, spec, x0, x1 = self.one_step_overflow(start, 1.0 if with_x1 else None)
        monkeypatch.setattr(trace_module, "DIVERGENCE_THRESHOLD", 1e100)
        tr = run_trace(p, spec, x0, 100, x1=x1)
        assert len(tr) == (2 if with_x1 else 1) and tr.diverged
        self.assert_same(tr, per_step_reference(p, spec, x0, 100, x1=x1, threshold=1e100),
                         (p, spec, x0, 100, x1))

    def test_huge_iters_with_early_stop(self):
        p, spec, x0, _ = self.diverging(False)
        tr = run_trace(p, spec, x0, 10 ** 9)
        assert len(tr) < 100 and tr.diverged
        self.assert_same(tr, per_step_reference(p, spec, x0, 10 ** 9), (p, spec, x0, 10 ** 9))


def oracle_reference(obj, spec, x0, iters, x1=None,
                     threshold=trace_module.DIVERGENCE_THRESHOLD):
    """The objective driver as one ``family_step`` at a time: the iterates up to the
    first one beyond the threshold (a start: the last start) or the
    iters-th, and whether the run diverged."""
    rows = [x0] if x1 is None else [x0, x1]
    far = [not np.linalg.norm(x - obj.minimizer) <= threshold for x in rows]
    diverged = any(far)
    prev, cur, family = x0, rows[-1], _family(spec)
    while not diverged and len(rows) < iters:
        prev, cur = cur, family_step(obj, family, cur, prev)
        rows.append(cur)
        diverged = not np.linalg.norm(cur - obj.minimizer) <= threshold
    rows = np.stack(rows)
    return dict(rows=len(rows), diverged=diverged, eigen=rows, iterates=rows)


class TestRowsOnRead:
    """A trace holds its metric columns, no rows and not its target; the
    driver's rows, made again by ``trace_rows``, are the bits of a run that
    kept them, on a quadratic and through an objective's oracles."""

    @staticmethod
    def assert_replayed(tr, ref, run):
        # ``run``: the (target, spec, x0, iters, x1) that made ``tr``
        assert all(np.ndim(v) <= 1 for v in vars(tr).values() if isinstance(v, np.ndarray))
        assert np.array_equal(trace_iterates(*run), ref["iterates"], equal_nan=True)
        assert np.array_equal(trace_rows(*run), ref["eigen"], equal_nan=True)
        assert len(tr) == ref["rows"] and tr.diverged == ref["diverged"]

    @pytest.mark.parametrize("start,second,rows", [
        (1e150, None, 1), (1e150, 1.0, 2), (1e-170, (1.0 - 1e160) * 1e-170, 3)])
    def test_divergence_stop(self, monkeypatch, start, second, rows):
        p, spec, x0, x1 = TestChunkedDriver.one_step_overflow(start, second)
        monkeypatch.setattr(trace_module, "DIVERGENCE_THRESHOLD", 1e100)
        tr = run_trace(p, spec, x0, 100, x1=x1)
        assert len(tr) == rows and tr.diverged
        self.assert_replayed(tr, per_step_reference(p, spec, x0, 100, x1=x1, threshold=1e100),
                             (p, spec, x0, 100, x1))

    def test_second_start(self):
        p = generate_quadratic(12, 1.0, 100.0, seed=0)
        cert = analyze(optimal_hyperparams(TMM, 1.0, 100.0), p.eigvals)
        i, tr, _ = find_tmm_witness(p, cert, 80)
        r, step = cert.per_coordinate, 10.0 * p.eigvecs[:, i]  # the witness's starts
        x0, x1 = p.minimizer + step, p.minimizer + (r.re[i] + r.re2[i]) / 2.0 * step
        self.assert_replayed(tr, per_step_reference(p, cert.method, x0, 80, x1=x1),
                             (p, cert, x0, 80, x1))

    @pytest.mark.parametrize("objective", [False, True], ids=["quadratic", "objective"])
    def test_a_kept_trace_keeps_no_target(self, objective):
        # nothing of a trace refers to its target, so a problem's eigvecs
        # (d^2 numbers) go with the problem, whatever traces are kept
        p = generate_quadratic(50, 1.0, 100.0, seed=0)
        target = quadratic_objective(p) if objective else p
        gone = weakref.ref(target)
        tr = run_trace(target, optimal_hyperparams(HB, 1.0, 100.0), offset_start(p), 50)
        del p, target
        gc.collect()
        assert gone() is None and len(tr) == 50 and tr.report.monotone

    @pytest.mark.parametrize("case", ["converging", "diverging", "x1", "expnorm"])
    def test_objective(self, case):
        # over two chunks: rows from several blocks, and a stop inside one
        p = generate_quadratic(4, 1.0, 10.0, seed=2)
        obj = exp_norm_objective(4) if case == "expnorm" else quadratic_objective(p)
        spec = MethodSpec(NAG, alpha=1.0 if case == "diverging" else 0.1, beta=0.5)
        x0 = offset_start(p, seed=1)
        if case == "expnorm":
            x0 = 0.1 * (x0 - p.minimizer)
        x1 = x0 + 0.1 if case == "x1" else None
        tr = run_trace(obj, spec, x0, 2 * trace_module._CHUNK + 3, x1=x1)
        assert tr.diverged == (case == "diverging")
        run = (obj, spec, x0, 2 * trace_module._CHUNK + 3, x1)
        self.assert_replayed(tr, oracle_reference(*run[:4], x1=x1), run)

    @staticmethod
    def peak_of_run(target, spec, x0, iters):
        """Peak traced bytes of one run, after a short run first, so one-time
        lazy imports are not counted."""
        run_trace(target, spec, x0, 3)
        tracemalloc.start()
        try:
            tr = run_trace(target, spec, x0, iters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tr) == iters
        return peak

    def test_peak_memory_is_below_the_rows(self):
        # a trace holding its rows would need iters * dim * 8 bytes (4.8 MB)
        iters, dim = 3000, 200
        p = generate_quadratic(dim, 1.0, 1e4, seed=0)
        spec = optimal_hyperparams(HB, 1.0, 1e4)
        assert self.peak_of_run(p, spec, offset_start(p, scale=10.0), iters) < iters * dim * 8

    def test_objective_peak_memory_is_below_the_rows(self):
        iters, dim = 3000, 200
        p = generate_quadratic(dim, 1.0, 1e4, seed=0)
        spec = optimal_hyperparams(HB, 1.0, 1e4)
        obj = quadratic_objective(p)
        assert self.peak_of_run(obj, spec, offset_start(p, scale=10.0), iters) < iters * dim * 8


class TestBlockBufferMemory:
    """A ``_blocks`` call fills one rows buffer and one set of metric work
    arrays block after block, and holds no second block while it makes the
    next: traced peaks at or below those of the driver that allocated every
    block afresh (1.89 MB and 2.15 MB, numpy 2.4.6 on x86-64)."""

    @staticmethod
    def peak(fn):
        fn()  # one-time lazy imports are not counted
        return peak_bytes(fn)

    def test_batch(self):
        p = generate_quadratic(100, 1.0, 1e4, seed=0)
        specs = [optimal_hyperparams(k, 1.0, 1e4) for k in KINDS]
        x0 = offset_start(p, scale=10.0)
        assert self.peak(lambda: list(trace_module._run_traces(p, specs, x0, 2000))) <= 1.89e6

    def test_single_run(self):
        p = generate_quadratic(100, 1.0, 1e4, seed=0)
        spec = optimal_hyperparams(NAG, 1.0, 1e4)
        x0 = offset_start(p, scale=10.0)
        assert self.peak(lambda: run_trace(p, spec, x0, 20000)) <= 2.15e6


@pytest.mark.parametrize("objective", [False, True], ids=["quadratic", "objective"])
class TestStartDimensions:
    """``run_trace`` alone checks the dimensions of a run's starts."""

    @staticmethod
    def run(objective, x0, x1=None):
        p = generate_quadratic(4, 1.0, 4.0, seed=0)
        target = quadratic_objective(p) if objective else p
        return run_trace(target, MethodSpec(HB, alpha=0.1, beta=0.5), x0, 10, x1=x1)

    def test_x0_of_wrong_dimension(self, objective):
        for x0 in (np.zeros(3), np.zeros(5), np.zeros((4, 1))):
            with pytest.raises(ValueError, match="x0 has wrong dimension"):
                self.run(objective, x0)

    def test_x1_of_other_shape(self, objective):
        for x1 in (np.zeros(3), np.zeros((4, 1))):
            with pytest.raises(ValueError, match="x1 must match x0's dimension"):
                self.run(objective, np.zeros(4), x1)


class TestSchurCoordinate:
    """The paper's identity on a recorded run: with M = U T U* the Schur
    factorization of a conjugate-pair coordinate, the last Schur coordinate
    w_k = (U* (z_k, z_{k-1}))[1] carries V, (1 + |lambda1|^2) |w_k|^2 =
    V_{k+1}, and w_{k+1} = lambda2 w_k, so |w_k|^2 scales by -b each step."""

    def test_v_is_the_last_schur_coordinate(self, rng):
        p = generate_quadratic(1, 1.0, 1.0, seed=0)
        for _ in range(200):
            a, b = random_eligible_coeffs(rng)
            # HB on lambda = 1 has a = 1 - alpha + beta and b = -beta
            spec = MethodSpec(HB, alpha=1.0 - a - b, beta=-b)
            a, b = (float(v[0]) for v in coefficient_arrays(spec, p.eigvals))
            U, _ = schur(a, b)
            l1, l2 = eigenvalues(a, b)
            x0, x1 = p.minimizer + rng.uniform(-5.0, 5.0, size=(2, 1))
            tr = run_trace(p, spec, x0, 12, x1=x1)
            z = trace_rows(p, spec, x0, 12, x1)[:, 0]
            w = [(U.conj().T @ [z[k], z[k - 1]])[1] for k in range(1, len(z))]
            for k in range(1, len(z) - 1):
                # relative to the squared size of the iterates V is made of
                scale = z[k + 1] ** 2 + z[k] ** 2 + z[k - 1] ** 2
                wk, wk1 = w[k - 1], w[k]
                assert abs((1.0 + abs(l1) ** 2) * abs(wk) ** 2 - tr.lyapunov[k + 1]) \
                    <= 1e-12 * scale
                assert abs(wk1 - l2 * wk) ** 2 <= 1e-24 * scale
                assert abs(abs(wk1) ** 2 - (-b) * abs(wk) ** 2) <= 1e-12 * scale


class TestLyapunovSeriesAccess:
    def test_strips_undefined_prefix(self):
        p = generate_quadratic(3, 1.0, 4.0, seed=0)
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        tr = run_trace(p, spec, offset_start(p), 3)
        # rows 0 and 1 have no V: the report judges the one V of row 2 alone
        assert not np.isnan(tr.lyapunov[2])
        assert tr.report.monotone and tr.report.count == 0
        assert report_bits(tr.report) == report_bits(check_monotone(tr.lyapunov[2:], tr.distance))


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
        on_disk, last = trace_module._scan_csv(path)
        assert on_disk.describe() == tr.report.describe()
        # the slack reads the CSV's distance column, from two rows before V
        assert report_bits(on_disk) == report_bits(tr.report)
        assert last == tr.distance[-1]

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(self.make_trace(), p1)
        export_csv(self.make_trace(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_export_leaves_the_file_as_it_was(self, tmp_path):
        tr = self.make_trace()
        tr.distance = tr.distance[:-1]  # columns that do not stack
        path = tmp_path / "t.csv"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(ValueError):
            export_csv(tr, path)
        assert path.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_series_needs_a_lyapunov_value(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("iter,objective_gap,distance,lyapunov\n0,1,1,\n1,1,1,\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="trace CSV holds no Lyapunov values"):
            trace_module._scan_csv(path)

    def test_series_needs_three_iterates(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("iter,objective_gap,distance,lyapunov\n0,1,1,\n1,1,1,0.5\n2,1,1,0.25\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="a trace CSV's first V is on row 2 or later"):
            trace_module._scan_csv(path)

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_series_refuses_a_bad_tolerance_before_reading(self, tmp_path, value):
        # the slack comes from the distance column: no tolerance is taken
        with pytest.raises(TypeError):
            trace_module._scan_csv(tmp_path / "missing.csv", tolerance=value)

    # an exported trace longer than one chunk, whose later chunks numpy's
    # parser reads, and a hand-written one whose empty cell after the first V
    # sends its only chunk to the line parser
    @pytest.mark.parametrize("exported", [True, False], ids=["exported", "line-parser"])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, exported):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        if exported:
            export_csv(self.make_trace(iters=600), plain)
        else:
            plain.write_text("iter,objective_gap,distance,lyapunov\n0,1,1,\n1,1,1,\n"
                             "2,1,1,0.5\n3,1,1,\n4,1,1,0.25\n", encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        by_line, parse = [], trace_module._parse_lines

        def counted(lines, cols, n):
            by_line.extend(filter(None, map(str.strip, lines)))
            return parse(lines, cols, n)

        monkeypatch.setattr(trace_module, "_parse_lines", counted)
        want = read_trace_csv(plain)
        rows = plain.read_text(encoding="utf-8").splitlines()[1:]
        for path in (plain, marked):
            by_line.clear()
            got = read_trace_csv(path)
            if exported:  # the line parser reads the first chunk, numpy the rest
                assert 2 <= len(by_line) < len(rows) / 2
                assert by_line == rows[:len(by_line)]
            else:
                assert by_line == rows
            for key in want:
                assert np.array_equal(got[key], want[key], equal_nan=True)
        assert len(want["distance"]) == len(rows) == (600 if exported else 5)
        assert (trace_module._scan_csv(marked)[0].describe()
                == trace_module._scan_csv(plain)[0].describe())


class TestOracleBlocks:
    """The oracle engine steps many rows per block, ends a block at the first
    row beyond the threshold, and takes no gradient past the stopping row."""

    @staticmethod
    def counting(p):
        """The oracles of ``quadratic_objective(p)``, and a list that takes
        the number of points of each gradient call."""
        obj = quadratic_objective(p)
        calls = []

        def gradient(x):
            calls.append(x.shape[0])
            return obj.gradient(x)

        return Objective(dim=obj.dim, value=obj.value, gradient=gradient,
                         minimizer=obj.minimizer, mu=obj.mu,
                         lipschitz=obj.lipschitz), calls

    @staticmethod
    def assert_same(tr, rows, run):
        # ``run``: the (target, spec, x0, iters, x1) of the reference trace
        ref = run_trace(*run[:4], x1=run[4])
        assert len(tr) == len(ref) and tr.diverged == ref.diverged
        for name in ("objective_gap", "distance", "lyapunov"):
            assert np.array_equal(getattr(tr, name), getattr(ref, name), equal_nan=True)
        assert np.array_equal(rows, trace_rows(*run), equal_nan=True)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("case,dim", [
        pytest.param(case, dim, id=case if dim == 4 else f"{case}-d{dim}")
        for dim in (4, 300) for case in ("converging", "diverging", "x1")])
    def test_matches_one_row_blocks(self, monkeypatch, kind, case, dim):
        # on a wide objective too, the engine's gate and the driver's
        # threshold test stop a run on the same row: no gradient is taken
        # past the stop, and no row past it is handed on
        p = generate_quadratic(dim, 1.0, 10.0, seed=2)
        alpha = 1.0 if case == "diverging" else 0.1
        spec = MethodSpec(kind, alpha=alpha, beta=0.5, gamma=0.05 if kind == TMM else 0.0)
        x0 = offset_start(p, seed=1)
        x1 = offset_start(p, seed=2) if case == "x1" else None
        obj, calls = self.counting(p)
        tr = run_trace(obj, spec, x0, 1300, x1=x1)
        assert tr.diverged == (case == "diverging")
        assert len(tr) < 1300 if case == "diverging" else len(tr) == 1300
        # one gradient per stepped row: none past the stop
        assert len(calls) == len(tr) - (2 if case == "x1" else 1)
        rows = trace_rows(obj, spec, x0, 1300, x1)  # made before the patch, in chunked blocks
        monkeypatch.setattr(trace_module, "_CHUNK", 1)
        self.assert_same(tr, rows, (quadratic_objective(p), spec, x0, 1300, x1))

    def test_non_finite_gradient_raises(self):
        p = generate_quadratic(3, 1.0, 10.0, seed=2)
        obj = quadratic_objective(p)
        steps = []

        def gradient(x):
            steps.append(1)
            return obj.gradient(x) if len(steps) < 700 else np.full(x.shape, np.nan)

        bad = Objective(dim=3, value=obj.value, gradient=gradient, minimizer=obj.minimizer)
        with pytest.raises(ValueError, match="non-finite iterate produced"):
            run_trace(bad, MethodSpec(HB, alpha=0.1, beta=0.5), offset_start(p), 2000)
        assert len(steps) == 700

    def test_non_finite_value_raises(self):
        # a non-finite value ends the run in the block that meets it: no
        # block is stepped after the one holding the first bad row
        spec = MethodSpec(HB, alpha=0.1, beta=0.5)
        calls = []

        def gradient(x):
            calls.append(1)
            return 2.0 * x

        def gradients_taken(value, iters):
            calls.clear()
            obj = Objective(dim=1, value=value, gradient=gradient, minimizer=np.zeros(1))
            with pytest.raises(ValueError, match="non-finite objective value from the oracle"):
                run_trace(obj, spec, np.array([1.0]), iters)
            return len(calls)

        # NaN away from the minimizer: row 0 is bad, and no gradient is taken
        assert gradients_taken(
            lambda x: np.where(np.abs(x[..., 0]) < 0.5, row_dot(x, x), math.nan), 600) == 0
        # NaN within 1e-3 of the minimizer, first met at row ``bad``
        good = Objective(dim=1, value=lambda x: row_dot(x, x), gradient=lambda x: 2.0 * x,
                         minimizer=np.zeros(1))
        bad = int(np.argmax(run_trace(good, spec, np.array([1.0]), 2000).distance < 1e-3))
        assert bad > 0
        taken = gradients_taken(
            lambda x: np.where(np.abs(x[..., 0]) >= 1e-3, row_dot(x, x), math.nan), 2000)
        assert bad <= taken < bad + trace_module._CHUNK

    def test_the_first_bad_row_names_the_error(self):
        # the value is NaN from |x| < 1e-3 on and the gradient inf from
        # |x| < 1e-4 on: a bad value rows before the first non-finite iterate,
        # in the same block, names the error, whatever the block size
        spec = MethodSpec(HB, alpha=0.1, beta=0.5)
        good = Objective(dim=1, value=lambda x: row_dot(x, x), gradient=lambda x: 2.0 * x,
                         minimizer=np.zeros(1))
        dist = run_trace(good, spec, np.array([1.0]), 2000).distance
        nan_value, inf_gradient = int(np.argmax(dist < 1e-3)), int(np.argmax(dist < 1e-4))
        assert 0 < nan_value < inf_gradient < trace_module._CHUNK
        bad = Objective(
            dim=1, value=lambda x: np.where(np.abs(x[..., 0]) >= 1e-3, row_dot(x, x), math.nan),
            gradient=lambda x: np.where(np.abs(x) >= 1e-4, 2.0 * x, np.inf),
            minimizer=np.zeros(1))
        with pytest.raises(ValueError, match="^non-finite objective value from the oracle$"):
            run_trace(bad, spec, np.array([1.0]), 2000)


class TestLawOfV:
    """ROADMAP item 13's identity, on the rows of a run of any family member
    (alpha, beta, gamma) on any objective: V_{k+1} = beta V_k + alpha D_k,
    with D_k = <g_k, z_{k-1}> - <g_{k-1}, z_k>, z_k = x_k - x* and g_k the
    gradient at y_k = x_k + gamma (x_k - x_{k-1}).  A plain relative bound
    does not hold (V cancels far below its terms), so the residual is held
    to 16 u times the sum of the identity's absolute terms, plus the
    rounding of the iterates that the exact identity assumes away."""

    # objective, a curvature bound for the step, the largest start offset
    OBJECTIVES = {
        "cosine": (cosine_counterexample(), 3.99, 5.0),
        "expnorm": (exp_norm_objective(3), 10.0, 0.8),
        "rosenbrock": (rosenbrock_objective(), 1500.0, 0.5),
        "quadratic": (quadratic_objective(generate_quadratic(6, 1.0, 50.0, seed=5)), 50.0, 10.0),
    }

    @pytest.mark.parametrize("name", list(OBJECTIVES))
    @given(kind=st.sampled_from(KINDS), step=st.floats(1e-3, 1.0), beta=st.floats(0.0, 0.99),
           gamma=st.floats(0.0, 1.0), offset=st.floats(0.01, 1.0),
           direction=st.integers(0, 2 ** 32 - 1), iters=st.integers(4, 300))
    def test_residual_within_roundoff(self, name, kind, step, beta, gamma, offset,
                                      direction, iters):
        obj, L, scale = self.OBJECTIVES[name]
        spec = MethodSpec(kind, alpha=step / L, beta=beta, gamma=gamma if kind == TMM else 0.0)
        v = np.random.default_rng(direction).standard_normal(obj.dim)
        x0 = obj.minimizer + offset * scale * v / np.linalg.norm(v)
        tr = run_trace(obj, spec, x0, iters)
        al, be, ga = _family(spec)
        x = trace_rows(obj, spec, x0, iters)
        z = x - obj.minimizer
        y = ga * (x - np.vstack([x[:1], x[:-1]])) + x  # x_{-1} = x_0
        g = np.array([obj.gradient(row) for row in y[:-1]])
        k = np.arange(2, len(tr) - 1)

        def dot(a, b):
            return np.sum(a * b, axis=1)

        def abs_dot(a, b):
            return np.sum(np.abs(a * b), axis=1)

        V = tr.lyapunov
        residual = V[k + 1] - be * V[k] - al * (dot(g[k], z[k - 1]) - dot(g[k - 1], z[k]))
        terms = (abs_dot(z[k], z[k]) + abs_dot(z[k + 1], z[k - 1])
                 + abs(be) * (abs_dot(z[k - 1], z[k - 1]) + abs_dot(z[k], z[k - 2]))
                 + abs(al) * (abs_dot(g[k], z[k - 1]) + abs_dot(g[k - 1], z[k]))
                 + (np.abs(x[k + 1]).max(axis=1) + np.abs(x[k]).max(axis=1))
                 * (np.abs(z[k - 1]).sum(axis=1) + np.abs(z[k]).sum(axis=1)))
        u = np.finfo(float).eps / 2
        assert np.all(np.abs(residual) <= 16 * u * terms + np.finfo(float).tiny)


def solo_outcome(target, specs, x0, iters, **kw):
    """``run_trace`` of each spec, one after another: the traces, or the
    first error raised (type and message)."""
    try:
        return [run_trace(target, spec, x0, iters, **kw) for spec in specs]
    except ValueError as exc:
        return (type(exc), str(exc))


def batch_outcome(target, specs, x0, iters, x1=None):
    """The traces of one batched call and the rows each run had in its
    blocks, or the error raised (type and message).  A block's rows are
    valid until the next block is drawn, so each is copied as it comes."""
    try:
        traces = list(trace_module._run_traces(target, specs, x0, iters, x1=x1))
        rows = [[] for _ in specs]
        for blk in trace_module._blocks(target, specs, x0, iters, x1):
            rows[blk.run].append(blk.rows.copy())
        return traces, [np.concatenate(r) for r in rows]
    except ValueError as exc:
        return (type(exc), str(exc))


@st.composite
def method_specs(draw):
    """A spec of any kind, its certificate eligible or not."""
    kind = draw(st.sampled_from(KINDS))
    alpha = draw(st.floats(1e-4, 3.0))
    beta = draw(st.floats(-0.5 if kind == TMM else 0.0, 1.2))
    gamma = draw(st.floats(-0.5, 1.0)) if kind == TMM else 0.0
    return MethodSpec(kind, alpha=alpha, beta=beta, gamma=gamma)


class TestBatchedRuns:
    """Runs advanced side by side in one ``_blocks`` call: each trace, its
    rows and the error raised equal those of ``run_trace`` one after another,
    whatever block each run stops in."""

    QUADRATIC = generate_quadratic(5, 1.0, 10.0, seed=3)

    @staticmethod
    def assert_same(target, specs, x0, iters, x1=None):
        want = solo_outcome(target, specs, x0, iters, x1=x1)
        got = batch_outcome(target, specs, x0, iters, x1)
        if isinstance(want, tuple):
            assert got == want
            return None
        traces, rows = got
        assert len(traces) == len(want)
        for tr, blk_rows, ref, spec in zip(traces, rows, want, specs):
            assert len(tr) == len(ref) and tr.diverged == ref.diverged
            for name in ("objective_gap", "distance", "lyapunov"):
                assert np.array_equal(getattr(tr, name), getattr(ref, name), equal_nan=True)
            assert np.array_equal(blk_rows, trace_rows(target, spec, x0, iters, x1),
                                  equal_nan=True)
        return want

    @given(specs=st.lists(method_specs(), min_size=1, max_size=4),
           iters=st.integers(3, 700), x1=st.booleans(),
           threshold=st.sampled_from([trace_module.DIVERGENCE_THRESHOLD, 1e3, 30.0]),
           scale=st.floats(0.1, 20.0), chunk=st.sampled_from([512, 2, 1]))
    def test_quadratic(self, specs, iters, x1, threshold, scale, chunk):
        # a low threshold stops diverging runs in their first blocks, and
        # may stop a run at a start; a chunk of 2 or 1 makes blocks of one
        # or two rows below the carry, the starts' block included
        p = self.QUADRATIC
        x0 = offset_start(p, seed=1, scale=scale)
        with mock.patch.object(trace_module, "DIVERGENCE_THRESHOLD", threshold), \
                mock.patch.object(trace_module, "_CHUNK", chunk):
            self.assert_same(p, specs, x0, iters, offset_start(p, seed=2) if x1 else None)

    @given(specs=st.lists(method_specs(), min_size=1, max_size=4),
           iters=st.integers(3, 400), rosenbrock=st.booleans(), scale=st.floats(0.05, 3.0),
           x1=st.booleans(), chunk=st.sampled_from([512, 2, 1]))
    def test_objective(self, specs, iters, rosenbrock, scale, x1, chunk):
        obj = rosenbrock_objective() if rosenbrock else exp_norm_objective(2)
        x0 = obj.minimizer + scale * np.array([0.6, -0.8])
        with mock.patch.object(trace_module, "_CHUNK", chunk):
            self.assert_same(obj, specs, x0, iters,
                             obj.minimizer + scale * np.array([0.5, 0.7]) if x1 else None)

    @staticmethod
    def last_blocks(target, specs, x0, iters):
        """For each run, the round of blocks (one block per run going on)
        holding its last block, that block's rows, and the most rows a block
        of that round has."""
        rounds, prev, last, most = 0, len(specs), {}, {}
        for blk in trace_module._blocks(target, specs, x0, iters):
            rounds += blk.run <= prev
            prev = blk.run
            most[rounds] = max(most.get(rounds, 0), len(blk.rows))
            if blk.last:
                last[blk.run] = (rounds, len(blk.rows))
        return [(r, rows, most[r]) for r, rows in (last[i] for i in range(len(specs)))]

    @staticmethod
    def advance_shapes(monkeypatch):
        """A list that takes the shape of the rows array of every block the
        eigenbasis engine steps from now on."""
        shapes, engine = [], trace_module._eigenbasis_engine

        def recording(*args):
            first, advance = engine(*args)

            def recorded(rows, going):
                shapes.append(rows.shape)
                return advance(rows, going)
            return first, recorded

        monkeypatch.setattr(trace_module, "_eigenbasis_engine", recording)
        return shapes

    def test_divergence_stops_in_different_blocks(self, monkeypatch):
        # gradient steps just past 2/L: the top coordinate's root -1.1,
        # -1.05 or -1.02 grows ever more slowly, so the runs diverge in
        # three different blocks
        p = generate_quadratic(6, 1.0, 100.0, seed=3)
        specs = [MethodSpec(HB, alpha=alpha) for alpha in (0.021, 0.0205, 0.0202)]
        x0 = offset_start(p, seed=4, scale=5.0)
        want = self.assert_same(p, specs, x0, 5000)
        assert [len(tr) for tr in want] == [284, 553, 1361] and all(tr.diverged for tr in want)
        ends = self.last_blocks(p, specs, x0, 5000)
        assert len({r for r, _, _ in ends}) == 3
        # each run keeps its lane to the end: after the first stop (row 283)
        # and the second (row 552), every block still has a full block's
        # rows for all three lanes, up to the last stop (row 1360) or until
        # iters cuts the last block (rows 1 to 999)
        step = max(1, trace_module._CHUNK // 3)
        full, (blocks, rest) = (step + 2, 3, 6), divmod(999, step)
        shapes = self.advance_shapes(monkeypatch)
        for iters, expected in ((5000, [full] * -(-1360 // step)),
                                (1000, [full] * blocks + [(rest + 2, 3, 6)])):
            shapes.clear()
            list(trace_module._blocks(p, specs, x0, iters))
            assert shapes == expected

    def test_divergence_mid_block_takes_the_solo_gradients(self):
        p = generate_quadratic(4, 1.0, 10.0, seed=2)
        obj, calls = TestOracleBlocks.counting(p)
        specs = [MethodSpec(NAG, alpha=0.1, beta=0.5), MethodSpec(HB, alpha=0.25, beta=0.2),
                 MethodSpec(TMM, alpha=0.1, beta=0.5, gamma=0.05)]
        x0 = offset_start(p, seed=1)
        solo = []
        for spec in specs:
            calls.clear()
            tr = run_trace(obj, spec, x0, 1300)
            assert tr.diverged == (spec.kind == HB)
            assert len(calls) == len(tr) - 1  # one gradient per stepped row
            solo.append(len(calls))
        calls.clear()
        runs = list(trace_module._run_traces(obj, specs, x0, 1300))
        assert sum(calls) == sum(solo)
        assert [len(tr) for tr in runs] == [n + 1 for n in solo]
        self.assert_same(obj, specs, x0, 1300)
        (r_nag, _, _), (r_hb, rows, most), _ = self.last_blocks(obj, specs, x0, 1300)
        assert r_hb < r_nag and rows < most  # HB leaves inside a block the others go on past

    @pytest.mark.parametrize("lanes", [1, 4, 20])
    def test_objective_batch_takes_each_live_lanes_points(self, lanes):
        # the middle lane diverges inside a block, the others run to iters:
        # the batch equals its solo runs; each row takes one gradient call
        # holding the points of exactly the lanes still live, in lane order,
        # and each block one value call per run holding its rows, so no
        # point past a lane's stop reaches an oracle
        p = generate_quadratic(3, 1.0, 10.0, seed=2)
        obj = quadratic_objective(p)
        specs = [MethodSpec(k, alpha=0.02 + 0.004 * j, beta=0.5, gamma=0.05 if k == TMM else 0.0)
                 for j, k in zip(range(lanes), KINDS * 5)]
        specs[lanes // 2] = MethodSpec(HB, alpha=0.25, beta=0.2)
        x0 = offset_start(p, seed=1)
        want = self.assert_same(obj, specs, x0, 1300)
        stops = [len(tr) - 1 for tr in want]  # each run's last row
        assert want[lanes // 2].diverged and stops.count(1299) == lanes - 1
        assert stops[lanes // 2] % max(1, trace_module._CHUNK // lanes)  # not a block's last row
        grads, values = [], []

        def gradient(x):
            grads.append(x.copy())
            return obj.gradient(x)

        def value(x):
            values.append(x.copy())
            return obj.value(x)

        seen = Objective(dim=3, value=value, gradient=gradient, minimizer=obj.minimizer)
        list(trace_module._run_traces(seen, specs, x0, 1300))
        rows = [trace_rows(obj, spec, x0, 1300) for spec in specs]
        # a run's point at row k is y_k = x_k + gamma (x_k - x_{k-1}), x_{-1} = x_0
        ys = [_family(spec)[2] * (x - np.vstack([x[:1], x[:-1]])) + x
              for spec, x in zip(specs, rows)]
        assert len(grads) == max(stops)
        for k, points in enumerate(grads):
            assert np.array_equal(points, np.stack([y[k] for y, s in zip(ys, stops) if k < s]))
        assert values[0].shape == (3,)  # the minimizer's value, then the blocks'
        done = [0] * lanes
        blocks = [(blk.run, len(blk.rows)) for blk in trace_module._blocks(obj, specs, x0, 1300)]
        assert len(values) == len(blocks) + 1
        for (r, m), points in zip(blocks, values[1:]):
            assert np.array_equal(points, rows[r][done[r]:done[r] + m])
            done[r] += m
        assert done == [s + 1 for s in stops]

    @pytest.mark.parametrize("objective", [False, True], ids=["quadratic", "objective"])
    def test_iters_at_block_edges(self, objective):
        p = generate_quadratic(4, 1.0, 10.0, seed=2)
        target = quadratic_objective(p) if objective else p
        specs = [MethodSpec(k, alpha=0.1, beta=0.5, gamma=0.05 if k == TMM else 0.0)
                 for k in KINDS]
        block = trace_module._CHUNK // len(specs)
        for iters in (block, block + 1, block + 2, 2 * block + 1, 3 * block + 1):
            for tr in self.assert_same(target, specs, offset_start(p, seed=1), iters):
                assert len(tr) == iters

    def test_the_first_error_in_spec_order_is_raised(self, monkeypatch):
        # rows 1, 1 - 1e160, inf: the overflowing run fails on row 2
        monkeypatch.setattr(trace_module, "DIVERGENCE_THRESHOLD", math.inf)
        p, overflow, x0, _ = TestChunkedDriver.one_step_overflow(1.0)
        fine = MethodSpec(HB, alpha=0.5)
        coeffs = MethodSpec(TMM, alpha=1e300, gamma=1e300)  # a coefficient overflows
        with np.errstate(over="ignore"):
            for specs, message in (([fine, overflow], "non-finite iterate produced"),
                                   ([overflow, fine], "non-finite iterate produced"),
                                   ([fine, coeffs, overflow], "coefficients must be finite"),
                                   ([overflow, coeffs], "non-finite iterate produced")):
                assert solo_outcome(p, specs, x0, 100) == (ValueError, message)
                self.assert_same(p, specs, x0, 100)

    @pytest.mark.parametrize("objective", [False, True], ids=["quadratic", "objective"])
    def test_advance_steps_only_the_rows_it_is_given(self, objective):
        # an engine keeps no carry between calls: two buffers whose top rows
        # hold different carries, stepped in either order, each get the rows
        # of a one-block run from their own carry
        p = self.QUADRATIC
        target = quadratic_objective(p) if objective else p
        specs = [MethodSpec(k, alpha=0.1, beta=0.5, gamma=0.05 if k == TMM else 0.0)
                 for k in KINDS]
        iters = 40  # the starts, then one block
        assert iters - 2 <= trace_module._CHUNK // len(specs)
        want = []
        for x0, x1 in ((offset_start(p, seed=1), offset_start(p, seed=2)),
                       (offset_start(p, seed=3, scale=5.0), offset_start(p, seed=4))):
            _, rows = batch_outcome(target, specs, x0, iters, x1)
            want.append(np.stack(rows, axis=1))
        engine, runs = ((trace_module._oracle_engine, [_family(s) for s in specs]) if objective
                        else (trace_module._eigenbasis_engine,
                              [analyze(s, p.eigvals) for s in specs]))
        for order in ((0, 1), (1, 0)):
            _, advance = engine(target, runs, [p.minimizer])  # a fresh engine
            for i in order:
                rows = want[i].copy()
                rows[2:] = np.nan
                advance(rows, list(range(len(specs))))
                assert np.array_equal(rows, want[i])

    def test_a_foreign_certificate_fails_in_run_order(self, monkeypatch):
        monkeypatch.setattr(trace_module, "DIVERGENCE_THRESHOLD", math.inf)
        p, overflow, x0, _ = TestChunkedDriver.one_step_overflow(1.0)
        fine = MethodSpec(HB, alpha=0.5)
        foreign = analyze(fine, np.array([2.0]))
        with np.errstate(over="ignore"):
            for specs, message in (([fine, foreign, overflow],
                                    "the certificate is of another spectrum"),
                                   ([overflow, foreign], "non-finite iterate produced")):
                assert solo_outcome(p, specs, x0, 100) == (ValueError, message)
                self.assert_same(p, specs, x0, 100)
        # a run whose certificate failed keeps its lane, stepped with zero
        # coefficients: the run before it is handed out whole, then the error
        want = run_trace(p, fine, x0, 600)
        shapes = self.advance_shapes(monkeypatch)
        runs = trace_module._run_traces(p, [fine, foreign], x0, 600)
        got = next(runs)
        for name in ("objective_gap", "distance", "lyapunov"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)
        with pytest.raises(ValueError, match="^the certificate is of another spectrum$"):
            next(runs)
        block = max(1, trace_module._CHUNK // 2)  # rows 1 to 599 in blocks of two lanes
        assert shapes == [(block + 2, 2, 1)] * 2 + [(599 - 2 * block + 2, 2, 1)]


@st.composite
def spectra(draw):
    """A quadratic with a random nondecreasing spectrum (zeros allowed) and
    a seeded random eigenbasis and minimizer."""
    lam = sorted(draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6)))
    lam[-1] = max(lam[-1], 1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))
    return QuadraticProblem(eigvals=np.array(lam), eigvecs=q,
                            minimizer=rng.standard_normal(len(lam)))


def centred(p):
    """``p`` with its minimizer at the origin, so that starts of any size are
    centred eigen-coordinates to the last bit."""
    return QuadraticProblem(eigvals=p.eigvals, eigvecs=p.eigvecs, minimizer=np.zeros(p.dim))


# tuned on [1e299, 1e300]: every coordinate converges, none may settle
HUGE = QuadraticProblem(eigvals=np.array([1e299, 3e299, 1e300]), eigvecs=np.eye(3),
                        minimizer=np.zeros(3))


class TestSettledCoordinates:
    """A settling eigen-coordinate steps to exact zeros after two consecutive
    rows below tau, and no recorded bit moves: every column, stop and error
    is that of the plain recurrence (tau = 0 turns the rule off), in a batch
    and alone, whatever the block size."""

    @staticmethod
    def outcome(target, specs, x0, iters, x1=None, tau=trace_module._TAU, **patches):
        """``batch_outcome`` with the trace module's ``_TAU`` at ``tau`` and
        its other constants patched as given."""
        with mock.patch.multiple(trace_module, _TAU=tau, **patches):
            return batch_outcome(target, specs, x0, iters, x1)

    @staticmethod
    def columns(traces):
        return [(tr.diverged, tr.objective_gap.tobytes(), tr.distance.tobytes(),
                 tr.lyapunov.tobytes()) for tr in traces]

    @staticmethod
    def zeroed_only(on, off):
        """Rows with the rule equal the plain ones but where they read +0,
        and the plain ones there are below the derived bound 2^-856."""
        same = (on == off) | (np.isnan(on) & np.isnan(off))
        zero = (on.view(np.int64) == 0) & (np.abs(off) < 2.0 ** -856)
        return bool(np.all(same | zero))

    @given(p=st.one_of(spectra().map(centred), st.just(HUGE)),
           specs=st.lists(st.one_of(method_specs(), st.sampled_from(KINDS)),
                          min_size=1, max_size=3),
           iters=st.integers(3, 300), log_scale=st.floats(-320.0, 3.0), x1=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1), chunk=st.sampled_from([512, 2, 1]))
    def test_no_recorded_bit_moves(self, p, specs, iters, log_scale, x1, seed, chunk):
        # a kind alone is that kind tuned to the spectrum (for at most a
        # 1000-fold spread), eligible; a drawn spec may be a real split or
        # diverge.  Tuned on [mu / L, 1], then alpha / L: mu L overflows at
        # L = 1e300
        L = p.lipschitz
        tuned = {k: optimal_hyperparams(k, max(p.mu / L, 1e-3), 1.0) for k in KINDS}
        specs = [MethodSpec(s, alpha=tuned[s].alpha / L, beta=tuned[s].beta,
                            gamma=tuned[s].gamma) if isinstance(s, str) else s for s in specs]
        rng = np.random.default_rng(seed)
        x0, second = (10.0 ** log_scale * v / np.linalg.norm(v)
                      for v in rng.standard_normal((2, p.dim)))
        x1 = second if x1 else None
        with np.errstate(over="ignore", invalid="ignore", under="ignore"), \
                mock.patch.object(trace_module, "_CHUNK", chunk):
            on = self.outcome(p, specs, x0, iters, x1)
            off = self.outcome(p, specs, x0, iters, x1, tau=0.0)
            solo = solo_outcome(p, specs, x0, iters, x1=x1)
            if isinstance(solo, tuple):  # an error
                assert on == off == solo
                return
            solo_rows = [trace_rows(p, spec, x0, iters, x1) for spec in specs]
        assert self.columns(on[0]) == self.columns(off[0]) == self.columns(solo)
        assert [r.tobytes() for r in on[1]] == [r.tobytes() for r in solo_rows]
        assert all(map(self.zeroed_only, on[1], off[1]))

    def test_settled_rows_are_zeros(self):
        # tuned NAG on [1, 100] zeroes its fast coordinates from row 546 on,
        # where the plain recurrence leaves subnormal noise from row 617
        p = centred(generate_quadratic(9, 1.0, 100.0, seed=1))
        specs = [optimal_hyperparams(NAG, 1.0, 100.0)]
        x0 = offset_start(p, seed=2)
        (_, (on,)), (_, (off,)) = (self.outcome(p, specs, x0, 1000, tau=tau)
                                   for tau in (trace_module._TAU, 0.0))
        zeroed = (on == 0) & (off != 0)
        assert (np.abs(off[zeroed]) < np.finfo(float).tiny).any()
        assert self.zeroed_only(on, off)

    @pytest.mark.parametrize("p, kind, scale, tau, patches", [
        # rows near 2^-500 have squares that are normal numbers
        (centred(generate_quadratic(3, 1.0, 4.0, seed=0)), HB, 1.0, 2.0 ** -500, {}),
        # lambda z^2 is a normal number at lambda = 1e300 and z = 1e-280
        (HUGE, NAG, 1e-280, trace_module._TAU, {"_LAMBDA_MAX": math.inf}),
    ], ids=["tau", "lambda"])
    def test_a_looser_rule_moves_a_column(self, p, kind, scale, tau, patches):
        spec = optimal_hyperparams(kind, p.lipschitz / 4, p.lipschitz)
        x0 = scale * offset_start(p, seed=1)
        plain, loose = (self.outcome(p, [spec], x0, 1200, tau=0.0),
                        self.outcome(p, [spec], x0, 1200, tau=tau, **patches))
        assert self.columns(loose[0]) != self.columns(plain[0])

    @pytest.mark.parametrize("loose_certificate", [False, True])
    def test_a_coordinate_above_the_rate_is_never_zeroed(self, loose_certificate):
        # HB alpha 0.03, beta 0.2 on [1, 100]: the top coordinates have a real
        # root beyond -1.6 and diverge from 1e-280, while those with rate at
        # most 1 - delta are zeroed from row 1.  A certificate with
        # tolerance 1 reads the top rate as |a| / 2 = 0.9: the engine takes
        # its radius from (a, b) instead
        p = centred(generate_quadratic(50, 1.0, 100.0, seed=0))
        spec = MethodSpec(HB, alpha=0.03, beta=0.2)
        cert = analyze(spec, p.eigvals, tol=1.0) if loose_certificate else analyze(spec, p.eigvals)
        x0 = 1e-280 * offset_start(p, seed=1)
        (tr,), (on,) = self.outcome(p, [cert], x0, 5000)
        (plain,), (off,) = self.outcome(p, [cert], x0, 5000, tau=0.0)
        assert tr.diverged and len(tr) > trace_module._CHUNK
        assert self.columns([tr]) == self.columns([plain])
        a, b = coefficient_arrays(spec, p.eigvals)
        rho = np.array([np.abs(np.roots([1.0, -ai, -bi])).max() for ai, bi in zip(a, b)])
        settles = rho <= 1 - trace_module._DELTA
        assert rho[-1] > 1.6 and settles.any() and not settles.all()
        assert (cert.per_coordinate.rate[-1] < 1) == loose_certificate
        assert on[:, ~settles].tobytes() == off[:, ~settles].tobytes()
        assert not on[1:, settles].any() and off[1:, settles].any()
        # every coordinate let settle: the top ones are zeroed too, and the
        # run no longer diverges
        (zeroed,), _ = self.outcome(p, [cert], x0, 5000, _DELTA=-math.inf)
        assert not zeroed.diverged


class TestCertificateRuns:
    """A quadratic run steps the (a, b) of its certificate: a spec and its
    certificate give the same bits, and the trace carries that certificate."""

    @given(p=spectra(), explicit=method_specs(), tuned=st.booleans(),
           iters=st.integers(3, 60))
    def test_a_spec_and_its_certificate_run_alike(self, p, explicit, tuned, iters):
        # tuned for at most a 100-fold spread: an explicit spec covers the rest
        spec = (optimal_hyperparams(explicit.kind, max(p.mu, p.lipschitz / 100), p.lipschitz)
                if tuned else explicit)
        cert = analyze(spec, p.eigvals)
        x0 = offset_start(p, seed=1)
        by_spec, by_cert = run_trace(p, spec, x0, iters), run_trace(p, cert, x0, iters)
        for name in ("objective_gap", "distance", "lyapunov"):
            assert getattr(by_spec, name).tobytes() == getattr(by_cert, name).tobytes()
        assert by_spec.diverged == by_cert.diverged and by_cert.certificate is cert
        got, want = by_spec.certificate.per_coordinate, cert.per_coordinate
        assert got.dtype.names == want.dtype.names
        for name in want.dtype.names:
            assert got[name].tobytes() == want[name].tobytes()
        assert by_spec.certificate.method == spec
        assert by_spec.certificate.spectral_radius == cert.spectral_radius
        assert by_spec.certificate.eligible == cert.eligible

        # a certificate of another spectrum is refused, and so is one on an objective
        for lam in (np.nextafter(p.eigvals, np.inf), p.eigvals[:-1], np.append(p.eigvals, 1e3)):
            if lam.shape[0]:
                with pytest.raises(ValueError, match="another spectrum"):
                    run_trace(p, analyze(spec, lam), x0, iters)
        obj = quadratic_objective(p)
        with pytest.raises(ValueError, match="quadratic runs only"):
            run_trace(obj, cert, x0, iters)
        assert run_trace(obj, spec, x0, iters).certificate is None

    def test_the_witness_runs_from_its_certificate(self):
        p = generate_quadratic(12, 1.0, 100.0, seed=0)
        cert = analyze(optimal_hyperparams(TMM, 1.0, 100.0), p.eigvals)
        _, tr, _ = find_tmm_witness(p, cert, 80)
        assert tr.certificate is cert


def list_reader_reference(path) -> dict:
    """The reader as it was: every stripped non-blank line in a list first;
    a row's iter is its index."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0].split(",") != ["iter", "objective_gap", "distance", "lyapunov"]:
        raise ValueError("not a trace CSV")
    gaps, dists, lyap = [], [], []
    for n, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError("malformed trace row")
        if float(parts[0]) != n:
            raise ValueError(f"trace row {n} has iter {parts[0].strip()}: rows are missing "
                             "or out of order")
        gaps.append(float(parts[1]))
        dists.append(float(parts[2]))
        lyap.append(float(parts[3]) if parts[3] else math.nan)
    return {"objective_gap": np.array(gaps), "distance": np.array(dists),
            "lyapunov": np.array(lyap)}


class TestReaderParity:
    """The line-by-line reader returns what the list-based one did, and
    fails on the same inputs with the same message."""

    HEAD = "iter,objective_gap,distance,lyapunov\n"

    @staticmethod
    def outcome(fn, path):
        try:
            return fn(path)
        except ValueError as exc:
            return (type(exc), str(exc))

    def assert_same(self, path):
        got, want = self.outcome(read_trace_csv, path), self.outcome(list_reader_reference, path)
        if isinstance(want, tuple):
            assert got == want
            return want
        assert list(got) == list(want)
        for key in want:
            assert got[key].dtype == want[key].dtype
            assert np.array_equal(got[key], want[key], equal_nan=True)
        return got

    @pytest.mark.parametrize("case", ["converging", "diverged", "objective", "short"])
    def test_exported_traces(self, tmp_path, case):
        p = generate_quadratic(5, 1.0, 50.0, seed=6)
        spec = optimal_hyperparams(NAG, 1.0, 50.0)
        if case == "diverged":
            tr = run_trace(p, MethodSpec(HB, alpha=3.0, beta=0.5), offset_start(p), 900)
        elif case == "objective":
            tr = run_trace(quadratic_objective(p), spec, offset_start(p), 700)
        else:
            tr = run_trace(p, spec, offset_start(p), 3 if case == "short" else 1500)
        path = tmp_path / "t.csv"
        export_csv(tr, path)
        got = self.assert_same(path)
        assert np.array_equal(got["lyapunov"], tr.lyapunov, equal_nan=True)
        assert np.array_equal(got["distance"], tr.distance)

    @pytest.mark.parametrize("text", [
        "",
        "\n\n",
        "x,y\n1,2\n",
        "iter,objective_gap,distance\n0,1,1\n",
        HEAD,
        "\n" + HEAD + "0,1,1,\n\n1,1,1,\n   \n2,1,1,1\n\n",
        HEAD + "0,1,1,\n1,1,1\n2,1,1,1\n",
        HEAD + "0,1,1,\n1,1,1,,\n",
        HEAD + "0,1,1,\n1,1,one,\n",
        HEAD + "0,1,1,\n1,1,1,\n2,1,1,0.5\n3,1,1,\n4,1,1,0.25\n",
        HEAD + "0,1,1,\n1,1,1,\n2,1,1,0.5\n3,1,1,nan\n4,1,1,0.25\n",
        HEAD + "0,1,1,\r\n1,1,1,\r\n 2, 1,1,0.5 \r\n",
        HEAD + "0,1,1,\n1,1,1,\n2,1,1,0.5,9\n",
        HEAD + "".join(f"{k},1,1,{'' if k < 2 else 1.0 / k}\n" for k in range(50)
                       if not 10 < k < 21),
        HEAD + "0,1,1,\n2,1,1,0.5\n3,1,1,0.25\n",
        HEAD + "0,1,1,\n1,1,1,\n1,1,1,0.5\n",
        HEAD + "0,1,1,\n1.5,1,1,\n",
    ], ids=["empty", "blank-lines-only", "foreign-header", "short-header",
            "header-only", "blank-lines", "ragged-short", "ragged-long",
            "bad-number", "empty-cell-after-v", "nan-cell-after-v", "crlf-spaces",
            "wide-row-with-v", "rows-missing", "row-1-missing", "row-repeated",
            "fractional-iter"])
    def test_hand_written_files(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        self.assert_same(path)

    @classmethod
    def chunks(cls, *rows):
        """HEAD and then, for each row pattern in ``rows``, the lines of one
        chunk of the reader (``readlines(1 << 14)`` ends a chunk with the line
        that takes it past 16 KB), and the index of the next row."""
        text, k = cls.HEAD, 0
        for row in rows:
            size = 0
            while size <= 1 << 14:
                line = row.format(k)
                text, size, k = text + line, size + len(line), k + bool(line.strip())
        return text, k

    # the line parser reads the first chunk (no V yet) and numpy's parser the
    # second; a later chunk holds what numpy's parser cannot read as rows of
    # four numbers
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows, tail, skip", [
        (("{},1,1,\n", "{},1,1,0.5\n"), "{},1,1,\n{},1,1,0.25\n", 0),
        (("{},1,1,\n", "{},1,1,0.5\n", "{},1,1,0.5,9\n"), "", 0),
        (("{},1,1,\n", "{},1,1,0.5\n"), "{},1,1,0.5\n{},1,x,0.25\n", 0),
        (("{},1,1,\n", "{},1,1,0.5\n", "\n"), "{},1,1,0.25\n", 0),
        (("{},1,1,\n", "{},1,1,0.5\n"), "{},1,1,0.5\n{},1,1,0.25\n", 1),
    ], ids=["empty-v-cell", "wide-rows", "bad-number", "blank-chunk", "row-skipped"])
    def test_later_chunks(self, tmp_path, rows, tail, skip):
        # the tail's rows are numbered on from the chunks', ``skip`` rows past
        text, k = self.chunks(*rows)
        path = tmp_path / "t.csv"
        path.write_bytes((text + tail.format(k + skip, k + skip + 1)).encode("utf-8"))
        self.assert_same(path)

    def test_cell_after_first_v_fails_check(self, tmp_path):
        for cell in ("", "nan"):
            path = tmp_path / "t.csv"
            path.write_text(self.HEAD + "0,1,1,\n1,1,1,\n2,1,1,0.5\n"
                            f"3,1,1,{cell}\n4,1,1,0.25\n", encoding="utf-8")
            rep, _ = trace_module._scan_csv(path)
            # the series starts at row 2: the steps into and out of row 3
            assert not rep.monotone and rep.index.tolist() == [2, 3]


class TestTraceReport:
    """``Trace.report`` is ``lyapcert run``'s scan fed the trace's whole
    columns: on either target, in any batch, it is the report of the
    trace's V series fed once (``reference.check_monotone``), to the bit."""

    @staticmethod
    def assert_reports(target, specs, x0, iters, x1=None):
        traces = []
        try:  # the traces of the runs before one that fails
            traces.extend(trace_module._run_traces(target, specs, x0, iters, x1=x1))
        except ValueError:
            pass
        for tr in traces:
            want = check_monotone(tr.lyapunov[2:], tr.distance)
            assert report_bits(tr.report) == report_bits(want)
            assert tr.report is tr.report  # judged once

    # up to 5000 rows: whole pieces of the scan and a part of one
    @given(specs=st.lists(method_specs(), min_size=1, max_size=4),
           iters=st.integers(3, 5000), x1=st.booleans(), scale=st.floats(0.1, 20.0))
    def test_quadratic(self, specs, iters, x1, scale):
        p = TestBatchedRuns.QUADRATIC
        self.assert_reports(p, specs, offset_start(p, seed=1, scale=scale), iters,
                            offset_start(p, seed=2) if x1 else None)

    @given(specs=st.lists(method_specs(), min_size=1, max_size=4),
           iters=st.integers(3, 600), x1=st.booleans(), scale=st.floats(0.05, 3.0),
           make=st.sampled_from([cosine_counterexample, exp_norm_objective,
                                 rosenbrock_objective]))
    def test_objective(self, specs, iters, x1, scale, make):
        obj = make()
        way = np.array([0.6, -0.8])[:obj.minimizer.shape[0]]
        self.assert_reports(obj, specs, obj.minimizer + scale * way, iters,
                            obj.minimizer + scale * way[::-1] if x1 else None)

    @pytest.mark.parametrize("far, row", [("x0", 0), ("x1", 1)])
    def test_run_cut_before_v_raises(self, far, row):
        # a start beyond the divergence threshold ends the run before row 2
        p = TestBatchedRuns.QUADRATIC
        near, beyond = offset_start(p), offset_start(p, scale=1e13)
        x0, x1 = (beyond, None) if far == "x0" else (near, beyond)
        tr = run_trace(p, optimal_hyperparams(HB, 1.0, 10.0), x0, 50, x1=x1)
        assert tr.diverged and len(tr) == row + 1
        with pytest.raises(ValueError, match=f"diverged at row {row}, before V is defined"):
            tr.report
