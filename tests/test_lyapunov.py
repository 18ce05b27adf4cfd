import math

import numpy as np
import pytest

from lyapcert import (HB, NAG, LyapunovSeries, MethodSpec, MonotonicityReport,
                      analyze, check_monotone, coefficient_arrays,
                      generate_quadratic, optimal_hyperparams, run_trace)
from conftest import peak_bytes, random_eligible_coeffs
from reference import per_coordinate_V, scalar_V, vector_V


def iterate_scalar(a, b, x0, x1, steps):
    xs = [x0, x1]
    for _ in range(steps):
        xs.append(a * xs[-1] + b * xs[-2])
    return xs


class TestScalarV:
    def test_zero_point(self):
        assert scalar_V(0.0, 0.0, 0.0) == 0.0

    def test_hand_trajectory(self):
        # x_{k+1} = (2/9) x_k - (1/9) x_{k-1} from x_{-1} = x_0 = 1:
        # 1, 1, 1/9, -7/81, -23/729; V contracts by exactly 1/9
        a, b = 2.0 / 9.0, -1.0 / 9.0
        xs = iterate_scalar(a, b, 1.0, 1.0, 3)
        assert xs[2] == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert xs[3] == pytest.approx(-7.0 / 81.0, rel=1e-15)
        assert xs[4] == pytest.approx(-23.0 / 729.0, rel=1e-15)
        v2 = scalar_V(xs[3], xs[2], xs[1])
        v3 = scalar_V(xs[4], xs[3], xs[2])
        assert v2 == pytest.approx(8.0 / 81.0, rel=1e-14)
        assert v3 == pytest.approx(8.0 / 729.0, rel=1e-14)
        assert v3 / v2 == pytest.approx(1.0 / 9.0, rel=1e-13)

    def test_can_be_negative(self):
        assert scalar_V(1.0, 0.0, 1.0) == -1.0


class TestPerCoordinateV:
    def test_zeros(self):
        v = per_coordinate_V(np.zeros(3), np.zeros(3), np.zeros(3))
        assert np.array_equal(v, np.zeros(3))

    def test_stationary_pair(self):
        x = np.array([1.0, 0.0])
        assert np.array_equal(per_coordinate_V(x, x, x), np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            per_coordinate_V(np.zeros(3), np.zeros(2), np.zeros(3))

    def test_every_coordinate_contracts_at_minus_b(self, rng):
        p = generate_quadratic(10, 1.0, 4.0, seed=3)
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        a, b = coefficient_arrays(spec, p.eigvals)
        assert np.allclose(-b, spec.beta, rtol=0, atol=0)
        cur = rng.standard_normal(10)
        prev = cur
        rows = [cur]
        for _ in range(12):
            cur, prev = a * cur + b * prev, cur
            rows.append(cur)
        for k in range(2, len(rows) - 1):
            v_k = per_coordinate_V(rows[k], rows[k - 1], rows[k - 2])
            v_k1 = per_coordinate_V(rows[k + 1], rows[k], rows[k - 1])
            assert np.allclose(v_k1, -b * v_k, rtol=1e-12, atol=1e-14)


class TestVectorV:
    def test_at_minimizer(self):
        xs = np.array([2.0, -1.0, 0.5])
        assert vector_V(xs, xs, xs, xs) == 0.0

    def test_one_dimension_reduces_to_scalar(self):
        v = vector_V(np.array([3.0]), np.array([2.0]), np.array([5.0]),
                     np.array([0.0]))
        assert v == scalar_V(3.0, 2.0, 5.0)

    def test_rotation_invariance(self, rng):
        # the value is a sum of inner products, so any orthonormal basis
        # around x* gives the same number
        for _ in range(20):
            d = 6
            m = rng.standard_normal((d, d))
            q, _ = np.linalg.qr(m)
            xs = rng.standard_normal(d)
            x2, x1, x0 = (rng.standard_normal(d) for _ in range(3))
            direct = vector_V(x2, x1, x0, xs)
            rotated = float(np.sum(per_coordinate_V(
                q.T @ (x2 - xs), q.T @ (x1 - xs), q.T @ (x0 - xs))))
            assert direct == pytest.approx(rotated, rel=1e-10, abs=1e-10)


class TestContractionFactor:
    """V's one-step factor is -b; on a conjugate-pair coordinate of a
    certificate it equals the squared modulus, rate^2."""

    @staticmethod
    def coordinate(alpha, beta, lam):
        return analyze(MethodSpec(HB, alpha=alpha, beta=beta), np.array([lam])).per_coordinate[0]

    def test_hand_value(self):
        # HB alpha = 4/9, beta = 1/9 at lambda = 2: (a, b) = (2/9, -1/9)
        r = self.coordinate(4.0 / 9.0, 1.0 / 9.0, 2.0)
        assert r.conjugate_pair
        assert -r.b == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert r.rate ** 2 == pytest.approx(-r.b, rel=1e-14)

    def test_boundary_rotation(self):
        # alpha lambda = 2, beta = 1: (a, b) = (0, -1), eigenvalues +-i
        r = self.coordinate(1.0, 1.0, 2.0)
        assert (r.a, r.b, r.rate) == (0.0, -1.0, 1.0)
        assert r.conjugate_pair

    def test_rejects_real_roots(self):
        # alpha lambda = 1.5, beta = 0: (a, b) = (-0.5, 0), real roots
        r = self.coordinate(1.0, 0.0, 1.5)
        assert (r.a, r.b) == (-0.5, 0.0)
        assert not r.conjugate_pair

    def test_hb_factor_is_beta_at_every_curvature(self):
        spec = MethodSpec(HB, alpha=0.15, beta=0.5)
        r = analyze(spec, np.array([1.0, 3.0, 7.0, 10.0])).per_coordinate
        assert r.conjugate_pair.all()
        assert np.array_equal(-r.b, np.full(4, 0.5))
        assert np.allclose(r.rate ** 2, 0.5, rtol=1e-15, atol=0.0)


class TestCheckMonotone:
    def test_geometric_is_monotone(self):
        vals = 2.0 * 0.5 ** np.arange(20)
        rep = check_monotone(LyapunovSeries(values=vals))
        assert rep.monotone
        assert rep.index.size == rep.excess.size == 0
        assert rep.max_ratio == pytest.approx(0.5, rel=1e-12)
        assert "yes" in rep.describe()

    def test_single_violation(self):
        rep = check_monotone(LyapunovSeries(values=np.array([1.0, 2.0])))
        assert not rep.monotone
        assert rep.index.tolist() == [2]
        assert rep.v_prev.tolist() == [1.0]
        assert rep.v_next.tolist() == [2.0]
        assert rep.excess.tolist() == [pytest.approx(1.0, abs=1e-8)]
        assert rep.max_ratio == pytest.approx(2.0)
        assert "NO" in rep.describe()

    def test_tolerance_band(self):
        inside = np.array([1.0, 1.0 + 5e-10])
        outside = np.array([1.0, 1.0 + 2e-9])
        assert check_monotone(LyapunovSeries(values=inside)).monotone
        assert not check_monotone(LyapunovSeries(values=outside)).monotone
        wide = LyapunovSeries(values=outside, tolerance=1e-6)
        assert check_monotone(wide).monotone

    def test_indices_respect_start(self):
        rep = check_monotone(LyapunovSeries(values=np.array([3.0, 1.0, 2.0]),
                                            start_index=5))
        assert rep.index.tolist() == [6]

    def test_max_ratio_over_positive_values(self):
        rep = check_monotone(LyapunovSeries(values=np.array([4.0, 2.0, 1.0])))
        assert rep.max_ratio == pytest.approx(0.5)
        nan_rep = check_monotone(LyapunovSeries(values=np.array([-1.0, -2.0])))
        assert math.isnan(nan_rep.max_ratio)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_not_monotone(self, bad):
        for vals in ([1.0, bad, 2.0], [bad, 1.0], [1.0, bad], [bad]):
            rep = check_monotone(LyapunovSeries(values=np.array(vals)))
            assert not rep.monotone, vals
            assert rep.describe().startswith("monotone decrease: NO"), vals
        rep = check_monotone(LyapunovSeries(values=np.array([1.0, bad, 0.5])))
        assert rep.index.tolist() == [2, 3]

    def test_peak_memory(self):
        # the allowed values, then the ratios, in one array of the series'
        # size, beside a few boolean masks (an eighth of it each); the
        # out-of-place arithmetic and fancy-indexed ratio operands once held
        # 3.4 times the series
        vals = np.exp(-np.arange(200_000) / 1e4)
        series = LyapunovSeries(values=vals)
        check_monotone(series)
        assert peak_bytes(lambda: check_monotone(series)) < 2 * vals.nbytes


def loop_check_monotone(series):
    """``check_monotone`` one step at a time, as a per-step reference."""
    v = series.values
    finite = np.isfinite(v)
    tol = series.tolerance
    flagged = []  # (index, v_prev, v_next, excess) of each flagged step
    max_ratio = math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(v.shape[0] - 1):
            allowed = v[j] + tol * max(1.0, abs(v[j])) if finite[j] else math.nan
            if v[j + 1] > allowed or not (finite[j] and finite[j + 1]):
                flagged.append((series.start_index + j, float(v[j]),
                                float(v[j + 1]), float(v[j + 1] - allowed)))
            if finite[j] and v[j] > 0:
                r = v[j + 1] / v[j]
                if math.isnan(max_ratio) or r > max_ratio:
                    max_ratio = r
    index, v_prev, v_next, excess = zip(*flagged) if flagged else ((),) * 4
    return MonotonicityReport(monotone=not flagged and bool(finite.all()),
                              index=np.array(index, dtype=np.intp),
                              v_prev=np.array(v_prev, dtype=float),
                              v_next=np.array(v_next, dtype=float),
                              excess=np.array(excess, dtype=float), max_ratio=max_ratio)


class TestCheckMonotoneMatchesLoop:
    """The vectorized check equals the per-step loop, bit for bit."""

    @staticmethod
    def columns(rep):
        """Each column's dtype and bytes: NaN equals NaN, -0.0 differs from 0.0."""
        cols = (rep.index, rep.v_prev, rep.v_next, rep.excess)
        assert all(isinstance(c, np.ndarray) and c.ndim == 1 for c in cols)
        return [(c.dtype, c.tobytes()) for c in cols]

    def assert_same(self, series):
        got, want = check_monotone(series), loop_check_monotone(series)
        assert got.monotone == want.monotone
        assert got.index.tolist() == want.index.tolist()
        assert self.columns(got) == self.columns(want)
        assert np.float64(got.max_ratio).tobytes() == np.float64(want.max_ratio).tobytes()
        assert got.describe() == want.describe()

    def test_random_series(self, rng):
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1e308, -1e308, 5e-324]
        for trial in range(400):
            n = int(rng.integers(1, 25))
            vals = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 3)
            if trial % 3:  # near-monotone runs: ratios near one, small increases
                vals = np.cumprod(rng.uniform(0.5, 1.0 + 1e-9, n)) * np.sign(vals[0])
            for j in rng.choice(n, size=int(rng.integers(0, 3)), replace=True):
                vals[j] = specials[int(rng.integers(len(specials)))]
            tol = [0.0, 1e-9, 0.5][trial % 3]
            self.assert_same(LyapunovSeries(values=vals, start_index=2 + trial % 4,
                                            tolerance=tol))

    @pytest.mark.parametrize("vals", [
        [1.0], [math.nan], [math.inf], [-1.0, -2.0, -3.0], [0.0, 0.0, 0.0],
        [2.0, 2.0, 2.0], [1.0, math.nan, 0.5], [math.nan, 1.0, 0.5],
        [1.0, 0.5, math.nan], [math.inf, 1.0, 0.5], [1.0, 0.5, -math.inf],
        [1.0, math.inf, 0.5], [4.0, math.nan, 2.0, 1.0], [2.0, math.nan, 1.0, 3.0],
        [-0.0, 0.0], [1.0, -0.0, 0.0], [1.0, 0.0, 2.0, -0.0], [1.0, -0.0, 2.0, 0.0],
        [1e308, 1e308, -1e308], [1e-300, 1e300], [5e-324, 1.0],
    ])
    def test_edge_series(self, vals):
        for tol in (0.0, 1e-9):
            self.assert_same(LyapunovSeries(values=np.array(vals), tolerance=tol))

    def test_many_flagged_steps(self, rng):
        # a rise at every even step: 1e5 flagged steps, held as columns
        vals = np.tile([1.0, 2.0], 100_000) * rng.uniform(0.9, 1.1, 200_000)
        rep = check_monotone(LyapunovSeries(values=vals))
        for col in (rep.index, rep.v_prev, rep.v_next, rep.excess):
            assert isinstance(col, np.ndarray) and col.shape == (100_000,)
        assert np.array_equal(rep.index, np.arange(2, 200_001, 2))
        self.assert_same(LyapunovSeries(values=vals))


class TestContractionIdentity:
    def test_holds_for_arbitrary_coefficients(self, rng):
        # V_{k+1} = -b V_k is algebraic: no eligibility needed
        for _ in range(1000):
            a = rng.uniform(-2.0, 2.0)
            b = rng.uniform(-1.5, 1.5)
            x0, x1 = rng.uniform(-5.0, 5.0, size=2)
            xs = iterate_scalar(a, b, x0, x1, 6)
            scale = max(1.0, max(x * x for x in xs))
            for k in range(2, len(xs) - 1):
                v_k = scalar_V(xs[k], xs[k - 1], xs[k - 2])
                v_k1 = scalar_V(xs[k + 1], xs[k], xs[k - 1])
                assert abs(v_k1 - (-b) * v_k) <= 1e-12 * scale

    def test_exact_on_integer_trajectories(self, rng):
        # small integers keep every product exact in floating point
        for _ in range(200):
            a = float(rng.integers(-3, 4))
            b = float(rng.integers(-3, 4))
            x0 = float(rng.integers(-5, 6))
            x1 = float(rng.integers(-5, 6))
            xs = iterate_scalar(a, b, x0, x1, 4)
            for k in range(2, len(xs) - 1):
                v_k = scalar_V(xs[k], xs[k - 1], xs[k - 2])
                v_k1 = scalar_V(xs[k + 1], xs[k], xs[k - 1])
                assert v_k1 == -b * v_k

    def test_nonnegative_under_eligibility_from_rest(self, rng):
        # from an equal start V_2 = (-b)(1 - a - b) x0^2 >= 0 whenever the
        # pair is conjugate, and the sign then persists
        for _ in range(300):
            a, b = random_eligible_coeffs(rng)
            x0 = rng.uniform(-5.0, 5.0)
            xs = iterate_scalar(a, b, x0, x0, 50)
            scale = max(1.0, max(x * x for x in xs))
            for k in range(2, len(xs)):
                assert scalar_V(xs[k], xs[k - 1], xs[k - 2]) >= -1e-12 * scale

    def test_eligible_pair_gives_monotone_series(self, rng):
        for _ in range(50):
            a, b = random_eligible_coeffs(rng)
            x0 = rng.uniform(-5.0, 5.0)
            xs = iterate_scalar(a, b, x0, x0, 500)
            vals = np.array([scalar_V(xs[k], xs[k - 1], xs[k - 2])
                             for k in range(2, len(xs))])
            assert check_monotone(LyapunovSeries(values=vals)).monotone


class TestVectorRates:
    def test_hb_total_v_contracts_at_beta(self):
        p = generate_quadratic(8, 1.0, 4.0, seed=11)
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        rng = np.random.default_rng(0)
        x0 = p.minimizer + rng.standard_normal(8)
        tr = run_trace(p, spec, x0, 60)
        v = tr.lyapunov[2:]
        for k in range(v.shape[0] - 1):
            if v[k] > 1e-250:
                assert v[k + 1] == pytest.approx(spec.beta * v[k], rel=1e-10)

    def test_mixed_spectrum_ratio_approaches_slowest_mode(self):
        # NAG coefficients vary with curvature; the total V ratio settles on
        # the largest -b across coordinates
        p = generate_quadratic(5, 1.0, 10.0, seed=2)
        spec = MethodSpec(NAG, alpha=0.1, beta=0.6)
        _, b = coefficient_arrays(spec, p.eigvals)
        slowest = float(np.max(-b))
        assert slowest == pytest.approx(0.54, rel=1e-12)
        rng = np.random.default_rng(1)
        x0 = p.minimizer + rng.standard_normal(5)
        tr = run_trace(p, spec, x0, 80)
        v = tr.lyapunov
        assert v[79] / v[78] == pytest.approx(slowest, abs=1e-3)


class TestLyapunovSeriesValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LyapunovSeries(values=np.array([]))

    def test_rejects_early_start(self):
        with pytest.raises(ValueError):
            LyapunovSeries(values=np.array([1.0]), start_index=1)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            LyapunovSeries(values=np.array([1.0]), tolerance=-1e-9)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        # a NaN or infinite allowance would pass every step, 1 -> 5 -> 9 too
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            LyapunovSeries(values=np.array([1.0, 5.0, 9.0]), tolerance=tol)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            LyapunovSeries(values=np.ones((2, 2)))
