import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from lyapcert import (HB, KINDS, NAG, NAGGS, TMM, MethodSpec, MonotonicityReport, analyze,
                      coefficient_arrays, generate_quadratic, optimal_hyperparams, run_trace)
from lyapcert.lyapunov import _MonotoneScan
from lyapcert.methods import _family
from conftest import peak_bytes, random_eligible_coeffs
from reference import check_monotone, per_coordinate_V, report_bits, scalar_V, vector_V


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


def flat(vals, start_index=2):
    """The series of ``vals`` with every distance 0, as ``check_monotone``'s
    arguments: the slack is tiny alone."""
    vals = np.asarray(vals, dtype=float)
    return vals, np.zeros(vals.shape[0] + 2), start_index


class TestCheckMonotone:
    def test_geometric_is_monotone(self):
        vals = 2.0 * 0.5 ** np.arange(20)
        rep = check_monotone(*flat(vals))
        assert rep.monotone
        assert rep.index.size == rep.excess.size == rep.left_out == 0
        assert rep.max_ratio == pytest.approx(0.5, rel=1e-12)
        assert "yes" in rep.describe()

    def test_single_violation(self):
        rep = check_monotone(*flat([1.0, 2.0]))
        assert not rep.monotone
        assert rep.index.tolist() == [2]
        assert rep.v_prev.tolist() == [1.0]
        assert rep.v_next.tolist() == [2.0]
        assert rep.excess.tolist() == [pytest.approx(1.0, abs=1e-8)]
        assert rep.max_ratio == pytest.approx(2.0)
        assert "NO" in rep.describe()

    def test_tolerance_band(self):
        # with every distance 1 the slack is 4 * 32 * u (+ tiny): 64 eps
        eps = np.finfo(float).eps
        assert check_monotone([1.0, 1.0 + 64 * eps], np.ones(4)).monotone
        assert check_monotone([1.0, 1.0 + 66 * eps], np.ones(4)).index.tolist() == [2]

    def test_small_rises_are_flagged(self):
        # a fixed floor of 1e-9 let this series pass; its distances make
        # the slack about 1e-25
        vals = [1e-10, 2e-10, 8e-10]
        for dist in (np.zeros(5), np.sqrt([1e-10, 1e-10, 1e-10, 2e-10, 8e-10])):
            rep = check_monotone(vals, dist)
            assert not rep.monotone and rep.index.tolist() == [2, 3]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_distance_fails(self, bad):
        # every step whose slack reads the distance is flagged, with a nan
        # excess: no NaN slack lets a step pass quietly
        for at, steps in ((0, [2]), (2, [2, 3]), (4, [3])):
            dist = np.ones(5)
            dist[at] = bad
            rep = check_monotone([4.0, 2.0, 1.0], dist)
            assert not rep.monotone and rep.index.tolist() == steps
            assert np.isnan(rep.excess).all()
            assert rep.describe().startswith("monotone decrease: NO")
        one = check_monotone([1.0], [1.0, bad, 1.0])
        assert one.describe() == "monotone decrease: NO (non-finite V or distance)"

    def test_rate_leaves_out_values_within_roundoff(self):
        # V at 1e-30 sits below the slack of distances near 1: its ratio is
        # roundoff, left out of the rate and counted
        vals = [1.0, 0.5, 0.25, 1e-30, 5e-31]
        rep = check_monotone(vals, np.ones(7))
        assert rep.monotone and rep.max_ratio == 0.5 and rep.left_out == 1
        assert rep.describe() == ("monotone decrease: yes (max ratio 0.5 over positive values, "
                                  "1 step within roundoff left out)")

    def test_indices_respect_start(self):
        rep = check_monotone(*flat([3.0, 1.0, 2.0], start_index=5))
        assert rep.index.tolist() == [6]

    def test_max_ratio_over_positive_values(self):
        rep = check_monotone(*flat([4.0, 2.0, 1.0]))
        assert rep.max_ratio == pytest.approx(0.5)
        nan_rep = check_monotone(*flat([-1.0, -2.0]))
        assert math.isnan(nan_rep.max_ratio)

    @pytest.mark.parametrize("series,line", [
        (flat([-1.0, -2.0]), "yes (no step counted for a max ratio)"),
        (([1e-30, 5e-31], np.ones(4)),
         "yes (no step counted for a max ratio, 1 step within roundoff left out)"),
        (flat([math.inf, 0.5]), "NO (1 violation); first at k=2: V=inf -> 0.5 (excess nan); "
                                "no step counted for a max ratio"),
    ], ids=["yes", "yes-left-out", "NO"])
    def test_no_counted_step_reads_no_nan(self, series, line):
        # every V_k is within roundoff, negative or not finite: no ratio
        rep = check_monotone(*series)
        assert math.isnan(rep.max_ratio)
        assert rep.describe() == f"monotone decrease: {line}"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_not_monotone(self, bad):
        for vals in ([1.0, bad, 2.0], [bad, 1.0], [1.0, bad], [bad]):
            rep = check_monotone(*flat(vals))
            assert not rep.monotone, vals
            assert rep.describe().startswith("monotone decrease: NO"), vals
        rep = check_monotone(*flat([1.0, bad, 0.5]))
        assert rep.index.tolist() == [2, 3]

    def test_peak_memory(self):
        # the slack, then the allowed values, then the ratios, in one array
        # of the series' size, beside a few boolean masks (an eighth of it
        # each); the out-of-place arithmetic and fancy-indexed ratio
        # operands once held 3.4 times the series
        vals = np.exp(-np.arange(200_000) / 1e4)
        dist = np.exp(-np.arange(-2, 200_000) / 2e4)
        check_monotone(vals, dist)
        assert peak_bytes(lambda: check_monotone(vals, dist)) < 2 * vals.nbytes


_C, _U, _TINY = 32, float(np.finfo(float).eps) / 2, float(np.finfo(float).tiny)


def slack(d):
    """The slack of a step from its four distances d_{k-2} .. d_{k+1}, one
    Python float at a time: 4 C u max(d)^2 + tiny, NaN when one is NaN."""
    if any(map(math.isnan, d)):
        return math.nan
    m = max(d)
    return m * m * (4 * _C * _U) + _TINY


def loop_check_monotone(values, distance, start_index=2):
    """``check_monotone`` one step at a time, as a per-step reference: the
    count of flagged steps and the first ten of them."""
    v, d = np.asarray(values, dtype=float).tolist(), np.asarray(distance, dtype=float).tolist()
    finite = list(map(math.isfinite, v))
    flagged = []  # (index, v_prev, v_next, excess) of each flagged step
    max_ratio, left_out = math.nan, 0
    for j in range(len(v) - 1):
        s = slack(d[j:j + 4])
        judged = finite[j] and math.isfinite(s)
        allowed = v[j] + s if judged else math.nan
        if v[j + 1] > allowed or not (judged and finite[j + 1]):
            flagged.append((start_index + j, v[j], v[j + 1], v[j + 1] - allowed))
        if judged and 0 < v[j] <= s:
            left_out += 1
        if judged and v[j] > s and not math.isnan(v[j + 1]):
            r = v[j + 1] / v[j]
            if math.isnan(max_ratio) or r > max_ratio:
                max_ratio = r
    index, v_prev, v_next, excess = zip(*flagged[:10]) if flagged else ((),) * 4
    monotone = not flagged and all(finite) and all(map(math.isfinite, d))
    return MonotonicityReport(monotone=monotone, count=len(flagged),
                              index=np.array(index, dtype=np.intp),
                              v_prev=np.array(v_prev, dtype=float),
                              v_next=np.array(v_next, dtype=float),
                              excess=np.array(excess, dtype=float), max_ratio=max_ratio,
                              left_out=left_out)


class TestCheckMonotoneMatchesLoop:
    """The vectorized check equals the per-step loop, bit for bit."""

    @staticmethod
    def columns(rep):
        """Each column's dtype and bytes: NaN equals NaN, -0.0 differs from 0.0."""
        cols = (rep.index, rep.v_prev, rep.v_next, rep.excess)
        assert all(isinstance(c, np.ndarray) and c.ndim == 1 for c in cols)
        return [(c.dtype, c.tobytes()) for c in cols]

    def assert_same(self, *series):
        got, want = check_monotone(*series), loop_check_monotone(*series)
        assert got.monotone == want.monotone
        assert got.count == want.count
        assert got.index.tolist() == want.index.tolist()
        assert self.columns(got) == self.columns(want)
        assert np.float64(got.max_ratio).tobytes() == np.float64(want.max_ratio).tobytes()
        assert got.left_out == want.left_out
        assert got.describe() == want.describe()

    def test_random_series(self, rng):
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1e308, -1e308, 5e-324]
        for trial in range(400):
            n = int(rng.integers(1, 25))
            scale = 10.0 ** rng.uniform(-12, 3)
            vals = rng.standard_normal(n) * scale
            if trial % 3:  # near-monotone runs: ratios near one, small increases
                vals = np.cumprod(rng.uniform(0.5, 1.0 + 1e-13, n)) * np.sign(vals[0]) * scale
            for j in rng.choice(n, size=int(rng.integers(0, 3)), replace=True):
                vals[j] = specials[int(rng.integers(len(specials)))]
            # distances near sqrt(|V|) / sqrt(eps), where V is all cancellation
            dist = rng.uniform(0.0, 1.0, n + 2) * math.sqrt(scale) * 10.0 ** rng.uniform(0, 8)
            for j in rng.choice(n + 2, size=int(rng.integers(0, 2)), replace=True):
                dist[j] = [math.nan, math.inf, 0.0, 1e200][int(rng.integers(4))]
            self.assert_same(vals, dist, 2 + trial % 4)

    @pytest.mark.parametrize("vals", [
        [1.0], [math.nan], [math.inf], [-1.0, -2.0, -3.0], [0.0, 0.0, 0.0],
        [2.0, 2.0, 2.0], [1.0, math.nan, 0.5], [math.nan, 1.0, 0.5],
        [1.0, 0.5, math.nan], [math.inf, 1.0, 0.5], [1.0, 0.5, -math.inf],
        [1.0, math.inf, 0.5], [4.0, math.nan, 2.0, 1.0], [2.0, math.nan, 1.0, 3.0],
        [-0.0, 0.0], [1.0, -0.0, 0.0], [1.0, 0.0, 2.0, -0.0], [1.0, -0.0, 2.0, 0.0],
        [1e308, 1e308, -1e308], [1e-300, 1e300], [5e-324, 1.0],
    ])
    def test_edge_series(self, vals):
        for d in (0.0, 1.0, 1e-150, 1e160):
            self.assert_same(vals, np.full(len(vals) + 2, d))

    def test_many_flagged_steps(self, rng):
        # a rise at every even step: 1e5 flagged steps, counted, the first
        # ten held as columns
        vals = np.tile([1.0, 2.0], 100_000) * rng.uniform(0.9, 1.1, 200_000)
        rep = check_monotone(*flat(vals))
        assert rep.count == 100_000
        for col in (rep.index, rep.v_prev, rep.v_next, rep.excess):
            assert isinstance(col, np.ndarray) and col.shape == (10,)
        assert np.array_equal(rep.index, np.arange(2, 22, 2))
        assert rep.v_prev.tolist() == vals[:20:2].tolist()
        assert rep.v_next.tolist() == vals[1:20:2].tolist()
        self.assert_same(*flat(vals))


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1.0]
# values that flag some steps and pass others, ratios and left-out steps included
CELL = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3), st.floats(0.0, 1e-20))
DIST = st.one_of(st.sampled_from(SPECIAL).map(abs), st.floats(0.0, 1e3))


class TestScanSplits:
    """``_MonotoneScan`` fed the rows of a series in any blocks gives the
    report of the series fed whole (``check_monotone``), to the bit: the
    scan carries the last V and the last three distances across a split."""

    @staticmethod
    def fed(scan, v, d, cuts):
        for a, b in zip([0] + cuts, cuts + [len(v)]):
            scan.feed(np.array(v[a:b], dtype=float), np.array(d[a:b], dtype=float))
        return scan.report()

    @given(vals=st.lists(CELL, min_size=1, max_size=40), falling=st.booleans(),
           start=st.integers(2, 6), data=st.data())
    def test_any_split_gives_the_report(self, vals, falling, start, data):
        if falling:  # mostly decreasing: many steps pass and count for a ratio
            vals = sorted(vals, key=abs, reverse=True)
        dist = data.draw(st.lists(DIST, min_size=len(vals) + 2, max_size=len(vals) + 2))
        want = report_bits(check_monotone(vals, dist, start_index=start))
        # rows s-2 and s-1 carry a distance alone, the rows before them
        # nothing; cuts may fall on any of them
        v = [math.nan] * start + vals
        d = [math.nan] * (start - 2) + dist
        cuts = sorted(data.draw(st.lists(st.integers(0, len(v)), max_size=6)))
        assert report_bits(self.fed(_MonotoneScan(start), v, d, cuts)) == want

    @pytest.mark.parametrize("vals", [[1.0, 0.0, 1.0, -0.0], [1.0, -0.0, 1.0, 0.0]])
    def test_equal_maxima_keep_the_first(self, vals):
        # ratios 0.0 and -0.0 are equal maxima: the first one's sign is kept
        # whichever block holds each
        series = flat(vals)
        want = report_bits(check_monotone(*series))
        assert want[3] == np.float64(vals[1]).tobytes()
        v = [math.nan, math.nan] + vals
        for cut in range(len(v) + 1):
            assert report_bits(self.fed(_MonotoneScan(2), v, series[1], [cut])) == want

    @given(vals=st.lists(CELL, min_size=1, max_size=30).filter(lambda v: not math.isnan(v[0])),
           lead=st.integers(2, 12), data=st.data())
    def test_first_defined_v_starts_the_series(self, vals, lead, data):
        # ``lyapcert check``'s rule: the rows before the first defined V
        # give only the two distances before it, whatever the others hold
        dist = data.draw(st.lists(DIST, min_size=lead + len(vals), max_size=lead + len(vals)))
        want = report_bits(check_monotone(vals, dist[lead - 2:], start_index=lead))
        v = [math.nan] * lead + vals
        cuts = sorted(data.draw(st.lists(st.integers(0, len(v)), max_size=6)))
        scan = _MonotoneScan()
        assert report_bits(self.fed(scan, v, dist, cuts)) == want
        assert scan.start == lead and np.float64(dist[-1]).tobytes() == scan.d[-1].tobytes()


def eligible_run(a, b, x0, x1, steps):
    """V and distance of x_{k+1} = a x_k + b x_{k-1} on one coordinate, from
    x_{-1} = ``x0``, x_0 = ``x1``: the rows the series is made of."""
    xs = iterate_scalar(a, b, x0, x1, steps)
    vals = np.array([scalar_V(xs[k], xs[k - 1], xs[k - 2]) for k in range(2, len(xs))])
    return vals, np.abs(xs)


class TestRoundoffBound:
    """V of an eligible run never rises beyond the slack, from any start and
    in any dimension, and a rise just above the slack is always flagged."""

    @given(a=st.floats(-1.99, 1.99), margin=st.floats(0.0, 1.0),
           x0=st.floats(-1e100, 1e100), x1=st.floats(-1e100, 1e100))
    def test_eligible_scalar_run_is_never_flagged(self, a, margin, x0, x1):
        b = -(a * a / 4.0 + margin)
        assume(-b < 1.0)
        rep = check_monotone(*eligible_run(a, b, x0, x1, 300))
        assert rep.monotone, rep.describe()

    @given(kind=st.sampled_from([HB, NAG, NAGGS]), dim=st.integers(1, 300),
           kappa=st.floats(1.0, 1e6, exclude_min=True), seed=st.integers(0, 2 ** 32),
           scale=st.floats(1e-100, 1e6))
    def test_eligible_run_is_never_flagged(self, kind, dim, kappa, seed, scale):
        # any start: x_{-1} and x_0 drawn apart, at any scale
        p = generate_quadratic(dim, 1.0, kappa, seed=seed)
        spec = optimal_hyperparams(kind, 1.0, kappa)
        rng = np.random.default_rng(seed)
        x0, x1 = p.minimizer + scale * rng.standard_normal((2, dim))
        tr = run_trace(p, spec, x0, 400, x1=x1)
        assume(tr.certificate.eligible)
        rep = tr.report
        assert rep.monotone, rep.describe()

    @given(a=st.floats(-1.99, 1.99), margin=st.floats(0.0, 1.0),
           x0=st.floats(-1e100, 1e100), x1=st.floats(-1e100, 1e100),
           k=st.integers(0, 60))
    def test_rise_above_the_slack_is_flagged(self, a, margin, x0, x1, k):
        v, d = eligible_run(a, -(a * a / 4.0 + margin), x0, x1, 62)
        allowed = v[k] + slack(d[k:k + 4].tolist())
        assume(math.isfinite(allowed))
        v[k + 1] = np.nextafter(allowed, math.inf)
        # a report lists only the first ten flagged steps, and a run with
        # -b > 1 rises at every step: judge the series from step k on
        rep = check_monotone(v[k:], d[k:], start_index=2 + k)
        assert rep.index[0] == 2 + k


@st.composite
def equal_start_runs(draw):
    """A quadratic with a random spectrum [mu, L], a random family member on
    it (tuned, or with alpha L up to 4 and beta up to 1.2; TMM's beta and
    gamma of either sign) and a random equal start at a random scale."""
    kind = draw(st.sampled_from(KINDS))
    mu = draw(st.floats(0.0, 5.0))
    L = mu + draw(st.floats(0.1, 100.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    p = generate_quadratic(draw(st.integers(2, 30)), mu, L, seed=seed)
    if mu >= 0.01 and draw(st.booleans()):
        spec = optimal_hyperparams(kind, mu, L)
    else:
        tmm = kind == TMM
        spec = MethodSpec(kind, alpha=draw(st.floats(0.01, 4.0)) / L,
                          beta=draw(st.floats(-0.5 if tmm else 0.0, 1.2)),
                          gamma=draw(st.floats(-1.0, 2.0)) if tmm else 0.0)
    scale = draw(st.floats(1e-3, 1e3))
    x0 = p.minimizer + scale * np.random.default_rng(seed).standard_normal(p.dim)
    return p, spec, x0


class TestEqualStart:
    """From x_{-1} = x_0 every coordinate's V is (-b)^(k-1) alpha lambda z_0^2
    (alpha the family's; ``analyze`` derives it), and V of a run that the
    certificate covers from that start is never flagged."""

    @given(run=equal_start_runs())
    def test_closed_form_matches_the_recorded_v(self, run):
        p, spec, x0 = run
        tr = run_trace(p, spec, x0, 60)
        r = tr.certificate.per_coordinate
        # each step's rounding enters V once and |b| <= 1 carries it on at
        # most undamped: the recorded V is within the slacks summed so far
        assume(np.abs(r.b).max() <= 1.0)
        z0 = p.eigvecs.T @ (x0 - p.minimizer)  # the engine's start, bitwise
        k = np.arange(2, len(tr))
        with np.errstate(under="ignore"):
            terms = np.power(-r.b, k[:, None] - 1.0) * (_family(spec)[0] * r.lambda_w * z0 * z0)
        law = terms.sum(axis=1)
        # d_{-2} = d_{-1} = d_0, and the last distance once more for row k's own step
        d = np.concatenate([tr.distance[:1], tr.distance[:1], tr.distance, tr.distance[-1:]])
        window = np.maximum.reduce([d[:-3], d[1:-2], d[2:-1], d[3:]])  # rows j-2 .. j+1
        tol = np.cumsum(4 * _C * _U * window * window)[k]
        tol += (p.dim + 8) * _U * np.abs(terms).sum(axis=1)  # the closed form's own rounding
        assert np.all(np.abs(tr.lyapunov[2:] - law) <= tol)

    @given(run=equal_start_runs())
    def test_a_covered_run_is_never_flagged(self, run):
        p, spec, x0 = run
        cert = analyze(spec, p.eigvals)
        assume(cert.eligible or (cert.equal_start_monotone and cert.spectral_radius < 1.0))
        rep = run_trace(p, cert, x0, 300).report
        assert rep.monotone, rep.describe()


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
            assert check_monotone(*eligible_run(a, b, x0, x0, 500)).monotone


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
    """The reference ``check_monotone`` refuses what is not a series."""

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_monotone(values=np.array([]), distance=np.zeros(2))

    def test_rejects_early_start(self):
        with pytest.raises(ValueError):
            check_monotone(values=np.array([1.0]), distance=np.zeros(3), start_index=1)

    def test_rejects_negative_tolerance(self):
        # the slack comes from the distances: the series takes no tolerance
        with pytest.raises(TypeError):
            check_monotone(values=np.array([1.0]), distance=np.zeros(3), tolerance=-1e-9)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        # a NaN or infinite allowance would pass every step, 1 -> 5 -> 9 too:
        # no tolerance is taken, and a NaN or infinite distance fails
        with pytest.raises(TypeError):
            check_monotone(values=np.array([1.0, 5.0, 9.0]), distance=np.zeros(5), tolerance=tol)
        rep = check_monotone(values=np.array([1.0, 0.5, 0.25]), distance=np.full(5, tol))
        assert rep.index.tolist() == [2, 3]

    @pytest.mark.parametrize("size", [0, 2, 4, 6])
    def test_rejects_distances_of_another_length(self, size):
        with pytest.raises(ValueError, match="two more distances than values"):
            check_monotone(values=np.ones(3), distance=np.ones(size))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            check_monotone(values=np.ones((2, 2)), distance=np.zeros(4))
