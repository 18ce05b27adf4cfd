import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from lyapcert import (HB, KINDS, NAG, NAGGS, TMM, MethodSpec, analyze,
                      coefficient_arrays, cosine_counterexample,
                      generate_quadratic, optimal_hyperparams,
                      rosenbrock_objective, run_trace)
from lyapcert.methods import _family
from reference import family_step, naggs_iterates, quadratic_objective, trace_rows


def coefficients(spec, lam):
    """(a, b) of the method at one eigenvalue, as floats."""
    a, b = coefficient_arrays(spec, np.array([lam]))
    return float(a[0]), float(b[0])


def radius(spec, lam):
    """Spectral radius of the method's companion matrix at one eigenvalue."""
    return analyze(spec, np.array([lam])).spectral_radius


class TestMethodSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MethodSpec("SGD", alpha=0.1)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            MethodSpec(HB, alpha=0.0)
        with pytest.raises(ValueError):
            MethodSpec(HB, alpha=-0.1)

    def test_rejects_negative_beta_for_momentum_methods(self):
        for kind in (HB, NAG, NAGGS):
            with pytest.raises(ValueError):
                MethodSpec(kind, alpha=0.1, beta=-0.2)

    def test_rejects_gamma_outside_tmm(self):
        with pytest.raises(ValueError):
            MethodSpec(HB, alpha=0.1, beta=0.1, gamma=0.5)
        MethodSpec(TMM, alpha=0.1, beta=0.1, gamma=0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MethodSpec(HB, alpha=float("nan"))


class TestOptimalHyperparams:
    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown method kind 'XYZ'"):
            optimal_hyperparams("XYZ", 1.0, 2.0)

    def test_hb_mu1_L4(self):
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        assert spec.alpha == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert spec.beta == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_nag_mu1_L4(self):
        spec = optimal_hyperparams(NAG, 1.0, 4.0)
        assert spec.alpha == pytest.approx(0.25, rel=1e-15)
        assert spec.beta == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_tmm_mu1_L4(self):
        # rho = 1/2: alpha = (1+rho)/L, beta = rho^2/(2-rho),
        # gamma = rho^2/((1+rho)(2-rho))
        spec = optimal_hyperparams(TMM, 1.0, 4.0)
        assert spec.alpha == pytest.approx(3.0 / 8.0, rel=1e-15)
        assert spec.beta == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert spec.gamma == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_naggs_mu1_L4(self):
        spec = optimal_hyperparams(NAGGS, 1.0, 4.0)
        assert spec.alpha == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert spec.beta == pytest.approx(1.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_tunes_where_mu_times_L_overflows(self, kind):
        # mu L = 1e599 is beyond the largest double, though mu and L are not:
        # every kind is formed from sqrt(mu) and sqrt(L) and tunes there
        mu, L = 1e299, 1e300
        spec = optimal_hyperparams(kind, mu, L)
        assert analyze(spec, np.array([mu, 5.5e299, L])).spectral_radius < 1.0
        if kind == NAGGS:  # 2 / (1 + sqrt(10)) and (sqrt(10) - 1) / (sqrt(10) + 1)
            assert spec.alpha * mu == pytest.approx(2.0 / (1.0 + np.sqrt(10.0)), rel=1e-14)
            assert spec.beta == pytest.approx((np.sqrt(10.0) - 1.0) / (np.sqrt(10.0) + 1.0),
                                              rel=1e-14)

    def test_hb_degenerate_mu_equals_L(self):
        spec = optimal_hyperparams(HB, 5.0, 5.0)
        assert spec.alpha == pytest.approx(0.2, rel=1e-15)
        assert spec.beta == 0.0

    def test_rejects_mu_zero(self):
        for kind in KINDS:
            with pytest.raises(ValueError):
                optimal_hyperparams(kind, 0.0, 10.0)

    def test_rejects_L_below_mu(self):
        with pytest.raises(ValueError):
            optimal_hyperparams(HB, 2.0, 1.0)

    # float64 ulps.  NAG-GS's family alpha is alpha' (1 - beta'), so it
    # carries the rounding of beta' times 1 / (1 - beta): alpha's gap is
    # counted in ulps of alpha times (1 - beta).  beta enters the recurrence
    # as 1 + beta, so its gap is counted in ulps of 1.  Over 3e5 random draws
    # of the domain below, neither gap passed 7.
    ULPS = 16

    @given(mu=st.floats(1e-100, 1e100), kappa=st.floats(1.0, 1e8, exclude_min=True))
    def test_tuned_naggs_is_tuned_hb(self, mu, kappa):
        L = mu * kappa
        assume(mu < L)
        hb = _family(optimal_hyperparams(HB, mu, L))
        naggs = _family(optimal_hyperparams(NAGGS, mu, L))
        assert hb[2] == naggs[2] == 0.0
        assert abs(naggs[0] - hb[0]) <= self.ULPS * np.spacing(hb[0]) / (1.0 - hb[1])
        assert abs(naggs[1] - hb[1]) <= self.ULPS * np.finfo(float).eps


class TestScalarCoefficients:
    def test_hb_substitution(self):
        spec = MethodSpec(HB, alpha=4.0 / 9.0, beta=1.0 / 9.0)
        a, b = coefficients(spec, 2.0)
        assert a == pytest.approx(2.0 / 9.0, rel=1e-15)
        assert b == pytest.approx(-1.0 / 9.0, rel=1e-15)

    def test_beta_zero_is_gradient_descent(self):
        spec = MethodSpec(HB, alpha=0.3, beta=0.0)
        a, b = coefficients(spec, 1.7)
        assert a == pytest.approx(1.0 - 0.3 * 1.7, rel=1e-15)
        assert b == 0.0

    def test_tmm_optimal_at_L_degenerates(self):
        spec = optimal_hyperparams(TMM, 1.0, 4.0)
        a, b = coefficients(spec, 4.0)
        assert a == pytest.approx(-0.5, abs=1e-14)
        assert b == pytest.approx(0.0, abs=1e-14)

    def test_all_rows_against_formulas(self, rng):
        for _ in range(50):
            al, be, ga = rng.uniform(0.01, 1.0), rng.uniform(0.0, 0.95), rng.uniform(0.0, 0.5)
            lam = rng.uniform(0.0, 10.0)
            rows = {
                HB: (1 - al * lam + be, -be),
                NAG: ((1 - al * lam) * (1 + be), -(1 - al * lam) * be),
                TMM: (1 + be - al * (1 + ga) * lam, al * ga * lam - be),
                NAGGS: (2 * be + (1 - be) ** 2 - al * (1 - be) * lam, -be * be),
            }
            for kind, (a, b) in rows.items():
                spec = MethodSpec(kind, alpha=al, beta=be,
                                  gamma=ga if kind == TMM else 0.0)
                got_a, got_b = coefficients(spec, lam)
                assert got_a == pytest.approx(a, rel=1e-12, abs=1e-12)
                assert got_b == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_vectorized_matches_scalar(self, rng):
        spec = MethodSpec(TMM, alpha=0.2, beta=0.4, gamma=0.1)
        lams = rng.uniform(0.0, 8.0, size=40)
        a, b = coefficient_arrays(spec, lams)
        for i, lam in enumerate(lams):
            assert (a[i], b[i]) == coefficients(spec, float(lam))

    def test_rejects_negative_eigenvalue(self):
        spec = MethodSpec(HB, alpha=0.1, beta=0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            coefficient_arrays(spec, np.array([-1.0]))

    def test_naggs_optimal_coincides_with_hb_optimal(self):
        # the tuned NAG-GS two-step coefficients reduce to the tuned HB ones
        for mu, L in ((1.0, 4.0), (0.5, 80.0), (2.0, 2000.0)):
            hb = optimal_hyperparams(HB, mu, L)
            gs = optimal_hyperparams(NAGGS, mu, L)
            lams = np.linspace(mu, L, 57)
            a1, b1 = coefficient_arrays(hb, lams)
            a2, b2 = coefficient_arrays(gs, lams)
            assert np.allclose(a1, a2, rtol=1e-12, atol=1e-12)
            assert np.allclose(b1, b2, rtol=1e-12, atol=1e-12)


class TestTheoreticalRate:
    """The certified rate at the worst eigenvalue has a closed form per
    method: HB sqrt(beta), NAG sqrt((1 - alpha mu) beta), TMM
    sqrt(beta - alpha gamma mu), NAG-GS beta."""

    def test_hb(self):
        spec = MethodSpec(HB, alpha=4.0 / 9.0, beta=1.0 / 9.0)
        assert radius(spec, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_naggs_is_beta(self):
        # a(mu) = 1 + beta^2 - alpha(1-beta)mu = 0.65, |a| <= 2 beta holds
        spec = MethodSpec(NAGGS, alpha=1.2, beta=0.5)
        assert radius(spec, 1.0) == pytest.approx(0.5, rel=1e-14)
        tuned = optimal_hyperparams(NAGGS, 1.0, 4.0)
        assert radius(tuned, 1.0) == pytest.approx(tuned.beta, rel=1e-14)

    def test_hb_beta_zero(self):
        spec = MethodSpec(HB, alpha=1.0, beta=0.0)
        assert radius(spec, 1.0) == 0.0

    def test_nag(self):
        spec = optimal_hyperparams(NAG, 1.0, 4.0)
        expected = np.sqrt((1 - 0.25) * (1.0 / 3.0))
        assert radius(spec, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_ineligible_at_mu(self):
        spec = optimal_hyperparams(TMM, 1.0, 4.0)
        # discriminant at lambda=mu is +1/16 for these values
        cert = analyze(spec, np.array([1.0]))
        assert not cert.per_coordinate.conjugate_pair[0]
        assert not cert.eligible

    def test_tmm_eligible_interior(self):
        spec = optimal_hyperparams(TMM, 1.0, 4.0)
        assert radius(spec, 2.5) == pytest.approx(np.sqrt(1.0 / 6.0 - (3.0 / 8.0) * (1.0 / 9.0) * 2.5),
                                     rel=1e-12)


class TestStepEngines:
    """The eigenbasis recurrence runs inside ``run_trace``; the oracle step of
    one run is ``reference.family_step`` on plain arrays."""

    def test_eigenbasis_hand_example(self):
        # HB alpha=4/9, beta=1/9 at lam=2 gives (a, b) = (2/9, -1/9): from
        # equal starts 1, 1 the first step lands on 2/9 - 1/9 = 1/9
        p = generate_quadratic(1, 2.0, 2.0, seed=0)
        spec = MethodSpec(HB, alpha=4.0 / 9.0, beta=1.0 / 9.0)
        tr = run_trace(p, spec, p.minimizer + 1.0, 3)
        assert tr.distance[0] == 1.0
        assert tr.distance[1] == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert tr.iterates[1, 0] - p.minimizer[0] == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_step_quadratic_first_step_is_gradient_step(self):
        # equal starts make a + b the whole first step: 1 - h lam, a gradient
        # step of size h = alpha (alpha (1 - beta) for NAG-GS), on both engines
        p = generate_quadratic(6, 1.0, 10.0, seed=2)
        x0 = p.minimizer + np.linspace(-1, 1, 6)
        for kind in KINDS:
            al, be, ga = (0.1, 0.5, 0.05 if kind == TMM else 0.0)
            spec = MethodSpec(kind, alpha=al, beta=be, gamma=ga)
            h = al * (1.0 - be) if kind == NAGGS else al
            expected = x0 - h * quadratic_objective(p).gradient(x0)
            for target in (p, quadratic_objective(p)):
                tr = run_trace(target, spec, x0, 3)
                assert np.allclose(tr.iterates[1], expected, atol=1e-12), kind

    def test_step_quadratic_matches_eigenbasis_conjugation(self, rng):
        p = generate_quadratic(8, 1.0, 12.0, seed=4)
        q = p.eigvecs
        for kind in KINDS:
            spec = optimal_hyperparams(kind, 1.0, 12.0)
            a, b = coefficient_arrays(spec, p.eigvals)
            x_prev = p.minimizer + rng.standard_normal(8)
            x_cur = p.minimizer + rng.standard_normal(8)
            tr = run_trace(p, spec, x_prev, 3, x1=x_cur)
            hat_next = a * (q.T @ (x_cur - p.minimizer)) + b * (q.T @ (x_prev - p.minimizer))
            assert np.allclose(q.T @ (tr.iterates[2] - p.minimizer), hat_next, atol=1e-10)

    def test_hb_general_matches_quadratic(self, rng):
        p = generate_quadratic(5, 1.0, 9.0, seed=6)
        spec = MethodSpec(HB, alpha=0.15, beta=0.4)
        x_prev = p.minimizer + rng.standard_normal(5)
        x_cur = p.minimizer + rng.standard_normal(5)
        g = run_trace(quadratic_objective(p), spec, x_prev, 12, x1=x_cur)
        q = run_trace(p, spec, x_prev, 12, x1=x_cur)
        assert np.allclose(g.iterates, q.iterates, atol=1e-12)

    def test_nag_beta_zero_is_gradient_descent(self, rng):
        obj = quadratic_objective(generate_quadratic(4, 1.0, 6.0, seed=7))
        spec = MethodSpec(NAG, alpha=0.12, beta=0.0)
        x = rng.standard_normal(4)
        nxt = family_step(obj, _family(spec), x, x)
        assert np.allclose(nxt, x - 0.12 * obj.gradient(x), atol=1e-14)

    def test_tmm_from_rest_is_gradient_step(self, rng):
        p = generate_quadratic(4, 1.0, 6.0, seed=8)
        spec = optimal_hyperparams(TMM, 1.0, 6.0)
        x = p.minimizer + rng.standard_normal(4)
        obj = quadratic_objective(p)
        nxt = family_step(obj, _family(spec), x, x)
        assert np.allclose(nxt, x - spec.alpha * obj.gradient(x), atol=1e-12)

    def test_nag_two_step_reduction_1d(self):
        # eliminating the y-sequence gives a=(1+beta)(1-alpha*lam),
        # b=-beta(1-alpha*lam); compare engines over several steps
        lam, al, be = 3.0, 0.2, 0.6
        p = generate_quadratic(1, lam, lam, seed=0)
        obj = quadratic_objective(p)
        spec = MethodSpec(NAG, alpha=al, beta=be)
        a = (1 + be) * (1 - al * lam)
        b = -be * (1 - al * lam)
        xs = float(p.minimizer[0])
        cur, prev = xs + 1.0, xs + 1.0
        x_cur, x_prev = np.array([cur]), np.array([prev])
        for _ in range(10):
            x_cur, x_prev = family_step(obj, _family(spec), x_cur, x_prev), x_cur
            cur, prev = a * (cur - xs) + b * (prev - xs) + xs, cur
            assert x_cur[0] == pytest.approx(cur, rel=1e-10, abs=1e-10)

    def test_dimension_mismatch(self):
        # run_trace checks the starts; the step itself does no validation
        obj = quadratic_objective(generate_quadratic(3, 1.0, 5.0, seed=9))
        with pytest.raises(ValueError, match="x1 must match"):
            run_trace(obj, MethodSpec(HB, alpha=0.1), np.zeros(3), 5, x1=np.zeros(4))


class TestFamily:
    """Every method runs as x_{k+1} = x_k + beta d_k - alpha grad f(x_k + gamma d_k);
    the literal forms it replaces give the same iterates."""

    @pytest.mark.parametrize("x1", [None, np.array([0.71, 1.38])], ids=["equal", "unequal"])
    def test_naggs_matches_two_sequence_form(self, x1):
        # the y-sequence eliminated: rosenbrock, the rosenbrock scenario's
        # hyperparameters, 4000 steps
        obj = rosenbrock_objective()
        alpha, beta = 5e-4, 0.5
        x0 = np.array([0.7, 1.4])
        tr = run_trace(obj, MethodSpec(NAGGS, alpha=alpha, beta=beta), x0, 4001, x1=x1)
        assert len(tr) == 4001 and not tr.diverged
        starts = (x0,) if x1 is None else (x0, x1)
        ref = naggs_iterates(obj.gradient, alpha, beta, starts, len(tr))
        assert np.max(np.abs(trace_rows(tr) - ref)) <= 1e-13

    @pytest.mark.parametrize("engine", ["eigenbasis", "oracle", "cosine"])
    def test_nag_is_tmm_with_gamma_beta(self, engine, rng):
        p = generate_quadratic(6, 1.0, 30.0, seed=11)
        target = {"eigenbasis": p, "oracle": quadratic_objective(p),
                  "cosine": cosine_counterexample()}[engine]
        nag = optimal_hyperparams(NAG, 1.0, 30.0)
        tmm = MethodSpec(TMM, alpha=nag.alpha, beta=nag.beta, gamma=nag.beta)
        x0 = np.asarray(target.minimizer) + rng.standard_normal(target.dim)
        x1 = np.asarray(target.minimizer) + rng.standard_normal(target.dim)
        for start in ({}, {"x1": x1}):
            a = run_trace(target, nag, x0, 300, **start)
            b = run_trace(target, tmm, x0, 300, **start)
            assert np.array_equal(trace_rows(a), trace_rows(b))
            assert np.array_equal(a.lyapunov, b.lyapunov, equal_nan=True)


class TestOptimalRateInvariants:
    def test_hb_moduli_constant_over_spectrum(self):
        mu, L = 1.0, 4.0
        spec = optimal_hyperparams(HB, mu, L)
        target = (np.sqrt(L) - np.sqrt(mu)) / (np.sqrt(L) + np.sqrt(mu))
        rate = analyze(spec, np.linspace(mu, L, 100)).per_coordinate.rate
        assert np.max(np.abs(rate - target)) <= 1e-10

    def test_naggs_moduli_equal_beta_star(self):
        mu, L = 2.0, 50.0
        spec = optimal_hyperparams(NAGGS, mu, L)
        beta_star = (L - mu) / (L + mu + 2 * np.sqrt(mu * L))
        assert spec.beta == pytest.approx(beta_star, rel=1e-14)
        rate = analyze(spec, np.linspace(mu, L, 100)).per_coordinate.rate
        assert np.max(np.abs(rate - beta_star)) <= 1e-10
