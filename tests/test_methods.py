import numpy as np
import pytest

from lyapcert import (HB, KINDS, NAG, NAGGS, TMM, IneligibleError,
                      IterationState, MethodSpec, coefficient_arrays,
                      generate_quadratic, optimal_hyperparams, run_trace,
                      scalar_coefficients, step_general, theoretical_rate)


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


class TestScalarCoefficients:
    def test_hb_substitution(self):
        spec = MethodSpec(HB, alpha=4.0 / 9.0, beta=1.0 / 9.0)
        c = scalar_coefficients(spec, 2.0)
        assert c.a == pytest.approx(2.0 / 9.0, rel=1e-15)
        assert c.b == pytest.approx(-1.0 / 9.0, rel=1e-15)

    def test_beta_zero_is_gradient_descent(self):
        spec = MethodSpec(HB, alpha=0.3, beta=0.0)
        c = scalar_coefficients(spec, 1.7)
        assert c.a == pytest.approx(1.0 - 0.3 * 1.7, rel=1e-15)
        assert c.b == 0.0

    def test_tmm_optimal_at_L_degenerates(self):
        spec = optimal_hyperparams(TMM, 1.0, 4.0)
        c = scalar_coefficients(spec, 4.0)
        assert c.a == pytest.approx(-0.5, abs=1e-14)
        assert c.b == pytest.approx(0.0, abs=1e-14)

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
                c = scalar_coefficients(spec, lam)
                assert c.a == pytest.approx(a, rel=1e-12, abs=1e-12)
                assert c.b == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_vectorized_matches_scalar(self, rng):
        spec = MethodSpec(TMM, alpha=0.2, beta=0.4, gamma=0.1)
        lams = rng.uniform(0.0, 8.0, size=40)
        a, b = coefficient_arrays(spec, lams)
        for i, lam in enumerate(lams):
            c = scalar_coefficients(spec, float(lam))
            assert a[i] == pytest.approx(c.a, rel=1e-15)
            assert b[i] == pytest.approx(c.b, rel=1e-15)

    def test_rejects_negative_eigenvalue(self):
        spec = MethodSpec(HB, alpha=0.1, beta=0.1)
        with pytest.raises(ValueError):
            scalar_coefficients(spec, -1.0)

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
    def test_hb(self):
        spec = MethodSpec(HB, alpha=4.0 / 9.0, beta=1.0 / 9.0)
        assert theoretical_rate(spec, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_naggs_is_beta(self):
        # a(mu) = 1 + beta^2 - alpha(1-beta)mu = 0.65, |a| <= 2 beta holds
        spec = MethodSpec(NAGGS, alpha=1.2, beta=0.5)
        assert theoretical_rate(spec, 1.0) == pytest.approx(0.5, rel=1e-14)
        tuned = optimal_hyperparams(NAGGS, 1.0, 4.0)
        assert theoretical_rate(tuned, 1.0) == pytest.approx(tuned.beta, rel=1e-14)

    def test_hb_beta_zero(self):
        spec = MethodSpec(HB, alpha=1.0, beta=0.0)
        assert theoretical_rate(spec, 1.0) == 0.0

    def test_nag(self):
        spec = optimal_hyperparams(NAG, 1.0, 4.0)
        expected = np.sqrt((1 - 0.25) * (1.0 / 3.0))
        assert theoretical_rate(spec, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_ineligible_at_mu_raises(self):
        spec = optimal_hyperparams(TMM, 1.0, 4.0)
        # discriminant at lambda=mu is +1/16 for these values
        with pytest.raises(IneligibleError):
            theoretical_rate(spec, 1.0)

    def test_tmm_eligible_interior(self):
        spec = optimal_hyperparams(TMM, 1.0, 4.0)
        rate = theoretical_rate(spec, 2.5)
        assert rate == pytest.approx(np.sqrt(1.0 / 6.0 - (3.0 / 8.0) * (1.0 / 9.0) * 2.5),
                                     rel=1e-12)


class TestStepEngines:
    """The eigenbasis recurrence runs inside ``run_trace``; the oracle step is
    ``step_general``."""

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
            expected = x0 - h * p.gradient(x0)
            for target in (p, p.as_objective()):
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
        g = run_trace(p.as_objective(), spec, x_prev, 12, x1=x_cur)
        q = run_trace(p, spec, x_prev, 12, x1=x_cur)
        assert np.allclose(g.iterates, q.iterates, atol=1e-12)

    def test_nag_beta_zero_is_gradient_descent(self, rng):
        obj = generate_quadratic(4, 1.0, 6.0, seed=7).as_objective()
        spec = MethodSpec(NAG, alpha=0.12, beta=0.0)
        x = rng.standard_normal(4)
        nxt = step_general(obj, spec, IterationState(x, x))
        assert np.allclose(nxt.current, x - 0.12 * obj.gradient(x), atol=1e-14)

    def test_tmm_from_rest_is_gradient_step(self, rng):
        p = generate_quadratic(4, 1.0, 6.0, seed=8)
        spec = optimal_hyperparams(TMM, 1.0, 6.0)
        x = p.minimizer + rng.standard_normal(4)
        nxt = step_general(p.as_objective(), spec, IterationState(x, x))
        assert np.allclose(nxt.current, x - spec.alpha * p.gradient(x), atol=1e-12)

    def test_naggs_requires_auxiliary(self):
        obj = generate_quadratic(3, 1.0, 5.0, seed=9).as_objective()
        spec = MethodSpec(NAGGS, alpha=0.5, beta=0.5)
        state = IterationState(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            step_general(obj, spec, state)

    def test_nag_two_step_reduction_1d(self):
        # eliminating the y-sequence gives a=(1+beta)(1-alpha*lam),
        # b=-beta(1-alpha*lam); compare engines over several steps
        lam, al, be = 3.0, 0.2, 0.6
        p = generate_quadratic(1, lam, lam, seed=0)
        obj = p.as_objective()
        spec = MethodSpec(NAG, alpha=al, beta=be)
        a = (1 + be) * (1 - al * lam)
        b = -be * (1 - al * lam)
        xs = float(p.minimizer[0])
        cur, prev = xs + 1.0, xs + 1.0
        state = IterationState(np.array([cur]), np.array([prev]))
        for _ in range(10):
            state = step_general(obj, spec, state)
            cur, prev = a * (cur - xs) + b * (prev - xs) + xs, cur
            assert state.current[0] == pytest.approx(cur, rel=1e-10, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IterationState(np.zeros(3), np.zeros(4))


class TestOptimalRateInvariants:
    def test_hb_moduli_constant_over_spectrum(self):
        from lyapcert import eigenvalues_2x2, scalar_coefficients
        mu, L = 1.0, 4.0
        spec = optimal_hyperparams(HB, mu, L)
        target = (np.sqrt(L) - np.sqrt(mu)) / (np.sqrt(L) + np.sqrt(mu))
        for lam in np.linspace(mu, L, 100):
            pair = eigenvalues_2x2(scalar_coefficients(spec, float(lam)))
            assert abs(abs(pair.lambda1) - target) <= 1e-10

    def test_naggs_moduli_equal_beta_star(self):
        from lyapcert import eigenvalues_2x2, scalar_coefficients
        mu, L = 2.0, 50.0
        spec = optimal_hyperparams(NAGGS, mu, L)
        beta_star = (L - mu) / (L + mu + 2 * np.sqrt(mu * L))
        assert spec.beta == pytest.approx(beta_star, rel=1e-14)
        for lam in np.linspace(mu, L, 100):
            pair = eigenvalues_2x2(scalar_coefficients(spec, float(lam)))
            assert abs(abs(pair.lambda1) - beta_star) <= 1e-10
