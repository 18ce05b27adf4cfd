import hashlib

import numpy as np
import pytest

from lyapcert import (HB, KINDS, NAG, NAGGS, TMM, IneligibleError, MethodSpec,
                      TwoStepCoefficients, analyze, certificate_csv_text,
                      certificate_report_text, coefficient_arrays, companion_matrix,
                      eigenvalues_2x2, is_conjugate_pair,
                      optimal_hyperparams, scalar_coefficients, schur_2x2)
from lyapcert import spectral
from conftest import power_radius, random_eligible_coeffs


class TestCompanionMatrix:
    def test_definition(self):
        m = companion_matrix(TwoStepCoefficients(2.0 / 9.0, -1.0 / 9.0))
        assert np.array_equal(m, [[2.0 / 9.0, -1.0 / 9.0], [1.0, 0.0]])

    def test_nilpotent_case(self):
        m = companion_matrix(TwoStepCoefficients(0.0, 0.0))
        assert np.array_equal(m, [[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(m @ m, np.zeros((2, 2)))

    def test_hb_lambda_one(self):
        c = scalar_coefficients(MethodSpec(HB, alpha=4.0 / 9.0, beta=1.0 / 9.0), 1.0)
        m = companion_matrix(c)
        assert m[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert m[0, 1] == pytest.approx(-1.0 / 9.0, rel=1e-15)


class TestEigenvalues2x2:
    def test_conjugate_example(self):
        pair = eigenvalues_2x2(TwoStepCoefficients(2.0 / 9.0, -1.0 / 9.0))
        assert pair.lambda1.real == pytest.approx(1.0 / 9.0, rel=1e-14)
        assert pair.lambda1.imag == pytest.approx(2.0 * np.sqrt(2.0) / 9.0, rel=1e-14)
        assert pair.lambda2 == pair.lambda1.conjugate()
        assert abs(pair.lambda1) ** 2 == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_double_root(self):
        pair = eigenvalues_2x2(TwoStepCoefficients(2.0, -1.0))
        assert pair.lambda1 == pytest.approx(1.0)
        assert pair.lambda2 == pytest.approx(1.0)

    def test_real_distinct_dominant_first(self):
        pair = eigenvalues_2x2(TwoStepCoefficients(-0.5, 0.0))
        assert pair.lambda1 == pytest.approx(-0.5)
        assert pair.lambda2 == 0.0

    def test_vieta_holds_widely(self, rng):
        for _ in range(1000):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(-3.0, 3.0)
            pair = eigenvalues_2x2(TwoStepCoefficients(a, b))
            scale = max(1.0, abs(a), abs(b))
            assert abs(pair.lambda1 + pair.lambda2 - a) <= 1e-12 * scale
            assert abs(pair.lambda1 * pair.lambda2 + b) <= 1e-12 * scale

    def test_conjugate_modulus_squared_is_minus_b(self, rng):
        for _ in range(500):
            a, b = random_eligible_coeffs(rng)
            pair = eigenvalues_2x2(TwoStepCoefficients(a, b))
            assert abs(abs(pair.lambda1) ** 2 + b) <= 1e-12 * max(1.0, abs(b))
            assert abs(abs(pair.lambda2) ** 2 + b) <= 1e-12 * max(1.0, abs(b))


class TestIsConjugatePair:
    def test_true_for_complex_pair(self):
        assert is_conjugate_pair(TwoStepCoefficients(2.0 / 9.0, -1.0 / 9.0))

    def test_true_on_boundary(self):
        assert is_conjugate_pair(TwoStepCoefficients(2.0, -1.0))

    def test_false_for_real_distinct(self):
        assert not is_conjugate_pair(TwoStepCoefficients(-0.5, 0.0))

    def test_tolerance_band_absorbs_roundoff(self):
        # a^2 + 4b a few ulps above zero must still count as a pair
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        for lam in (1.0, 4.0):
            c = scalar_coefficients(spec, lam)
            assert c.a * c.a + 4 * c.b != 0.0 or True  # value may land either side
            assert is_conjugate_pair(c)


class TestSchur2x2:
    def test_rotation_companion(self):
        f = schur_2x2(TwoStepCoefficients(0.0, -1.0))
        assert f.T[0, 0] == pytest.approx(1j)
        assert f.T[1, 1] == pytest.approx(-1j)
        assert f.T[1, 0] == 0.0
        m = companion_matrix(TwoStepCoefficients(0.0, -1.0))
        assert np.max(np.abs(f.U @ f.T @ f.U.conj().T - m)) <= 1e-12

    def test_hand_example_diagonal(self):
        f = schur_2x2(TwoStepCoefficients(2.0 / 9.0, -1.0 / 9.0))
        lam = f.T[0, 0]
        assert lam.real == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert abs(f.T[1, 1]) ** 2 == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_repeated_root_boundary(self):
        f = schur_2x2(TwoStepCoefficients(2.0, -1.0))
        assert f.T[0, 0] == pytest.approx(1.0)
        assert f.T[1, 1] == pytest.approx(1.0)
        u = f.U
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12
        # degenerate eigenvector: T picks up an off-diagonal entry
        assert abs(f.T[0, 1]) > 0.1

    def test_rejects_ineligible(self):
        with pytest.raises(IneligibleError):
            schur_2x2(TwoStepCoefficients(-0.5, 0.0))

    def test_property_suite_1000_samples(self, rng):
        for _ in range(1000):
            a, b = random_eligible_coeffs(rng)
            c = TwoStepCoefficients(a, b)
            f = schur_2x2(c)
            m = companion_matrix(c)
            pair = eigenvalues_2x2(c)
            assert np.max(np.abs(f.U @ f.U.conj().T - np.eye(2))) <= 1e-12
            assert np.max(np.abs(f.U.conj().T @ f.U - np.eye(2))) <= 1e-12
            assert np.max(np.abs(f.U @ f.T @ f.U.conj().T - m)) <= 1e-12
            assert f.T[1, 0] == 0.0
            assert abs(f.T[0, 0] - pair.lambda1) <= 1e-12
            assert abs(f.T[1, 1] - pair.lambda2) <= 1e-12


class TestAnalyze:
    def test_hb_optimal_certificate(self):
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        cert = analyze(spec, np.array([1.0, 2.5, 4.0]))
        assert cert.eligible
        assert cert.spectral_radius == pytest.approx(1.0 / 3.0, abs=1e-10)
        for rec in cert.per_coordinate:
            assert rec.conjugate_pair
            assert rec.rate == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_tmm_optimal_ineligible_at_L(self):
        spec = optimal_hyperparams(TMM, 1.0, 4.0)
        cert = analyze(spec, np.array([1.0, 2.5, 4.0]))
        assert not cert.eligible
        by_lam = {rec.lambda_w: rec for rec in cert.per_coordinate}
        assert not by_lam[4.0].conjugate_pair
        assert by_lam[2.5].conjugate_pair

    def test_zero_eigenvalue_gives_unit_rate(self):
        beta = 0.4
        spec = MethodSpec(HB, alpha=0.1, beta=beta)
        cert = analyze(spec, np.array([0.0, 1.0, 2.0]))
        rec = cert.per_coordinate[0]
        moduli = sorted([abs(complex(rec.re, rec.im)), abs(complex(rec.re2, -rec.im))])
        assert moduli[1] == pytest.approx(1.0, abs=1e-12)
        assert moduli[0] == pytest.approx(beta, abs=1e-12)
        assert rec.rate == pytest.approx(1.0, abs=1e-12)
        assert not cert.eligible

    @pytest.mark.parametrize("tol", [0.0, spectral.DEFAULT_TOL, 1e-6])
    def test_columns_match_scalar_reference(self, rng, monkeypatch, tol):
        n = 400
        a = rng.uniform(-3.0, 3.0, n)
        b = rng.uniform(-3.0, 1.0, n)
        # eligible pairs, b = 0, exact double roots (discriminant 0), and
        # discriminants inside and just outside the +-tol band (relative to
        # max(1, a^2, |4b|))
        a[:100] = rng.uniform(-1.9, 1.9, 100)
        b[:100] = -(a[:100] ** 2 / 4.0 + rng.uniform(0.0, 1.0, 100))
        b[100:120] = 0.0
        a[117:121], b[117:121] = [2.0, -2.0, 1.0, 0.0], [-1.0, -1.0, -0.25, 0.0]
        band = np.max([np.ones(n), a * a], axis=0) * rng.uniform(-2.0, 2.0, n)
        b[121:260] = (band[121:260] * max(tol, 1e-12) - a[121:260] ** 2) / 4.0
        lam = np.sort(rng.uniform(0.0, 10.0, n))
        lam[:4] = 0.0
        for i, kind in enumerate(KINDS):  # each method's coefficients at lambda = 0
            spec = MethodSpec(kind, alpha=0.1, beta=0.4, gamma=0.1 if kind == TMM else 0.0)
            a[i], b[i] = (float(v[0]) for v in coefficient_arrays(spec, lam[:1]))
        monkeypatch.setattr(spectral, "coefficient_arrays", lambda spec, eig: (a, b))
        cert = analyze(MethodSpec(HB, alpha=0.1), lam, tol=tol)
        r = cert.per_coordinate
        coeffs = [TwoStepCoefficients(ai, bi) for ai, bi in zip(a.tolist(), b.tolist())]
        pairs = [eigenvalues_2x2(c, tol) for c in coeffs]
        conj = [is_conjugate_pair(c, tol) for c in coeffs]
        assert len(r) == n
        assert np.array_equal(r.lambda_w, lam)
        assert np.array_equal(r.a, a) and np.array_equal(r.b, b)
        assert np.array_equal(r.re, [p.lambda1.real for p in pairs])
        assert np.array_equal(r.im, [p.lambda1.imag for p in pairs])
        assert np.array_equal(r.re2, [p.lambda2.real for p in pairs])
        assert np.array_equal(-r.im, [p.lambda2.imag for p in pairs])
        assert np.array_equal(r.rate, [abs(p.lambda1) for p in pairs])
        assert np.array_equal(r.conjugate_pair, conj)
        assert 0 < sum(conj) < n
        assert cert.spectral_radius == r.rate.max()
        assert cert.eligible == (all(conj) and cert.spectral_radius < 1.0)

    @pytest.mark.parametrize("tol", [-1e-12, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            analyze(MethodSpec(HB, alpha=0.1, beta=0.1), np.array([1.0, 2.0]), tol=tol)

    def test_rejects_non_finite_coefficients(self):
        spec = MethodSpec(HB, alpha=0.1, beta=0.1)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            analyze(spec, np.array([1.0, np.nan]))

    def test_rejects_bad_spectra(self):
        spec = MethodSpec(HB, alpha=0.1, beta=0.1)
        with pytest.raises(ValueError):
            analyze(spec, np.array([]))
        with pytest.raises(ValueError):
            analyze(spec, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            analyze(spec, np.array([-1.0, 1.0]))

    def test_radius_matches_closed_forms_on_grid(self):
        mu, L = 1.0, 9.0
        grid = np.linspace(mu, L, 100)
        expected = {
            HB: (np.sqrt(L) - np.sqrt(mu)) / (np.sqrt(L) + np.sqrt(mu)),
            NAG: None,  # sqrt((1 - mu/L) * beta), beta = (sqrt(L)-sqrt(mu))/(sqrt(L)+sqrt(mu))
            NAGGS: (L - mu) / (L + mu + 2.0 * np.sqrt(mu * L)),
        }
        beta_nag = (np.sqrt(L) - np.sqrt(mu)) / (np.sqrt(L) + np.sqrt(mu))
        expected[NAG] = np.sqrt((1.0 - mu / L) * beta_nag)
        for kind, value in expected.items():
            cert = analyze(optimal_hyperparams(kind, mu, L), grid)
            assert cert.eligible
            assert cert.spectral_radius == pytest.approx(value, abs=1e-10)

    def test_power_iteration_agrees_with_radius(self, rng):
        for _ in range(10):
            a, b = random_eligible_coeffs(rng, rho_max=0.99)
            pair = eigenvalues_2x2(TwoStepCoefficients(a, b))
            rho = abs(pair.lambda1)
            if rho < 1e-2:
                continue
            est = power_radius(a, b, steps=2000)
            assert est == pytest.approx(rho, abs=1e-2)


class TestCertificateSerialization:
    def test_csv_shape_and_flags(self):
        spec = optimal_hyperparams(TMM, 1.0, 4.0)
        text = certificate_csv_text(analyze(spec, np.array([1.0, 2.5, 4.0])))
        lines = text.strip().split("\n")
        assert lines[0] == "lambda_W,a,b,re_lambda,im_lambda,modulus,conjugate_pair"
        assert len(lines) == 4
        flags = [row.split(",")[-1] for row in lines[1:]]
        assert flags == ["0", "1", "0"]

    def test_csv_values_parse_back(self):
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        text = certificate_csv_text(analyze(spec, np.array([1.0, 2.5, 4.0])))
        row = text.strip().split("\n")[2].split(",")
        lam, a, b, re, im, mod, conj = (float(v) for v in row)
        assert lam == 2.5
        assert mod == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert re * re + im * im == pytest.approx(mod * mod, rel=1e-12)

    def test_golden_digest_tuned_methods(self):
        # CSV + report bytes of the four tuned certificates (TMM's report
        # lists real-split coordinates with "(+23 more)"), fixed at the
        # scalar per-coordinate implementation
        digest = hashlib.sha256()
        grid = np.linspace(1.0, 1000.0, 257)
        for kind in KINDS:
            cert = analyze(optimal_hyperparams(kind, 1.0, 1000.0), grid)
            digest.update(certificate_csv_text(cert).encode())
            digest.update(certificate_report_text(cert).encode())
        assert digest.hexdigest() == \
            "4331732306dcb728da3a63328fa5a6f234676369f6de7b155c17155c64cddd65"

    def test_report_mentions_verdict(self):
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        report = certificate_report_text(analyze(spec, np.array([1.0, 2.5, 4.0])))
        assert "eligible: yes" in report
        assert "spectral_radius" in report
