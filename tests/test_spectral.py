import hashlib

import numpy as np
import pytest

from lyapcert import (HB, KINDS, NAG, NAGGS, TMM, MethodSpec, analyze,
                      certificate_csv_text, certificate_report_text,
                      coefficient_arrays, optimal_hyperparams)
from lyapcert import spectral
from conftest import power_radius, random_eligible_coeffs
from reference import companion, eigenvalues, is_conjugate_pair, schur


class TestCompanionMatrix:
    def test_definition(self):
        m = companion(2.0 / 9.0, -1.0 / 9.0)
        assert np.array_equal(m, [[2.0 / 9.0, -1.0 / 9.0], [1.0, 0.0]])

    def test_nilpotent_case(self):
        m = companion(0.0, 0.0)
        assert np.array_equal(m, [[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(m @ m, np.zeros((2, 2)))

    def test_hb_lambda_one(self):
        a, b = coefficient_arrays(MethodSpec(HB, alpha=4.0 / 9.0, beta=1.0 / 9.0), [1.0])
        m = companion(a[0], b[0])
        assert m[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert m[0, 1] == pytest.approx(-1.0 / 9.0, rel=1e-15)


class TestEigenvalues2x2:
    def test_conjugate_example(self):
        l1, l2 = eigenvalues(2.0 / 9.0, -1.0 / 9.0)
        assert l1.real == pytest.approx(1.0 / 9.0, rel=1e-14)
        assert l1.imag == pytest.approx(2.0 * np.sqrt(2.0) / 9.0, rel=1e-14)
        assert l2 == l1.conjugate()
        assert abs(l1) ** 2 == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_double_root(self):
        l1, l2 = eigenvalues(2.0, -1.0)
        assert l1 == pytest.approx(1.0)
        assert l2 == pytest.approx(1.0)

    def test_real_distinct_dominant_first(self):
        l1, l2 = eigenvalues(-0.5, 0.0)
        assert l1 == pytest.approx(-0.5)
        assert l2 == 0.0

    def test_vieta_holds_widely(self, rng):
        for _ in range(1000):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(-3.0, 3.0)
            l1, l2 = eigenvalues(a, b)
            scale = max(1.0, abs(a), abs(b))
            assert abs(l1 + l2 - a) <= 1e-12 * scale
            assert abs(l1 * l2 + b) <= 1e-12 * scale

    def test_conjugate_modulus_squared_is_minus_b(self, rng):
        for _ in range(500):
            a, b = random_eligible_coeffs(rng)
            l1, l2 = eigenvalues(a, b)
            assert abs(abs(l1) ** 2 + b) <= 1e-12 * max(1.0, abs(b))
            assert abs(abs(l2) ** 2 + b) <= 1e-12 * max(1.0, abs(b))


class TestIsConjugatePair:
    def test_true_for_complex_pair(self):
        assert is_conjugate_pair(2.0 / 9.0, -1.0 / 9.0)

    def test_true_on_boundary(self):
        assert is_conjugate_pair(2.0, -1.0)

    def test_false_for_real_distinct(self):
        assert not is_conjugate_pair(-0.5, 0.0)

    def test_tolerance_band_absorbs_roundoff(self):
        # a^2 + 4b a few ulps from zero (either side) must still count as a pair
        r = analyze(optimal_hyperparams(HB, 1.0, 4.0), np.array([1.0, 4.0])).per_coordinate
        assert all(is_conjugate_pair(a, b) for a, b in zip(r.a.tolist(), r.b.tolist()))
        assert r.conjugate_pair.all()


class TestSchur2x2:
    def test_rotation_companion(self):
        U, T = schur(0.0, -1.0)
        assert T[0, 0] == pytest.approx(1j)
        assert T[1, 1] == pytest.approx(-1j)
        assert T[1, 0] == 0.0
        assert np.max(np.abs(U @ T @ U.conj().T - companion(0.0, -1.0))) <= 1e-12

    def test_hand_example_diagonal(self):
        _, T = schur(2.0 / 9.0, -1.0 / 9.0)
        assert T[0, 0].real == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert abs(T[1, 1]) ** 2 == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_repeated_root_boundary(self):
        U, T = schur(2.0, -1.0)
        assert T[0, 0] == pytest.approx(1.0)
        assert T[1, 1] == pytest.approx(1.0)
        assert np.max(np.abs(U @ U.conj().T - np.eye(2))) <= 1e-12
        # degenerate eigenvector: T picks up an off-diagonal entry
        assert abs(T[0, 1]) > 0.1

    def test_rejects_ineligible(self):
        with pytest.raises(ValueError, match="real split"):
            schur(-0.5, 0.0)

    def test_property_suite_1000_samples(self, rng):
        for _ in range(1000):
            a, b = random_eligible_coeffs(rng)
            U, T = schur(a, b)
            l1, l2 = eigenvalues(a, b)
            assert np.max(np.abs(U @ U.conj().T - np.eye(2))) <= 1e-12
            assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-12
            assert np.max(np.abs(U @ T @ U.conj().T - companion(a, b))) <= 1e-12
            assert T[1, 0] == 0.0
            assert abs(T[0, 0] - l1) <= 1e-12
            assert abs(T[1, 1] - l2) <= 1e-12


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

    @pytest.mark.parametrize("kappa", [10.0, 1e3, 1e6])
    def test_every_tuned_method_is_equal_start_monotone(self, kappa):
        # every tuned -b lies in [0, 1]; tuned TMM's -b(L) is 0 in exact
        # arithmetic and may read a few ulps below it, which the flag allows
        grid = np.linspace(1.0, kappa, 1001)
        for kind in KINDS:
            cert = analyze(optimal_hyperparams(kind, 1.0, kappa), grid)
            assert cert.equal_start_monotone
            assert cert.eligible == (kind != TMM)
        tmm = analyze(optimal_hyperparams(TMM, 1.0, 1e6), np.linspace(1.0, 1e6, 1001))
        assert -4 * np.finfo(float).eps <= (-tmm.per_coordinate.b).min() < 0.0

    @pytest.mark.parametrize("spec,flag", [
        (MethodSpec(HB, alpha=0.03, beta=0.2), True),  # radius 1.68: not eligible
        (MethodSpec(HB, alpha=0.001, beta=1.0), True),
        (MethodSpec(HB, alpha=0.001, beta=np.nextafter(1.0, 2.0)), False),
        (MethodSpec(NAG, alpha=0.015, beta=0.9), False),  # -b reaches -0.45
        (MethodSpec(TMM, alpha=0.01, beta=0.5, gamma=-0.1), True),
        (MethodSpec(TMM, alpha=0.01, beta=0.05, gamma=0.1), False),  # -b(100) = -0.05
    ])
    def test_equal_start_flag_is_minus_b_in_unit_interval(self, spec, flag):
        cert = analyze(spec, np.linspace(1.0, 100.0, 34))
        assert cert.equal_start_monotone is flag
        assert f"equal_start_monotone: {'yes' if flag else 'no'}\n" in \
            certificate_report_text(cert)

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
        coeffs = list(zip(a.tolist(), b.tolist()))
        pairs = [eigenvalues(ai, bi, tol) for ai, bi in coeffs]
        conj = [is_conjugate_pair(ai, bi, tol) for ai, bi in coeffs]
        assert len(r) == n
        assert np.array_equal(r.lambda_w, lam)
        assert np.array_equal(r.a, a) and np.array_equal(r.b, b)
        assert np.array_equal(r.re, [l1.real for l1, _ in pairs])
        assert np.array_equal(r.im, [l1.imag for l1, _ in pairs])
        assert np.array_equal(r.re2, [l2.real for _, l2 in pairs])
        assert np.array_equal(-r.im, [l2.imag for _, l2 in pairs])
        assert np.array_equal(r.rate, [abs(l1) for l1, _ in pairs])
        assert np.array_equal(r.conjugate_pair, conj)
        assert 0 < sum(conj) < n
        assert cert.spectral_radius == r.rate.max()
        assert cert.eligible == (all(conj) and cert.spectral_radius < 1.0)

    def test_overflowing_coefficients_are_not_a_pair(self):
        # HB, alpha = 0.1, beta = 0 on [1, 1e300]: at lambda = 5e299, a = -5e298
        # and b = 0, so a^2 overflows; the roots are -5e298 and 0
        spec = MethodSpec(HB, alpha=0.1)
        a, b = (float(v[0]) for v in coefficient_arrays(spec, [5e299]))
        assert (a, b) == (-5e298, 0.0)
        assert not is_conjugate_pair(a, b)
        assert eigenvalues(a, b) == (-5e298, 0.0)
        r = analyze(spec, np.linspace(1.0, 1e300, 3)).per_coordinate
        assert not r.conjugate_pair.any()
        assert (r.re[1], r.re2[1], r.im[1], r.rate[1]) == (-5e298, 0.0, 0.0, 5e298)

    def test_overflowing_columns_match_scalar_reference(self, monkeypatch):
        # a^2 or 4b beyond the largest double, with real and complex roots
        a = np.array([-5e298, 1e308, 0.0, 0.0, -1.7e308, 1e200, 1.7e308, 2e154, 0.5])
        b = np.array([0.0, -1e308, -1e308, 1e308, 0.0, 1e300, 1.7e308, -1e308, 0.1])
        monkeypatch.setattr(spectral, "coefficient_arrays", lambda spec, eig: (a, b))
        r = analyze(MethodSpec(HB, alpha=0.1), np.arange(9.0)).per_coordinate
        coeffs = list(zip(a.tolist(), b.tolist()))
        pairs = [eigenvalues(ai, bi) for ai, bi in coeffs]
        conj = [is_conjugate_pair(ai, bi) for ai, bi in coeffs]
        assert not any(conj[:-1])
        assert np.array_equal(r.conjugate_pair, conj)
        for col, want in ((r.re, [l1.real for l1, _ in pairs]),
                          (r.im, [l1.imag for l1, _ in pairs]),
                          (r.re2, [l2.real for _, l2 in pairs]),
                          (r.rate, [abs(l1) for l1, _ in pairs])):
            assert np.array_equal(col, want, equal_nan=True)
        # roots of z^2 - a z - b: the sum is a and the product -b
        assert (r.re[1], r.re2[1]) == (1e308, 1.0)
        assert (r.re[3], r.re2[3]) == (1e154, -1e154)

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
            rho = abs(eigenvalues(a, b)[0])
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
        # scalar per-coordinate implementation; re-taken when HB and NAG moved
        # to the family's coefficient formula (last-ulp evaluation order), and
        # when the report gained its equal_start_monotone line (CSV unchanged)
        digest = hashlib.sha256()
        grid = np.linspace(1.0, 1000.0, 257)
        for kind in KINDS:
            cert = analyze(optimal_hyperparams(kind, 1.0, 1000.0), grid)
            digest.update(certificate_csv_text(cert).encode())
            digest.update(certificate_report_text(cert).encode())
        assert digest.hexdigest() == \
            "63add1c272031ffcee3a3ab4347b6996d9e48e1ae47d8f073824c02d46b83baa"

    def test_report_mentions_verdict(self):
        spec = optimal_hyperparams(HB, 1.0, 4.0)
        report = certificate_report_text(analyze(spec, np.array([1.0, 2.5, 4.0])))
        assert "eligible: yes" in report
        assert "spectral_radius" in report
