import numpy as np
import pytest

from lyapcert import (Objective, QuadraticProblem, cosine_counterexample,
                      exp_norm_objective, generate_quadratic, load_problem,
                      rosenbrock_objective, save_problem)
from conftest import fd_gradient, peak_bytes
from reference import quadratic_objective


class TestGenerateQuadratic:
    def test_dim1_spectrum_forced_to_L(self):
        p = generate_quadratic(1, 1.0, 1.0, seed=0)
        assert p.W.shape == (1, 1)
        assert p.W[0, 0] == pytest.approx(1.0)
        assert p.eigvals.tolist() == [1.0]

    def test_dim1_distinct_mu_L_takes_L(self):
        p = generate_quadratic(1, 1.0, 4.0, seed=0)
        assert p.eigvals.tolist() == [4.0]

    def test_equal_spacing_dim3(self):
        p = generate_quadratic(3, 1.0, 4.0, seed=7)
        assert np.allclose(p.eigvals, [1.0, 2.5, 4.0], atol=0, rtol=1e-15)

    def test_equal_spacing_gaps_constant(self):
        p = generate_quadratic(37, 0.5, 13.0, seed=2)
        gaps = np.diff(p.eigvals)
        assert np.all(np.abs(gaps - gaps[0]) <= 1e-12)

    def test_minimizer_residual_dim100(self):
        p = generate_quadratic(100, 1.0, 1000.0, seed=1)
        assert p.mu == 1.0
        assert p.lipschitz == 1000.0
        res = np.linalg.norm(p.W @ p.minimizer - p.linear)
        assert res <= 1e-8 * np.linalg.norm(p.linear)

    def test_reconstruction_and_orthogonality(self):
        p = generate_quadratic(30, 2.0, 50.0, seed=9)
        q = p.eigvecs
        assert np.max(np.abs(q.T @ q - np.eye(30))) <= 1e-10
        w = (q * p.eigvals) @ q.T
        assert np.linalg.norm(w - p.W) <= 1e-10 * np.linalg.norm(p.W)

    def test_deterministic_for_seed(self):
        p1 = generate_quadratic(12, 1.0, 9.0, seed=42)
        p2 = generate_quadratic(12, 1.0, 9.0, seed=42)
        assert np.array_equal(p1.W, p2.W)
        assert np.array_equal(p1.minimizer, p2.minimizer)

    def test_different_seeds_differ(self):
        p1 = generate_quadratic(12, 1.0, 9.0, seed=0)
        p2 = generate_quadratic(12, 1.0, 9.0, seed=1)
        assert not np.array_equal(p1.W, p2.W)

    def test_mu_zero_convex_case(self):
        p = generate_quadratic(5, 0.0, 10.0, seed=3)
        assert p.eigvals[0] == 0.0
        assert p.mu == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_quadratic(0, 1.0, 2.0, seed=0)
        with pytest.raises(ValueError):
            generate_quadratic(3, -0.5, 2.0, seed=0)
        with pytest.raises(ValueError):
            generate_quadratic(3, 2.0, 2.0, seed=0)  # mu == L needs dim 1
        with pytest.raises(ValueError):
            generate_quadratic(3, 2.0, 1.0, seed=0)


class TestQuadraticProblem:
    """The constructor takes the eigendecomposition; everything else is read
    from it, and only what is given is checked."""

    def test_derived_values(self):
        p = generate_quadratic(6, 2.0, 7.0, seed=3)
        assert (p.dim, p.mu, p.lipschitz, p.constant) == (6, 2.0, 7.0, 0.0)
        assert p.W is p.W  # computed once
        for a in (p.W, p.linear, p.eigvals, p.eigvecs, p.minimizer):
            assert not a.flags.writeable
        assert np.array_equal(p.W, p.W.T)
        assert np.array_equal(p.linear, p.W @ p.minimizer)

    def test_identity_equality_and_hash(self):
        # array fields have no single truth value: problems compare by identity
        p = generate_quadratic(3, 1.0, 4.0, seed=0)
        obj = rosenbrock_objective()
        assert p == p and obj == obj
        assert p != generate_quadratic(3, 1.0, 4.0, seed=0)
        assert rosenbrock_objective() != rosenbrock_objective()
        assert len({p, obj, p}) == 2

    @pytest.mark.parametrize("kwargs,message", [
        (dict(eigvals=np.zeros(0), eigvecs=np.eye(0), minimizer=np.zeros(0)),
         "nonempty"),
        (dict(eigvals=np.ones(2), eigvecs=np.eye(3), minimizer=np.zeros(2)),
         "eigvecs must be dim x dim"),
        (dict(eigvals=np.ones(2), eigvecs=np.eye(2), minimizer=np.zeros(3)),
         "minimizer must be a dim-vector"),
        (dict(eigvals=np.array([2.0, 1.0]), eigvecs=np.eye(2), minimizer=np.zeros(2)),
         "nondecreasing"),
        (dict(eigvals=np.array([-1.0, 1.0]), eigvecs=np.eye(2), minimizer=np.zeros(2)),
         "nonnegative"),
        (dict(eigvals=np.zeros(2), eigvecs=np.eye(2), minimizer=np.zeros(2)),
         "lipschitz must be positive"),
        (dict(eigvals=np.ones(2), eigvecs=2.0 * np.eye(2), minimizer=np.zeros(2)),
         "orthogonal"),
    ])
    def test_rejects_bad_factors(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            QuadraticProblem(**kwargs)


class TestEvaluateGradient:
    """``W`` and ``linear`` define the problem's value and gradient, read here
    through the full-space oracles of ``reference.quadratic_objective``."""

    def _scalar_problem(self):
        return quadratic_objective(QuadraticProblem(
            eigvals=np.array([2.0]), eigvecs=np.eye(1), minimizer=np.zeros(1)))

    def test_scalar_value(self):
        f = self._scalar_problem()
        assert f.value(np.array([3.0])) == pytest.approx(9.0)

    def test_scalar_gradient(self):
        f = self._scalar_problem()
        assert f.gradient(np.array([3.0])).tolist() == [6.0]

    def test_hand_evaluated_2d(self):
        p = QuadraticProblem(
            eigvals=np.array([1.0, 4.0]), eigvecs=np.eye(2),
            minimizer=np.array([1.0, 1.0]))
        assert p.W.tolist() == [[1.0, 0.0], [0.0, 4.0]]
        assert p.linear.tolist() == [1.0, 4.0]
        assert quadratic_objective(p).value(np.array([1.0, 1.0])) == pytest.approx(-2.5)

    def test_gradient_zero_at_minimizer(self):
        p = generate_quadratic(20, 1.0, 30.0, seed=5)
        assert np.linalg.norm(quadratic_objective(p).gradient(p.minimizer)) <= 1e-8

    def test_minimizer_is_local_minimum(self, rng):
        p = generate_quadratic(8, 0.5, 6.0, seed=11)
        f = quadratic_objective(p)
        base = f.value(p.minimizer)
        for _ in range(100):
            delta = rng.standard_normal(8)
            assert f.value(p.minimizer + delta) >= base - 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        f = quadratic_objective(generate_quadratic(6, 1.0, 12.0, seed=13))
        for _ in range(20):
            x = rng.standard_normal(6) * 2.0
            g = f.gradient(x)
            fd = fd_gradient(f.value, x)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


class TestCosineCounterexample:
    def test_stated_constants(self):
        obj = cosine_counterexample()
        assert obj.dim == 1
        assert obj.mu == pytest.approx(0.01)
        assert obj.lipschitz == pytest.approx(3.99)
        assert obj.minimizer.tolist() == [0.0]

    def test_value_at_zero(self):
        obj = cosine_counterexample()
        assert obj.value(np.zeros(1)) == pytest.approx(1.99 / 400)

    def test_gradient_at_zero(self):
        obj = cosine_counterexample()
        assert obj.gradient(np.zeros(1)).tolist() == [0.0]

    def test_second_derivative_extremes(self):
        obj = cosine_counterexample()
        # f''(x) = 2 - 1.99 cos(20x): minimum 0.01 at x=0, maximum 3.99
        h = 1e-5
        g = obj.gradient
        f2_at_0 = (g(np.array([h]))[0] - g(np.array([-h]))[0]) / (2 * h)
        assert f2_at_0 == pytest.approx(0.01, abs=1e-6)
        x_max = np.pi / 20  # cos(20x) = -1
        f2_max = (g(np.array([x_max + h]))[0] - g(np.array([x_max - h]))[0]) / (2 * h)
        assert f2_max == pytest.approx(3.99, abs=1e-6)


class TestOtherObjectives:
    def test_exp_norm_at_zero(self):
        obj = exp_norm_objective(2)
        assert obj.value(np.zeros(2)) == pytest.approx(1.0)
        assert np.all(obj.gradient(np.zeros(2)) == 0.0)

    def test_exp_norm_1d_chain_rule(self):
        obj = exp_norm_objective(1)
        x = np.array([1.0])
        assert obj.value(x) == pytest.approx(np.e)
        assert obj.gradient(x)[0] == pytest.approx(2 * np.e)

    def test_rosenbrock_minimum(self):
        obj = rosenbrock_objective()
        x = np.array([1.0, 1.0])
        assert obj.value(x) == 0.0
        assert np.all(obj.gradient(x) == 0.0)
        assert obj.minimizer.tolist() == [1.0, 1.0]

    def test_rosenbrock_origin(self):
        obj = rosenbrock_objective()
        assert obj.value(np.zeros(2)) == pytest.approx(1.0)

    def test_gradients_match_finite_differences(self, rng):
        cases = [
            (cosine_counterexample(), 2.0),
            (exp_norm_objective(3), 1.0),
            (rosenbrock_objective(), 1.5),
        ]
        for obj, scale in cases:
            for _ in range(25):
                x = rng.standard_normal(obj.dim) * scale
                g = obj.gradient(x)
                fd = fd_gradient(obj.value, x)
                assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        p = generate_quadratic(15, 1.0, 20.0, seed=4)
        path = tmp_path / "p.npz"
        save_problem(p, path)
        q = load_problem(path)
        assert q.dim == p.dim
        assert np.array_equal(q.W, p.W)
        assert np.array_equal(q.minimizer, p.minimizer)
        assert np.array_equal(q.eigvals, p.eigvals)
        assert q.constant == p.constant

    def test_round_trip_preserves_oracles(self, tmp_path, rng):
        p = generate_quadratic(7, 0.5, 9.0, seed=8)
        path = tmp_path / "p.npz"
        save_problem(p, path)
        q = load_problem(path)
        x = rng.standard_normal(7)
        fp, fq = quadratic_objective(p), quadratic_objective(q)
        assert fq.value(x) == pytest.approx(fp.value(x))
        assert np.allclose(fq.gradient(x), fp.gradient(x))

    def test_loaded_problem_derives_w_from_its_factors(self, tmp_path):
        # a W within the reconstruction tolerance loads; the problem's W is
        # the one its factors give, bit for bit
        p = generate_quadratic(5, 1.0, 6.0, seed=2)
        path = tmp_path / "p.npz"
        np.savez(path, W=p.W * (1 + 1e-13), linear=p.linear, constant=np.array(0.0),
                 eigvals=p.eigvals, eigvecs=p.eigvecs, minimizer=p.minimizer)
        assert np.array_equal(load_problem(path).W, p.W)

    @pytest.mark.parametrize("name,shape,message", [
        ("W", (2, 2), "W and eigvecs must be dim x dim"),
        ("eigvecs", (3, 2), "W and eigvecs must be dim x dim"),
        ("linear", (2,), "eigvals, linear and minimizer must be dim-vectors"),
        ("minimizer", (4,), "eigvals, linear and minimizer must be dim-vectors"),
    ])
    def test_shape_against_the_spectrum_is_refused(self, tmp_path, name, shape, message):
        p = generate_quadratic(3, 1.0, 4.0, seed=0)
        arrays = dict(W=p.W, linear=p.linear, constant=np.array(0.0),
                      eigvals=p.eigvals, eigvecs=p.eigvecs, minimizer=p.minimizer)
        arrays[name] = np.ones(shape)
        path = tmp_path / "p.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=message):
            load_problem(path)

    @pytest.mark.parametrize("name,value,message", [
        ("eigvals", np.array([1.0, np.nan, 4.0]), "eigvals must be nondecreasing"),
        ("eigvecs", np.full((3, 3), np.nan), "eigvecs must be orthogonal"),
        ("W", np.full((3, 3), np.nan), "W must be symmetric"),
        ("minimizer", np.full(3, np.nan), "minimizer does not solve"),
    ])
    def test_nan_in_the_file_is_rejected(self, tmp_path, name, value, message):
        p = generate_quadratic(3, 1.0, 4.0, seed=0)
        arrays = dict(W=p.W, linear=p.linear, constant=np.array(0.0),
                      eigvals=p.eigvals, eigvecs=p.eigvecs, minimizer=p.minimizer)
        arrays[name] = value
        path = tmp_path / "p.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=message):
            load_problem(path)


class TestPeakMemory:
    """The problem layer holds its factors plus one d x d work array per
    check; generate_quadratic's floor is numpy's QR (input, copy, Q, R)."""

    D = 400
    UNIT = D * D * 8  # bytes of one d x d array

    def test_constructor(self):
        p = generate_quadratic(self.D, 1.0, 100.0, seed=0)
        vals, vecs, mini = p.eigvals, np.array(p.eigvecs), p.minimizer
        # the frozen copy of eigvecs and the Gram matrix
        peak = peak_bytes(lambda: QuadraticProblem(vals, vecs, mini))
        assert peak <= 2.1 * self.UNIT

    def test_generate_quadratic(self):
        peak = peak_bytes(lambda: generate_quadratic(self.D, 1.0, 100.0, seed=0))
        assert peak <= 4.2 * self.UNIT

    def test_load_problem(self, tmp_path):
        path = tmp_path / "p.npz"
        save_problem(generate_quadratic(self.D, 1.0, 100.0, seed=0), path)
        # W and the factors, plus the reconstruction and its product temporary
        assert peak_bytes(lambda: load_problem(path)) <= 4.1 * self.UNIT
