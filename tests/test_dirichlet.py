"""Tests for the Dirichlet prior: log-density against an arbitrary
precision oracle, predictive mean, and boundary behaviour."""

import math

import mpmath as mp
import numpy as np
import pytest

from labelprior.dirichlet import (
    CategoricalDist,
    DirichletParams,
    SingularityError,
    from_logits,
    log_pdf,
    predictive_mean,
)

mp.mp.dps = 50


def oracle_log_pdf(alpha, mu):
    """Direct high-precision evaluation of the Dirichlet log-density."""
    alpha = [mp.mpf(float(a)) for a in alpha]
    mu = [mp.mpf(float(m)) for m in mu]
    value = mp.loggamma(mp.fsum(alpha))
    for a, m in zip(alpha, mu):
        value -= mp.loggamma(a)
        value += (a - 1) * mp.log(m)
    return float(value)


class TestCategoricalDist:
    def test_accepts_valid(self):
        dist = CategoricalDist(np.array([0.2, 0.3, 0.5]))
        assert dist.k == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CategoricalDist(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            CategoricalDist(np.array([0.5, 0.4]))

    def test_rejects_a_scalar(self):
        with pytest.raises(ValueError, match=r"^a categorical distribution must be a \(K,\) "
                           r"vector or \(N, K\) batch$"):
            CategoricalDist(np.float64(1.0))


class TestDirichletParams:
    def test_alpha0_computed(self):
        params = DirichletParams(np.array([2.0, 1.0]))
        assert params.alpha0 == pytest.approx(3.0, abs=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            DirichletParams(np.array([1.0, 0.0]))

    def test_rejects_a_single_class(self):
        with pytest.raises(ValueError, match=r"^alpha must be a \(K,\) vector or \(N, K\) "
                           r"batch with K >= 2$"):
            DirichletParams(np.ones(1))


class TestFromLogits:
    def test_zero_logits(self):
        params = from_logits(np.zeros(5), 0.0)
        np.testing.assert_allclose(params.alpha, np.ones(5), atol=0)
        assert params.alpha0 == pytest.approx(5.0, abs=1e-12)

    def test_log_two(self):
        params = from_logits(np.array([math.log(2.0), 0.0]), 0.0)
        np.testing.assert_allclose(params.alpha, [2.0, 1.0], atol=1e-15)
        assert params.alpha0 == pytest.approx(3.0, abs=1e-12)

    def test_offset(self):
        params = from_logits(np.zeros(2), 1e-8)
        np.testing.assert_allclose(params.alpha, [1.0 + 1e-8] * 2, atol=0)

    def test_clamps_like_training(self):
        # Beyond exp()'s range, the logits take training's clamp at +-60.
        params = from_logits(np.array([0.0, 701.0, -701.0]), 1e-8)
        np.testing.assert_array_equal(params.alpha, np.exp([0.0, 60.0, -60.0]) + 1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            from_logits(np.array([0.0, float("nan")]), 0.0)

    def test_rejects_negative_eps2(self):
        with pytest.raises(ValueError, match="^eps2 must be non-negative$"):
            from_logits(np.zeros(3), -1.0)

    @pytest.mark.parametrize("z", [np.zeros(5), np.zeros((3, 5))], ids=["row", "batch"])
    def test_rejects_eps2_overflowing_alpha0(self, z):
        # alpha0 is at most K*(e^60 + eps2); the largest eps2 that keeps it finite works.
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match=r"eps2 must keep K\*\(e\^60 \+ eps2\) "
                               r"finite, so lie below 3\.595e\+307 for K = 5, got 1e\+308"):
                from_logits(z, 1e308)
            assert np.isfinite(predictive_mean(from_logits(z, 3e307)).p).all()


class TestLogPdf:
    def test_flat_dirichlet_k3(self):
        params = DirichletParams(np.ones(3))
        mu = CategoricalDist(np.array([0.2, 0.3, 0.5]))
        assert log_pdf(params, mu) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_flat_dirichlet_k2_is_zero(self):
        params = DirichletParams(np.ones(2))
        for p in (0.1, 0.5, 0.9):
            mu = CategoricalDist(np.array([p, 1.0 - p]))
            assert log_pdf(params, mu) == pytest.approx(0.0, abs=1e-12)

    def test_flat_dirichlet_equals_log_gamma_k(self):
        rng = np.random.default_rng(42)
        for k in (2, 3, 5, 8):
            mu = rng.dirichlet(np.ones(k) * 3.0)
            value = log_pdf(DirichletParams(np.ones(k)), CategoricalDist(mu))
            assert value == pytest.approx(math.log(math.factorial(k - 1)), abs=1e-12)

    def test_against_high_precision_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            alpha = rng.uniform(0.1, 10.0, size=k)
            mu = rng.dirichlet(np.ones(k) * 2.0)
            mu = np.clip(mu, 1e-6, None)
            mu = mu / mu.sum()
            value = log_pdf(DirichletParams(alpha), CategoricalDist(mu))
            assert value == pytest.approx(oracle_log_pdf(alpha, mu), abs=1e-10)

    def test_named_case_against_oracle(self):
        alpha = np.array([3.2, 0.7, 1.5])
        mu = np.array([0.5, 0.2, 0.3])
        value = log_pdf(DirichletParams(alpha), CategoricalDist(mu))
        assert value == pytest.approx(oracle_log_pdf(alpha, mu), abs=1e-12)

    def test_zero_component_with_small_alpha_raises(self):
        params = DirichletParams(np.array([0.5, 1.5]))
        with pytest.raises(SingularityError):
            log_pdf(params, CategoricalDist(np.array([0.0, 1.0])))

    def test_zero_component_with_large_alpha_is_minus_inf(self):
        params = DirichletParams(np.array([2.0, 1.5]))
        assert log_pdf(params, CategoricalDist(np.array([0.0, 1.0]))) == float("-inf")

    def test_zero_component_with_unit_alpha_drops_term(self):
        params = DirichletParams(np.array([1.0, 2.0]))
        value = log_pdf(params, CategoricalDist(np.array([0.0, 1.0])))
        assert value == pytest.approx(oracle_log_pdf([1.0, 2.0], [1.0, 1.0]), abs=1e-12)

    def test_integrates_to_one_k3(self):
        # Uniform simplex samples: exp(log_pdf) averaged over the triangle
        # times its area (1/2 in the two free coordinates) must be ~1.
        rng = np.random.default_rng(12345)
        params = DirichletParams(np.array([1.2, 0.9, 1.5]))
        samples = rng.dirichlet(np.ones(3), size=100_000)
        samples = np.clip(samples, 1e-300, None)
        mu = CategoricalDist(samples / samples.sum(axis=1, keepdims=True))
        integral = float(np.mean(np.exp(log_pdf(params, mu)))) * 0.5
        assert integral == pytest.approx(1.0, rel=0.05)


class TestPredictiveMean:
    def test_simple_mean(self):
        mean = predictive_mean(DirichletParams(np.array([2.0, 1.0, 1.0])))
        np.testing.assert_allclose(mean.p, [0.5, 0.25, 0.25], atol=1e-15)

    def test_uniform(self):
        mean = predictive_mean(DirichletParams(np.ones(5)))
        np.testing.assert_allclose(mean.p, np.full(5, 0.2), atol=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            alpha = rng.uniform(0.05, 20.0, size=k)
            base = predictive_mean(DirichletParams(alpha)).p
            for c in (1e-3, 1.0, 1e3):
                scaled = predictive_mean(DirichletParams(c * alpha)).p
                np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_softmax_equivalence(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            z = rng.normal(0.0, 3.0, size=k)
            mean = predictive_mean(from_logits(z, 0.0)).p
            e = np.exp(z - z.max())
            np.testing.assert_allclose(mean, e / e.sum(), atol=1e-12)


class TestBatches:
    """Row i of a batched call equals the single-row call on row i."""

    Z = np.array([[0.0, 1.0, -2.0], [3.0, -1.0, 0.5], [-60.0, 60.0, 0.0]])

    def test_from_logits_and_predictive_mean_rows(self):
        params = from_logits(self.Z, 1e-8)
        mean = predictive_mean(params)
        assert params.alpha0.shape == (3,) and mean.p.shape == (3, 3)
        for i, z in enumerate(self.Z):
            row = from_logits(z, 1e-8)
            np.testing.assert_array_equal(params.alpha[i], row.alpha)
            assert params.alpha0[i] == row.alpha0
            np.testing.assert_array_equal(mean.p[i], predictive_mean(row).p)

    def test_log_pdf_rows_with_minus_inf_and_dropped_term(self):
        alpha = np.array([[1.2, 0.9, 1.5], [2.0, 1.5, 3.0], [1.0, 2.0, 0.5]])
        mu = np.array([[0.2, 0.3, 0.5], [0.0, 0.4, 0.6], [0.0, 0.5, 0.5]])
        values = log_pdf(DirichletParams(alpha), CategoricalDist(mu))
        expected = [log_pdf(DirichletParams(a), CategoricalDist(m)) for a, m in zip(alpha, mu)]
        np.testing.assert_array_equal(values, expected)
        assert values[1] == float("-inf") and np.isfinite(values[2])
        # One parameter row pairs with every point of a batch.
        np.testing.assert_array_equal(
            log_pdf(DirichletParams(alpha[0]), CategoricalDist(mu[:1].repeat(2, axis=0))),
            [expected[0]] * 2)

    def test_log_pdf_names_the_singular_row(self):
        alpha = np.array([[2.0, 2.0], [1.5, 1.5], [1.5, 0.5]])
        mu = CategoricalDist(np.array([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SingularityError, match="in row 2") as err:
            log_pdf(DirichletParams(alpha), mu)
        assert err.value.row == 2
        with pytest.raises(SingularityError) as err:
            log_pdf(DirichletParams(alpha[2]), CategoricalDist(mu.p[2]))
        assert err.value.row is None

    def test_bad_rows_are_named(self):
        with pytest.raises(ValueError, match="row 1"):
            CategoricalDist(np.array([[0.5, 0.5], [0.5, 0.4]]))
        with pytest.raises(ValueError):
            DirichletParams(np.array([[1.0, 1.0], [1.0, 0.0]]))
        # Not a bad row: from_logits clamps it as in training.
        params = from_logits(np.vstack([self.Z[:2], [0.0, 701.0, -701.0]]), 1e-8)
        np.testing.assert_array_equal(params.alpha[2], np.exp([0.0, 60.0, -60.0]) + 1e-8)

    @pytest.mark.parametrize("shape", [(), (2, 2, 3)])
    def test_only_rows_and_batches(self, shape):
        with pytest.raises(ValueError, match=r"^logits must be a \(K,\) vector or \(N, K\) batch$"):
            from_logits(np.ones(shape))
        with pytest.raises(ValueError, match=r"^mu must be a \(K,\) vector or \(N, K\) batch$"):
            log_pdf(DirichletParams(np.ones(3)), np.full(shape, 1.0 / 3.0))
        with pytest.raises(ValueError, match="^dimension mismatch between mu and alpha$"):
            log_pdf(DirichletParams(np.ones(3)), np.full((2, 2), 0.5))

    def test_dists_are_array_like(self):
        rows = [CategoricalDist(p) for p in predictive_mean(from_logits(self.Z)).p]
        np.testing.assert_array_equal(np.asarray(rows), predictive_mean(from_logits(self.Z)))
        assert CategoricalDist(np.asarray(rows)).k == 3

    def test_array_protocol_without_copy_argument(self):
        # NumPy 1.x calls __array__(dtype) with no copy argument.
        dist = predictive_mean(from_logits(self.Z))
        assert dist.__array__(np.float32).dtype == np.float32
        assert dist.__array__() is dist.p
        copied = dist.__array__(None, True)
        assert copied is not dist.p and np.array_equal(copied, dist.p)
