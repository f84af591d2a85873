"""Gradient and value tests for the four training objectives.

Every analytic gradient is checked against central finite differences of
the implemented value, with relative tolerance 1e-4 elementwise and the
denominator floored at 1e-8.
"""

import math

import numpy as np
import pytest

from labelprior.annotations import smooth_label, soft_label
from labelprior.dirichlet import CategoricalDist, SingularityError, from_logits, log_pdf
from labelprior.losses import (
    LOGIT_CLAMP,
    LossConfig,
    LossKind,
    dpn_kl_loss,
    dpn_loss,
    example_loss,
    hard_loss,
    kl_loss,
    label_count_nll,
)

FD_STEP = 1e-5


def one_hot(index, k):
    label = np.zeros(k)
    label[index] = 1.0
    return label


def fd_gradient(fn, z, step=FD_STEP):
    grad = np.zeros_like(z)
    for i in range(z.shape[0]):
        up = z.copy()
        dn = z.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (fn(up) - fn(dn)) / (2.0 * step)
    return grad


def assert_grad_close(analytic, numeric, rel=1e-4):
    denom = np.maximum(np.abs(numeric), 1e-8)
    np.testing.assert_array_less(np.abs(analytic - numeric) / denom, rel)


def random_labels(rng, k, m):
    return [one_hot(int(rng.integers(0, k)), k) for m_ in range(m)]


class TestKlLoss:
    def test_zero_at_matching_target(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=4)
        e = np.exp(z - z.max())
        target = CategoricalDist(e / e.sum())
        loss = kl_loss(target, z)
        assert loss.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(loss.grad_z, 0.0, atol=1e-12)

    def test_one_hot_vs_uniform(self):
        loss = kl_loss(CategoricalDist(np.array([1.0, 0.0])), np.zeros(2))
        assert loss.value == pytest.approx(math.log(2.0), abs=1e-12)
        np.testing.assert_allclose(loss.grad_z, [-0.5, 0.5], atol=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = 5
            z = rng.normal(0.0, 2.0, size=k)
            t = rng.dirichlet(np.ones(k))
            target = CategoricalDist(t)
            analytic = kl_loss(target, z).grad_z
            numeric = fd_gradient(lambda v: kl_loss(target, v).value, z)
            assert_grad_close(analytic, numeric, rel=1e-5)

    def test_value_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            target = CategoricalDist(rng.dirichlet(np.ones(k)))
            assert kl_loss(target, rng.normal(size=k)).value >= -1e-12


class TestHardLoss:
    def test_confident_correct_prediction(self):
        z = np.array([30.0, 0.0, 0.0])
        assert hard_loss(one_hot(0, 3), z).value == pytest.approx(0.0, abs=1e-9)

    def test_uniform_two_way(self):
        assert hard_loss(one_hot(0, 2), np.zeros(2)).value == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            z = rng.normal(0.0, 2.0, size=k)
            label = one_hot(int(rng.integers(0, k)), k)
            analytic = hard_loss(label, z).grad_z
            numeric = fd_gradient(lambda v: hard_loss(label, v).value, z)
            assert_grad_close(analytic, numeric, rel=1e-5)


class TestDpnLoss:
    def test_flat_dirichlet_gives_zero(self):
        # alpha = (1, 1): the density is 1 on the simplex for any label.
        for labels in ([one_hot(0, 2)], [one_hot(0, 2), one_hot(1, 2)]):
            loss = dpn_loss(labels, np.zeros(2), eps1=0.01, eps2=0.0)
            assert loss.value == pytest.approx(0.0, abs=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = 3
            z = rng.normal(0.0, 1.5, size=k)
            labels = [one_hot(0, k), one_hot(0, k), one_hot(1, k)]
            analytic = dpn_loss(labels, z, eps1=0.01, eps2=0.0).grad_z
            numeric = fd_gradient(lambda v: dpn_loss(labels, v, 0.01, 0.0).value, z)
            assert_grad_close(analytic, numeric)

    def test_gradient_with_eps2(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            k = 5
            z = rng.normal(0.0, 1.5, size=k)
            labels = random_labels(rng, k, int(rng.integers(1, 6)))
            analytic = dpn_loss(labels, z, eps1=1e-2, eps2=1e-8).grad_z
            numeric = fd_gradient(lambda v: dpn_loss(labels, v, 1e-2, 1e-8).value, z)
            assert_grad_close(analytic, numeric)

    def test_matches_composition_of_density_and_smoothing(self):
        # The loss equals the mean negative log-density of the smoothed
        # labels under the clamped-logit Dirichlet, computed term by term
        # through the public pieces.
        rng = np.random.default_rng(47)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            z = rng.normal(0.0, 20.0, size=k)  # occasionally beyond the clamp
            labels = random_labels(rng, k, int(rng.integers(1, 6)))
            eps1, eps2 = 10 ** rng.uniform(-4, -1), 10 ** rng.uniform(-9, -6)
            params = from_logits(np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP), eps2)
            expected = -np.mean(
                [log_pdf(params, smooth_label(lab, eps1)) for lab in labels]
            )
            got = dpn_loss(labels, z, eps1, eps2).value
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-10)

    def test_duplicating_labels_keeps_value(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=2)
        once = dpn_loss([one_hot(0, 2), one_hot(1, 2)], z, 0.01, 0.0)
        twice = dpn_loss([one_hot(0, 2)] * 2 + [one_hot(1, 2)] * 2, z, 0.01, 0.0)
        assert twice.value == pytest.approx(once.value, abs=1e-12)

    def test_distinguishes_label_multiplicity(self):
        # One A label versus an A and a B: different unless the logits are
        # symmetric in the two classes.
        rng = np.random.default_rng(11)
        differs = 0
        for _ in range(100):
            z = rng.normal(0.0, 1.0, size=3)
            a_only = dpn_loss([one_hot(0, 3)], z, 0.01, 0.0).value
            a_and_b = dpn_loss([one_hot(0, 3), one_hot(1, 3)], z, 0.01, 0.0).value
            if abs(a_only - a_and_b) > 1e-9:
                differs += 1
        assert differs >= 95

    def test_singularity_without_smoothing(self):
        z = np.array([-1.0, -1.0])  # alpha < 1 everywhere
        with pytest.raises(SingularityError):
            dpn_loss([one_hot(0, 2)], z, eps1=0.0, eps2=0.0)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            dpn_loss([], np.zeros(2), 0.01, 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            k = 4
            z = rng.normal(size=k)
            labels = random_labels(rng, k, 3)
            perm = rng.permutation(k)
            loss = dpn_loss(labels, z, 0.01, 0.0)
            perm_loss = dpn_loss([lab[perm] for lab in labels], z[perm], 0.01, 0.0)
            assert perm_loss.value == pytest.approx(loss.value, abs=1e-12)
            np.testing.assert_allclose(perm_loss.grad_z, loss.grad_z[perm], atol=1e-12)


class TestLabelCountNll:
    def test_matches_sequential_predictive_product(self):
        # Polya urn: p(labels) = prod_m (alpha_cm + seen_cm) / (alpha0 + m).
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            z = rng.normal(0.0, 1.5, size=k)
            classes = [int(rng.integers(0, k)) for _ in range(int(rng.integers(1, 6)))]
            labels = [one_hot(c, k) for c in classes]
            alpha = np.exp(z)
            alpha0 = alpha.sum()
            log_p = 0.0
            seen = np.zeros(k)
            for m_i, c in enumerate(classes):
                log_p += math.log((alpha[c] + seen[c]) / (alpha0 + m_i))
                seen[c] += 1
            expected = -log_p / len(classes)
            assert label_count_nll(labels, z).value == pytest.approx(expected, abs=1e-10)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            z = rng.normal(0.0, 1.5, size=k)
            labels = random_labels(rng, k, int(rng.integers(1, 7)))
            analytic = label_count_nll(labels, z).grad_z
            numeric = fd_gradient(lambda v: label_count_nll(labels, v).value, z)
            assert_grad_close(analytic, numeric)

    def test_bounded_below_by_sample_average(self):
        # The marginal likelihood of a sequence never exceeds 1, so the
        # per-label NLL is non-negative.
        rng = np.random.default_rng(29)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            labels = random_labels(rng, k, int(rng.integers(1, 8)))
            assert label_count_nll(labels, rng.normal(size=k)).value >= 0.0


class TestDpnKlLoss:
    CONFIG = LossConfig(LossKind.DPN_KL, lam=20.0)

    def test_is_sum_of_its_terms(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = 3
            z = rng.normal(size=k)
            labels = [one_hot(0, k), one_hot(0, k), one_hot(1, k)]
            combined = dpn_kl_loss(labels, z, self.CONFIG)
            manual = (
                label_count_nll(labels, z).value
                + 20.0 * kl_loss(soft_label(labels), z).value
            )
            assert combined.value == pytest.approx(manual, abs=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            z = rng.normal(0.0, 1.5, size=k)
            labels = random_labels(rng, k, int(rng.integers(1, 6)))
            analytic = dpn_kl_loss(labels, z, self.CONFIG).grad_z
            numeric = fd_gradient(lambda v: dpn_kl_loss(labels, v, self.CONFIG).value, z)
            assert_grad_close(analytic, numeric)

    def test_no_smoothing_needed_on_one_hot_labels(self):
        # Raw one-hot labels with sub-unit concentrations stay finite.
        z = np.array([-2.0, -2.0, -2.0])
        loss = dpn_kl_loss([one_hot(0, 3)], z, self.CONFIG)
        assert math.isfinite(loss.value)
        assert np.all(np.isfinite(loss.grad_z))

    def test_lambda_zero_reduces_to_dirichlet_term(self):
        config = LossConfig(LossKind.DPN_KL, lam=0.0)
        z = np.array([0.5, -0.5])
        labels = [one_hot(0, 2), one_hot(1, 2)]
        assert dpn_kl_loss(labels, z, config).value == pytest.approx(
            label_count_nll(labels, z).value, abs=1e-15
        )


class TestLossConfig:
    def test_defaults_for_dpn(self):
        config = LossConfig.default_for(LossKind.DPN)
        assert config.eps1 == pytest.approx(1e-2)
        assert config.eps2 == pytest.approx(1e-8)

    def test_defaults_for_dpn_kl(self):
        config = LossConfig.default_for(LossKind.DPN_KL)
        assert config.eps1 == 0.0
        assert config.eps2 == 0.0
        assert config.lam == pytest.approx(20.0)

    def test_rejects_negative_constants(self):
        with pytest.raises(ValueError):
            LossConfig(LossKind.DPN, eps1=-1e-3)
        with pytest.raises(ValueError):
            LossConfig(LossKind.DPN_KL, lam=-1.0)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_rejects_constants_the_kind_ignores(self, kind):
        for field in ("eps1", "eps2", "lam"):
            used = kind == LossKind.DPN_KL if field == "lam" else kind == LossKind.DPN
            if used:
                LossConfig(kind, **{field: 1e-3})
            else:
                with pytest.raises(ValueError, match="only to the"):
                    LossConfig(kind, **{field: 1e-3})
        LossConfig.default_for(kind)


class TestExampleLoss:
    def test_hard_requires_majority(self):
        config = LossConfig(LossKind.HARD)
        soft = CategoricalDist(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            example_loss(config, np.zeros(2), [one_hot(0, 2)], soft, None)

    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(5)
        k = 4
        z = rng.normal(size=k)
        labels = [one_hot(0, k), one_hot(0, k), one_hot(2, k)]
        soft = soft_label(labels)
        cases = [
            (LossConfig(LossKind.HARD), hard_loss(one_hot(0, k), z).value),
            (LossConfig(LossKind.SOFT_KL), kl_loss(soft, z).value),
            (
                LossConfig.default_for(LossKind.DPN),
                dpn_loss(labels, z, 1e-2, 1e-8).value,
            ),
            (
                LossConfig.default_for(LossKind.DPN_KL),
                dpn_kl_loss(labels, z, LossConfig.default_for(LossKind.DPN_KL)).value,
            ),
        ]
        for config, expected in cases:
            got = example_loss(config, z, labels, soft, majority=0)
            assert got.value == pytest.approx(expected, abs=1e-12)


def test_all_losses_permutation_equivariant():
    rng = np.random.default_rng(77)
    for _ in range(20):
        k = 5
        z = rng.normal(size=k)
        labels = random_labels(rng, k, 4)
        soft = soft_label(labels)
        perm = rng.permutation(k)
        perm_labels = [lab[perm] for lab in labels]
        perm_soft = CategoricalDist(soft.p[perm])
        pairs = [
            (kl_loss(soft, z), kl_loss(perm_soft, z[perm])),
            (
                dpn_loss(labels, z, 0.01, 1e-8),
                dpn_loss(perm_labels, z[perm], 0.01, 1e-8),
            ),
            (
                dpn_kl_loss(labels, z, LossConfig.default_for(LossKind.DPN_KL)),
                dpn_kl_loss(perm_labels, z[perm], LossConfig.default_for(LossKind.DPN_KL)),
            ),
        ]
        for base, permuted in pairs:
            assert permuted.value == pytest.approx(base.value, abs=1e-12)
            np.testing.assert_allclose(permuted.grad_z, base.grad_z[perm], atol=1e-12)
