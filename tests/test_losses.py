"""Gradient and value tests for the four training objectives.

Every objective is :func:`batch_loss`; a single example is a batch of one,
either through ``batch_loss`` directly or through ``example_loss``, which
returns the same (value, gradient) pair for that one row.  Every
analytic gradient is checked against central finite differences of the
implemented value, with relative tolerance 1e-4 elementwise and the
denominator floored at 1e-8.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from labelprior.annotations import soft_label
from labelprior.dirichlet import CategoricalDist, SingularityError, _head, from_logits, log_pdf
from labelprior.losses import (
    LOGIT_CLAMP,
    LabelTerms,
    LossConfig,
    LossKind,
    _kl,
    batch_loss,
    example_loss,
    terms_loss,
)

FD_STEP = 1e-5

HARD = LossConfig(LossKind.HARD)
SOFT = LossConfig(LossKind.SOFT_KL)
POLYA = LossConfig(LossKind.DPN_KL)  # lambda = 0: the Polya term alone


def one_hot(index, k):
    label = np.zeros(k)
    label[index] = 1.0
    return label


def fd_gradient(fn, z, step=FD_STEP):
    """Central differences along the last axis; ``fn`` maps logits to values,
    one per row for a (B, K) batch."""
    grad = np.zeros_like(z)
    for i in range(z.shape[-1]):
        up = z.copy()
        dn = z.copy()
        up[..., i] += step
        dn[..., i] -= step
        grad[..., i] = (fn(up) - fn(dn)) / (2.0 * step)
    return grad


def assert_grad_close(analytic, numeric, rel=1e-4):
    denom = np.maximum(np.abs(numeric), 1e-8)
    np.testing.assert_array_less(np.abs(analytic - numeric) / denom, rel)


def random_labels(rng, k, m):
    return [one_hot(int(rng.integers(0, k)), k) for m_ in range(m)]


def counts_of(labels):
    return np.sum(labels, axis=0)


def smoothed(label, eps1):
    """A one-hot label smoothed as dpn smooths it: eps1 + (1 - K*eps1)*label."""
    return CategoricalDist(eps1 + (1 - label.size * eps1) * label)


class TestKlLoss:
    def test_zero_at_matching_target(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=4)
        e = np.exp(z - z.max())
        values, grad = batch_loss(SOFT, z[None], (e / e.sum())[None])
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad[0], 0.0, atol=1e-12)

    def test_one_hot_vs_uniform(self):
        values, grad = batch_loss(SOFT, np.zeros((1, 2)), np.array([[1.0, 0.0]]))
        assert values[0] == pytest.approx(math.log(2.0), abs=1e-12)
        np.testing.assert_allclose(grad[0], [-0.5, 0.5], atol=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(42)
        k = 5
        z, t = map(np.array, zip(*[(rng.normal(0.0, 2.0, size=k), rng.dirichlet(np.ones(k)))
                                   for _ in range(50)]))
        analytic = batch_loss(SOFT, z, t)[1]
        numeric = fd_gradient(lambda v: batch_loss(SOFT, v, t)[0], z)
        assert_grad_close(analytic, numeric, rel=1e-5)

    def test_value_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            target = rng.dirichlet(np.ones(k))
            z = rng.normal(size=k)
            assert batch_loss(SOFT, z[None], target[None])[0][0] >= -1e-12


class TestHardLoss:
    def test_confident_correct_prediction(self):
        z = np.array([[30.0, 0.0, 0.0]])
        values, _ = batch_loss(HARD, z, one_hot(0, 3)[None])
        assert values[0] == pytest.approx(0.0, abs=1e-9)

    def test_uniform_two_way(self):
        values, _ = batch_loss(HARD, np.zeros((1, 2)), one_hot(0, 2)[None])
        assert values[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            z = rng.normal(0.0, 2.0, size=k)
            c = int(rng.integers(0, k))
            label = one_hot(c, k)[None]
            analytic = batch_loss(HARD, z[None], label)[1][0]
            numeric = fd_gradient(lambda v: batch_loss(HARD, v[None], label)[0][0], z)
            assert_grad_close(analytic, numeric, rel=1e-5)


class TestDpnLoss:
    def test_flat_dirichlet_gives_zero(self):
        # alpha = (1, 1): the density is 1 on the simplex for any label.
        config = LossConfig(LossKind.DPN, eps1=0.01, eps2=0.0)
        counts = np.array([counts_of([one_hot(0, 2)]), counts_of([one_hot(0, 2), one_hot(1, 2)])])
        values, _ = batch_loss(config, np.zeros((2, 2)), counts)
        np.testing.assert_allclose(values, 0.0, atol=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(42)
        config = LossConfig(LossKind.DPN, eps1=0.01, eps2=0.0)
        k = 3
        z = np.array([rng.normal(0.0, 1.5, size=k) for _ in range(50)])
        counts = np.tile(counts_of([one_hot(0, k), one_hot(0, k), one_hot(1, k)]), (50, 1))
        analytic = batch_loss(config, z, counts)[1]
        numeric = fd_gradient(lambda v: batch_loss(config, v, counts)[0], z)
        assert_grad_close(analytic, numeric)

    def test_gradient_with_eps2(self):
        rng = np.random.default_rng(13)
        config = LossConfig(LossKind.DPN, eps1=1e-2, eps2=1e-8)
        k = 5
        z, counts = map(np.array, zip(*[
            (rng.normal(0.0, 1.5, size=k), counts_of(random_labels(rng, k, int(rng.integers(1, 6)))))
            for _ in range(20)]))
        analytic = batch_loss(config, z, counts)[1]
        numeric = fd_gradient(lambda v: batch_loss(config, v, counts)[0], z)
        assert_grad_close(analytic, numeric)

    def test_matches_composition_of_density_and_smoothing(self):
        # The loss equals the mean negative log-density of the smoothed
        # labels under the clamped-logit Dirichlet, computed term by term
        # through the public pieces.
        rng = np.random.default_rng(47)
        # The seeded draws stay inside the clamp; two fixed rows go beyond it,
        # the second also beyond exp()'s range.
        beyond = [np.array([80.0, -80.0, 0.0]), np.array([800.0, 0.0, -800.0])]
        for i in range(30 + len(beyond)):
            z = rng.normal(0.0, 20.0, size=int(rng.integers(2, 6))) if i < 30 else beyond[i - 30]
            k = z.size
            labels = random_labels(rng, k, int(rng.integers(1, 6)))
            eps1, eps2 = 10 ** rng.uniform(-4, -1), 10 ** rng.uniform(-9, -6)
            params = from_logits(z, eps2)
            expected = -np.mean([log_pdf(params, smoothed(lab, eps1)) for lab in labels])
            config = LossConfig(LossKind.DPN, eps1=eps1, eps2=eps2)
            got, _ = example_loss(config, z, labels, soft_label(labels), None)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-10)

    def test_duplicating_labels_keeps_value(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=2)
        config = LossConfig(LossKind.DPN, eps1=0.01, eps2=0.0)
        once = counts_of([one_hot(0, 2), one_hot(1, 2)])
        twice = counts_of([one_hot(0, 2)] * 2 + [one_hot(1, 2)] * 2)
        values, _ = batch_loss(config, np.array([z, z]), np.array([once, twice]))
        assert values[1] == pytest.approx(values[0], abs=1e-12)

    def test_distinguishes_label_multiplicity(self):
        # One A label versus an A and a B: different unless the logits are
        # symmetric in the two classes.
        rng = np.random.default_rng(11)
        config = LossConfig(LossKind.DPN, eps1=0.01, eps2=0.0)
        z = np.array([rng.normal(0.0, 1.0, size=3) for _ in range(100)])
        a_only = batch_loss(config, z, np.tile([1, 0, 0], (100, 1)))[0]
        a_and_b = batch_loss(config, z, np.tile([1, 1, 0], (100, 1)))[0]
        assert np.count_nonzero(np.abs(a_only - a_and_b) > 1e-9) >= 95

    def test_singularity_without_smoothing(self):
        z = np.array([[-1.0, -1.0]])  # alpha < 1 everywhere
        with pytest.raises(SingularityError):
            batch_loss(LossConfig(LossKind.DPN, eps1=0.0, eps2=0.0), z, one_hot(0, 2)[None])

    def test_eps1_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(LossKind.DPN, eps1=-0.01)
        config = LossConfig(LossKind.DPN, eps1=0.5)  # 1/(K-1) = 0.5 for K=3
        with pytest.raises(ValueError, match=r"eps1 must lie in \[0, 1/\(K-1\)\)"):
            batch_loss(config, np.zeros((1, 3)), one_hot(0, 3)[None])

    def test_empty_labels_rejected(self):
        config = LossConfig(LossKind.DPN, eps1=0.01, eps2=0.0)
        with pytest.raises(ValueError):
            example_loss(config, np.zeros(2), [], CategoricalDist(np.array([0.5, 0.5])), None)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        config = LossConfig(LossKind.DPN, eps1=0.01, eps2=0.0)
        for _ in range(20):
            k = 4
            z = rng.normal(size=k)
            labels = random_labels(rng, k, 3)
            perm = rng.permutation(k)
            perm_labels = [lab[perm] for lab in labels]
            value, grad = example_loss(config, z, labels, soft_label(labels), None)
            perm_value, perm_grad = example_loss(config, z[perm], perm_labels,
                                                 soft_label(perm_labels), None)
            assert perm_value == pytest.approx(value, abs=1e-12)
            np.testing.assert_allclose(perm_grad, grad[perm], atol=1e-12)


class TestPolyaTerm:
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
            got, _ = example_loss(POLYA, z, labels, soft_label(labels), None)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            z = rng.normal(0.0, 1.5, size=k)
            labels = random_labels(rng, k, int(rng.integers(1, 7)))
            soft = soft_label(labels)
            analytic = example_loss(POLYA, z, labels, soft, None)[1]
            numeric = fd_gradient(lambda v: example_loss(POLYA, v, labels, soft, None)[0], z)
            assert_grad_close(analytic, numeric)

    def test_bounded_below_by_sample_average(self):
        # The marginal likelihood of a sequence never exceeds 1, so the
        # per-label NLL is non-negative.
        rng = np.random.default_rng(29)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            labels = random_labels(rng, k, int(rng.integers(1, 8)))
            z = rng.normal(size=k)
            assert example_loss(POLYA, z, labels, soft_label(labels), None)[0] >= 0.0


class TestDpnKlLoss:
    CONFIG = LossConfig(LossKind.DPN_KL, lam=20.0)

    def test_is_sum_of_its_terms(self):
        rng = np.random.default_rng(42)
        k = 3
        z = np.array([rng.normal(size=k) for _ in range(20)])
        counts = np.tile(counts_of([one_hot(0, k), one_hot(0, k), one_hot(1, k)]), (20, 1))
        combined = batch_loss(self.CONFIG, z, counts)[0]
        manual = batch_loss(POLYA, z, counts)[0] + 20.0 * batch_loss(SOFT, z, counts)[0]
        np.testing.assert_allclose(combined, manual, rtol=0, atol=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            z = rng.normal(0.0, 1.5, size=k)
            labels = random_labels(rng, k, int(rng.integers(1, 6)))
            soft = soft_label(labels)
            analytic = example_loss(self.CONFIG, z, labels, soft, None)[1]
            numeric = fd_gradient(
                lambda v: example_loss(self.CONFIG, v, labels, soft, None)[0], z)
            assert_grad_close(analytic, numeric)

    def test_no_smoothing_needed_on_one_hot_labels(self):
        # Raw one-hot labels with sub-unit concentrations stay finite.
        z = np.array([[-2.0, -2.0, -2.0]])
        values, grad = batch_loss(self.CONFIG, z, one_hot(0, 3)[None])
        assert math.isfinite(values[0])
        assert np.all(np.isfinite(grad))

    def test_lambda_zero_reduces_to_dirichlet_term(self):
        config = LossConfig(LossKind.DPN_KL, lam=0.0)
        z = np.array([0.5, -0.5])
        counts = counts_of([one_hot(0, 2), one_hot(1, 2)])
        values, _ = batch_loss(config, z[None], counts[None])
        assert values[0] == pytest.approx(reference_polya([0, 1], list(z)), abs=1e-15)


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

    @pytest.mark.parametrize("kind, args", [("dpn", {"eps1": 1e-2}), ("soft", {}), (None, {})])
    def test_rejects_a_kind_that_is_not_a_loss_kind(self, kind, args):
        with pytest.raises(ValueError, match=f"^unknown loss kind: {kind!r}$"):
            LossConfig(kind, **args)


class TestExampleLoss:
    def test_hard_requires_majority(self):
        # None, and the indices outside the class space: -1 and K.
        config = LossConfig(LossKind.HARD)
        soft = CategoricalDist(np.array([1.0, 0.0]))
        for majority in (None, -1, 2):
            with pytest.raises(ValueError, match="majority"):
                example_loss(config, np.zeros(2), [one_hot(0, 2)], soft, majority)

    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(5)
        k = 4
        z = rng.normal(size=k)
        labels = [one_hot(0, k), one_hot(0, k), one_hot(2, k)]
        soft = soft_label(labels)
        for kind in LossKind:
            config = LossConfig.default_for(kind)
            # hard trains on one label of the majority class.
            counts = one_hot(0, k) if kind == LossKind.HARD else counts_of(labels)
            values, grad = batch_loss(config, z[None], counts[None])
            got_value, got_grad = example_loss(config, z, labels, soft, majority=0)
            assert got_value == pytest.approx(values[0], abs=1e-12)
            np.testing.assert_array_equal(got_grad, grad[0])


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
        for config in (SOFT, LossConfig(LossKind.DPN, eps1=0.01, eps2=1e-8),
                       LossConfig.default_for(LossKind.DPN_KL)):
            value, grad = example_loss(config, z, labels, soft, None)
            perm_value, perm_grad = example_loss(config, z[perm], perm_labels, perm_soft, None)
            assert perm_value == pytest.approx(value, abs=1e-12)
            np.testing.assert_allclose(perm_grad, grad[perm], atol=1e-12)


def random_batch(rng, kind, b, k, max_labels):
    """(B, K) logits and counts, (B,) majorities and the rows' label lists.
    For hard each row's M labels are vote-and-replaced: M at its drawn
    majority, 0 elsewhere."""
    z = rng.normal(0.0, 2.0, size=(b, k))
    label_lists = []
    for _ in range(b):
        classes = rng.integers(0, k, size=int(rng.integers(1, max_labels + 1)))
        label_lists.append([one_hot(int(c), k) for c in classes])
    counts = np.array([np.sum(labels, axis=0) for labels in label_lists])
    majority = rng.integers(0, k, size=b)
    if kind == LossKind.HARD:
        counts = counts.sum(axis=1, keepdims=True) * np.eye(k)[majority]
    return z, counts, majority, label_lists


def reference_kl(target, z):
    # KL(target || softmax(z)) in Python floats.
    top = max(z)
    log_norm = top + math.log(sum(math.exp(v - top) for v in z))
    return sum(t * (math.log(t) - (v - log_norm)) for t, v in zip(target, z) if t > 0.0)


def reference_polya(classes, z):
    # Polya urn: -ln prod_m (alpha_cm + seen_cm) / (alpha0 + m), per label.
    alpha = [math.exp(v) for v in z]
    alpha0 = sum(alpha)
    seen = [0] * len(z)
    log_p = 0.0
    for m_i, c in enumerate(classes):
        log_p += math.log((alpha[c] + seen[c]) / (alpha0 + m_i))
        seen[c] += 1
    return -log_p / len(classes)


def reference_value(config, z, labels, majority):
    k = len(z)
    zs = [float(v) for v in z]
    soft = [float(v) for v in np.mean(labels, axis=0)]
    if config.kind == LossKind.HARD:
        return reference_kl([1.0 if c == majority else 0.0 for c in range(k)], zs)
    if config.kind == LossKind.SOFT_KL:
        return reference_kl(soft, zs)
    if config.kind == LossKind.DPN:
        params = from_logits(z, config.eps2)
        return -np.mean([log_pdf(params, smoothed(lab, config.eps1)) for lab in labels])
    classes = [int(np.argmax(lab)) for lab in labels]
    return reference_polya(classes, zs) + config.lam * reference_kl(soft, zs)


class TestBatchLoss:
    # Shapes: the paper corpus (K = 5, a few labels per row) and a crowd
    # corpus (K = 10, 1-40 labels per row).
    SHAPES = [(32, 5, 6), (32, 10, 40)]

    @pytest.mark.parametrize("b, k, max_labels", SHAPES)
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_rows_match_independent_references(self, kind, b, k, max_labels):
        rng = np.random.default_rng(101 + k)
        config = LossConfig.default_for(kind)
        for _ in range(3):
            z, counts, majority, label_lists = random_batch(rng, kind, b, k, max_labels)
            values, grad = batch_loss(config, z, counts)
            assert values.shape == (b,) and grad.shape == (b, k)
            for row in range(b):
                expected = reference_value(config, z[row], label_lists[row], majority[row])
                assert values[row] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("b, k, max_labels", SHAPES)
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_gradients_against_finite_differences(self, kind, b, k, max_labels):
        rng = np.random.default_rng(202 + k)
        config = LossConfig.default_for(kind)
        z, counts, _, _ = random_batch(rng, kind, b, k, max_labels)
        _, grad = batch_loss(config, z, counts)
        for row in range(0, b, 4):
            def value(v, row=row):
                return batch_loss(config, v[None], counts[row : row + 1])[0][0]

            assert_grad_close(grad[row], fd_gradient(value, z[row].copy()))

    def test_singular_row_is_reported(self):
        # eps1 = 0: a zero label component meeting alpha_k < 1 is singular.
        config = LossConfig(LossKind.DPN)
        z = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        counts = np.array([[1, 1, 1], [2, 0, 1], [3, 0, 0], [0, 1, 0]])
        with pytest.raises(SingularityError, match=r"component 1 .* < 1") as info:
            batch_loss(config, z, counts)
        assert info.value.row == 1

    def test_diverging_row_is_inf_and_others_finite(self):
        # eps1 = 0 with alpha_k > 1 at a zero label component: +inf.
        config = LossConfig(LossKind.DPN)
        z = np.array([[0.0, 0.0], [0.0, 1.0]])
        counts = np.array([[1, 1], [1, 0]])
        values, grad = batch_loss(config, z, counts)
        assert values[0] == pytest.approx(0.0, abs=1e-12) and values[1] == math.inf
        assert np.all(np.isfinite(grad))
        # alpha_k == 1 exactly at both zero components: their terms drop out,
        # leaving -ln Dir((1, 0, 0) | 1, 1, 1) = -ln Gamma(3) = -ln 2.
        values, grad = batch_loss(config, np.zeros((1, 3)), np.array([[3, 0, 0]]))
        assert values[0] == pytest.approx(-math.log(2.0), abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_hard_needs_a_majority_on_every_row(self):
        z = np.zeros((2, 3))
        counts = np.array([[1, 0, 0], [1, 1, 1]])
        with pytest.raises(ValueError, match="majority"):
            batch_loss(LossConfig(LossKind.HARD), z, counts)

    @pytest.mark.parametrize("z, counts, message", [
        (np.zeros(3), np.ones(3), "must be"),
        (np.zeros((2, 3)), np.ones((2, 2)), "must be"),
        (np.array([[0.0, np.nan]]), np.ones((1, 2)), "finite"),
        (np.zeros((1, 2)), np.zeros((1, 2)), "at least one label"),
        (np.zeros((1, 2)), np.array([[2.0, -1.0]]), "non-negative"),
    ])
    def test_rejects_malformed_batches(self, z, counts, message):
        config = LossConfig.default_for(LossKind.SOFT_KL)
        with pytest.raises(ValueError, match=message):
            batch_loss(config, z, counts)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_rejects_a_batch_without_rows(self, kind):
        config = LossConfig.default_for(kind)
        with pytest.raises(ValueError, match="the batch has no rows"):
            batch_loss(config, np.zeros((0, 4)), np.zeros((0, 4)))

    def test_polya_needs_integer_counts(self):
        config = LossConfig.default_for(LossKind.DPN_KL)
        with pytest.raises(ValueError, match="integer"):
            batch_loss(config, np.zeros((1, 2)), np.array([[0.5, 0.5]]))


@st.composite
def batches(draw, kind):
    """(B, K) logits in the clamp range, integer counts with at least one
    label per row (for hard, each row's vote-and-replace: all its labels
    moved to its argmax) and a row permutation."""
    b, k = draw(st.integers(1, 16)), draw(st.integers(2, 10))
    z = draw(hnp.arrays(np.float64, (b, k), elements=st.floats(-LOGIT_CLAMP, LOGIT_CLAMP)))
    counts = draw(hnp.arrays(np.int64, (b, k), elements=st.integers(0, 6)))
    counts[np.arange(b), draw(hnp.arrays(np.int64, b, elements=st.integers(0, k - 1)))] += 1
    if kind == LossKind.HARD:
        top = np.arange(k) == counts.argmax(axis=1)[:, None]
        counts = counts.sum(axis=1, keepdims=True) * top
    return z, counts, np.array(draw(st.permutations(range(b))), dtype=np.int64)


def assert_relative(got, want, rel=1e-12):
    np.testing.assert_array_less(np.abs(got - want), rel * np.abs(want) + 1e-300)


@pytest.mark.parametrize("kind", list(LossKind))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_batch_rows_are_independent(kind, data):
    # Each row of a batch is that row's loss alone, and permuting the rows
    # permutes values and gradients: one example is a batch of one.
    config = LossConfig.default_for(kind)
    z, counts, perm = data.draw(batches(kind))
    values, grad = batch_loss(config, z, counts)
    for row in range(z.shape[0]):
        one_value, one_grad = batch_loss(config, z[row:row + 1], counts[row:row + 1])
        assert_relative(one_value[0], values[row])
        assert_relative(one_grad[0], grad[row])
    perm_values, perm_grad = batch_loss(config, z[perm], counts[perm])
    assert_relative(perm_values, values[perm])
    assert_relative(perm_grad, grad[perm])


def mp_dpn_kl(z, counts, lam):
    """dpn-kl value and logit gradient at 60 digits, for logits inside the clamp."""
    with mp.workdps(60):
        alpha = [mp.exp(mp.mpf(float(v))) for v in z]
        alpha0 = mp.fsum(alpha)
        m = sum(counts)
        log_p = mp.loggamma(alpha0) - mp.loggamma(alpha0 + m) + mp.fsum(
            mp.loggamma(a + n) - mp.loggamma(a) for a, n in zip(alpha, counts))
        d_alpha = [mp.digamma(a + n) - mp.digamma(a) - mp.digamma(alpha0 + m)
                   + mp.digamma(alpha0) for a, n in zip(alpha, counts)]
        y = [a / alpha0 for a in alpha]
        t = [mp.mpf(n) / m for n in counts]
        kl = mp.fsum(ti * mp.log(ti / yi) for ti, yi in zip(t, y) if ti > 0)
        value = -log_p / m + lam * kl
        grad = [-d * a / m + lam * (yi - ti) for d, a, yi, ti in zip(d_alpha, alpha, y, t)]
        return float(value), [float(g) for g in grad]


class TestDpnKlAgainstMpmath:
    # The Polya term is exact across the clamp range: a log-gamma difference
    # of huge arguments would lose every digit beyond logits of about 40.
    CONFIG = LossConfig.default_for(LossKind.DPN_KL)

    def check(self, z, counts):
        values, grad = batch_loss(self.CONFIG, np.array([z]), np.array([counts]))
        value, expected_grad = mp_dpn_kl(z, counts, self.CONFIG.lam)
        assert abs(values[0] - value) <= 1e-12, (z, counts)
        np.testing.assert_allclose(grad[0], expected_grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("s", [-57.9, -40.0, -10.0, 0.0, 10.0, 25.0, 30.0, 40.0, 59.9])
    def test_shifted_logits(self, s):
        self.check([s, s - 1.0, s - 2.0], [2, 1, 0])

    def test_random_logits_over_the_clamp_range(self):
        rng = np.random.default_rng(404)
        for _ in range(40):
            k = int(rng.integers(2, 11))
            centre = rng.uniform(-55.0, 55.0)
            z = np.clip(centre + rng.normal(0.0, 3.0, size=k), -59.99, 59.99)
            counts = rng.integers(0, 8, size=k)
            counts[rng.integers(0, k)] += 1
            self.check([float(v) for v in z], [int(n) for n in counts])


def mp_dpn(z, counts, eps1, eps2):
    """dpn value and logit gradient at 60 digits, label by label from ln Gamma
    and psi, for logits inside the clamp."""
    with mp.workdps(60):
        k, m = len(z), sum(counts)
        e = [mp.exp(mp.mpf(float(v))) for v in z]
        alpha = [v + mp.mpf(eps2) for v in e]
        alpha0 = mp.fsum(alpha)
        eps1 = mp.mpf(eps1)
        value, d_alpha = mp.mpf(0), [mp.mpf(0)] * k
        for c, n in enumerate(counts):
            # n labels of class c, each smoothed to eps1 + (1 - K*eps1)*one_hot(c).
            log_mu = [mp.log(eps1 + (1 - k * eps1) * (j == c)) for j in range(k)]
            log_pdf = mp.loggamma(alpha0) - mp.fsum(mp.loggamma(a) for a in alpha) + mp.fsum(
                (a - 1) * lm for a, lm in zip(alpha, log_mu))
            value -= n * log_pdf / m
            d_alpha = [d - n * (mp.digamma(alpha0) - mp.digamma(a) + lm) / m
                       for d, a, lm in zip(d_alpha, alpha, log_mu)]
        return float(value), [float(d * v) for d, v in zip(d_alpha, e)]


class TestDpnAgainstMpmath:
    # The dpn value and gradient come from the shared Dirichlet density at the
    # mean log-label; this oracle takes the mean of per-label densities instead.
    def test_random_cases_over_the_clamp_range(self):
        rng = np.random.default_rng(505)
        for _ in range(100):
            k = int(rng.integers(2, 11))
            eps1 = float(10 ** rng.uniform(-4.0, math.log10(0.9 / (k - 1))))
            eps2 = float(10 ** rng.uniform(-10.0, -6.0))
            centre = rng.uniform(-55.0, 55.0)
            z = np.clip(centre + rng.normal(0.0, 3.0, size=k), -59.99, 59.99)
            counts = rng.integers(0, 8, size=k)
            counts[rng.integers(0, k)] += 1
            config = LossConfig(LossKind.DPN, eps1=eps1, eps2=eps2)
            values, grad = batch_loss(config, z[None], counts[None])
            value, expected_grad = mp_dpn(z, [int(n) for n in counts], eps1, eps2)
            case = (list(z), list(counts), eps1, eps2)
            assert abs(values[0] - value) <= 1e-11 * abs(value), case
            np.testing.assert_allclose(grad[0], expected_grad, rtol=1e-11, atol=0, err_msg=str(case))


@st.composite
def corpus_batches(draw, kinds=tuple(LossKind)):
    """The config of one of ``kinds``, (B, K) logits reaching past the clamp,
    integer counts of 1 to 40 labels per row (for hard all of one class), a
    row order and a batch [start, stop) of that order."""
    kind = draw(st.sampled_from(kinds))
    if kind == LossKind.DPN:
        config = LossConfig(kind, eps1=draw(st.sampled_from([0.0, 1e-2])), eps2=1e-8)
    elif kind == LossKind.DPN_KL:
        config = LossConfig(kind, lam=draw(st.sampled_from([0.0, 20.0])))
    else:
        config = LossConfig(kind)
    b, k, m = draw(st.integers(1, 40)), draw(st.integers(2, 10)), draw(st.integers(1, 40))
    z = draw(hnp.arrays(np.float64, (b, k),
                        elements=st.floats(-LOGIT_CLAMP - 5, LOGIT_CLAMP + 5)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = gen.integers(1, m + 1, size=b)
    if kind == LossKind.HARD:
        counts = labels[:, None] * (np.arange(k) == gen.integers(0, k, size=b)[:, None])
    else:
        counts = gen.multinomial(labels, gen.dirichlet(np.ones(k), size=b))
    order = np.array(draw(st.permutations(range(b))), dtype=np.int64)
    start = draw(st.integers(0, b - 1))
    return config, z, counts, order, start, draw(st.integers(start + 1, b))


def outcome(loss):
    """The bytes of values and gradients, or the SingularityError raised."""
    try:
        values, grad = loss()
    except SingularityError as err:
        return "singular", str(err), err.row
    return values.tobytes(), grad.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=corpus_batches(), size=st.integers(1, 40))
def test_terms_loss_is_batch_loss_bit_for_bit(case, size):
    # Terms of a whole corpus, gathered in an epoch's order, then batches of it:
    # the drawn one, one row, the last (partial) batch of ``size`` rows and all rows.
    config, z, counts, order, start, stop = case
    terms = LabelTerms.of(config, counts)
    assert outcome(lambda: terms_loss(terms, z)) == outcome(lambda: batch_loss(config, z, counts))
    epoch, b = terms[order], len(order)
    for a, e in [(start, stop), (start, start + 1), ((b - 1) // size * size, b), (0, b)]:
        batch, fresh = order[a:e], LabelTerms.of(config, counts[order[a:e]])
        assert (outcome(lambda: terms_loss(epoch[a:e], z[batch]))
                == outcome(lambda: terms_loss(fresh, z[batch]))
                == outcome(lambda: batch_loss(config, z[batch], counts[batch])))
        # dpn-kl's label layout too, each array with its dtype (int32 per label).
        for got, want in zip(epoch[a:e].labels, fresh.labels, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def mask_polya(
    z: np.ndarray, counts: np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # ln p(N) = sum_k sum_{j<N_k} ln(a_k + j) - sum_{j<M} ln(a0 + j), per label.
    alpha, d_alpha = _head(z)  # clamped, so always positive and finite
    steps = np.arange(int(m.max()))
    own = steps < counts[:, :, None]  # class k has a (j+1)-th label
    pool = steps < m[:, None]  # the row has a (j+1)-th label
    alpha_steps = alpha[:, :, None] + steps
    alpha0_steps = alpha.sum(axis=1)[:, None] + steps
    # Boolean indexing is row-major, so both sides list each row's M terms
    # together; pairing them keeps every log near 0 when alpha is large,
    # where a difference of two sums of large logs would cancel.
    ratio = alpha_steps[own] / alpha0_steps[pool]
    log_p = np.bincount(pool.nonzero()[0], weights=np.log(ratio), minlength=z.shape[0])
    grad_alpha = ((own / alpha_steps).sum(axis=2)
                  - (pool / alpha0_steps).sum(axis=1)[:, None])
    return -log_p / m, -grad_alpha / m[:, None] * d_alpha


def mask_dpn_kl(config, z, counts):
    """dpn-kl values and logit gradients with the Polya term summed over
    (B, K, max M) padded steps (``mask_polya``, the kernel the per-label
    layout replaced), for valid logits and counts."""
    counts = np.asarray(counts, dtype=np.float64)
    m = counts.sum(axis=1)
    value, grad = mask_polya(z, counts, m)
    if config.lam:
        target = counts / m[:, None]
        log_target = np.zeros_like(target)
        np.log(target, where=target > 0.0, out=log_target)
        kl_value, kl_grad = _kl(z, target, log_target)
        value, grad = value + config.lam * kl_value, grad + config.lam * kl_grad
    return value, grad


def polya_gradient_scale(z, counts):
    """Per logit, |d alpha/dz| / M times the sum of the magnitudes of the
    1/(a_k + j) and 1/(a0 + t) terms that the Polya gradient adds up: the
    scale of its rounding error, as the two sums can cancel to near 0."""
    alpha, d_alpha = _head(z)
    m = counts.sum(axis=1)
    steps = np.arange(int(m.max()))
    own = (steps < counts[:, :, None]) / (alpha[:, :, None] + steps)
    pool = (steps < m[:, None]) / (alpha.sum(axis=1)[:, None] + steps)
    return (own.sum(axis=2) + pool.sum(axis=1)[:, None]) / m[:, None] * d_alpha


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=corpus_batches(kinds=(LossKind.DPN_KL,)))
def test_polya_layout_keeps_the_mask_kernel_bits(case):
    # One entry per label, added in the padded kernel's row-major order: the same
    # values bit for bit.  The gradient's sums over the padded steps ran in sequence
    # below 8 steps and pairwise from 8 on, where only its last bits may move.
    config, z, counts = case[:3]
    values, grad = batch_loss(config, z, counts)
    want_values, want_grad = mask_dpn_kl(config, z, counts)
    assert values.tobytes() == want_values.tobytes()
    if counts.sum(axis=1).max() < 8:
        assert grad.tobytes() == want_grad.tobytes()
    else:
        bound = 1e-12 * (polya_gradient_scale(z, counts) + np.abs(want_grad))
        assert (np.abs(grad - want_grad) <= bound).all()


# A NaN or an infinite count, under each objective.
NON_FINITE = [
    pytest.param(config, counts, id=f"{name}-{fault}")
    for name, config in [("hard", HARD), ("soft", SOFT),
                         ("dpn", LossConfig.default_for(LossKind.DPN)),
                         ("dpn-eps1-0", LossConfig(LossKind.DPN)),
                         ("polya", POLYA), ("dpn-kl", LossConfig.default_for(LossKind.DPN_KL))]
    for fault, counts in [("nan", [[2, 0, 0], [math.nan, 0, 0]]),
                          ("nan-total", [[1, 1, 0], [math.nan, 1, 1]]),
                          ("inf", [[1, 0, 0], [math.inf, 0, 0]]),
                          ("minus-inf", [[1, 0, 0], [0, -math.inf, 0]]),
                          ("both-infs", [[1, 1, 0], [math.inf, -math.inf, 1]])]
]

# Finite counts whose row total overflows to infinity.
OVERFLOW = [
    pytest.param(config, [[1, 0, 0], [1e308, 1e308, 0]], id=f"{name}-total-overflow")
    for name, config in [("hard", HARD), ("soft", SOFT), ("polya", POLYA),
                         ("dpn-kl", LossConfig.default_for(LossKind.DPN_KL))]
]


@pytest.mark.parametrize("config, counts", [
    (SOFT, [[1, 0], [0, 0]]),                          # a row without labels
    (LossConfig(LossKind.DPN), [[2, -1, 0]]),          # a negative count
    (HARD, [[3, 0, 0], [1, 1, 0]]),                    # a row across classes
    (POLYA, [[1, 0], [0.5, 0.5]]),                     # counts that are not integers
    (LossConfig(LossKind.DPN, eps1=0.5), [[1, 0, 0]]),  # eps1 >= 1/(K-1)
] + NON_FINITE + OVERFLOW, ids=["no-label", "negative", "hard-split", "non-integer", "eps1"] + [
    param.id for param in NON_FINITE + OVERFLOW])
def test_terms_raise_batch_loss_messages(config, counts):
    counts = np.array(counts, dtype=np.float64)
    with pytest.raises(ValueError) as want:
        batch_loss(config, np.zeros(counts.shape), counts)
    with pytest.raises(ValueError) as got:
        LabelTerms.of(config, counts)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("config, counts", NON_FINITE)
def test_terms_refuse_non_finite_counts(config, counts):
    # Before the sign and total checks, which a NaN passes and an infinity can.
    with pytest.raises(ValueError, match="^label counts must be finite$"):
        LabelTerms.of(config, np.array(counts))


@pytest.mark.parametrize("counts", [np.ones(3), np.zeros((0, 3))], ids=["1-d", "no-rows"])
def test_terms_need_a_count_matrix_with_rows(counts):
    with pytest.raises(ValueError, match=r"^label counts must be a \(B, K\) array"):
        LabelTerms.of(SOFT, counts)


@pytest.mark.parametrize("config, counts", OVERFLOW)
def test_terms_refuse_a_row_total_that_overflows(config, counts):
    # Before any check or layout that reads the total.
    message = "^label counts must have a finite total on every row$"
    with pytest.raises(ValueError, match=message):
        LabelTerms.of(config, np.array(counts))


@pytest.mark.parametrize("config, counts, message", [
    # At K = 5, alpha0 <= K*(e^60 + eps2) overflows for eps2 >= 3.595e307.
    (LossConfig(LossKind.DPN, eps2=4e307), [[1, 0, 0, 0, 0], [0, 0, 3, 0, 0]],
     r"^eps2 must keep K\*\(e\^60 \+ eps2\) finite, so lie below 3\.595e\+307 for K = 5, "
     r"got 4e\+307$"),
    (LossConfig(LossKind.DPN, eps2=4e307), [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
     "^label counts must be non-negative with at least one label per row$"),
    (LossConfig(LossKind.DPN, eps1=0.5, eps2=4e307), [[1, 0, 0, 0, 0]],
     r"^eps1 must lie in \[0, 1/\(K-1\)\)"),
], ids=["eps2", "counts-first", "eps1-first"])
def test_dpn_terms_refuse_an_eps2_that_overflows_alpha0(config, counts, message):
    # Checked with the terms, once per corpus, after the counts and eps1.
    counts = np.array(counts, dtype=np.float64)
    for refuse in (lambda: LabelTerms.of(config, counts),
                   lambda: batch_loss(config, np.zeros(counts.shape), counts)):
        with pytest.raises(ValueError, match=message):
            refuse()


@pytest.mark.parametrize("config", [LossConfig.default_for(LossKind.DPN),
                                    LossConfig(LossKind.DPN)], ids=["stock", "eps1-0"])
def test_dpn_needs_two_classes(config):
    # One class leaves eps1's range 1/(K-1) undefined; no Dirichlet has K = 1.
    message = "^the dpn loss needs K >= 2 classes, got K = 1$"
    for refuse in (lambda: LabelTerms.of(config, np.ones((1, 1))),
                   lambda: batch_loss(config, np.zeros((1, 1)), np.ones((1, 1))),
                   lambda: example_loss(config, np.zeros(1), [np.ones(1)],
                                        CategoricalDist(np.ones(1)), None)):
        with pytest.raises(ValueError, match=message):
            refuse()


@pytest.mark.parametrize("config", [POLYA, LossConfig.default_for(LossKind.DPN_KL)],
                         ids=["lambda-0", "stock"])
@pytest.mark.parametrize("counts", [[[1e20, 0.0]], [[2.0**31, 0.0]], [[1, 0], [2.0**30, 2.0**30]]],
                         ids=["1e20", "2**31", "row-total-2**31"])
def test_polya_terms_refuse_counts_past_their_int32_layout(config, counts):
    # Named before the layout is built, which for 2**31 labels would take tens of GB.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the Polya term needs fewer than 2\*\*31 labels"):
            LabelTerms.of(config, np.array(counts))
