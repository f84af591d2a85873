"""Gradient and value tests for the four training objectives.

Every objective is :func:`batch_loss`; a single example is a batch of one,
either through ``batch_loss`` directly or through ``example_loss``.  Every
analytic gradient is checked against central finite differences of the
implemented value, with relative tolerance 1e-4 elementwise and the
denominator floored at 1e-8.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from labelprior.annotations import smooth_label, soft_label
from labelprior.dirichlet import CategoricalDist, SingularityError, from_logits, log_pdf
from labelprior.losses import (
    LOGIT_CLAMP,
    LossConfig,
    LossKind,
    batch_loss,
    example_loss,
)

FD_STEP = 1e-5

HARD = LossConfig(LossKind.HARD)
SOFT = LossConfig(LossKind.SOFT_KL)
POLYA = LossConfig(LossKind.DPN_KL)  # lambda = 0: the Polya term alone


def one_hot(index, k):
    label = np.zeros(k)
    label[index] = 1.0
    return label


def no_majority(b):
    return np.full(b, -1)


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


class TestKlLoss:
    def test_zero_at_matching_target(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=4)
        e = np.exp(z - z.max())
        values, grad = batch_loss(SOFT, z[None], (e / e.sum())[None], no_majority(1))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad[0], 0.0, atol=1e-12)

    def test_one_hot_vs_uniform(self):
        values, grad = batch_loss(SOFT, np.zeros((1, 2)), np.array([[1.0, 0.0]]), no_majority(1))
        assert values[0] == pytest.approx(math.log(2.0), abs=1e-12)
        np.testing.assert_allclose(grad[0], [-0.5, 0.5], atol=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(42)
        k = 5
        z, t = map(np.array, zip(*[(rng.normal(0.0, 2.0, size=k), rng.dirichlet(np.ones(k)))
                                   for _ in range(50)]))
        analytic = batch_loss(SOFT, z, t, no_majority(50))[1]
        numeric = fd_gradient(lambda v: batch_loss(SOFT, v, t, no_majority(50))[0], z)
        assert_grad_close(analytic, numeric, rel=1e-5)

    def test_value_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            target = rng.dirichlet(np.ones(k))
            z = rng.normal(size=k)
            assert batch_loss(SOFT, z[None], target[None], no_majority(1))[0][0] >= -1e-12


class TestHardLoss:
    def test_confident_correct_prediction(self):
        z = np.array([[30.0, 0.0, 0.0]])
        values, _ = batch_loss(HARD, z, one_hot(0, 3)[None], np.array([0]))
        assert values[0] == pytest.approx(0.0, abs=1e-9)

    def test_uniform_two_way(self):
        values, _ = batch_loss(HARD, np.zeros((1, 2)), one_hot(0, 2)[None], np.array([0]))
        assert values[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            z = rng.normal(0.0, 2.0, size=k)
            c = int(rng.integers(0, k))
            label, majority = one_hot(c, k)[None], np.array([c])
            analytic = batch_loss(HARD, z[None], label, majority)[1][0]
            numeric = fd_gradient(lambda v: batch_loss(HARD, v[None], label, majority)[0][0], z)
            assert_grad_close(analytic, numeric, rel=1e-5)


class TestDpnLoss:
    def test_flat_dirichlet_gives_zero(self):
        # alpha = (1, 1): the density is 1 on the simplex for any label.
        config = LossConfig(LossKind.DPN, eps1=0.01, eps2=0.0)
        counts = np.array([counts_of([one_hot(0, 2)]), counts_of([one_hot(0, 2), one_hot(1, 2)])])
        values, _ = batch_loss(config, np.zeros((2, 2)), counts, no_majority(2))
        np.testing.assert_allclose(values, 0.0, atol=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(42)
        config = LossConfig(LossKind.DPN, eps1=0.01, eps2=0.0)
        k = 3
        z = np.array([rng.normal(0.0, 1.5, size=k) for _ in range(50)])
        counts = np.tile(counts_of([one_hot(0, k), one_hot(0, k), one_hot(1, k)]), (50, 1))
        analytic = batch_loss(config, z, counts, no_majority(50))[1]
        numeric = fd_gradient(lambda v: batch_loss(config, v, counts, no_majority(50))[0], z)
        assert_grad_close(analytic, numeric)

    def test_gradient_with_eps2(self):
        rng = np.random.default_rng(13)
        config = LossConfig(LossKind.DPN, eps1=1e-2, eps2=1e-8)
        k = 5
        z, counts = map(np.array, zip(*[
            (rng.normal(0.0, 1.5, size=k), counts_of(random_labels(rng, k, int(rng.integers(1, 6)))))
            for _ in range(20)]))
        analytic = batch_loss(config, z, counts, no_majority(20))[1]
        numeric = fd_gradient(lambda v: batch_loss(config, v, counts, no_majority(20))[0], z)
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
            config = LossConfig(LossKind.DPN, eps1=eps1, eps2=eps2)
            got = example_loss(config, z, labels, soft_label(labels), None).value
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-10)

    def test_duplicating_labels_keeps_value(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=2)
        config = LossConfig(LossKind.DPN, eps1=0.01, eps2=0.0)
        once = counts_of([one_hot(0, 2), one_hot(1, 2)])
        twice = counts_of([one_hot(0, 2)] * 2 + [one_hot(1, 2)] * 2)
        values, _ = batch_loss(config, np.array([z, z]), np.array([once, twice]), no_majority(2))
        assert values[1] == pytest.approx(values[0], abs=1e-12)

    def test_distinguishes_label_multiplicity(self):
        # One A label versus an A and a B: different unless the logits are
        # symmetric in the two classes.
        rng = np.random.default_rng(11)
        config = LossConfig(LossKind.DPN, eps1=0.01, eps2=0.0)
        z = np.array([rng.normal(0.0, 1.0, size=3) for _ in range(100)])
        a_only = batch_loss(config, z, np.tile([1, 0, 0], (100, 1)), no_majority(100))[0]
        a_and_b = batch_loss(config, z, np.tile([1, 1, 0], (100, 1)), no_majority(100))[0]
        assert np.count_nonzero(np.abs(a_only - a_and_b) > 1e-9) >= 95

    def test_singularity_without_smoothing(self):
        z = np.array([[-1.0, -1.0]])  # alpha < 1 everywhere
        with pytest.raises(SingularityError):
            batch_loss(LossConfig(LossKind.DPN, eps1=0.0, eps2=0.0), z,
                       one_hot(0, 2)[None], no_majority(1))

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
            loss = example_loss(config, z, labels, soft_label(labels), None)
            perm_loss = example_loss(config, z[perm], perm_labels, soft_label(perm_labels), None)
            assert perm_loss.value == pytest.approx(loss.value, abs=1e-12)
            np.testing.assert_allclose(perm_loss.grad_z, loss.grad_z[perm], atol=1e-12)


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
            got = example_loss(POLYA, z, labels, soft_label(labels), None).value
            assert got == pytest.approx(expected, abs=1e-10)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            z = rng.normal(0.0, 1.5, size=k)
            labels = random_labels(rng, k, int(rng.integers(1, 7)))
            soft = soft_label(labels)
            analytic = example_loss(POLYA, z, labels, soft, None).grad_z
            numeric = fd_gradient(lambda v: example_loss(POLYA, v, labels, soft, None).value, z)
            assert_grad_close(analytic, numeric)

    def test_bounded_below_by_sample_average(self):
        # The marginal likelihood of a sequence never exceeds 1, so the
        # per-label NLL is non-negative.
        rng = np.random.default_rng(29)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            labels = random_labels(rng, k, int(rng.integers(1, 8)))
            z = rng.normal(size=k)
            assert example_loss(POLYA, z, labels, soft_label(labels), None).value >= 0.0


class TestDpnKlLoss:
    CONFIG = LossConfig(LossKind.DPN_KL, lam=20.0)

    def test_is_sum_of_its_terms(self):
        rng = np.random.default_rng(42)
        k = 3
        z = np.array([rng.normal(size=k) for _ in range(20)])
        counts = np.tile(counts_of([one_hot(0, k), one_hot(0, k), one_hot(1, k)]), (20, 1))
        combined = batch_loss(self.CONFIG, z, counts, no_majority(20))[0]
        manual = (batch_loss(POLYA, z, counts, no_majority(20))[0]
                  + 20.0 * batch_loss(SOFT, z, counts, no_majority(20))[0])
        np.testing.assert_allclose(combined, manual, rtol=0, atol=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            z = rng.normal(0.0, 1.5, size=k)
            labels = random_labels(rng, k, int(rng.integers(1, 6)))
            soft = soft_label(labels)
            analytic = example_loss(self.CONFIG, z, labels, soft, None).grad_z
            numeric = fd_gradient(
                lambda v: example_loss(self.CONFIG, v, labels, soft, None).value, z)
            assert_grad_close(analytic, numeric)

    def test_no_smoothing_needed_on_one_hot_labels(self):
        # Raw one-hot labels with sub-unit concentrations stay finite.
        z = np.array([[-2.0, -2.0, -2.0]])
        values, grad = batch_loss(self.CONFIG, z, one_hot(0, 3)[None], no_majority(1))
        assert math.isfinite(values[0])
        assert np.all(np.isfinite(grad))

    def test_lambda_zero_reduces_to_dirichlet_term(self):
        config = LossConfig(LossKind.DPN_KL, lam=0.0)
        z = np.array([0.5, -0.5])
        counts = counts_of([one_hot(0, 2), one_hot(1, 2)])
        values, _ = batch_loss(config, z[None], counts[None], no_majority(1))
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
        for kind in LossKind:
            config = LossConfig.default_for(kind)
            values, grad = batch_loss(config, z[None], counts_of(labels)[None], np.array([0]))
            got = example_loss(config, z, labels, soft, majority=0)
            assert got.value == pytest.approx(values[0], abs=1e-12)
            np.testing.assert_array_equal(got.grad_z, grad[0])


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
            base = example_loss(config, z, labels, soft, None)
            permuted = example_loss(config, z[perm], perm_labels, perm_soft, None)
            assert permuted.value == pytest.approx(base.value, abs=1e-12)
            np.testing.assert_allclose(permuted.grad_z, base.grad_z[perm], atol=1e-12)


def random_batch(rng, b, k, max_labels):
    """(B, K) logits and counts, (B,) majorities and the rows' label lists."""
    z = rng.normal(0.0, 2.0, size=(b, k))
    label_lists = []
    for _ in range(b):
        classes = rng.integers(0, k, size=int(rng.integers(1, max_labels + 1)))
        label_lists.append([one_hot(int(c), k) for c in classes])
    counts = np.array([np.sum(labels, axis=0) for labels in label_lists])
    majority = rng.integers(0, k, size=b)
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
        params = from_logits(np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP), config.eps2)
        return -np.mean([log_pdf(params, smooth_label(lab, config.eps1)) for lab in labels])
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
            z, counts, majority, label_lists = random_batch(rng, b, k, max_labels)
            values, grad = batch_loss(config, z, counts, majority)
            assert values.shape == (b,) and grad.shape == (b, k)
            for row in range(b):
                expected = reference_value(config, z[row], label_lists[row], majority[row])
                assert values[row] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("b, k, max_labels", SHAPES)
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_gradients_against_finite_differences(self, kind, b, k, max_labels):
        rng = np.random.default_rng(202 + k)
        config = LossConfig.default_for(kind)
        z, counts, majority, _ = random_batch(rng, b, k, max_labels)
        _, grad = batch_loss(config, z, counts, majority)
        for row in range(0, b, 4):
            def value(v, row=row):
                return batch_loss(config, v[None], counts[row : row + 1],
                                  majority[row : row + 1])[0][0]

            assert_grad_close(grad[row], fd_gradient(value, z[row].copy()))

    def test_singular_row_is_reported(self):
        # eps1 = 0: a zero label component meeting alpha_k < 1 is singular.
        config = LossConfig(LossKind.DPN)
        z = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        counts = np.array([[1, 1, 1], [2, 0, 1], [3, 0, 0], [0, 1, 0]])
        with pytest.raises(SingularityError, match=r"component 1 .* < 1") as info:
            batch_loss(config, z, counts, np.full(4, -1))
        assert info.value.row == 1

    def test_diverging_row_is_inf_and_others_finite(self):
        # eps1 = 0 with alpha_k > 1 at a zero label component: +inf.
        config = LossConfig(LossKind.DPN)
        z = np.array([[0.0, 0.0], [0.0, 1.0]])
        counts = np.array([[1, 1], [1, 0]])
        values, grad = batch_loss(config, z, counts, np.full(2, -1))
        assert values[0] == pytest.approx(0.0, abs=1e-12) and values[1] == math.inf
        assert np.all(np.isfinite(grad))

    def test_hard_needs_a_majority_on_every_row(self):
        z = np.zeros((2, 3))
        counts = np.array([[1, 0, 0], [1, 1, 1]])
        with pytest.raises(ValueError, match="majority"):
            batch_loss(LossConfig(LossKind.HARD), z, counts, np.array([0, -1]))

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
            batch_loss(config, z, counts, np.zeros(np.shape(z)[:1], dtype=int))

    def test_polya_needs_integer_counts(self):
        config = LossConfig.default_for(LossKind.DPN_KL)
        with pytest.raises(ValueError, match="integer"):
            batch_loss(config, np.zeros((1, 2)), np.array([[0.5, 0.5]]), np.array([-1]))


@st.composite
def batches(draw, kind):
    """(B, K) logits in the clamp range, integer counts with at least one
    label per row, and the majorities (each row's argmax for hard)."""
    b, k = draw(st.integers(1, 16)), draw(st.integers(2, 10))
    z = draw(hnp.arrays(np.float64, (b, k), elements=st.floats(-LOGIT_CLAMP, LOGIT_CLAMP)))
    counts = draw(hnp.arrays(np.int64, (b, k), elements=st.integers(0, 6)))
    counts[np.arange(b), draw(hnp.arrays(np.int64, b, elements=st.integers(0, k - 1)))] += 1
    majority = counts.argmax(axis=1) if kind == LossKind.HARD else no_majority(b)
    return z, counts, majority, np.array(draw(st.permutations(range(b))), dtype=np.int64)


def assert_relative(got, want, rel=1e-12):
    np.testing.assert_array_less(np.abs(got - want), rel * np.abs(want) + 1e-300)


@pytest.mark.parametrize("kind", list(LossKind))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_batch_rows_are_independent(kind, data):
    # Each row of a batch is that row's loss alone, and permuting the rows
    # permutes values and gradients: one example is a batch of one.
    config = LossConfig.default_for(kind)
    z, counts, majority, perm = data.draw(batches(kind))
    values, grad = batch_loss(config, z, counts, majority)
    for row in range(z.shape[0]):
        one_value, one_grad = batch_loss(config, z[row:row + 1], counts[row:row + 1],
                                         majority[row:row + 1])
        assert_relative(one_value[0], values[row])
        assert_relative(one_grad[0], grad[row])
    perm_values, perm_grad = batch_loss(config, z[perm], counts[perm], majority[perm])
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
        values, grad = batch_loss(self.CONFIG, np.array([z]), np.array([counts]),
                                  np.array([-1]))
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
