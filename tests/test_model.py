"""Tests for the MLP: initialisation, forward/backward, and training."""

import math

import numpy as np
import pytest

from labelprior.annotations import AgreementGroup
from labelprior.dirichlet import CategoricalDist, SingularityError
from labelprior.losses import LossConfig, LossKind, example_loss
from labelprior.model import (
    LabelledExample,
    ModelParams,
    TrainConfig,
    TrainingSet,
    backward,
    forward,
    init,
    train,
)
from labelprior.rng import DOMAIN_SHUFFLE, fisher_yates, stream


def one_hot(index, k):
    label = np.zeros(k)
    label[index] = 1.0
    return label


def make_example(rng, k, x, classes, uid=0):
    labels = tuple(one_hot(c, k) for c in classes)
    soft = CategoricalDist(np.mean(labels, axis=0))
    counts = np.bincount(classes, minlength=k)
    top = counts.max()
    leaders = np.flatnonzero(counts == top)
    if len(leaders) == 1 and top == len(classes):
        group, majority = AgreementGroup.FULL, int(leaders[0])
    elif len(leaders) == 1 and top >= 2:
        group, majority = AgreementGroup.MAJORITY, int(leaders[0])
    else:
        group, majority = AgreementGroup.NONE, None
    return LabelledExample(np.asarray(x, dtype=np.float64), labels, soft, group, majority, uid)


class TestInit:
    def test_same_seed_identical(self):
        a = init(8, [16], 5, seed=123)
        b = init(8, [16], 5, seed=123)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_different_seeds_differ(self):
        a = init(8, [16], 5, seed=1)
        b = init(8, [16], 5, seed=2)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    def test_layer_shapes(self):
        params = init(8, [16], 5, seed=0)
        assert [w.shape for w in params.weights] == [(8, 16), (16, 5)]
        assert [b.shape for b in params.biases] == [(16,), (5,)]
        assert params.dims == (8, 16, 5)

    def test_biases_start_at_zero(self):
        params = init(4, [6, 3], 2, seed=9)
        for b in params.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))


class TestForward:
    def test_zero_params_give_zero_logits(self):
        params = ModelParams(
            [np.zeros((4, 6)), np.zeros((6, 3))], [np.zeros(6), np.zeros(3)]
        )
        np.testing.assert_array_equal(forward(params, np.ones(4)), np.zeros(3))

    def test_identity_single_layer(self):
        params = ModelParams([np.eye(3)], [np.zeros(3)])
        x = np.array([0.3, -1.2, 2.0])
        np.testing.assert_array_equal(forward(params, x), x)

    def test_pure_function(self):
        params = init(5, [7], 3, seed=4)
        x = np.linspace(-1, 1, 5)
        np.testing.assert_array_equal(forward(params, x), forward(params, x))

    def test_dimension_mismatch_rejected(self):
        params = init(5, [7], 3, seed=4)
        with pytest.raises(ValueError):
            forward(params, np.zeros(4))
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 4)))

    def test_batch_equals_stacked_rows(self):
        rng = np.random.default_rng(6)
        params = init(5, [7, 4], 3, seed=4)
        rows = rng.normal(size=(9, 5))
        stacked = np.stack([forward(params, x) for x in rows])
        np.testing.assert_allclose(forward(params, rows), stacked, rtol=0, atol=1e-12)


class TestBackward:
    def test_finite_difference_over_all_parameters(self):
        rng = np.random.default_rng(42)
        params = init(4, [6], 3, seed=11)
        x = rng.normal(size=4)
        grad_z = rng.normal(size=3)

        def scalar_loss(p):
            return float(np.dot(forward(p, x), grad_z))

        grads = backward(params, x, grad_z)
        step = 1e-6
        for layer, (gw, gb) in enumerate(grads):
            for arr, g in ((params.weights[layer], gw), (params.biases[layer], gb)):
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + step
                    up = scalar_loss(params)
                    arr[idx] = orig - step
                    down = scalar_loss(params)
                    arr[idx] = orig
                    numeric = (up - down) / (2 * step)
                    denom = max(abs(numeric), 1e-8)
                    assert abs(g[idx] - numeric) / denom <= 1e-4
                    it.iternext()

    def test_zero_upstream_gradient(self):
        params = init(4, [6], 3, seed=2)
        grads = backward(params, np.ones(4), np.zeros(3))
        for gw, gb in grads:
            np.testing.assert_array_equal(gw, np.zeros_like(gw))
            np.testing.assert_array_equal(gb, np.zeros_like(gb))

    def test_linearity_in_upstream_gradient(self):
        rng = np.random.default_rng(8)
        params = init(4, [6], 3, seed=2)
        x = rng.normal(size=4)
        g = rng.normal(size=3)
        single = backward(params, x, g)
        double = backward(params, x, 2.0 * g)
        for (gw1, gb1), (gw2, gb2) in zip(single, double):
            np.testing.assert_allclose(gw2, 2.0 * gw1, atol=1e-12)
            np.testing.assert_allclose(gb2, 2.0 * gb1, atol=1e-12)

    def test_batch_equals_sum_of_rows(self):
        rng = np.random.default_rng(9)
        params = init(4, [6, 5], 3, seed=2)
        rows = rng.normal(size=(7, 4))
        grads_z = rng.normal(size=(7, 3))
        batched = backward(params, rows, grads_z)
        per_row = [backward(params, x, g) for x, g in zip(rows, grads_z)]
        for layer, (gw, gb) in enumerate(batched):
            np.testing.assert_allclose(
                gw, sum(r[layer][0] for r in per_row), rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                gb, sum(r[layer][1] for r in per_row), rtol=0, atol=1e-12)


def separable_dataset(rng, n=80):
    examples = []
    for i in range(n):
        cls = i % 2
        center = np.array([2.0, 2.0]) if cls == 0 else np.array([-2.0, -2.0])
        x = center + 0.3 * rng.normal(size=2)
        examples.append(make_example(rng, 2, x, [cls, cls, cls], uid=i))
    return examples


def three_class_examples(rng, n=40):
    examples = []
    for i in range(n):
        cls = int(rng.integers(0, 3))
        x = np.zeros(4)
        x[cls] = 1.0
        x += 0.1 * rng.normal(size=4)
        classes = [cls, cls, int(rng.integers(0, 3))]
        examples.append(make_example(rng, 3, x, classes, uid=i))
    return examples


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(0)
        examples = separable_dataset(rng, n=16)
        config = TrainConfig(
            loss=LossConfig(LossKind.HARD), learning_rate=0.0, epochs=1, seed=3, hidden=(4,)
        )
        params, losses = train(examples, config)
        reference = init(2, (4,), 2, seed=3)
        for w, w0 in zip(params.weights, reference.weights):
            np.testing.assert_array_equal(w, w0)
        assert len(losses) == 1

    def test_learns_separable_problem(self):
        rng = np.random.default_rng(1)
        examples = separable_dataset(rng)
        config = TrainConfig(
            loss=LossConfig(LossKind.HARD), learning_rate=1e-2, epochs=50, seed=5, hidden=(8,)
        )
        params, losses = train(examples, config)
        correct = 0
        for ex in examples:
            z = forward(params, ex.features)
            correct += int(np.argmax(z) == ex.majority)
        assert correct / len(examples) >= 0.95
        assert losses[-1] < losses[0]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        examples = separable_dataset(rng, n=32)
        config = TrainConfig(
            loss=LossConfig.default_for(LossKind.DPN_KL),
            learning_rate=1e-2,
            epochs=3,
            seed=17,
            hidden=(6,),
        )
        params_a, losses_a = train(examples, config)
        params_b, losses_b = train(examples, config)
        assert losses_a == losses_b
        for wa, wb in zip(params_a.weights, params_b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_hard_filters_no_majority_utterances(self):
        rng = np.random.default_rng(3)
        examples = separable_dataset(rng, n=8)
        examples.append(make_example(rng, 2, [0.0, 0.0], [0, 1], uid=99))
        config = TrainConfig(
            loss=LossConfig(LossKind.HARD), learning_rate=1e-3, epochs=1, seed=0, hidden=(4,)
        )
        train(examples, config)  # must not raise on the NONE-group example

    def test_hard_requires_some_majority(self):
        rng = np.random.default_rng(4)
        only_none = [make_example(rng, 2, [0.0, 1.0], [0, 1], uid=0)]
        config = TrainConfig(
            loss=LossConfig(LossKind.HARD), learning_rate=1e-3, epochs=1, seed=0
        )
        with pytest.raises(ValueError):
            train(only_none, config)

    def test_empty_dataset_rejected(self):
        config = TrainConfig(loss=LossConfig(LossKind.SOFT_KL))
        with pytest.raises(ValueError):
            train([], config)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_one_epoch_matches_per_example_reference(self, kind):
        # Plain SGD, one example at a time, in the batch order train uses.
        examples = three_class_examples(np.random.default_rng(12))
        config = TrainConfig(
            loss=LossConfig.default_for(kind),
            learning_rate=5e-2,
            batch_size=8,
            epochs=1,
            seed=19,
            hidden=(6,),
        )
        params, losses = train(examples, config)

        kept = [e for e in examples if kind != LossKind.HARD or e.group != AgreementGroup.NONE]
        ref = init(4, (6,), 3, seed=19)
        order = fisher_yates(len(kept), stream(19, DOMAIN_SHUFFLE, 0))
        total = 0.0
        for start in range(0, len(kept), 8):
            batch = sorted(order[start : start + 8])
            acc = [(np.zeros_like(w), np.zeros_like(b))
                   for w, b in zip(ref.weights, ref.biases)]
            for idx in batch:
                ex = kept[idx]
                value, grad_z = example_loss(config.loss, forward(ref, ex.features),
                                             ex.labels, ex.soft, ex.majority)
                total += value
                for (aw, ab), (gw, gb) in zip(acc, backward(ref, ex.features, grad_z)):
                    aw += gw
                    ab += gb
            for i, (aw, ab) in enumerate(acc):
                ref.weights[i] -= 5e-2 / len(batch) * aw
                ref.biases[i] -= 5e-2 / len(batch) * ab

        assert losses[0] == pytest.approx(total / len(kept), rel=0, abs=1e-12)
        for got, want in zip(params.weights + params.biases, ref.weights + ref.biases):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_epoch_losses_finite_for_every_objective(self, kind):
        examples = three_class_examples(np.random.default_rng(5))
        config = TrainConfig(
            loss=LossConfig.default_for(kind),
            learning_rate=1e-2,
            epochs=5,
            seed=21,
            hidden=(8,),
        )
        _, losses = train(examples, config)
        assert len(losses) == 5
        assert all(math.isfinite(v) for v in losses)


class TestTrainNumericalFailures:
    def test_singularity_names_first_singular_utterance_in_batch(self):
        # One linear layer: features 0 give logits 0 (alpha = 1, where a
        # zero label component drops out); the other rows get logits -1
        # (alpha < 1, singular with eps1 = 0).
        k = 2
        w = init(2, (), k, seed=8).weights[0]
        singular_x = np.linalg.solve(w.T, np.full(k, -1.0))
        rng = np.random.default_rng(0)
        xs = [np.zeros(2), np.zeros(2), singular_x, np.zeros(2), singular_x]
        examples = [make_example(rng, k, x, [0], uid=10 + i) for i, x in enumerate(xs)]
        config = TrainConfig(loss=LossConfig(LossKind.DPN), batch_size=8, epochs=1,
                             seed=8, hidden=())
        with pytest.raises(SingularityError, match=r"epoch 0, batch 0, utterance 12: "):
            train(examples, config)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_divergence_is_a_floating_point_error(self, kind):
        examples = three_class_examples(np.random.default_rng(6))
        config = TrainConfig(loss=LossConfig.default_for(kind), learning_rate=1e300,
                             batch_size=4, epochs=2, seed=2, hidden=(6,))
        with pytest.raises(FloatingPointError, match=r"epoch \d+, batch \d+, utterance \d+"):
            train(examples, config)

    def test_overflow_in_the_last_update_is_a_floating_point_error(self):
        # One batch, one epoch: no later forward pass would see the weights.
        examples = [LabelledExample(e.features * 1e3, e.labels, e.soft, e.group, e.majority)
                    for e in three_class_examples(np.random.default_rng(6))]
        config = TrainConfig(loss=LossConfig(LossKind.SOFT_KL), learning_rate=1e308,
                             batch_size=64, epochs=1, seed=2, hidden=(6,))
        with pytest.raises(FloatingPointError, match="non-finite weights"):
            train(examples, config)


@pytest.fixture(scope="module")
def corpus_set(tmp_path_factory):
    from labelprior.dataio import DatasetRecord, read_dataset, record_to_example, write_dataset
    from labelprior.synth import SynthConfig, generate

    utts, space = generate(SynthConfig(n=150, k=4, d=6, multi_tag_prob=0.2, seed=3))
    path = tmp_path_factory.mktemp("corpus") / "train.jsonl"
    write_dataset(path, space,
                  [DatasetRecord(1000 + u.uid, "train", u.features, u.evaluations)
                   for u in utts])
    return record_to_example(read_dataset(path)[1])


class TestTrainingSet:
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_columns_and_rows_train_bit_equal(self, corpus_set, kind):
        config = TrainConfig(loss=LossConfig.default_for(kind), learning_rate=5e-2,
                             batch_size=16, epochs=2, seed=4, hidden=(5,))
        params_a, losses_a = train(corpus_set, config)
        params_b, losses_b = train(list(corpus_set), config)
        assert losses_a == losses_b
        for a, b in zip(params_a.weights + params_a.biases, params_b.weights + params_b.biases):
            np.testing.assert_array_equal(a, b)

    def test_of_keeps_a_training_set_and_stacks_rows(self, corpus_set):
        assert TrainingSet.of(corpus_set) is corpus_set
        stacked = TrainingSet.of(list(corpus_set))
        np.testing.assert_array_equal(stacked.features, corpus_set.features)
        np.testing.assert_array_equal(stacked.counts, corpus_set.counts)
        np.testing.assert_array_equal(stacked.majority, corpus_set.majority)
        assert stacked.groups.tolist() == corpus_set.groups.tolist()
        assert stacked.uids == corpus_set.uids

    def test_hard_drops_rows_without_majority(self, corpus_set):
        keep = corpus_set.majority >= 0
        assert 0 < keep.sum() < len(corpus_set)
        assert all((e.group == AgreementGroup.NONE) == (e.majority is None) for e in corpus_set)
        config = TrainConfig(loss=LossConfig(LossKind.HARD), learning_rate=5e-2,
                             batch_size=16, epochs=2, seed=4, hidden=(5,))
        params_a, losses_a = train(corpus_set, config)
        params_b, losses_b = train(corpus_set.select(keep), config)
        assert losses_a == losses_b
        for a, b in zip(params_a.weights + params_a.biases, params_b.weights + params_b.biases):
            np.testing.assert_array_equal(a, b)

    def test_hard_without_any_majority_rejected(self, corpus_set):
        only_none = corpus_set.select(corpus_set.majority < 0)
        config = TrainConfig(loss=LossConfig(LossKind.HARD), epochs=1)
        with pytest.raises(ValueError, match="hard loss needs at least one utterance "
                                             "with a majority label"):
            train(only_none, config)
        train(only_none, TrainConfig(loss=LossConfig(LossKind.SOFT_KL), epochs=1))

    def test_errors_name_the_uid(self, corpus_set):
        # The uids start at 1000, so a row index in the message would show.
        config = TrainConfig(loss=LossConfig.default_for(LossKind.DPN_KL), learning_rate=1e300,
                             batch_size=4, epochs=2, seed=2, hidden=(6,))
        with pytest.raises(FloatingPointError) as err:
            train(corpus_set, config)
        uid = int(str(err.value).split("utterance ")[1].split(":")[0])
        assert uid in corpus_set.uids


def test_epoch_losses_finite_on_default_corpus(tmp_path):
    # Every objective keeps a finite mean loss on the stock synthetic
    # corpus, including the Dirichlet ones whose terms involve log-gamma
    # of exponentiated logits.
    from labelprior.dataio import DatasetRecord, read_dataset, record_to_example, write_dataset
    from labelprior.synth import SynthConfig, generate

    utts, space = generate(SynthConfig(n=2000, k=5, d=16, seed=42))
    path = tmp_path / "train.jsonl"
    write_dataset(path, space,
                  [DatasetRecord(u.uid, "train", u.features, u.evaluations) for u in utts[:1600]])
    examples = record_to_example(read_dataset(path)[1])
    for kind in LossKind:
        config = TrainConfig(
            loss=LossConfig.default_for(kind), learning_rate=1e-2, epochs=2, seed=0
        )
        _, losses = train(examples, config)
        assert all(math.isfinite(v) for v in losses), kind


def test_end_to_end_gradient_through_network():
    # Loss gradient w.r.t. every weight and bias matches finite differences
    # for each objective.
    rng = np.random.default_rng(42)
    k = 3
    params = init(4, [6], k, seed=33)
    x = rng.normal(size=4)
    labels = [one_hot(0, k), one_hot(0, k), one_hot(1, k)]
    soft = CategoricalDist(np.mean(labels, axis=0))

    for kind in LossKind:
        config = LossConfig.default_for(kind)

        def scalar_loss(p):
            z = forward(p, x)
            return example_loss(config, z, labels, soft, majority=0)[0]

        z = forward(params, x)
        grads = backward(params, x, example_loss(config, z, labels, soft, majority=0)[1])
        step = 1e-5
        for layer, (gw, gb) in enumerate(grads):
            for arr, g in ((params.weights[layer], gw), (params.biases[layer], gb)):
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + step
                    up = scalar_loss(params)
                    arr[idx] = orig - step
                    down = scalar_loss(params)
                    arr[idx] = orig
                    numeric = (up - down) / (2 * step)
                    denom = max(abs(numeric), 1e-8)
                    assert abs(g[idx] - numeric) / denom <= 1e-4, (kind, layer, idx)
                    it.iternext()
