"""Tests for the MLP: initialisation, forward/backward, and training."""

import dataclasses
import itertools
import math
from typing import Optional

import numpy as np
import pytest

from labelprior import dirichlet, losses, model, rng, synth
from labelprior.annotations import AgreementGroup, ClassSpace, Corpus
from labelprior.dataio import DatasetRecord, read_dataset, write_dataset
from labelprior.dirichlet import CategoricalDist, SingularityError
from labelprior.losses import LossConfig, LossKind, batch_loss, example_loss
from labelprior.model import (
    ModelParams,
    TrainConfig,
    _forward_cached,
    backward,
    forward,
    init,
    train,
)
from labelprior.rng import DOMAIN_SHUFFLE, fisher_yates, stream
from labelprior.synth import SynthConfig, generate_columns
from test_losses import mask_dpn_kl


def one_hot(index, k):
    label = np.zeros(k)
    label[index] = 1.0
    return label


def corpus_of(tmp_path, k, rows):
    """The corpus of train records (uid, features, classes), each class one
    single-tag evaluation, written to a dataset file and read back."""
    path = tmp_path / "train.jsonl"
    write_dataset(path, ClassSpace(tuple(f"c{i}" for i in range(k))),
                  [DatasetRecord(uid, "train", np.asarray(x, dtype=np.float64),
                                 tuple((c,) for c in classes))
                   for uid, x, classes in rows])
    return read_dataset(path)[1]


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

    @pytest.mark.parametrize("build, message", [
        (lambda: ModelParams([], []), "weights and biases must be non-empty and parallel"),
        (lambda: ModelParams([np.zeros((3, 4)), np.zeros((5, 2))], [np.zeros(4), np.zeros(2)]),
         "consecutive layer dimensions do not chain"),
        (lambda: init(0, [], 5, 0), "all layer sizes must be positive"),
    ], ids=["no-layers", "unchained", "zero-width-input"])
    def test_rejects_malformed_layers(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


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

    @pytest.mark.parametrize("shape", [(5,), (9, 5)], ids=["row", "batch"])
    def test_cached_pass_equals_out_of_place_reference(self, shape):
        # Random biases and hidden units below zero exercise the bias and the ReLU.
        rng = np.random.default_rng(8)
        params = init(5, [7, 4], 3, seed=4)
        params.biases[:] = [rng.normal(size=b.shape) for b in params.biases]
        x = rng.normal(size=shape)
        x_before = x.copy()
        want_inputs, h = [x], x
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
            want_inputs.append(h)
        want = h @ params.weights[-1] + params.biases[-1]
        got, inputs = _forward_cached(params, x)
        assert got.tobytes() == want.tobytes()
        assert len(inputs) == len(want_inputs)
        for a, b in zip(inputs, want_inputs):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert inputs[0] is x
        assert x.tobytes() == x_before.tobytes()
        assert any((a == 0.0).any() for a in inputs[1:])


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


def separable_rows(rng, n=80):
    rows = []
    for i in range(n):
        cls = i % 2
        center = np.array([2.0, 2.0]) if cls == 0 else np.array([-2.0, -2.0])
        x = center + 0.3 * rng.normal(size=2)
        rows.append((i, x, [cls, cls, cls]))
    return rows


def three_class_rows(rng, n=40):
    rows = []
    for i in range(n):
        cls = int(rng.integers(0, 3))
        x = np.zeros(4)
        x[cls] = 1.0
        x += 0.1 * rng.normal(size=4)
        rows.append((i, x, [cls, cls, int(rng.integers(0, 3))]))
    return rows


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self, tmp_path):
        rng = np.random.default_rng(0)
        examples = corpus_of(tmp_path, 2, separable_rows(rng, n=16))
        config = TrainConfig(
            loss=LossConfig(LossKind.HARD), learning_rate=0.0, epochs=1, seed=3, hidden=(4,)
        )
        params, losses = train(examples, config)
        reference = init(2, (4,), 2, seed=3)
        for w, w0 in zip(params.weights, reference.weights):
            np.testing.assert_array_equal(w, w0)
        assert len(losses) == 1

    def test_learns_separable_problem(self, tmp_path):
        rng = np.random.default_rng(1)
        examples = corpus_of(tmp_path, 2, separable_rows(rng))
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

    def test_deterministic_given_seed(self, tmp_path):
        rng = np.random.default_rng(2)
        examples = corpus_of(tmp_path, 2, separable_rows(rng, n=32))
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

    def test_hard_filters_no_majority_utterances(self, tmp_path):
        rng = np.random.default_rng(3)
        examples = corpus_of(tmp_path, 2, separable_rows(rng, n=8) + [(99, [0.0, 0.0], [0, 1])])
        config = TrainConfig(
            loss=LossConfig(LossKind.HARD), learning_rate=1e-3, epochs=1, seed=0, hidden=(4,)
        )
        train(examples, config)  # must not raise on the NONE-group example

    def test_hard_requires_some_majority(self, tmp_path):
        only_none = corpus_of(tmp_path, 2, [(0, [0.0, 1.0], [0, 1])])
        config = TrainConfig(
            loss=LossConfig(LossKind.HARD), learning_rate=1e-3, epochs=1, seed=0
        )
        with pytest.raises(ValueError):
            train(only_none, config)

    def test_empty_dataset_rejected(self, tmp_path):
        config = TrainConfig(loss=LossConfig(LossKind.SOFT_KL))
        with pytest.raises(ValueError):
            train(corpus_of(tmp_path, 2, []), config)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_one_epoch_matches_per_example_reference(self, tmp_path, kind):
        # Plain SGD, one example at a time, in the batch order train uses.
        examples = corpus_of(tmp_path, 3, three_class_rows(np.random.default_rng(12)))
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
    def test_epoch_losses_finite_for_every_objective(self, tmp_path, kind):
        examples = corpus_of(tmp_path, 3, three_class_rows(np.random.default_rng(5)))
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
    def test_singularity_names_first_singular_utterance_in_batch(self, tmp_path):
        # One linear layer: features 0 give logits 0 (alpha = 1, where a
        # zero label component drops out); the other rows get logits -1
        # (alpha < 1, singular with eps1 = 0).
        k = 2
        w = init(2, (), k, seed=8).weights[0]
        singular_x = np.linalg.solve(w.T, np.full(k, -1.0))
        xs = [np.zeros(2), np.zeros(2), singular_x, np.zeros(2), singular_x]
        examples = corpus_of(tmp_path, k, [(10 + i, x, [0]) for i, x in enumerate(xs)])
        config = TrainConfig(loss=LossConfig(LossKind.DPN), batch_size=8, epochs=1,
                             seed=8, hidden=())
        with pytest.raises(SingularityError, match=r"epoch 0, batch 0, utterance 12: "):
            train(examples, config)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_divergence_is_a_floating_point_error(self, tmp_path, kind):
        examples = corpus_of(tmp_path, 3, three_class_rows(np.random.default_rng(6)))
        config = TrainConfig(loss=LossConfig.default_for(kind), learning_rate=1e300,
                             batch_size=4, epochs=2, seed=2, hidden=(6,))
        with pytest.raises(FloatingPointError, match=r"epoch \d+, batch \d+, utterance \d+"):
            train(examples, config)

    def test_overflow_in_the_last_update_is_a_floating_point_error(self, tmp_path):
        # One batch, one epoch: no later forward pass would see the weights.
        examples = corpus_of(tmp_path, 3, [(uid, x * 1e3, classes) for uid, x, classes
                                           in three_class_rows(np.random.default_rng(6))])
        config = TrainConfig(loss=LossConfig(LossKind.SOFT_KL), learning_rate=1e308,
                             batch_size=64, epochs=1, seed=2, hidden=(6,))
        with pytest.raises(FloatingPointError, match="non-finite weights"):
            train(examples, config)


@pytest.fixture(scope="module")
def corpus_set(tmp_path_factory):
    from labelprior.synth import SynthConfig, generate

    utts, space = generate(SynthConfig(n=150, k=4, d=6, multi_tag_prob=0.2, seed=3))
    path = tmp_path_factory.mktemp("corpus") / "train.jsonl"
    write_dataset(path, space,
                  [DatasetRecord(1000 + u.uid, "train", u.features, u.evaluations)
                   for u in utts])
    return read_dataset(path)[1]


class TestCorpusTraining:
    SETTINGS = dict(learning_rate=5e-2, batch_size=16, epochs=2, seed=4, hidden=(5,))

    def assert_same_training(self, a, b):
        (params_a, losses_a), (params_b, losses_b) = a, b
        assert losses_a == losses_b
        for x, y in zip(params_a.weights + params_a.biases, params_b.weights + params_b.biases):
            np.testing.assert_array_equal(x, y)

    def test_hard_drops_rows_without_majority(self, corpus_set):
        keep = corpus_set.majority >= 0
        assert 0 < keep.sum() < len(corpus_set)
        assert all((e.group == AgreementGroup.NONE) == (e.majority is None) for e in corpus_set)
        config = TrainConfig(loss=LossConfig(LossKind.HARD), **self.SETTINGS)
        self.assert_same_training(train(corpus_set, config),
                                  train(corpus_set.select(keep), config))

    def test_hard_is_soft_on_vote_and_replaced_majority_rows(self, corpus_set):
        # Vote-and-replace gives a majority row M labels of its majority
        # class, whose soft label N/M is the hard one-hot target bit for bit.
        with_majority = corpus_set.select(corpus_set.majority >= 0)
        counts = with_majority.counts
        assert (counts.max(axis=1) < counts.sum(axis=1)).any()  # some rows span classes
        hard = train(corpus_set, TrainConfig(loss=LossConfig(LossKind.HARD), **self.SETTINGS))
        soft = train(with_majority.replace_majorities(),
                     TrainConfig(loss=LossConfig(LossKind.SOFT_KL), **self.SETTINGS))
        self.assert_same_training(hard, soft)

    def test_hard_is_unchanged_by_vote_and_replace(self, corpus_set):
        config = TrainConfig(loss=LossConfig(LossKind.HARD), **self.SETTINGS)
        self.assert_same_training(train(corpus_set, config),
                                  train(corpus_set.replace_majorities(), config))

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
        assert uid in corpus_set.ids


def test_epoch_losses_finite_on_default_corpus(tmp_path):
    # Every objective keeps a finite mean loss on the stock synthetic
    # corpus, including the Dirichlet ones whose terms involve log-gamma
    # of exponentiated logits.
    from labelprior.synth import SynthConfig, generate

    utts, space = generate(SynthConfig(n=2000, k=5, d=16, seed=42))
    path = tmp_path / "train.jsonl"
    write_dataset(path, space,
                  [DatasetRecord(u.uid, "train", u.features, u.evaluations) for u in utts[:1600]])
    examples = read_dataset(path)[1]
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


# -- train against the per-batch loop it replaced ---------------------------

def _first_nonfinite(*columns: np.ndarray) -> Optional[int]:
    if all(np.isfinite(c).all() for c in columns):
        return None
    return int(np.flatnonzero(~np.isfinite(np.column_stack(columns)).all(axis=1))[0])


def reference_train(corpus: Corpus, config: TrainConfig) -> tuple[ModelParams, list[float]]:
    """The training loop as it was before the label terms were built once per
    corpus: per batch, a sort, fancy-indexed features and counts, the public
    forward and backward, and one checked batch_loss call; for dpn-kl, the
    loss with the Polya term summed over (B, K, max M) padded steps."""
    if len(corpus) == 0:
        raise ValueError("training set is empty")
    counts = corpus.counts
    if config.loss.kind == LossKind.HARD:
        corpus = corpus.select(corpus.majority >= 0)
        if len(corpus) == 0:
            raise ValueError("hard loss needs at least one utterance with a majority label")
        counts = np.eye(counts.shape[1])[corpus.majority]

    features, uids = corpus.features, corpus.ids
    params = init(features.shape[1], config.hidden, counts.shape[1], config.seed)

    n = len(corpus)
    epoch_losses: list[float] = []
    # Divergence shows up as non-finite logits or losses, reported below with
    # the utterance; numpy's overflow warnings would only precede that.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.fisher_yates(n, rng.stream(config.seed, rng.DOMAIN_SHUFFLE, epoch))
            total = 0.0
            for start in range(0, n, config.batch_size):
                batch = np.sort(order[start : start + config.batch_size])
                where = f"epoch {epoch}, batch {start // config.batch_size}, utterance"
                x = features[batch]
                z = forward(params, x)
                row = _first_nonfinite(z)
                if row is not None:
                    raise FloatingPointError(
                        f"{where} {uids[batch[row]]}: non-finite logits")
                try:
                    loss = mask_dpn_kl if config.loss.kind == LossKind.DPN_KL else batch_loss
                    values, grad_z = loss(config.loss, z, counts[batch])
                except SingularityError as err:
                    raise SingularityError(
                        f"{where} {uids[batch[err.row]]}: {err}") from err
                row = _first_nonfinite(values, grad_z)
                if row is not None:
                    raise FloatingPointError(
                        f"{where} {uids[batch[row]]}: non-finite loss")
                total += float(values.sum())
                scale = config.learning_rate / len(batch)
                for i, (gw, gb) in enumerate(backward(params, x, grad_z)):
                    params.weights[i] -= scale * gw
                    params.biases[i] -= scale * gb
            epoch_losses.append(total / n)
    if not all(np.all(np.isfinite(a)) for a in params.weights + params.biases):
        raise FloatingPointError(
            f"epoch {config.epochs - 1}: non-finite weights after the last update")
    return params, epoch_losses


def synth_corpus(n: int, **settings) -> Corpus:
    """A generated corpus with ids from 1000, so a row index in a message shows."""
    config = SynthConfig(n=n, seed=7, **settings)
    features, _, tags, tags_per_eval, annotators = generate_columns(config)
    return Corpus.from_tags(list(range(1000, 1000 + n)), np.ones(n, dtype=bool), features,
                            tags, tags_per_eval, annotators, config.k)


CORPORA = {
    "paper": dict(n=60, k=5, d=16),
    # K = 10 with multi-tag evaluations: about 24 labels per row.
    "crowd": dict(n=50, k=10, d=12, annotators=20, multi_tag_prob=0.2,
                  regime_precisions=(300.0, 40.0, 15.0)),
}


@pytest.fixture(scope="module")
def corpora():
    return {name: synth_corpus(**settings) for name, settings in CORPORA.items()}


def assert_bitwise_same(got, want):
    (params, losses), (ref_params, ref_losses) = got, want
    assert np.array_equal(losses, ref_losses)
    assert len(params.weights) == len(ref_params.weights)
    for a, b in zip(params.weights + params.biases, ref_params.weights + ref_params.biases):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_close(got, want):
    """Every loss within 1e-12 relative and every weight and bias within 1e-11
    (the crowd cases of 3 epochs differ by at most about 2e-13 and 7e-15)."""
    (params, losses), (ref_params, ref_losses) = got, want
    np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
    assert len(params.weights) == len(ref_params.weights)
    for a, b in zip(params.weights + params.biases, ref_params.weights + ref_params.biases):
        assert a.dtype == b.dtype
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-11)


class TestTrainMatchesReferenceLoop:
    @pytest.mark.parametrize("hidden", [(), (6,), (8, 4)], ids=str)
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 80])
    # The stock settings, plus dpn-kl at lambda = 0, whose terms are the Polya layout alone.
    @pytest.mark.parametrize(
        "loss",
        [LossConfig.default_for(kind) for kind in LossKind] + [LossConfig(LossKind.DPN_KL, lam=0.0)],
        ids=[str(kind) for kind in LossKind] + ["LossKind.DPN_KL-lambda0"])
    @pytest.mark.parametrize("shape", sorted(CORPORA))
    def test_weights_and_losses_bit_for_bit(self, corpora, shape, loss, batch_size, hidden):
        corpus = corpora[shape]
        if loss.kind == LossKind.HARD:  # hard drops the rows without a majority
            assert 0 < (corpus.majority < 0).sum() < len(corpus)
        if shape == "crowd":
            assert 20 <= corpus.counts.sum(axis=1).mean() <= 28
        config = TrainConfig(loss=loss, learning_rate=5e-2,
                             batch_size=batch_size, epochs=3, seed=11, hidden=hidden)
        got, want = train(corpus, config), reference_train(corpus, config)
        if loss.kind != LossKind.DPN_KL or corpus.counts.sum(axis=1).max() < 8:
            assert_bitwise_same(got, want)
        else:
            # With 8 or more padded steps (a batch's max M) the padded kernel summed
            # them pairwise, and the per-label layout adds in sequence: last bits move.
            assert shape == "crowd"
            assert_close(got, want)

    def test_dpn_without_smoothing(self):
        # With eps1 = 0 every row has zero label components, which are finite
        # only at alpha_k = 1: zero features and no update keep every logit 0.
        corpus = synth_corpus(30, k=4, d=6)
        corpus = Corpus(**{**vars(corpus), "features": np.zeros_like(corpus.features)})
        config = TrainConfig(loss=LossConfig(LossKind.DPN), learning_rate=0.0,
                             batch_size=7, epochs=2, seed=3, hidden=(5,))
        got = train(corpus, config)
        assert all(math.isfinite(v) for v in got[1])
        assert_bitwise_same(got, reference_train(corpus, config))

    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda kind: kind.value)
    def test_batch_past_the_corpus_is_one_batch(self, corpora, kind):
        # A batch of 2**64 rows, past int64, trains as the batch of every row.
        corpus = corpora["paper"]
        config = TrainConfig(loss=LossConfig.default_for(kind), learning_rate=5e-2,
                             batch_size=len(corpus), epochs=3, seed=11, hidden=(6,))
        assert_bitwise_same(train(corpus, dataclasses.replace(config, batch_size=2**64)),
                            train(corpus, config))


def inject_logits(monkeypatch, at_pass: int, row: int, values) -> None:
    """Forward pass ``at_pass`` (counted from 0; each batch makes two, the
    loss's first) returns ``values`` in logit row ``row``."""
    real = model._forward_cached
    passes = itertools.count()

    def injected(params, x):
        z, inputs = real(params, x)
        if next(passes) == at_pass:
            z = z.copy()
            z[row] = values
        return z, inputs

    monkeypatch.setattr(model, "_forward_cached", injected)


def failure(monkeypatch, trainer, corpus, config, epoch, batch, row, values):
    """The exception ``trainer`` raises when logit row ``row`` of the given
    epoch and batch is replaced by ``values``."""
    with monkeypatch.context() as patch:
        inject_logits(patch, 2 * (epoch * batches(corpus, config) + batch), row, values)
        with pytest.raises((FloatingPointError, SingularityError)) as info:
            trainer(corpus, config)
    return info.value


def trained_rows(corpus: Corpus, config: TrainConfig) -> Corpus:
    if config.loss.kind == LossKind.HARD:
        return corpus.select(corpus.majority >= 0)
    return corpus


def batches(corpus: Corpus, config: TrainConfig) -> int:
    return -(-len(trained_rows(corpus, config)) // config.batch_size)


class TestTrainErrorContract:
    # (epoch, batch, row): batch -1 is the last, partial batch.
    AT = [(1, -1, 2), (2, 1, 0)]

    @pytest.fixture(scope="class")
    def corpus(self):
        # 20 rows with a majority and 4 without: batches of 7 leave a partial
        # last batch for every objective, hard included.
        corpus = synth_corpus(60, k=3, d=4, annotators=2)
        assert (corpus.majority < 0).sum() >= 4
        keep = np.zeros(len(corpus), dtype=bool)
        keep[np.flatnonzero(corpus.majority >= 0)[:20]] = True
        keep[np.flatnonzero(corpus.majority < 0)[:4]] = True
        return corpus.select(keep)

    @pytest.fixture(scope="class")
    def flat(self, corpus):
        # Zero features, and no update: every logit stays 0, so dpn with
        # eps1 = 0 only fails where a row is injected.
        return Corpus(**{**vars(corpus), "features": np.zeros_like(corpus.features)})

    def expect_same_failure(self, monkeypatch, corpus, config, at, values, kind, message):
        epoch, batch, row = at
        rows, size = trained_rows(corpus, config), config.batch_size
        assert len(rows) % size
        batch %= batches(corpus, config)
        got = failure(monkeypatch, train, corpus, config, epoch, batch, row, values)
        want = failure(monkeypatch, reference_train, corpus, config, epoch, batch, row, values)
        assert type(got) is type(want) is kind
        assert str(got) == str(want)
        order = fisher_yates(len(rows), stream(config.seed, DOMAIN_SHUFFLE, epoch))
        uid = rows.ids[np.sort(order[batch * size : (batch + 1) * size])[row]]
        assert str(got).startswith(f"epoch {epoch}, batch {batch}, utterance {uid}: {message}")

    @pytest.mark.parametrize("at", AT)
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_non_finite_logits(self, monkeypatch, corpus, kind, at):
        config = TrainConfig(loss=LossConfig.default_for(kind), batch_size=7, epochs=3,
                             seed=5, hidden=(4,))
        self.expect_same_failure(monkeypatch, corpus, config, at, [0.0, np.nan, 1.0],
                                 FloatingPointError, "non-finite logits")

    @pytest.mark.parametrize("at", AT)
    @pytest.mark.parametrize("kind", [LossKind.HARD, LossKind.SOFT_KL, LossKind.DPN_KL])
    def test_non_finite_loss(self, monkeypatch, corpus, kind, at):
        # Finite logits whose softmax underflows: the KL is not finite.
        config = TrainConfig(loss=LossConfig.default_for(kind), batch_size=7, epochs=3,
                             seed=5, hidden=(4,))
        self.expect_same_failure(monkeypatch, corpus, config, at, [1e308, -1e308, -1e308],
                                 FloatingPointError, "non-finite loss")

    @pytest.mark.parametrize("at", AT)
    def test_non_finite_dpn_loss(self, monkeypatch, flat, at):
        # eps1 = 0: alpha_k > 1 at a zero label component makes the density 0.
        config = TrainConfig(loss=LossConfig(LossKind.DPN), learning_rate=0.0, batch_size=7,
                             epochs=3, seed=5, hidden=(4,))
        self.expect_same_failure(monkeypatch, flat, config, at, [1.0, 1.0, 1.0],
                                 FloatingPointError, "non-finite loss")

    @pytest.mark.parametrize("at", AT)
    def test_singularity(self, monkeypatch, flat, at):
        config = TrainConfig(loss=LossConfig(LossKind.DPN), learning_rate=0.0, batch_size=7,
                             epochs=3, seed=5, hidden=(4,))
        self.expect_same_failure(monkeypatch, flat, config, at, [-1.0, -1.0, -1.0],
                                 SingularityError, "label component ")


    def test_finite_logits_whose_sum_overflows_train_on(self, monkeypatch, corpus):
        # Every logit and loss is finite, so neither loop raises.
        config = TrainConfig(loss=LossConfig(LossKind.SOFT_KL), batch_size=7, epochs=3,
                             seed=5, hidden=(4,))
        results = []
        for trainer in (train, reference_train):
            with monkeypatch.context() as patch:
                inject_logits(patch, 2 * (batches(corpus, config) + 1), 0, [1e308, 1e308, 0.0])
                results.append(trainer(corpus, config))
        assert all(math.isfinite(v) for v in results[0][1])
        assert_bitwise_same(*results)


class TestTrainChecksCountsFirst:
    """A hand-built corpus whose last row breaks a count rule: train raises
    batch_loss's message before the first update."""

    @pytest.mark.parametrize("kind, bad_row", [
        (LossKind.SOFT_KL, [0, 0, 0]),         # no label
        (LossKind.DPN, [3, -1, 0]),            # a negative count
        (LossKind.DPN_KL, [1.5, 0.5, 1.0]),    # counts that are not integers
    ], ids=["no-label", "negative", "non-integer"])
    def test_bad_counts_raise_before_any_update(self, monkeypatch, kind, bad_row):
        n, k = 20, 3
        counts = np.vstack([np.eye(k)[np.arange(n - 1) % k] * 3, [bad_row]])
        corpus = Corpus(ids=list(range(n)), train=np.ones(n, dtype=bool),
                        features=np.random.default_rng(1).normal(size=(n, 4)), counts=counts,
                        annotators=np.full(n, 3), groups=np.zeros(n, dtype=np.int8),
                        majority=np.arange(n) % k, tags=np.zeros(0, dtype=np.int64),
                        tags_per_eval=np.zeros(0, dtype=np.int64))
        config = TrainConfig(loss=LossConfig.default_for(kind), batch_size=4, epochs=2,
                             seed=2, hidden=(5,))
        built = []

        def recording_init(*args):
            built.append(init(*args))
            return built[-1]

        monkeypatch.setattr(model, "init", recording_init)
        with pytest.raises(ValueError) as want:
            batch_loss(config.loss, np.zeros((n, k)), counts)
        with pytest.raises(ValueError) as got:
            train(corpus, config)
        assert str(got.value) == str(want.value)
        fresh = init(4, (5,), k, 2)
        assert all(np.array_equal(a, b) for a, b in zip(
            built[0].weights + built[0].biases, fresh.weights + fresh.biases))


class TestTrainChecksEps2Once:
    """eps2's bound is checked with the label terms, once per corpus, and the
    per-batch kernels check nothing."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = dirichlet._check_eps2

        def counting(eps2, k):
            calls.append((eps2, k))
            check(eps2, k)

        for module in (dirichlet, losses):  # wherever either binds it
            monkeypatch.setattr(module, "_check_eps2", counting, raising=False)
        return calls

    @pytest.mark.parametrize("kind, count", [
        (LossKind.HARD, 0), (LossKind.SOFT_KL, 0), (LossKind.DPN, 1), (LossKind.DPN_KL, 0)],
        ids=lambda v: v.value if isinstance(v, LossKind) else None)
    def test_one_train_checks_dpn_once(self, corpora, checks, kind, count):
        config = TrainConfig(loss=LossConfig.default_for(kind), batch_size=7, epochs=3,
                             seed=2, hidden=(5,))
        train(corpora["paper"], config)
        assert checks == [(config.loss.eps2, 5)] * count

    def test_overflowing_eps2_raises_before_any_update(self, monkeypatch, corpora, checks):
        corpus = corpora["paper"]
        config = TrainConfig(loss=LossConfig(LossKind.DPN, eps1=1e-2, eps2=4e307),
                             batch_size=7, epochs=2, seed=2, hidden=(5,))
        passes = []
        monkeypatch.setattr(model, "_forward_cached", lambda *args: passes.append(args))
        with pytest.raises(ValueError) as want:
            batch_loss(config.loss, np.zeros(corpus.counts.shape), corpus.counts)
        with pytest.raises(ValueError) as got:
            train(corpus, config)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("eps2 must keep K*(e^60 + eps2) finite")
        assert passes == [] and checks == [(4e307, 5)] * 2


class TestPredict:
    """``predict`` maps a corpus's rows through ``forward`` to the head's probabilities."""

    @pytest.mark.parametrize("kind", [LossKind.HARD, LossKind.SOFT_KL],
                             ids=lambda kind: kind.value)
    def test_softmax_rows_are_the_max_shifted_softmax_of_forward(self, corpora, kind):
        corpus = corpora["crowd"]
        params = init(corpus.features.shape[1], (6,), 10, seed=3)
        params.biases[-1][:] = np.linspace(-40.0, 40.0, 10)
        z = forward(params, corpus.features)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        got = model.predict(params, corpus, LossConfig.default_for(kind))
        assert got.dtype == np.float64 and got.shape == z.shape
        assert got.tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()

    def test_non_finite_logits_name_the_utterance_of_their_row(self, corpora):
        # Unit weights sum a row's features, so only the row of 1e308s overflows.
        corpus = corpora["paper"]
        features = corpus.features.copy()
        features[37] = 1e308
        params = init(features.shape[1], (), 5, seed=0)
        params.weights[0][:] = 1.0
        with pytest.raises(FloatingPointError, match=r"^utterance 1037: non-finite logits$"):
            model.predict(params, dataclasses.replace(corpus, features=features),
                          LossConfig(LossKind.SOFT_KL))

    def test_eps2_overflowing_alpha0_is_refused_as_from_logits_refuses_it(self):
        # Unchecked, the head's alpha0 overflows and every row comes out as zeros.
        corpus = synth.corpus(SynthConfig(n=4))[1]
        with pytest.raises(ValueError, match=r"^eps2 must keep K\*\(e\^60 \+ eps2\) finite"):
            model.predict(init(16, [], 5, 0), corpus,
                          LossConfig(LossKind.DPN, eps1=1e-2, eps2=4e307))
