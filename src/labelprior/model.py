"""Small feed-forward classifier trained by mini-batch gradient descent.

The network is an MLP with ReLU hidden layers and linear output logits.
:func:`train` reads its utterances as the columns of a
:class:`~labelprior.annotations.Corpus`: features and vote counts, the only
label view the objectives need.  The label terms of the objective are
built and checked once per corpus and gathered, at the rows that gather
the features, once per epoch; each mini-batch then takes one forward pass
over its (B, d) feature matrix, one batched loss call and one backward
pass, which runs the forward pass again.  Training is deterministic given
the seed: initialisation and the per-epoch Fisher-Yates shuffle are fixed,
so reruns on the same machine are byte-identical (the BLAS summation order
may differ between machines in the last digit).  :func:`predict` gives the
(N, K) predictive probabilities of a trained model on a corpus's rows.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
# LabelledExample is unused here, but bench/probes.py builds model.LabelledExample rows.
from .annotations import Corpus, LabelledExample  # noqa: F401
from .dirichlet import SingularityError, _check_eps2, _head
from .losses import LabelTerms, LossConfig, LossKind, terms_loss
# Unused here, but bench/test_harness.py checks that tracing wraps model.example_loss.
from .losses import example_loss  # noqa: F401

__all__ = [
    "ModelParams",
    "TrainConfig",
    "init",
    "forward",
    "backward",
    "train",
    "predict",
]


@dataclass(eq=False)
class ModelParams:
    """Weight matrices and bias vectors, input to output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty and parallel")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError("a layer needs a weight matrix and a matching bias vector")
        for prev, nxt in zip(self.weights, self.weights[1:]):
            if prev.shape[1] != nxt.shape[0]:
                raise ValueError("consecutive layer dimensions do not chain")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation settings for :func:`train`."""

    loss: LossConfig
    learning_rate: float = 1e-2
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0
    hidden: tuple[int, ...] = (64,)

    def __post_init__(self) -> None:
        hidden = tuple(self.hidden)
        # Kept as the float and ints a checkpoint round-trips: JSON writes a bool as true.
        numbers = (self.learning_rate, self.batch_size, self.epochs, self.seed, *hidden)
        if any(isinstance(v, (bool, np.bool_)) for v in numbers):
            raise ValueError(f"TrainConfig numbers must not be bool, got {numbers}")
        for name in ("batch_size", "epochs", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "hidden", tuple(map(operator.index, hidden)))
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        object.__setattr__(self, "learning_rate", float(self.learning_rate))
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


def init(d_in: int, hidden: Sequence[int], k_out: int, seed: int) -> ModelParams:
    """Glorot-style uniform weights scaled by layer fan, zero biases."""
    sizes = [d_in, *hidden, k_out]
    if any(s < 1 for s in sizes):
        raise ValueError("all layer sizes must be positive")
    gen = rng.stream(seed, rng.DOMAIN_INIT)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(gen.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases)


def _forward_cached(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    # Returns the logits plus the input of every layer (post-activation).
    inputs = [x]
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        # In place on the product, the only new array, so no temporary of its size.
        h = h @ w
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
            inputs.append(h)
    return h, inputs


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Logits for one feature vector (d,) or for each row of a (B, d) batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != params.dims[0]:
        raise ValueError(f"expected feature vectors of length {params.dims[0]}")
    return _forward_cached(params, x)[0]


def backward(
    params: ModelParams, x: np.ndarray, grad_z: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact parameter gradients given the loss gradient at the logits.

    ``x`` and ``grad_z`` are one row each or (B, d) and (B, K) batches; the
    gradients are summed over the rows.  The forward pass is run again to
    recover each layer's input.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    grad = np.atleast_2d(np.asarray(grad_z, dtype=np.float64))
    return _backward(params, x, grad)


def _backward(
    params: ModelParams, x: np.ndarray, grad: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    # backward on (B, d) float64 features and a (B, K) float64 gradient, unchecked.
    _, inputs = _forward_cached(params, x)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.weights)  # type: ignore[list-item]
    for i in range(len(params.weights) - 1, -1, -1):
        grads[i] = (inputs[i].T @ grad, grad.sum(axis=0))
        if i > 0:
            grad = grad @ params.weights[i].T
            np.putmask(grad, inputs[i] <= 0.0, 0.0)  # ReLU gate
    return grads


def _first_nonfinite(*columns: np.ndarray) -> Optional[int]:
    # Index of the first row holding a NaN or an infinity in any of the (B,)
    # or (B, K) arrays, or None.  The rows are stacked only to name a bad one.
    if all(np.isfinite(c).all() for c in columns):
        return None
    return int(np.flatnonzero(~np.isfinite(np.column_stack(columns)).all(axis=1))[0])


def train(corpus: Corpus, config: TrainConfig) -> tuple[ModelParams, list[float]]:
    """Mini-batch gradient descent on every row of ``corpus``; returns params
    and per-epoch mean loss.

    The hard loss trains on the utterances with a majority label, each with
    its one-hot majority vector as counts: the N/M target of the row
    vote-and-replaced (``replace_majorities``).  The other objectives train on
    everything.  The label terms of the objective (:class:`LabelTerms`) are
    built, and the counts and loss constants checked, once before the first
    update.  Each epoch puts every mini-batch's rows in ascending order and
    gathers the features and the terms at those rows once; each mini-batch
    then makes one forward pass, one :func:`terms_loss` call, which gives the
    bits of :func:`batch_loss`, and one backward pass, which runs the forward
    pass again.  A SingularityError from the Dirichlet term is re-raised with
    epoch/batch/utterance context, and so is a non-finite logit or loss, as
    a FloatingPointError.
    """
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
    terms = LabelTerms.of(config.loss, counts)

    n, size = len(corpus), min(config.batch_size, len(corpus))
    # Sorting batch * n + row puts the rows of each batch in ascending order.
    batch_key = np.arange(n) // size * n
    epoch_losses: list[float] = []
    # Divergence shows up as non-finite logits or losses, reported below with
    # the utterance; numpy's overflow warnings would only precede that.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.fisher_yates(n, rng.stream(config.seed, rng.DOMAIN_SHUFFLE, epoch))
            rows = np.sort(batch_key + order) % n
            epoch_features, epoch_terms = features[rows], terms[rows]

            def where(start: int, row: int) -> str:  # row ``row`` of the batch at ``start``
                return f"epoch {epoch}, batch {start // size}, utterance {uids[rows[start + row]]}"
            total = 0.0
            for start in range(0, n, size):
                x = epoch_features[start : start + size]
                z = _forward_cached(params, x)[0]
                # A non-finite entry makes the sum non-finite; the row search then names
                # its row, and finds none when only the sum overflowed.
                if not math.isfinite(z.sum()) and (row := _first_nonfinite(z)) is not None:
                    raise FloatingPointError(f"{where(start, row)}: non-finite logits")
                try:
                    values, grad_z = terms_loss(epoch_terms[start : start + size], z)
                except SingularityError as err:
                    raise SingularityError(f"{where(start, err.row)}: {err}") from err
                batch_total = values.sum()
                if (not math.isfinite(batch_total + grad_z.sum())
                        and (row := _first_nonfinite(values, grad_z)) is not None):
                    raise FloatingPointError(f"{where(start, row)}: non-finite loss")
                total += float(batch_total)
                scale = config.learning_rate / len(x)
                for i, (gw, gb) in enumerate(_backward(params, x, grad_z)):
                    params.weights[i] -= scale * gw
                    params.biases[i] -= scale * gb
            epoch_losses.append(total / n)
    if not all(np.all(np.isfinite(a)) for a in params.weights + params.biases):
        raise FloatingPointError(
            f"epoch {config.epochs - 1}: non-finite weights after the last update")
    return params, epoch_losses


def predict(params: ModelParams, corpus: Corpus, loss: LossConfig) -> np.ndarray:
    """The (N, K) probabilities of ``corpus``'s rows through the head ``loss`` trained: the
    softmax for hard and soft, bit for bit ``predictive_mean(from_logits(z, eps2))`` for dpn
    and dpn-kl.  A non-finite logit raises FloatingPointError naming its utterance."""
    _check_eps2(loss.eps2, len(params.biases[-1]))  # from_logits' bound on eps2 and its error
    with np.errstate(over="ignore", invalid="ignore"):  # checked below; exp(-inf) = 0 is exact
        logits = forward(params, corpus.features)
        if (row := _first_nonfinite(logits)) is not None:
            raise FloatingPointError(f"utterance {corpus.ids[row]}: non-finite logits")
        e = (np.exp(logits - logits.max(axis=1, keepdims=True))
             if loss.kind in (LossKind.HARD, LossKind.SOFT_KL) else _head(logits, loss.eps2)[0])
        return e / e.sum(axis=1, keepdims=True)
