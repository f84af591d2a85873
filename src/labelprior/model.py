"""Small feed-forward classifier trained by mini-batch gradient descent.

The network is an MLP with ReLU hidden layers and linear output logits.
:func:`train` reads its utterances as columns (a :class:`TrainingSet`):
features, vote counts and majority classes, the only label views the
objectives need.  Each mini-batch takes one forward pass over its (B, d)
feature matrix, one batched loss call and one backward pass.  Training is
deterministic given the seed: initialisation and the per-epoch
Fisher-Yates shuffle are fixed, so reruns on the same machine are
byte-identical (the BLAS summation order may differ between machines in
the last digit).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from typing import Optional

import numpy as np

from . import rng
from .annotations import AgreementGroup
from .dirichlet import CategoricalDist, SingularityError
from .losses import LossConfig, LossKind, batch_loss
# Unused here, but bench/test_harness.py checks that tracing wraps model.example_loss.
from .losses import example_loss  # noqa: F401

__all__ = [
    "ModelParams",
    "TrainConfig",
    "LabelledExample",
    "TrainingSet",
    "init",
    "forward",
    "backward",
    "train",
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
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


@dataclass(frozen=True, eq=False)
class LabelledExample:
    """One training utterance: features plus every label view of it."""

    features: np.ndarray
    labels: tuple[np.ndarray, ...]
    soft: CategoricalDist
    group: AgreementGroup
    majority: Optional[int]
    uid: int = -1


@dataclass(frozen=True, eq=False)
class TrainingSet(Sequence[LabelledExample]):
    """Training utterances as columns, one row per utterance.

    Every objective reads an utterance's labels only through its vote
    counts (and the hard loss through its majority class), so the set keeps
    the (n, K) counts rather than one-hot labels per tag.
    """

    features: np.ndarray   # (n, d) float64
    counts: np.ndarray     # (n, K) votes per class
    groups: np.ndarray     # (n,) AgreementGroup
    majority: np.ndarray   # (n,) class index, -1 where there is none
    uids: list[int]

    def __len__(self) -> int:
        return len(self.uids)

    # Indexing builds one row on demand for per-row callers, such as
    # bench/tracer.py counting the rows the hard loss keeps by iterating over
    # their majorities; train reads the columns.
    def __getitem__(self, i: int) -> LabelledExample:
        counts = self.counts[i]
        major = int(self.majority[i])
        return LabelledExample(
            features=self.features[i],
            labels=tuple(np.repeat(np.eye(len(counts)), counts.astype(np.int64), axis=0)),
            soft=CategoricalDist(counts / counts.sum()),
            group=self.groups[i],
            majority=None if major < 0 else major,
            uid=self.uids[i],
        )

    @classmethod
    def of(cls, examples: Sequence[LabelledExample]) -> "TrainingSet":
        """``examples`` as columns: a TrainingSet as it is, a sequence of
        :class:`LabelledExample` stacked row by row."""
        if isinstance(examples, cls):
            return examples
        return cls(
            features=np.stack([e.features for e in examples]),
            counts=np.stack([np.sum(e.labels, axis=0) for e in examples]),
            groups=np.array([e.group for e in examples], dtype=object),
            majority=np.array([-1 if e.majority is None else e.majority for e in examples]),
            uids=[e.uid for e in examples],
        )

    def select(self, mask: np.ndarray) -> "TrainingSet":
        """The rows a boolean (n,) mask selects."""
        return TrainingSet(self.features[mask], self.counts[mask], self.groups[mask],
                           self.majority[mask], list(compress(self.uids, mask.tolist())))


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
        h = h @ w + b
        if i < last:
            h = np.maximum(h, 0.0)
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
    gradients are summed over the rows.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    grad = np.atleast_2d(np.asarray(grad_z, dtype=np.float64))
    _, inputs = _forward_cached(params, x)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.weights)  # type: ignore[list-item]
    for i in range(len(params.weights) - 1, -1, -1):
        grads[i] = (inputs[i].T @ grad, grad.sum(axis=0))
        if i > 0:
            grad = grad @ params.weights[i].T
            grad[inputs[i] <= 0.0] = 0.0  # ReLU gate
    return grads


def _first_nonfinite(rows: np.ndarray) -> Optional[int]:
    # Index of the first row holding a NaN or an infinity, or None.
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    return int(bad[0]) if bad.size else None


def train(
    examples: Sequence[LabelledExample], config: TrainConfig
) -> tuple[ModelParams, list[float]]:
    """Mini-batch gradient descent; returns params and per-epoch mean loss.

    ``examples`` is turned into columns once (:meth:`TrainingSet.of`).
    The hard loss only sees utterances with a majority label; the other
    objectives train on everything.  Each mini-batch makes one forward
    pass, one :func:`batch_loss` call and one backward pass.  A
    SingularityError from the Dirichlet term is re-raised with
    epoch/batch/utterance context, and so is a non-finite logit or loss, as
    a FloatingPointError.
    """
    if len(examples) == 0:
        raise ValueError("training set is empty")
    data = TrainingSet.of(examples)
    if config.loss.kind == LossKind.HARD:
        data = data.select(data.majority >= 0)
        if len(data) == 0:
            raise ValueError("hard loss needs at least one utterance with a majority label")

    features, counts, majority, uids = data.features, data.counts, data.majority, data.uids
    params = init(features.shape[1], config.hidden, counts.shape[1], config.seed)

    n = len(data)
    epoch_losses: list[float] = []
    # Divergence shows up as non-finite logits or losses, reported below with
    # the utterance; numpy's overflow warnings would only precede that.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.fisher_yates(n, rng.stream(config.seed, rng.DOMAIN_SHUFFLE, epoch))
            total = 0.0
            for start in range(0, n, config.batch_size):
                batch = sorted(order[start : start + config.batch_size])
                where = f"epoch {epoch}, batch {start // config.batch_size}, utterance"
                x = features[batch]
                z = forward(params, x)
                row = _first_nonfinite(z)
                if row is not None:
                    raise FloatingPointError(
                        f"{where} {uids[batch[row]]}: non-finite logits")
                try:
                    values, grad_z = batch_loss(config.loss, z, counts[batch], majority[batch])
                except SingularityError as err:
                    raise SingularityError(
                        f"{where} {uids[batch[err.row]]}: {err}") from err
                row = _first_nonfinite(np.column_stack([values, grad_z]))
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
