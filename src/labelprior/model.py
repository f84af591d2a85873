"""Small feed-forward classifier trained by mini-batch gradient descent.

The network is an MLP with ReLU hidden layers and linear output logits.
Each mini-batch takes one forward and one backward pass over its (B, d)
feature matrix.  Training is deterministic given the seed: initialisation
and the per-epoch Fisher-Yates shuffle are fixed, so reruns on the same
machine are byte-identical (the BLAS summation order may differ between
machines in the last digit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng
from .annotations import AgreementGroup
from .dirichlet import CategoricalDist, SingularityError
from .losses import LossConfig, LossKind, example_loss

__all__ = [
    "ModelParams",
    "TrainConfig",
    "LabelledExample",
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
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias dimension does not match weight matrix")
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
        if self.learning_rate < 0.0:
            raise ValueError("learning rate must not be negative")
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


def train(
    examples: Sequence[LabelledExample], config: TrainConfig
) -> tuple[ModelParams, list[float]]:
    """Mini-batch gradient descent; returns params and per-epoch mean loss.

    The hard loss only sees utterances with a majority label; the other
    objectives train on everything.  A SingularityError from the Dirichlet
    term is re-raised with epoch/batch/utterance context.
    """
    if len(examples) == 0:
        raise ValueError("training set is empty")
    if config.loss.kind == LossKind.HARD:
        examples = [e for e in examples if e.group != AgreementGroup.NONE]
        if len(examples) == 0:
            raise ValueError("hard loss needs at least one utterance with a majority label")

    features = np.stack([e.features for e in examples])
    params = init(features.shape[1], config.hidden, examples[0].soft.k, config.seed)

    n = len(examples)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = rng.fisher_yates(n, rng.stream(config.seed, rng.DOMAIN_SHUFFLE, epoch))
        total = 0.0
        for start in range(0, n, config.batch_size):
            batch = sorted(order[start : start + config.batch_size])
            x = features[batch]
            z = forward(params, x)
            grad_z = np.empty_like(z)
            for row, idx in enumerate(batch):
                ex = examples[idx]
                try:
                    loss = example_loss(config.loss, z[row], ex.labels, ex.soft, ex.majority)
                except SingularityError as err:
                    raise SingularityError(
                        f"epoch {epoch}, batch {start // config.batch_size}, "
                        f"utterance {ex.uid}: {err}"
                    ) from err
                total += loss.value
                grad_z[row] = loss.grad_z
            scale = config.learning_rate / len(batch)
            for i, (gw, gb) in enumerate(backward(params, x, grad_z)):
                params.weights[i] -= scale * gw
                params.biases[i] -= scale * gb
        epoch_losses.append(total / n)
    return params, epoch_losses
