"""The four training objectives and their analytic gradients w.r.t. logits.

:func:`batch_loss` is the one implementation of every objective.  It takes
a mini-batch of (B, K) logits, the (B, K) label counts N (N_k labels of
class k, M = sum_k N_k labels in all) and the (B,) majority classes, and
returns (B,) values and (B, K) logit gradients.  Each objective reads the
labels only through N, M and the majority:

- hard: KL to a one-hot target at the majority class;
- soft: KL to the soft label N/M;
- dpn: mean negative Dirichlet log-density of the eps1-smoothed labels,
  whose mean log-label is (N/M) ln(1-(K-1)eps1) + (1-N/M) ln eps1 (one
  log-gamma and one digamma call per batch);
- dpn-kl: the Polya (Dirichlet-multinomial) term as exact sums over
  rising factorials, plus lambda times the soft KL (no special function).

The per-example functions keep their label-list signatures and run the
kernel on a batch of one, so there is one implementation per objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math
from typing import Optional, Sequence

import numpy as np

from .dirichlet import CategoricalDist, SingularityError
from .specfun import digamma, log_gamma

__all__ = [
    "LossKind",
    "LossConfig",
    "LossValue",
    "LOGIT_CLAMP",
    "batch_loss",
    "kl_loss",
    "hard_loss",
    "dpn_loss",
    "label_count_nll",
    "dpn_kl_loss",
    "example_loss",
]

# Logits are clamped to this symmetric range before exponentiation.  It keeps
# dpn's concentration parameters in a digamma-friendly range; the dpn-kl
# Polya term is exact across the whole clamp range.
LOGIT_CLAMP = 60.0


class LossKind(Enum):
    HARD = "hard"
    SOFT_KL = "soft"
    DPN = "dpn"
    DPN_KL = "dpn-kl"


@dataclass(frozen=True)
class LossConfig:
    """Loss selection plus its smoothing/interpolation constants."""

    kind: LossKind
    eps1: float = 0.0
    eps2: float = 0.0
    lam: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("eps1", self.eps1), ("eps2", self.eps2), ("lambda", self.lam)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        # A constant the objective ignores would still reach eval (eps2
        # shifts the predictive mean), so train and eval would disagree.
        if self.kind != LossKind.DPN and (self.eps1 or self.eps2):
            raise ValueError(f"eps1 and eps2 apply only to the dpn loss, not {self.kind.value}")
        if self.kind != LossKind.DPN_KL and self.lam:
            raise ValueError(f"lambda applies only to the dpn-kl loss, not {self.kind.value}")

    @classmethod
    def default_for(cls, kind: LossKind) -> "LossConfig":
        """Stock settings: dpn uses eps1=1e-2/eps2=1e-8, dpn-kl lambda=20."""
        if kind == LossKind.DPN:
            return cls(kind, eps1=1e-2, eps2=1e-8)
        if kind == LossKind.DPN_KL:
            return cls(kind, eps1=0.0, eps2=0.0, lam=20.0)
        return cls(kind)




@dataclass(frozen=True, eq=False)
class LossValue:
    value: float
    grad_z: np.ndarray


def _kl(target: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # KL(target || softmax(z)) per row, with the usual y - target gradient.
    shifted = z - z.max(axis=1, keepdims=True)
    log_y = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_t = np.zeros_like(target)
    np.log(target, where=target > 0.0, out=log_t)
    return np.sum(target * (log_t - log_y), axis=1), np.exp(log_y) - target


def _dpn(
    z: np.ndarray, counts: np.ndarray, m: np.ndarray, eps1: float, eps2: float
) -> tuple[np.ndarray, np.ndarray]:
    k = z.shape[1]
    if not 0.0 <= eps1 < 1.0 / (k - 1):
        raise ValueError(f"eps1 must lie in [0, 1/(K-1)) = [0, {1.0 / (k - 1):g})")
    zc = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
    e = np.exp(zc)
    alpha = e + eps2

    # Smoothing maps a one-hot label to eps1 + (1 - K*eps1)*label, so N_k/M
    # of a row's labels have ln(1 - (K-1)*eps1) at class k and the rest ln eps1.
    cold = (m[:, None] - counts) / m[:, None]  # share of labels that are 0 at k
    mean_log_mu = counts / m[:, None] * math.log(eps1 + (1.0 - k * eps1))
    if eps1 > 0.0:
        mean_log_mu += cold * math.log(eps1)
        diverges = np.zeros(z.shape[0], dtype=bool)
    else:
        # A zero label component drops out where alpha_k == 1, is a
        # singularity where alpha_k < 1 and sends the loss to +inf (density
        # limit 0) where alpha_k > 1.
        zero = cold > 0.0
        singular = zero & (alpha < 1.0)
        rows = np.flatnonzero(np.any(singular, axis=1))
        if rows.size:
            row = int(rows[0])
            idx = int(np.flatnonzero(singular[row])[0])
            a = float(alpha[row, idx])
            raise SingularityError(
                f"label component {idx} is 0 with alpha[{idx}] = {a!r} < 1", row=row)
        diverges = np.any(zero & (alpha > 1.0), axis=1)

    # Shared normaliser plus the (alpha - 1) . mean ln mu terms.
    both = np.concatenate([alpha, alpha.sum(axis=1, keepdims=True)], axis=1)
    lg = log_gamma(both)
    value = -(lg[:, -1] - lg[:, :-1].sum(axis=1) + np.sum((alpha - 1.0) * mean_log_mu, axis=1))
    dg = digamma(both)
    grad_alpha = -(dg[:, -1:] - dg[:, :-1] + mean_log_mu)
    unclamped = np.abs(z) < LOGIT_CLAMP
    return np.where(diverges, np.inf, value), grad_alpha * e * unclamped


def _polya(
    z: np.ndarray, counts: np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # ln p(N) = sum_k sum_{j<N_k} ln(a_k + j) - sum_{j<M} ln(a0 + j), per label.
    zc = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
    alpha = np.exp(zc)  # clamped, so always positive and finite
    alpha0 = alpha.sum(axis=1)
    steps = np.arange(int(m.max()))
    own = steps < counts[:, :, None]  # class k has a (j+1)-th label
    pool = steps < m[:, None]  # the row has a (j+1)-th label
    # Boolean indexing is row-major, so both sides list each row's M terms
    # together; pairing them keeps every log near 0 when alpha is large,
    # where a difference of two sums of large logs would cancel.
    ratio = (alpha[:, :, None] + steps)[own] / (alpha0[:, None] + steps)[pool]
    rows = np.repeat(np.arange(z.shape[0]), m.astype(np.int64))
    log_p = np.bincount(rows, weights=np.log(ratio), minlength=z.shape[0])
    grad_alpha = (np.sum(own / (alpha[:, :, None] + steps), axis=2)
                  - np.sum(pool / (alpha0[:, None] + steps), axis=1)[:, None])
    unclamped = np.abs(z) < LOGIT_CLAMP
    return -log_p / m, -grad_alpha / m[:, None] * alpha * unclamped


def batch_loss(
    config: LossConfig, z: np.ndarray, counts: np.ndarray, majority: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values (B,) and logit gradients (B, K) of one objective on a batch.

    ``z`` holds the (B, K) logits, ``counts`` the (B, K) label counts and
    ``majority`` the (B,) majority classes (-1 where there is none; only the
    hard loss reads them).  A SingularityError from dpn with eps1 = 0 names
    the first singular row in its ``row`` attribute.
    """
    z = np.asarray(z, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if z.ndim != 2 or counts.shape != z.shape:
        raise ValueError("logits and label counts must be (B, K) arrays of one shape")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    m = counts.sum(axis=1)
    if counts.min() < 0.0 or m.min() <= 0.0:
        raise ValueError("label counts must be non-negative with at least one label per row")
    kind = config.kind
    if kind == LossKind.HARD:
        majority = np.asarray(majority)
        if majority.shape != m.shape or majority.min() < 0 or majority.max() >= z.shape[1]:
            raise ValueError("hard loss is undefined without a majority label")
        target = np.zeros_like(z)
        target[np.arange(z.shape[0]), majority] = 1.0
        return _kl(target, z)
    if kind == LossKind.SOFT_KL:
        return _kl(counts / m[:, None], z)
    if kind == LossKind.DPN:
        return _dpn(z, counts, m, config.eps1, config.eps2)
    if kind == LossKind.DPN_KL:
        if (counts != np.floor(counts)).any():
            raise ValueError("the Polya term needs integer label counts")
        value, grad = _polya(z, counts, m)
        if config.lam:
            kl_value, kl_grad = _kl(counts / m[:, None], z)
            value, grad = value + config.lam * kl_value, grad + config.lam * kl_grad
        return value, grad
    raise ValueError(f"unknown loss kind: {kind!r}")


_HARD = LossConfig(LossKind.HARD)
_SOFT = LossConfig(LossKind.SOFT_KL)
_POLYA = LossConfig(LossKind.DPN_KL)  # lambda = 0: the Polya term alone


def _one(
    config: LossConfig, z: np.ndarray, counts: np.ndarray, majority: int = -1
) -> LossValue:
    # One example through the kernel as a batch of one.
    values, grad = batch_loss(
        config,
        np.asarray(z, dtype=np.float64)[None],
        np.asarray(counts, dtype=np.float64)[None],
        np.array([majority]),
    )
    return LossValue(float(values[0]), grad[0])


def _counts(
    labels: Sequence[np.ndarray], soft: Optional[CategoricalDist] = None
) -> np.ndarray:
    # The count vector of a list of one-hot labels; a given soft label must
    # be their mean, since the kernel derives the soft label from the counts.
    if len(labels) == 0:
        raise ValueError("at least one label is required")
    counts = np.asarray(labels, dtype=np.float64).reshape(len(labels), -1).sum(axis=0)
    if soft is not None and np.abs(soft.p - counts / len(labels)).max() > 1e-9:
        raise ValueError("the soft label is not the mean of the labels")
    return counts


def kl_loss(target: CategoricalDist, z: np.ndarray) -> LossValue:
    """KL(target || softmax(z)) with the usual y - target gradient."""
    z = np.asarray(z, dtype=np.float64)
    if target.p.shape != z.shape:
        raise ValueError("target and logits have different dimensions")
    return _one(_SOFT, z, target.p)


def hard_loss(label: np.ndarray, z: np.ndarray) -> LossValue:
    """kl_loss against a one-hot target (cross-entropy up to a constant)."""
    p = CategoricalDist(np.asarray(label, dtype=np.float64)).p
    if np.count_nonzero(p) != 1:
        raise ValueError("hard_loss needs a one-hot label")
    return _one(_HARD, z, p, int(np.argmax(p)))


def dpn_loss(
    labels: Sequence[np.ndarray],
    z: np.ndarray,
    eps1: float,
    eps2: float,
) -> LossValue:
    """Mean negative Dirichlet log-likelihood of the smoothed labels.

    The concentration parameters come from the clamped logits via the
    exponential output function; each one-hot label is smoothed with eps1
    before its log-density is taken.  With eps1 = 0 a zero label component
    hitting alpha_k < 1 raises SingularityError (the density diverges
    there); this is why the smoothing constant exists.
    """
    return _one(LossConfig(LossKind.DPN, eps1=eps1, eps2=eps2), z, _counts(labels))


def label_count_nll(labels: Sequence[np.ndarray], z: np.ndarray) -> LossValue:
    """Negative marginal log-likelihood of hard labels under the Dirichlet.

    Integrating the categorical likelihood of the observed one-hot labels
    over the predicted Dirichlet gives the Polya sequence probability of
    their count vector N:

        ln p = ln G(a0) - ln G(a0 + M) + sum_k [ln G(a_k + N_k) - ln G(a_k)]

    normalised per label.  The counts are integers, so each log-gamma
    difference is a sum of logs over a rising factorial, which stays exact
    at any logit inside the clamp.  Unlike the point-mass density, this is
    finite and bounded for one-hot labels with no smoothing constants, so
    the interpolated objective can train on raw labels.
    """
    return _one(_POLYA, z, _counts(labels))


def dpn_kl_loss(
    labels: Sequence[np.ndarray],
    z: np.ndarray,
    config: LossConfig,
    soft: Optional[CategoricalDist] = None,
) -> LossValue:
    """Marginal Dirichlet label likelihood plus lambda times the soft KL.

    Both smoothing constants are zero here: the marginal form needs
    neither, which is what makes the interpolated loss stable on raw
    one-hot labels.  ``soft``, when given, must be the mean of ``labels``.
    """
    return _one(LossConfig(LossKind.DPN_KL, lam=config.lam), z, _counts(labels, soft))


def example_loss(
    config: LossConfig,
    z: np.ndarray,
    labels: Sequence[np.ndarray],
    soft: CategoricalDist,
    majority: Optional[int],
) -> LossValue:
    """One training example under the configured objective.

    ``soft`` must be the mean of ``labels``; ``majority`` is required by
    the hard loss only.
    """
    return _one(config, z, _counts(labels, soft), -1 if majority is None else majority)
