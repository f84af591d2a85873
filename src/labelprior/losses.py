"""The four training objectives and their analytic gradients w.r.t. logits."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .annotations import soft_label
from .dirichlet import CategoricalDist, SingularityError, from_logits
from .specfun import digamma, log_gamma

__all__ = [
    "LossKind",
    "LossConfig",
    "LossValue",
    "LOGIT_CLAMP",
    "kl_loss",
    "hard_loss",
    "dpn_loss",
    "label_count_nll",
    "dpn_kl_loss",
    "example_loss",
]

# Logits are clamped to this symmetric range before exponentiation so the
# concentration parameters stay in a digamma-friendly range during training.
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
        if self.eps1 < 0.0:
            raise ValueError("eps1 must be non-negative")
        if self.eps2 < 0.0:
            raise ValueError("eps2 must be non-negative")
        if self.lam < 0.0:
            raise ValueError("lambda must be non-negative")
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


def kl_loss(target: CategoricalDist, z: np.ndarray) -> LossValue:
    """KL(target || softmax(z)) with the usual y - target gradient."""
    z = np.asarray(z, dtype=np.float64)
    t = target.p
    if t.shape != z.shape:
        raise ValueError("target and logits have different dimensions")
    shifted = z - z.max()
    log_y = shifted - np.log(np.sum(np.exp(shifted)))
    pos = t > 0.0
    value = float(np.sum(t[pos] * (np.log(t[pos]) - log_y[pos])))
    grad = np.exp(log_y) - t
    return LossValue(value, grad)


def hard_loss(label: np.ndarray, z: np.ndarray) -> LossValue:
    """kl_loss against a one-hot target (cross-entropy up to a constant)."""
    return kl_loss(CategoricalDist(np.asarray(label, dtype=np.float64)), z)


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
    m = len(labels)
    if m == 0:
        raise ValueError("dpn_loss requires at least one label")
    z = np.asarray(z, dtype=np.float64)
    zc = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
    params = from_logits(zc, eps2)
    alpha = params.alpha
    k = alpha.shape[0]
    if not 0.0 <= eps1 < 1.0 / (k - 1):
        raise ValueError(f"eps1 must lie in [0, 1/(K-1)) = [0, {1.0 / (k - 1):g})")

    # For one-hot rows, smoothing is the affine map eps1 + (1 - K*eps1)*label.
    label_matrix = np.asarray(labels, dtype=np.float64).reshape(m, k)
    mu = eps1 + (1.0 - k * eps1) * label_matrix

    zero = mu == 0.0
    log_mu = np.zeros_like(mu)
    np.log(mu, where=~zero, out=log_mu)
    if np.any(zero):
        bad = zero & (alpha < 1.0)
        if np.any(bad):
            idx = int(np.flatnonzero(np.any(bad, axis=0))[0])
            raise SingularityError(
                f"label component {idx} is 0 with alpha[{idx}] = {float(alpha[idx])!r} < 1"
            )
        if np.any(zero & (alpha > 1.0)):
            # Density limit 0 at the boundary: the loss diverges to +inf.
            unclamped = np.abs(z) < LOGIT_CLAMP
            grad_alpha = -(digamma(params.alpha0) - digamma(alpha) + log_mu.mean(axis=0))
            return LossValue(float("inf"), grad_alpha * np.exp(zc) * unclamped)

    # Shared normaliser plus the per-label (alpha - 1) . ln mu terms.
    lg = log_gamma(np.concatenate([alpha, [params.alpha0]]))
    log_norm = float(lg[-1]) - float(np.sum(lg[:-1]))
    mean_log_mu = log_mu.mean(axis=0)
    value = -(log_norm + float(np.dot(alpha - 1.0, mean_log_mu)))

    dg = digamma(np.concatenate([alpha, [params.alpha0]]))
    grad_alpha = -(dg[-1] - dg[:-1] + mean_log_mu)
    unclamped = np.abs(z) < LOGIT_CLAMP
    grad_z = grad_alpha * np.exp(zc) * unclamped
    return LossValue(value, grad_z)


def label_count_nll(labels: Sequence[np.ndarray], z: np.ndarray) -> LossValue:
    """Negative marginal log-likelihood of hard labels under the Dirichlet.

    Integrating the categorical likelihood of the observed one-hot labels
    over the predicted Dirichlet gives the Polya sequence probability of
    their count vector N:

        ln p = ln G(a0) - ln G(a0 + M) + sum_k [ln G(a_k + N_k) - ln G(a_k)]

    normalised per label.  Unlike the point-mass density, this is finite
    and bounded for one-hot labels with no smoothing constants, so the
    interpolated objective can train on raw labels.
    """
    m = len(labels)
    if m == 0:
        raise ValueError("label_count_nll requires at least one label")
    z = np.asarray(z, dtype=np.float64)
    zc = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
    alpha = np.exp(zc)  # clamped, so always positive and finite
    alpha0 = float(alpha.sum())
    counts = np.asarray(labels, dtype=np.float64).reshape(m, -1).sum(axis=0)

    lg = log_gamma(np.concatenate([alpha, alpha + counts, [alpha0, alpha0 + m]]))
    k = alpha.shape[0]
    value = -float(lg[2 * k] - lg[2 * k + 1] + np.sum(lg[k : 2 * k] - lg[:k])) / m
    dg = digamma(np.concatenate([alpha, alpha + counts, [alpha0, alpha0 + m]]))
    grad_alpha = -(dg[2 * k] - dg[2 * k + 1] + dg[k : 2 * k] - dg[:k]) / m
    unclamped = np.abs(z) < LOGIT_CLAMP
    grad_z = grad_alpha * alpha * unclamped
    return LossValue(value, grad_z)


def dpn_kl_loss(
    labels: Sequence[np.ndarray],
    z: np.ndarray,
    config: LossConfig,
    soft: Optional[CategoricalDist] = None,
) -> LossValue:
    """Marginal Dirichlet label likelihood plus lambda times the soft KL.

    Both smoothing constants are zero here: the marginal form needs
    neither, which is what makes the interpolated loss stable on raw
    one-hot labels.  ``soft`` may pass a precomputed soft label.
    """
    dirichlet_term = label_count_nll(labels, z)
    kl = kl_loss(soft if soft is not None else soft_label(labels), z)
    return LossValue(
        dirichlet_term.value + config.lam * kl.value,
        dirichlet_term.grad_z + config.lam * kl.grad_z,
    )


def example_loss(
    config: LossConfig,
    z: np.ndarray,
    labels: Sequence[np.ndarray],
    soft: CategoricalDist,
    majority: Optional[int],
) -> LossValue:
    """Dispatch one training example to the configured objective."""
    if config.kind == LossKind.HARD:
        if majority is None:
            raise ValueError("hard loss is undefined without a majority label")
        label = np.zeros(z.shape[0])
        label[majority] = 1.0
        return hard_loss(label, z)
    if config.kind == LossKind.SOFT_KL:
        return kl_loss(soft, z)
    if config.kind == LossKind.DPN:
        return dpn_loss(labels, z, config.eps1, config.eps2)
    if config.kind == LossKind.DPN_KL:
        return dpn_kl_loss(labels, z, config, soft=soft)
    raise ValueError(f"unknown loss kind: {config.kind!r}")
