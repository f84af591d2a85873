"""The four training objectives and their analytic gradients w.r.t. logits.

:func:`batch_loss` takes a mini-batch of (B, K) logits and the (B, K) label
counts N (N_k labels of class k, M = sum_k N_k labels in all), and returns
(B,) values and (B, K) logit gradients.  It is the checks of both arrays,
then :meth:`LabelTerms.of`, which derives the terms that depend on the
labels alone, then :func:`terms_loss`, the kernels that read the logits:
the one implementation of every objective.  A training loop builds the
terms of its whole corpus once and calls :func:`terms_loss` per batch.
Each objective reads the labels only through N and M:

- hard: KL to the one-hot target N/M of a row whose labels are all of one
  class, as vote-and-replace leaves every row with a majority;
- soft: KL to the soft label N/M;
- dpn: mean negative Dirichlet log-density of the eps1-smoothed labels,
  which is minus the density of :mod:`dirichlet` at their mean log-label
  (N/M) ln(1-(K-1)eps1) + (1-N/M) ln eps1;
- dpn-kl: the Polya (Dirichlet-multinomial) term plus lambda times the
  soft KL.  Integrating the categorical likelihood of the labels over the
  predicted Dirichlet gives the Polya probability of their count vector,
  ln p = ln G(a0) - ln G(a0 + M) + sum_k [ln G(a_k + N_k) - ln G(a_k)],
  taken per label.  Unlike the point-mass density it is finite and bounded
  for one-hot labels with no smoothing constant.  The counts are integers,
  so each log-gamma difference is a sum of logs over a rising factorial,
  exact at any logit inside the clamp (no special function).  The kernel
  reads one entry per label, in the order of a sum over (B, K, max M) padded
  steps: its values keep that sum's bits, and so do its gradients while a
  batch's M is below 8 (numpy sums 8 or more steps pairwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math
from typing import Optional, Sequence

import numpy as np

from .dirichlet import LOGIT_CLAMP, CategoricalDist, _check_eps2, _head, _log_density, _with_total
from .specfun import digamma
# Unused here, but bench/test_harness.py checks that tracing restores losses.log_gamma.
from .specfun import log_gamma  # noqa: F401

__all__ = [
    "LossKind",
    "LossConfig",
    "LOGIT_CLAMP",
    "LabelTerms",
    "batch_loss",
    "example_loss",
    "terms_loss",
]


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
        if not isinstance(self.kind, LossKind):
            raise ValueError(f"unknown loss kind: {self.kind!r}")
        for name, field in (("eps1", "eps1"), ("eps2", "eps2"), ("lambda", "lam")):
            value = getattr(self, field)
            if isinstance(value, (bool, np.bool_)) or not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
            object.__setattr__(self, field, float(value))  # as a checkpoint reads it back
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
            return cls(kind, lam=20.0)
        return cls(kind)


@dataclass(eq=False, slots=True)
class LabelTerms:
    """The label-only terms of one objective on the (B, K) label counts of
    B rows: ``columns``, the (B,) and (B, K) arrays its kernel reads, in
    the kernel's argument order:

    - hard, soft, and dpn-kl at lambda > 0: N/M and its log (0 where N_k = 0);
    - dpn: the mean log of the eps1-smoothed labels, and at eps1 = 0 the
      mask of their zero components.

    dpn-kl's Polya term reads ``labels``: the (B + 1,) offsets of each row's
    labels, then per label its class, its step j in that class and its step
    in its row (int32), row by row and in class order within a row.
    :meth:`of` builds them, with every check :func:`batch_loss` makes of
    the counts and of dpn's eps2, once for a whole training corpus.
    ``terms[rows]`` gathers them at the rows of an index array or a slice
    (views, for consecutive rows), so a training loop gathers its epoch's
    rows once and slices each mini-batch out of that for :func:`terms_loss`.
    """

    config: LossConfig
    columns: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...] = ()

    @classmethod
    def of(cls, config: LossConfig, counts: np.ndarray) -> "LabelTerms":
        """The terms of ``config``'s objective on (B, K) label counts, for
        hard all of one class on each row; ValueError with
        :func:`batch_loss`'s message on counts or constants it would refuse."""
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 2 or counts.shape[0] == 0:
            raise ValueError("label counts must be a (B, K) array with at least one row")
        if not np.isfinite(counts).all():
            raise ValueError("label counts must be finite")
        with np.errstate(over="ignore"):  # finite counts may overflow their row total
            if not np.isfinite(m := counts.sum(axis=1)).all():
                raise ValueError("label counts must have a finite total on every row")
        if counts.min() < 0.0 or m.min() <= 0.0:
            raise ValueError("label counts must be non-negative with at least one label per row")
        kind = config.kind
        if kind == LossKind.HARD and (counts.max(axis=1) < m).any():
            raise ValueError("hard loss needs every row's labels in its majority class")
        if kind == LossKind.DPN:
            return cls(config, _dpn_terms(counts, m, config))
        target = counts / m[:, None]
        log_target = np.zeros_like(target)
        np.log(target, where=target > 0.0, out=log_target)
        if kind != LossKind.DPN_KL:
            return cls(config, (target, log_target))
        if (counts != np.floor(counts)).any():
            raise ValueError("the Polya term needs integer label counts")
        if m.max() >= 2**31:  # its layout's steps are int32
            raise ValueError("the Polya term needs fewer than 2**31 labels on every row")
        n, m = counts.ravel().astype(np.intp), m.astype(np.intp)  # N_k and M, row by row
        label_class = np.tile(np.arange(counts.shape[1], dtype=np.int32), len(m)).repeat(n)
        labels = (np.concatenate(([0], np.cumsum(m))), label_class, _steps(n), _steps(m))
        return cls(config, (target, log_target) if config.lam else (), labels)

    def __getitem__(self, rows) -> "LabelTerms":
        columns = tuple([column[rows] for column in self.columns])
        if not self.labels:
            return LabelTerms(self.config, columns)
        offsets, *per_label = self.labels
        if isinstance(rows, slice) and (span := range(len(offsets) - 1)[rows]).step == 1:
            offsets = offsets[span.start : max(span.start, span.stop) + 1]
            at = slice(offsets[0], offsets[-1])  # consecutive rows: views
        else:
            lengths, starts = np.diff(offsets)[rows], offsets[:-1][rows]
            at = _steps(lengths) + np.repeat(starts, lengths)
            offsets = np.concatenate(([0], np.cumsum(lengths)))
        return LabelTerms(self.config, columns, (offsets - offsets[0], *[c[at] for c in per_label]))


def _steps(lengths: np.ndarray) -> np.ndarray:
    # The int32 step of each entry within its run, for runs of these lengths end to end.
    steps = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return steps.astype(np.int32)


def _dpn_terms(counts: np.ndarray, m: np.ndarray, config: LossConfig) -> tuple[np.ndarray, ...]:
    k, eps1 = counts.shape[1], config.eps1
    if k < 2:  # a Dirichlet needs two classes, as DirichletParams says
        raise ValueError(f"the dpn loss needs K >= 2 classes, got K = {k}")
    if not 0.0 <= eps1 < 1.0 / (k - 1):
        raise ValueError(f"eps1 must lie in [0, 1/(K-1)) = [0, {1.0 / (k - 1):g})")
    _check_eps2(config.eps2, k)  # the one check of the eps2 that _dpn's head adds
    # Smoothing maps a one-hot label to eps1 + (1 - K*eps1)*label, so N_k/M of a row's
    # labels have ln(1 - (K-1)*eps1) at class k and the rest ln eps1 (mu_k = 0, the zero
    # mask, at eps1 = 0).  The density is linear in ln mu: their mean is one density.
    cold = (m[:, None] - counts) / m[:, None]  # share of labels that are 0 at k
    mean_log_mu = counts / m[:, None] * math.log(eps1 + (1.0 - k * eps1))
    if eps1 > 0.0:
        mean_log_mu += cold * math.log(eps1)
        return (mean_log_mu,)
    return mean_log_mu, cold > 0.0


def _kl(z: np.ndarray, target: np.ndarray, log_target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # KL(target || softmax(z)) per row, with the usual y - target gradient.
    shifted = z - z.max(axis=1, keepdims=True)
    log_y = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return (target * (log_target - log_y)).sum(axis=1), np.exp(log_y) - target


def _dpn(
    z: np.ndarray, eps2: float, mean_log_mu: np.ndarray, zero: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    alpha, d_alpha = _head(z, eps2)
    alpha_total = _with_total(alpha)  # for both log_gamma and digamma
    value = -_log_density(alpha_total, mean_log_mu, zero)
    dg = digamma(alpha_total)
    return value, (dg[:, :-1] - dg[:, -1:] - mean_log_mu) * d_alpha


def _polya(z: np.ndarray, offsets: np.ndarray, label_class: np.ndarray, own_step: np.ndarray,
           pool_step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ln p(N) = sum_k sum_{j<N_k} ln(a_k + j) - sum_{j<M} ln(a0 + j), per label.
    alpha, d_alpha = _head(z)  # clamped, so always positive and finite
    (b, k), m = z.shape, offsets[1:] - offsets[:-1]
    row = np.arange(b).repeat(m)
    own = row * k + label_class  # flat (row, class) index
    alpha_own = alpha.ravel()[own] + own_step
    alpha0_pool = alpha.sum(axis=1)[row] + pool_step
    # Paired sides keep each log near 0 at large alpha, where two sums of large logs cancel.
    log_p = np.bincount(row, weights=np.log(alpha_own / alpha0_pool), minlength=b)
    grad_alpha = (np.bincount(own, weights=1.0 / alpha_own, minlength=b * k).reshape(b, k)
                  - np.bincount(row, weights=1.0 / alpha0_pool, minlength=b)[:, None])
    return -log_p / m, -grad_alpha / m[:, None] * d_alpha


def terms_loss(terms: LabelTerms, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values (B,) and logit gradients (B, K) of the objective of the B rows
    of ``terms``: its kernel on ``z`` and the terms' arrays, bit for bit
    :func:`batch_loss` on their counts.

    It checks nothing (:meth:`LabelTerms.of` checked the counts and eps2):
    ``z`` must hold finite (B, K) float64 logits.  A SingularityError from
    dpn with eps1 = 0 names the first singular row in its ``row`` attribute.
    """
    config, columns = terms.config, terms.columns
    if config.kind == LossKind.DPN:
        return _dpn(z, config.eps2, *columns)
    if config.kind != LossKind.DPN_KL:
        return _kl(z, *columns)
    value, grad = _polya(z, *terms.labels)
    if config.lam:
        kl_value, kl_grad = _kl(z, *columns)
        value, grad = value + config.lam * kl_value, grad + config.lam * kl_grad
    return value, grad


def batch_loss(
    config: LossConfig, z: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values (B,) and logit gradients (B, K) of one objective on a batch.

    ``z`` holds the (B, K) logits and ``counts`` the (B, K) label counts,
    for hard all of one class on each row.  It checks the logits, then is
    :meth:`LabelTerms.of` (the checks of the counts and eps2) followed by
    :func:`terms_loss`, so a training loop that builds the terms of its
    corpus once gets the same bits.  A SingularityError from dpn with
    eps1 = 0 names the first singular row in its ``row`` attribute.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or np.shape(counts) != z.shape:
        raise ValueError("logits and label counts must be (B, K) arrays of one shape")
    if z.shape[0] == 0:
        raise ValueError("the batch has no rows")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    return terms_loss(LabelTerms.of(config, counts), z)


def example_loss(
    config: LossConfig,
    z: np.ndarray,
    labels: Sequence[np.ndarray],
    soft: CategoricalDist,
    majority: Optional[int],
) -> tuple[float, np.ndarray]:
    """Value and (K,) logit gradient of one training example under the
    configured objective: :func:`batch_loss` on a batch of one.

    ``soft`` must be the mean of ``labels``; ``majority`` is required by
    the hard loss only, which trains on one label of that class.
    """
    if len(labels) == 0:
        raise ValueError("at least one label is required")
    counts = np.asarray(labels, dtype=np.float64).reshape(len(labels), -1).sum(axis=0)
    if np.abs(soft.p - counts / len(labels)).max() > 1e-9:
        raise ValueError("the soft label is not the mean of the labels")
    if config.kind == LossKind.HARD:
        if majority is None or not 0 <= majority < len(counts):
            raise ValueError("hard loss is undefined without a majority label")
        counts = (np.arange(len(counts)) == majority).astype(np.float64)
    values, grad = batch_loss(config, np.asarray(z)[None], counts[None])
    return float(values[0]), grad[0]
