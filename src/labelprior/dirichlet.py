"""Dirichlet prior over categorical distributions: construction from
logits, log-density and predictive mean."""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import sys
from typing import Optional

import numpy as np

from .specfun import log_gamma

__all__ = [
    "SingularityError",
    "CategoricalDist",
    "DirichletParams",
    "from_logits",
    "log_pdf",
    "predictive_mean",
]


# Training and prediction clamp logits to this range before exponentiation.  It
# keeps dpn's concentration parameters in a digamma-friendly range; the dpn-kl
# Polya term is exact across the whole clamp range.
LOGIT_CLAMP = 60.0


class SingularityError(ArithmeticError):
    """The Dirichlet density is unbounded at the requested point.

    ``row`` is the index of the offending row when a batch kernel raised it.
    """

    def __init__(self, message: str, row: Optional[int] = None) -> None:
        super().__init__(message)
        self.row = row


def _row(index: np.ndarray, batch: bool) -> str:
    # " in row i" for an (N, K) batch, nothing for a single (K,) row.
    return f" in row {int(index)}" if batch else ""


@dataclass(frozen=True, eq=False)
class CategoricalDist:
    """Probability vector over K classes (soft label, prediction or mean),
    or an (N, K) batch of them with every row checked.

    It is array-like: ``np.asarray`` of a dist, or of a list of dists,
    gives its probabilities.
    """

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim not in (1, 2) or p.shape[-1] < 1:
            raise ValueError("a categorical distribution must be a (K,) vector or (N, K) batch")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise ValueError("probabilities must be finite and non-negative")
        total = p.sum(axis=-1)
        off = np.flatnonzero(np.abs(total - 1.0) > 1e-9)
        if off.size:
            raise ValueError(f"probabilities sum to {float(np.ravel(total)[off[0]])!r}, "
                             f"not 1{_row(off[0], p.ndim == 2)}")
        object.__setattr__(self, "p", p)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # NumPy 1.x passes no ``copy`` and its np.array rejects copy=None.
        p = np.asarray(self.p, dtype=dtype)
        return p.copy() if copy else p

    @property
    def k(self) -> int:
        return self.p.shape[-1]


@dataclass(frozen=True, eq=False)
class DirichletParams:
    """Concentration vector alpha with its precision alpha0 = sum(alpha),
    or an (N, K) batch of them with an (N,) alpha0."""

    alpha: np.ndarray
    alpha0: float = field(init=False)

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if alpha.ndim not in (1, 2) or alpha.shape[-1] < 2:
            raise ValueError("alpha must be a (K,) vector or (N, K) batch with K >= 2")
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise ValueError("every concentration parameter must be finite and > 0")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha0", alpha.sum(axis=-1)[()])

    @property
    def k(self) -> int:
        return self.alpha.shape[-1]


def _check_eps2(eps2: float, k: int) -> None:
    """alpha0 of the clamped head over K classes is at most K*(e^LOGIT_CLAMP + eps2);
    an ``eps2`` that makes it overflow raises ValueError."""
    if not math.isfinite(k * (math.exp(LOGIT_CLAMP) + eps2)):
        raise ValueError(f"eps2 must keep K*(e^{LOGIT_CLAMP:g} + eps2) finite, so lie below "
                         f"{sys.float_info.max / k:.4g} for K = {k}, got {eps2:g}")


def _head(z: np.ndarray, eps2: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    # alpha = exp(clip(z)) + eps2 and d alpha / dz, which is 0 where the clamp holds.
    # It checks nothing: callers have passed eps2 through _check_eps2 for this K.
    e = np.exp(z.clip(-LOGIT_CLAMP, LOGIT_CLAMP))
    return e + eps2, e * (np.abs(z) < LOGIT_CLAMP)


def from_logits(z: np.ndarray, eps2: float = 0.0) -> DirichletParams:
    """alpha_k = exp(clip(z_k, +-LOGIT_CLAMP)) + eps2, the exponential output
    function of training, for a (K,) logit row or an (N, K) batch."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2):
        raise ValueError("logits must be a (K,) vector or (N, K) batch")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    if eps2 < 0.0:
        raise ValueError("eps2 must be non-negative")
    _check_eps2(eps2, z.shape[-1])
    return DirichletParams(_head(z, eps2)[0])


def _with_total(alpha: np.ndarray) -> np.ndarray:
    # alpha with alpha0 appended along the last axis, for log_gamma and digamma at once.
    return np.concatenate([alpha, alpha.sum(axis=-1, keepdims=True)], axis=-1)


def _log_density(alpha_total: np.ndarray, log_mu: np.ndarray,
                 zero: Optional[np.ndarray] = None, name_row=False) -> np.ndarray:
    """ln Dir(mu | alpha) along the last axis from ln mu, for log_pdf and the dpn loss,
    given alpha with alpha0 appended (``_with_total``).
    Where the mask ``zero`` marks mu_k = 0 (``log_mu`` 0 there) the term drops out if
    alpha_k == 1, the row is -inf if alpha_k > 1, and alpha_k < 1 raises a SingularityError
    naming the first such row in ``row`` (and in the message if ``name_row``)."""
    alpha = alpha_total[..., :-1]
    lg = log_gamma(alpha_total)
    value = lg[..., -1] - lg[..., :-1].sum(axis=-1) + np.sum((alpha - 1.0) * log_mu, axis=-1)
    if zero is None or not zero.any():
        return value
    bad = np.argwhere(zero & (alpha < 1.0))
    if bad.size:
        *row, idx = bad[0]
        a = float(np.broadcast_arrays(alpha, zero)[0][tuple(bad[0])])
        raise SingularityError(f"label component {idx} is 0 with alpha[{idx}] = {a!r} < 1"
                               f"{_row(row[0], name_row) if row else ''}",
                               row=int(row[0]) if row else None)
    return np.where(np.any(zero & (alpha > 1.0), axis=-1), -np.inf, value)


def log_pdf(params: DirichletParams, mu: CategoricalDist) -> float | np.ndarray:
    """ln Dir(mu | alpha), a float for one row and an (N,) array for a batch.

    ``params`` and ``mu`` are (K,) rows or (N, K) batches; a single row
    pairs with every row of the other.  Zero components of ``mu`` follow
    the rules of :func:`_log_density` (``row`` is None for a single row).
    """
    p = np.asarray(mu, dtype=np.float64)
    if p.ndim not in (1, 2):
        raise ValueError("mu must be a (K,) vector or (N, K) batch")
    if p.shape[-1] != params.k:
        raise ValueError("dimension mismatch between mu and alpha")
    zero = p == 0.0
    log_p = np.log(p, where=~zero, out=np.zeros(p.shape))
    return _log_density(_with_total(params.alpha), log_p, zero, name_row=True)[()]


def predictive_mean(params: DirichletParams) -> CategoricalDist:
    """Expected categorical distribution alpha / alpha0, row by row."""
    return CategoricalDist(params.alpha / np.expand_dims(params.alpha0, -1))
