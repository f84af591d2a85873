"""Dirichlet prior over categorical distributions: construction from
logits, log-density and predictive mean."""

from __future__ import annotations

from dataclasses import dataclass
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


class SingularityError(ArithmeticError):
    """The Dirichlet density is unbounded at the requested point.

    ``row`` is the index of the offending row when a batch kernel raised it.
    """

    def __init__(self, message: str, row: Optional[int] = None) -> None:
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False)
class CategoricalDist:
    """Probability vector over K classes (soft label, prediction or mean)."""

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.shape[0] < 1:
            raise ValueError("a categorical distribution must be a 1-d vector")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise ValueError("probabilities must be finite and non-negative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {float(p.sum())!r}, not 1")
        object.__setattr__(self, "p", p)

    @property
    def k(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True, eq=False)
class DirichletParams:
    """Concentration vector alpha with its precision alpha0 = sum(alpha)."""

    alpha: np.ndarray
    alpha0: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if alpha.ndim != 1 or alpha.shape[0] < 2:
            raise ValueError("alpha must be a 1-d vector of length >= 2")
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise ValueError("every concentration parameter must be finite and > 0")
        object.__setattr__(self, "alpha", alpha)
        total = float(alpha.sum())
        if self.alpha0 is None:
            object.__setattr__(self, "alpha0", total)
        elif abs(self.alpha0 - total) > 1e-12 * max(1.0, total):
            raise ValueError("alpha0 is inconsistent with sum(alpha)")

    @property
    def k(self) -> int:
        return self.alpha.shape[0]


def from_logits(z: np.ndarray, eps2: float = 0.0) -> DirichletParams:
    """alpha_k = exp(z_k) + eps2 under the exponential output function."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    if eps2 < 0.0:
        raise ValueError("eps2 must be non-negative")
    too_big = np.flatnonzero(z > 700.0)
    if too_big.size:
        raise OverflowError(
            f"logit {z[too_big[0]]!r} at index {int(too_big[0])} overflows exp()"
        )
    return DirichletParams(np.exp(z) + eps2)


def log_pdf(params: DirichletParams, mu: CategoricalDist) -> float:
    """ln Dir(mu | alpha).

    Zero components of ``mu`` are allowed only where the density stays
    defined: the term is dropped when alpha_k == 1, the limit -inf is
    returned when alpha_k > 1, and a SingularityError is raised when
    alpha_k < 1 (the density diverges there).
    """
    alpha = params.alpha
    p = mu.p
    if p.shape[0] != alpha.shape[0]:
        raise ValueError("dimension mismatch between mu and alpha")
    zero = p == 0.0
    if np.any(zero):
        bad = zero & (alpha < 1.0)
        if np.any(bad):
            idx = int(np.flatnonzero(bad)[0])
            raise SingularityError(
                f"mu[{idx}] = 0 with alpha[{idx}] = {float(alpha[idx])!r} < 1"
            )
        if np.any(zero & (alpha > 1.0)):
            return float("-inf")
    active = ~zero
    log_norm = log_gamma(params.alpha0) - float(np.sum(log_gamma(alpha)))
    return log_norm + float(np.sum((alpha[active] - 1.0) * np.log(p[active])))


def predictive_mean(params: DirichletParams) -> CategoricalDist:
    """Expected categorical distribution alpha / alpha0."""
    return CategoricalDist(params.alpha / params.alpha0)
