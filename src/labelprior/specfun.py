"""Numerically stable log-gamma and digamma on the positive real axis.

Both functions accept a scalar or an ndarray and are pure, so they are safe
to call concurrently.  Each runs a fixed sequence of whole-array operations
over the flattened argument, with no loop whose length depends on the data.
Their relative error against mpmath is below 1e-15 on [1e-27, 1e-6] and
[1e6, 1e27], the two ends of the range the logit clamp admits for alpha and
alpha0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["log_gamma", "digamma"]

# Lanczos approximation, g = 7, 9 terms (Godfrey's coefficients).  Relative
# error of the reconstructed gamma is below 1e-13 on the positive axis.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Numerators and denominator offsets of the partial fractions c_i / (w + i).
_LANCZOS_NUM = np.array(_LANCZOS_COEF[1:])[:, None]
_LANCZOS_DEN = np.arange(1.0, len(_LANCZOS_COEF))[:, None]

_HALF_LOG_TWO_PI = 0.9189385332046727  # 0.5 * ln(2*pi)

# Asymptotic series for psi: B_{2j}/(2j), j = 1..7.  After shifting the
# argument to >= 10 the truncation error is below 1e-15.
_PSI_SHIFT = 10.0
_PSI_SERIES = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)
# Offsets i of the recurrence terms 1/(x + i), largest first: x > 0 needs at
# most 10 steps to reach _PSI_SHIFT.
_PSI_TERMS = np.arange(_PSI_SHIFT - 1.0, -1.0, -1.0)[:, None]


def _validated(x, name: str) -> np.ndarray:
    # The flattened arguments; a single min/max test passes every valid input.
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} requires finite arguments")
        raise ValueError(f"{name} is only defined for x > 0")
    return arr


def _unwrap(out: np.ndarray, x) -> float | np.ndarray:
    if np.ndim(x) == 0:
        return float(out[0])
    return out.reshape(np.shape(x))


def log_gamma(x):
    """ln Gamma(x) for x > 0.

    Uses the Lanczos approximation directly for x >= 0.5 and the reflection
    formula below that, which avoids evaluating Gamma itself and the
    overflow that would come with it.  One Lanczos pass serves both: it
    runs on 1 - x where x < 0.5.
    """
    arr = _validated(x, "log_gamma")
    small = arr < 0.5
    w = np.where(small, 1.0 - arr, arr) - 1.0
    # The 8 partial fractions as one divide, added row by row in coefficient
    # order: a sum over axis 0 would go pairwise where that axis is
    # contiguous (one argument) and round differently.
    series = np.full_like(w, _LANCZOS_COEF[0])
    for term in _LANCZOS_NUM / (w + _LANCZOS_DEN):
        series += term
    t = w + _LANCZOS_G + 0.5
    out = _HALF_LOG_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(series)
    if small.any():
        xs = arr[small]
        out[small] = np.log(np.pi / np.sin(np.pi * xs)) - out[small]
    return _unwrap(out, x)


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0.

    The argument is shifted upwards with the recurrence
    psi(x) = psi(x+1) - 1/x until it reaches 10, then the asymptotic
    series in 1/x^2 is applied.
    """
    arr = _validated(x, "digamma")
    steps = np.ceil(np.maximum(_PSI_SHIFT - arr, 0.0))
    # Recurrence term i is 1/(x + i) for i < steps and 0 beyond.  Adding the
    # rows from i = 9 down, smallest first, adds the dominant 1/x of a tiny
    # argument last, so it rounds only once; the leading zeros change no bit.
    # Row by row for the same reason as in log_gamma.
    shift = np.zeros_like(arr)
    for term in (steps > _PSI_TERMS) / (arr + _PSI_TERMS):
        shift += term
    y = arr + steps
    with np.errstate(over="ignore"):  # y * y is inf above 1.3e154, where r = 0 is right
        r = 1.0 / (y * y)
    series = np.zeros_like(y)
    for c in reversed(_PSI_SERIES):
        series = (c + series) * r
    out = np.log(y) - 0.5 / y - series - shift
    return _unwrap(out, x)
