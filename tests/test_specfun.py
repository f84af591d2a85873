"""Tests for the special functions against closed forms, an
arbitrary-precision oracle and the loop implementations they replaced."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from labelprior import specfun
from labelprior.specfun import digamma, log_gamma

EULER_GAMMA = 0.5772156649015329

mp.mp.dps = 50


class TestLogGamma:
    def test_gamma_one_is_zero(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_factorial_point(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)

    def test_half_point(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-9)

    def test_rejects_bad_arguments(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                log_gamma(bad)

    def test_against_high_precision_reference(self):
        rng = np.random.default_rng(42)
        xs = np.concatenate(
            [10.0 ** rng.uniform(-6, 2, 200), rng.uniform(0.5, 100.0, 200)]
        )
        for x in xs:
            ref = float(mp.loggamma(mp.mpf(float(x))))
            assert log_gamma(float(x)) == pytest.approx(ref, abs=1e-12)

    def test_large_arguments_relative(self):
        # Above ~1e3 the value itself outgrows an absolute 1e-12 budget in
        # float64, so the check switches to relative error.
        rng = np.random.default_rng(7)
        for x in 10.0 ** rng.uniform(2, 6, 200):
            ref = float(mp.loggamma(mp.mpf(float(x))))
            assert log_gamma(float(x)) == pytest.approx(ref, rel=1e-13)

    def test_recurrence(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 100.0, 1000) + 1e-9
        err = np.abs(log_gamma(x + 1.0) - log_gamma(x) - np.log(x))
        assert err.max() <= 1e-10

    def test_vectorised_matches_scalar(self):
        xs = np.array([0.1, 0.5, 1.0, 3.7, 42.0])
        vec = log_gamma(xs)
        assert vec.shape == xs.shape
        for i, x in enumerate(xs):
            assert vec[i] == log_gamma(float(x))


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-10)

    def test_at_two(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-10)

    def test_at_half(self):
        expected = -EULER_GAMMA - 2.0 * math.log(2.0)
        assert digamma(0.5) == pytest.approx(expected, abs=1e-10)

    def test_rejects_bad_arguments(self):
        for bad in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                digamma(bad)

    def test_against_high_precision_reference(self):
        rng = np.random.default_rng(42)
        xs = np.concatenate(
            [10.0 ** rng.uniform(-5, 6, 300), rng.uniform(1e-5, 100.0, 200)]
        )
        for x in xs:
            ref = float(mp.digamma(mp.mpf(float(x))))
            assert digamma(float(x)) == pytest.approx(ref, abs=1e-10)

    def test_tiny_arguments_near_representation_limit(self):
        # Near x = 1e-6 the result is about -1e6, where one ulp is already
        # 1.2e-10; allow two roundings.
        rng = np.random.default_rng(3)
        for x in 10.0 ** rng.uniform(-6, -5, 100):
            ref = float(mp.digamma(mp.mpf(float(x))))
            assert digamma(float(x)) == pytest.approx(ref, abs=2.5e-10)

    def test_recurrence(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 100.0, 1000) + 1e-9
        err = np.abs(digamma(x + 1.0) - digamma(x) - 1.0 / x)
        assert err.max() <= 1e-10

    def test_huge_arguments_do_not_warn(self):
        # 1/y^2 underflows to 0 here, so psi(x) = ln x - 1/(2x) in float64.
        x = np.array([1e155, 1e200, 1e300])
        assert np.array_equal(digamma(x), np.log(x) - 0.5 / x)

    def test_strictly_increasing(self):
        for lo, hi in [(1e-4, 0.1), (0.1, 10.0), (10.0, 1000.0)]:
            grid = np.linspace(lo, hi, 2000)
            values = digamma(grid)
            assert np.all(np.diff(values) > 0.0)


def test_digamma_is_derivative_of_log_gamma():
    grid = np.linspace(0.1, 100.0, 500)
    h = 1e-5
    fd = (log_gamma(grid + h) - log_gamma(grid - h)) / (2.0 * h)
    rel = np.abs(fd - digamma(grid)) / np.abs(digamma(grid)).clip(min=1e-12)
    assert rel.max() <= 1e-5


@pytest.mark.parametrize("func", [log_gamma, digamma])
@pytest.mark.parametrize("x", [np.array([]), np.empty((0, 6))])
def test_empty_input_gives_empty_output(func, x):
    out = func(x)
    assert isinstance(out, np.ndarray) and out.shape == x.shape and out.dtype == np.float64


# The clamp admits logits in [-60, 60], so alpha = exp(z) and alpha0 reach
# from exp(-60) ~ 9e-27 up to K exp(60) ~ 1e27.
@pytest.mark.parametrize("lo, hi", [(1e-27, 1e-6), (1e6, 1e27)])
@pytest.mark.parametrize("func, ref", [(log_gamma, mp.loggamma), (digamma, mp.digamma)])
def test_relative_error_at_the_ends_of_the_clamp_range(func, ref, lo, hi):
    x = 10.0 ** np.random.default_rng(27).uniform(math.log10(lo), math.log10(hi), 1000)
    worst = max(abs(mp.mpf(float(got)) / ref(mp.mpf(float(v))) - 1) for got, v in zip(func(x), x))
    assert worst <= 1e-15


# The loop implementations the batch kernels replaced, kept verbatim: the
# kernels must return the same bits and the same type.
def _reference_validated(x, name):
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} requires finite arguments")
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} is only defined for x > 0")
    return arr


def _reference_lanczos(x):
    w = x - 1.0
    series = np.full_like(w, specfun._LANCZOS_COEF[0])
    for i, c in enumerate(specfun._LANCZOS_COEF[1:], start=1):
        series += c / (w + i)
    t = w + specfun._LANCZOS_G + 0.5
    return specfun._HALF_LOG_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(series)


def reference_log_gamma(x):
    arr = _reference_validated(x, "log_gamma")
    out = np.empty_like(arr)
    small = arr < 0.5
    if np.any(small):
        xs = arr[small]
        out[small] = np.log(np.pi / np.sin(np.pi * xs)) - _reference_lanczos(1.0 - xs)
    if np.any(~small):
        out[~small] = _reference_lanczos(arr[~small])
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def reference_digamma(x):
    arr = _reference_validated(x, "digamma")
    steps = np.ceil(np.maximum(specfun._PSI_SHIFT - arr, 0.0)).astype(np.int64)
    shift = np.zeros_like(arr)
    for i in range(int(steps.max()) - 1, -1, -1):
        mask = i < steps
        shift[mask] += 1.0 / (arr[mask] + i)
    y = arr + steps
    r = 1.0 / (y * y)
    series = np.zeros_like(y)
    for c in reversed(specfun._PSI_SERIES):
        series = (c + series) * r
    out = np.log(y) - 0.5 / y - series - shift
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


# Log-uniform over the float64 range, plus the neighbours of the branch
# points 0.5 (reflection) and 10 (recurrence shift) and the range in between,
# where every recurrence term counts.
_BOUNDARIES = [v for b in (0.5, 10.0)
               for v in (np.nextafter(b, 0.0), b, np.nextafter(b, 20.0), b - 1e-9, b + 1e-9)]
_ARGUMENTS = st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                       st.sampled_from(_BOUNDARIES),
                       st.floats(1e-3, 12.0))
_SHAPES = st.one_of(st.sampled_from(["scalar", ()]),
                    st.sampled_from([1, 2, 3, 5, 7, 9, 15, 17, 33]).map(lambda n: (n,)),
                    st.tuples(st.integers(1, 40), st.integers(2, 10)))


@pytest.mark.parametrize("func, reference", [(log_gamma, reference_log_gamma),
                                             (digamma, reference_digamma)])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_kernels_match_the_loop_implementations_bit_for_bit(func, reference, data):
    shape = data.draw(_SHAPES)
    if shape == "scalar":
        x = data.draw(_ARGUMENTS)
    else:
        x = data.draw(hnp.arrays(np.float64, shape, elements=_ARGUMENTS))
    got = func(x)
    with np.errstate(over="ignore"):  # the loop digamma warned where y * y overflows
        want = reference(x)
    assert type(got) is type(want)
    assert np.array_equal(got, want)
