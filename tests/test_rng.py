"""Tests for the random streams: the epoch shuffle is pinned to the draws
of one scalar ``gen.integers`` call per swap."""

import numpy as np
import pytest

from labelprior.rng import DOMAIN_SHUFFLE, fisher_yates, stream


def scalar_fisher_yates(n, gen):
    # Reference: one draw call per swap, j uniform in [0, i].
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(gen.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    return order


@pytest.mark.parametrize("n", [0, 1, 2, 7, 1600])
@pytest.mark.parametrize("seed", [0, 42, 1729])
def test_shuffle_equals_scalar_draws(n, seed):
    epoch = seed % 5
    got = fisher_yates(n, stream(seed, DOMAIN_SHUFFLE, epoch))
    want = scalar_fisher_yates(n, stream(seed, DOMAIN_SHUFFLE, epoch))
    assert got.dtype == np.int64 and got.shape == (n,)
    assert got.tolist() == want
    np.testing.assert_array_equal(np.sort(got), np.arange(n))


def test_shuffle_moves_rows():
    order = fisher_yates(1600, stream(42, DOMAIN_SHUFFLE, 0))
    assert not np.array_equal(order, np.arange(1600))


def test_streams_differ_by_path():
    a = stream(42, DOMAIN_SHUFFLE, 0).integers(0, 2**32, size=4)
    b = stream(42, DOMAIN_SHUFFLE, 1).integers(0, 2**32, size=4)
    assert not np.array_equal(a, b)
