"""Tests for the random streams: the epoch shuffle is pinned to the draws
of one scalar ``gen.integers`` call per swap, and the rekeyed streams of
``streams`` to those of ``stream``."""

import numpy as np
import pytest

from labelprior.rng import DOMAIN_SHUFFLE, DOMAIN_UTTERANCE, fisher_yates, stream, streams


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


def mixed_draws(gen, uid):
    """Draws of every buffered width, ending mid-buffer: the odd count of
    32-bit draws (float32, int32 and small int64 ranges) leaves half a
    64-bit word, and a last float64 draw, where needed, part of Philox's
    four-word block."""
    draws = [gen.random(), gen.random(dtype=np.float32), gen.integers(0, 7, dtype=np.int32),
             gen.dirichlet(np.arange(1.0, 2 + uid % 4)), gen.standard_normal(1 + uid % 5),
             gen.random(2 + 2 * (uid % 3), dtype=np.float32), gen.integers(0, 5)]
    if gen.bit_generator.state["buffer_pos"] == 4:
        draws.append(gen.random())
    return [np.asarray(d).tolist() for d in draws]


@pytest.mark.parametrize("seed", [0, 42, -1, 2**64 + 3])
def test_streams_equal_stream_draw_for_draw(seed):
    ids = [0, 1, 2, 7, 3, 2**63 + 6, -4, 2, 2**64 - 1, 1000]
    got = [mixed_draws(gen, uid) for uid, gen in zip(ids, streams(seed, DOMAIN_UTTERANCE, ids))]
    want = []
    for uid in ids:
        gen = stream(seed, DOMAIN_UTTERANCE, uid)
        want.append(mixed_draws(gen, uid))
        # Each id leaves state behind that a reset which missed it would leak.
        state = gen.bit_generator.state
        assert state["buffer_pos"] < 4 and state["has_uint32"] == 1
    assert got == want
