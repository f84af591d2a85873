"""Deterministic random streams built on the Philox counter-based generator.

Every random draw in the package comes from a named stream addressed by
``(seed, *path)``.  The path components (a domain tag plus e.g. an utterance
id or an epoch index) are folded into the 128-bit Philox key with a
SplitMix64-style mixer, so streams are independent by construction and a
corpus or training run is reproducible from its seed alone.  ``streams``
gives the streams of many ids in one domain from a single rekeyed Philox,
which is how a corpus draws one stream per utterance.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["stream", "streams", "fisher_yates"]

_MASK64 = (1 << 64) - 1

# Domain tags keep streams for different purposes disjoint even when the
# remaining path components collide.
DOMAIN_UTTERANCE = 1
DOMAIN_INIT = 2
DOMAIN_SHUFFLE = 3


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent Philox stream for ``(seed, *path)``.

    The low 64 bits of the key hold the seed, the high 64 bits hold a
    SplitMix64 fold of the path, so distinct paths map to distinct keys.
    """
    h = _splitmix64(seed & _MASK64)
    for part in path:
        h = _splitmix64(h ^ (part & _MASK64))
    key = (seed & _MASK64) | (h << 64)
    return np.random.Generator(np.random.Philox(key=key))


def streams(seed: int, domain: int, ids: Iterable[int]) -> Iterator[np.random.Generator]:
    """For each id, a generator whose draws equal ``stream(seed, domain, id)``'s.

    One Philox takes each id's key through its ``state`` setter, which also
    resets the counter, the output buffer and the buffered 32-bit half.  The
    same generator is yielded every time; it is valid until the next yield.
    """
    low = seed & _MASK64
    h = _splitmix64(_splitmix64(low) ^ (domain & _MASK64))
    gen = np.random.Generator(np.random.Philox(0))  # its state is replaced before any draw
    for i in ids:
        gen.bit_generator.state = {
            "bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0,
            "state": {"counter": [0] * 4, "key": [low, _splitmix64(h ^ (i & _MASK64))]}}
        yield gen


def fisher_yates(n: int, gen: np.random.Generator) -> np.ndarray:
    """Fisher-Yates permutation of ``range(n)`` driven by ``gen``, as int64.

    Swap ``i`` (from ``n - 1`` down to 1) takes ``j`` uniform in ``[0, i]``.
    All the ``j`` come from one draw call with an array of bounds; numpy
    draws them in order from the same 32-bit stream as one scalar
    ``gen.integers(0, i + 1)`` call per swap, so the result is the same.
    """
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), gen.integers(0, np.arange(n, 1, -1)).tolist()):
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.int64)
