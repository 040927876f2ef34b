"""Deterministic RNG substreams.

Every randomized routine in the package takes an explicit integer seed
and, where it owns several independent sources of randomness, derives one
substream per (seed, stream-id) path; seeds and ids are the integers in
[0, 2^64) (``require_id``). Substreams are independent of scheduling: the
generator for a given path is the same no matter how many other paths
were drawn before it, or on how many CPUs they are drawn.

A path does not name one stream per tuple of ids. Each id enters the
entropy as its 32-bit words, and ``SeedSequence`` pads the entropy with
zero words to four, so trailing zero ids within those four words name the
same stream: ``substream(s)``, ``substream(s, 0)`` and
``substream(s, 0, 0)`` are one generator for every seed. ``chunk_stream``
is numpy's own ``SeedSequence(s).spawn(k)[c]``, whose spawn key follows the
padded entropy. For ids below 2^32 it differs from ``substream(s, *path)``
for every path of at most two ids, and of three when s < 2^32; for a wider
seed, chunk c is ``substream(s, 0, 0, c)``.
"""

import operator

import numpy as np

_ID_END = 1 << 64


def require_id(name: str, value: int) -> int:
    """``value`` as an int in [0, 2^64): ``TypeError`` for a float,
    ``ValueError`` out of range. ``SeedSequence`` refuses a negative id and
    splits a wider one into 32-bit words, which would make
    ``substream(2**64 + 5)`` the stream of ``substream(5, 2**32)``."""
    value = operator.index(value)
    if not 0 <= value < _ID_END:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, *path).

    Trailing zero identifiers can leave the stream unchanged (see the
    module docstring).
    """
    entropy = [require_id("seed", seed)]
    for x in path:  # a loop: a comprehension costs a call per substream
        entropy.append(require_id("stream id", x))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def chunk_stream(seed: int, chunk: int) -> np.random.Generator:
    """Generator for chunk ``chunk`` of a sample drawn in independent chunks:
    child ``chunk`` of ``SeedSequence(seed)`` in numpy's spawn tree."""
    return np.random.default_rng(np.random.SeedSequence(
        require_id("seed", seed), spawn_key=(require_id("chunk", chunk),)))
