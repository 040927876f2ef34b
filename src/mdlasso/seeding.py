"""Deterministic RNG substreams.

Every randomized routine in the package takes an explicit integer seed
(both generators below refuse a float seed or id with ``TypeError``) and,
where it owns several independent sources of randomness, derives one
substream per (seed, stream-id) path. Substreams are independent of
scheduling: the generator for a given path is the same no matter how many
other paths were drawn before it, or on how many CPUs they are drawn.

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

_MASK64 = (1 << 64) - 1


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, *path).

    Negative identifiers are mapped to their 64-bit two's-complement value so
    that any Python int is accepted. Trailing zero identifiers can leave
    the stream unchanged (see the module docstring).
    """
    entropy = [operator.index(x) & _MASK64 for x in (seed, *path)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def chunk_stream(seed: int, chunk: int) -> np.random.Generator:
    """Generator for chunk ``chunk`` of a sample drawn in independent chunks:
    child ``chunk`` of ``SeedSequence(seed)`` in numpy's spawn tree."""
    return np.random.default_rng(
        np.random.SeedSequence(operator.index(seed) & _MASK64,
                               spawn_key=(operator.index(chunk),)))
