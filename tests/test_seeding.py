"""Substream and chunk-stream identities."""

import itertools

import numpy as np
import pytest

from mdlasso.seeding import chunk_stream, substream

SEEDS = [0, 8, 2 ** 40 + 3, 2 ** 64 - 1]


def first_draws(rng):
    return tuple(rng.random(2))


@pytest.mark.parametrize("seed", SEEDS)
def test_trailing_zero_ids_name_the_parent_stream(seed):
    # SeedSequence pads the entropy with zero words, so these paths share
    # one stream
    assert first_draws(substream(seed)) == first_draws(substream(seed, 0)) \
        == first_draws(substream(seed, 0, 0))
    assert first_draws(substream(seed, 3)) == first_draws(substream(seed, 3, 0))


@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_stream_is_numpys_spawn(seed):
    children = np.random.SeedSequence(seed).spawn(4)
    for c, child in enumerate(children):
        assert first_draws(chunk_stream(seed, c)) \
            == first_draws(np.random.default_rng(child))


@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_streams_differ_from_short_substream_paths(seed):
    # a seed of two 32-bit words leaves room for only two ids before the
    # chunk id would take the place of a third
    wide = not 0 <= seed < 2 ** 32
    paths = {first_draws(substream(seed, *path)): path
             for size in range(3 if wide else 4)
             for path in itertools.product(range(5), repeat=size)}
    for c in range(5):
        draws = first_draws(chunk_stream(seed, c))
        assert draws not in paths, f"chunk {c} is path {paths[draws]}"
        assert (draws == first_draws(substream(seed, 0, 0, c))) == wide


@pytest.mark.parametrize("make", [
    lambda: substream(1.7), lambda: substream(1, 2.0),
    lambda: chunk_stream(2.9, 0), lambda: chunk_stream(2, 1.0)])
def test_float_seed_or_id_is_refused(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: substream(-1), "seed must lie in [0, 2**64), got -1"),
    (lambda: substream(2 ** 64 + 5),
     f"seed must lie in [0, 2**64), got {2 ** 64 + 5}"),
    (lambda: substream(1, -1), "stream id must lie in [0, 2**64), got -1"),
    (lambda: chunk_stream(-1, 0), "seed must lie in [0, 2**64), got -1"),
    (lambda: chunk_stream(1, 2 ** 64),
     f"chunk must lie in [0, 2**64), got {2 ** 64}")],
    ids=["substream(-1)", "substream(2**64+5)", "substream(1,-1)",
         "chunk_stream(-1,0)", "chunk_stream(1,2**64)"])
def test_seed_or_id_outside_64_bits_is_refused(make, message):
    # masked to 64 bits, -1 named the stream of 2**64 - 1 and 2**64 + 5
    # that of 5
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


def test_numpy_integer_seeds_name_the_int_streams():
    assert first_draws(substream(np.int64(5), np.int64(7))) \
        == first_draws(substream(5, 7))
    assert first_draws(chunk_stream(np.uint64(2 ** 64 - 1), np.int64(3))) \
        == first_draws(chunk_stream(2 ** 64 - 1, 3))
