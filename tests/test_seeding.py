"""Substream and chunk-stream identities."""

import itertools

import numpy as np
import pytest

from mdlasso.seeding import chunk_stream, substream

SEEDS = [0, 8, 2 ** 40 + 3, -1]


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
    children = np.random.SeedSequence(seed % 2 ** 64).spawn(4)
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


def test_numpy_integer_seeds_name_the_int_streams():
    assert first_draws(substream(np.int64(5), np.int64(-1))) \
        == first_draws(substream(5, -1))
    assert first_draws(chunk_stream(np.int64(-1), np.int64(3))) \
        == first_draws(chunk_stream(-1, 3))
