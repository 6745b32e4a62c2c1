import re

import numpy as np
import pytest

from cuphaptics import (
    ConfigError,
    CupGeometry,
    GenerationConfig,
    PressureFieldParams,
    SplitSpec,
    TrainConfig,
    generate_dataset,
    init_model,
    split,
    train_many,
)
from cuphaptics.rng import (
    DATASET_DELTA,
    DATASET_NOISE,
    DATASET_PHI,
    INIT,
    SEARCH_STEP,
    SHUFFLE,
    SPLIT,
    Streams,
    derive_seed,
    derive_seeds,
    substream,
)

PURPOSES = (DATASET_DELTA, DATASET_PHI, DATASET_NOISE, SPLIT, INIT, SHUFFLE, SEARCH_STEP)


def head(rng, n=16):
    return tuple(rng.integers(0, 2**63, size=n).tolist())


class TestSubstream:
    def test_same_key_same_draws(self):
        assert head(substream(5, SPLIT)) == head(substream(5, SPLIT))
        assert head(substream(5, SEARCH_STEP, 3)) == head(substream(5, SEARCH_STEP, 3))

    def test_purposes_are_distinct(self):
        assert len(set(PURPOSES)) == len(PURPOSES)

    def test_streams_pairwise_distinct_within_and_across_seeds(self):
        # split, init, shuffle and the dataset columns of seeds 0 and 1:
        # under a seed-XOR-index rule, shuffle of seed 1 was split of seed 0
        draws = [
            head(substream(seed, purpose))
            for seed in (0, 1)
            for purpose in (DATASET_DELTA, DATASET_PHI, DATASET_NOISE, SPLIT, INIT, SHUFFLE)
        ]
        assert len(set(draws)) == len(draws)

    def test_index_extends_the_key(self):
        draws = [
            head(substream(0, SEARCH_STEP)),
            head(substream(0, SEARCH_STEP, 0)),
            head(substream(0, SEARCH_STEP, 1)),
            head(substream(0, SEARCH_STEP, 0, 0)),
        ]
        assert len(set(draws)) == len(draws)

    def test_wide_seed_is_not_read_as_a_purpose(self):
        # A flat SeedSequence((seed, purpose, ...)) reads seed 5 + 2**32 * b
        # as the words (5, b), so seed 5 + 2**32 * SPLIT with purpose INIT
        # would be seed 5 with purpose SPLIT and index INIT; and it pads
        # (3, SPLIT) with a zero, so index 0 would add nothing.
        wide = 5 + 2**32 * SPLIT
        assert head(substream(wide, INIT)) != head(substream(5, SPLIT, INIT))
        assert head(substream(3, SPLIT)) != head(substream(3, SPLIT, 0))

    @pytest.mark.parametrize("seed", [-1, -(2**70), 2**64, 99999999999999999999999])
    def test_any_int_seed_is_masked_to_64_bits(self, seed):
        assert head(substream(seed, SPLIT)) == head(substream(seed % 2**64, SPLIT))

    @pytest.mark.parametrize("seed", [np.int64(-1), np.int64(3), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed_keys_as_its_int(self, seed):
        # the configs take numpy integers as seeds; `&` on one would overflow
        assert head(substream(seed, SPLIT)) == head(substream(int(seed), SPLIT))
        assert derive_seed(seed, SPLIT, 2) == derive_seed(int(seed), SPLIT, 2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            substream(0, SEARCH_STEP, -1)


class TestDeriveSeed:
    def test_deterministic_64_bit_and_distinct(self):
        seeds = {
            derive_seed(11, SEARCH_STEP, cell, rep) for cell in range(20) for rep in range(5)
        }
        assert len(seeds) == 100
        assert all(0 <= s < 2**64 for s in seeds)
        assert derive_seed(11, SEARCH_STEP, 4, 2) == derive_seed(11, SEARCH_STEP, 4, 2)
        assert derive_seed(-1, 1) == derive_seed(2**64 - 1, 1)

    @pytest.mark.parametrize("seed", [0, 11, -1, -(2**70), 2**64, 2**64 + 7, 99999999999999999999999])
    def test_is_the_first_uint64_draw_of_the_stream(self, seed):
        for purpose, index in ((SEARCH_STEP, ()), (SEARCH_STEP, (4, 2)), (SPLIT, (0,))):
            drawn = substream(seed, purpose, *index).integers(1 << 64, dtype=np.uint64)
            assert derive_seed(seed, purpose, *index) == int(drawn)


def numpy_bits(seed, purpose, *index):
    """The oracle: numpy's own SeedSequence and PCG64 for a key."""
    return np.random.PCG64(np.random.SeedSequence(int(seed) % 2**64, spawn_key=(purpose, *index)))


EDGE_SEEDS = [
    0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**32), -(2**70), 2**64 + 3,
    np.int64(-7), np.int64(2**62), np.uint64(2**64 - 1), np.uint32(2**32 - 1), np.int8(-1),
]
EDGE_INDEX = [0, 2**32 - 1]


def oracle_keys(width):
    """The edge seeds and 500 random ones, and ``width`` index columns
    that hold 0, 2**32 - 1 and random words, each row its own mix."""
    rng = np.random.default_rng(2024 + width)
    seeds = EDGE_SEEDS + rng.integers(-(2**63), 2**63, 400).tolist()
    seeds += [int(s) << 1 for s in rng.integers(2**62, 2**63, 100)]  # 64-bit wide
    columns = []
    for w in range(width):
        column = rng.integers(0, 2**32, len(seeds))
        column[w::3] = EDGE_INDEX[w % 2]
        column[w + 1 :: 5] = EDGE_INDEX[(w + 1) % 2]
        columns.append(column if w % 2 else column.tolist())  # arrays and lists both key
    return seeds, columns


@pytest.mark.parametrize("width", [0, 1, 2, 3])
class TestColumnKeying:
    """Keying many streams in one pass equals numpy's SeedSequence and PCG64."""

    def test_derive_seeds_are_numpy_first_draws(self, width):
        seeds, columns = oracle_keys(width)
        keys = list(zip(seeds, *columns))
        want = [int(numpy_bits(seed, SEARCH_STEP, *index).random_raw()) for seed, *index in keys]
        assert derive_seeds(seeds, SEARCH_STEP, *columns) == want
        assert [derive_seed(seed, SEARCH_STEP, *index) for seed, *index in keys] == want

    def test_streams_draw_numpy_normal_blocks(self, width):
        seeds, columns = oracle_keys(width)
        keys = list(zip(seeds, *columns))
        streams = Streams(seeds, SPLIT, *columns)
        # drawn out of order: each block depends on its own stream alone
        for i in reversed(range(len(keys))):
            seed, *index = keys[i]
            want = np.random.Generator(numpy_bits(seed, SPLIT, *index)).normal(size=(64, 4))
            assert streams.at(i).normal(size=(64, 4)).tobytes() == want.tobytes()

    def test_kept_streams_continue_where_they_stopped(self, width):
        seeds, columns = oracle_keys(width)
        streams = Streams(seeds, SEARCH_STEP, *columns)
        first = []
        for i in range(len(seeds)):
            first.append(streams.at(i).normal(0.0, 0.3, size=(64, 4)))
            streams.keep(i)
        for i, (seed, *index) in enumerate(zip(seeds, *columns)):
            generator = np.random.Generator(numpy_bits(seed, SEARCH_STEP, *index))
            want = generator.normal(0.0, 0.3, size=(128, 4))
            second = streams.at(i).normal(0.0, 0.3, size=(64, 4))
            assert np.concatenate([first[i], second]).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [-1, 2**32, 0.5], ids=["negative", "two-words", "fraction"])
def test_column_key_entries_are_single_words(bad):
    index = [0, 0, bad]
    with pytest.raises(ValueError, match=re.escape("key entries must be integers in [0, 2**32)")):
        derive_seeds([0] * 3, SEARCH_STEP, index)
    with pytest.raises(ValueError, match=re.escape("key entries must be integers in [0, 2**32)")):
        Streams([0] * 3, SEARCH_STEP, index)


def test_an_index_column_holds_one_entry_per_seed():
    # zip would drop the keys past the shorter column without a word
    for column in ([0] * 2, [0] * 4, [[0]] * 3):
        with pytest.raises(ValueError, match="an index column needs one entry per seed"):
            derive_seeds([0] * 3, SEARCH_STEP, column)


def _one_fold():
    samples = generate_dataset(
        CupGeometry(), PressureFieldParams(), GenerationConfig(n_samples=20, seed=1)
    )
    return [split(samples, SplitSpec())]


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda: init_model(2.5), 2.5),
        (lambda: train_many(_one_fold(), TrainConfig(max_epochs=1), [2.5]), 2.5),
        (lambda: substream("3", SPLIT), "3"),
        (lambda: derive_seed(2.5, 7), 2.5),
        (lambda: derive_seeds([0] * 20 + [2.5], 7), 2.5),
        (lambda: Streams([0] * 20 + [2.5], 7), 2.5),
    ],
    ids=["init_model", "train_many", "substream", "derive_seed", "derive_seeds", "streams"],
)
def test_a_non_integer_seed_argument_is_a_config_error(call, bad):
    # Every stream is keyed in one place, which checks the seed as the configs do.
    with pytest.raises(ConfigError) as exc_info:
        call()
    assert str(exc_info.value) == f"seed must be an integer, got {bad!r}"
