import numpy as np
import pytest

from cuphaptics.rng import (
    DATASET_DELTA,
    DATASET_NOISE,
    DATASET_PHI,
    INIT,
    SEARCH_STEP,
    SHUFFLE,
    SPLIT,
    derive_seed,
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
