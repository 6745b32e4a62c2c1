import hashlib

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
    substream,
)

PURPOSES = (DATASET_DELTA, DATASET_PHI, DATASET_NOISE, SPLIT, INIT, SHUFFLE, SEARCH_STEP)


def head(rng, n=16):
    return tuple(rng.integers(0, 2**63, size=n).tolist())


class TestSubstream:
    def test_same_key_same_draws(self):
        assert head(substream(5, SPLIT)) == head(substream(5, SPLIT))

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

    def test_wide_seed_is_not_read_as_a_purpose(self):
        # A flat SeedSequence((seed, purpose)) reads seed 5 + 2**32 * b as
        # the words (5, b), so seed 5 + 2**32 * SPLIT with purpose INIT
        # would be the words of seed 5 with purpose SPLIT, then INIT.
        wide = 5 + 2**32 * SPLIT
        flat = np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, SPLIT, INIT))))
        assert head(substream(wide, INIT)) != head(flat)

    @pytest.mark.parametrize("seed", [-1, -(2**70), 2**64, 99999999999999999999999])
    def test_any_int_seed_is_masked_to_64_bits(self, seed):
        assert head(substream(seed, SPLIT)) == head(substream(seed % 2**64, SPLIT))

    @pytest.mark.parametrize("seed", [np.int64(-1), np.int64(3), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed_keys_as_its_int(self, seed):
        # the configs take numpy integers as seeds; `&` on one would overflow
        assert head(substream(seed, SPLIT)) == head(substream(int(seed), SPLIT))

    def test_index_words_are_rejected(self):
        # A stream's key is its seed and purpose, no more.
        with pytest.raises(TypeError):
            substream(0, SEARCH_STEP, 3)

    # The ids keep the names these cases had when substream also took index
    # words; each is the empty-index case.
    @pytest.mark.parametrize("seed", [0, -1], ids=["0-index0", "-1-index2"])
    def test_is_numpy_seed_sequence_and_pcg64(self, seed):
        key = np.random.SeedSequence(int(seed) % 2**64, spawn_key=(SEARCH_STEP,))
        want = np.random.Generator(np.random.PCG64(key)).normal(0.0, 0.3, (64, 4))
        drawn = substream(seed, SEARCH_STEP).normal(0.0, 0.3, size=(64, 4))
        assert drawn.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "seed",
        [
            0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**32), -(2**70), 2**64 + 3,
            np.int64(-7), np.int64(2**62), np.uint64(2**64 - 1), np.uint32(2**32 - 1),
            np.int8(-1),
        ],
        ids=lambda seed: f"{type(seed).__name__}({seed})",
    )
    def test_edge_seeds_key_as_numpy_does(self, seed):
        # Seeds at the 32- and 64-bit edges, of Python's and numpy's integer types.
        key = np.random.SeedSequence(int(seed) % 2**64, spawn_key=(SEARCH_STEP,))
        want = np.random.Generator(np.random.PCG64(key)).normal(0.0, 0.3, (16, 4))
        drawn = substream(seed, SEARCH_STEP).normal(0.0, 0.3, (16, 4))
        assert drawn.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "seed, digest",
        [(0, "4cf43dad7da61a5bcea9d19791093a3745c69a1fca34148bdbdc444706f61b3e")],
        ids=lambda v: v if isinstance(v, str) else f"{v}-index0",
    )
    def test_normals_are_pinned(self, seed, digest):
        # Every golden pin rests on numpy's SeedSequence keying, PCG64 and
        # normal; a numpy whose draws differ fails here first.
        drawn = substream(seed, SEARCH_STEP).normal(0.0, 0.3, size=(64, 4))
        assert hashlib.sha256(drawn.tobytes()).hexdigest() == digest


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
    ],
    ids=["init_model", "train_many", "substream"],
)
def test_a_non_integer_seed_argument_is_a_config_error(call, bad):
    # Every stream is keyed in one place, which checks the seed as the configs do.
    with pytest.raises(ConfigError) as exc_info:
        call()
    assert str(exc_info.value) == f"seed must be an integer, got {bad!r}"
