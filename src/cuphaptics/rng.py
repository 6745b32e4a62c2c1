"""Seeded random streams under one keying rule.

Every stream is PCG64 seeded by ``SeedSequence(seed mod 2**64,
spawn_key=(purpose, *index))``, as numpy keys child streams, so any
integer is a seed, a numpy one too, and any other seed a ConfigError. The
purpose names a stream's use: one seed never feeds two uses, and no two
seeds share a stream. A flat ``SeedSequence((seed, purpose, ...))`` would
read seed ``s + 2**32 * b`` as ``(s, b)``, and ``(s, p)`` as ``(s, p, 0)``.
"""

from __future__ import annotations

import numpy as np

from .errors import require_count

_MASK64 = (1 << 64) - 1

# Stream purposes, the first spawn-key word of every stream.
DATASET_DELTA = 1  # generate_dataset: lateral offsets, (n,)
DATASET_PHI = 2  # generate_dataset: yaws, (n,)
DATASET_NOISE = 3  # generate_dataset: sensor noise, (n, 4)
SPLIT = 4  # dataset.split: the train/validation shuffle
INIT = 5  # mlp.init_model: Glorot weights
SHUFFLE = 6  # mlp.train: one mini-batch permutation per epoch
SEARCH_STEP = 7  # search: rollout seeds of a grid, and each step's noise


def _bits(seed: int, purpose: int, *index: int) -> np.random.PCG64:
    seed = require_count("seed", seed) & _MASK64  # a non-integer seed is a ConfigError
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(purpose, *index)))


def substream(seed: int, purpose: int, *index: int) -> np.random.Generator:
    """Generator for the key (seed, purpose, *index); index entries are >= 0."""
    return np.random.Generator(_bits(seed, purpose, *index))


def derive_seed(seed: int, purpose: int, *index: int) -> int:
    """The first 64-bit draw of that key's stream: a seed for one keyed run.

    It is the raw PCG64 output, which is what ``substream(...).integers(1 << 64,
    dtype=np.uint64)`` returns, without building a Generator.
    """
    return int(_bits(seed, purpose, *index).random_raw())
