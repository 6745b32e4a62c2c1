"""Seeded random streams under one keying rule.

Every stream is PCG64 seeded by ``SeedSequence(seed mod 2**64,
spawn_key=(purpose, *index))``, as numpy keys child streams, so any
Python int is a seed. The purpose names a stream's use: one seed never
feeds two uses, and no two seeds share a stream. A flat
``SeedSequence((seed, purpose, ...))`` would read seed ``s + 2**32 * b``
as ``(s, b)``, and ``(s, p)`` as ``(s, p, 0)``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream purposes, the first spawn-key word of every stream.
DATASET_DELTA = 1  # generate_dataset: lateral offsets, (n,)
DATASET_PHI = 2  # generate_dataset: yaws, (n,)
DATASET_NOISE = 3  # generate_dataset: sensor noise, (n, 4)
SPLIT = 4  # dataset.split: the train/validation shuffle
INIT = 5  # mlp.init_model: Glorot weights
SHUFFLE = 6  # mlp.train: one mini-batch permutation per epoch
SEARCH_STEP = 7  # search: rollout seeds of a grid, and each step's noise


def substream(seed: int, purpose: int, *index: int) -> np.random.Generator:
    """Generator for the key (seed, purpose, *index); index entries are >= 0."""
    key = np.random.SeedSequence(seed & _MASK64, spawn_key=(purpose, *index))
    return np.random.Generator(np.random.PCG64(key))


def derive_seed(seed: int, purpose: int, *index: int) -> int:
    """The first 64-bit draw of that key's stream: a seed for one keyed run."""
    return int(substream(seed, purpose, *index).integers(1 << 64, dtype=np.uint64))
