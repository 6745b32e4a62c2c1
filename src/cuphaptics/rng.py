"""Seeded random streams under one keying rule.

Every stream is PCG64 seeded by ``SeedSequence(seed mod 2**64,
spawn_key=(purpose,))``, as numpy keys child streams, so any
integer is a seed, a numpy one too, and any other seed a ConfigError. The
purpose names a stream's use: one seed never feeds two uses, and no two
seeds share a stream. A flat ``SeedSequence((seed, purpose))`` would
read seed ``s + 2**32 * b`` as ``(s, b)``.

Each call keys one stream: a search lockstep keys ``(seed, SEARCH_STEP)``
once and draws every rollout's noise from it, a row per rollout at each
step (see ``search``), so no caller keys streams by the thousand.
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
SEARCH_STEP = 7  # search: each step's noise, a row of four normals per rollout


def substream(seed: int, purpose: int) -> np.random.Generator:
    """Generator for the key (seed, purpose)."""
    seed = require_count("seed", seed) & _MASK64  # a non-integer seed is a ConfigError
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(purpose,)))
    )
