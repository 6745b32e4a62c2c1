"""Seeded random streams.

All randomness in this package flows through PCG64 generators built here.
Substreams are derived as ``seed XOR index`` so that per-sample (or
per-step) draws are independent of execution order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def make_generator(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed (wider ints are masked)."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for substream ``index`` of a seeded run."""
    if index < 0:
        raise ValueError(f"substream index must be >= 0, got {index}")
    return make_generator((seed & _MASK64) ^ index)


def derive_seed(*parts: int) -> int:
    """Collapse a tuple of integers into one 64-bit seed.

    Used where runs are keyed by several indices (e.g. grid cell and
    repetition) and a plain XOR could collide.
    """
    entropy = tuple(p & _MASK64 for p in parts)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
