"""Seeded random streams under one keying rule.

Every stream is PCG64 seeded by ``SeedSequence(seed mod 2**64,
spawn_key=(purpose, *index))``, as numpy keys child streams, so any
integer is a seed, a numpy one too, and any other seed a ConfigError. The
purpose names a stream's use: one seed never feeds two uses, and no two
seeds share a stream. A flat ``SeedSequence((seed, purpose, ...))`` would
read seed ``s + 2**32 * b`` as ``(s, b)``, and ``(s, p)`` as ``(s, p, 0)``.

``substream`` and ``derive_seed`` key one stream with numpy's own classes.
A search grid needs thousands of keys, so ``derive_seeds`` and ``Streams``
key them in one pass: ``_pcg_states`` runs numpy's documented
``SeedSequence`` hash (NEP 19 keeps it stable) over columns of keys and
gives the same PCG64 states, bit for bit, as the tests check against
numpy's classes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import require_count

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# Stream purposes, the first spawn-key word of every stream.
DATASET_DELTA = 1  # generate_dataset: lateral offsets, (n,)
DATASET_PHI = 2  # generate_dataset: yaws, (n,)
DATASET_NOISE = 3  # generate_dataset: sensor noise, (n, 4)
SPLIT = 4  # dataset.split: the train/validation shuffle
INIT = 5  # mlp.init_model: Glorot weights
SHUFFLE = 6  # mlp.train: one mini-batch permutation per epoch
SEARCH_STEP = 7  # search: rollout seeds of a grid, and each step's noise

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (numpy/random/src/pcg64).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _bits(seed: int, purpose: int, *index: int) -> np.random.PCG64:
    seed = require_count("seed", seed) & _MASK64  # a non-integer seed is a ConfigError
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(purpose, *index)))


def substream(seed: int, purpose: int, *index: int) -> np.random.Generator:
    """Generator for the key (seed, purpose, *index); index entries are >= 0."""
    return np.random.Generator(_bits(seed, purpose, *index))


def _pool_words(words: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(...).generate_state(4, np.uint64)`` of each key, as four
    uint64 columns, from its entropy ``words`` (uint32 columns, at least the
    pool size). numpy's hash on uint32 wraps as these columns do, and its
    constants advance alike for every key."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ result >> np.uint32(16)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const, out = _INIT_B, []  # eight uint32 words, cycling the pool
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out.append((value ^ value >> np.uint32(16)).astype(np.uint64))
    return [out[k] | out[k + 1] << np.uint64(32) for k in range(0, 8, 2)]  # little-endian


def _pcg_states(
    seeds: Sequence[int], purpose: int, *index: Sequence[int]
) -> tuple[list[int], list[int]]:
    """PCG64's (state, inc) for each key (seeds[i], purpose, index[0][i], ...):
    where ``substream`` of that key starts. Each index column holds one
    integer in [0, 2**32), one word, per seed; ValueError otherwise.

    One pass of numpy's hash runs over columns: with a spawn key numpy pads
    the seed's words to the pool size, so every key has the same words (the
    seed's low and high halves, two zeros, the purpose, one word per index
    column), and PCG64's seeding, two steps of its LCG, follows on Python
    ints.
    """
    columns = [np.asarray(c) for c in index]
    for c in columns:
        if c.shape != (len(seeds),):
            raise ValueError(f"an index column needs one entry per seed, got shape {c.shape}")
        if c.dtype.kind not in "iu" or (c.size and not (c.min() >= 0 and c.max() <= _MASK32)):
            raise ValueError(f"key entries must be integers in [0, 2**32), got {c!r}")
    seed = np.array([require_count("seed", s) & _MASK64 for s in seeds], dtype=np.uint64)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    words = [seed.astype(np.uint32), (seed >> np.uint64(32)).astype(np.uint32), zero, zero]
    words += [zero + np.uint32(purpose), *(c.astype(np.uint32) for c in columns)]
    states, incs = [], []
    for s_hi, s_lo, i_hi, i_lo in zip(*(w.tolist() for w in _pool_words(words))):
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        states.append(((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128)
        incs.append(inc)
    return states, incs


def derive_seed(seed: int, purpose: int, *index: int) -> int:
    """The first 64-bit draw of that key's stream: a seed for one keyed run.

    It is the raw PCG64 output, which is what ``substream(...).integers(1 << 64,
    dtype=np.uint64)`` returns, without building a Generator.
    """
    return int(_bits(seed, purpose, *index).random_raw())


def derive_seeds(seeds: Sequence[int], purpose: int, *index: Sequence[int]) -> list[int]:
    """``derive_seed`` of each key (seeds[i], purpose, index[0][i], ...), keyed
    in one pass; index entries are integers in [0, 2**32)."""
    out = []
    for state, inc in zip(*_pcg_states(seeds, purpose, *index)):
        state = (state * _PCG_MULT + inc) & _MASK128  # one LCG step, then XSL-RR
        xored, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        out.append((xored >> rot | xored << (64 - rot)) & _MASK64)
    return out


class Streams:
    """The streams of many keys (seeds[i], purpose, *index), built in one pass
    and drawn through one shared Generator. ``at(i)`` sets it to where stream
    i left off: its start, or the place ``keep(i)`` saved."""

    def __init__(self, seeds: Sequence[int], purpose: int, *index: Sequence[int]) -> None:
        self._states, self._incs = _pcg_states(seeds, purpose, *index)
        self._generator = np.random.Generator(np.random.PCG64(0))

    def at(self, i: int) -> np.random.Generator:
        state = {"state": self._states[i], "inc": self._incs[i]}
        self._generator.bit_generator.state = {
            "bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0
        }
        return self._generator

    def keep(self, i: int) -> None:
        """Save where stream i, the one ``at(i)`` set last, now stands. Only the
        128-bit state moves: draws of 64-bit words, as ``normal`` makes, leave
        no buffered half-word behind."""
        self._states[i] = self._generator.bit_generator.state["state"]["state"]
