"""numpy's SeedSequence hash, worked out for many spawn keys at once.

A figure seeds drop d of grid cell c, and a Monte Carlo run seeds trial t,
with the spawn of one seed: ``SeedSequence(entropy=seed, spawn_key=key)``
with key (c, d) or (t,).  Building one SeedSequence per key costs more
than the generator it seeds, so ``SpawnHash`` runs the hash itself
(numpy/random/bit_generator.pyx: hashmix, mix, mix_entropy,
generate_state, a documented and stable stream contract) on uint32 arrays
of key words, which wrap as the hash does, and ``SpawnedSeed`` hands a
bit generator the words it would have asked its SeedSequence for.
"""

from __future__ import annotations

import numpy as np

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _constants(const: int, mult: int, n: int) -> np.ndarray:
    """The hash constant before each of n steps that multiply it by mult,
    and after the last: n + 1 uint32 values."""
    out = [const]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ v >> 16


class SpawnHash:
    """The SeedSequences ``SeedSequence(entropy=seed, spawn_key=key)`` of one
    seed, for any keys of 32-bit words.

    A spawn key pads the seed's 32-bit words with zeros to the pool size
    (4) and follows them, so every key starts from the pool the seed's own
    words mix into, which is ``SeedSequence(seed).pool``.  Those words took
    4 hashmix calls each, and 4 per pool word at least, so the hash
    constant has passed ``4 * max(words, 4)`` multiplications by _MULT_A.
    Both are worked out once, here.  The constant's steps depend on no
    data, so those that follow are known before any key is hashed; they are
    worked out once per key length and state size, on the first keys of
    that shape.
    """

    def __init__(self, seed: int):
        n_words = max(-(-seed.bit_length() // 32), _POOL_SIZE)
        self.pool = np.random.SeedSequence(seed).pool
        self.const = _INIT_A * pow(_MULT_A, 4 * n_words, 1 << 32) & _MASK32
        self._steps: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def states(self, keys: tuple[np.ndarray, ...], n_words: int) -> np.ndarray:
        """``generate_state(n_words, np.uint64)`` of the SeedSequence of every
        spawn key, as an (*shape, n_words) array.  ``keys`` holds the keys'
        words position by position, as uint32 arrays that broadcast together
        to ``shape``: key word i of every key in ``keys[i]``."""
        shape = len(keys), n_words
        if shape not in self._steps:
            self._steps[shape] = (_constants(self.const, _MULT_A, _POOL_SIZE * len(keys)),
                                  _constants(_INIT_B, _MULT_B, 2 * n_words))
        pool, (c, b) = self.pool, self._steps[shape]
        for i, words in enumerate(keys):
            # Each key word mixes into every pool word, as mix_entropy mixes
            # the words past the pool size: one hashmix per pool word, each
            # with the next constant.
            before, after = c[4 * i:4 * i + 4], c[4 * i + 1:4 * i + 5]
            h = _xorshift((np.asarray(words, dtype=np.uint32)[..., None] ^ before) * after)
            pool = _xorshift(_MIX_L * pool - _MIX_R * h)
        state = _xorshift((pool[..., np.arange(2 * n_words) % _POOL_SIZE] ^ b[:-1]) * b[1:])
        # As generate_state does: word pairs read as little-endian uint64s.
        return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class SpawnedSeed(np.random.bit_generator.ISeedSequence):
    """One spawn's seed for a bit generator: the uint64 words its
    SeedSequence would generate, all that the bit generator asks for
    (PCG64 asks for 4, SFC64 for 3)."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self.state.size or np.dtype(dtype) != np.uint64:
            raise ValueError(f"this seed only holds {self.state.size} uint64 words")
        return self.state
