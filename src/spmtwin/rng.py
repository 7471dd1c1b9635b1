"""Seeded normal draws, bit for bit those of ``numpy.random.default_rng``.

The twin's one random quantity is the per-person load of
:class:`~spmtwin.occupancy.TurnoutModel`. :class:`Generator` reproduces the
stream of ``numpy.random.default_rng(seed).normal(loc, scale)`` as numpy
2.4.6 draws it: numpy's ``SeedSequence`` mixes the seed into a pool of four
32-bit words, which seeds ``PCG64`` (a 128-bit LCG with XSL-RR output,
O'Neill 2014), and each draw is numpy's ``random_standard_normal``, a
256-layer ziggurat (Marsaglia & Tsang 2000) over the tables of
:mod:`spmtwin.rng_tables`. NEP 19 does not promise that numpy's streams stay
the same across releases, so the twin owns its stream: a seeded run's
artifacts do not depend on which numpy is installed, or whether one is.
``tests/test_rng.py`` checks the stream against an installed numpy.
"""

from __future__ import annotations

import math

from .rng_tables import FI, KI, WI

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG_DEFAULT_MULTIPLIER_128 (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

# ziggurat_nor_r and ziggurat_nor_inv_r (numpy/random/src/distributions)
_NOR_R = 3.6541528853610088
_NOR_INV_R = 0.27366123732975828


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    words = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]


class Generator:
    """``numpy.random.default_rng(seed)``, reduced to :meth:`normal`."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_words(seed)
        # pcg_setseq_128_srandom_r(state = s0:s1, sequence = i0:i1)
        inc = self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128

    def _next_uint64(self) -> int:
        """Step the LCG and return the XSL-RR output of the new state."""
        state = self._state = self._state * _PCG_MULT + self._inc & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next_double(self) -> float:
        return (self._next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def normal(self, loc: float, scale: float) -> float:
        """One draw from N(``loc``, ``scale``), as ``loc + scale * z``."""
        return loc + scale * self._standard_normal()

    def _standard_normal(self) -> float:
        while True:
            r = self._next_uint64()
            idx = r & 0xFF
            r >>= 8
            rabs = r >> 1 & 0x000FFFFFFFFFFFFF
            x = rabs * WI[idx]
            if r & 1:
                x = -x
            if rabs < KI[idx]:
                return x
            if idx == 0:
                # the tail beyond _NOR_R, drawn with 1 - U so log never sees 0
                while True:
                    xx = -_NOR_INV_R * math.log1p(-self._next_double())
                    yy = -math.log1p(-self._next_double())
                    if yy + yy > xx * xx:
                        return -(_NOR_R + xx) if rabs >> 8 & 1 else _NOR_R + xx
            elif ((FI[idx - 1] - FI[idx]) * self._next_double() + FI[idx]
                  < math.exp(-0.5 * x * x)):
                return x
