"""numpy's default generator in pure Python: ``uniform_stream(seed)`` draws what
``numpy.random.default_rng(seed).uniform`` draws, bit for bit, without importing
``numpy.random`` (with ``secrets``, ``hashlib`` and ``hmac``), which costs a short
noisy run more than its draws do.

The generator is PCG64 (O'Neill 2014: a 128-bit LCG with the XSL-RR output),
seeded from numpy's ``SeedSequence(seed).generate_state(4, uint64)``.
"""

import math

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128


def _seed_state(seed: int) -> tuple:
    """``SeedSequence(seed).generate_state(4, uint64)``: pool size 4, no spawn key."""
    entropy = [(seed >> shift) & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = (value ^ hash_const) * (hash_const := hash_const * 0x931E8875 & _M32) & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = 0x8B51F9DD, []
    for i in range(8):
        value = (pool[i % 4] ^ hash_const) * (hash_const := hash_const * 0x58F38DED & _M32) & _M32
        words.append(value ^ value >> 16)
    return tuple(words[i] | words[i + 1] << 32 for i in range(0, 8, 2))  # uint32 pairs, little-endian


def uniform_stream(seed: int):
    """``uniform(low, high)`` for float bounds: the floats, and the errors, of ``default_rng(seed).uniform``."""
    s_hi, s_lo, i_hi, i_lo = _seed_state(seed)
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128  # pcg_setseq_128_srandom_r: step, add initstate, step
    state = ((inc + (s_hi << 64 | s_lo)) * _MULT + inc) & _M128

    def uniform(low, high):
        nonlocal state
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0.0:  # -0.0 too, as numpy's signbit test
            raise ValueError("high - low < 0")
        state = (state * _MULT + inc) & _M128
        word, rot = (state >> 64 ^ state) & _M64, state >> 122  # XSL-RR
        word = (word >> rot | word << (64 - rot)) & _M64
        return low + span * ((word >> 11) * 2.0**-53)

    return uniform
