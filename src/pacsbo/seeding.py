"""Deterministic random-stream derivation.

Every source of randomness in the package is a ``numpy.random.Generator``
derived from an integer seed plus a path identifying the consumer
(iteration number, partition index, draw index, a module tag, ...).
Streams derived this way are independent of each other and of execution
order, so batched work can be scheduled across threads without changing
any drawn number. String path components are folded to integers with a
fixed checksum, so the mapping never varies across runs or platforms.

:func:`raw_streams` rebuilds the raw output of many consecutive streams in
one pass. It follows numpy's published definitions of ``SeedSequence``
(pool of four 32-bit words, ``generate_state``) and of PCG64's seeding, and
is pinned bitwise against :func:`derive_rng` by ``tests/test_seeding.py``.
"""
from __future__ import annotations

import zlib

import numpy as np
from scipy.special import ndtr, ndtri

# truncated_normal keeps draws within two scales of zero: the range of the
# uniform it maps through the inverse normal CDF
_U_LO, _U_HI = ndtr(-2.0), ndtr(2.0)

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants and pool size
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# multiplier of PCG64's 128-bit linear congruential step
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _component(p) -> int:
    if isinstance(p, str):
        return zlib.crc32(p.encode("utf-8"))
    return int(p)


def _entropy(seed, *path) -> tuple:
    return (int(seed),) + tuple(_component(p) for p in path)


def _words(value: int) -> list:
    """The 32-bit words numpy's SeedSequence takes from one integer of its
    entropy: least significant first, a single word for zero."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Independent generator for the stream identified by ``(seed, *path)``."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, *path)))


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, uint64)`` for every row of a
    (rows, words) uint32 entropy array."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> _XSHIFT)

    rows, length = entropy.shape
    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, k] if k < length else zero)
            for k in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, length):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    state = np.empty((rows, 2 * _POOL), dtype=np.uint64)
    for k in range(2 * _POOL):
        value = pool[k % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, k] = value ^ (value >> _XSHIFT)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def raw_streams(seed_path: tuple, first: int, count: int,
                words: int) -> np.ndarray:
    """The first ``words`` raw 64-bit outputs of ``count`` consecutive
    streams, as a (count, words) uint64 array.

    Row ``r`` equals ``derive_rng(*seed_path, first + r).bit_generator
    .random_raw(words)`` bitwise. The seed sequences of all rows are hashed
    at once; each row then sets the state of one PCG64, local to the call,
    and reads its words.
    """
    prefix = [w for v in _entropy(*seed_path) for w in _words(v)]
    out = np.empty((count, words), dtype=np.uint64)
    bitgen = np.random.PCG64(0)
    stop = first + count
    lo = first
    while lo < stop:  # rows whose index has the same number of words
        width = len(_words(lo))
        hi = min(stop, 1 << 32 * width)
        entropy = np.empty((hi - lo, len(prefix) + width), dtype=np.uint32)
        entropy[:, :len(prefix)] = prefix
        entropy[:, len(prefix):] = [_words(j) for j in range(lo, hi)]
        for r, (s0, s1, s2, s3) in enumerate(_seed_states(entropy).tolist(),
                                             lo - first):
            inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            out[r] = bitgen.random_raw(words)
        lo = hi
    return out


def truncated_normal_from(unit, scale: float):
    """Truncated normal draws (see :func:`truncated_normal`) from standard
    uniform doubles in ``[0, 1)``, mapped the way ``Generator.uniform``
    maps them."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    u = _U_LO + (_U_HI - _U_LO) * unit
    if scale == 0.0:
        return np.zeros_like(np.asarray(u, dtype=float))
    return scale * ndtri(u)


def truncated_normal(rng: np.random.Generator, scale: float,
                     size=None) -> np.ndarray:
    """Draw from a zero-mean Gaussian truncated to ``[-2 scale, 2 scale]``.

    Uses the inverse-CDF transform, so a single uniform draw per sample
    keeps the stream consumption predictable. ``scale = 0`` returns zeros.
    """
    return truncated_normal_from(rng.random(size), scale)
