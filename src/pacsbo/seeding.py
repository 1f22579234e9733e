"""Deterministic random-stream derivation.

Every source of randomness in the package is a ``numpy.random.Generator``
derived from an integer seed plus a path identifying the consumer
(iteration number, partition index, draw index, a module tag, ...).
Streams derived this way are independent of each other and of execution
order, so batched work can be scheduled across threads without changing
any drawn number. String path components are folded to integers with a
fixed checksum, so the mapping never varies across runs or platforms.
"""
from __future__ import annotations

import zlib

import numpy as np
from scipy.special import ndtr, ndtri

# truncated_normal keeps draws within two scales of zero: the range of the
# uniform it maps through the inverse normal CDF
_U_LO, _U_HI = ndtr(-2.0), ndtr(2.0)


def _component(p) -> int:
    if isinstance(p, str):
        return zlib.crc32(p.encode("utf-8"))
    return int(p)


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Independent generator for the stream identified by ``(seed, *path)``."""
    return np.random.default_rng(np.random.SeedSequence(
        (int(seed),) + tuple(_component(p) for p in path)))


def truncated_normal(rng: np.random.Generator, scale: float,
                     size=None) -> np.ndarray:
    """Draw from a zero-mean Gaussian truncated to ``[-2 scale, 2 scale]``.

    Uses the inverse-CDF transform, so a single uniform draw per sample
    keeps the stream consumption predictable. ``scale = 0`` returns zeros.
    """
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    u = rng.uniform(_U_LO, _U_HI, size=size)
    if scale == 0.0:
        return np.zeros_like(np.asarray(u, dtype=float))
    return scale * ndtri(u)
