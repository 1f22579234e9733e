"""Deterministic random-stream derivation.

Every source of randomness in the package is a numpy PCG64 stream seeded
by ``SeedSequence`` from an integer seed plus a path identifying the
consumer (iteration number, partition index, a module tag, ...). Streams
derived this way are independent of each other and of execution order,
so batched work can be scheduled in any order without changing any
drawn number. String path components are folded to integers with a fixed
checksum, so the mapping never varies across runs or platforms.

Most consumers take a ``Generator`` from :func:`derive_rng`. The
interpolating sampler reads such a stream forward through numpy's public
``PCG64.random_raw``: draw ``j`` is the block of ``W = 2T + N`` words from
word ``j * W`` (the layout, and the ``m / 2**53`` bias bound of its tail
positions, are in :mod:`pacsbo.rkhs_function`).
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


def _entropy(seed, *path) -> tuple:
    return (int(seed),) + tuple(_component(p) for p in path)


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Independent generator for the stream identified by ``(seed, *path)``."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, *path)))


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
