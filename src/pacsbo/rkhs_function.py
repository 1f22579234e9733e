"""Finite kernel expansions with computable norm, and samplers over them.

A function here is ``f = sum_s alpha_s k(x_s, .)`` with kernel norm
``sqrt(alpha^T K alpha)``. Every center is a grid point, held by its grid
index, so values and norm are gathered from the grid's lattice table.
:func:`sample_random_function` places centers uniformly on the grid and
draws coefficients uniformly from ``[-coeff_bound, coeff_bound]``. An
interpolating draw also pins the function to noisy measurements: the first
``N`` centers are the sample locations, with coefficients that solve the
interpolation system, and the ``T`` tail centers, drawn from a region mask,
stay random. Only the first ``N`` coefficients depend on the measurements,
so a :class:`DrawPool` fits each draw to every channel it holds; the PAC
estimator reads the norms.

Draw ``j`` of a seed path ``p`` is the ``W = 2T + N`` raw words from word
``j * W`` of one ``PCG64(SeedSequence(p))`` stream: ``T`` tail positions,
``T`` tail coefficients, then ``N`` noise values. Each word's top 53 bits
give a uniform ``u`` in ``[0, 1)``, mapped to the position ``floor(u * m)``
among ``m`` mask members (no rejection; bias at most ``m / 2**53``), the
coefficient ``-1 + 2u`` or a truncated normal noise value. A pool opens
the stream once and every growth reads it forward, so a draw depends only
on ``p`` and ``j``, never on chunking or on how the pool is grown, and
only numpy's public ``random_raw`` is used.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import linalg as sla

from .errors import NumericError
from .kernel_gp import (GridDomain, KernelConfig, SampleSet, _chol_with_jitter,
                        kernel_block, lattice_table)
from .seeding import _entropy, truncated_normal_from
from .subdomain import DomainMask

_NORM_DUST = -1e-10
_CHUNK = 64  # draws per batched norm evaluation


@dataclass(frozen=True)
class SamplerConfig:
    """Shape of the random-expansion generator.

    ``num_centers`` is the total number of kernel centers per drawn
    function; ``coeff_bound`` bounds the uniform coefficients of the
    unconstrained centers.
    """
    num_centers: int = 100
    coeff_bound: float = 1.0

    def __post_init__(self):
        if self.num_centers < 1:
            raise ValueError("num_centers must be at least 1")
        if self.coeff_bound < 0:
            raise ValueError("coeff_bound must be nonnegative")


@dataclass(frozen=True, eq=False)
class RkhsFunction:
    """Kernel expansion ``sum_s coefficients[s] * k(points[index[s]], .)``
    with its centers at the grid points ``index``; it holds arrays, so two
    functions compare equal only if they are one."""
    grid: GridDomain = field(repr=False)
    kernel: KernelConfig
    index: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        index = np.asarray(self.index, dtype=np.intp).ravel()
        coeffs = np.asarray(self.coefficients, dtype=float).ravel()
        if index.shape[0] != coeffs.shape[0]:
            raise ValueError("one coefficient per center is required")
        if index.shape[0] == 0:
            raise ValueError("an expansion needs at least one center")
        if index.min() < 0 or index.max() >= self.grid.num_points:
            raise ValueError("every center must be a grid point")
        index.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def centers(self) -> np.ndarray:
        """Center coordinates, ``grid.points[index]``, for coordinate
        oracles such as the benchmark's (``perfbench/``); the program reads
        ``index``."""
        return self.grid.points[self.index]


def evaluate(f: RkhsFunction) -> np.ndarray:
    """Function values at every grid point, in grid order."""
    every = np.arange(f.grid.num_points)
    return kernel_block(f.grid, f.kernel, every, f.index) @ f.coefficients


def rkhs_norm(f: RkhsFunction) -> float:
    """Kernel norm ``sqrt(alpha^T K alpha)`` of the expansion."""
    gram = kernel_block(f.grid, f.kernel, f.index, f.index)
    sq = float(f.coefficients @ gram @ f.coefficients)
    if sq < _NORM_DUST:
        raise NumericError(f"norm squared came out negative: {sq}")
    return float(np.sqrt(max(sq, 0.0)))


def scale_to_norm(f: RkhsFunction, target: float) -> RkhsFunction:
    """Rescale the coefficients so the norm equals ``target`` exactly."""
    if target < 0:
        raise ValueError("target norm must be nonnegative")
    norm = rkhs_norm(f)
    if norm == 0.0:
        raise ValueError("cannot rescale a zero-norm function")
    return replace(f, coefficients=f.coefficients * (target / norm))


def sample_random_function(grid: GridDomain, kernel: KernelConfig,
                           cfg: SamplerConfig, rng: np.random.Generator) -> RkhsFunction:
    """Random expansion: grid-uniform centers, uniform coefficients.

    Stream consumption order is centers first, then coefficients.
    """
    idx = rng.integers(0, grid.num_points, size=cfg.num_centers)
    coeffs = rng.uniform(-cfg.coeff_bound, cfg.coeff_bound, size=cfg.num_centers)
    return RkhsFunction(grid, kernel, idx, coeffs)


def _draws(stream, count, num_members, noise_std, num_tail, num_samples):
    """Random parts ``(tail positions, tail uniforms in [-1, 1), noise)`` of
    the next ``count`` draws of ``stream``, yielded in chunks of ``_CHUNK``
    draws, one row per draw (layout in the module docstring)."""
    t, words = num_tail, 2 * num_tail + num_samples
    for lo in range(0, count, _CHUNK):
        c = min(_CHUNK, count - lo)
        raw = stream.random_raw(c * words).reshape(c, words)
        unit = (raw >> np.uint64(11)) * 2.0 ** -53
        yield ((unit[:, :t] * num_members).astype(np.int64),
               -1.0 + 2.0 * unit[:, t:2 * t],
               truncated_normal_from(unit[:, 2 * t:], noise_std))


class DrawPool:
    """One region's interpolating draws on ``seed_path``, fitted to each of
    ``channels``. Its sampler set-up (the checks, the samples' Gram and its
    factor, the region's kernel block or the position path's codes and
    buffers, the stream) is made once; growths read the stream forward."""

    def __init__(self, samples: SampleSet, channels: tuple, noise_std: float,
                 kernel: KernelConfig, mask: DomainMask, cfg: SamplerConfig,
                 seed_path: tuple):
        n, grid, idx = len(samples), samples.grid, samples.indices
        if n == 0:
            raise ValueError("interpolation needs at least one sample")
        if cfg.num_centers <= n:
            raise ValueError(f"num_centers ({cfg.num_centers}) must exceed "
                             f"the number of samples ({n})")
        if mask.grid != grid:
            raise ValueError("region mask and samples lie on different grids")
        if len(seed_path) == 0:
            raise ValueError("seed_path must contain at least the base seed")
        region, t = mask.indices(), cfg.num_centers - n
        self.m, self.t, self.noise_std = len(region), t, noise_std
        self.samples, self.channels, self.cfg = samples, channels, cfg
        self.gram = kernel_block(grid, kernel, idx, idx)
        self.chol = _chol_with_jitter(self.gram)
        self.k_m = None  # the member path's (m, N + m) block, if it takes it
        if self.m <= 3 * t:
            self.k_m = kernel_block(grid, kernel, region,
                                    np.concatenate([idx, region]))
        else:
            self.table, code = lattice_table(grid, kernel)
            self.sample_code, self.member_code = code[list(idx)], code[region]
            self.pair = np.empty((n + t, t), dtype=code.dtype)
            self.block = np.empty((n + t, t))
        self.stream = np.random.PCG64(
            np.random.SeedSequence(_entropy(*seed_path)))
        self.drawn = np.empty((len(channels), 0))  # one row per channel

    def norms(self, i: int, count: int) -> np.ndarray:
        """Norms of the first ``count`` draws fitted to channel ``i``."""
        if count > self.drawn.shape[1]:
            interpolating_norms(self, count - self.drawn.shape[1])
        return self.drawn[self.channels.index(i), :count]


def interpolating_norms(pool: DrawPool, count: int) -> np.ndarray:
    """Norms of ``pool``'s next ``count`` draws in chunks of ``_CHUNK``,
    also appended to ``pool.drawn``: entry ``(j, k)`` is the ``j``-th of
    them fitted to channel ``pool.channels[k]``. Channels share each draw's
    tail and noise, so a column is bitwise a single-channel pool's.

    Every kernel block is read from the grid's :func:`lattice_table`. A
    draw's tail enters only as ``cross_alpha`` (N,), the sample-tail kernel
    times the tail coefficients, and ``tail_sq = alpha^T K_tt alpha``. A
    mask of ``m <= 3 T`` members (``T`` tail centers) sums each draw's
    coefficients per member into a histogram ``h``; ``h [K_mA | K_mm]``, with
    that (m, N + m) block read once per pool, gives ``cross_alpha`` and
    ``h K_mm``, whose dot with ``h`` is ``tail_sq``. Larger masks read each
    draw's (N + T, T) block, sample rows then tail rows, into one reused
    buffer and multiply it by ``alpha``. Every product is one BLAS call of
    the same shape per draw, so a norm does not depend on the chunk size.
    """
    if count < 0:
        raise ValueError(f"draw count must be nonnegative, got {count}")
    samples, m, n = pool.samples, pool.m, len(pool.samples)
    norms = np.empty((count, len(pool.channels)))
    draws = _draws(pool.stream, count, m, pool.noise_std, pool.t, n)
    for lo, (tails, tail_u, eps) in zip(range(0, count, _CHUNK), draws):
        c = len(tails)  # tails: (c, T) member positions
        tail_coeffs = pool.cfg.coeff_bound * tail_u
        if pool.k_m is not None:
            pos = (np.arange(c)[:, None] * m + tails).ravel()
            hist = np.bincount(pos, tail_coeffs.ravel(), c * m).reshape(c, m)
            prod = np.matmul(hist[:, None, :], pool.k_m)[:, 0]  # (c, N + m)
            cross_alpha = prod[:, :n]
            tail_sq = np.matmul(prod[:, None, n:], hist[:, :, None])[:, 0, 0]
        else:
            cross_alpha, tail_sq = np.empty((c, n)), np.empty(c)
            pair, block, centre = pool.pair, pool.block, len(pool.table) // 2
            for j, (t, alpha) in enumerate(zip(pool.member_code[tails],
                                               tail_coeffs)):
                # kernel_block would give bitwise the same norms, but its
                # fresh index and value arrays cost about 13% per draw: 31-32
                # against 27-30 us, best of 15 calls of 200 draws on the
                # 50x50 global mask (2-core Xeon, one BLAS thread)
                rows = np.concatenate([pool.sample_code, t]) + centre
                np.subtract(rows[:, None], t, out=pair)
                # all in range; "clip" lets take write into block unbuffered
                np.take(pool.table, pair, out=block, mode="clip")
                prod = block @ alpha
                cross_alpha[j], tail_sq[j] = prod[:n], alpha @ prod[n:]
        for k, i in enumerate(pool.channels):
            rhs = (samples.targets(i) + eps) - cross_alpha
            head = sla.cho_solve((pool.chol, True), rhs.T).T[:, None, :]
            sq = (np.matmul(np.matmul(head, pool.gram),
                            head.transpose(0, 2, 1))
                  + 2.0 * np.matmul(head, cross_alpha[:, :, None]))[:, 0, 0]
            norms[lo:lo + c, k] = np.sqrt(np.maximum(sq + tail_sq, 0.0))
    pool.drawn = np.concatenate([pool.drawn, norms.T], axis=1)
    return norms
