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
so :func:`interpolating_norms` fits each draw to every channel asked for;
the PAC estimator reads the norms.

Draw ``j`` of a seed path ``p`` is the ``W = 2T + N`` raw words from word
``j * W`` of one ``PCG64(SeedSequence(p))`` stream: ``T`` tail positions,
``T`` tail coefficients, then ``N`` noise values. Each word's top 53 bits
give a uniform ``u`` in ``[0, 1)``, mapped to the position ``floor(u * m)``
among ``m`` mask members (no rejection; bias at most ``m / 2**53``), the
coefficient ``-1 + 2u`` or a truncated normal noise value. A draw depends
only on ``p`` and ``j``, never on chunking or scheduling, and only numpy's
public ``advance`` and ``random_raw`` are used.
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


def _draws(seed_path, first, count, num_members, noise_std, num_tail,
           num_samples):
    """Random parts ``(tail positions, tail uniforms in [-1, 1), noise)`` of
    draws ``first`` to ``first + count - 1`` of ``seed_path``, yielded in
    chunks of ``_CHUNK`` draws, one row per draw (layout in the module
    docstring)."""
    if first < 0:
        raise ValueError(f"draw index must be nonnegative, got {first}")
    t, words = num_tail, 2 * num_tail + num_samples
    stream = np.random.PCG64(np.random.SeedSequence(_entropy(*seed_path)))
    stream.advance(first * words)
    for lo in range(0, count, _CHUNK):
        c = min(_CHUNK, count - lo)
        raw = stream.random_raw(c * words).reshape(c, words)
        unit = (raw >> np.uint64(11)) * 2.0 ** -53
        yield ((unit[:, :t] * num_members).astype(np.int64),
               -1.0 + 2.0 * unit[:, t:2 * t],
               truncated_normal_from(unit[:, 2 * t:], noise_std))


def _tail_region(samples: SampleSet, cfg: SamplerConfig,
                 mask: DomainMask) -> np.ndarray:
    """Grid indices the tail centers are drawn from, after checking that
    the draw is well posed."""
    n = len(samples)
    if n == 0:
        raise ValueError("interpolation needs at least one sample")
    if cfg.num_centers <= n:
        raise ValueError(f"num_centers ({cfg.num_centers}) must exceed the "
                         f"number of samples ({n})")
    if mask.grid != samples.grid:
        raise ValueError("region mask and samples lie on different grids")
    return mask.indices()


def interpolating_norms(samples: SampleSet, channels: tuple, noise_std: float,
                        kernel: KernelConfig, mask: DomainMask,
                        cfg: SamplerConfig, seed_path: tuple, count: int,
                        start_index: int = 0) -> np.ndarray:
    """Norms of ``count`` interpolating draws in chunks of ``_CHUNK``: entry
    ``(j, k)`` is draw ``start_index + j`` of ``seed_path`` (see the module
    docstring) fitted to channel ``channels[k]``. Channels share each draw's
    tail and noise, so a column is bitwise a call for its channel alone, and
    no norm depends on chunking or on how callers schedule the work.

    Every kernel block is read from the grid's :func:`lattice_table`. A
    draw's tail enters only as ``cross_alpha`` (N,), the sample-tail kernel
    times the tail coefficients, and ``tail_sq = alpha^T K_tt alpha``. A
    mask of ``m <= 3 T`` members (``T`` tail centers) sums each draw's
    coefficients per member into a histogram ``h``; ``h [K_mA | K_mm]``, with
    that (m, N + m) block read once per call, gives ``cross_alpha`` and
    ``h K_mm``, whose dot with ``h`` is ``tail_sq``. Larger masks read each
    draw's (N + T, T) block, sample rows then tail rows, into one reused
    buffer and multiply it by ``alpha``. Every product is one BLAS call of
    the same shape per draw, so a norm does not depend on the chunk size.
    """
    if len(seed_path) == 0:
        raise ValueError("seed_path must contain at least the base seed")
    region_idx = _tail_region(samples, cfg, mask)
    n = len(samples)
    num_tail, m = cfg.num_centers - n, len(region_idx)
    grid, idx = samples.grid, samples.indices
    gram_aa = kernel_block(grid, kernel, idx, idx)
    chol = _chol_with_jitter(gram_aa)
    by_member = m <= 3 * num_tail
    if by_member:
        k_m = kernel_block(grid, kernel, region_idx,
                           np.concatenate([idx, region_idx]))  # (m, N + m)
    else:
        table, code = lattice_table(grid, kernel)
        centre, sample_code = len(table) // 2, code[list(idx)]
        member_code = code[region_idx]
        pair = np.empty((n + num_tail, num_tail), dtype=code.dtype)
        block = np.empty((n + num_tail, num_tail))

    norms = np.empty((count, len(channels)))
    draws = _draws(seed_path, start_index, count, m, noise_std, num_tail, n)
    for lo, (tails, tail_u, eps) in zip(range(0, count, _CHUNK), draws):
        c = len(tails)  # tails: (c, T) member positions
        tail_coeffs = cfg.coeff_bound * tail_u
        if by_member:
            pos = (np.arange(c)[:, None] * m + tails).ravel()
            hist = np.bincount(pos, tail_coeffs.ravel(), c * m).reshape(c, m)
            prod = np.matmul(hist[:, None, :], k_m)[:, 0]  # (c, N + m)
            cross_alpha = prod[:, :n]
            tail_sq = np.matmul(prod[:, None, n:], hist[:, :, None])[:, 0, 0]
        else:
            cross_alpha, tail_sq = np.empty((c, n)), np.empty(c)
            for j, (t, alpha) in enumerate(zip(member_code[tails], tail_coeffs)):
                # kernel_block would give bitwise the same norms, but its
                # fresh index and value arrays cost about 13% per draw: 31-32
                # against 27-30 us, best of 15 calls of 200 draws on the
                # 50x50 global mask (2-core Xeon, one BLAS thread)
                rows = np.concatenate([sample_code, t]) + centre
                np.subtract(rows[:, None], t, out=pair)
                # all in range; "clip" lets take write into block unbuffered
                np.take(table, pair, out=block, mode="clip")
                prod = block @ alpha
                cross_alpha[j], tail_sq[j] = prod[:n], alpha @ prod[n:]
        for k, i in enumerate(channels):
            rhs = (samples.targets(i) + eps) - cross_alpha
            head = sla.cho_solve((chol, True), rhs.T).T[:, None, :]  # (c,1,N)
            sq = (np.matmul(np.matmul(head, gram_aa), head.transpose(0, 2, 1))
                  + 2.0 * np.matmul(head, cross_alpha[:, :, None]))[:, 0, 0]
            norms[lo:lo + c, k] = np.sqrt(np.maximum(sq + tail_sq, 0.0))
    return norms
