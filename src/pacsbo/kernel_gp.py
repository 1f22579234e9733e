"""Kernel, discrete domain, sample storage and Gaussian process posterior.

The domain is the unit box ``[0, 1]^n`` discretized into a cell-centered
uniform lattice. All optimization and all integrals happen on that grid,
which keeps set operations (safe set, expanders, sub-domain masks) exact
and cheap.

The Gaussian process is the standard noisy-interpolation posterior

    mu(a)     = k_A(a)^T (K_A + noise^2 I)^-1 y
    sigma2(a) = k(a, a) - k_A(a)^T (K_A + noise^2 I)^-1 k_A(a)

computed through a Cholesky factorization of the regularized Gram matrix.
The kernel is Matern 3/2 with unit output scale, so prior variance is one
everywhere and posterior variances live in ``[0, 1]``. Every sample and
query, and every center of a kernel expansion, is a grid point, so every
kernel block (Gram, posterior, expander test, sampler, expansions) is
gathered by grid index from one lattice-offset table (:func:`kernel_block`).
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import linalg as sla

from .errors import NumericError

log = logging.getLogger(__name__)

_JITTER = 1e-8
_VAR_CLAMP_WARN = -1e-9


@dataclass(frozen=True)
class KernelConfig:
    """Matern 3/2 kernel with unit output scale; ``lengthscale`` is the
    single free hyperparameter.
    """
    lengthscale: float = 0.1

    def __post_init__(self):
        if not self.lengthscale > 0:
            raise ValueError("lengthscale must be positive")


def matern32(dist, lengthscale: float):
    """Matern 3/2 correlation for (arrays of) distances."""
    s = (math.sqrt(3.0) / lengthscale) * np.asarray(dist, dtype=float)
    return (1.0 + s) * np.exp(-s)


@dataclass(frozen=True)
class GridDomain:
    """Cell-centered uniform lattice on the unit box.

    ``resolution[k]`` cells along dimension ``k`` put points at
    ``(i + 0.5) / resolution[k]``, so a midpoint Riemann sum with
    ``cell_volume`` weights integrates constants over ``[0, 1]^n``
    exactly. Points are ordered row-major (last dimension fastest).
    """
    resolution: tuple[int, ...]
    points: np.ndarray = field(repr=False, compare=False)
    spacing: tuple[float, ...]
    cell_volume: float

    @classmethod
    def uniform(cls, resolution) -> "GridDomain":
        if np.isscalar(resolution):
            resolution = (int(resolution),)
        resolution = tuple(int(r) for r in resolution)
        if len(resolution) == 0 or any(r < 1 for r in resolution):
            raise ValueError("resolution must be positive in every dimension")
        axes = [(np.arange(r) + 0.5) / r for r in resolution]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        points.setflags(write=False)
        spacing = tuple(1.0 / r for r in resolution)
        return cls(resolution=resolution, points=points, spacing=spacing,
                   cell_volume=float(np.prod(spacing)))

    @property
    def dim(self) -> int:
        return len(self.resolution)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]


@functools.lru_cache(maxsize=32)
def lattice_table(grid: GridDomain, cfg: KernelConfig):
    """``(table, code)`` with ``k(points[a], points[b]) = table[code[a] -
    code[b] + len(table) // 2]``: the stationary kernel at every lattice
    offset, ``prod(2 r_k - 1)`` values in row-major order, and each point's
    index in that shape; exactly symmetric. Built once per grid and kernel;
    both arrays are read-only."""
    res = np.array(grid.resolution)
    shape = tuple(2 * res - 1)
    offsets = (np.indices(shape).reshape(grid.dim, -1).T - (res - 1)) / res
    table = matern32(np.sqrt(np.sum(np.square(offsets), axis=1)),
                     cfg.lengthscale)
    points = np.indices(grid.resolution).reshape(grid.dim, -1)
    code = np.ravel_multi_index(points, shape)
    table.setflags(write=False)
    code.setflags(write=False)
    return table, code


def kernel_block(grid: GridDomain, cfg: KernelConfig, rows, cols) -> np.ndarray:
    """``k(points[rows[a]], points[cols[b]])`` for the grid indices ``rows``
    and ``cols``, a C-ordered gather from the grid's :func:`lattice_table`,
    the one source of kernel values for the GP, the expander test, the
    sampler and the kernel expansions."""
    table, code = lattice_table(grid, cfg)
    rows, cols = (np.asarray(i, dtype=np.intp) for i in (rows, cols))
    return table[(code[rows] + len(table) // 2)[:, None] - code[cols]]


class SampleSet:
    """Measured parameters with aligned reward and constraint channels.

    Parameters are stored as flat grid indices, which enforces that every
    sample lies on the grid. The two measurement channels are keyed by the
    function index ``i``: 0 is the reward, 1 the constraint. Instances are
    immutable; :meth:`append` returns a new set with the observation added
    at the end.
    """

    def __init__(self, grid: GridDomain, indices=(), values=None):
        self.grid = grid
        self.indices = tuple(int(j) for j in indices)
        values = {} if values is None else dict(values)
        self._values = {}
        for i in (0, 1):
            col = tuple(float(v) for v in values.get(i, ()))
            if len(col) != len(self.indices):
                raise ValueError(f"channel {i} has {len(col)} values for "
                                 f"{len(self.indices)} parameters")
            self._values[i] = col
        for j in self.indices:
            if not 0 <= j < grid.num_points:
                raise ValueError(f"sample index {j} is off the grid")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def params(self) -> np.ndarray:
        """Sample coordinates, shape (N, n)."""
        return self.grid.points[list(self.indices)]

    def targets(self, i: int) -> np.ndarray:
        return np.asarray(self._values[int(i)], dtype=float)

    def append(self, index: int, measurements: dict) -> "SampleSet":
        """New sample set with one observation (all channels) appended."""
        missing = [i for i in self._values if i not in measurements]
        if missing:
            raise ValueError(f"measurements missing for channels {missing}")
        values = {i: col + (float(measurements[i]),)
                  for i, col in self._values.items()}
        return SampleSet(self.grid, self.indices + (int(index),), values)


@dataclass(frozen=True)
class GpPosterior:
    """Cholesky-form posterior for one measurement channel.

    ``chol`` is the lower factor of ``K + noise^2 I`` over the samples, the
    points ``indices`` of ``grid``, and ``weights`` solves ``(K + noise^2 I)
    w = y``, so the posterior mean is the kernel expansion with ``weights``.
    """
    kernel: KernelConfig
    noise_std: float
    grid: GridDomain = field(repr=False)
    indices: tuple
    gram: np.ndarray = field(repr=False)
    chol: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def num_samples(self) -> int:
        return len(self.indices)


def _chol_with_jitter(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, retrying once with a small diagonal jitter."""
    try:
        return sla.cholesky(a, lower=True)
    except np.linalg.LinAlgError:
        # routine for the sampler whenever a grid point was measured twice
        log.debug("Cholesky failed, retrying with jitter %.0e", _JITTER)
    try:
        return sla.cholesky(a + _JITTER * np.eye(a.shape[0]), lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Cholesky factorization failed after jitter "
                           f"retry: {exc}") from exc


def gp_fit(samples: SampleSet, i: int, noise_std: float,
           cfg: KernelConfig) -> GpPosterior:
    """Fit the posterior of channel ``i`` to the current samples.

    An empty sample set yields the prior (zero mean, unit variance).
    """
    if not noise_std > 0:
        raise ValueError("noise_std must be positive")
    gram = kernel_block(samples.grid, cfg, samples.indices, samples.indices)
    chol = _chol_with_jitter(gram + noise_std ** 2 * np.eye(len(samples)))
    return with_targets(GpPosterior(cfg, float(noise_std), samples.grid,
                                    samples.indices, gram, chol, None),
                        samples.targets(i))


def with_targets(post: GpPosterior, y) -> GpPosterior:
    """``post`` refitted to the targets ``y`` on its Gram and factor: equal
    to :func:`gp_fit` of the channel that measured ``y``, bitwise."""
    return replace(post, weights=sla.cho_solve((post.chol, True),
                                               np.asarray(y, dtype=float)))


def predictive(posteriors: dict, query):
    """Posterior at the grid indices ``query`` of channels fitted on the
    same samples, noise and kernel, which share the variance and ``v = L^-1
    k_A(query)``: ``(means, var, v)`` with ``means`` keyed by channel,
    ``var`` unclamped and one column of ``v`` per query point; ``k(x, y) -
    v_x^T v_y`` is the posterior covariance between two query points. A
    negative ``var`` is logged here, once for all the readers that clamp
    it (the covariance integral and the confidence bounds)."""
    first, *rest = posteriors.values()
    if any(p.kernel != first.kernel or p.noise_std != first.noise_std
           or p.grid != first.grid or p.indices != first.indices
           for p in rest):
        raise ValueError("channels must share samples, noise and kernel")
    kq = kernel_block(first.grid, first.kernel, first.indices, query)
    v = sla.solve_triangular(first.chol, kq, lower=True)
    means = {i: kq.T @ post.weights for i, post in posteriors.items()}
    return means, _warn_negative(1.0 - np.sum(v * v, axis=0)), v


def _warn_negative(var: np.ndarray) -> np.ndarray:
    """``var``, logging once if it holds a value below -1e-9 (beyond
    numerical dust), which its readers clamp."""
    if np.any(var < _VAR_CLAMP_WARN):
        log.warning("posterior variance clamped from %.3e", float(var.min()))
    return var


def clamp_variance(var: np.ndarray) -> np.ndarray:
    """Clamp to ``[0, 1]``; the variance's producer logged a large clamp."""
    return np.clip(var, 0.0, 1.0)


def observation_update(mean_q, var_q, mean_a, var_a, k_n, values,
                       noise_std: float):
    """Mean and clamped variance at the query after one fictitious
    observation ``values[j]`` at each ``a[j]`` separately (one row each):
    with ``s2 = sigma_a^2 + noise^2`` and ``k_n`` the posterior covariance
    of ``a`` and the query, ``mu' = mu_q + k_n (y - mu_a) / s2`` and
    ``sigma'^2 = sigma_q^2 - k_n^2 / s2``; ``var_a`` is unclamped."""
    s2 = (var_a + noise_std ** 2)[:, None]
    if np.any(s2 <= 0):
        raise NumericError("fictitious observation lost positivity")
    mean = mean_q + k_n * ((np.asarray(values) - mean_a)[:, None] / s2)
    return mean, clamp_variance(_warn_negative(var_q - k_n * k_n / s2))


def mean_rkhs_norm(post: GpPosterior) -> float:
    """Kernel norm of the posterior mean, ``sqrt(w^T K w)``.

    Requires at least one sample (the prior mean has no expansion).
    """
    if post.num_samples == 0:
        raise ValueError("mean_rkhs_norm needs a fitted posterior")
    w = post.weights
    return math.sqrt(max(float(w @ post.gram @ w), 0.0))


def reciprocal_cov_integral(var: np.ndarray, mask) -> float:
    """Reciprocal of the posterior variance integrated over a region.

    ``var`` is the unclamped :func:`predictive` variance at the member
    points of ``mask`` (a :class:`~pacsbo.subdomain.DomainMask`), and the
    integral the midpoint Riemann sum of its clamp. Large values mean the
    region is well explored.
    """
    total = float(np.sum(clamp_variance(var)) * mask.grid.cell_volume)
    if total <= 0:
        raise NumericError("variance integral vanished; cannot invert")
    return 1.0 / total


def info_gain(post: GpPosterior) -> float:
    """Mutual-information surrogate ``0.5 log det(I + K / noise^2)``."""
    n = post.num_samples
    if n == 0:
        return 0.0
    return float(np.sum(np.log(np.diag(post.chol))) - n * math.log(post.noise_std))
