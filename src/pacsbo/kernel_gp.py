"""Kernel, discrete domain, sample storage and Gaussian process posterior.

The domain is the unit box ``[0, 1]^n`` discretized into a cell-centered
uniform lattice. All optimization and all integrals happen on that grid,
which keeps set operations (safe set, expanders, sub-domain masks) exact
and cheap.

The Gaussian process is the standard noisy-interpolation posterior

    mu(a)     = k_A(a)^T (K_A + noise^2 I)^-1 y
    sigma2(a) = k(a, a) - k_A(a)^T (K_A + noise^2 I)^-1 k_A(a)

computed through a Cholesky factorization of the regularized Gram matrix,
solved over the whole grid once (:func:`gp_fit`) and then extended per sample.
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

    ``chol`` is the lower factor ``L`` of ``K + noise^2 I`` over the
    samples, the points ``indices`` of ``grid``, and ``weights`` solves ``(K
    + noise^2 I) w = y``, so the posterior mean is the kernel expansion with
    ``weights``. ``v = L^-1 K(samples, grid)``, the unclamped variance ``1 -
    sum(v^2)`` and ``mean = v^T L^T w`` cover the grid; ``k(x, y) - v_x^T
    v_y`` is the posterior covariance of two grid points. Channels on one
    sample set share all but ``weights`` and ``mean``."""
    kernel: KernelConfig
    noise_std: float
    grid: GridDomain = field(repr=False)
    indices: tuple
    gram: np.ndarray = field(repr=False)
    chol: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    var: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False, default=None)
    mean: np.ndarray = field(repr=False, default=None)

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
    """Fit the posterior of channel ``i`` to the current samples, with one
    solve over the grid; no samples yield the prior (zero mean, unit
    variance). A negative variance is logged here, once for all the readers
    that clamp it (the covariance integral and the confidence bounds)."""
    if not noise_std > 0:
        raise ValueError("noise_std must be positive")
    grid, idx = samples.grid, samples.indices
    gram = kernel_block(grid, cfg, idx, idx)
    chol = _chol_with_jitter(gram + noise_std ** 2 * np.eye(len(samples)))
    kq = kernel_block(grid, cfg, idx, np.arange(grid.num_points))
    v = sla.solve_triangular(chol, kq, lower=True)
    var = _warn_negative(1.0 - np.sum(v * v, axis=0))
    return with_targets(GpPosterior(cfg, float(noise_std), grid, idx, gram,
                                    chol, v, var), samples.targets(i))


def extend(post: GpPosterior, j: int) -> GpPosterior:
    """``post`` with grid point ``j`` appended to its samples in O(N P), to
    rounding :func:`gp_fit`'s: with ``l = v[:, j] = L^-1 k_A(j)`` and ``d =
    sqrt(var_j + noise^2)``, ``L`` gains the row ``[l, d]`` and ``v`` the row
    ``(k(j, .) - l^T v) / d``; weights and mean are unset
    (:func:`with_targets`), and a negative variance is logged as in
    :func:`gp_fit`."""
    j, n, grid, l = int(j), post.num_samples, post.grid, post.v[:, j]
    d = math.sqrt(max(float(post.var[j]), 0.0) + post.noise_std ** 2)
    chol = np.zeros((n + 1, n + 1))
    chol[:n, :n], chol[n, :n], chol[n, n] = post.chol, l, d
    k_j = kernel_block(grid, post.kernel, [j], np.arange(grid.num_points))[0]
    row, idx = (k_j - l @ post.v) / d, post.indices + (j,)
    return replace(post, indices=idx, chol=chol, weights=None, mean=None,
                   gram=kernel_block(grid, post.kernel, idx, idx),
                   v=np.vstack([post.v, row]),
                   var=_warn_negative(post.var - row * row))


def with_targets(post: GpPosterior, y) -> GpPosterior:
    """``post`` refitted to the targets ``y`` on its Gram and factor, with
    its grid-wide mean ``v^T L^T w`` read off ``v`` with no solve: equal to
    :func:`gp_fit` of the channel that measured ``y``, bitwise."""
    w = sla.cho_solve((post.chol, True), np.asarray(y, dtype=float))
    return replace(post, weights=w, mean=(post.chol.T @ w) @ post.v)


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

    ``var`` is a posterior's unclamped variance at every grid point, and
    the integral the midpoint Riemann sum of its clamp over the member
    points of ``mask`` (a :class:`~pacsbo.subdomain.DomainMask`).
    Large values mean the region is well explored.
    """
    total = float(np.sum(clamp_variance(var[mask.member]))
                  * mask.grid.cell_volume)
    if total <= 0:
        raise NumericError("variance integral vanished; cannot invert")
    return 1.0 / total


def info_gain(post: GpPosterior) -> float:
    """Mutual-information surrogate ``0.5 log det(I + K / noise^2)``."""
    return float(np.sum(np.log(np.diag(post.chol)))
                 - post.num_samples * math.log(post.noise_std))
