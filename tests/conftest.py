"""Shared test helpers."""

import csv

import numpy as np
from scipy import linalg as sla

from pacsbo.kernel_gp import _chol_with_jitter, clamp_variance, matern32
from pacsbo.predictor import (
    MlpPredictor,
    _forward_normalized,
    _init_layers,
    _loss_and_gradients,
)
from pacsbo.rkhs_function import (
    DrawPool,
    RkhsFunction,
    _draws,
    interpolating_norms,
)
from pacsbo.safeopt_core import TIE_RTOL
from pacsbo.seeding import _entropy, derive_rng


def kernel_matrix(x, y, kernel):
    """Coordinate reference of the kernel: the Gram block ``k(x_i, y_j)``
    for row-stacked points, from their Euclidean distances. The library
    reads every kernel value from its lattice table instead."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    dist = np.sqrt(np.sum(np.square(x[:, None, :] - y[None, :, :]), axis=-1))
    return matern32(dist, kernel.lengthscale)


def reference_values(f, points):
    """Values of the expansion ``f`` at row-stacked points, on coordinates."""
    return kernel_matrix(points, f.centers, f.kernel) @ f.coefficients


def reference_norm(f):
    """Kernel norm of the expansion ``f``, on coordinates."""
    gram = kernel_matrix(f.centers, f.centers, f.kernel)
    return float(np.sqrt(max(float(f.coefficients @ gram @ f.coefficients),
                             0.0)))


def mean_and_variance(post, query):
    """One channel's posterior mean and clamped variance at the grid
    indices ``query``."""
    query = np.asarray(query, dtype=np.intp)
    return post.mean[query], clamp_variance(post.var[query])


def constant_predictor(value, input_len=100):
    """Trace-independent predictor: no hidden layers, zero weights, and a
    bias chosen so the softplus output equals ``value``."""
    b = float(np.log(np.expm1(value)))
    return MlpPredictor(
        input_len=input_len,
        hidden=(),
        weights=(np.zeros((1, input_len)),),
        biases=(np.array([b]),),
        feat_mean=np.zeros(input_len),
        feat_scale=np.ones(input_len),
        final_loss=0.0,
    )


def most_uncertain(field, candidates):
    """Reference acquisition on one region: the lowest candidate index whose
    max-channel width ties with the widest candidate's."""
    idx = np.flatnonzero(candidates)
    if not len(idx):
        return None
    w = np.max([field.width(i)[idx] for i in field.channels], axis=0)
    return int(idx[w >= (1.0 - TIE_RTOL) * w.max()][0])


def read_csv_rows(path):
    """Round-trip reader: returns (header, rows of string dicts)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, row, strict=True)) for row in reader]
    return header, rows


def gradient_check_error(input_len: int, hidden, seed: int,
                         batch: int = 5, step: float = 1e-5) -> float:
    """Norm-relative gap between backprop and central finite differences.

    Builds a random network and batch, then compares the analytic gradient
    of the training loss against the symmetric difference quotient for
    every weight and bias. The return value is
    ||g - g_fd|| / max(||g||, ||g_fd||).
    """
    rng = derive_rng(seed, "grad-check")
    sizes = (input_len,) + tuple(hidden) + (1,)
    weights, biases = _init_layers(sizes, rng)
    x = rng.normal(size=(batch, input_len))
    y = rng.uniform(0.5, 3.0, size=batch)

    _, gw, gb = _loss_and_gradients(weights, biases, x, y)
    analytic = np.concatenate([g.ravel() for g in gw + gb])

    def loss_at(flat):
        ws, bs, pos = [], [], 0
        for w in weights:
            ws.append(flat[pos:pos + w.size].reshape(w.shape))
            pos += w.size
        for b in biases:
            bs.append(flat[pos:pos + b.size])
            pos += b.size
        out, _ = _forward_normalized(ws, bs, x)
        return float(np.mean((out - y) ** 2))

    theta = np.concatenate([w.ravel() for w in weights]
                           + [b.ravel() for b in biases])
    numeric = np.empty_like(theta)
    for k in range(theta.size):
        bump = np.zeros_like(theta)
        bump[k] = step
        numeric[k] = (loss_at(theta + bump) - loss_at(theta - bump)) / (2 * step)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def first_norms(samples, channels, noise_std, kernel, mask, cfg, seed_path,
                count):
    """Norms of the first ``count`` draws of a fresh ``DrawPool``, one
    column per channel."""
    pool = DrawPool(samples, channels, noise_std, kernel, mask, cfg, seed_path)
    return interpolating_norms(pool, count)


def sample_interpolating_function(samples, i, noise_std, kernel, mask, cfg,
                                  seed_path, j):
    """Per-draw reference of the interpolating sampler: the random
    expansion pinned to the measurements of channel ``i`` that is draw
    ``j`` of ``seed_path``, the draw a ``DrawPool`` on that path takes the
    norm of as its ``j``-th (stream layout in the ``rkhs_function`` module
    docstring). It opens a stream of its own and advances it to the draw.

    The first ``N`` centers are the sample locations; their coefficients
    solve ``K_AA a = (y + eps) - K_At a_tail`` with ``eps`` truncated
    Gaussian measurement noise. The tail centers are drawn uniformly
    from the member points of ``mask``.
    """
    region_idx = mask.indices()
    n, num_tail = len(samples), cfg.num_centers - len(samples)
    stream = np.random.PCG64(np.random.SeedSequence(_entropy(*seed_path)))
    stream.advance(j * (2 * num_tail + n))
    tail_pos, tail_u, eps = (part[0] for part in next(_draws(
        stream, 1, region_idx.shape[0], noise_std, num_tail, n)))
    tail_coeffs = cfg.coeff_bound * tail_u
    params = samples.params
    tail_points = mask.grid.points[region_idx[tail_pos]]
    chol = _chol_with_jitter(kernel_matrix(params, params, kernel))
    cross = kernel_matrix(params, tail_points, kernel)
    rhs = samples.targets(i) + eps - cross @ tail_coeffs
    head_coeffs = sla.cho_solve((chol, True), rhs)
    index = np.concatenate([samples.indices, region_idx[tail_pos]])
    coeffs = np.concatenate([head_coeffs, tail_coeffs])
    return RkhsFunction(samples.grid, kernel, index, coeffs)
