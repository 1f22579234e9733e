import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg as sla

from conftest import kernel_matrix, mean_and_variance
from pacsbo.errors import NumericError
from pacsbo.kernel_gp import (
    GridDomain,
    KernelConfig,
    SampleSet,
    gp_fit,
    info_gain,
    lattice_table,
    mean_rkhs_norm,
    observation_update,
    predictive,
    reciprocal_cov_integral,
    with_targets,
)
from pacsbo.safeopt_core import confidence_bounds
from pacsbo.seeding import derive_rng
from pacsbo.subdomain import DomainMask, global_mask, partition_masks

# Hand-derived reference values, frozen. The kernel value is
# (1 + sqrt(3) d / l) exp(-sqrt(3) d / l); the scalar-GP numbers follow
# from a one-sample fit with unit prior variance and noise 0.1.
K_D01_L01 = 0.4833577245965077
K_D005_L01 = 0.7848876539574506
SCALAR_WEIGHT = 1.9801980198019802       # 2.0 / 1.01
SCALAR_MEAN_AT_005 = 1.5542329781335655  # k * w
SCALAR_VAR_AT_005 = 0.39005086204472206  # 1 - k^2 / 1.01
SCALAR_INFO_GAIN = 2.30756025842063      # 0.5 ln(101)
THREE_PT_RECIPROCAL = 1.4932632107985016

CFG = KernelConfig(lengthscale=0.1)


def make_samples(grid, indices, values0, values1=None):
    if values1 is None:
        values1 = [0.0] * len(indices)
    return SampleSet(grid, indices, {0: values0, 1: values1})


def dense_posterior(params, y, noise, cfg, query):
    """Straight dense-solve oracle for the posterior equations."""
    k_aa = kernel_matrix(params, params, cfg) + noise ** 2 * np.eye(len(y))
    k_q = kernel_matrix(params, query, cfg)
    sol = np.linalg.solve(k_aa, y)
    mean = k_q.T @ sol
    var = 1.0 - np.sum(k_q * np.linalg.solve(k_aa, k_q), axis=0)
    return mean, var


def kernel_value(a, b):
    return kernel_matrix(np.array([[a]]), np.array([[b]]), CFG)[0, 0]


def test_kernel_closed_form_values():
    assert kernel_value(0.0, 0.1) == pytest.approx(K_D01_L01, abs=1e-15)
    assert kernel_value(0.5, 0.55) == pytest.approx(K_D005_L01, abs=1e-15)
    assert kernel_value(0.3, 0.3) == 1.0


def test_kernel_matrix_symmetric_and_near_psd():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(30, 2))
    k = kernel_matrix(x, x, CFG)
    assert np.allclose(k, k.T)
    assert np.linalg.eigvalsh(k).min() > -1e-10
    assert np.allclose(np.diag(k), 1.0)


@pytest.mark.parametrize("resolution", [100, (50, 50), (4, 7), (3, 4, 5)])
def test_lattice_table_gathers_the_kernel_matrix(resolution):
    grid = GridDomain.uniform(resolution)
    table, code = lattice_table(grid, CFG)
    assert len(table) == np.prod([2 * r - 1 for r in grid.resolution])
    # bitwise the Matern 3/2 formula on the norm of each lattice offset
    res = np.array(grid.resolution)
    offsets = (np.indices(tuple(2 * res - 1)).reshape(grid.dim, -1).T
               - (res - 1)) / res
    s = (math.sqrt(3.0) / CFG.lengthscale) * np.sqrt(
        np.sum(np.square(offsets), axis=1))
    assert np.array_equal(table, (1.0 + s) * np.exp(-s))
    gram = table[code[:, None] - code + len(table) // 2]
    rows = slice(None, None, 7)  # keeps the 50x50 oracle block small
    np.testing.assert_allclose(
        gram[rows], kernel_matrix(grid.points[rows], grid.points, CFG),
        rtol=1e-13, atol=0)
    assert np.array_equal(gram, gram.T)
    assert np.all(np.diag(gram) == 1.0)


def test_lattice_table_built_once_per_grid_and_kernel():
    table, code = lattice_table(GridDomain.uniform((50, 50)), CFG)
    again = lattice_table(GridDomain.uniform((50, 50)), KernelConfig(0.1))
    assert again[0] is table and again[1] is code
    assert not table.flags.writeable and not code.flags.writeable
    other, _ = lattice_table(GridDomain.uniform((50, 50)), KernelConfig(0.3))
    assert not np.array_equal(other, table)


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(lengthscale=0.0)


def test_grid_is_cell_centered_row_major():
    grid = GridDomain.uniform((2, 3))
    assert grid.dim == 2
    assert grid.num_points == 6
    assert grid.cell_volume == pytest.approx(1.0 / 6.0)
    np.testing.assert_allclose(grid.points[0], [0.25, 1.0 / 6.0])
    np.testing.assert_allclose(grid.points[1], [0.25, 0.5])
    np.testing.assert_allclose(grid.points[3], [0.75, 1.0 / 6.0])
    assert grid.points.min() > 0.0 and grid.points.max() < 1.0


def test_grid_validation():
    with pytest.raises(ValueError):
        GridDomain.uniform((0, 4))


def test_sample_set_append_returns_new_set():
    grid = GridDomain.uniform(10)
    s = make_samples(grid, [2, 5], [1.0, 2.0], [0.5, 0.5])
    s2 = s.append(7, {0: 3.0, 1: -0.1})
    assert len(s) == 2 and len(s2) == 3
    assert s2.indices == (2, 5, 7)
    np.testing.assert_allclose(s2.targets(1), [0.5, 0.5, -0.1])
    # original untouched
    assert s.indices == (2, 5)


def test_sample_set_validation():
    grid = GridDomain.uniform(10)
    with pytest.raises(ValueError):
        make_samples(grid, [11], [1.0])
    with pytest.raises(ValueError):
        SampleSet(grid, [1], {0: [1.0, 2.0], 1: [0.0, 0.0]})
    s = make_samples(grid, [1], [1.0])
    with pytest.raises(ValueError):
        s.append(2, {0: 1.0})  # channel 1 missing


def test_scalar_posterior_frozen_values():
    grid = GridDomain.uniform(20)  # points at 0.025, 0.075, ...
    s = make_samples(grid, [8], [2.0])  # x = 0.425
    post = gp_fit(s, 0, 0.1, CFG)
    assert post.weights[0] == pytest.approx(SCALAR_WEIGHT, abs=1e-14)
    mean, var = mean_and_variance(post, [9])  # x = 0.475
    assert mean[0] == pytest.approx(SCALAR_MEAN_AT_005, abs=1e-13)
    assert var[0] == pytest.approx(SCALAR_VAR_AT_005, abs=1e-13)
    assert info_gain(post) == pytest.approx(SCALAR_INFO_GAIN, abs=1e-12)
    assert mean_rkhs_norm(post) == pytest.approx(SCALAR_WEIGHT, abs=1e-13)


def test_prior_posterior():
    grid = GridDomain.uniform(10)
    s = SampleSet(grid, (), {0: (), 1: ()})
    post = gp_fit(s, 0, 0.1, CFG)
    mean, var = mean_and_variance(post, np.arange(grid.num_points))
    assert np.all(mean == 0.0) and np.all(var == 1.0)
    assert info_gain(post) == 0.0
    mask = global_mask(grid)
    var = predictive({0: post}, mask.indices())[1]
    assert reciprocal_cov_integral(var, mask) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        mean_rkhs_norm(post)


def test_posterior_matches_dense_oracle():
    rng = np.random.default_rng(42)
    grid = GridDomain.uniform(200)
    for _ in range(20):
        n = int(rng.integers(1, 11))
        idx = rng.choice(grid.num_points, size=n, replace=False)
        y = rng.normal(size=n)
        s = make_samples(grid, idx, y)
        noise = float(rng.uniform(0.01, 0.5))
        post = gp_fit(s, 0, noise, CFG)
        query = rng.choice(grid.num_points, size=50)
        mean, var = mean_and_variance(post, query)
        mean_o, var_o = dense_posterior(s.params, y, noise, CFG,
                                        grid.points[query])
        np.testing.assert_allclose(mean, mean_o, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(var, np.clip(var_o, 0, 1), rtol=1e-8, atol=1e-10)
        # factorization residual
        recon = post.chol @ post.chol.T
        target = post.gram + noise ** 2 * np.eye(n)
        assert np.max(np.abs(recon - target)) <= 1e-8 * np.max(np.abs(target))


def test_posterior_interpolates_with_small_noise():
    grid = GridDomain.uniform(100)
    idx = [10, 40, 80]
    y = [1.0, -0.5, 0.25]
    s = make_samples(grid, idx, y)
    post = gp_fit(s, 0, 1e-4, CFG)
    mean, var = mean_and_variance(post, s.indices)
    np.testing.assert_allclose(mean, y, atol=1e-6)
    assert np.all(var < 1e-6)
    assert np.all(var >= 0.0)


def test_variance_bounds_and_monotonicity():
    rng = np.random.default_rng(7)
    grid = GridDomain.uniform(150)
    idx = list(rng.choice(grid.num_points, size=12, replace=False))
    y = list(rng.normal(size=12))
    small = make_samples(grid, idx[:5], y[:5])
    big = make_samples(grid, idx, y)
    post_small = gp_fit(small, 0, 0.05, CFG)
    post_big = gp_fit(big, 0, 0.05, CFG)
    _, var_small = mean_and_variance(post_small, np.arange(grid.num_points))
    _, var_big = mean_and_variance(post_big, np.arange(grid.num_points))
    assert np.all(var_big <= var_small + 1e-9)
    assert np.all((var_big >= 0) & (var_big <= 1))


def test_observation_update_matches_full_refit():
    rng = np.random.default_rng(3)
    grid = GridDomain.uniform(60)
    idx = list(rng.choice(grid.num_points, size=6, replace=False))
    y = list(rng.normal(size=6))
    for s in (make_samples(grid, idx, y), make_samples(grid, [], [])):
        post = gp_fit(s, 0, 0.05, CFG)
        new_idx = np.array([30, 0, int(idx[0]), 59])
        values = np.array([0.7, -1.2, 2.0, 0.0])
        means, var_q, v = predictive({0: post}, np.arange(grid.num_points))
        mean_q = means[0]
        k_n = (kernel_matrix(grid.points[new_idx], grid.points, CFG)
               - v[:, new_idx].T @ v)
        mean, var = observation_update(mean_q, var_q, mean_q[new_idx],
                                       var_q[new_idx], k_n, values, 0.05)
        assert mean.shape == var.shape == (4, grid.num_points)
        for j, (a, value) in enumerate(zip(new_idx, values)):
            refit = gp_fit(s.append(a, {0: value, 1: 0.0}), 0, 0.05, CFG)
            mean_r, var_r = mean_and_variance(refit, np.arange(grid.num_points))
            np.testing.assert_allclose(mean[j], mean_r, rtol=0, atol=1e-10)
            np.testing.assert_allclose(var[j], var_r, rtol=0, atol=1e-10)


def two_channel_posteriors(grid, idx, noise=0.05, cfg=CFG, seed=0):
    rng = np.random.default_rng(seed)
    s = make_samples(grid, idx, rng.normal(size=len(idx)),
                     rng.normal(size=len(idx)))
    return {i: gp_fit(s, i, noise, cfg) for i in (0, 1)}


def test_a_negative_variance_logs_once_for_both_clamps(caplog):
    """A region's one ``predictive`` variance is clamped twice, by the
    covariance integral and by the confidence bounds; a value below the
    dust level logs one warning, not one per clamp."""
    grid = GridDomain.uniform(30)
    post = gp_fit(make_samples(grid, (4, 12, 20), [0.1, 0.3, -0.2]), 0,
                  0.01, CFG)
    broken = replace(post, chol=0.5 * post.chol)  # var = 1 - 4 |v|^2
    mask = global_mask(grid)
    caplog.set_level(logging.WARNING, logger="pacsbo.kernel_gp")
    pred = predictive({0: broken}, mask.indices())
    assert pred[1].min() < -1.0
    reciprocal_cov_integral(pred[1], mask)
    confidence_bounds(pred, {0: 2.0}, mask)
    clamps = [r for r in caplog.records if "clamped" in r.getMessage()]
    assert len(clamps) == 1


def test_predictive_columns_of_a_subset():
    """Reading columns from a mask-wide predictive is predicting over the
    subset: the solve and the variance are bitwise equal, column by column,
    for subsets of two or more points. The means agree to rounding only;
    gemv's rounding of one output depends on its position in the vector."""
    rng = np.random.default_rng(17)
    grid = GridDomain.uniform((50, 50))
    idx = rng.choice(grid.num_points, size=40, replace=False)
    posteriors = two_channel_posteriors(grid, idx)
    means, var, v = predictive(posteriors, np.arange(grid.num_points))
    for size in (2, 5, 32, 700):
        sub = np.sort(rng.choice(grid.num_points, size=size, replace=False))
        means_s, var_s, v_s = predictive(posteriors, sub)
        np.testing.assert_array_equal(v[:, sub], v_s)
        np.testing.assert_array_equal(var[sub], var_s)
        for i in posteriors:
            np.testing.assert_allclose(means[i][sub], means_s[i], rtol=0,
                                       atol=1e-12)


def test_predictive_rejects_channels_fitted_differently():
    grid = GridDomain.uniform(30)
    posteriors = two_channel_posteriors(grid, [3, 10, 20])
    moved = two_channel_posteriors(grid, [3, 10, 21])
    noisier = two_channel_posteriors(grid, [3, 10, 20], noise=0.1)
    wider = two_channel_posteriors(grid, [3, 10, 20],
                                   cfg=KernelConfig(lengthscale=0.2))
    every = np.arange(grid.num_points)
    for other in (moved, noisier, wider):
        with pytest.raises(ValueError):
            predictive({0: posteriors[0], 1: other[1]}, every)
    # equal fits need not be the same objects
    twin = two_channel_posteriors(grid, [3, 10, 20], seed=1)
    predictive({0: posteriors[0], 1: twin[1]}, every)


def test_reciprocal_cov_integral_three_point_grid():
    grid = GridDomain.uniform(3)
    s = make_samples(grid, [1], [0.0])
    post = gp_fit(s, 0, 0.1, CFG)
    mask = global_mask(grid)
    r = reciprocal_cov_integral(predictive({0: post}, mask.indices())[1],
                                mask)
    assert r == pytest.approx(THREE_PT_RECIPROCAL, abs=1e-10)
    # an empty region or one of the wrong length is no mask at all
    with pytest.raises(ValueError, match="empty"):
        DomainMask(grid, np.zeros(3, dtype=bool))
    with pytest.raises(ValueError, match="does not match"):
        DomainMask(grid, np.ones(4, dtype=bool))


def test_reciprocal_cov_integral_grows_with_data():
    rng = np.random.default_rng(5)
    grid = GridDomain.uniform(100)
    idx = list(rng.choice(grid.num_points, size=10, replace=False))
    y = list(rng.normal(size=10))
    mask = global_mask(grid)
    r_prev = 0.0
    for n in (2, 5, 10):
        post = gp_fit(make_samples(grid, idx[:n], y[:n]), 0, 0.05, CFG)
        r = reciprocal_cov_integral(predictive({0: post}, mask.indices())[1],
                                    mask)
        assert r > r_prev
        r_prev = r


def test_cholesky_jitter_recovers_degenerate_gram():
    grid = GridDomain.uniform(10)
    # Three copies of the same point with negligible noise: the Gram is
    # numerically singular and needs the jitter retry.
    s = make_samples(grid, [3, 3, 3], [1.0, 1.0, 1.0])
    post = gp_fit(s, 0, 1e-9, CFG)
    assert np.all(np.isfinite(post.weights))


def test_gp_fit_rejects_bad_noise():
    grid = GridDomain.uniform(10)
    s = make_samples(grid, [1], [1.0])
    with pytest.raises(ValueError):
        gp_fit(s, 0, 0.0, CFG)


def test_info_gain_increases_with_samples():
    grid = GridDomain.uniform(50)
    s = make_samples(grid, [5, 25, 45], [1.0, 2.0, 0.5])
    gains = []
    sub = SampleSet(grid, (), {0: (), 1: ()})
    for j, i in enumerate(s.indices):
        sub = sub.append(i, {0: s.targets(0)[j], 1: 0.0})
        gains.append(info_gain(gp_fit(sub, 0, 0.1, CFG)))
    assert gains[0] < gains[1] < gains[2]


def table_block(grid, rows, cols):
    """Kernel block gathered straight from the lattice table."""
    table, code = lattice_table(grid, CFG)
    return table[code[rows][:, None] - code[cols] + len(table) // 2]


def block_predictive(posteriors, kq):
    """``predictive`` from its kernel block ``kq`` of sample rows and query
    columns."""
    first = next(iter(posteriors.values()))
    v = sla.solve_triangular(first.chol, kq, lower=True)
    means = {i: kq.T @ post.weights for i, post in posteriors.items()}
    return means, 1.0 - np.sum(v * v, axis=0), v


def clustered_posteriors(resolution, n, seed=0):
    """Two channels fitted on ``n`` points drawn from the lower-left
    quarter of the grid, so tilde and hat are proper subsets of it."""
    grid = GridDomain.uniform(resolution)
    box = np.flatnonzero(np.all(grid.points < 0.5, axis=1))
    idx = derive_rng(seed, "memo").choice(box, size=n, replace=False)
    return grid, two_channel_posteriors(grid, idx, noise=0.01, seed=seed)


@pytest.mark.parametrize("resolution", [100, (50, 50)])
def test_predictive_equals_the_coordinate_reference_bitwise(resolution):
    """``predictive`` equals the posterior built on a table gather bitwise,
    and that gather the coordinate kernel block to a few ulps."""
    for n in (3, 12, 40):
        grid, posteriors = clustered_posteriors(resolution, n)
        rows = list(posteriors[0].indices)
        samples = SampleSet(grid, rows, {i: np.zeros(n) for i in (0, 1)})
        masks = partition_masks(samples)
        assert masks[0].member.sum() < masks[1].member.sum() < grid.num_points
        for mask in masks:
            query = mask.indices()
            kq = table_block(grid, rows, query)
            np.testing.assert_allclose(
                kq, kernel_matrix(grid.points[rows], grid.points[query], CFG),
                rtol=1e-13, atol=0)
            got = predictive(posteriors, query)
            want = block_predictive(posteriors, kq)
            for i in posteriors:
                np.testing.assert_array_equal(got[0][i], want[0][i])
            np.testing.assert_array_equal(got[1], want[1])
            np.testing.assert_array_equal(got[2], want[2])


def test_one_factorization_serves_both_channels_bitwise():
    rng = np.random.default_rng(4)
    grid = GridDomain.uniform((20, 20))
    idx = rng.choice(grid.num_points, size=9, replace=False)
    s = make_samples(grid, idx, rng.normal(size=9), rng.normal(size=9))
    reward = gp_fit(s, 0, 0.01, CFG)
    derived = with_targets(reward, s.targets(1))
    refit = gp_fit(s, 1, 0.01, CFG)
    assert derived.chol is reward.chol and derived.indices == refit.indices
    np.testing.assert_array_equal(derived.chol, refit.chol)
    np.testing.assert_array_equal(derived.weights, refit.weights)
    np.testing.assert_array_equal(reward.weights, gp_fit(s, 0, 0.01,
                                                         CFG).weights)


@pytest.mark.parametrize("resolution", [100, (50, 50)])
def test_gram_gathered_from_memo_rows_keeps_the_norm(resolution):
    # the fit's Gram is a C-ordered table gather: an F-ordered copy sends
    # the product w^T K w down another BLAS path and moves it by an ulp
    for seed in range(20):
        rng = derive_rng(seed, "gram")
        grid = GridDomain.uniform(resolution)
        n = int(rng.integers(2, 30))
        idx = rng.choice(grid.num_points, size=n, replace=False)
        post = gp_fit(make_samples(grid, idx, rng.normal(size=n)), 0,
                      float(rng.uniform(0.01, 0.3)), CFG)
        gram = table_block(grid, idx, idx)
        assert post.gram.flags.c_contiguous
        np.testing.assert_array_equal(post.gram, gram)
        np.testing.assert_allclose(
            gram, kernel_matrix(grid.points[idx], grid.points[idx], CFG),
            rtol=1e-13, atol=0)
        assert mean_rkhs_norm(replace(post, gram=gram)) == mean_rkhs_norm(post)
