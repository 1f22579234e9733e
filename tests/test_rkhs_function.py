import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    first_norms,
    kernel_matrix,
    reference_norm,
    reference_values,
    sample_interpolating_function,
)

import pacsbo
from pacsbo import harness, kernel_gp, rkhs_function
from pacsbo.kernel_gp import (
    GridDomain,
    KernelConfig,
    SampleSet,
    gp_fit,
    lattice_table,
    mean_rkhs_norm,
)
from pacsbo.rkhs_function import (
    DrawPool,
    RkhsFunction,
    SamplerConfig,
    evaluate,
    interpolating_norms,
    rkhs_norm,
    sample_random_function,
    scale_to_norm,
)
from pacsbo.seeding import derive_rng
from pacsbo.subdomain import DomainMask, global_mask, partition_masks

CFG = KernelConfig(lengthscale=0.1)


def kernel_value(a, b, kernel):
    return kernel_matrix(np.atleast_2d(a), np.atleast_2d(b), kernel)[0, 0]


def naive_norm(f):
    # independent quadratic-form oracle, plain double loop
    total = 0.0
    for s in range(f.centers.shape[0]):
        for t in range(f.centers.shape[0]):
            total += (f.coefficients[s] * f.coefficients[t]
                      * kernel_value(f.centers[s], f.centers[t], f.kernel))
    return np.sqrt(max(total, 0.0))


def naive_eval(f, point):
    return sum(f.coefficients[s] * kernel_value(f.centers[s], point, f.kernel)
               for s in range(f.centers.shape[0]))


def make_samples(grid, indices, values0):
    zeros = [0.0] * len(indices)
    return SampleSet(grid, indices, {0: list(values0), 1: zeros})


def test_single_center_norm_is_coefficient_magnitude():
    grid = GridDomain.uniform(20)
    f = RkhsFunction(grid, CFG, [6], [-2.5])  # x = 0.325
    assert rkhs_norm(f) == pytest.approx(2.5, abs=1e-14)
    assert evaluate(f)[6] == pytest.approx(-2.5, abs=1e-14)
    np.testing.assert_array_equal(f.centers, [[0.325]])


def test_coincident_centers_add():
    f = RkhsFunction(GridDomain.uniform(10), CFG, [4, 4], [1.0, 0.5])
    assert rkhs_norm(f) == pytest.approx(1.5, abs=1e-12)


def test_expansion_validation():
    grid = GridDomain.uniform(10)
    for index, coeffs in (([1, 2], [1.0]), ([], []), ([10], [1.0]),
                          ([-1], [1.0])):
        with pytest.raises(ValueError):
            RkhsFunction(grid, CFG, index, coeffs)


def test_norm_matches_double_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = int(rng.integers(1, 12))
        grid = GridDomain.uniform((40,) * int(rng.integers(1, 3)))
        f = RkhsFunction(grid, CFG, rng.integers(0, grid.num_points, size=m),
                         rng.normal(size=m))
        assert rkhs_norm(f) == pytest.approx(naive_norm(f), abs=1e-10)
        j = int(rng.integers(grid.num_points))
        assert evaluate(f)[j] == pytest.approx(naive_eval(f, grid.points[j]),
                                               abs=1e-10)


@pytest.mark.parametrize("resolution", [100, (50, 50)])
def test_truth_on_the_lattice_matches_the_coordinate_reference(resolution):
    # table-gathered values and norms against the kernel on coordinates;
    # the values get an absolute bound because a truth crosses zero
    grid = GridDomain.uniform(resolution)
    params = dict(norm_target=2.0, safe_fraction=0.6)
    for seed in range(5):
        truth = harness.make_truth(params, grid, CFG, seed)
        np.testing.assert_allclose(
            truth.reward_values, reference_values(truth.reward, grid.points),
            rtol=0, atol=1e-13)
        assert rkhs_norm(truth.reward) == pytest.approx(
            reference_norm(truth.reward), rel=1e-13, abs=0)
        np.testing.assert_array_equal(truth.reward_values,
                                      evaluate(truth.reward))


def test_scale_to_norm_exact():
    rng = np.random.default_rng(2)
    f = RkhsFunction(GridDomain.uniform(50), CFG,
                     rng.integers(0, 50, size=20), rng.normal(size=20))
    g = scale_to_norm(f, 2.0)
    assert rkhs_norm(g) == pytest.approx(2.0, abs=1e-12)
    # shape preserved up to the scalar factor
    ratio = g.coefficients / f.coefficients
    assert np.allclose(ratio, ratio[0])
    with pytest.raises(ValueError):
        scale_to_norm(f, -1.0)


def test_random_function_uses_grid_centers_and_bounded_coefficients():
    grid = GridDomain.uniform(50)
    cfg = SamplerConfig(num_centers=100, coeff_bound=0.3)
    f = sample_random_function(grid, CFG, cfg, derive_rng(5))
    assert f.centers.shape == (100, 1)
    assert np.all(np.isin(f.centers[:, 0], grid.points[:, 0]))
    assert np.all(np.abs(f.coefficients) <= 0.3)


def test_random_function_norm_distribution_sane():
    # with 100 centers and unit coefficient bound the norms concentrate
    # around sqrt(100/3); allow wide statistical slack
    grid = GridDomain.uniform(1000)
    cfg = SamplerConfig()
    norms = [rkhs_norm(sample_random_function(grid, CFG, cfg, derive_rng(9, j)))
             for j in range(200)]
    assert 4.0 < np.mean(norms) < 7.5
    assert min(norms) > 0.5 and max(norms) < 14.0


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(num_centers=0)
    with pytest.raises(ValueError):
        SamplerConfig(coeff_bound=-0.1)


def test_interpolating_function_pins_measurements():
    grid = GridDomain.uniform(200)
    sigma = 0.05
    s = make_samples(grid, [20, 90, 150], [1.2, -0.4, 0.6])
    f = sample_interpolating_function(s, 0, sigma, CFG, global_mask(grid),
                                      SamplerConfig(), (1,), 0)
    vals = evaluate(f)[list(s.indices)]
    # interpolates the measurements up to the truncated noise draw
    assert np.all(np.abs(vals - s.targets(0)) <= 2.0 * sigma + 1e-9)
    assert f.centers.shape == (100, 1)
    np.testing.assert_allclose(f.centers[:3], s.params)


def test_interpolating_function_zero_tail_is_minimum_norm_interpolant():
    grid = GridDomain.uniform(100)
    s = make_samples(grid, [10, 50, 80], [1.0, 0.5, -0.2])
    f = sample_interpolating_function(s, 0, 0.0, CFG, global_mask(grid),
                                      SamplerConfig(num_centers=30, coeff_bound=0.0),
                                      (3,), 0)
    vals = evaluate(f)[list(s.indices)]
    np.testing.assert_allclose(vals, s.targets(0), atol=1e-9)
    assert np.all(f.coefficients[3:] == 0.0)
    # the pinned-only expansion is the GP mean with vanishing noise
    post = gp_fit(s, 0, 1e-6, CFG)
    assert rkhs_norm(f) == pytest.approx(mean_rkhs_norm(post), abs=1e-3)


def test_interpolating_function_validation():
    # a pool checks that its draws are well posed before it sets up
    grid = GridDomain.uniform(100)
    s = make_samples(grid, [10, 50, 80], [1.0, 0.5, -0.2])
    empty = SampleSet(grid, (), {0: (), 1: ()})
    for samples, mask, cfg, seed_path, match in (
            (s, global_mask(grid), SamplerConfig(num_centers=3), (0,),
             "must exceed"),
            (empty, global_mask(grid), SamplerConfig(), (0,), "one sample"),
            (s, global_mask(GridDomain.uniform(50)), SamplerConfig(), (0,),
             "different grids"),
            (s, global_mask(grid), SamplerConfig(), (), "base seed")):
        with pytest.raises(ValueError, match=match):
            DrawPool(samples, (0,), 0.01, CFG, mask, cfg, seed_path)
    pool = DrawPool(s, (0,), 0.01, CFG, global_mask(grid), SamplerConfig(),
                    (0,))
    with pytest.raises(ValueError, match="nonnegative"):
        interpolating_norms(pool, -1)
    assert interpolating_norms(pool, 0).shape == (0, 1)


def test_interpolating_function_region_restriction():
    grid = GridDomain.uniform(100)
    s = make_samples(grid, [40, 45, 50], [0.5, 0.6, 0.7])
    region = np.zeros(100, dtype=bool)
    region[30:70] = True
    mask = DomainMask(grid, region)
    f = sample_interpolating_function(s, 0, 0.01, CFG, mask, SamplerConfig(),
                                      (4,), 0)
    tail = f.centers[3:, 0]
    allowed = grid.points[region, 0]
    assert np.all(np.isin(tail, allowed))
    # an empty region is no mask at all
    with pytest.raises(ValueError, match="empty"):
        DomainMask(grid, np.zeros(100, dtype=bool))


def test_same_stream_reproduces_function():
    grid = GridDomain.uniform(100)
    s = make_samples(grid, [10, 50, 80], [1.0, 0.5, -0.2])
    mask = global_mask(grid)
    f1 = sample_interpolating_function(s, 0, 0.01, CFG, mask, SamplerConfig(),
                                       (123,), 7)
    f2 = sample_interpolating_function(s, 0, 0.01, CFG, mask, SamplerConfig(),
                                       (123,), 7)
    np.testing.assert_array_equal(f1.centers, f2.centers)
    np.testing.assert_array_equal(f1.coefficients, f2.coefficients)


def test_batched_norms_match_per_function_path():
    cfg = SamplerConfig()
    # 300 draws span more than one chunk of _CHUNK draws
    assert 300 > rkhs_function._CHUNK
    for s, mask in mask_cases():
        seed_path = (99, 1, mask.count)
        batched = first_norms(s, (0,), 0.01, CFG, mask, cfg, seed_path,
                              count=300)[:, 0]
        singles = np.array([
            rkhs_norm(sample_interpolating_function(s, 0, 0.01, CFG, mask,
                                                    cfg, seed_path, j))
            for j in range(300)
        ])
        np.testing.assert_allclose(batched, singles, atol=1e-9, rtol=1e-9,
                                   err_msg=str(mask.count))


def test_batched_norms_start_index_gives_stable_pooling():
    # the 300-point mask with 27 tail centers and the 50x50 global mask
    # take the position path, the 1-D 100-point global mask the member path
    grid = GridDomain.uniform(300)
    three = make_samples(grid, [50, 150, 250], [0.3, 0.1, -0.2])
    cases = list(mask_cases())
    for s, mask, cfg in ((three, global_mask(grid),
                          SamplerConfig(num_centers=30)),
                         (*cases[2], SamplerConfig()),
                         (*cases[-1], SamplerConfig())):
        assert mask.member.all()
        full = first_norms(s, (0,), 0.01, CFG, mask, cfg, (7,), count=90)
        pool = DrawPool(s, (0,), 0.01, CFG, mask, cfg, (7,))
        parts = [interpolating_norms(pool, c) for c in (30, 0, 40, 20)]
        np.testing.assert_array_equal(full, np.concatenate(parts),
                                      err_msg=str(mask.count))
        # the estimator's view: each channel's column, grown on demand
        assert np.array_equal(pool.norms(0, 90), full[:, 0])
        assert np.array_equal(pool.norms(0, 50), full[:50, 0])


@pytest.mark.parametrize("path", ["member", "position"])
def test_a_pool_sets_up_once(monkeypatch, path):
    # a pool factors the sample Gram and reads its kernel blocks once, in
    # its constructor; its growths only draw
    s, mask = list(mask_cases())[2 if path == "member" else -1]
    chols, blocks = [], []

    def counting(record, fn):
        return lambda *args: record.append(1) or fn(*args)

    monkeypatch.setattr(rkhs_function, "_chol_with_jitter",
                        counting(chols, rkhs_function._chol_with_jitter))
    monkeypatch.setattr(rkhs_function, "kernel_block",
                        counting(blocks, rkhs_function.kernel_block))
    pool = DrawPool(s, (0, 1), 0.01, CFG, mask, SamplerConfig(), (2,))
    for q in (20, 40, 60, 80, 100):  # five growths, read by both channels
        assert len(pool.norms(0, q)) == len(pool.norms(1, q)) == q
    assert len(chols) == 1
    assert len(blocks) == (2 if path == "member" else 1)


def mask_cases():
    """The tilde, hat and global masks of a 1-D, a 20x20 and a 50x50 sample
    set, from 6 points (the 50x50 tilde mask) to 2500 (its global mask)."""
    for resolution, idx in ((100, [22, 30, 41, 57]),
                            ((20, 20), [45, 52, 168, 230, 301]),
                            ((50, 50), [1020, 1022, 1070, 1072])):
        grid = GridDomain.uniform(resolution)
        x = grid.points[idx].sum(axis=1)
        s = SampleSet(grid, idx, {0: np.sin(6.0 * x), 1: np.cos(4.0 * x)})
        for mask in partition_masks(s):
            yield s, mask


def test_mask_cases_span_both_tail_paths():
    # interpolating_norms sums tails per member when m <= 3 T (T tail
    # centers) and gathers per position above; the cases test both
    num_tail = SamplerConfig().num_centers
    by_member = [mask.count <= 3 * (num_tail - len(s))
                 for s, mask in mask_cases()]
    assert any(by_member) and not all(by_member)


@pytest.mark.parametrize("count", [1, 64, 300])
def test_sampler_builds_no_kernel_block_above_one_chunk(monkeypatch, count):
    # every block comes from the lattice table, so once the table is built
    # the sampler never evaluates the kernel, and a call on the 1-D global
    # mask (member path) or the 50x50 one (position path) peaks below one
    # chunk's (64, T, T) tail-tail block
    def evaluated(*args):
        raise AssertionError("the sampler evaluated a kernel block")

    cfg = SamplerConfig()
    cases = list(mask_cases())
    for s, mask in (cases[2], cases[-1]):
        lattice_table(s.grid, CFG)
    monkeypatch.setattr(kernel_gp, "matern32", evaluated)
    for s, mask in (cases[2], cases[-1]):
        assert mask.member.all() and mask.count in (100, 2500)
        num_tail = cfg.num_centers - len(s)
        tracemalloc.start()
        try:
            first_norms(s, (0,), 0.01, CFG, mask, cfg, (3,), count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * num_tail * num_tail * 8, mask.count


@pytest.mark.parametrize("chunk", [1, 7, 64, 256])
def test_norms_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    cases = list(mask_cases())
    default = [first_norms(s, (1,), 0.01, CFG, mask, SamplerConfig(),
                           (6, mask.count), 300)
               for s, mask in cases]
    monkeypatch.setattr(rkhs_function, "_CHUNK", chunk)
    for (s, mask), want in zip(cases, default):
        got = first_norms(s, (1,), 0.01, CFG, mask, SamplerConfig(),
                          (6, mask.count), 300)
        assert np.array_equal(got, want), mask.count


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_channel_columns_equal_single_channel_calls(monkeypatch, chunk):
    # both channels read one seed path; each column of a pool's second
    # growth is bitwise a single-channel pool's, on masks of 6 to 2500
    # points
    monkeypatch.setattr(rkhs_function, "_CHUNK", chunk)
    for s, mask in mask_cases():
        def grown(channels):
            pool = DrawPool(s, channels, 0.01, CFG, mask, SamplerConfig(),
                            (8, mask.count))
            interpolating_norms(pool, 5)
            return interpolating_norms(pool, 70)

        shared = grown((0, 1))
        assert shared.shape == (70, 2)
        for k in (0, 1):
            assert np.array_equal(shared[:, k], grown((k,))[:, 0]), mask.count


def test_gp_mean_norm_equals_weight_expansion_norm():
    rng = np.random.default_rng(21)
    grid = GridDomain.uniform(400)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        idx = rng.choice(400, size=n, replace=False)
        s = make_samples(grid, idx, rng.normal(size=n))
        post = gp_fit(s, 0, 0.1, CFG)
        expansion = RkhsFunction(grid, CFG, s.indices, post.weights)
        assert mean_rkhs_norm(post) == pytest.approx(rkhs_norm(expansion), abs=1e-10)


REPEATED_POINT_CALL = """
from pacsbo.kernel_gp import GridDomain, KernelConfig, SampleSet
from pacsbo.rkhs_function import DrawPool, SamplerConfig
from pacsbo.subdomain import global_mask
grid = GridDomain.uniform(50)
s = SampleSet(grid, [10, 10, 30], {0: [0.2, 0.2, -0.1], 1: [0.0] * 3})
DrawPool(s, (0,), 0.01, KernelConfig(0.1), global_mask(grid),
         SamplerConfig(20), (0,)).norms(0, 4)
"""


def test_routine_jitter_retry_stays_off_stderr(caplog):
    """A repeated grid point makes the sample Gram singular. The sampler's
    jitter retry is routine, so it is logged at debug, and a fresh
    interpreter without logging configured prints nothing to stderr."""
    caplog.set_level(logging.DEBUG, logger="pacsbo.kernel_gp")
    exec(REPEATED_POINT_CALL, {})
    levels = {r.levelno for r in caplog.records if "jitter" in r.getMessage()}
    assert levels == {logging.DEBUG}
    env = dict(os.environ, PYTHONPATH=str(Path(pacsbo.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", REPEATED_POINT_CALL],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
