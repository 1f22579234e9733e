"""The batched stream rebuild against the per-draw streams it replaces.

``raw_streams`` and the sampler's chunk parts must equal, bit for bit, what
``derive_rng`` and ``_draw_interpolation_parts`` give one draw at a time.
"""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtri

from pacsbo import rkhs_function
from pacsbo.kernel_gp import GridDomain, KernelConfig, SampleSet
from pacsbo.rkhs_function import (
    SamplerConfig,
    _draw_chunk_parts,
    _draw_interpolation_parts,
    interpolating_norms,
)
from pacsbo.seeding import _U_HI, _U_LO, derive_rng, raw_streams, truncated_normal
from pacsbo.subdomain import global_mask, partition_masks

# seed paths of 1 to 5 components; the draw index makes 2 to 6
SEED_PATHS = [
    (11,),
    (0, 0),
    (3, "pac", 2),
    (2 ** 32 + 5, "rollout", 0, 7),
    (9, 2 ** 64 + 1, "x", 0, 2 ** 32 + 5),
    (2 ** 64 + 1, 1, 2, 3, 4),
]


def reference_streams(seed_path, first, count, words):
    return np.array([derive_rng(*seed_path, first + r).bit_generator
                     .random_raw(words) for r in range(count)],
                    dtype=np.uint64).reshape(count, words)


@pytest.mark.parametrize("seed_path", SEED_PATHS)
@pytest.mark.parametrize("first", [0, 5, 2 ** 32 - 3])
def test_raw_streams_equal_per_draw_streams(seed_path, first):
    # from 2**32 - 3 the draw index grows from one 32-bit word to two
    got = raw_streams(seed_path, first, 6, 11)
    assert got.dtype == np.uint64 and got.shape == (6, 11)
    assert np.array_equal(got, reference_streams(seed_path, first, 6, 11))


def test_raw_streams_of_no_words_and_no_rows():
    assert raw_streams((1, 2), 0, 3, 0).shape == (3, 0)
    assert raw_streams((1, 2), 4, 0, 5).shape == (0, 5)


@pytest.mark.parametrize("seed_path, first", [((-1,), 0), ((4, "a", -2), 0),
                                              ((4,), -1)])
def test_negative_component_raises_like_derive_rng(seed_path, first):
    with pytest.raises(ValueError):
        derive_rng(*seed_path, first)
    with pytest.raises(ValueError):
        raw_streams(seed_path, first, 2, 3)


def test_truncated_normal_is_the_inverse_cdf_of_a_clipped_uniform():
    for scale in (0.0, 0.01, 1.5):
        for size in (None, 1, 257):
            got = truncated_normal(derive_rng(8, size or 0), scale, size)
            u = derive_rng(8, size or 0).uniform(_U_LO, _U_HI, size=size)
            want = (np.zeros_like(np.asarray(u, dtype=float)) if scale == 0
                    else scale * ndtri(u))
            assert type(got) is type(want)
            assert np.array_equal(got, want)


def reference_parts(seed_path, first, count, m, noise_std, t, n):
    parts = [_draw_interpolation_parts(derive_rng(*seed_path, first + r), m,
                                       noise_std, t, n)
             for r in range(count)]
    return [np.array([p[k] for p in parts]).reshape(count, -1)
            for k in range(3)]


@pytest.mark.parametrize("m", [1, 2, 4, 100, 2500, 3_000_000_000, 2 ** 32])
@pytest.mark.parametrize("num_tail", [1, 6, 95])
@pytest.mark.parametrize("noise_std", [0.0, 0.01])
def test_chunk_parts_equal_per_draw_parts(monkeypatch, m, num_tail,
                                          noise_std):
    redraws = []

    def counting_rng(*path):
        redraws.append(path)
        return derive_rng(*path)

    monkeypatch.setattr(rkhs_function, "derive_rng", counting_rng)
    seed_path, first, count, n = (7, "pac", 2 ** 32 + 5), 13, 9, 4
    got = _draw_chunk_parts(seed_path, first, count, m, noise_std, num_tail,
                            n)
    want = reference_parts(seed_path, first, count, m, noise_std, num_tail, n)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
    if m >= 3_000_000_000 and num_tail > 1:
        # a Lemire leftover below m is likely, or (m = 2**32) the 32-bit
        # rule does not apply: those draws come from their own stream
        assert len(redraws) > 0
    if m == 2 ** 32:
        assert len(redraws) == count


def test_chunk_parts_of_one_member_take_no_integer_words():
    # integers(0, 1) consumes nothing, so the uniforms start at word 0
    tails, tail_u, eps = _draw_chunk_parts((5,), 0, 3, 1, 0.01, 4, 2)
    assert not tails.any()
    raw = raw_streams((5,), 0, 3, 4)
    assert np.array_equal(tail_u, -1.0 + 2.0 * ((raw >> np.uint64(11))
                                                 * 2.0 ** -53))


def sampler_case(resolution, idx):
    grid = GridDomain.uniform(resolution)
    x = grid.points[idx].sum(axis=1)
    return SampleSet(grid, idx, {0: np.sin(6.0 * x), 1: np.cos(4.0 * x)})


def test_threads_running_the_sampler_at_once_match_a_serial_run():
    kernel, cfg = KernelConfig(lengthscale=0.1), SamplerConfig()
    one = sampler_case(100, [22, 30, 41, 57])
    two = sampler_case((20, 20), [45, 52, 168, 230, 301])
    calls = [(s, i, mask, (4, mask.label, i))
             for s in (one, two) for mask in partition_masks(s)
             for i in (0, 1)]

    def run(call):
        s, i, mask, seed_path = call
        return interpolating_norms(s, i, 0.01, kernel, mask, cfg, seed_path,
                                   150, start_index=3)

    serial = [run(c) for c in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(run, calls, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_sampler_norms_follow_the_per_draw_streams(monkeypatch):
    # the norms of the batched parts equal those of the per-draw parts
    kernel, cfg = KernelConfig(lengthscale=0.1), SamplerConfig(num_centers=40)
    s = sampler_case(100, [22, 30, 41, 57, 80])
    mask = global_mask(s.grid)

    def norms():
        return interpolating_norms(s, 0, 0.01, kernel, mask, cfg, (2, "n"),
                                   70, start_index=9)

    got = norms()
    monkeypatch.setattr(rkhs_function, "_draw_chunk_parts",
                        lambda *a: tuple(reference_parts(*a)))
    assert np.array_equal(got, norms())
