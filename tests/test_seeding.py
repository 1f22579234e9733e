"""The sampler's stream layout and the seeded helpers around it.

A pool reads one ``PCG64(SeedSequence(seed_path))`` stream, and draw ``j``
is the block of ``W = 2T + N`` words at position ``j * W``: ``T`` tail
positions, ``T`` tail coefficients and ``N`` noise values. A chunk of draws
read in one go must equal the same draws read one at a time, each from a
stream advanced to its position, which is what
``sample_interpolating_function`` of ``conftest`` does.
"""
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtri

from conftest import first_norms

from pacsbo import rkhs_function
from pacsbo.kernel_gp import GridDomain, KernelConfig, SampleSet
from pacsbo.rkhs_function import (
    DrawPool,
    SamplerConfig,
    _draws,
    interpolating_norms,
)
from pacsbo.seeding import (
    _U_HI,
    _U_LO,
    _entropy,
    derive_rng,
    truncated_normal,
    truncated_normal_from,
)
from pacsbo.subdomain import global_mask, partition_masks

# seed paths of 1 to 5 components, with str components, 0 and values of
# more than one 32-bit word
SEED_PATHS = [
    (11,),
    (0, 0),
    (3, "pac", 2),
    (2 ** 32 + 5, "rollout", 0, 7),
    (9, 2 ** 64 + 1, "x", 0, 2 ** 32 + 5),
    (2 ** 64 + 1, 1, 2, 3, 4),
]


def stream_at(seed_path, first, t, n):
    """The stream of ``seed_path``, advanced to draw ``first``."""
    stream = np.random.PCG64(np.random.SeedSequence(_entropy(*seed_path)))
    stream.advance(first * (2 * t + n))
    return stream


def chunk(seed_path, first, count, m, noise_std, t, n):
    assert count <= rkhs_function._CHUNK
    return next(_draws(stream_at(seed_path, first, t, n), count, m,
                       noise_std, t, n))


def per_draw(seed_path, first, count, m, noise_std, t, n):
    parts = [chunk(seed_path, first + r, 1, m, noise_std, t, n)
             for r in range(count)]
    return [np.concatenate([p[k] for p in parts]) for k in range(3)]


def sampler_case(resolution, idx):
    grid = GridDomain.uniform(resolution)
    x = grid.points[idx].sum(axis=1)
    return SampleSet(grid, idx, {0: np.sin(6.0 * x), 1: np.cos(4.0 * x)})


def plain_stream(seed_path):
    entropy = [zlib.crc32(p.encode()) if isinstance(p, str) else p
               for p in seed_path]
    return np.random.PCG64(np.random.SeedSequence(entropy))


@pytest.mark.parametrize("seed_path", SEED_PATHS)
@pytest.mark.parametrize("first", [0, 5, 2 ** 32 - 3])
def test_raw_streams_equal_per_draw_streams(seed_path, first):
    # one read of six draws equals six reads, each advanced to its draw
    got = chunk(seed_path, first, 6, 100, 0.01, 3, 2)
    for g, w in zip(got, per_draw(seed_path, first, 6, 100, 0.01, 3, 2)):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("seed_path", SEED_PATHS)
def test_parts_are_the_words_of_one_plain_stream(seed_path):
    # draws 2..4 of T = 3 tails, N = 2 samples: 8 words each, from word 16
    m, noise_std, t, n = 2500, 0.01, 3, 2
    raw = plain_stream(seed_path).random_raw(40)[16:].reshape(3, 8)
    u = (raw >> np.uint64(11)) * 2.0 ** -53
    tails, tail_u, eps = chunk(seed_path, 2, 3, m, noise_std, t, n)
    assert tails.dtype == np.int64
    assert np.array_equal(tails, np.floor(u[:, :3] * m))
    assert np.array_equal(tail_u, -1.0 + 2.0 * u[:, 3:6])
    assert np.array_equal(eps, truncated_normal_from(u[:, 6:], noise_std))
    # the same stream is derive_rng's, and u is its Generator.random()
    assert np.array_equal(u.ravel(), derive_rng(*seed_path).random(40)[16:])


@pytest.mark.parametrize("m", [1, 2, 2500, 3_000_000_000, 2 ** 32 + 1])
def test_tail_position_stays_below_m_at_the_largest_uniform(m):
    top = np.uint64(2 ** 64 - 1)  # the word that maps to u = 1 - 2**-53

    class TopStream:
        def random_raw(self, size):
            return np.full(size, top)

    tails, tail_u, _ = next(_draws(TopStream(), 2, m, 0.0, 4, 1))
    assert (tails == m - 1).all()
    assert (tail_u < 1.0).all()


@pytest.mark.parametrize("seed_path, count", [((-1,), 0), ((4, "a", -2), 0),
                                              ((4,), -1)])
def test_negative_component_raises_like_derive_rng(seed_path, count):
    # a negative seed component fails the pool, a negative count its read
    if count == 0:
        with pytest.raises(ValueError):
            derive_rng(*seed_path)
    s = sampler_case(100, [22, 30, 41, 57])
    with pytest.raises(ValueError):
        first_norms(s, (0,), 0.01, KernelConfig(lengthscale=0.1),
                    global_mask(s.grid), SamplerConfig(), seed_path, count)


def test_truncated_normal_is_the_inverse_cdf_of_a_clipped_uniform():
    for scale in (0.0, 0.01, 1.5):
        for size in (None, 1, 257):
            got = truncated_normal(derive_rng(8, size or 0), scale, size)
            u = derive_rng(8, size or 0).uniform(_U_LO, _U_HI, size=size)
            want = (np.zeros_like(np.asarray(u, dtype=float)) if scale == 0
                    else scale * ndtri(u))
            assert type(got) is type(want)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [1, 2, 4, 100, 2500, 3_000_000_000, 2 ** 32])
@pytest.mark.parametrize("num_tail", [1, 6, 95])
@pytest.mark.parametrize("noise_std", [0.0, 0.01])
def test_chunk_parts_equal_per_draw_parts(m, num_tail, noise_std):
    seed_path, first, count, n = (7, "pac", 2 ** 32 + 5), 13, 9, 4
    got = chunk(seed_path, first, count, m, noise_std, num_tail, n)
    want = per_draw(seed_path, first, count, m, noise_std, num_tail, n)
    for g, w, shape in zip(got, want, [num_tail, num_tail, n]):
        assert g.shape == w.shape == (count, shape)
        assert g.dtype == w.dtype and np.array_equal(g, w)
    tails, tail_u, eps = got
    assert tails.min() >= 0 and tails.max() < m
    assert tail_u.min() >= -1.0 and tail_u.max() < 1.0
    assert np.abs(eps).max() <= 2.0 * noise_std


def test_threads_running_the_sampler_at_once_match_a_serial_run():
    kernel, cfg = KernelConfig(lengthscale=0.1), SamplerConfig()
    one = sampler_case(100, [22, 30, 41, 57])
    two = sampler_case((20, 20), [45, 52, 168, 230, 301])
    calls = [(s, i, mask, (4, label, i))
             for s in (one, two)
             for label, mask in zip(("tilde", "hat", "global"),
                                    partition_masks(s))
             for i in (0, 1)]

    def run(call):
        s, i, mask, seed_path = call
        pool = DrawPool(s, (i,), 0.01, kernel, mask, cfg, seed_path)
        interpolating_norms(pool, 3)
        return interpolating_norms(pool, 150)

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
    # the norms of the chunked parts equal those of the per-draw parts
    kernel, cfg = KernelConfig(lengthscale=0.1), SamplerConfig(num_centers=40)
    s = sampler_case(100, [22, 30, 41, 57, 80])
    mask = global_mask(s.grid)

    def norms():
        pool = DrawPool(s, (0,), 0.01, kernel, mask, cfg, (2, "n"))
        interpolating_norms(pool, 9)
        return interpolating_norms(pool, 70)

    draws = rkhs_function._draws

    def per_draw_chunks(stream, count, *shape):
        # the same stream, read one draw at a time
        for lo in range(0, count, rkhs_function._CHUNK):
            parts = [next(draws(stream, 1, *shape))
                     for _ in range(min(rkhs_function._CHUNK, count - lo))]
            yield tuple(np.concatenate([p[k] for p in parts])
                        for k in range(3))

    got = norms()
    monkeypatch.setattr(rkhs_function, "_draws", per_draw_chunks)
    assert np.array_equal(got, norms())
