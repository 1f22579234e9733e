"""Hull and enlargement masks."""

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import ConvexHull

import pacsbo.subdomain as subdomain_mod
from pacsbo.kernel_gp import GridDomain, SampleSet
from pacsbo.subdomain import (
    BOUNDARY_TOL,
    ENLARGEMENT,
    cross_dilation,
    global_mask,
    partition_masks,
)


def make_samples(grid, indices):
    vals = {0: [0.0] * len(indices), 1: [0.0] * len(indices)}
    return SampleSet(grid, indices, vals)


def hull_mask(grid, indices):
    return partition_masks(make_samples(grid, indices))[0]


def half_plane_oracle(grid, verts):
    """Grid points inside or on every edge of a CCW convex polygon."""
    expect = np.ones(grid.num_points, dtype=bool)
    for k in range(len(verts)):
        a, b = verts[k], verts[(k + 1) % len(verts)]
        cross = ((b[0] - a[0]) * (grid.points[:, 1] - a[1])
                 - (b[1] - a[1]) * (grid.points[:, 0] - a[0]))
        expect &= cross >= -BOUNDARY_TOL
    return expect


def test_interval_hull_spans_min_to_max():
    grid = GridDomain.uniform(100)
    i_lo, i_hi = 20, 60  # the grid points 0.205 and 0.605
    mask = hull_mask(grid, [i_hi, i_lo])
    x = grid.points[:, 0]
    expect = (x >= x[i_lo]) & (x <= x[i_hi])
    np.testing.assert_array_equal(mask.member, expect)


def test_single_sample_hull_is_singleton():
    grid = GridDomain.uniform(50)
    mask = hull_mask(grid, [17])
    assert mask.count == 1
    assert mask.indices()[0] == 17


def test_interval_enlargement_frozen_example():
    # hull [0.205, 0.605] scaled by 1.1 about its midpoint 0.405 gives
    # [0.185, 0.625]; both ends are grid points, and both are members
    grid = GridDomain.uniform(100)
    tilde, hat, _ = partition_masks(make_samples(grid, [20, 60]))
    np.testing.assert_array_equal(tilde.indices(), np.arange(20, 61))
    np.testing.assert_array_equal(hat.indices(), np.arange(18, 63))


def test_1d_hulls_and_enlargements_match_literal_rule():
    """Every hull [x_i, x_j] of the 100-point grid, and its enlargement:
    a grid point is a member exactly when it lies in the closed interval
    centre +- half-width (times ``ENLARGEMENT`` for the hat). The interval
    ends are multiples of 1/2000, so a 1e-9 tolerance decides membership
    as exact arithmetic does."""
    grid = GridDomain.uniform(100)
    x = grid.points[:, 0]
    for i in range(100):
        for j in range(i, 100):
            tilde, hat, _ = partition_masks(make_samples(grid, [i, j]))
            centre, half = 0.5 * (x[i] + x[j]), 0.5 * (x[j] - x[i])
            np.testing.assert_array_equal(
                tilde.member, np.abs(x - centre) <= half + 1e-9)
            np.testing.assert_array_equal(
                hat.member, np.abs(x - centre) <= ENLARGEMENT * half + 1e-9)


def test_enlargement_clips_to_domain():
    # hulls whose enlargement reaches past the unit box: the hat holds
    # exactly the grid's points, the border ones the tilde leaves out too
    for resolution, corners in ((50, [(1,), (49,)]),
                                ((50, 50), [(1, 1), (1, 49), (49, 1), (49, 49)])):
        grid = GridDomain.uniform(resolution)
        idx = [np.ravel_multi_index(c, grid.resolution) for c in corners]
        tilde, hat, _ = partition_masks(make_samples(grid, idx))
        assert not tilde.member[0]
        assert hat.member.shape == (grid.num_points,) and hat.member.all()


def test_one_hull_per_partition(monkeypatch):
    """The tilde and hat masks come from one monotone chain."""
    calls = []
    chain = subdomain_mod._monotone_chain
    monkeypatch.setattr(subdomain_mod, "_monotone_chain",
                        lambda pts: calls.append(1) or chain(pts))
    grid = GridDomain.uniform((30, 30))
    tilde, hat, _ = partition_masks(make_samples(grid, [31, 100, 470, 805]))
    assert len(calls) == 1
    assert hat.count > tilde.count


def test_triangle_hull_matches_half_plane_oracle():
    grid = GridDomain.uniform((50, 50))
    # the grid points nearest (0, 0), (1, 0) and (0, 1)
    corners = [0, 49 * 50, 49]
    mask = hull_mask(grid, corners)
    np.testing.assert_array_equal(
        mask.member, half_plane_oracle(grid, grid.points[corners]))


def test_random_2d_hulls_match_half_plane_oracle():
    """The tilde mask is the hull that scipy's Qhull finds, and the hat
    mask is that hull scaled about its vertex centroid, or the tilde
    mask."""
    rng = np.random.default_rng(7)
    grid = GridDomain.uniform((30, 30))
    polygons = 0
    for _ in range(10):
        idx = rng.choice(grid.num_points, size=6, replace=False)
        pts = grid.points[idx]
        if np.linalg.matrix_rank(pts - pts[0]) < 2:
            continue
        polygons += 1
        verts = pts[ConvexHull(pts).vertices]  # CCW in 2-D
        centroid = verts.mean(axis=0)
        scaled = centroid + ENLARGEMENT * (verts - centroid)
        tilde, hat, _ = partition_masks(make_samples(grid, idx))
        np.testing.assert_array_equal(tilde.member,
                                      half_plane_oracle(grid, verts))
        np.testing.assert_array_equal(
            hat.member, half_plane_oracle(grid, scaled) | tilde.member)
        # every sample must be inside its own hull
        assert tilde.member[idx].all()
    assert polygons == 10


def test_collinear_2d_falls_back_to_inflated_box():
    grid = GridDomain.uniform((40, 40))
    # three samples on the same grid row
    row = 11
    idx = [np.ravel_multi_index((i, row), (40, 40)) for i in (4, 15, 30)]
    tilde, hat, _ = partition_masks(make_samples(grid, idx))
    # the samples' bounding box padded by one cell per side
    ii, jj = np.divmod(np.arange(grid.num_points), 40)
    box = (ii >= 3) & (ii <= 31) & (jj >= row - 1) & (jj <= row + 1)
    np.testing.assert_array_equal(tilde.member, box)
    # scaled by 1.1 about its centre: 28 cells wide grows by 1.4 cells a
    # side in x, 2 cells high by 0.1 in y
    box = (ii >= 2) & (ii <= 32) & (jj >= row - 1) & (jj <= row + 1)
    np.testing.assert_array_equal(hat.member, box)
    # at the domain's edge the padded box is clipped before it is scaled:
    # samples in cells 0 and 18 of row 0 pad to cells [0, 19.5] in x, not
    # [-0.5, 19.5], so the hat stops at cell 19 instead of reaching 20
    tilde, hat, _ = partition_masks(make_samples(grid, [0, 18 * 40]))
    box = (ii <= 19) & (jj <= 1)
    np.testing.assert_array_equal(tilde.member, box)
    np.testing.assert_array_equal(hat.member, box)


def test_three_dim_hull_is_bounding_box():
    grid = GridDomain.uniform((8, 8, 8))
    # the cells holding (0.1, 0.1, 0.1), (0.8, 0.2, 0.5) and (0.3, 0.7, 0.9)
    idx = list(np.ravel_multi_index(([0, 6, 2], [0, 1, 5], [0, 4, 7]),
                                    grid.resolution))
    mask = hull_mask(grid, idx)
    pts = grid.points[idx]
    inside = np.all((grid.points >= pts.min(axis=0) - BOUNDARY_TOL)
                    & (grid.points <= pts.max(axis=0) + BOUNDARY_TOL), axis=1)
    np.testing.assert_array_equal(mask.member, inside)


def test_partition_nesting_random_sample_sets():
    """The regions nest and tilde holds every sample, so every region holds
    the loop's start set: distinct points, re-measured points, and a start
    triple of one grid row, which in 2-D is collinear and takes the padded
    box path."""
    rng = np.random.default_rng(3)
    for res in (50, (20, 20)):
        grid = GridDomain.uniform(res)
        sets = []
        for trial in range(8):
            k = int(rng.integers(1, 7))
            sets.append(rng.choice(grid.num_points, size=k, replace=False))
        for trial in range(8):  # with replacement, as the loop re-measures
            sets.append(rng.choice(grid.num_points,
                                   size=int(rng.integers(2, 9))))
        row = grid.resolution[-1]
        rows = rng.integers(0, grid.num_points // row, size=4)
        for start in rows * row + rng.integers(0, row - 2, size=4):
            triple = [start, start + 1, start + 2]
            if grid.dim == 2:
                shape_of = subdomain_mod._hull(make_samples(grid, triple))[1]
                assert shape_of is subdomain_mod._box_mask
            sets += [triple, triple + [start + 1, start]]
        for idx in sets:
            tilde, hat, glob = partition_masks(make_samples(grid, idx))
            assert np.all(hat.member[tilde.member])
            assert np.all(glob.member[hat.member])
            assert tilde.member[idx].all()
            assert glob.count == grid.num_points


def test_global_mask_covers_everything():
    grid = GridDomain.uniform((12, 9))
    mask = global_mask(grid)
    assert mask.count == 12 * 9


def test_empty_samples_rejected():
    grid = GridDomain.uniform(10)
    with pytest.raises(ValueError):
        partition_masks(SampleSet(grid, (), {0: (), 1: ()}))


@pytest.mark.parametrize("shape", [(1,), (7,), (40,), (1, 5), (9, 13),
                                   (4, 5, 6)])
def test_cross_dilation_matches_ndimage(shape):
    """One-cell growth along each axis, with cells past the border
    counted as outside, is scipy's binary dilation with the cross."""
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    cross = ndimage.generate_binary_structure(len(shape), 1)
    for density in (0.0, 0.05, 0.3, 0.7, 1.0):
        for _ in range(20):
            member = rng.random(shape) < density
            np.testing.assert_array_equal(
                cross_dilation(member),
                ndimage.binary_dilation(member, cross))
