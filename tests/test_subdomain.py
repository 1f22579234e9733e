"""Hull and enlargement masks."""

import numpy as np
import pytest

from pacsbo.kernel_gp import GridDomain, SampleSet
from pacsbo.subdomain import (
    BOUNDARY_TOL,
    DomainMask,
    convex_hull_mask,
    enlarge_mask,
    global_mask,
    partition_masks,
)


def make_samples(grid, indices):
    vals = {0: [0.0] * len(indices), 1: [0.0] * len(indices)}
    return SampleSet(grid, indices, vals)


def test_interval_hull_spans_min_to_max():
    grid = GridDomain.uniform(100)
    i_lo, i_hi = 20, 60  # the grid points 0.205 and 0.605
    mask = convex_hull_mask(make_samples(grid, [i_hi, i_lo]))
    lo = grid.points[i_lo, 0]
    hi = grid.points[i_hi, 0]
    assert mask.geometry[0] == "box"
    assert mask.geometry[1][0] == lo and mask.geometry[2][0] == hi
    x = grid.points[:, 0]
    expect = (x >= lo) & (x <= hi)
    np.testing.assert_array_equal(mask.member, expect)


def test_single_sample_hull_is_singleton():
    grid = GridDomain.uniform(50)
    mask = convex_hull_mask(make_samples(grid, [17]))
    assert mask.count == 1
    assert mask.indices()[0] == 17


def test_interval_enlargement_frozen_example():
    # hull [0.2, 0.6] scaled by 1.1 about its midpoint 0.4 gives [0.18, 0.62]
    grid = GridDomain.uniform(200)
    x = grid.points[:, 0]
    hull = DomainMask(grid, (x >= 0.2 - BOUNDARY_TOL) & (x <= 0.6 + BOUNDARY_TOL),
                      "tilde", ("box", np.array([0.2]), np.array([0.6])))
    hat = enlarge_mask(hull, 1.1)
    assert hat.geometry[1][0] == pytest.approx(0.18, abs=1e-15)
    assert hat.geometry[2][0] == pytest.approx(0.62, abs=1e-15)


def test_1d_hulls_and_enlargements_match_literal_rule():
    """Every hull [x_i, x_j] of the 100-point grid, and its enlargements:
    a grid point is a member exactly when it lies in the closed interval
    centre +- factor * half-width. The interval ends are multiples of
    1/2000, so a 1e-9 tolerance decides membership as exact arithmetic
    does."""
    grid = GridDomain.uniform(100)
    x = grid.points[:, 0]
    for i in range(100):
        for j in range(i, 100):
            hull = convex_hull_mask(make_samples(grid, [i, j]))
            centre, half = 0.5 * (x[i] + x[j]), 0.5 * (x[j] - x[i])
            np.testing.assert_array_equal(
                hull.member, np.abs(x - centre) <= half + 1e-9)
            for factor in (1.0, 1.1, 2.0):
                hat = enlarge_mask(hull, factor)
                np.testing.assert_array_equal(
                    hat.member, np.abs(x - centre) <= factor * half + 1e-9,
                    err_msg=f"hull ({i}, {j}), factor {factor}")


def test_enlargement_factor_one_is_identity():
    grid = GridDomain.uniform(60)
    mask = convex_hull_mask(make_samples(grid, [5, 40]))
    same = enlarge_mask(mask, 1.0)
    np.testing.assert_array_equal(same.member, mask.member)


def test_enlargement_monotone_in_factor():
    grid = GridDomain.uniform(80)
    hull = convex_hull_mask(make_samples(grid, [20, 55]))
    prev = hull
    for factor in (1.0, 1.1, 1.5, 2.0, 4.0):
        cur = enlarge_mask(hull, factor)
        assert np.all(cur.member[prev.member])
        prev = cur


def test_enlargement_clips_to_domain():
    grid = GridDomain.uniform(50)
    hull = convex_hull_mask(make_samples(grid, [0, 49]))
    hat = enlarge_mask(hull, 2.0)
    assert hat.geometry[1][0] >= 0.0 and hat.geometry[2][0] <= 1.0
    assert hat.count == grid.num_points


def test_triangle_hull_matches_half_plane_oracle():
    grid = GridDomain.uniform((50, 50))
    # the grid points nearest (0, 0), (1, 0) and (0, 1)
    corners = [0, 49 * 50, 49]
    mask = convex_hull_mask(make_samples(grid, corners))
    v = grid.points[corners]
    # oracle: inside each of the three half-planes of the triangle's edges
    expect = np.ones(grid.num_points, dtype=bool)
    for k in range(3):
        a, b = v[k], v[(k + 1) % 3]
        cross = ((b[0] - a[0]) * (grid.points[:, 1] - a[1])
                 - (b[1] - a[1]) * (grid.points[:, 0] - a[0]))
        expect &= cross >= -BOUNDARY_TOL
    np.testing.assert_array_equal(mask.member, expect)


def test_random_2d_hulls_match_half_plane_oracle():
    rng = np.random.default_rng(7)
    grid = GridDomain.uniform((30, 30))
    for _ in range(10):
        idx = rng.choice(grid.num_points, size=6, replace=False)
        mask = convex_hull_mask(make_samples(grid, idx))
        if mask.geometry[0] != "polygon":
            continue
        verts = mask.geometry[1]
        m = len(verts)
        expect = np.ones(grid.num_points, dtype=bool)
        for k in range(m):
            a, b = verts[k], verts[(k + 1) % m]
            cross = ((b[0] - a[0]) * (grid.points[:, 1] - a[1])
                     - (b[1] - a[1]) * (grid.points[:, 0] - a[0]))
            expect &= cross >= -BOUNDARY_TOL
        np.testing.assert_array_equal(mask.member, expect)
        # every sample must be inside its own hull
        assert mask.member[idx].all()


def test_collinear_2d_falls_back_to_inflated_box():
    grid = GridDomain.uniform((40, 40))
    # three samples on the same grid row
    row = 11
    idx = [np.ravel_multi_index((i, row), (40, 40)) for i in (4, 15, 30)]
    mask = convex_hull_mask(make_samples(grid, idx))
    assert mask.geometry[0] == "box"
    lows, highs = mask.geometry[1], mask.geometry[2]
    pts = grid.points[idx]
    cell = grid.spacing[0]
    assert lows[0] == pytest.approx(pts[:, 0].min() - cell)
    assert highs[1] == pytest.approx(pts[:, 1].max() + cell)
    # the box has interior points in both directions
    ii, jj = np.divmod(mask.indices(), 40)
    assert len(np.unique(ii)) > 1 and len(np.unique(jj)) > 1
    assert mask.member[idx].all()


def test_three_dim_hull_is_bounding_box():
    grid = GridDomain.uniform((8, 8, 8))
    # the cells holding (0.1, 0.1, 0.1), (0.8, 0.2, 0.5) and (0.3, 0.7, 0.9)
    idx = list(np.ravel_multi_index(([0, 6, 2], [0, 1, 5], [0, 4, 7]),
                                    grid.resolution))
    mask = convex_hull_mask(make_samples(grid, idx))
    assert mask.geometry[0] == "box"
    pts = grid.points[idx]
    inside = np.all((grid.points >= pts.min(axis=0) - BOUNDARY_TOL)
                    & (grid.points <= pts.max(axis=0) + BOUNDARY_TOL), axis=1)
    np.testing.assert_array_equal(mask.member, inside)


def test_partition_nesting_random_sample_sets():
    rng = np.random.default_rng(3)
    for res in (50, (20, 20)):
        grid = GridDomain.uniform(res)
        for trial in range(8):
            k = int(rng.integers(1, 7))
            idx = rng.choice(grid.num_points, size=k, replace=False)
            tilde, hat, glob = partition_masks(make_samples(grid, idx))
            assert np.all(hat.member[tilde.member])
            assert np.all(glob.member[hat.member])
            assert tilde.member[idx].all()
            assert tilde.label == "tilde" and hat.label == "hat"
            assert glob.count == grid.num_points


def test_global_mask_covers_everything():
    grid = GridDomain.uniform((12, 9))
    mask = global_mask(grid)
    assert mask.count == 12 * 9
    assert mask.label == "global"


def test_empty_samples_rejected():
    grid = GridDomain.uniform(10)
    with pytest.raises(ValueError):
        convex_hull_mask(SampleSet(grid, (), {0: (), 1: ()}))


def test_shrinking_factor_rejected():
    grid = GridDomain.uniform(10)
    hull = convex_hull_mask(make_samples(grid, [2, 7]))
    with pytest.raises(ValueError):
        enlarge_mask(hull, 0.9)
