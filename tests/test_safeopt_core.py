"""Safe-set machinery: bounds, classification, expanders, acquisition."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from conftest import (kernel_matrix, mean_and_variance, most_uncertain,
                      reference_norm, reference_values)

from pacsbo import safeopt_core
from pacsbo.errors import NumericError
from pacsbo.kernel_gp import (
    GridDomain,
    KernelConfig,
    SampleSet,
    gp_fit,
    info_gain,
    lattice_table,
)
from pacsbo.rkhs_function import (SamplerConfig, evaluate,
                                  sample_random_function, scale_to_norm)
from pacsbo.safeopt_core import (
    _BLOCK,
    ConfidenceField,
    SafeOptState,
    _boundary_candidates,
    beta_scale,
    compute_state,
    confidence_bounds,
    expanders,
    maximizers,
    safe_set,
    select,
)
from pacsbo.seeding import derive_rng
from pacsbo.subdomain import DomainMask, global_mask

BETA_2_01_0_01 = 2.2570052564829775  # 2 + 0.1*sqrt(2*(1 + ln 10))


def fit_two_channels(grid, indices, values, noise=0.01, lengthscale=0.1):
    samples = SampleSet(grid, indices, {0: values, 1: values})
    kernel = KernelConfig(lengthscale=lengthscale)
    return samples, {
        0: gp_fit(samples, 0, noise, kernel),
        1: gp_fit(samples, 1, noise, kernel),
    }


def test_beta_scale_frozen_value():
    assert beta_scale(2.0, 0.1, 0.0, 0.1) == pytest.approx(BETA_2_01_0_01, abs=1e-15)


def test_beta_scale_noise_free_equals_bound():
    assert beta_scale(3.7, 0.0, 5.0, 0.05) == 3.7


def test_beta_scale_monotonicity():
    base = beta_scale(1.0, 0.1, 1.0, 0.1)
    assert beta_scale(1.5, 0.1, 1.0, 0.1) > base
    assert beta_scale(1.0, 0.1, 2.0, 0.1) > base
    assert beta_scale(1.0, 0.1, 1.0, 0.01) > base


@pytest.mark.parametrize("bad", [
    dict(bound=0.0), dict(delta=0.0), dict(delta=1.0),
    dict(gamma=-1e-9), dict(noise_std=-0.1),
])
def test_beta_scale_rejects_bad_arguments(bad):
    args = dict(bound=1.0, noise_std=0.1, gamma=0.0, delta=0.1)
    args.update(bad)
    with pytest.raises(ValueError):
        beta_scale(**args)


def test_prior_bounds_are_plus_minus_one():
    grid = GridDomain.uniform(25)
    mask = global_mask(grid)
    samples = SampleSet(grid, (), {0: (), 1: ()})
    kernel = KernelConfig()
    posteriors = {0: gp_fit(samples, 0, 0.01, kernel),
                  1: gp_fit(samples, 1, 0.01, kernel)}
    field = confidence_bounds(posteriors, {0: 1.0, 1: 1.0}, mask)
    np.testing.assert_allclose(field.lower[0], -1.0, atol=1e-12)
    np.testing.assert_allclose(field.upper[1], 1.0, atol=1e-12)


def test_bound_width_scales_with_beta():
    grid = GridDomain.uniform(40)
    mask = global_mask(grid)
    _, posteriors = fit_two_channels(grid, [10, 30], [0.5, -0.2])
    one = confidence_bounds(posteriors, {0: 1.0, 1: 1.0}, mask)
    two = confidence_bounds(posteriors, {0: 2.0, 1: 2.0}, mask)
    np.testing.assert_allclose(two.width(0), 2.0 * one.width(0), atol=1e-12)
    zero = confidence_bounds(posteriors, {0: 0.0, 1: 0.0}, mask)
    np.testing.assert_allclose(zero.width(1), 0.0, atol=1e-15)
    # l = u = mu when beta vanishes
    mean, _ = mean_and_variance(posteriors[0], np.arange(grid.num_points))
    np.testing.assert_allclose(zero.lower[0], mean, atol=1e-12)


def hand_field(lower_by_channel, upper_by_channel):
    lower = {i: np.asarray(v, dtype=float) for i, v in lower_by_channel.items()}
    upper = {i: np.asarray(v, dtype=float) for i, v in upper_by_channel.items()}
    return ConfidenceField({i: 1.0 for i in lower}, lower, upper)


def test_safe_set_enumeration_oracle():
    grid = GridDomain.uniform(5)
    l1 = [-0.5, 0.0, 0.3, -0.1, 0.2]
    field = hand_field({0: np.zeros(5), 1: l1}, {0: np.ones(5), 1: np.ones(5)})
    s = safe_set(field, [0], global_mask(grid))
    # seed point 0 plus every point with l >= 0
    np.testing.assert_array_equal(s, [True, True, True, False, True])


def test_safe_set_all_negative_falls_back_to_seed():
    grid = GridDomain.uniform(5)
    field = hand_field({0: np.zeros(5), 1: -np.ones(5)},
                       {0: np.ones(5), 1: np.ones(5)})
    s = safe_set(field, [2], global_mask(grid))
    np.testing.assert_array_equal(s, [False, False, True, False, False])


def test_safe_set_flags_seed_outside_mask():
    grid = GridDomain.uniform(10)
    member = np.zeros(10, dtype=bool)
    member[5:] = True
    mask = DomainMask(grid, member)
    lower = np.full(10, np.nan)
    lower[5:] = 1.0
    field = hand_field({0: lower, 1: lower}, {0: lower + 1, 1: lower + 1})
    s = safe_set(field, [2], mask)
    assert s[5:].all() and not s[:5].any()


def test_maximizers_enumeration_oracle():
    lower = [0.1, 0.4, 0.2, -0.3, 0.0]
    upper = [0.35, 0.6, 0.5, 0.1, 0.45]
    field = hand_field({0: lower, 1: np.zeros(5)},
                       {0: upper, 1: np.ones(5)})
    safe = np.array([True, True, True, False, True])
    m = maximizers(field, safe)
    # best safe lower bound is 0.4; safe points with u >= 0.4 stay
    np.testing.assert_array_equal(m, [False, True, True, False, True])


def test_maximizers_singleton_safe_set():
    field = hand_field({0: np.zeros(4), 1: np.zeros(4)},
                       {0: np.ones(4), 1: np.ones(4)})
    safe = np.array([False, False, True, False])
    np.testing.assert_array_equal(maximizers(field, safe), safe)


def hand_select(regions):
    """``select`` over hand-made regions: ``regions`` maps each label, in
    region order, to the ``(field, candidates)`` of a state."""
    return select({label: SafeOptState(field, cand, cand, cand)
                   for label, (field, cand) in regions.items()})


def select_one(field, candidates):
    """The choice of ``select`` over one region."""
    return hand_select({"global": (field, candidates)})[0]


def test_select_hand_case_and_tie_break():
    lower = np.array([0.0, 0.1, 0.2, 0.3])
    upper = np.array([0.5, 0.9, 0.7, 0.8])  # widths 0.5, 0.8, 0.5, 0.5
    field = hand_field({0: lower, 1: lower}, {0: upper, 1: upper})
    cand = np.array([True, True, True, True])
    assert select_one(field, cand) == 1
    flat = hand_field({0: np.zeros(4), 1: np.zeros(4)},
                      {0: np.full(4, 0.5), 1: np.full(4, 0.5)})
    # all widths equal: lowest index wins
    assert select_one(flat, cand) == 0
    assert select_one(flat,
                      np.array([False, False, True, True])) == 2
    with pytest.raises(NumericError, match="no acquisition candidate"):
        select_one(field, np.zeros(4, dtype=bool))


def test_select_raises_on_a_nan_width():
    """A NaN candidate width ties with nothing, so no candidate is chosen;
    that is a numeric failure, not a quiet end of the run."""
    lower = np.zeros(4)
    upper = np.array([0.5, np.nan, 0.7, 0.8])
    field = hand_field({0: lower, 1: lower}, {0: upper, 1: upper})
    with pytest.raises(NumericError, match="largest width nan"):
        select_one(field, np.ones(4, dtype=bool))


def test_near_tied_widths_go_to_the_lower_index():
    # 1e-12 relative apart is a tie; 1e-6 is not
    upper = np.array([0.5, 0.5 * (1 + 1e-12), 0.5 * (1 - 1e-12), 0.4])
    field = hand_field({0: np.zeros(4), 1: np.zeros(4)}, {0: upper, 1: upper})
    assert select_one(field, np.ones(4, dtype=bool)) == 0
    assert select_one(field,
                      np.array([False, True, True, True])) == 1
    upper[1] = 0.5 * (1 + 1e-6)
    assert select_one(field, np.ones(4, dtype=bool)) == 1


@pytest.mark.parametrize("gap, want", [(1e-12, (2, "first")),
                                       (1e-6, (0, "second"))])
def test_select_ties_go_to_the_earlier_region(gap, want):
    """The earlier region's lower tied index wins over a later region whose
    candidate is wider by less than the tie tolerance."""
    widths = {"first": [0.0, 0.0, 0.5, 0.5 * (1 + gap / 2)],
              "second": [0.5 * (1 + gap), 0.4, 0.0, 0.0]}
    regions = {label: (hand_field({0: np.zeros(4), 1: np.zeros(4)},
                                  {0: w, 1: w}), np.array(w) > 0)
               for label, w in widths.items()}
    assert hand_select(regions) == want


def test_three_point_expander_hand_case():
    # One sample pins the left point; the middle is safe with a wide upper
    # bound, the right point is just shy of safe. An optimistic observation
    # at the middle certifies the right point, so the middle is an expander
    # and the left point is not.
    grid = GridDomain.uniform(3)  # points 1/6, 1/2, 5/6
    samples, posteriors = fit_two_channels(grid, [0], [0.95], noise=0.01,
                                           lengthscale=1.0)
    mask = global_mask(grid)
    betas = {0: 1.0, 1: 1.0}
    field = confidence_bounds(posteriors, betas, mask)
    assert field.lower[1][0] == pytest.approx(0.93991, abs=2e-3)
    assert field.lower[1][1] == pytest.approx(0.378, abs=2e-3)
    assert field.lower[1][2] == pytest.approx(-0.088, abs=2e-3)
    safe = safe_set(field, [0], mask)
    np.testing.assert_array_equal(safe, [True, True, False])
    g_exact = expanders(posteriors, field, safe, mask, exact=True)
    np.testing.assert_array_equal(g_exact, [False, True, False])
    g_fast = expanders(posteriors, field, safe, mask, exact=False)
    np.testing.assert_array_equal(g_fast, g_exact)


def test_expanders_empty_when_everything_safe():
    grid = GridDomain.uniform(6)
    _, posteriors = fit_two_channels(grid, [2], [0.9], lengthscale=1.0)
    mask = global_mask(grid)
    field = confidence_bounds(posteriors, {0: 0.1, 1: 0.1}, mask)
    safe = safe_set(field, [2], mask)
    assert safe.all()
    g = expanders(posteriors, field, safe, mask, exact=True)
    assert not g.any()


def fit_channel(grid, idx, values, noise, kernel):
    """Posterior of one channel's measurements. A sample set holds one
    reward and one constraint channel, so each channel is fitted alone."""
    return gp_fit(SampleSet(grid, idx, {0: values, 1: values}), 0, noise,
                  kernel)


def refit_oracle_newly_safe(idx, values, grid, noise, kernel, field, a, safe,
                            mask):
    """From-scratch refit check: does an optimistic observation at a make
    any currently unsafe masked point safe on every constraint channel?"""
    outside = np.flatnonzero(mask.member & ~safe)
    if len(outside) == 0:
        return False
    ok = np.ones(len(outside), dtype=bool)
    for i in sorted(values)[1:]:
        post = fit_channel(grid, list(idx) + [a],
                           list(values[i]) + [field.upper[i][a]], noise,
                           kernel)
        mean, var = mean_and_variance(post, outside)
        ok &= mean - field.betas[i] * np.sqrt(var) >= 0.0
    return bool(ok.any())


# (grid resolution, lengthscale, channels, samples, lowest value); the
# 20x20 cases have safe sets and boundaries larger than one block
ORACLE_CASES = [(25, 0.2, (0, 1), (1, 5), -0.3),
                (60, 0.1, (0, 1, 2), (1, 5), -0.3),
                ((9, 7), 0.3, (0, 1), (1, 5), -0.3),
                ((9, 7), 0.3, (0, 1, 2), (1, 5), -0.3),
                ((20, 20), 0.25, (0, 1), (6, 12), 0.2),
                ((20, 20), 0.25, (0, 1, 2), (6, 12), 0.2)]


def test_expander_set_matches_refit_oracle():
    """Both candidate modes against per-candidate refits, on 1-D and 2-D
    grids, with one and two constraint channels, and with more candidates
    than one closed-form block."""
    rng = np.random.default_rng(11)
    noise = 0.05
    most = {False: 0, True: 0}
    found = tested = 0
    for res, lengthscale, channels, sizes, low in ORACLE_CASES:
        grid = GridDomain.uniform(res)
        kernel = KernelConfig(lengthscale=lengthscale)
        mask = global_mask(grid)
        for trial in range(6):
            k = int(rng.integers(*sizes))
            idx = list(rng.choice(grid.num_points, size=k, replace=False))
            values = {i: list(rng.uniform(low, 1.0, size=k))
                      for i in channels}
            posteriors = {i: fit_channel(grid, idx, values[i], noise, kernel)
                          for i in channels}
            field = confidence_bounds(posteriors,
                                      dict.fromkeys(channels, 1.0), mask)
            safe = safe_set(field, idx[:1], mask)
            for exact in (False, True):
                cand = safe if exact else _boundary_candidates(safe, mask)
                most[exact] = max(most[exact], int(cand.sum()))
                g = expanders(posteriors, field, safe, mask, exact=exact)
                assert not (g & ~cand).any()
                for a in np.flatnonzero(cand):
                    expect = refit_oracle_newly_safe(
                        idx, values, grid, noise, kernel, field, a, safe,
                        mask)
                    assert g[a] == expect, (res, channels, trial, exact, a)
                    found += expect
                    tested += 1
    assert min(most.values()) > _BLOCK
    assert 0 < found < tested


def literal_boundary_candidates(safe, member, shape):
    """Safe cells with an in-grid axis neighbor in the mask but not safe."""
    safe, outside = safe.reshape(shape), (member & ~safe).reshape(shape)
    out = np.zeros(shape, dtype=bool)
    for cell in np.ndindex(*shape):
        for axis in range(len(shape)):
            for step in (-1, 1):
                nb = list(cell)
                nb[axis] += step
                if 0 <= nb[axis] < shape[axis] and outside[tuple(nb)]:
                    out[cell] |= safe[cell]
    return out.reshape(-1)


def test_boundary_candidates_match_literal_definition():
    rng = np.random.default_rng(41)

    def check(shape, member, safe):
        grid = GridDomain.uniform(shape)
        mask = DomainMask(grid, member)
        np.testing.assert_array_equal(
            _boundary_candidates(safe, mask),
            literal_boundary_candidates(safe, member, shape))

    # only the opposite edge is outside: a wrapping shift would flag cell 0
    check((5,), np.array([1, 0, 0, 0, 1], bool),
          np.array([1, 0, 0, 0, 0], bool))
    check((3, 4), np.ones(12, bool), np.eye(3, 4, dtype=bool)[::-1].ravel()
          | (np.arange(12) % 4 == 0))
    for shape in ((7,), (1, 6), (5, 6), (3, 4, 5)):
        n = int(np.prod(shape))
        for _ in range(40):
            member = rng.random(n) < 0.8
            member[rng.integers(n)] = True
            safe = member & (rng.random(n) < 0.5)
            check(shape, member, safe)


def test_boundary_candidate_filter_is_exact_on_its_candidates():
    rng = np.random.default_rng(23)
    kernel = KernelConfig(lengthscale=0.15)
    grid = GridDomain.uniform(30)
    for trial in range(10):
        k = int(rng.integers(1, 4))
        idx = list(rng.choice(grid.num_points, size=k, replace=False))
        vals = list(rng.uniform(0.0, 1.0, size=k))
        _, posteriors = fit_two_channels(grid, idx, vals, 0.05,
                                         kernel.lengthscale)
        mask = global_mask(grid)
        field = confidence_bounds(posteriors, {0: 1.2, 1: 1.2}, mask)
        safe = safe_set(field, idx[:1], mask)
        exact = expanders(posteriors, field, safe, mask, exact=True)
        fast = expanders(posteriors, field, safe, mask, exact=False)
        # the filter tests exactly the boundary-adjacent safe points, so it
        # may drop interior expanders but must agree on its own candidates
        assert not (fast & ~exact).any()
        np.testing.assert_array_equal(
            fast, exact & _boundary_candidates(safe, mask))


def test_safe_set_never_grows_with_larger_bound():
    rng = np.random.default_rng(5)
    grid = GridDomain.uniform(60)
    for trial in range(6):
        k = int(rng.integers(1, 6))
        idx = list(rng.choice(grid.num_points, size=k, replace=False))
        vals = list(rng.uniform(-0.2, 0.9, size=k))
        samples, posteriors = fit_two_channels(grid, idx, vals)
        mask = global_mask(grid)
        gamma = info_gain(posteriors[1])
        prev = None
        for bound in (0.5, 1.0, 2.0, 5.0):
            beta = beta_scale(bound, 0.01, gamma, 0.1)
            field = confidence_bounds(posteriors, {0: beta, 1: beta}, mask)
            s = safe_set(field, idx[:1], mask)
            if prev is not None:
                assert not (s & ~prev).any(), "larger B enlarged the safe set"
            prev = s


def test_compute_state_invariants_and_candidates():
    grid = GridDomain.uniform(50)
    _, posteriors = fit_two_channels(grid, [10, 25], [0.6, 0.8])
    mask = global_mask(grid)
    gamma = info_gain(posteriors[1])
    beta = beta_scale(1.0, 0.01, gamma, 0.1)
    state = compute_state(posteriors, {0: beta, 1: beta}, mask, [10])
    assert not (state.maximizer_set & ~state.safe).any()
    assert not (state.expander_set & ~state.safe).any()
    choice = most_uncertain(state.field, state.candidates())
    assert choice is None or state.candidates()[choice]


def test_runs_with_correct_bound_stay_safe():
    """With B at the true kernel norm, evaluations keep the constraint
    nonnegative in all but at most a delta fraction of seeded runs."""
    grid = GridDomain.uniform(100)
    kernel = KernelConfig(lengthscale=0.1)
    cfg = SamplerConfig(num_centers=40, coeff_bound=1.0)
    noise, delta = 0.01, 0.1
    violating_runs = 0
    runs = 30
    for seed in range(runs):
        rng = derive_rng(seed, 900)
        f = scale_to_norm(sample_random_function(grid, kernel, cfg, rng), 1.0)
        values = evaluate(f)
        seed_idx = int(np.argmax(values))
        if values[seed_idx] < 0.05:
            continue
        samples = SampleSet(grid, (), {0: (), 1: ()})
        y = values[seed_idx] + noise * rng.standard_normal()
        samples = samples.append(seed_idx, {0: y, 1: y})
        unsafe = False
        for it in range(8):
            posteriors = {i: gp_fit(samples, i, noise, kernel) for i in (0, 1)}
            gamma = info_gain(posteriors[1])
            beta = beta_scale(1.0, noise, gamma, delta)
            state = compute_state(posteriors, {0: beta, 1: beta},
                                  global_mask(grid), [seed_idx])
            a = most_uncertain(state.field, state.candidates())
            if a is None:
                break
            if values[a] < 0:
                unsafe = True
                break
            y = values[a] + noise * rng.standard_normal()
            samples = samples.append(a, {0: y, 1: y})
        violating_runs += int(unsafe)
    assert violating_runs <= max(3, int(delta * runs))


def digest_case(dims):
    """Two-channel posterior for the digest pins: samples drawn from the
    lower-left part of the unit box, so the safe set has an unexplored
    outside. The 1-D case runs on a box mask, so its bounds hold NaN."""
    if dims == 1:
        grid, k, lengthscale = GridDomain.uniform(100), 8, 0.1
        member = grid.points[:, 0] <= 0.8
        mask = DomainMask(grid, member)
    else:
        grid, k, lengthscale = GridDomain.uniform((50, 50)), 40, 0.2
        mask = global_mask(grid)
    kernel = KernelConfig(lengthscale=lengthscale)
    rng = np.random.default_rng(dims)
    cfg = SamplerConfig(num_centers=40, coeff_bound=1.0)
    # unit norm and values on coordinates, so the pins below move only
    # with compute_state's own arithmetic
    f, c = (sample_random_function(grid, kernel, cfg, rng) for _ in range(2))
    f, c = (replace(g, coefficients=g.coefficients * (1.0 / reference_norm(g)))
            for g in (f, c))
    inside = np.flatnonzero(np.all(grid.points <= 0.5, axis=1))
    idx = rng.choice(inside, size=k, replace=False)
    noise = 0.05
    values = {0: reference_values(f, grid.points[idx])
              + noise * rng.standard_normal(k),
              1: reference_values(c, grid.points[idx]) + 0.6
              + noise * rng.standard_normal(k)}
    samples = SampleSet(grid, idx, values)
    posteriors = {i: gp_fit(samples, i, noise, kernel) for i in (0, 1)}
    betas = {i: beta_scale(1.0, noise, info_gain(post), 0.1)
             for i, post in posteriors.items()}
    return posteriors, betas, mask, idx[:1]


def state_digests(state):
    arrays = {"lower0": state.field.lower[0], "upper0": state.field.upper[0],
              "lower1": state.field.lower[1], "upper1": state.field.upper[1],
              "safe": state.safe, "maximizer_set": state.maximizer_set,
              "expander_set": state.expander_set}
    return {name: hashlib.sha256(a.tobytes()).hexdigest()[:16]
            for name, a in arrays.items()}


# SHA-256 prefixes of compute_state's outputs, recorded with every kernel
# block gathered from the lattice table and the means read off the grid-wide
# v as v^T L^T w (the sets are those of the per-channel implementation); any
# change in the arithmetic shows here
STATE_DIGESTS = {
    (1, False): {
        "lower0": "b83a752a16b8de2a",
        "upper0": "7f1077e25d4c8b08",
        "lower1": "67403261f6c106ed",
        "upper1": "87789299d2d68394",
        "safe": "80f6302e8c9d84ae",
        "maximizer_set": "b74db80356cf7075",
        "expander_set": "017b981198462832",
    },
    (1, True): {
        "lower0": "b83a752a16b8de2a",
        "upper0": "7f1077e25d4c8b08",
        "lower1": "67403261f6c106ed",
        "upper1": "87789299d2d68394",
        "safe": "80f6302e8c9d84ae",
        "maximizer_set": "b74db80356cf7075",
        "expander_set": "6546d0af8defab66",
    },
    (2, False): {
        "lower0": "154f38e3a6859bf3",
        "upper0": "5c49f2b63ae33cb0",
        "lower1": "f3517c687a49558a",
        "upper1": "d1546c895f24f069",
        "safe": "8538214365ac66c8",
        "maximizer_set": "170f1d89db7d3625",
        "expander_set": "d6b23afee25312ce",
    },
    (2, True): {
        "lower0": "154f38e3a6859bf3",
        "upper0": "5c49f2b63ae33cb0",
        "lower1": "f3517c687a49558a",
        "upper1": "d1546c895f24f069",
        "safe": "8538214365ac66c8",
        "maximizer_set": "170f1d89db7d3625",
        "expander_set": "96ca049ffdc7991e",
    },
}


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("exact", [False, True])
def test_compute_state_outputs_pinned_bitwise(dims, exact):
    # the five-argument call, as the loop and the benchmark's replay make it
    posteriors, betas, mask, seed = digest_case(dims)
    state = compute_state(posteriors, betas, mask, seed, exact)
    assert 0 < state.expander_set.sum() < state.safe.sum() < mask.count
    assert state_digests(state) == STATE_DIGESTS[dims, exact]


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("exact", [False, True])
def test_expander_blocks_equal_the_coordinate_reference_bitwise(
        dims, exact, monkeypatch):
    """Each candidate block's posterior covariance with the outside points
    reads its kernel block from the lattice table, bitwise, and that block
    is the one ``kernel_matrix`` builds on the coordinates to a few ulps."""
    posteriors, betas, mask, seed = digest_case(dims)
    field = confidence_bounds(posteriors, betas, mask)
    safe = safe_set(field, seed, mask)
    got, real = [], safeopt_core.observation_update

    def recording(*args):
        got.append(args[4])
        return real(*args)

    monkeypatch.setattr(safeopt_core, "observation_update", recording)
    expanders(posteriors, field, safe, mask, exact=exact)

    grid, kernel, v = mask.grid, posteriors[0].kernel, posteriors[0].v
    table, code = lattice_table(grid, kernel)
    out = np.flatnonzero(mask.member & ~safe)
    candidates = np.flatnonzero(safe if exact
                                else _boundary_candidates(safe, mask))
    want = []
    for start in range(0, len(candidates), _BLOCK):
        block = candidates[start:start + _BLOCK]
        k = table[code[block][:, None] - code[out] + len(table) // 2]
        np.testing.assert_allclose(
            k, kernel_matrix(grid.points[block], grid.points[out], kernel),
            rtol=1e-13, atol=0)
        want.append(k - v[:, block].T @ v[:, out])
    assert len(got) == len(want) > 0
    for k_n, ref in zip(got, want):
        np.testing.assert_array_equal(k_n, ref)
