"""Acceptance suite: one test per numbered criterion from the README.

Each test prints a single verdict line (visible with ``pytest -s``) and
then asserts the stated tolerances. Criteria 3, 6, 7, and 8 rerun the
experiment recipes at their published defaults, so the whole module takes
a few minutes; everything is seeded, so the verdicts are reproducible
bit for bit.
"""

import time

import numpy as np
import pytest

from conftest import (
    constant_predictor,
    gradient_check_error,
    kernel_matrix,
    mean_and_variance,
    read_csv_rows,
    reference_norm,
)
from pacsbo.harness import (
    TRAIN_DEFAULTS,
    ExperimentSpec,
    _scenario_defaults,
    scenario_compare,
    scenario_fig3,
    scenario_hoeffding,
    scenario_synthetic2d,
    train_predictor_pipeline,
)
from pacsbo.kernel_gp import (
    GridDomain,
    KernelConfig,
    SampleSet,
    gp_fit,
    mean_rkhs_norm,
)
from pacsbo.pac_estimator import PacConfig
from pacsbo.pacsbo_loop import GroundTruth, RunConfig, run
from pacsbo.rkhs_function import (
    RkhsFunction,
    SamplerConfig,
    evaluate,
    sample_random_function,
    scale_to_norm,
)
from pacsbo.safeopt_core import compute_state
from pacsbo.seeding import derive_rng
from pacsbo.subdomain import global_mask, partition_masks


def verdict(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_samples(grid, rng, count, spread=1.0):
    idx = rng.choice(grid.num_points, size=count, replace=False)
    samples = SampleSet(grid, (), {0: (), 1: ()})
    for j in idx:
        y = float(rng.normal(scale=spread))
        samples = samples.append(int(j), {0: y, 1: y})
    return samples


def test_criterion_1_gp_matches_dense_solve_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        grid = GridDomain.uniform(int(rng.integers(25, 80)))
        kernel = KernelConfig(lengthscale=float(rng.uniform(0.05, 0.5)))
        noise = float(rng.uniform(0.01, 0.3))
        samples = random_samples(grid, rng, int(rng.integers(1, 11)))
        mean, var = mean_and_variance(gp_fit(samples, 0, noise, kernel),
                                      np.arange(grid.num_points))

        x = samples.params
        k_xx = kernel_matrix(x, x, kernel)
        k_xz = kernel_matrix(x, grid.points, kernel)
        a = k_xx + noise ** 2 * np.eye(x.shape[0])
        mean_oracle = k_xz.T @ np.linalg.solve(a, samples.targets(0))
        var_oracle = np.clip(1.0 - np.sum(k_xz * np.linalg.solve(a, k_xz),
                                          axis=0), 0.0, 1.0)
        worst = max(
            worst,
            float(np.max(np.abs(mean - mean_oracle)
                         / (1.0 + np.abs(mean_oracle)))),
            float(np.max(np.abs(var - var_oracle)
                         / (1.0 + np.abs(var_oracle)))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    verdict(1, "dense-solve oracle", ok,
            f"max rel err {worst:.2e} over 100 instances, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_2_posterior_mean_norm_matches_expansion_norm():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        grid = GridDomain.uniform(int(rng.integers(25, 80)))
        kernel = KernelConfig(lengthscale=float(rng.uniform(0.05, 0.5)))
        noise = float(rng.uniform(0.01, 0.3))
        samples = random_samples(grid, rng, int(rng.integers(1, 13)))
        post = gp_fit(samples, 0, noise, kernel)
        direct = mean_rkhs_norm(post)
        # the expansion's norm on coordinates, independent of the table
        expansion = reference_norm(RkhsFunction(grid, kernel, samples.indices,
                                                post.weights))
        worst = max(worst, abs(direct - expansion))
    ok = worst <= 1e-10
    verdict(2, "posterior-mean norm consistency", ok,
            f"max abs gap {worst:.2e} over 100 instances")
    assert worst <= 1e-10


def test_criterion_3_threshold_study_lands_in_reported_bands(tmp_path):
    t0 = time.monotonic()
    spec = ExperimentSpec("fig3_thresholds", str(tmp_path / "fig3"),
                          tuple(range(10)),
                          _scenario_defaults("fig3_thresholds"))
    result = scenario_fig3(spec)
    elapsed = time.monotonic() - t0
    bands = {5: (4.0, 8.0), 20: (2.0, 4.0), 50: (1.2, 2.3)}
    bounds = result["bound_means"]
    in_band = all(bands[m][0] <= bounds[m] <= bands[m][1] for m in bands)
    ok = in_band and result["decreasing"] and elapsed < 180.0
    detail = ", ".join(f"{bounds[m]:.3f} at {m}" for m in sorted(bounds))
    verdict(3, "accepted-bound study", ok,
            f"bound means {detail}; per-seed decreasing "
            f"{result['decreasing']}; {elapsed:.0f}s")
    for m, (lo, hi) in bands.items():
        assert lo <= bounds[m] <= hi, f"bound mean at {m} samples off-band"
    assert result["decreasing"]
    assert elapsed < 180.0


def test_criterion_4_hoeffding_coverage(tmp_path):
    t0 = time.monotonic()
    spec = ExperimentSpec("hoeffding_mc", str(tmp_path / "hoeff"), (0,),
                          _scenario_defaults("hoeffding_mc"))
    coverage = scenario_hoeffding(spec)["coverage"]
    elapsed = time.monotonic() - t0
    ok = coverage[0.1] >= 0.9 and coverage[0.5] >= 0.5 and elapsed < 60.0
    verdict(4, "concentration coverage", ok,
            f"coverage {coverage[0.1]:.3f} at delta 0.1, "
            f"{coverage[0.5]:.3f} at delta 0.5; {elapsed:.1f}s")
    assert coverage[0.1] >= 0.9
    assert coverage[0.5] >= 0.5
    assert elapsed < 60.0


def test_criterion_5_backprop_matches_finite_differences():
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(k)
        input_len = int(rng.integers(3, 13))
        depth = int(rng.integers(0, 3))
        hidden = tuple(int(rng.integers(3, 10)) for _ in range(depth))
        worst = max(worst, gradient_check_error(input_len, hidden, seed=k))
    ok = worst <= 1e-4
    verdict(5, "gradient check", ok,
            f"max norm-relative gap {worst:.2e} over 20 networks")
    assert worst <= 1e-4


@pytest.fixture(scope="module")
def trained_predictor(tmp_path_factory):
    """Reduced-scale predictor shared by the comparison criteria."""
    out = tmp_path_factory.mktemp("predictor")
    cfg = dict(TRAIN_DEFAULTS)
    cfg.update(out_path=str(out / "predictor.json"),
               q_train=40, rollout_iters=20, epochs=300)
    t0 = time.monotonic()
    result = train_predictor_pipeline(cfg)
    result["train_seconds"] = time.monotonic() - t0
    return result


def run_comparison(scenario, out_dir, predictor_path, **tweaks):
    params = _scenario_defaults(scenario)
    params.update(q_init=100, q_max=400, predictor_path=str(predictor_path),
                  snapshot_iterations=[], **tweaks)
    spec = ExperimentSpec(scenario, str(out_dir), tuple(range(10)), params)
    per_seed = {}
    for row in scenario_compare(spec)["summary"]:
        seed, algorithm = int(row[1]), row[2]
        per_seed.setdefault(seed, {})[algorithm] = (float(row[3]),
                                                    int(row[4]))
    return per_seed


def test_criterion_6_outruns_conservative_fixed_bound(trained_predictor,
                                                      tmp_path):
    t0 = time.monotonic()
    per_seed = run_comparison("compare_conservative", tmp_path / "cons",
                              trained_predictor["path"])
    wins = sum(per_seed[s]["pacsbo"][0] >= per_seed[s]["safeopt"][0]
               for s in per_seed)
    strict = sum(per_seed[s]["pacsbo"][0] > per_seed[s]["safeopt"][0]
                 for s in per_seed)
    # seeds whose adaptive-loop safe set never grew past the 3-point start
    stuck = sum(
        max(int(r["S_global"]) for r in read_csv_rows(
            tmp_path / "cons" / f"records_pacsbo_seed{s}.csv")[1]) <= 3
        for s in per_seed)
    total = trained_predictor["train_seconds"] + time.monotonic() - t0
    ok = wins >= 7 and total < 600.0
    verdict(6, "conservative comparison", ok,
            f"best safe reward at least matched in {wins}/10 seeds "
            f"({strict} strict wins, {wins - strict} ties); adaptive safe "
            f"set stuck at the start set in {stuck}/10 seeds; "
            f"{total:.0f}s including training")
    assert wins >= 7
    assert total < 600.0


def test_criterion_7_optimistic_fixed_bound_goes_unsafe(trained_predictor,
                                                        tmp_path):
    per_seed = run_comparison("compare_optimistic", tmp_path / "opt",
                              trained_predictor["path"], alpha_bar=1.0)
    fixed_unsafe = sum(per_seed[s]["safeopt"][1] for s in per_seed)
    adaptive_unsafe = sum(per_seed[s]["pacsbo"][1] for s in per_seed)
    ok = fixed_unsafe >= 6 and adaptive_unsafe <= 1
    verdict(7, "optimistic-prior safety", ok,
            f"fixed bound 0.4 unsafe in {fixed_unsafe}/10 seeds, "
            f"adaptive bound unsafe in {adaptive_unsafe}/10")
    assert fixed_unsafe >= 6
    assert adaptive_unsafe <= 1


def brute_force_expanders(state, mask, samples, betas, noise, kernel):
    """Independent refit oracle: append the fictitious observation to the
    sample set and refit from scratch instead of rank-one updating."""
    field, grid = state.field, mask.grid
    outside_idx = np.flatnonzero(mask.member & ~state.safe)
    result = np.zeros_like(state.safe)
    if len(outside_idx) == 0:
        return result
    for a in np.flatnonzero(state.safe):
        fict = samples.append(int(a), {0: float(field.upper[0][a]),
                                       1: float(field.upper[1][a])})
        refit = gp_fit(fict, 1, noise, kernel)
        mean, var = mean_and_variance(refit, outside_idx)
        if np.any(mean - betas[1] * np.sqrt(var) >= 0.0):
            result[a] = True
    return result


def test_criterion_8_structural_invariants(trained_predictor, tmp_path):
    t0 = time.monotonic()
    checks = {}

    nested = True
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        grid = GridDomain.uniform((9, 7)) if trial % 2 else \
            GridDomain.uniform(40)
        samples = random_samples(grid, rng, int(rng.integers(1, 7)))
        tilde, hat, glob = partition_masks(samples)
        nested &= bool((~tilde.member | hat.member).all())
        nested &= bool((~hat.member | glob.member).all())
    checks["mask nesting"] = nested

    contained, oracle_match = True, True
    for trial in range(12):
        rng = np.random.default_rng(3000 + trial)
        grid = GridDomain.uniform(int(rng.integers(15, 31)))
        kernel = KernelConfig(lengthscale=float(rng.uniform(0.1, 0.4)))
        noise = 0.05
        f = scale_to_norm(
            sample_random_function(grid, kernel, SamplerConfig(20),
                                   derive_rng(trial, "c8-truth")), 2.0)
        vals = evaluate(f)
        threshold = float(np.quantile(vals, 0.4))
        safe_idx = np.flatnonzero(vals - threshold >= 0.0)
        picks = rng.choice(safe_idx, size=min(3, len(safe_idx)),
                           replace=False)
        samples = SampleSet(grid, (), {0: (), 1: ()})
        for j in picks:
            y = float(vals[j]) + float(rng.normal(scale=noise))
            samples = samples.append(int(j), {0: y, 1: y - threshold})
        posteriors = {i: gp_fit(samples, i, noise, kernel) for i in (0, 1)}
        betas = {0: 1.5, 1: 1.5}
        mask = global_mask(grid)
        state = compute_state(posteriors, betas, mask, (int(picks[0]),),
                              exact_expanders=True)
        contained &= not bool((state.maximizer_set & ~state.safe).any())
        contained &= not bool((state.expander_set & ~state.safe).any())
        brute = brute_force_expanders(state, mask, samples, betas, noise,
                                      kernel)
        oracle_match &= bool((brute == state.expander_set).all())
    checks["maximizers and expanders stay safe"] = contained
    checks["expander refit oracle"] = oracle_match

    monotone = True
    for trial in range(10):
        rng = np.random.default_rng(4000 + trial)
        grid = GridDomain.uniform(50)
        kernel = KernelConfig(lengthscale=float(rng.uniform(0.05, 0.3)))
        noise = float(rng.uniform(0.01, 0.2))
        samples = SampleSet(grid, (), {0: (), 1: ()})
        _, prev = mean_and_variance(gp_fit(samples, 0, noise, kernel),
                                    np.arange(grid.num_points))
        for j in rng.choice(grid.num_points, size=6, replace=False):
            y = float(rng.normal())
            samples = samples.append(int(j), {0: y, 1: y})
            _, var = mean_and_variance(gp_fit(samples, 0, noise, kernel),
                                       np.arange(grid.num_points))
            monotone &= bool((var <= prev + 1e-9).all())
            prev = var
    checks["variance monotonicity"] = monotone

    grid = GridDomain.uniform(30)
    kernel = KernelConfig(lengthscale=0.3)
    f = scale_to_norm(
        sample_random_function(grid, kernel, SamplerConfig(30),
                               derive_rng(11, "c8-truth")), 2.0)
    truth = GroundTruth.at_quantile(f, 0.4)
    vals = truth.reward_values
    s0 = int(np.argmax(vals))
    cfg = RunConfig(grid=grid, kernel=kernel, s0_indices=(s0,),
                    budget=3, predictor=constant_predictor(3.0),
                    pac=PacConfig(q_init=25, q_max=50,
                                  sampler=SamplerConfig(12, 0.3)),
                    seed=5)
    checks["run determinism"] = run(cfg, truth) == run(cfg, truth)

    params = _scenario_defaults("synthetic2d")
    params.update(q_init=100, q_max=400,
                  predictor_path=str(trained_predictor["path"]))
    spec = ExperimentSpec("synthetic2d", str(tmp_path / "s2d"),
                          tuple(range(10)), params)
    rows = scenario_synthetic2d(spec)["summary"]
    clean = sum(1 for row in rows if int(row[4]) == 0)
    checks["2-D zero-failure runs"] = clean >= 8

    elapsed = time.monotonic() - t0
    ok = all(checks.values())
    detail = "; ".join(f"{name} {'ok' if good else 'FAILED'}"
                       for name, good in checks.items())
    verdict(8, "structural invariants", ok,
            f"{detail}; 2-D clean in {clean}/10 seeds; {elapsed:.0f}s")
    assert all(checks.values()), checks
