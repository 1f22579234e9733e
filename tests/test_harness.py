"""Tests for the experiment harness: specs, file IO, and scenario recipes."""

from dataclasses import replace

import numpy as np
import pytest
import yaml
from scipy import ndimage

from conftest import constant_predictor, read_csv_rows
from pacsbo.errors import ConfigError
from pacsbo.harness import (
    SCENARIOS,
    TRAIN_DEFAULTS,
    ExperimentSpec,
    _component,
    _grid_for,
    _kernel_for,
    _pacsbo_config,
    config_hash,
    load_spec,
    make_truth,
    run_experiment,
    scenario_fig3,
    scenario_hoeffding,
    seed_triple,
    train_predictor_pipeline,
    write_csv,
    write_manifest,
)
from pacsbo.kernel_gp import (
    GridDomain,
    KernelConfig,
    SampleSet,
    gp_fit,
    mean_rkhs_norm,
)
from pacsbo.pac_estimator import PacConfig, estimate_upper_bound
from pacsbo.predictor import save_predictor
from pacsbo.pacsbo_loop import GroundTruth
from pacsbo.rkhs_function import (
    DrawPool,
    SamplerConfig,
    evaluate,
    rkhs_norm,
    sample_random_function,
    scale_to_norm,
)
from pacsbo.seeding import derive_rng
from pacsbo.subdomain import global_mask

KER = KernelConfig(lengthscale=0.1)


def write_config(path, body):
    with open(path, "w") as fh:
        yaml.safe_dump(body, fh)
    return path


def hoeffding_body(out, **kw):
    body = dict(scenario="hoeffding_mc", out_dir=str(out), seeds=[0],
                replicates=100, q=50, deltas=[0.5])
    body.update(kw)
    return body


class TestSpecLoading:
    def test_defaults_and_seed_list(self, tmp_path):
        p = write_config(tmp_path / "c.yaml",
                         dict(scenario="fig3_thresholds",
                              out_dir=str(tmp_path / "out"),
                              seeds=[3, 4]))
        spec = load_spec(p)
        assert spec.seeds == (3, 4)
        assert spec.params["norm_target"] == 1.0
        assert spec.params["noise_std"] == 0.001
        assert spec.params["q_max"] == 5000

    def test_overrides_win(self, tmp_path):
        p = write_config(tmp_path / "c.yaml",
                         hoeffding_body(tmp_path / "a", seeds=[1, 2]))
        spec = load_spec(p, out_dir=str(tmp_path / "b"), seed=9)
        assert spec.out_dir == str(tmp_path / "b")
        assert spec.seeds == (9,)

    def test_missing_scenario(self, tmp_path):
        p = write_config(tmp_path / "c.yaml", dict(out_dir="x"))
        with pytest.raises(ConfigError, match="scenario"):
            load_spec(p)

    def test_unknown_key_named(self, tmp_path):
        p = write_config(tmp_path / "c.yaml",
                         hoeffding_body(tmp_path, bogus=1))
        with pytest.raises(ConfigError, match="bogus"):
            load_spec(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_spec(tmp_path / "absent.yaml")

    def test_bad_yaml_reports_line(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("scenario: [unclosed\n")
        with pytest.raises(ConfigError, match=str(p)):
            load_spec(p)

    @pytest.mark.parametrize("kw,msg", [
        (dict(replicates=0), "replicates"),
        (dict(q=0), "q must"),
        (dict(deltas=[]), "deltas"),
        (dict(deltas=[0.5, 2]), "deltas"),
        (dict(seeds=[0, 1]), "one seed"),
        (dict(noise_std=0.01), "unknown key 'noise_std'"),
    ])
    def test_hoeffding_validation(self, tmp_path, kw, msg):
        p = write_config(tmp_path / "c.yaml", hoeffding_body(tmp_path, **kw))
        with pytest.raises(ConfigError, match=msg):
            load_spec(p)

    def test_compare_needs_predictor(self):
        with pytest.raises(ConfigError, match="predictor_path"):
            ExperimentSpec("compare_conservative", "out", (0,),
                           {**_params("compare_conservative"),
                            "predictor_path": None})

    def test_synthetic2d_needs_2d_grid(self):
        params = _params("synthetic2d")
        params.update(predictor_path="p.json", grid_resolution=50)
        with pytest.raises(ConfigError, match="2-D"):
            ExperimentSpec("synthetic2d", "out", (0,), params)

    def test_num_centers_must_exceed_last_step_samples(self):
        """The last step samples the three start points and budget - 1
        measurements, so the sampler's num_centers must be at least
        budget + 3."""
        centers = SamplerConfig().num_centers
        for scenario in ("compare_conservative", "compare_optimistic",
                         "synthetic2d"):
            params = _params(scenario)
            params.update(budget=centers - 2, predictor_path="p.json")
            with pytest.raises(ConfigError, match="num_centers must exceed"):
                ExperimentSpec(scenario, "out", (0,), params)
            params["budget"] = centers - 3
            ExperimentSpec(scenario, "out", (0,), params)


def _params(scenario):
    from pacsbo.harness import _scenario_defaults
    return _scenario_defaults(scenario)


class ReadRecorder(dict):
    """A params dict that records every key read through it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


TINY = {
    "fig3_thresholds": dict(grid_resolution=30, sample_counts=[3],
                            q_init=20, q_max=40),
    "compare_conservative": dict(grid_resolution=30, budget=2, q_init=20,
                                 q_max=40, snapshot_iterations=[1]),
    "compare_optimistic": dict(grid_resolution=30, budget=2, q_init=20,
                               q_max=40, snapshot_iterations=[1]),
    "synthetic2d": dict(grid_resolution=[12, 12], budget=1, q_init=20,
                        q_max=40),
    "hoeffding_mc": dict(replicates=5, q=5),
}


@pytest.mark.parametrize("scenario", SCENARIOS + ("train",))
def test_a_run_reads_every_scenario_key(tmp_path, scenario):
    """Beyond its validation, a run reads every key of its scenario's
    defaults, and training every key of ``TRAIN_DEFAULTS``, so no key can
    be set that nothing uses."""
    if scenario == "train":
        cfg = ReadRecorder(TRAIN_DEFAULTS)
        cfg.update(out_path=str(tmp_path / "p.json"), q_train=2,
                   rollout_iters=3, epochs=2)
        train_predictor_pipeline(cfg)
        assert set(TRAIN_DEFAULTS) - cfg.read == set()
        return
    params = ReadRecorder(_params(scenario))
    params.update(TINY[scenario])
    if "predictor_path" in params:
        params["predictor_path"] = str(tmp_path / "pred.json")
        save_predictor(constant_predictor(3.0), params["predictor_path"])
    spec = ExperimentSpec(scenario, str(tmp_path / "out"), (0,), params)
    params.read.clear()
    run_experiment(spec)
    assert set(_params(scenario)) - params.read == set()


def test_yaml_floats_carry_the_csv_digits(tmp_path):
    """The results written to YAML, the fig3 and hoeffding_mc manifests'
    means and coverage and the train report's label and loss values, are
    rounded to 10 significant digits like every CSV cell; the returned
    results are not."""
    def ten_digits(value):
        return value == float(f"{value:.10g}")

    fig3 = _params("fig3_thresholds")
    fig3.update(TINY["fig3_thresholds"])
    hoeffding = dict(_params("hoeffding_mc"), replicates=60, q=5)
    for scenario, params, keys in (
            ("fig3_thresholds", fig3, ("bound_means", "threshold_means")),
            ("hoeffding_mc", hoeffding, ("coverage",))):
        spec = ExperimentSpec(scenario, str(tmp_path / scenario), (0,),
                              params)
        result = run_experiment(spec)
        manifest = yaml.safe_load(result["manifest"].read_text())
        for key in keys:
            assert len(manifest[key]) == len(result[key])
            for written, returned in zip(manifest[key].values(),
                                         result[key].values()):
                assert ten_digits(written), (key, written)
                assert written == pytest.approx(returned, rel=1e-9)
    cfg = dict(TRAIN_DEFAULTS, out_path=str(tmp_path / "p.json"),
               q_train=2, rollout_iters=3, epochs=15)
    result = train_predictor_pipeline(cfg)
    report = yaml.safe_load(result["report_path"].read_text())
    for key in ("label_mean", "label_max", "final_loss"):
        assert ten_digits(report[key]), (key, report[key])
        assert report[key] == pytest.approx(result["report"][key], rel=1e-9)


class TestCsvAndManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, "x"], [2, "y"]])
        header, rows = read_csv_rows(path)
        assert header == ["a", "b"]
        assert rows == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(ValueError, match="row 1"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])

    def test_config_hash_key_order_invariant(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == \
            config_hash({"b": [2, 3], "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_manifest_contents(self, tmp_path):
        spec = ExperimentSpec("fig3_thresholds", str(tmp_path), (0, 1),
                              _params("fig3_thresholds"))
        path = write_manifest(spec, [tmp_path / "z.csv", tmp_path / "a.csv"])
        data = yaml.safe_load(path.read_text())
        assert data["seeds"] == [0, 1]
        assert len(data["config_hash"]) == 64
        assert data["files"] == sorted(data["files"])
        assert set(data["versions"]) == {"package", "python", "numpy",
                                         "scipy"}
        assert not any("time" in k or "date" in k for k in data)


class TestTruthSetup:
    def test_norm_and_quantile_threshold(self):
        grid = GridDomain.uniform(200)
        params = dict(norm_target=2.0, safe_fraction=0.6)
        truth = make_truth(params, grid, KER, seed=0)
        assert rkhs_norm(truth.reward) == pytest.approx(2.0, abs=1e-9)
        safe = truth.reward_values - truth.threshold >= 0
        assert abs(safe.mean() - 0.6) < 0.02

    def test_threshold_placed_by_the_one_quantile_rule(self, monkeypatch):
        made, real = [], GroundTruth.at_quantile

        def at_quantile(reward, q):
            made.append(q)
            return real(reward, q)

        monkeypatch.setattr(GroundTruth, "at_quantile", at_quantile)
        grid = GridDomain.uniform(50)
        truth = make_truth(dict(norm_target=2.0, safe_fraction=0.6), grid,
                           KER, seed=1)
        assert made == [pytest.approx(0.4, abs=1e-15)]
        assert truth.threshold == float(np.quantile(truth.reward_values,
                                                    1.0 - 0.6))

    @pytest.mark.parametrize("shape", [(30,), (1, 8), (12, 9), (4, 5, 6)])
    def test_component_matches_ndimage_label(self, shape):
        """The far placement's flood fill finds the component that scipy's
        labelling (axis connectivity) gives the start point, and nothing
        for a start outside the mask."""
        rng = np.random.default_rng(sum(shape))
        for density in (0.2, 0.5, 0.8):
            for _ in range(15):
                member = rng.random(shape) < density
                labels = ndimage.label(member)[0].reshape(-1)
                for j in rng.integers(member.size, size=3):
                    want = (labels == labels[j]) & (labels[j] > 0)
                    np.testing.assert_array_equal(_component(member, j), want)

    def test_seed_triple_1d(self):
        grid = GridDomain.uniform(120)
        truth = make_truth(dict(norm_target=2.0, safe_fraction=0.6), grid, KER, seed=3)
        triple = seed_triple(truth, grid)
        assert triple[1] == triple[0] + 1 and triple[2] == triple[1] + 1
        vals = truth.reward_values - truth.threshold
        assert all(vals[j] >= 0.1 for j in triple)
        assert int(np.argmax(vals)) in triple

    def test_seed_triple_2d_same_row(self):
        grid = GridDomain.uniform((15, 15))
        truth = make_truth(dict(norm_target=2.0, safe_fraction=0.6), grid, KER, seed=5)
        triple = seed_triple(truth, grid)
        rows = {j // 15 for j in triple}
        assert len(rows) == 1
        assert triple[2] - triple[0] == 2

    def test_truths_and_run_configs_compare_by_identity(self, tmp_path):
        """Objects holding arrays (truth functions, predictors) compare
        equal only to themselves, so truths and run configs compare without
        raising; two loads give two predictors."""
        pred = tmp_path / "pred.json"
        save_predictor(constant_predictor(3.0), pred)
        params = _params("compare_conservative")
        params.update(grid_resolution=30, predictor_path=str(pred))
        grid, kernel = _grid_for(params), _kernel_for(params)
        a, b = (make_truth(params, grid, kernel, 0) for _ in range(2))
        assert a == replace(a) and a != b and a.reward != b.reward
        s0 = seed_triple(a, grid)
        one, two = (_pacsbo_config(params, grid, kernel, s0, 0)
                    for _ in range(2))
        assert one == replace(one) and one != two
        assert one.predictor != two.predictor

    def test_seed_triple_margin_failure(self):
        grid = GridDomain.uniform(30)
        truth = make_truth(dict(norm_target=0.05, safe_fraction=0.6), grid, KER, seed=0)
        # norm 0.05 keeps every constraint value far below the 0.1 margin
        with pytest.raises(ConfigError, match="margin"):
            seed_triple(truth, grid)


class TestHoeffdingScenario:
    def test_coverage_report_and_csv(self, tmp_path):
        spec = ExperimentSpec(
            "hoeffding_mc", str(tmp_path), (0,),
            {**_params("hoeffding_mc"), "replicates": 200, "q": 50,
             "deltas": [0.5]})
        result = scenario_hoeffding(spec)
        assert result["coverage"][0.5] >= 0.5
        header, rows = read_csv_rows(result["csv"])
        assert header[0] == "schema_version"
        assert len(rows) == 1
        assert float(rows[0]["coverage"]) == result["coverage"][0.5]
        assert (tmp_path / "manifest.yaml").exists()

    def test_deterministic(self, tmp_path):
        spec = ExperimentSpec(
            "hoeffding_mc", str(tmp_path), (7,),
            {**_params("hoeffding_mc"), "replicates": 150, "q": 40,
             "deltas": [0.1, 0.5]})
        a = scenario_hoeffding(spec)["coverage"]
        b = scenario_hoeffding(spec)["coverage"]
        assert a == b


class TestFig3Scenario:
    def make_spec(self, tmp_path):
        params = _params("fig3_thresholds")
        params.update(grid_resolution=40, sample_counts=[3, 6], q_init=50,
                      q_max=150)
        return ExperimentSpec("fig3_thresholds", str(tmp_path), (0, 1),
                              params)

    def test_rows_and_means(self, tmp_path):
        result = scenario_fig3(self.make_spec(tmp_path / "a"))
        header, rows = read_csv_rows(result["csv"])
        assert len(rows) == 4  # two seeds x two sample counts
        for row in rows:
            assert float(row["threshold"]) == pytest.approx(
                float(row["draw_mean"]) + float(row["draw_width"]), rel=1e-9)
            # an accepted bound always clears the final acceptance level
            assert float(row["accepted_bound"]) >= float(row["threshold"]) \
                or not int(row["escalated"])
        by_count = {m: np.mean([float(r["accepted_bound"]) for r in rows
                                if int(r["num_samples"]) == m])
                    for m in (3, 6)}
        assert result["bound_means"][3] == pytest.approx(by_count[3],
                                                         rel=1e-9)
        assert result["bound_means"][6] == pytest.approx(by_count[6],
                                                         rel=1e-9)

    def test_accepted_bound_matches_direct_estimator_call(self, tmp_path):
        """One CSV cell must replay from the recorded seed path alone."""
        spec = self.make_spec(tmp_path / "d")
        result = scenario_fig3(spec)
        _, rows = read_csv_rows(result["csv"])
        row = next(r for r in rows
                   if int(r["seed"]) == 1 and int(r["num_samples"]) == 6)
        grid = GridDomain.uniform(40)
        kernel = KernelConfig(lengthscale=0.1)
        f = scale_to_norm(
            sample_random_function(grid, kernel, SamplerConfig(100),
                                   derive_rng(1, "truth")), 1.0)
        order = derive_rng(1, "draw").permutation(grid.num_points)[:6]
        eps = derive_rng(1, "noise").normal(0.0, 0.001, size=6)
        y = evaluate(f)[order] + eps
        samples = SampleSet(grid, order, {0: y, 1: y})
        guess = mean_rkhs_norm(gp_fit(samples, 0, 0.001, kernel))
        cfg = PacConfig(q_init=50, q_max=150, sampler=SamplerConfig())
        pool = DrawPool(samples, (0,), 0.001, kernel, global_mask(grid),
                        cfg.sampler, (1, "fig3", 6))
        res = estimate_upper_bound(guess, pool, 0, delta=0.1, cfg=cfg)
        assert float(row["accepted_bound"]) == pytest.approx(res.bound,
                                                             rel=1e-9)
        assert int(row["q_used"]) == res.q_used
        assert bool(int(row["escalated"])) == res.escalated


@pytest.fixture(scope="module")
def compare_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("compare")
    pred = tmp / "pred.json"
    save_predictor(constant_predictor(3.0), pred)
    params = _params("compare_conservative")
    params.update(grid_resolution=40, budget=3, q_init=20, q_max=40,
                  predictor_path=str(pred),
                  snapshot_iterations=[1, 3], fixed_bound=2.5)
    spec = ExperimentSpec("compare_conservative", str(tmp / "out"),
                          (0,), params)
    return spec, run_experiment(spec)


def test_a_seed_writes_the_same_files_alone_as_among_other_seeds(tmp_path):
    """A seed's output does not depend on the other seeds of its run: seed
    1's records and snapshot CSVs are byte-equal whether it runs after
    seed 0 and before seed 3 or alone."""
    pred = tmp_path / "pred.json"
    save_predictor(constant_predictor(3.0), pred)
    trees = {}
    for seeds in ((0, 1, 3), (1,)):
        params = _params("compare_conservative")
        params.update(grid_resolution=40, budget=3, q_init=20, q_max=40,
                      predictor_path=str(pred),
                      snapshot_iterations=[1, 3], fixed_bound=2.5)
        out = tmp_path / "-".join(map(str, seeds))
        run_experiment(ExperimentSpec("compare_conservative", str(out),
                                      seeds, params))
        trees[seeds] = {str(p.relative_to(out)): p.read_bytes()
                        for p in out.rglob("*_seed1[._]*csv")}
    # 2 algorithms: records, snapshots at two iterations
    assert len(trees[(1,)]) == 2 + 4
    assert trees[(0, 1, 3)] == trees[(1,)]


class TestCompareScenario:

    def test_summary_matches_records(self, compare_result):
        spec, res = compare_result
        _, summary = read_csv_rows(res["csv"])
        assert {r["algorithm"] for r in summary} == {"pacsbo", "safeopt"}
        for row in summary:
            rec_path = (f"{spec.out_dir}/records_{row['algorithm']}"
                        f"_seed{row['seed']}.csv")
            header, recs = read_csv_rows(rec_path)
            assert len(recs) == 3
            assert recs[-1]["best_so_far"] == row["best_reward"]
            any_unsafe = any(r["unsafe"] == "1" for r in recs)
            assert str(int(any_unsafe)) == row["any_unsafe"]

    def test_partition_columns(self, compare_result):
        spec, res = compare_result
        _, recs = read_csv_rows(f"{spec.out_dir}/records_pacsbo_seed0.csv")
        for r in recs:
            for label in ("tilde", "hat", "global"):
                assert float(r[f"B_{label}"]) > 0
                assert int(r[f"q_{label}"]) >= 20
        _, recs = read_csv_rows(f"{spec.out_dir}/records_safeopt_seed0.csv")
        for r in recs:
            assert r["B_tilde"] == "" and r["B_hat"] == ""
            assert float(r["B_global"]) == 2.5
            assert r["q_global"] == "0"

    def test_decision_columns(self, compare_result):
        spec, _ = compare_result
        for algorithm in ("pacsbo", "safeopt"):
            _, recs = read_csv_rows(
                f"{spec.out_dir}/records_{algorithm}_seed0.csv")
            for r in recs:
                assert r[f"B_{r['chosen_partition']}"] != ""
                for label in ("tilde", "hat", "global"):
                    per_channel = [r[f"B_{label}_{i}"] for i in (0, 1)]
                    if r[f"B_{label}"] == "":
                        assert per_channel == ["", ""]
                    else:
                        assert (max(map(float, per_channel))
                                == float(r[f"B_{label}"]))
            if algorithm == "safeopt":
                assert {r["chosen_partition"] for r in recs} == {"global"}
                assert {r["B_global_1"] for r in recs} == {"2.5"}

    def test_snapshots_written(self, compare_result):
        spec, res = compare_result
        for algorithm in ("pacsbo", "safeopt"):
            for t in (1, 3):
                path = (f"{spec.out_dir}/snapshots/{algorithm}_seed0"
                        f"_iter{t}.csv")
                header, rows = read_csv_rows(path)
                assert len(rows) == 40
                assert header[:3] == ["x0", "sampled", "mu"]
                sampled = sum(int(r["sampled"]) for r in rows)
                assert sampled >= 3  # at least the start set
        manifest = yaml.safe_load((res["manifest"]).read_text())
        assert any("snapshots/" in f for f in manifest["files"])

    def test_snapshot_bounds_nest(self, compare_result):
        spec, res = compare_result
        _, rows = read_csv_rows(
            f"{spec.out_dir}/snapshots/pacsbo_seed0_iter3.csv")
        saw_tilde = 0
        for r in rows:
            if r["l_tilde"] == "" or r["l_tilde"] == "nan":
                continue
            saw_tilde += 1
            # smaller region, same data: tilde interval sits inside global
            assert float(r["l_tilde"]) >= float(r["l_global"]) - 1e-9
            assert float(r["u_tilde"]) <= float(r["u_global"]) + 1e-9
        assert saw_tilde >= 1


def test_synthetic2d_smoke(tmp_path):
    pred = tmp_path / "pred.json"
    save_predictor(constant_predictor(3.0), pred)
    params = _params("synthetic2d")
    params.update(grid_resolution=[12, 12], budget=2, q_init=15, q_max=30,
                  predictor_path=str(pred))
    spec = ExperimentSpec("synthetic2d", str(tmp_path / "out"), (0,), params)
    res = run_experiment(spec)
    _, summary = read_csv_rows(res["csv"])
    assert summary[0]["total_samples"] == "5"  # 3 seeds + 2 iterations
    header, rows = read_csv_rows(f"{spec.out_dir}/explored_seed0.csv")
    assert header == ["x0", "x1", "sampled", "tilde", "hat"]
    assert len(rows) == 144
    tilde_in_hat = all(r["hat"] == "1" for r in rows if r["tilde"] == "1")
    assert tilde_in_hat
    assert 3 <= sum(int(r["sampled"]) for r in rows) <= 5
    _, recs = read_csv_rows(f"{spec.out_dir}/records_pacsbo_seed0.csv")
    assert {"a0", "a1"} <= set(recs[0])
