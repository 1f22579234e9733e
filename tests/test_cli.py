"""Command line behavior: dispatch, overrides, logging, and exit codes."""

import json
import logging
import math

import numpy as np
import pytest
import yaml
from conftest import constant_predictor

from pacsbo import cli, harness
from pacsbo.cli import main
import pacsbo.predictor as predictor_mod
from pacsbo.predictor import load_predictor, save_predictor


def write_config(path, body):
    with open(path, "w") as fh:
        yaml.safe_dump(body, fh)
    return str(path)


def tiny_train_body(out_path):
    return dict(out_path=str(out_path), q_train=2, rollout_iters=3,
                epochs=15, seed=0)


def comparison_body(tmp_path):
    """A tiny compare_conservative config whose predictor file exists."""
    pred = tmp_path / "pred.json"
    save_predictor(constant_predictor(3.0), pred)
    return dict(scenario="compare_conservative", out_dir=str(tmp_path / "o"),
                seeds=[0], budget=2, grid_resolution=30, q_init=20, q_max=40,
                snapshot_iterations=[1, 2],
                predictor_path=str(pred))


def hoeffding_body(out_dir, **kw):
    body = dict(scenario="hoeffding_mc", out_dir=str(out_dir), seeds=[0],
                replicates=60, q=40, deltas=[0.5])
    body.update(kw)
    return body


class TestTrainPredictor:
    def test_trains_and_roundtrips(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        cfg = write_config(tmp_path / "t.yaml", tiny_train_body(out))
        assert main(["train-predictor", "--config", cfg]) == 0
        assert out.exists()
        assert out.with_suffix(".report.yaml").exists()
        report = yaml.safe_load(out.with_suffix(".report.yaml").read_text())
        assert report["rows"] == 6  # two rollouts, three steps each
        model = load_predictor(out)
        again = load_predictor(out)
        x = np.linspace(0.0, 2.0, model.input_len)
        assert model.forward(x) == pytest.approx(again.forward(x), abs=0)
        assert "final loss" in capsys.readouterr().out

    def test_out_flag_overrides_path(self, tmp_path):
        cfg = write_config(tmp_path / "t.yaml",
                           tiny_train_body(tmp_path / "ignored.json"))
        target = tmp_path / "hither" / "model.json"
        assert main(["train-predictor", "--config", cfg,
                     "--out", str(target)]) == 0
        assert target.exists()

    def test_one_training_written_to_two_paths_has_one_hash(self, tmp_path):
        # like a scenario's out_dir, the output path is not configuration
        cfg = write_config(tmp_path / "t.yaml",
                           tiny_train_body(tmp_path / "a.json"))
        assert main(["train-predictor", "--config", cfg]) == 0
        assert main(["train-predictor", "--config", cfg,
                     "--out", str(tmp_path / "b" / "b.json")]) == 0
        a, b = (yaml.safe_load(p.read_text()) for p in (
            tmp_path / "a.report.yaml", tmp_path / "b" / "b.report.yaml"))
        assert a["config_hash"] == b["config_hash"]
        assert ((tmp_path / "a.json").read_bytes()
                == (tmp_path / "b" / "b.json").read_bytes())

    def test_missing_architecture_field(self, tmp_path, capsys):
        body = tiny_train_body(tmp_path / "m.json")
        body["hidden"] = 6  # the widths are fixed; no config may set them
        cfg = write_config(tmp_path / "t.yaml", body)
        assert main(["train-predictor", "--config", cfg]) == 2
        assert "unknown key 'hidden'" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_zero_noise_exits_2(self, tmp_path, capsys):
        body = tiny_train_body(tmp_path / "m.json")
        body["noise_std"] = 0.0
        cfg = write_config(tmp_path / "t.yaml", body)
        assert main(["train-predictor", "--config", cfg]) == 2
        assert "unknown key 'noise_std'" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("bad, message", [
        (dict(epochs="many"), "epochs must be an integer"),
        # training settings that are constants or library defaults now,
        # rejected even at their value
        (dict(hidden=[64, 64]), "unknown key 'hidden'"),
        (dict(step=0.003), "unknown key 'step'"),
        (dict(safe_quantile=0.4), "unknown key 'safe_quantile'"),
        (dict(lengthscale=0.1), "unknown key 'lengthscale'"),
        (dict(epochs=0), "epochs must be >= 1"),
        # the window holds 50 pairs
        (dict(rollout_iters=51), "rollout longer than the trace window"),
        (dict(delta=0.1), "unknown key 'delta'"),
        (dict(batch_size=64), "unknown key 'batch_size'"),
        (dict(label_multiplier=1.0), "unknown key 'label_multiplier'"),
        (dict(num_centers=100), "unknown key 'num_centers'"),
        (dict(alpha_bar=1.0), "unknown key 'alpha_bar'"),
        (dict(noise_std=0.01), "unknown key 'noise_std'"),
        (dict(t_max=50), "unknown key 't_max'"),
        (dict(grid_resolution=100), "unknown key 'grid_resolution'"),
        (dict(q_train=0), "q_train must be >= 1"),
        (dict(rollout_iters=0), "rollout_iters must be >= 1"),
        (dict(epochs=10 ** 400), "epochs must be a finite number"),
    ])
    def test_malformed_values_exit_2(self, tmp_path, capsys, bad, message):
        body = tiny_train_body(tmp_path / "m.json")
        body.update(bad)
        cfg = write_config(tmp_path / "t.yaml", body)
        assert main(["train-predictor", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_config_of_a_list_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.yaml", ["out_path", "m.json"])
        assert main(["train-predictor", "--config", cfg]) == 2
        assert "config must be a mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [7, True, ["a", "b"]])
    def test_out_path_of_another_type_exits_2_before_any_rollout(
            self, tmp_path, capsys, monkeypatch, value):
        rollouts = []
        monkeypatch.setattr(harness, "generate_training_data",
                            lambda *args: rollouts.append(args))
        monkeypatch.chdir(tmp_path)
        body = dict(tiny_train_body(tmp_path / "m.json"), out_path=value)
        cfg = write_config(tmp_path / "t.yaml", body)
        assert main(["train-predictor", "--config", cfg]) == 2
        assert "out_path must be a nonempty string" in capsys.readouterr().err
        assert rollouts == []
        assert [p.name for p in tmp_path.iterdir()] == ["t.yaml"]

    @pytest.mark.parametrize("key", ["q_train", "epochs", "seed"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, key):
        body = dict(tiny_train_body(tmp_path / "m.json"), **{key: math.inf})
        cfg = write_config(tmp_path / "t.yaml", body)
        assert main(["train-predictor", "--config", cfg]) == 2
        assert f"{key} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, source):
        body = tiny_train_body(tmp_path / "m.json")
        flags = ["--seed", "-1"] if source == "flag" else []
        if source == "config":
            body["seed"] = -3
        cfg = write_config(tmp_path / "t.yaml", body)
        assert main(["train-predictor", "--config", cfg] + flags) == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_divergence_exits_3(self, tmp_path, capsys, monkeypatch):
        # the (64, 64) network saturates to a finite loss at steps up to
        # 1e150; this one overflows the loss in the second epoch
        monkeypatch.setattr(predictor_mod, "STEP", 1e300)
        cfg = write_config(tmp_path / "t.yaml",
                           tiny_train_body(tmp_path / "m.json"))
        assert main(["train-predictor", "--config", cfg]) == 3
        assert "numeric" in capsys.readouterr().err


class TestRunCommand:
    def test_hoeffding_via_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "h.yaml",
                           hoeffding_body(tmp_path / "out"))
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "coverage at delta=0.5" in out
        assert (tmp_path / "out" / "coverage.csv").exists()
        assert (tmp_path / "out" / "manifest.yaml").exists()

    def test_hoeffding_subcommand_checks_scenario(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "f.yaml",
            dict(scenario="fig3_thresholds", out_dir=str(tmp_path / "o"),
                 seeds=[0]))
        assert main(["hoeffding-mc", "--config", cfg]) == 2
        assert "expects scenario hoeffding_mc" in capsys.readouterr().err

    def test_package_warnings_reach_stderr_during_command(
            self, tmp_path, capsys, monkeypatch):
        def warn_and_finish(spec):
            logging.getLogger("pacsbo.harness").warning("probe warning")
            return {"csv": "summary.csv", "manifest": "manifest.yaml"}

        monkeypatch.setattr(cli, "run_experiment", warn_and_finish)
        cfg = write_config(tmp_path / "h.yaml", hoeffding_body(tmp_path))
        log = logging.getLogger("pacsbo")
        level, handlers = log.level, list(log.handlers)
        assert main(["run", "--config", cfg]) == 0
        assert "probe warning" in capsys.readouterr().err
        # the stderr handler lives only as long as the command
        assert (log.level, log.handlers) == (level, handlers)

    def test_repeated_grid_point_keeps_stderr_empty(self, tmp_path, capsys,
                                                    caplog):
        """A PACSBO run that re-measures its seed points makes the
        sampler's Gram singular; the jitter retry is logged at debug and
        the command prints nothing to stderr."""
        pred = tmp_path / "pred.json"
        save_predictor(constant_predictor(3.0), pred)
        cfg = write_config(tmp_path / "c.yaml", dict(
            scenario="compare_conservative", out_dir=str(tmp_path / "out"),
            seeds=[0], budget=4, snapshot_iterations=[3], q_init=20,
            q_max=40, predictor_path=str(pred)))
        caplog.set_level(logging.DEBUG, logger="pacsbo.kernel_gp")
        assert main(["run", "--config", cfg]) == 0
        assert any("jitter" in r.getMessage() for r in caplog.records)
        assert capsys.readouterr().err == ""

    def test_bad_yaml_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("scenario: [oops\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_of_a_list_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "f.yaml", ["scenario", "fig3_thresholds"])
        assert main(["run", "--config", cfg]) == 2
        assert "config must be a mapping" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "n.yaml",
                           dict(scenario="nope", out_dir=str(tmp_path / "o")))
        assert main(["run", "--config", cfg]) == 2
        assert "unknown scenario 'nope'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_repeated_deltas_exit_2(self, tmp_path, capsys):
        # coverage.csv would hold two rows for one delta
        cfg = write_config(tmp_path / "h.yaml", hoeffding_body(
            tmp_path / "o", deltas=[0.5, 0.5]))
        assert main(["run", "--config", cfg]) == 2
        assert "deltas must be distinct" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_replicates_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "h.yaml",
                           hoeffding_body(tmp_path, replicates=0))
        assert main(["run", "--config", cfg]) == 2

    def test_zero_noise_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "f.yaml",
            dict(scenario="fig3_thresholds", out_dir=str(tmp_path / "o"),
                 seeds=[0], grid_resolution=30, sample_counts=[3],
                 q_init=30, q_max=60, noise_std=0.0))
        assert main(["run", "--config", cfg]) == 2
        assert "noise_std must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad, message", [
        (dict(q_init="many"), "q_init must be an integer"),
        (dict(num_centers=100), "unknown key 'num_centers'"),
        (dict(delta="small"), "delta must be a number"),
        (dict(sample_counts=[5, "ten"]), "sample_counts must be an integer"),
        (dict(sample_counts=5), "sample_counts must be a list"),
        (dict(sample_counts=[5, 5000]), "sample_counts"),
        (dict(sample_counts=[5, 100]), "num_centers"),
        (dict(sample_counts=[5, 40], grid_resolution=30), "grid points"),
        (dict(delta=1.5), "delta must be in (0, 1)"),
        # the study has no constraint and no predictor
        (dict(predictor_path="does_not_exist.json"),
         "unknown key 'predictor_path'"),
        (dict(lengthscale=-1), "lengthscale must be positive"),
        (dict(grid_resolution=0), "resolution must be positive"),
        (dict(safe_fraction=0.5), "unknown key 'safe_fraction'"),
        (dict(f_g=0.0), "unknown key 'f_g'"),
        (dict(seeds=3), "seeds must be a list of non-negative integers"),
        (dict(seeds=["x"]), "seeds must be a list of non-negative integers"),
        (dict(seeds=[-1]), "seeds must be a list of non-negative integers"),
        (dict(seeds=[1.5]), "seeds must be a list of non-negative integers"),
        (dict(norm_target=-1), "norm_target must be positive"),
        (dict(norm_target=0), "norm_target must be positive"),
        (dict(seeds=[0, 0]), "seeds must be distinct"),
        (dict(lengthscale=math.inf), "lengthscale must be a finite number"),
        (dict(norm_target=math.inf), "norm_target must be a finite number"),
        (dict(alpha_bar=math.inf), "alpha_bar must be a finite number"),
        (dict(noise_std=math.inf), "noise_std must be a finite number"),
        (dict(delta=math.nan), "delta must be a finite number"),
        (dict(q_max=math.inf), "q_max must be a finite number"),
        (dict(sample_counts=[5, math.inf]),
         "sample_counts must be a finite number"),
        # integers too large for a float
        (dict(q_init=10 ** 400), "q_init must be a finite number"),
        (dict(lengthscale=10 ** 400), "lengthscale must be a finite number"),
        # per_seed_decreasing compares bounds in list order, and a
        # repeated count runs one estimator call twice
        (dict(sample_counts=[12, 3]), "sample_counts must be strictly increasing"),
        (dict(sample_counts=[3, 3]), "sample_counts must be strictly increasing"),
    ])
    def test_malformed_fig3_values_exit_2(self, tmp_path, capsys, bad,
                                          message):
        body = dict(scenario="fig3_thresholds", out_dir=str(tmp_path / "o"),
                    seeds=[0], q_init=30, q_max=60)
        body.update(bad)
        cfg = write_config(tmp_path / "f.yaml", body)
        assert main(["run", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad, message", [
        (dict(lengthscale=-1), "lengthscale must be positive"),
        (dict(grid_resolution=0), "resolution must be positive"),
        (dict(safe_fraction=2), "safe_fraction must be in (0, 1)"),
        (dict(s0_placement="nowhere"), "s0_placement must be argmax or far"),
        (dict(opt_fraction=0.9), "unknown key 'opt_fraction'"),
        (dict(snapshot_iterations=[0, 2]), "snapshot_iterations must lie"),
        (dict(snapshot_iterations=[1, 5]), "snapshot_iterations must lie"),
        (dict(f_g=0.0), "unknown key 'f_g'"),
        (dict(seeds=[0, 1.5]), "seeds must be a list of non-negative integers"),
        (dict(norm_target=0), "norm_target must be positive"),
        # the last step samples 3 start points and budget - 1 measurements,
        # and the sampler draws with 100 centers
        (dict(budget=98), "num_centers must exceed budget + 2"),
        (dict(budget=200), "num_centers must exceed budget + 2"),
        (dict(delta=0.0), "delta must be in (0, 1)"),
        (dict(num_centers=100), "unknown key 'num_centers'"),
    ])
    def test_malformed_comparison_values_exit_2(self, tmp_path, capsys, bad,
                                                message):
        body = comparison_body(tmp_path)
        body.update(bad)
        cfg = write_config(tmp_path / "c.yaml", body)
        assert main(["run", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [5, True, ["p.json"], ""])
    def test_predictor_path_of_another_type_exits_2(self, tmp_path, capsys,
                                                    monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        body = dict(comparison_body(tmp_path), predictor_path=value)
        cfg = write_config(tmp_path / "c.yaml", body)
        assert main(["run", "--config", cfg]) == 2
        assert ("predictor_path must be a nonempty string"
                in capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml",
                                                             "pred.json"]

    @pytest.mark.parametrize("value", [["a", "b"], 7, True])
    def test_out_dir_of_another_type_exits_2(self, tmp_path, capsys,
                                             monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        body = dict(hoeffding_body(tmp_path), out_dir=value)
        cfg = write_config(tmp_path / "h.yaml", body)
        assert main(["run", "--config", cfg]) == 2
        assert "out_dir must be a nonempty string" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["h.yaml"]

    @pytest.mark.parametrize("key", ["fixed_bound", "safe_fraction"])
    def test_non_finite_comparison_value_exits_2(self, tmp_path, capsys,
                                                 key):
        body = dict(comparison_body(tmp_path), **{key: math.inf})
        cfg = write_config(tmp_path / "c.yaml", body)
        assert main(["run", "--config", cfg]) == 2
        assert f"{key} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rewrite", [
        lambda record: "not json",
        lambda record: json.dumps({"schema_version": 7}),
        lambda record: json.dumps(
            {k: v for k, v in record.items() if k != "weights"}),
        lambda record: json.dumps(dict(record, weights=[[[1.0, 2.0]]])),
    ], ids=["not_json", "other_schema", "missing_field", "unchained_weights"])
    def test_malformed_predictor_file_exits_2(self, tmp_path, capsys,
                                              rewrite):
        body = comparison_body(tmp_path)
        pred = tmp_path / "pred.json"
        pred.write_text(rewrite(json.loads(pred.read_text())))
        cfg = write_config(tmp_path / "c.yaml", body)
        assert main(["run", "--config", cfg]) == 2
        assert f"{pred}: not a predictor file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_predictor_path_naming_a_directory_exits_2(self, tmp_path,
                                                      capsys):
        body = comparison_body(tmp_path)
        body["predictor_path"] = str(tmp_path)
        cfg = write_config(tmp_path / "c.yaml", body)
        assert main(["run", "--config", cfg]) == 2
        assert f"{tmp_path}: not a predictor file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("snapshot_iterations", [15]),
        ("fixed_bound", 2.0),
    ])
    def test_synthetic2d_rejects_comparison_keys(self, tmp_path, capsys,
                                                 key, value):
        cfg = write_config(
            tmp_path / "s.yaml",
            {"scenario": "synthetic2d", "out_dir": str(tmp_path / "o"),
             "grid_resolution": [15, 15], "budget": 1,
             "predictor_path": str(tmp_path / "absent.json"), key: value})
        assert main(["synthetic2d", "--config", cfg]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_fig3_prints_thresholds(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "f.yaml",
            dict(scenario="fig3_thresholds", out_dir=str(tmp_path / "o"),
                 seeds=[0], grid_resolution=30, sample_counts=[3, 5],
                 q_init=30, q_max=80))
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "accepted bound at   3 samples" in out
        assert "accepted bound at   5 samples" in out
        assert "mean + width" in out


class TestOverridePrecedence:
    def test_env_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "h.yaml",
                           hoeffding_body(tmp_path / "from_config"))
        monkeypatch.setenv("PACSBO_OUT", str(tmp_path / "from_env"))
        assert main(["run", "--config", cfg]) == 0
        assert (tmp_path / "from_env" / "coverage.csv").exists()
        assert not (tmp_path / "from_config").exists()

    def test_empty_env_out_dir_counts_as_unset(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "h.yaml",
                           hoeffding_body(tmp_path / "wanted"))
        monkeypatch.setenv("PACSBO_OUT", "")
        monkeypatch.chdir(tmp_path)
        assert main(["hoeffding-mc", "--config", cfg]) == 0
        assert (tmp_path / "wanted" / "coverage.csv").exists()
        assert not (tmp_path / "coverage.csv").exists()
        assert not (tmp_path / "manifest.yaml").exists()

    def test_empty_env_out_path_counts_as_unset(self, tmp_path, monkeypatch):
        out = tmp_path / "wanted.json"
        cfg = write_config(tmp_path / "t.yaml", tiny_train_body(out))
        monkeypatch.setenv("PACSBO_OUT", "")
        assert main(["train-predictor", "--config", cfg]) == 0
        assert out.exists()

    def test_empty_out_flag_dir_counts_as_unset(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "h.yaml",
                           hoeffding_body(tmp_path / "wanted"))
        monkeypatch.chdir(tmp_path)
        assert main(["hoeffding-mc", "--config", cfg, "--out", ""]) == 0
        assert (tmp_path / "wanted" / "coverage.csv").exists()
        assert not (tmp_path / "coverage.csv").exists()
        assert not (tmp_path / "manifest.yaml").exists()

    def test_empty_out_flag_path_counts_as_unset(self, tmp_path):
        out = tmp_path / "wanted.json"
        cfg = write_config(tmp_path / "t.yaml", tiny_train_body(out))
        assert main(["train-predictor", "--config", cfg, "--out", ""]) == 0
        assert out.exists()

    def test_cli_beats_env(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "h.yaml",
                           hoeffding_body(tmp_path / "from_config"))
        monkeypatch.setenv("PACSBO_OUT", str(tmp_path / "from_env"))
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "from_cli")]) == 0
        assert (tmp_path / "from_cli" / "coverage.csv").exists()
        assert not (tmp_path / "from_env").exists()

    def test_seed_override_reflected_in_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "h.yaml",
                           hoeffding_body(tmp_path / "o", seeds=[1, 2, 3]))
        assert main(["run", "--config", cfg, "--seed", "42"]) == 0
        manifest = yaml.safe_load(
            (tmp_path / "o" / "manifest.yaml").read_text())
        assert manifest["seeds"] == [42]

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("count", [0, -1, 2])
    def test_thread_count_below_one_exits_2(self, tmp_path, capsys, source,
                                            count):
        # seeds run in one loop, so no source may set a thread count of
        # any value, below one or not
        extra = {"threads": count} if source == "config" else {}
        cfg = write_config(tmp_path / "h.yaml",
                           hoeffding_body(tmp_path / "o", **extra))
        argv = ["run", "--config", cfg]
        if source == "flag":
            argv += ["--threads", str(count)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an unknown flag
            code = exc.code
        assert code == 2
        assert "threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
