"""Traces, encoding, rollout data, and the from-scratch network."""

import math

import numpy as np
import pytest
from conftest import constant_predictor, gradient_check_error

import pacsbo.pacsbo_loop as loop_mod
import pacsbo.predictor as predictor_mod
from pacsbo.errors import NumericError
from pacsbo.kernel_gp import (
    GridDomain,
    KernelConfig,
    SampleSet,
    gp_fit,
    mean_rkhs_norm,
    predictive,
    reciprocal_cov_integral,
    with_targets,
)
from pacsbo.predictor import (
    MIN_SCALE,
    MlpPredictor,
    TrainingSet,
    append_trace,
    encode_trace,
    generate_training_data,
    load_predictor,
    predict_norm,
    save_predictor,
    train_mlp,
)
from pacsbo.subdomain import global_mask


def cov_integral(post, mask):
    """Reciprocal covariance integral of ``post`` over ``mask``."""
    var = predictive({0: post}, mask.indices())[1]
    return reciprocal_cov_integral(var, mask)


def test_append_preserves_order():
    grid = GridDomain.uniform(20)
    mask = global_mask(grid)
    kernel = KernelConfig(lengthscale=0.1)
    one = gp_fit(SampleSet(grid, [3], {0: [0.5], 1: [0.5]}), 0, 0.01, kernel)
    two = gp_fit(SampleSet(grid, [3, 12], {0: [0.5, -0.2], 1: [0.5, -0.2]}),
                 0, 0.01, kernel)
    t = append_trace(append_trace((), one, cov_integral(one, mask)),
                     two, cov_integral(two, mask))
    assert t == ((mean_rkhs_norm(one), cov_integral(one, mask)),
                 (mean_rkhs_norm(two), cov_integral(two, mask)))


def test_encode_keeps_newest_pairs():
    t = tuple((float(k), 1.0 + k) for k in range(4))
    np.testing.assert_array_equal(encode_trace(t, 6),
                                  [1.0, 2.0, 2.0, 3.0, 3.0, 4.0])
    np.testing.assert_array_equal(encode_trace(t, 7),
                                  [0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0])
    np.testing.assert_array_equal(encode_trace(t, 2), [3.0, 4.0])
    np.testing.assert_array_equal(encode_trace(t, 1), [0.0])


def test_encode_left_padding_layout():
    t = ((0.5, 1.25),)
    np.testing.assert_array_equal(encode_trace(t, 6),
                                  [0, 0, 0, 0, 0.5, 1.25])
    np.testing.assert_array_equal(encode_trace((), 4), np.zeros(4))
    t2 = t + ((0.75, 1.5),)
    np.testing.assert_array_equal(encode_trace(t2, 4),
                                  [0.5, 1.25, 0.75, 1.5])
    np.testing.assert_array_equal(encode_trace(t2, 2), [0.75, 1.5])


def test_encoding_extension_shifts_padding_left():
    t = ((0.3, 1.1),)
    before = encode_trace(t, 8)
    after = encode_trace(t + ((0.4, 1.2),), 8)
    np.testing.assert_array_equal(after[4:6], before[6:8])
    np.testing.assert_array_equal(after[:4], 0.0)


def test_training_set_validation():
    with pytest.raises(ValueError):
        TrainingSet(np.zeros((3, 4)), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TrainingSet(np.zeros((2, 4)), np.array([1.0, 0.0]))


def test_hand_forward_single_layer():
    model = MlpPredictor(
        input_len=2, hidden=(),
        weights=(np.array([[0.5, -0.25]]),), biases=(np.array([0.1]),),
        feat_mean=np.zeros(2), feat_scale=np.ones(2), final_loss=0.0)
    out = model.forward(np.array([2.0, 4.0]))[0]
    assert out == pytest.approx(math.log1p(math.exp(0.1)), abs=1e-10)


def test_gradient_check_small_networks():
    for seed, hidden in [(0, (8,)), (1, (6, 5)), (2, ()), (3, (12, 7))]:
        err = gradient_check_error(10, hidden, seed)
        assert err <= 1e-4, f"hidden={hidden}: {err}"


def train_small(monkeypatch, data, epochs, seed, **constants):
    """``train_mlp`` with the network constants in ``constants`` (HIDDEN,
    BATCH, STEP) patched."""
    for name, value in constants.items():
        monkeypatch.setattr(predictor_mod, name, value)
    return train_mlp(data, epochs, seed=seed)


def test_overfit_single_row(monkeypatch):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 6))
    data = TrainingSet(np.repeat(x, 8, axis=0), np.full(8, 2.5))
    model = train_small(monkeypatch, data, 800, 1, HIDDEN=(16,), BATCH=8,
                        STEP=0.05)
    assert model.final_loss < 1e-3
    assert model.forward(x)[0] == pytest.approx(2.5, abs=0.1)


def test_training_that_raises_the_loss_is_an_error(monkeypatch):
    # a step far too large leaves the final loss above the initial one; a
    # dead network must not be returned as if it were trained
    data = generate_training_data(2, 3, seed=3)
    with pytest.raises(NumericError, match="did not lower the loss"):
        train_small(monkeypatch, data, 15, 0, STEP=1e3)
    monkeypatch.undo()
    train_mlp(data, 15)


def test_training_determinism(monkeypatch):
    rng = np.random.default_rng(9)
    data = TrainingSet(rng.normal(size=(40, 8)),
                       rng.uniform(1.0, 3.0, size=40))
    a = train_small(monkeypatch, data, 30, 5, HIDDEN=(10,))
    b = train_mlp(data, 30, seed=5)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.final_loss == b.final_loss


def test_training_takes_one_gradient_per_batch(monkeypatch):
    # the initial and final full-set losses are forward passes alone: 40
    # rows in batches of 16 make 3 gradient steps per epoch and no more
    rng = np.random.default_rng(9)
    data = TrainingSet(rng.normal(size=(40, 8)),
                       rng.uniform(1.0, 3.0, size=40))
    rows, grads = [], predictor_mod._loss_and_gradients

    def counting(weights, biases, x, y):
        rows.append(len(x))
        return grads(weights, biases, x, y)

    monkeypatch.setattr(predictor_mod, "_loss_and_gradients", counting)
    model = train_small(monkeypatch, data, 30, 5, HIDDEN=(10,), BATCH=16)
    assert rows == [16, 16, 8] * 30
    err = model.forward(data.inputs) - data.labels
    assert model.final_loss == pytest.approx(float(np.mean(err ** 2)),
                                             rel=1e-12)


def test_predictions_always_positive(monkeypatch):
    rng = np.random.default_rng(2)
    data = TrainingSet(rng.normal(size=(60, 10)),
                       rng.uniform(0.5, 4.0, size=60))
    model = train_small(monkeypatch, data, 50, 0, HIDDEN=(12,))
    total = 0
    for _ in range(20):
        batch = rng.normal(scale=50.0, size=(50_000, 10))
        out = model.forward(batch)
        assert (out > 0).all()
        total += batch.shape[0]
    assert total == 1_000_000


# the rollouts' grid, kernel and noise
TRAIN_GRID = GridDomain.uniform(predictor_mod.TRAIN_GRID)
TRAIN_KERNEL = KernelConfig()
NOISE = predictor_mod.NOISE_STD


def test_rollout_row_count_and_labels():
    data = generate_training_data(2, 3, seed=3)
    assert data.rows == 6  # every prefix of each rollout becomes a row
    assert data.inputs.shape == (6, 2 * predictor_mod.WINDOW)
    # per rollout the label is constant (the function's norm)
    assert len(np.unique(data.labels)) == 2
    # prefixes grow: row k of a rollout has 2k nonzero tail entries
    first = data.inputs[:3]
    nonzero = [(row != 0).sum() for row in first]
    assert nonzero == [2, 4, 6]


def test_rollout_determinism():
    a = generate_training_data(2, 3, seed=11)
    b = generate_training_data(2, 3, seed=11)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_rollout_fits_each_sample_set_and_channel_once(monkeypatch):
    # the loop factorizes each step's first 1..T samples once, for the
    # reward, and derives the constraint channel from that factor; the
    # trace reuses its reward fits and adds one on all T + 1 samples
    fits, derived = [], []

    def counting(samples, i, *args):
        fits.append((len(samples), i))
        return gp_fit(samples, i, *args)

    def deriving(post, y):
        derived.append(post.num_samples)
        return with_targets(post, y)

    monkeypatch.setattr(loop_mod, "gp_fit", counting)
    monkeypatch.setattr(loop_mod, "with_targets", deriving)
    monkeypatch.setattr(predictor_mod, "gp_fit", counting)
    data = generate_training_data(1, 10, seed=3)
    assert data.rows == 10
    assert fits == [(n, 0) for n in range(1, 12)]
    assert derived == list(range(1, 11))


def test_rollouts_are_fixed_bound_loop_runs(monkeypatch):
    runs, real = [], loop_mod.run

    def recording(cfg, truth, *args, **kwargs):
        assert not args and not kwargs  # a rollout asks for no snapshots
        history = real(cfg, truth)
        runs.append((cfg, truth, history))
        return history

    monkeypatch.setattr(loop_mod, "run", recording)
    q_train, steps = 2, 3
    data = generate_training_data(q_train, steps, seed=3)
    assert len(runs) == q_train
    mask, rows = global_mask(TRAIN_GRID), []
    for k, (run_cfg, truth, history) in enumerate(runs):
        assert run_cfg.algorithm == "safeopt"
        assert len(run_cfg.s0_indices) == 1
        assert (run_cfg.grid, run_cfg.kernel) == (TRAIN_GRID, TRAIN_KERNEL)
        assert (run_cfg.noise_std, run_cfg.delta) == (NOISE,
                                                      predictor_mod.DELTA)
        assert run_cfg.budget == steps
        assert run_cfg.fixed_bound == data.labels[k * steps]
        assert history.snapshots == {}
        samples = history.samples
        exact = np.array([truth.values(j) for j in samples.indices])
        for i in (0, 1):
            # the loop's truncated noise stays within two scales
            err = np.abs(samples.targets(i) - exact[:, i])
            assert (err <= 2 * NOISE * (1 + 1e-9)).all()
        trace, refits = (), []
        for t in range(1, len(samples) + 1):
            first = SampleSet(TRAIN_GRID, samples.indices[:t],
                              {i: samples.targets(i)[:t] for i in (0, 1)})
            post = gp_fit(first, 0, NOISE, TRAIN_KERNEL)
            r = cov_integral(post, mask)
            refits.append((mean_rkhs_norm(post), r))
            if t >= 2:
                trace = append_trace(trace, post, r)
                rows.append(encode_trace(trace, 2 * predictor_mod.WINDOW))
        # the run's own trace holds one pair per step, from the posterior
        # on the samples measured before it
        got = history.traces["global", 0]
        assert len(got) == run_cfg.budget
        assert (np.array(got).tobytes()
                == np.array(refits[:run_cfg.budget]).tobytes())
    np.testing.assert_array_equal(data.inputs, np.stack(rows))


def test_rollout_thresholds_its_truth_at_the_safe_quantile(monkeypatch):
    # one threshold rule for every truth: GroundTruth.at_quantile, whose
    # grid values also give the rollout's seed clearance
    made, runs = [], []
    real_at, real_run = loop_mod.GroundTruth.at_quantile, loop_mod.run

    def at_quantile(reward, q):
        made.append((q, real_at(reward, q)))
        return made[-1][1]

    def recording(cfg, truth):
        runs.append((cfg, truth))
        return real_run(cfg, truth)

    monkeypatch.setattr(loop_mod.GroundTruth, "at_quantile", at_quantile)
    monkeypatch.setattr(loop_mod, "run", recording)
    generate_training_data(2, 3, seed=3)
    assert [q for q, _ in made] == [predictor_mod.SAFE_QUANTILE] * 2
    for (_, truth), (run_cfg, ran) in zip(made, runs):
        assert ran is truth
        clearance = truth.reward_values - truth.threshold
        seed_clearance = clearance[run_cfg.s0_indices[0]]
        assert seed_clearance >= predictor_mod.SEED_MARGIN * clearance.max()


def test_reciprocal_covariance_grows_along_rollout_traces():
    data = generate_training_data(1, 4, seed=7)
    # the r component sits at odd offsets from the right: last row is the
    # longest prefix, holding all four pairs
    row = data.inputs[-1]
    rs = row[np.arange(len(row) - 1, len(row) - 8, -2)][::-1]
    assert (np.diff(rs) > 0).all()


def test_predictor_roundtrip(tmp_path, monkeypatch):
    rng = np.random.default_rng(6)
    data = TrainingSet(rng.normal(size=(30, 8)),
                       rng.uniform(1.0, 2.0, size=30))
    model = train_small(monkeypatch, data, 20, 2, HIDDEN=(9,))
    path = tmp_path / "predictor.json"
    save_predictor(model, path)
    clone = load_predictor(path)
    probe = rng.normal(size=(5, 8))
    np.testing.assert_array_equal(model.forward(probe), clone.forward(probe))
    assert clone.hidden == (9,)


def test_load_rejects_schema_mismatch(tmp_path):
    import json
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ValueError):
        load_predictor(path)


@pytest.mark.parametrize("field, value", [
    ("weights", [[[1.0, 2.0]]]),  # fan-in 2, not input_len
    ("weights", [[[0.0] * 4] * 3, [[0.0] * 3]]),  # one layer too many
    ("biases", [[0.0, 0.0]]),
    ("feat_mean", [0.0] * 3),
    ("feat_scale", [1.0] * 5),
])
def test_load_rejects_weights_that_do_not_chain(tmp_path, field, value):
    import json
    path = tmp_path / "pred.json"
    save_predictor(constant_predictor(3.0, input_len=4), path)
    record = json.loads(path.read_text())
    path.write_text(json.dumps(dict(record, **{field: value})))
    with pytest.raises(ValueError, match="do not chain"):
        load_predictor(path)


def test_predict_norm_uses_trace_encoding(monkeypatch):
    rng = np.random.default_rng(8)
    data = TrainingSet(rng.normal(size=(30, 6)),
                       rng.uniform(1.0, 2.0, size=30))
    model = train_small(monkeypatch, data, 20, 3, HIDDEN=(7,))
    trace = ((0.4, 1.3),)
    direct = model.forward(encode_trace(trace, 6))[0]
    assert predict_norm(model, trace) == pytest.approx(direct, abs=0.0)
    assert predict_norm(model, trace) > 0


def test_trace_longer_than_rollouts_predicts_as_its_newest_pairs(
        monkeypatch):
    # 3-step rollouts in a 50-pair window: the 94 oldest inputs are zero in
    # every training row, so their scale sits at its floor
    steps = 3
    model = train_small(monkeypatch, generate_training_data(2, steps, seed=3),
                        20, 0, HIDDEN=(6,))
    assert (model.feat_scale <= MIN_SCALE).sum() == 94
    rng = np.random.default_rng(4)
    trace = tuple(map(tuple, rng.uniform(0.5, 3.0, size=(8, 2))))
    for n in range(4, 9):
        assert predict_norm(model, trace[:n]) == \
            predict_norm(model, trace[n - steps:n])
