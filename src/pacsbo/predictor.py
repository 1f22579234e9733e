"""Norm traces and the trace-to-bound predictor.

While the optimizer runs, each iteration contributes a pair (kernel norm of
the posterior mean, reciprocal covariance integral) to a trace, a tuple of
pairs. A small fully connected network maps the newest pairs, as many as
its input holds, zero-padded, to a positive starting bound for the norm
estimator. Training rollouts are runs of the fixed-bound baseline loop of
:mod:`pacsbo.pacsbo_loop` on random functions, at their exactly known
kernel norm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .kernel_gp import (
    GpPosterior,
    GridDomain,
    KernelConfig,
    mean_rkhs_norm,
    reciprocal_cov_integral,
)
from .rkhs_function import RkhsFunction, SamplerConfig, rkhs_norm, sample_random_function
from .seeding import derive_rng
from .subdomain import global_mask

SCHEMA_VERSION = 1
SAFE_QUANTILE = 0.4  # a rollout's threshold is this quantile of its values
SEED_MARGIN = 0.1  # seed clearance, as a share of the maximum's clearance
MIN_SCALE = 1e-12  # floor of a feature's scale; a feature at it is constant
TRAIN_GRID = 100  # points of the rollouts' 1-D grid; default KernelConfig
NOISE_STD = 0.01  # rollout measurement noise
DELTA = 0.1  # rollout confidence level
WINDOW = 50  # trace pairs the network reads
HIDDEN = (64, 64)  # hidden layer widths
BATCH = 64  # rows per gradient step
STEP = 0.003  # gradient step size


def append_trace(trace: tuple, post: GpPosterior, r: float) -> tuple:
    """The trace extended by the pair (kernel norm of the posterior mean,
    ``r``), where ``r`` is the reciprocal covariance integral of ``post``
    over a region. The variance, and so ``r``, is the same for every
    channel fitted on one sample set."""
    return trace + ((mean_rkhs_norm(post), r),)


def encode_trace(trace: tuple, length: int) -> np.ndarray:
    """Raw input vector of the newest ``length // 2`` pairs: left
    zero-padding, then the pairs in order."""
    flat = np.zeros(length)
    window = trace[max(0, len(trace) - length // 2):]
    if window:
        tail = np.asarray(window, dtype=float).reshape(-1)
        flat[length - len(tail):] = tail
    return flat


@dataclass(frozen=True)
class TrainingSet:
    inputs: np.ndarray  # (rows, L) raw encoded traces
    labels: np.ndarray  # (rows,) positive

    def __post_init__(self):
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels disagree on the row count")
        if self.labels.size and self.labels.min() <= 0:
            raise ValueError("labels must be positive")

    @property
    def rows(self) -> int:
        return int(self.labels.shape[0])


def _rollout(rho: RkhsFunction, steps: int, rng) -> list:
    """One ``steps``-step fixed-bound loop run at the function's true norm;
    returns its trace prefix rows."""
    # pacsbo_loop imports this module, so it is imported at call time
    from .pacsbo_loop import GroundTruth, RunConfig, run

    truth = GroundTruth.at_quantile(rho, SAFE_QUANTILE)
    clearance = truth.reward_values - truth.threshold
    bound = rkhs_norm(rho)
    seed_idx = int(rng.choice(np.flatnonzero(
        clearance >= SEED_MARGIN * clearance.max())))
    run_cfg = RunConfig(rho.grid, rho.kernel, (seed_idx,), NOISE_STD, DELTA,
                        budget=steps, algorithm="safeopt",
                        fixed_bound=bound, seed=int(rng.integers(2**63)))
    history = run(run_cfg, truth)
    # run pair t comes from the posterior on t samples; rows take 2..T + 1
    final, mask = history.posterior, global_mask(rho.grid)
    trace = append_trace(history.traces["global", 0][1:], final,
                         reciprocal_cov_integral(final.var, mask))
    return [(encode_trace(trace[:k], 2 * WINDOW), bound)
            for k in range(1, len(trace) + 1)]


def generate_training_data(q_train: int, rollout_iters: int,
                           seed: int) -> TrainingSet:
    """Rollout the safe optimizer on ``q_train`` random functions of known
    norm, ``rollout_iters`` steps each.

    Every prefix of every rollout's trace becomes one training row, labeled
    with the function's kernel norm. The functions come from the default
    :class:`SamplerConfig`, the generator of the scenario truths too.
    Rollouts are seeded per function, so the result is independent of
    evaluation order.
    """
    grid, kernel = GridDomain.uniform(TRAIN_GRID), KernelConfig()
    all_rows = []
    for j in range(q_train):
        rng = derive_rng(seed, "rollout", j)
        rho = sample_random_function(grid, kernel, SamplerConfig(), rng)
        all_rows.extend(_rollout(rho, rollout_iters, rng))
    inputs = np.stack([r[0] for r in all_rows])
    labels = np.array([r[1] for r in all_rows])
    return TrainingSet(inputs, labels)


# ---------------------------------------------------------------------------
# the network


@dataclass(frozen=True, eq=False)
class MlpPredictor:
    """Fully connected trace-to-bound network with softplus output; it
    holds arrays, so two predictors compare equal only if they are one."""

    input_len: int
    hidden: tuple
    weights: tuple  # per layer, shape (fan_out, fan_in)
    biases: tuple
    feat_mean: np.ndarray
    feat_scale: np.ndarray
    final_loss: float

    def forward(self, raw: np.ndarray) -> np.ndarray:
        """Output per row of ``raw``; a feature constant in training reads
        0, so a longer trace predicts as its newest rollout-length pairs."""
        x = (np.atleast_2d(raw) - self.feat_mean) / self.feat_scale
        x[:, self.feat_scale <= MIN_SCALE] = 0.0
        return _forward_normalized(self.weights, self.biases, x)[0]


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(np.logaddexp(0.0, z), np.finfo(float).tiny)


def _forward_normalized(weights, biases, x):
    """Forward pass on already-normalized inputs; returns output and the
    per-layer activations needed for the backward pass."""
    acts = [x]
    pre = []
    a = x
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        pre.append(z)
        a = np.tanh(z) if k < len(weights) - 1 else _softplus(z)
        acts.append(a)
    return acts[-1][:, 0], (acts, pre)


def _loss(weights, biases, x, y):
    """Mean squared error of the network on one normalized batch."""
    with np.errstate(over="ignore", invalid="ignore"):
        out, _ = _forward_normalized(weights, biases, x)
        return float(np.mean((out - y) ** 2))


def _loss_and_gradients(weights, biases, x, y):
    """Mean squared error and its gradients for one normalized batch.

    Overflow is not an error here: divergence shows up as a non-finite
    loss, which the training loop detects and reports.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out, (acts, pre) = _forward_normalized(weights, biases, x)
        m = x.shape[0]
        err = out - y
        loss = float(np.mean(err ** 2))
        # softplus'(z) = sigmoid(z); tanh'(z) = 1 - tanh(z)^2
        delta = (2.0 * err / m)[:, None] * _sigmoid(pre[-1])
        grads_w, grads_b = [], []
        for k in range(len(weights) - 1, -1, -1):
            grads_w.append(delta.T @ acts[k])
            grads_b.append(delta.sum(axis=0))
            if k > 0:
                delta = (delta @ weights[k]) * (1.0 - acts[k] ** 2)
    return loss, grads_w[::-1], grads_b[::-1]


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _init_layers(sizes, rng):
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        std = 1.0 / np.sqrt(fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def train_mlp(data: TrainingSet, epochs: int, seed: int = 0) -> MlpPredictor:
    """``epochs`` passes of mini-batch gradient descent on mean squared
    error, through a network of ``HIDDEN`` widths.

    Deterministic given the seed: initialization and epoch shuffles come
    from one derived generator. A fit whose final full-set loss is not
    below its initial network's raises ``NumericError``.
    """
    if data.rows < 1:
        raise ValueError("empty training set")
    rng = derive_rng(seed, "mlp-train")
    length = data.inputs.shape[1]
    feat_mean = data.inputs.mean(axis=0)
    feat_scale = np.maximum(data.inputs.std(axis=0), MIN_SCALE)
    x_all = (data.inputs - feat_mean) / feat_scale
    y_all = data.labels

    weights, biases = _init_layers((length, *HIDDEN, 1), rng)
    initial = _loss(weights, biases, x_all, y_all)
    for epoch in range(epochs):
        order = rng.permutation(data.rows)
        for lo in range(0, data.rows, BATCH):
            sel = order[lo:lo + BATCH]
            loss, gw, gb = _loss_and_gradients(weights, biases,
                                               x_all[sel], y_all[sel])
            if not np.isfinite(loss):
                raise NumericError(f"training diverged at epoch {epoch} "
                                   f"(step={STEP}, batch={BATCH})")
            for k in range(len(weights)):
                weights[k] = weights[k] - STEP * gw[k]
                biases[k] = biases[k] - STEP * gb[k]
    final = _loss(weights, biases, x_all, y_all)
    if not final < initial:  # the steps overshot: a dead network
        raise NumericError(f"training did not lower the loss ({initial:.4g} "
                           f"to {final:.4g}, step={STEP})")
    return MlpPredictor(length, HIDDEN, tuple(weights), tuple(biases),
                        feat_mean, feat_scale, final)


def predict_norm(model: MlpPredictor, trace: tuple) -> float:
    """Positive starting bound for the estimator from the current trace."""
    raw = encode_trace(trace, model.input_len)
    return float(model.forward(raw)[0])


# ---------------------------------------------------------------------------
# persistence


def save_predictor(model: MlpPredictor, path) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "trace-norm-predictor",
        "input_len": model.input_len,
        "hidden": list(model.hidden),
        "feat_mean": model.feat_mean.tolist(),
        "feat_scale": model.feat_scale.tolist(),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "final_loss": model.final_loss,
    }
    with open(path, "w") as fh:
        json.dump(record, fh)


def load_predictor(path) -> MlpPredictor:
    """Read a :func:`save_predictor` file; a file that is not JSON, is of
    another schema, lacks a field or holds weights that do not chain
    ``input_len -> hidden -> 1`` raises ``ValueError``."""
    with open(path) as fh:
        record = json.load(fh)
    version = record.get("schema_version") if isinstance(record, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported predictor schema {version!r}")
    try:
        model = MlpPredictor(
            int(record["input_len"]),
            tuple(record["hidden"]),
            tuple(np.asarray(w) for w in record["weights"]),
            tuple(np.asarray(b) for b in record["biases"]),
            np.asarray(record["feat_mean"]),
            np.asarray(record["feat_scale"]),
            float(record["final_loss"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed predictor field {exc}") from None
    dims = (model.input_len, *model.hidden, 1)
    shapes = [a.shape for a in (*model.weights, *model.biases,
                                model.feat_mean, model.feat_scale)]
    if shapes != [*zip(dims[1:], dims), *zip(dims[1:]), dims[:1], dims[:1]]:
        raise ValueError(f"weight shapes {shapes} do not chain {dims}")
    return model
