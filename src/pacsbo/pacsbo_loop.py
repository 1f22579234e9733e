"""Outer optimization loop.

Two algorithms share one iteration, :func:`pacsbo_step`. The main loop
makes one pass per region each iteration (three nested regions: sample
hull, enlarged hull, full domain): it estimates a kernel-norm bound per
channel and classifies the region under those bounds. It then queries the
most uncertain candidate across all regions (``select``). The baseline
runs the same pass on the full domain with a fixed norm bound and no
estimation. The predictor's training rollouts are baseline runs too, so
every caller runs this loop.

Both algorithms extend each region's per-channel norm traces at the start
of each iteration, before the estimator reads them, and the run's history
hands back the final traces. Training rollouts take one row per step from
them, so the predictor sees online the trace lengths it was trained on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .kernel_gp import (
    GridDomain,
    KernelConfig,
    SampleSet,
    gp_fit,
    info_gain,
    predictive,
    reciprocal_cov_integral,
    with_targets,
)
from .pac_estimator import PacConfig, PacResult, estimate_upper_bound
from .predictor import MlpPredictor, append_trace, predict_norm
from .rkhs_function import DrawPool, RkhsFunction, evaluate
from .safeopt_core import beta_scale, compute_state, select
from .seeding import derive_rng, truncated_normal
from .subdomain import global_mask, partition_masks

PARTITION_ORDER = ("tilde", "hat", "global")
CHANNELS = (0, 1)


@dataclass(frozen=True)
class GroundTruth:
    """Synthetic experiment: reward function and safety threshold.

    The reward channel measures the function itself; the constraint channel
    measures the function minus the threshold, so nonnegative means safe.
    ``reward_values`` holds the reward at every grid point, evaluated once
    by :meth:`at_quantile`; every true value is read from it.
    """

    reward: RkhsFunction
    threshold: float
    reward_values: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def at_quantile(cls, reward: RkhsFunction, q: float) -> "GroundTruth":
        """Truth thresholded at the ``q`` quantile of its grid values."""
        values = evaluate(reward)
        return cls(reward, float(np.quantile(values, q)), values)

    def values(self, index: int) -> tuple:
        v = float(self.reward_values[index])
        return v, v - self.threshold


@dataclass(frozen=True)
class RunConfig:
    grid: GridDomain
    kernel: KernelConfig
    s0_indices: tuple
    noise_std: float = 0.01
    delta: float = 0.1
    budget: int = 20
    pac: PacConfig = field(default_factory=PacConfig)
    predictor: MlpPredictor = None
    algorithm: str = "pacsbo"
    fixed_bound: float = None
    exact_expanders: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("pacsbo", "safeopt"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if not self.s0_indices:
            raise ConfigError("initial safe set must be nonempty")
        if self.budget < 1:
            raise ConfigError(f"iteration budget must be >= 1, got {self.budget}")
        if self.algorithm == "safeopt":
            if self.fixed_bound is None or self.fixed_bound <= 0:
                raise ConfigError("safeopt mode needs a positive fixed bound")
        elif self.predictor is None:
            raise ConfigError("pacsbo mode needs a trained predictor")
        if not 0 < self.delta < 1:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
        if not self.noise_std > 0:
            raise ConfigError("noise level must be positive")
        for s in self.s0_indices:
            if not 0 <= int(s) < self.grid.num_points:
                raise ConfigError(f"seed point {s} is off the grid")


@dataclass(frozen=True)
class PartitionStats:
    results: dict  # channel -> PacResult
    safe_count: int
    maximizer_count: int
    expander_count: int


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    chosen: int
    chosen_partition: str
    measured: dict  # channel -> measured value
    partitions: dict  # label -> PartitionStats
    best_safe_reward: float
    unsafe: bool  # true function value of the constraint was negative
    wall_time: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class Snapshot:
    """What the step that chose a sample saw, before measuring it: the
    reward posterior mean at every grid point, the sampled grid points,
    and each region's :class:`~pacsbo.safeopt_core.ConfidenceField` as
    ``compute_state`` classified it."""

    reward_mean: np.ndarray = field(repr=False)  # in grid order
    sampled: tuple  # grid indices
    fields: dict  # label -> ConfidenceField


@dataclass(frozen=True)
class RunHistory:
    records: tuple
    samples: SampleSet = field(compare=False)  # the final set
    snapshots: dict = field(compare=False)  # iteration t -> Snapshot
    traces: dict = field(compare=False)  # the final LoopState.traces

    # every step has a candidate, so every run spends its budget; the
    # benchmark's safeopt2d workload still reads this constant
    status = "completed"

    def any_unsafe(self) -> bool:
        return any(rec.unsafe for rec in self.records)


@dataclass(frozen=True)
class LoopState:
    samples: SampleSet
    traces: dict  # (label, channel) -> tuple of (norm, r) pairs
    iteration: int


def _measure(exact: tuple, noise_std: float, rng) -> dict:
    """Each channel's true value plus truncated noise, in channel order."""
    return {i: exact[i] + float(truncated_normal(rng, noise_std, size=1)[0])
            for i in CHANNELS}


def _initial_state(cfg: RunConfig, truth: GroundTruth) -> LoopState:
    samples = SampleSet(cfg.grid, (), {i: () for i in CHANNELS})
    for k, s in enumerate(cfg.s0_indices):
        rng = derive_rng(cfg.seed, "seed-measure", k)
        samples = samples.append(int(s),
                                 _measure(truth.values(int(s)),
                                          cfg.noise_std, rng))
    traces = {(label, i): () for label in PARTITION_ORDER for i in CHANNELS}
    return LoopState(samples, traces, 0)


def _best_safe(samples: SampleSet) -> float:
    """Best measured reward among parameters whose constraint measurement
    came back nonnegative; nan before any does."""
    ok = samples.targets(1) >= 0.0
    if not ok.any():
        return float("nan")
    return float(samples.targets(0)[ok].max())


def regions(cfg: RunConfig, samples: SampleSet) -> dict:
    """The regions the configured algorithm classifies, in order: the
    nested (tilde, hat, global) triple for the main loop, the full domain
    alone for the baseline. Each holds every sample, the seed set too."""
    if cfg.algorithm == "safeopt":
        return {"global": global_mask(cfg.grid)}
    tilde, hat, glob = partition_masks(samples)
    return {"tilde": tilde, "hat": hat, "global": glob}


def pacsbo_step(cfg: RunConfig, state: LoopState, truth: GroundTruth):
    """One iteration of either algorithm: (state', record, snapshot).

    One pass per region: its one ``predictive`` feeds its traces, its
    bounds and its classification. The main loop estimates a bound per
    region and channel from the region's one :class:`DrawPool`; the
    baseline builds no pool and uses its fixed bound everywhere. ``select``
    then picks among the classified regions.
    """
    t0 = time.monotonic()
    masks = regions(cfg, state.samples)
    reward = gp_fit(state.samples, 0, cfg.noise_std, cfg.kernel)
    posteriors = {0: reward, 1: with_targets(reward, state.samples.targets(1))}
    gamma = info_gain(reward)  # the channels share their Cholesky factor
    delta = cfg.delta / (len(masks) * len(CHANNELS))
    fixed = (PacResult(cfg.fixed_bound, 0, 0.0, 0.0, False)
             if cfg.algorithm == "safeopt" else None)
    traces, states, stats = dict(state.traces), {}, {}
    for p_idx, (label, mask) in enumerate(masks.items()):
        pred = predictive(posteriors, mask.indices())
        r = reciprocal_cov_integral(pred[1], mask)
        pool = None if fixed else DrawPool(
            state.samples, CHANNELS, cfg.noise_std, cfg.kernel, mask,
            cfg.pac.sampler, (cfg.seed, "pac", state.iteration, p_idx))
        results = {}
        for i in CHANNELS:
            traces[label, i] = append_trace(traces[label, i], posteriors[i], r)
            results[i] = fixed or estimate_upper_bound(
                predict_norm(cfg.predictor, traces[label, i]), pool, i,
                delta=delta, cfg=cfg.pac)
        betas = {i: beta_scale(results[i].bound, cfg.noise_std, gamma,
                               cfg.delta) for i in CHANNELS}
        st = states[label] = compute_state(posteriors, betas, mask,
                                           cfg.s0_indices,
                                           cfg.exact_expanders, pred)
        stats[label] = PartitionStats(results, int(st.safe.sum()),
                                      int(st.maximizer_set.sum()),
                                      int(st.expander_set.sum()))

    choice, label = select(states)
    rng = derive_rng(cfg.seed, "measure", state.iteration)
    exact = truth.values(choice)
    measured = _measure(exact, cfg.noise_std, rng)
    samples = state.samples.append(choice, measured)
    unsafe = exact[1] < 0.0
    record = IterationRecord(state.iteration, choice, label, measured, stats,
                             _best_safe(samples), unsafe,
                             time.monotonic() - t0)
    # the last region, global in both modes, covers the grid in order
    snapshot = Snapshot(pred[0][0], state.samples.indices,
                        {lab: st.field for lab, st in states.items()})
    return LoopState(samples, traces, state.iteration + 1), record, snapshot


def run(cfg: RunConfig, truth: GroundTruth,
        snapshot_iterations=()) -> RunHistory:
    """Run the configured algorithm for its iteration budget, keeping the
    :class:`Snapshot` of each one-based iteration in ``snapshot_iterations``
    only: on a 50x50 grid every iteration's would cost about 0.25 MB."""
    wanted = {int(t) for t in snapshot_iterations}
    state = _initial_state(cfg, truth)
    records, snapshots = [], {}
    for t in range(1, cfg.budget + 1):
        state, record, snapshot = pacsbo_step(cfg, state, truth)
        records.append(record)
        if t in wanted:
            snapshots[t] = snapshot
    return RunHistory(tuple(records), state.samples, snapshots, state.traces)
