"""Experiment recipes: scenario configs, seed loops, CSV and manifest IO.

Each scenario resolves a YAML config into an :class:`ExperimentSpec`, runs
the loop scenarios' independent seeds on forked worker processes when the
process runs one OS thread (:func:`_in_order`), and writes per-seed
record files, a merged summary, and a manifest with the config hash and
library versions. All outputs are plain CSV or YAML so plots can be drawn
with external tools.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.metadata
import math
import numbers
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import yaml

from .errors import ConfigError
from .kernel_gp import (
    GridDomain,
    KernelConfig,
    SampleSet,
    gp_fit,
    mean_rkhs_norm,
)
from .pac_estimator import PacConfig, estimate_upper_bound, hoeffding_width
from .pacsbo_loop import (
    CHANNELS,
    PARTITION_ORDER,
    GroundTruth,
    RunConfig,
    RunHistory,
    Snapshot,
    run,
)
from .predictor import (
    WINDOW,
    generate_training_data,
    load_predictor,
    save_predictor,
    train_mlp,
)
from .rkhs_function import (
    DrawPool,
    SamplerConfig,
    evaluate,
    sample_random_function,
    scale_to_norm,
)
from .seeding import derive_rng
from .subdomain import cross_dilation, global_mask, partition_masks

SCHEMA_VERSION = 2
S0_MARGIN = 0.1  # least true constraint value of a start-set point
# share of the true safe optimum that counts as reaching it
OPT_FRACTION = 0.9
SCENARIOS = ("fig3_thresholds", "compare_conservative", "compare_optimistic",
             "synthetic2d", "hoeffding_mc")
COMPARISONS = ("compare_conservative", "compare_optimistic")


def _scenario_defaults(scenario: str) -> dict:
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; "
                          f"expected one of {', '.join(SCENARIOS)}")
    if scenario == "hoeffding_mc":
        return dict(replicates=500, q=200, deltas=[0.1, 0.5])
    common = dict(lengthscale=0.1, noise_std=0.01, delta=0.1,
                  norm_target=2.0, alpha_bar=1.0, q_init=500, q_max=5000)
    if scenario != "fig3_thresholds":
        common.update(safe_fraction=0.6, predictor_path=None)
    per = {
        "fig3_thresholds": dict(grid_resolution=100, noise_std=0.001,
                                norm_target=1.0, sample_counts=[5, 20, 50]),
        "compare_conservative": dict(grid_resolution=100, budget=14,
                                     fixed_bound=10.0,
                                     snapshot_iterations=[3, 14],
                                     s0_placement="far"),
        "compare_optimistic": dict(grid_resolution=100, budget=14,
                                   alpha_bar=0.04, fixed_bound=0.4,
                                   safe_fraction=0.5,
                                   snapshot_iterations=[3, 14],
                                   s0_placement="far"),
        "synthetic2d": dict(grid_resolution=[50, 50], budget=15,
                            s0_placement="argmax"),
    }
    out = dict(common)
    out.update(per[scenario])
    return out


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: str
    out_dir: str
    seeds: tuple
    params: dict

    def __post_init__(self):
        seeds = self.seeds
        if not isinstance(seeds, (list, tuple)) or any(
                isinstance(s, bool) or not isinstance(s, int) or s < 0
                for s in seeds):
            raise ConfigError(f"seeds must be a list of non-negative "
                              f"integers, got {seeds!r}")
        if not seeds or len(set(seeds)) != len(seeds):
            raise ConfigError(f"seeds must be distinct and nonempty, got "
                              f"{list(seeds)}")
        object.__setattr__(self, "seeds", tuple(seeds))
        params = self.params
        _check_values(params, _scenario_defaults(self.scenario))
        if self.scenario == "hoeffding_mc":
            if len(seeds) != 1:
                raise ConfigError(f"hoeffding_mc takes one seed, got "
                                  f"{list(seeds)}")
            deltas = params["deltas"]
            if not deltas or len(set(deltas)) != len(deltas):
                raise ConfigError(f"deltas must be distinct and nonempty, "
                                  f"got {deltas}")
            return
        if self.scenario != "fig3_thresholds":
            if params["predictor_path"] is None:
                raise ConfigError(
                    f"scenario {self.scenario} requires predictor_path")
            _check_path("predictor_path", params["predictor_path"])
        if self.scenario == "synthetic2d":
            res = params["grid_resolution"]
            if not isinstance(res, (list, tuple)) or len(res) != 2:
                raise ConfigError("synthetic2d needs a 2-D grid_resolution")
        try:
            grid = _grid_for(params)
            _kernel_for(params)
            _pac_config(params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        centers = SamplerConfig().num_centers
        if self.scenario == "fig3_thresholds":
            counts = params["sample_counts"]
            most = min(grid.num_points, centers - 1)
            if not counts or min(counts) < 1 or max(counts) > most:
                raise ConfigError(f"sample_counts must lie in [1, {most}] (below "
                                  f"num_centers, at most the grid points): {counts}")
            if any(a >= b for a, b in zip(counts, counts[1:])):
                raise ConfigError(f"sample_counts must be strictly increasing, "
                                  f"got {counts}")
        elif params["s0_placement"] not in ("argmax", "far"):
            raise ConfigError(f"s0_placement must be argmax or far, got "
                              f"{params['s0_placement']!r}")
        # the last step estimates from the three start points and budget - 1
        # measurements, and the sampler needs more centers than samples
        elif centers <= params["budget"] + 2:
            raise ConfigError(f"num_centers must exceed budget + 2: the "
                              f"sampler draws with {centers} centers, got "
                              f"budget {params['budget']}")
        if self.scenario in COMPARISONS:
            snaps = params["snapshot_iterations"]
            if not all(1 <= t <= params["budget"] for t in snaps):
                raise ConfigError(f"snapshot_iterations must lie in [1, "
                                  f"budget {params['budget']}], got {snaps}")


# (test, wording) of each key's own range, applied to each list element
_RANGES = {
    **dict.fromkeys(("replicates", "q", "q_train", "rollout_iters",
                     "epochs"), (lambda v: v >= 1, ">= 1")),
    **dict.fromkeys(("noise_std", "norm_target"),
                    (lambda v: v > 0, "positive")),
    **dict.fromkeys(("delta", "deltas", "safe_fraction"),
                    (lambda v: 0 < v < 1, "in (0, 1)")),
    "seed": (lambda v: v >= 0, "a non-negative integer")}


def _check_values(params: dict, defaults: dict) -> None:
    """Each param whose default is a number (a list of numbers) must be a
    finite one (a list of them), integral where the default is, and in its
    ``_RANGES`` range; grid_resolution may be either. Integral values are
    stored back as ``int`` where the default is one, so ``50.0`` and ``50``
    make one config hash."""
    for key, value in list(params.items()):
        want = defaults.get(key)
        many = isinstance(value, (list, tuple))
        listed = isinstance(want, list) or key == "grid_resolution"
        if isinstance(want, list) and not many and key != "grid_resolution":
            raise ConfigError(f"{key} must be a list, got {value!r}")
        want = want[0] if isinstance(want, list) else want
        if not isinstance(want, (int, float)):
            continue
        kind = "an integer" if isinstance(want, int) else "a number"
        for v in value if listed and many else [value]:
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ConfigError(f"{key} must be {kind}, got {value!r}")
            if not _finite(v):
                raise ConfigError(f"{key} must be a finite number, got "
                                  f"{value!r}")
            if isinstance(want, int) and not float(v).is_integer():
                raise ConfigError(f"{key} must be {kind}, got {value!r}")
            if key in _RANGES and not _RANGES[key][0](v):
                raise ConfigError(f"{key} must be {_RANGES[key][1]}, got "
                                  f"{value!r}")
        if isinstance(want, int):
            params[key] = (type(value)(int(v) for v in value)
                           if listed and many else int(value))


def _finite(v) -> bool:
    """Whether ``v`` is a finite float or an integer a float can hold."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _check_path(key: str, value) -> None:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a nonempty string, got {value!r}")


def load_spec(path, out_dir=None, seed=None) -> ExperimentSpec:
    """Parse and validate a scenario config file.

    ``out_dir`` and ``seed`` are optional overrides that win over both the
    file and the environment.
    """
    raw = _load_yaml(path)
    scenario = raw.pop("scenario", None)
    if scenario is None:
        raise ConfigError(f"{path}: missing required key 'scenario'")
    defaults = dict(out_dir=None, seeds=[0], **_scenario_defaults(scenario))
    params = _read(path, raw, defaults, out_dir=out_dir,
                   seeds=None if seed is None else [int(seed)])
    return ExperimentSpec(scenario, params.pop("out_dir"),
                          params.pop("seeds"), params)


def _read(path, raw: dict, defaults: dict, **overrides) -> dict:
    """``defaults`` with the file's keys, then each override that is set.
    The first override names the output path, which must end up set to a
    nonempty string."""
    cfg = dict(defaults)
    for key, value in raw.items():
        if key not in cfg:
            raise ConfigError(f"{path}: unknown key {key!r}")
        cfg[key] = value
    cfg.update((k, v) for k, v in overrides.items() if v is not None)
    out = next(iter(overrides))
    if cfg[out] is None:
        raise ConfigError(f"{path}: missing required key {out!r}")
    _check_path(out, cfg[out])
    return cfg


def _load_yaml(path) -> dict:
    """The mapping a config file holds."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise ConfigError(f"{where}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return raw


# ---------------------------------------------------------------------------
# ground truths and start sets

def _truth_reward(spec_params: dict, grid, kernel, seed: int):
    """Random function of the seed at the target norm."""
    f = sample_random_function(grid, kernel, SamplerConfig(),
                               derive_rng(seed, "truth"))
    return scale_to_norm(f, float(spec_params["norm_target"]))


def make_truth(spec_params: dict, grid: GridDomain, kernel: KernelConfig,
               seed: int) -> GroundTruth:
    """Random ground truth at the target norm, its threshold placed so the
    requested fraction of the domain is safe."""
    f = _truth_reward(spec_params, grid, kernel, seed)
    return GroundTruth.at_quantile(f, 1.0 - float(spec_params["safe_fraction"]))


def seed_triple(truth: GroundTruth, grid: GridDomain,
                placement: str = "argmax") -> tuple:
    """Three contiguous grid points, each with true constraint value at
    least ``S0_MARGIN``. Contiguity is along the last grid axis (consecutive
    flat indices within one row).

    ``placement`` picks among the valid windows: "argmax" starts at the
    constraint maximizer (guaranteed-comfortable start), "far" starts as
    far from the maximizer as possible while staying inside its safe
    connected component, so a comparison run actually has ground to cover.
    """
    vals = truth.reward_values - truth.threshold
    row_len = grid.resolution[-1]
    if row_len < 3:
        raise ConfigError("grid too coarse for a three-point start set")
    j = int(np.argmax(vals))
    if placement == "far":
        component = _component((vals >= 0.0).reshape(grid.resolution), j)
        best, best_score = None, -np.inf
        for start in _row_windows(grid, row_len):
            window = slice(start, start + 3)
            if not component[window].all():
                continue
            if float(vals[window].min()) < S0_MARGIN:
                continue
            score = float(np.linalg.norm(grid.points[start + 1]
                                         - grid.points[j]))
            if score > best_score + 1e-12:
                best, best_score = start, score
        if best is not None:
            return (best, best + 1, best + 2)
        # no distant window qualifies: fall through to the argmax rule
    row0 = (j // row_len) * row_len
    lo = int(np.clip(j - 1, row0, row0 + row_len - 3))
    if vals[lo:lo + 3].min() < S0_MARGIN:  # then the row's safest window
        lo = max(range(row0, row0 + row_len - 2),
                 key=lambda start: vals[start:start + 3].min())
    worst = float(vals[lo:lo + 3].min())
    if worst < S0_MARGIN:
        raise ConfigError(
            f"no three-point start window clears the safety margin "
            f"{S0_MARGIN} (best {worst:.3f})")
    return (lo, lo + 1, lo + 2)


def _component(member: np.ndarray, j: int) -> np.ndarray:
    """Flat membership of the axis-connected component of ``member`` (a
    mask shaped like the grid) that holds flat index ``j``; empty if ``j``
    is not a member."""
    component = np.zeros_like(member)
    component.flat[j] = member.flat[j]
    while True:
        grown = cross_dilation(component) & member
        if np.array_equal(grown, component):
            return component.reshape(-1)
        component = grown


def _row_windows(grid: GridDomain, row_len: int):
    for row0 in range(0, grid.num_points, row_len):
        yield from range(row0, row0 + row_len - 2)


def _grid_for(params: dict) -> GridDomain:
    return GridDomain.uniform(params["grid_resolution"])


def _kernel_for(params: dict) -> KernelConfig:
    return KernelConfig(lengthscale=float(params["lengthscale"]))


# ---------------------------------------------------------------------------
# CSV and manifest plumbing

def write_csv(path, header, rows) -> None:
    """Write rows after checking each one matches the header width; every
    float cell, numpy floats included, is written at 10 significant
    digits."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {k} has {len(row)} cells for "
                             f"{len(header)} columns")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{c:.10g}" if isinstance(c, (float, np.floating))
                          else c for c in row] for row in rows)


def _versions() -> dict:
    try:
        pkg = importlib.metadata.version("artifact")
    except importlib.metadata.PackageNotFoundError:
        pkg = "unknown"
    return {"package": pkg, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def config_hash(payload: dict) -> str:
    canon = yaml.safe_dump(payload, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _rounded(value):
    """``value`` with every float, also inside dicts, at the 10 significant
    digits of the CSV cells, for the results written to YAML."""
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return float(f"{value:.10g}") if isinstance(value, float) else value


def write_manifest(spec: ExperimentSpec, files, extra=None) -> Path:
    payload = {
        "scenario": spec.scenario,
        "seeds": list(spec.seeds),
        "params": {k: v for k, v in sorted(spec.params.items())},
    }
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(payload),
        **payload,
        "versions": _versions(),
        "files": sorted(str(f) for f in files),
    }
    if extra:
        manifest.update(_rounded(extra))
    out = Path(spec.out_dir) / "manifest.yaml"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=False)
    return out


# ---------------------------------------------------------------------------
# run records

def record_header(dim: int) -> list:
    cols = ["schema_version", "seed", "algorithm", "iteration"]
    cols += [f"a{k}" for k in range(dim)]
    cols += ["reward", "constraint", "unsafe"]
    for label in PARTITION_ORDER:
        cols += [f"B_{label}", f"q_{label}", f"escalated_{label}",
                 f"S_{label}", f"M_{label}", f"G_{label}"]
    cols += ["best_so_far", "chosen_partition"]
    cols += [f"B_{label}_{i}" for label in PARTITION_ORDER for i in CHANNELS]
    return cols


def history_rows(spec_seed: int, algorithm: str, grid: GridDomain,
                 history: RunHistory) -> list:
    rows = []
    for rec in history.records:
        row = [SCHEMA_VERSION, spec_seed, algorithm, rec.iteration]
        row += list(np.atleast_1d(grid.points[rec.chosen]))
        row += [rec.measured[0], rec.measured[1], int(rec.unsafe)]
        stats = [rec.partitions.get(label) for label in PARTITION_ORDER]
        for st in stats:
            if st is None:
                row += ["", "", "", "", "", ""]
            else:
                res = st.results.values()
                row += [max(r.bound for r in res), max(r.q_used for r in res),
                        int(any(r.escalated for r in res)),
                        st.safe_count, st.maximizer_count, st.expander_count]
        row += [rec.best_safe_reward, rec.chosen_partition]
        for st in stats:
            row += ([""] * len(CHANNELS) if st is None else
                    [st.results[i].bound for i in CHANNELS])
        rows.append(row)
    return rows


def _predictor_for(params: dict):
    path = params["predictor_path"]
    try:
        return load_predictor(path)
    except FileNotFoundError:
        raise ConfigError(f"predictor file not found: {path}")
    except (ValueError, IsADirectoryError) as exc:
        raise ConfigError(f"{path}: not a predictor file: {exc}") from None


def _pac_config(params: dict) -> PacConfig:
    sampler = SamplerConfig(coeff_bound=float(params["alpha_bar"]))
    return PacConfig(q_init=int(params["q_init"]),
                     q_max=int(params["q_max"]), sampler=sampler)


def _pacsbo_config(params: dict, grid, kernel, s0, seed) -> RunConfig:
    return RunConfig(grid=grid, kernel=kernel, s0_indices=s0,
                     noise_std=float(params["noise_std"]),
                     delta=float(params["delta"]),
                     budget=int(params["budget"]), pac=_pac_config(params),
                     predictor=_predictor_for(params),
                     algorithm="pacsbo", seed=seed)


def _safeopt_config(params: dict, grid, kernel, s0, seed) -> RunConfig:
    return RunConfig(grid=grid, kernel=kernel, s0_indices=s0,
                     noise_std=float(params["noise_std"]),
                     delta=float(params["delta"]),
                     budget=int(params["budget"]),
                     algorithm="safeopt",
                     fixed_bound=float(params["fixed_bound"]), seed=seed)


# ---------------------------------------------------------------------------
# GP snapshots (enough to redraw the comparison figures)

def snapshot_header(dim: int) -> list:
    cols = [f"x{k}" for k in range(dim)] + ["sampled", "mu"]
    for label in PARTITION_ORDER:
        cols += [f"l_{label}", f"u_{label}"]
    return cols


def snapshot_rows(grid: GridDomain, snapshot: Snapshot) -> list:
    """One row per grid point: whether it was sampled, the reward posterior
    mean, and each region's reward-channel bounds, as the step that chose
    the snapshot's sample saw them."""
    sampled = np.isin(np.arange(grid.num_points), snapshot.sampled)
    blank = [""] * grid.num_points
    cols = [sampled.astype(int).tolist(), snapshot.reward_mean]
    for label in PARTITION_ORDER:
        field = snapshot.fields.get(label)
        cols += ([blank, blank] if field is None
                 else [field.lower[0], field.upper[0]])
    return [[*x, *rest] for x, *rest in zip(grid.points, *cols)]


# ---------------------------------------------------------------------------
# scenarios

def _in_order(fn, tasks: list) -> list:
    """``[fn(t) for t in tasks]``, on forked workers when there are at
    least two tasks and usable CPUs and this process runs one OS thread.

    Tasks are seeded by their own paths, so where they run changes no
    result. Only tasks that outweigh a fork and a join belong here: a
    loop scenario's seeds do, fig3's estimator calls of a few hundred
    draws each do not. ``fork``, not ``spawn``: a spawned worker
    re-imports numpy and scipy (about 0.4 s). Forking is safe only with no other thread alive,
    which needs BLAS pinned to one thread (``OPENBLAS_NUM_THREADS=1``)."""
    try:
        one_thread = len(os.listdir("/proc/self/task")) == 1
        workers = min(len(tasks), len(os.sched_getaffinity(0)))
    except (OSError, AttributeError):  # no /proc or no affinity call
        one_thread = False
    if not one_thread or workers < 2:
        return [fn(t) for t in tasks]
    import multiprocessing  # here, so single-task callers skip the import
    from concurrent.futures import ProcessPoolExecutor
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork) as pool:
        results = list(pool.map(fn, tasks))
    # the joined pool thread lingers a moment; a next call then forks again
    deadline = time.monotonic() + 0.1
    while (len(os.listdir("/proc/self/task")) > 1
           and time.monotonic() < deadline):
        time.sleep(0.001)
    return results


def fig3_samples(params: dict, grid: GridDomain, kernel: KernelConfig,
                 seed: int):
    """``(m, SampleSet)`` per sample count ``m`` of ``fig3_thresholds``: the
    seed's truth at the first ``m`` points of its ``"draw"`` permutation plus
    the first ``m`` of its ``"noise"`` values, drawn for the largest count."""
    counts = [int(m) for m in params["sample_counts"]]
    values = evaluate(_truth_reward(params, grid, kernel, seed))
    order = derive_rng(seed, "draw").permutation(grid.num_points)
    eps = derive_rng(seed, "noise").normal(0.0, float(params["noise_std"]),
                                           size=max(counts))
    for m in counts:
        y = values[order[:m]] + eps[:m]
        yield m, SampleSet(grid, order[:m], {0: y, 1: y})


def scenario_fig3(spec: ExperimentSpec) -> dict:
    """Norm-bound study on a unit-norm truth: run the accept-or-grow
    estimator after 5, 20, and 50 measurements and record the accepted
    bound next to the final draw mean + Hoeffding width.

    The starting guess is the RKHS norm of the GP posterior mean, so the
    study exercises the estimator exactly as the optimization loop does,
    minus the trained predictor."""
    params = spec.params
    grid = _grid_for(params)
    kernel = _kernel_for(params)
    counts = [int(m) for m in params["sample_counts"]]
    noise, delta = float(params["noise_std"]), float(params["delta"])
    pac = _pac_config(params)

    header = ["schema_version", "seed", "num_samples", "initial_guess",
              "accepted_bound", "q_used", "escalated", "draw_mean",
              "draw_width", "threshold"]
    rows = []
    for seed in spec.seeds:
        for m, samples in fig3_samples(params, grid, kernel, seed):
            guess = mean_rkhs_norm(gp_fit(samples, 0, noise, kernel))
            pool = DrawPool(samples, (0,), noise, kernel, global_mask(grid),
                            pac.sampler, (seed, "fig3", m))
            res = estimate_upper_bound(guess, pool, 0, delta=delta, cfg=pac)
            rows.append([SCHEMA_VERSION, seed, m, guess, res.bound,
                         res.q_used, int(res.escalated), res.empirical_mean,
                         res.width, res.empirical_mean + res.width])
    out = Path(spec.out_dir)
    csv_path = out / "thresholds.csv"
    write_csv(csv_path, header, rows)

    # columns 1 seed, 2 sample count, 4 accepted bound, 9 threshold; one
    # seed's rows are consecutive and in increasing sample count
    def means(col):  # over the seeds, in their order
        return {m: float(np.mean([r[col] for r in rows if r[2] == m]))
                for m in counts}

    bound_means, threshold_means = means(4), means(9)
    decreasing = all(a[4] > b[4] for a, b in zip(rows, rows[1:])
                     if a[1] == b[1])
    manifest = write_manifest(spec, [csv_path],
                              {"bound_means": bound_means,
                               "threshold_means": threshold_means,
                               "per_seed_decreasing": decreasing})
    return {"bound_means": bound_means, "threshold_means": threshold_means,
            "decreasing": decreasing, "csv": csv_path, "manifest": manifest}


def _true_safe_optimum(truth: GroundTruth) -> float:
    vals = truth.reward_values
    return float(vals[vals - truth.threshold >= 0.0].max())


def _iters_to_fraction(history: RunHistory, target: float):
    for rec in history.records:
        if rec.best_safe_reward >= target:
            return rec.iteration + 1
    return None


def _run_seeds(spec: ExperimentSpec, algorithms,
               snapshot_iterations=()) -> tuple:
    """Per seed: truth, start triple, one run per algorithm, and its records
    CSV. Returns the files written and the per-seed
    ``(seed, truth, {algorithm: history})`` outputs."""
    params = spec.params
    grid = _grid_for(params)
    kernel = _kernel_for(params)

    tasks = []
    for seed in spec.seeds:
        truth = make_truth(params, grid, kernel, seed)
        s0 = seed_triple(truth, grid, placement=params["s0_placement"])
        configs = {}
        for algorithm in algorithms:
            maker = _pacsbo_config if algorithm == "pacsbo" \
                else _safeopt_config
            configs[algorithm] = maker(params, grid, kernel, s0, seed)
        tasks.append((configs, truth, snapshot_iterations))
    histories = _in_order(_seed_runs, tasks)
    outputs = [(seed, truth, runs) for seed, (_, truth, _), runs
               in zip(spec.seeds, tasks, histories)]
    files = []
    for seed, _, runs in outputs:
        for algorithm, history in runs.items():
            path = Path(spec.out_dir) / f"records_{algorithm}_seed{seed}.csv"
            write_csv(path, record_header(grid.dim),
                      history_rows(seed, algorithm, grid, history))
            files.append(path)
    return files, outputs


def _seed_runs(task) -> dict:
    """One seed's ``{algorithm: history}``, from its configs and truth."""
    configs, truth, snapshot_iterations = task
    return {algorithm: run(cfg, truth, snapshot_iterations)
            for algorithm, cfg in configs.items()}


def _summary_row(seed: int, algorithm: str, history: RunHistory) -> list:
    return [SCHEMA_VERSION, seed, algorithm,
            history.records[-1].best_safe_reward,
            int(history.any_unsafe())]


def _write_summary(spec: ExperimentSpec, files, extra_columns,
                   summary_rows) -> dict:
    """Write summary.csv and the manifest of a loop scenario."""
    summary_path = Path(spec.out_dir) / "summary.csv"
    write_csv(summary_path,
              ["schema_version", "seed", "algorithm", "best_reward",
               "any_unsafe"] + extra_columns, summary_rows)
    manifest = write_manifest(spec, files + [summary_path])
    return {"summary": summary_rows, "csv": summary_path,
            "manifest": manifest}


def scenario_compare(spec: ExperimentSpec) -> dict:
    """Both algorithms on the same truths, one pair of runs per seed."""
    params = spec.params
    out = Path(spec.out_dir)
    grid = _grid_for(params)
    files, outputs = _run_seeds(spec, ("pacsbo", "safeopt"),
                                params["snapshot_iterations"])
    summary_rows = []
    for seed, truth, runs in outputs:
        optimum = _true_safe_optimum(truth)
        for algorithm, history in runs.items():
            for t, snapshot in history.snapshots.items():
                spath = out / "snapshots" / \
                    f"{algorithm}_seed{seed}_iter{t}.csv"
                write_csv(spath, snapshot_header(grid.dim),
                          snapshot_rows(grid, snapshot))
                files.append(spath)
            reached = _iters_to_fraction(history, OPT_FRACTION * optimum)
            summary_rows.append(
                _summary_row(seed, algorithm, history)
                + ["" if reached is None else reached, optimum])
    summary_rows.sort(key=lambda r: (r[2], r[1]))
    return _write_summary(spec, files,
                          ["iters_to_fraction", "safe_optimum"], summary_rows)


def scenario_synthetic2d(spec: ExperimentSpec) -> dict:
    """2-D run with the explored-region dump after the final iteration."""
    files, outputs = _run_seeds(spec, ("pacsbo",))
    summary_rows = []
    for seed, _, runs in outputs:
        history = runs["pacsbo"]
        epath = Path(spec.out_dir) / f"explored_seed{seed}.csv"
        write_csv(epath, ["x0", "x1", "sampled", "tilde", "hat"],
                  _explored_rows(history.samples))
        files.append(epath)
        summary_rows.append(_summary_row(seed, "pacsbo", history)
                            + [len(history.samples)])
    return _write_summary(spec, files, ["total_samples"], summary_rows)


def _explored_rows(samples: SampleSet) -> list:
    tilde, hat, _ = partition_masks(samples)
    points = samples.grid.points
    sampled = np.isin(np.arange(len(points)), samples.indices)
    flags = np.column_stack([sampled, tilde.member, hat.member])
    return [[*x, *f] for x, f in zip(points, flags.astype(int).tolist())]


def scenario_hoeffding(spec: ExperimentSpec) -> dict:
    """Monte Carlo coverage of the concentration width on bounded draws.

    Each replicate averages q uniform [0, 1] variables; the event counted
    is the true mean landing inside the two-sided width around the
    empirical mean.
    """
    params = spec.params
    replicates = int(params["replicates"])
    q = int(params["q"])
    rows, report = [], {}
    for delta in [float(d) for d in params["deltas"]]:
        width = hoeffding_width(delta, q, 1.0)
        hits = 0
        for rep in range(replicates):
            rng = derive_rng(spec.seeds[0], "hoeffding", rep,
                             int(round(delta * 1e6)))
            mean = float(rng.random(q).mean())
            hits += abs(mean - 0.5) <= width
        coverage = hits / replicates
        report[delta] = coverage
        rows.append([SCHEMA_VERSION, delta, replicates, q, width, coverage])
    out = Path(spec.out_dir)
    csv_path = out / "coverage.csv"
    write_csv(csv_path, ["schema_version", "delta", "replicates", "q",
                         "width", "coverage"], rows)
    manifest = write_manifest(spec, [csv_path], {"coverage": {
        str(_rounded(d)): c for d, c in report.items()}})
    return {"coverage": report, "csv": csv_path, "manifest": manifest}


def run_experiment(spec: ExperimentSpec) -> dict:
    if spec.scenario == "fig3_thresholds":
        return scenario_fig3(spec)
    if spec.scenario in COMPARISONS:
        return scenario_compare(spec)
    if spec.scenario == "synthetic2d":
        return scenario_synthetic2d(spec)
    return scenario_hoeffding(spec)


# ---------------------------------------------------------------------------
# predictor training pipeline

# every other training setting is a constant of pacsbo.predictor
TRAIN_DEFAULTS = dict(out_path=None, q_train=200, rollout_iters=30,
                      epochs=400, seed=0)


def load_train_config(path, out_path=None, seed=None) -> dict:
    cfg = _read(path, _load_yaml(path), TRAIN_DEFAULTS, out_path=out_path,
                seed=None if seed is None else int(seed))
    _check_values(cfg, TRAIN_DEFAULTS)
    if cfg["rollout_iters"] > WINDOW:
        raise ConfigError(f"{path}: rollout longer than the trace window "
                          f"({WINDOW})")
    return cfg


def train_predictor_pipeline(cfg: dict) -> dict:
    """Generate rollout data, fit the network, save model and report."""
    data = generate_training_data(int(cfg["q_train"]),
                                  int(cfg["rollout_iters"]), int(cfg["seed"]))
    model = train_mlp(data, int(cfg["epochs"]), seed=int(cfg["seed"]))
    out_path = Path(cfg["out_path"])
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_predictor(model, out_path)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash({k: v for k, v in cfg.items()
                                    if k != "out_path"}),
        "rows": len(data.labels),
        "label_mean": float(np.mean(data.labels)),
        "label_max": float(np.max(data.labels)),
        "final_loss": float(model.final_loss),
        "hidden": list(model.hidden),
        "epochs": int(cfg["epochs"]),
        "versions": _versions(),
    }
    report_path = out_path.with_suffix(".report.yaml")
    with open(report_path, "w") as fh:
        yaml.safe_dump(_rounded(report), fh, sort_keys=False)
    return {"model": model, "report": report, "path": out_path,
            "report_path": report_path}
