"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed in ``setup``, runs
one round of whole operations in ``run_round`` (the timed part), and checks
the first round's outputs in ``check``. Program functions are always looked
up on their module (``harness.scenario_fig3``), so the tracer's wrappers
see the benchmark's calls too.

Four private helpers of the program are used, because the program has no
public equivalent: ``harness._scenario_defaults`` (a scenario's default
parameters), ``harness._pacsbo_config`` and ``harness._safeopt_config`` (the
run configuration a scenario builds) and ``pacsbo_loop._initial_state`` (the
start-set measurements). A change to one of them must be carried over here.

``tiny=True`` shrinks every workload to a few seconds for the self-test;
the checks are the same.
"""
from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from pacsbo import (harness, kernel_gp, pacsbo_loop, rkhs_function,
                    safeopt_core, seeding, subdomain)

import checks

# seeds of the Fig. 3 accepted-bound study per round (three calls each)
FIG3_SEEDS_PER_ROUND = 3
# reduced predictor-training scale of the acceptance suite
TRAIN_SCALE = dict(q_train=40, rollout_iters=20, epochs=300)
# draw budget of the acceptance suite's loop runs
LOOP_BUDGET = dict(q_init=100, q_max=400)
# The safeopt2d truths are fixed and only the loop's seed (its measurement
# noise) follows the benchmark seed: with the truth drawn from the seed, one
# 40-iteration run takes 1.2 s to 6.2 s depending on whether its safe set
# stops growing, which no affordable number of truths per round averages out.
SAFEOPT_TRUTHS = tuple(range(8))
SAFEOPT_ITERATIONS = 40


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tree_digest(root: Path) -> str:
    """Hash of every file under ``root`` (names and bytes)."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def truth_record(truth, lengthscale) -> dict:
    return {"centers": np.array(truth.reward.centers),
            "coeffs": np.array(truth.reward.coefficients),
            "f_g": float(truth.threshold), "ls": lengthscale}


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.seed = int(seed)
        self.out = Path(out_dir)
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> int:
        """Run one round; return the number of failed operations."""
        raise NotImplementedError

    def check(self) -> list:
        raise NotImplementedError

    def round_dir(self) -> Path:
        return self.out / "round"


class Thresholds1d(Workload):
    """Fig. 3 accepted-bound study: estimator calls after 5, 20 and 50
    noisy samples of unit-norm 1-D truths."""

    name = "thresholds1d"

    def setup(self):
        p = harness._scenario_defaults("fig3_thresholds")
        if self.tiny:
            p.update(q_init=50, q_max=100, sample_counts=[5, 20])
            seeds = (self.seed,)
        else:
            seeds = tuple(FIG3_SEEDS_PER_ROUND * self.seed + k
                          for k in range(FIG3_SEEDS_PER_ROUND))
        self.params = p
        self.spec = harness.ExperimentSpec("fig3_thresholds",
                                           str(self.round_dir()), seeds, p)
        self.ops_per_round = len(seeds) * len(p["sample_counts"])
        grid = kernel_gp.GridDomain.uniform(p["grid_resolution"])
        kernel = kernel_gp.KernelConfig(lengthscale=float(p["lengthscale"]))
        self.inputs = {}
        # the study's own input recipe: truth, sample order and noise
        n = max(p["sample_counts"])
        for s in seeds:
            f = rkhs_function.scale_to_norm(
                rkhs_function.sample_random_function(
                    grid, kernel, rkhs_function.SamplerConfig(100),
                    seeding.derive_rng(s, "truth")),
                float(p["norm_target"]))
            order = seeding.derive_rng(s, "draw").permutation(
                grid.num_points)[:n]
            eps = seeding.derive_rng(s, "noise").normal(
                0.0, p["noise_std"], size=n)
            x = grid.points[order]
            self.inputs[s] = {
                "x": x,
                "y": checks.expansion_values(f.centers, f.coefficients, x,
                                             kernel.lengthscale) + eps,
                "norm": checks.expansion_norm(f.centers, f.coefficients,
                                              kernel.lengthscale)}

    def run_round(self):
        harness.scenario_fig3(self.spec)
        return 0

    def rows(self):
        return read_rows(self.round_dir() / "thresholds.csv")

    def check(self):
        rows = self.rows()
        p = self.params
        fails = []
        if len(rows) != self.ops_per_round:
            fails.append(f"{len(rows)} rows for {self.ops_per_round} calls")
        fails += checks.check_accepted_above_threshold(rows)
        fails += checks.check_escalation_powers(rows)
        fails += checks.check_initial_guess(rows, self.inputs,
                                            p["noise_std"], p["lengthscale"])
        fails += checks.check_bound_share(
            [float(r["accepted_bound"]) for r in rows],
            [self.inputs[int(r["seed"])]["norm"] for r in rows], p["delta"])
        return fails


class _Loop2d(Workload):
    """Shared set-up of the 2-D workloads: synthetic2d truths and
    start sets."""

    def _truths(self, params, seeds):
        self.grid = kernel_gp.GridDomain.uniform(params["grid_resolution"])
        self.kernel = kernel_gp.KernelConfig(
            lengthscale=float(params["lengthscale"]))
        self.truths, self.s0 = {}, {}
        for s in seeds:
            truth = harness.make_truth(params, self.grid, self.kernel, s)
            self.truths[s] = truth
            self.s0[s] = harness.seed_triple(truth, self.grid,
                                             placement=params["s0_placement"])

    def _seed_measurements(self, cfg, truth):
        samples = pacsbo_loop._initial_state(cfg, truth).samples
        return list(zip(samples.targets(0), samples.targets(1)))

    def _record_checks(self, rows, cfg, truth):
        rec = truth_record(truth, self.kernel.lengthscale)
        fails = checks.check_iterations(rows, cfg.budget)
        fails += checks.check_measurements(rows, rec, cfg.noise_std, 2)
        fails += checks.check_best_so_far(
            rows, self._seed_measurements(cfg, truth))
        return fails


class Pacsbo2d(_Loop2d):
    """The adaptive loop on the 50x50 synthetic2d scenario."""

    name = "pacsbo2d"
    ops_per_round = 1

    def setup(self):
        train = dict(harness.TRAIN_DEFAULTS)
        train.update(TRAIN_SCALE, out_path=str(self.out / "predictor.json"))
        p = harness._scenario_defaults("synthetic2d")
        p.update(LOOP_BUDGET)
        if self.tiny:
            train.update(q_train=4, rollout_iters=5, epochs=5)
            p.update(grid_resolution=[15, 15], budget=3, q_init=20, q_max=40)
        harness.train_predictor_pipeline(train)
        p["predictor_path"] = train["out_path"]
        self.params = p
        self.spec = harness.ExperimentSpec("synthetic2d",
                                           str(self.round_dir()),
                                           (self.seed,), p)
        self._truths(p, (self.seed,))

    def run_round(self):
        summary = harness.scenario_synthetic2d(self.spec)["summary"]
        # total_samples counts the start set and every completed iteration
        return sum(int(row[5]) < self.params["budget"] + len(self.s0[s])
                   for row, s in zip(summary, self.spec.seeds))

    def rows(self):
        return read_rows(self.round_dir()
                         / f"records_pacsbo_seed{self.seed}.csv")

    def check(self):
        truth = self.truths[self.seed]
        cfg = harness._pacsbo_config(self.params, self.grid, self.kernel,
                                     self.s0[self.seed], self.seed)
        rows = self.rows()
        fails = self._record_checks(rows, cfg, truth)
        norm = checks.expansion_norm(truth.reward.centers,
                                     truth.reward.coefficients,
                                     self.kernel.lengthscale)
        fails += checks.check_bound_share(
            [float(r["B_global"]) for r in rows], [norm] * len(rows),
            self.params["delta"], "B_global values")
        return fails


class Safeopt2d(_Loop2d):
    """The fixed-bound SafeOpt baseline on the synthetic2d truths, with the
    bound equal to the true norm."""

    name = "safeopt2d"

    def setup(self):
        p = harness._scenario_defaults("synthetic2d")
        p.update(budget=SAFEOPT_ITERATIONS, fixed_bound=p["norm_target"])
        truths = SAFEOPT_TRUTHS
        if self.tiny:
            p.update(grid_resolution=[20, 20], budget=6)
            truths = truths[:1]
        self.params = p
        self.truth_seeds = truths
        self.ops_per_round = len(truths)
        self._truths(p, truths)
        # run seed of truth k: len(truths) * seed + k
        self.cfgs = {t: harness._safeopt_config(
            p, self.grid, self.kernel, self.s0[t],
            len(truths) * self.seed + k) for k, t in enumerate(truths)}
        self.histories = None

    def run_round(self):
        failed = 0
        histories = {}
        for t in self.truth_seeds:
            cfg = self.cfgs[t]
            history = pacsbo_loop.run(cfg, self.truths[t])
            harness.write_csv(
                self.round_dir() / f"records_safeopt_truth{t}.csv",
                harness.record_header(self.grid.dim),
                harness.history_rows(cfg.seed, "safeopt", self.grid,
                                     history))
            histories[t] = history
            failed += history.status != "completed"
        if self.histories is None:
            self.histories = histories
        return failed

    def rows(self, t):
        return read_rows(self.round_dir() / f"records_safeopt_truth{t}.csv")

    def last_state(self, s):
        """Program state and dense-solve oracle for the iteration that
        chose the last sample."""
        cfg, truth = self.cfgs[s], self.truths[s]
        samples = pacsbo_loop._initial_state(cfg, truth).samples
        for rec in self.histories[s].records[:-1]:
            samples = samples.append(rec.chosen, rec.measured)
        posts = {i: kernel_gp.gp_fit(samples, i, cfg.noise_std, cfg.kernel)
                 for i in pacsbo_loop.CHANNELS}
        betas = {i: safeopt_core.beta_scale(
            cfg.fixed_bound, cfg.noise_std, kernel_gp.info_gain(posts[i]),
            cfg.delta) for i in pacsbo_loop.CHANNELS}
        state = safeopt_core.compute_state(
            posts, betas, subdomain.global_mask(cfg.grid), cfg.s0_indices,
            cfg.exact_expanders)
        oracle = checks.SafeOptOracle(
            samples.params, samples.targets(1), cfg.grid.points,
            cfg.s0_indices, cfg.fixed_bound, cfg.noise_std, cfg.delta,
            cfg.kernel.lengthscale)
        return state, oracle

    def check(self):
        fails = []
        self.expander_counts = {}
        for s in self.truth_seeds:
            rows = self.rows(s)
            cfg, truth = self.cfgs[s], self.truths[s]
            rec = truth_record(truth, self.kernel.lengthscale)
            fails += [f"truth {s}: {m}" for m in
                      self._record_checks(rows, cfg, truth)
                      + checks.check_no_unsafe(rows, rec, 2)]
            if len(rows) != cfg.budget:
                continue
            state, oracle = self.last_state(s)
            last = rows[-1]
            if int(last["S_global"]) != int(state.safe.sum()) or \
                    int(last["G_global"]) != int(state.expander_set.sum()):
                fails.append(f"truth {s}: replayed state differs from the "
                             f"recorded set sizes")
            fails += [f"truth {s}: {m}" for m in
                      checks.check_safe_set(state.safe, oracle)
                      + checks.check_expanders(state.expander_set, oracle)]
            self.expander_counts[s] = (int(state.expander_set.sum()),
                                       checks.oracle_expander_count(oracle))
        return fails


WORKLOADS = {w.name: w for w in (Thresholds1d, Pacsbo2d, Safeopt2d)}
