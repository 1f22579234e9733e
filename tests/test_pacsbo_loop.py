"""Tests for the outer optimization loops."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import constant_predictor, first_norms, most_uncertain

import pacsbo.kernel_gp as kernel_mod
import pacsbo.pacsbo_loop as loop_mod
import pacsbo.rkhs_function as rkhs_mod
import pacsbo.safeopt_core as core_mod
from pacsbo.errors import ConfigError
from pacsbo.harness import seed_triple
from pacsbo.kernel_gp import (
    GridDomain,
    KernelConfig,
    SampleSet,
    gp_fit,
    info_gain,
    predictive,
)
from pacsbo.pac_estimator import (
    F_SAFETY,
    PacConfig,
    PacResult,
    hoeffding_width,
)
from pacsbo.pacsbo_loop import (
    CHANNELS,
    PARTITION_ORDER,
    GroundTruth,
    IterationRecord,
    PartitionStats,
    RunConfig,
    RunHistory,
    _initial_state,
    pacsbo_step,
    run,
)
from pacsbo.rkhs_function import (
    SamplerConfig,
    evaluate,
    rkhs_norm,
    sample_random_function,
    scale_to_norm,
)
from pacsbo.safeopt_core import beta_scale, compute_state
from pacsbo.seeding import derive_rng, truncated_normal
from pacsbo.subdomain import global_mask, partition_masks

KER = KernelConfig(lengthscale=0.3)


def make_truth(grid, seed=7, quantile=0.4, norm=1.0):
    """Random smooth truth plus threshold; returns (truth, safe seed index)."""
    f = sample_random_function(grid, KER, SamplerConfig(num_centers=25),
                               derive_rng(seed, "truth"))
    truth = GroundTruth.at_quantile(scale_to_norm(f, norm), quantile)
    seed_idx = int(np.argmax(truth.reward_values))  # maximal margin, safe
    return truth, seed_idx


def fast_pac():
    return PacConfig(q_init=25, q_max=50,
                     sampler=SamplerConfig(num_centers=12, coeff_bound=0.3))


def pacsbo_config(grid, seed_idx, budget=3, seed=0):
    return RunConfig(grid=grid, kernel=KER, s0_indices=(seed_idx,),
                     noise_std=0.01, budget=budget, pac=fast_pac(),
                     predictor=constant_predictor(3.0), seed=seed)


class TestConfigValidation:
    def setup_method(self):
        self.grid = GridDomain.uniform(10)

    def ok(self, **kw):
        base = dict(grid=self.grid, kernel=KER, s0_indices=(2,),
                    algorithm="safeopt", fixed_bound=1.0)
        base.update(kw)
        return RunConfig(**base)

    def test_valid_baseline_config(self):
        cfg = self.ok()
        assert cfg.budget == 20  # default iteration budget

    @pytest.mark.parametrize("kw", [
        dict(algorithm="sweep"),
        dict(s0_indices=()),
        dict(budget=0),
        dict(algorithm="safeopt", fixed_bound=None),
        dict(algorithm="safeopt", fixed_bound=-1.0),
        dict(delta=0.0),
        dict(delta=1.0),
        dict(noise_std=-0.1),
        dict(noise_std=0.0),
        dict(s0_indices=(10,)),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            self.ok(**kw)

    def test_pacsbo_needs_predictor(self):
        with pytest.raises(ConfigError):
            RunConfig(grid=self.grid, kernel=KER, s0_indices=(2,),
                      algorithm="pacsbo")


def test_ground_truth_channels():
    grid = GridDomain.uniform(20)
    truth, _ = make_truth(grid)
    for idx in (0, 7, 19):
        r, c = truth.values(idx)
        assert r == truth.reward_values[idx]
        assert c == pytest.approx(r - truth.threshold, abs=1e-14)


def test_ground_truth_evaluates_its_reward_once(monkeypatch):
    # the truth holds its reward on the grid from construction on, so a
    # whole run, start set included, reads true values by index only
    grid = GridDomain.uniform(30)
    truth, s0 = make_truth(grid, seed=5)
    np.testing.assert_array_equal(truth.reward_values,
                                  rkhs_mod.evaluate(truth.reward))
    assert truth.threshold == float(np.quantile(truth.reward_values, 0.4))
    assert GroundTruth(truth.reward, truth.threshold).values(s0) == \
        truth.values(s0)
    calls = []

    def counted(f):
        calls.append(f)
        return evaluate(f)

    for mod in (rkhs_mod, loop_mod):
        monkeypatch.setattr(mod, "evaluate", counted)
    for cfg in (pacsbo_config(grid, s0, budget=3, seed=12),
                RunConfig(grid=grid, kernel=KER, s0_indices=(s0,),
                          algorithm="safeopt", budget=3, seed=3,
                          fixed_bound=rkhs_norm(truth.reward))):
        assert len(run(cfg, truth).records) == 3
    assert calls == []


def test_safeopt_run_completes():
    grid = GridDomain.uniform(40)
    truth, s0 = make_truth(grid)
    cfg = RunConfig(grid=grid, kernel=KER, s0_indices=(s0,),
                    algorithm="safeopt", fixed_bound=rkhs_norm(truth.reward),
                    budget=6, seed=3)
    hist = run(cfg, truth)
    assert len(hist.records) == 6
    for t, rec in enumerate(hist.records):
        assert rec.iteration == t
        assert 0 <= rec.chosen < grid.num_points
        assert set(rec.measured) == set(CHANNELS)
        assert rec.chosen_partition == "global"
        assert set(rec.partitions) == {"global"}
        st = rec.partitions["global"]
        assert st.bound == rkhs_norm(truth.reward)
        assert st.maximizer_count + st.expander_count >= 1
        assert st.safe_count >= st.maximizer_count
        assert st.safe_count >= st.expander_count


def test_the_baseline_builds_no_pool(monkeypatch):
    # a fixed bound needs no draws, so no region sets up a sampler
    def no_pool(*args):
        raise AssertionError("the baseline built a draw pool")

    monkeypatch.setattr(loop_mod, "DrawPool", no_pool)
    grid = GridDomain.uniform(40)
    truth, s0 = make_truth(grid)
    cfg = RunConfig(grid=grid, kernel=KER, s0_indices=(s0,),
                    algorithm="safeopt", fixed_bound=1.0, budget=3, seed=3)
    assert len(run(cfg, truth).records) == 3


def test_safeopt_matches_single_partition_reference():
    """The baseline mode must reproduce, decision for decision, a plain
    safe-exploration loop run on the full domain with the same seeds."""
    grid = GridDomain.uniform(35)
    truth, s0 = make_truth(grid, seed=11)
    bound = rkhs_norm(truth.reward)
    cfg = RunConfig(grid=grid, kernel=KER, s0_indices=(s0,),
                    algorithm="safeopt", fixed_bound=bound, budget=5, seed=9)
    hist = run(cfg, truth)

    samples = SampleSet(grid)
    rng = derive_rng(cfg.seed, "seed-measure", 0)
    meas = {}
    for i in CHANNELS:
        eps = float(truncated_normal(rng, cfg.noise_std, size=1)[0])
        meas[i] = truth.values(s0)[i] + eps
    samples = samples.append(s0, meas)
    mask = global_mask(grid)
    expected = []
    for t in range(cfg.budget):
        posts = {i: gp_fit(samples, i, cfg.noise_std, KER) for i in CHANNELS}
        betas = {i: beta_scale(bound, cfg.noise_std, info_gain(posts[i]),
                               cfg.delta) for i in CHANNELS}
        st = compute_state(posts, betas, mask, (s0,))
        choice = most_uncertain(st.field, st.candidates())
        expected.append(choice)
        rng = derive_rng(cfg.seed, "measure", t)
        meas = {}
        for i in CHANNELS:
            eps = float(truncated_normal(rng, cfg.noise_std, size=1)[0])
            meas[i] = truth.values(choice)[i] + eps
        samples = samples.append(choice, meas)

    assert [rec.chosen for rec in hist.records] == expected
    assert [rec.measured for rec in hist.records] == [
        {i: samples.targets(i)[1 + t] for i in CHANNELS}
        for t in range(cfg.budget)
    ]


def test_run_determinism():
    grid = GridDomain.uniform(30)
    truth, s0 = make_truth(grid, seed=5)
    cfg = pacsbo_config(grid, s0, budget=3, seed=12)
    h1 = run(cfg, truth)
    h2 = run(cfg, truth)
    assert h1 == h2
    # a different seed changes the measurement stream
    h3 = run(pacsbo_config(grid, s0, budget=3, seed=13), truth)
    assert [r.measured for r in h3.records] != [r.measured for r in h1.records]


class TestPacsboRun:
    @classmethod
    def setup_class(cls):
        cls.grid = GridDomain.uniform(30)
        cls.truth, cls.s0 = make_truth(cls.grid, seed=2)
        cls.cfg = pacsbo_config(cls.grid, cls.s0, budget=3, seed=1)
        cls.hist = run(cls.cfg, cls.truth, snapshot_iterations=(1, 2, 3))

    def test_completes_with_all_partitions(self):
        assert len(self.hist.records) == 3
        for rec in self.hist.records:
            assert set(rec.partitions) == {"tilde", "hat", "global"}
            assert rec.chosen_partition in rec.partitions
            for st in rec.partitions.values():
                assert st.q_used >= self.cfg.pac.q_init
                assert len(st.channel_bounds) == len(CHANNELS)
                assert st.bound == max(st.channel_bounds)
                assert st.safe_count >= 1
                assert st.maximizer_count <= st.safe_count
                assert st.expander_count <= st.safe_count

    def test_unsafe_flag_matches_truth(self):
        for rec in self.hist.records:
            true_constraint = self.truth.values(rec.chosen)[1]
            assert rec.unsafe == (true_constraint < 0.0)

    def replay_samples(self):
        """Sample sets as they were at the start of each iteration."""
        samples = _initial_state(self.cfg, self.truth).samples
        out = [samples]
        for rec in self.hist.records:
            samples = samples.append(rec.chosen, rec.measured)
            out.append(samples)
        return out

    def test_best_safe_reward_tracking(self):
        prefixes = self.replay_samples()
        for t, rec in enumerate(self.hist.records):
            samples = prefixes[t + 1]  # after this iteration's measurement
            rewards = samples.targets(0)
            ok = samples.targets(1) >= 0
            assert ok.any()
            assert rec.best_safe_reward == pytest.approx(
                rewards[ok].max(), abs=0)

    def replay_states(self, samples, rec):
        """Posteriors and per-region states of one iteration, classified
        again from its recorded bounds."""
        posts = {i: gp_fit(samples, i, self.cfg.noise_std, KER)
                 for i in CHANNELS}
        states = {}
        for label, mask in zip(PARTITION_ORDER, partition_masks(samples)):
            bounds = rec.partitions[label].channel_bounds
            betas = {i: beta_scale(bounds[k], self.cfg.noise_std,
                                   info_gain(posts[i]), self.cfg.delta)
                     for k, i in enumerate(CHANNELS)}
            states[label] = compute_state(posts, betas, mask,
                                          self.cfg.s0_indices)
        return posts, states

    def test_chosen_point_was_a_candidate(self):
        """Replaying each iteration's classification from the recorded
        bounds must find the evaluated point among that partition's
        candidates, with the acquisition rule picking exactly it."""
        prefixes = self.replay_samples()
        for t, rec in enumerate(self.hist.records):
            _, states = self.replay_states(prefixes[t], rec)
            picks = {}
            for label, st in states.items():
                st_rec = rec.partitions[label]
                assert st.safe.sum() == st_rec.safe_count
                assert st.maximizer_set.sum() == st_rec.maximizer_count
                assert st.expander_set.sum() == st_rec.expander_count
                choice = most_uncertain(st.field, st.candidates())
                if choice is not None:
                    width = max(float(st.field.width(i)[choice])
                                for i in CHANNELS)
                    picks[label] = (choice, width)
            chosen, width = picks[rec.chosen_partition]
            assert chosen == rec.chosen
            assert width == max(w for _, w in picks.values())

    def test_snapshots_match_the_replayed_classification(self):
        """Snapshot t holds the sampled points, the reward mean over the
        grid and the per-region reward bounds of the step that chose sample
        t, bit for bit (NaN included) as a replay from the recorded bounds
        gives them."""
        prefixes = self.replay_samples()
        assert sorted(self.hist.snapshots) == [1, 2, 3]
        every = np.arange(self.grid.num_points)
        for t, snap in self.hist.snapshots.items():
            samples, rec = prefixes[t - 1], self.hist.records[t - 1]
            posts, states = self.replay_states(samples, rec)
            assert snap.sampled == samples.indices
            mean = predictive({0: posts[0]}, every)[0][0]
            assert snap.reward_mean.tobytes() == mean.tobytes()
            assert list(snap.fields) == list(states)
            for label, st in states.items():
                got = snap.fields[label]
                assert got.lower[0].tobytes() == st.field.lower[0].tobytes()
                assert got.upper[0].tobytes() == st.field.upper[0].tobytes()
        assert self.hist.samples.indices == prefixes[-1].indices
        for i in CHANNELS:
            assert (self.hist.samples.targets(i).tobytes()
                    == prefixes[-1].targets(i).tobytes())


def test_global_trace_r_nondecreasing():
    grid = GridDomain.uniform(25)
    truth, s0 = make_truth(grid, seed=4)
    cfg = pacsbo_config(grid, s0, budget=4, seed=6)
    state = _initial_state(cfg, truth)
    for _ in range(cfg.budget):
        state, rec, _ = pacsbo_step(cfg, state, truth)
        assert rec is not None
    for i in CHANNELS:
        trace = state.traces[("global", i)]
        assert len(trace) == cfg.budget
        rs = [r for _, r in trace]
        assert all(b >= a - 1e-12 for a, b in zip(rs, rs[1:]))
        for label in ("tilde", "hat"):
            assert len(state.traces[(label, i)]) == cfg.budget


@pytest.mark.parametrize("algorithm", ["pacsbo", "safeopt"])
def test_one_predictive_per_region_and_step(monkeypatch, algorithm):
    # one posterior over each region serves its covariance integral, its
    # confidence bounds and its expander test
    grid = GridDomain.uniform(25)
    truth, s0 = make_truth(grid, seed=4)
    cfg = pacsbo_config(grid, s0, budget=3, seed=6)
    if algorithm == "safeopt":
        cfg = replace(cfg, algorithm="safeopt", fixed_bound=1.0)
    calls = []

    def counting(posteriors, query):
        calls.append(len(query))
        return predictive(posteriors, query)

    for mod in (kernel_mod, loop_mod, core_mod):
        monkeypatch.setattr(mod, "predictive", counting, raising=False)
    hist = run(cfg, truth)
    assert len(hist.records) == cfg.budget
    samples, expected = _initial_state(cfg, truth).samples, []
    for rec in hist.records:
        expected += [m.count for m in loop_mod.regions(cfg, samples).values()]
        samples = samples.append(rec.chosen, rec.measured)
    assert calls == expected


@pytest.mark.parametrize("res, algorithm", [(30, "pacsbo"),
                                            ((12, 12), "pacsbo"),
                                            (30, "safeopt")])
def test_every_classified_region_holds_the_start_set(monkeypatch, res,
                                                     algorithm):
    """Each region the loop classifies holds the start set, one grid row's
    triple as the scenarios place it, so each has a maximizer."""
    grid = GridDomain.uniform(res)
    truth, _ = make_truth(grid, seed=9)
    s0 = seed_triple(truth, grid)
    cfg = replace(pacsbo_config(grid, s0[0], budget=4, seed=2),
                  s0_indices=s0)
    if algorithm == "safeopt":
        cfg = replace(cfg, algorithm="safeopt", fixed_bound=1.0)
    classified = []

    def recording(posteriors, betas, mask, seed_indices, *args):
        st = compute_state(posteriors, betas, mask, seed_indices, *args)
        classified.append((mask, seed_indices, st))
        return st

    monkeypatch.setattr(loop_mod, "compute_state", recording)
    assert len(run(cfg, truth).records) == cfg.budget
    assert len(classified) == cfg.budget * (3 if algorithm == "pacsbo" else 1)
    for mask, seed_indices, st in classified:
        assert seed_indices == s0
        assert mask.member[list(s0)].all() and st.safe[list(s0)].all()
        assert st.maximizer_set.any()


def accept_or_grow(start, column, delta, cfg):
    """Reference accept-or-grow on ``column(q)``, the first q norms."""
    bound, q = start, 0
    while True:
        q += cfg.q_init
        norms = column(q)
        mean = float(np.mean(norms))
        width = hoeffding_width(delta, q, float(norms.max() - norms.min()))
        if bound >= mean + width:
            return PacResult(bound, q, mean, width, escalated=False)
        if q > cfg.q_max:
            break
    while bound < mean + width:
        bound *= F_SAFETY
    return PacResult(bound, q, mean, width, escalated=True)


def test_a_step_draws_one_stream_per_region(monkeypatch):
    """Both channels of a region read one draw stream, seeded
    ``(seed, "pac", t, p_idx)``, and each channel's result is the
    accept-or-grow on its column of that stream. At this start the
    constraint channel grows each pool past the reward channel's need."""
    grid = GridDomain.uniform(40)
    truth, s0 = make_truth(grid)
    cfg = replace(pacsbo_config(grid, s0, seed=5),
                  predictor=constant_predictor(0.7))
    state = pacsbo_step(cfg, _initial_state(cfg, truth), truth)[0]
    masks = list(loop_mod.regions(cfg, state.samples).values())
    paths, calls = [], []
    estimate = loop_mod.estimate_upper_bound

    class Opening(rkhs_mod.DrawPool):
        def __init__(self, *args):
            paths.append(args[-1])
            super().__init__(*args)

    def recording(start, *args, **kw):  # args[1] is the channel
        calls.append((start, args[1], estimate(start, *args, **kw)))
        return calls[-1][2]

    monkeypatch.setattr(loop_mod, "DrawPool", Opening)
    monkeypatch.setattr(loop_mod, "estimate_upper_bound", recording)
    pacsbo_step(cfg, state, truth)
    assert paths == [(5, "pac", 1, p) for p in range(3)]
    assert [i for _, i, _ in calls] == list(CHANNELS) * len(masks)
    delta = cfg.delta / (len(masks) * len(CHANNELS))
    monkeypatch.undo()
    for k, (start, i, res) in enumerate(calls):
        p_idx = k // len(CHANNELS)

        def column(q):
            norms = first_norms(
                state.samples, CHANNELS, cfg.noise_std, KER, masks[p_idx],
                cfg.pac.sampler, (5, "pac", 1, p_idx), q)
            return np.ascontiguousarray(norms[:, CHANNELS.index(i)])

        assert res == accept_or_grow(start, column, delta, cfg.pac)
    assert [res.q_used for _, _, res in calls[:2]] == [25, 75]


def test_run_longer_than_the_predictor_window():
    """A predictor reads the newest input_len // 2 pairs of a longer trace,
    so a budget past its window completes; a trace-independent predictor
    gives the same run at any window."""
    grid = GridDomain.uniform(25)
    truth, s0 = make_truth(grid, seed=4)
    cfg = pacsbo_config(grid, s0, budget=4, seed=6)
    short = run(replace(cfg, predictor=constant_predictor(3.0, input_len=4)),
                truth)
    assert len(short.records) == 4
    assert short == run(cfg, truth)


def test_history_helpers():
    rec = IterationRecord(0, 3, "global", {0: 1.0, 1: 0.5},
                          {"global": PartitionStats((1.0, 1.0), 0, False,
                                                    1, 1, 0)},
                          1.0, False, 0.123)
    other = IterationRecord(0, 3, "global", {0: 1.0, 1: 0.5},
                            {"global": PartitionStats((1.0, 1.0), 0, False,
                                                      1, 1, 0)},
                            1.0, False, 99.0)
    assert rec == other  # wall time never affects history comparison
    hist = RunHistory((rec,), None, {}, {})
    assert len(hist.records) == 1 and not hist.any_unsafe()
    assert hist.status == "completed"  # every run spends its budget
    unsafe = IterationRecord(1, 4, "tilde", {0: 0.1, 1: -0.2},
                             rec.partitions, 1.0, True, 0.0)
    assert RunHistory((rec, unsafe), None, {}, {}).any_unsafe()
