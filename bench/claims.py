"""Local against global norms: the adaptive loop beside its variants.

    python3 bench/claims.py CHECKOUT

``CHECKOUT`` is a checkout of the repository; its ``src/`` is imported and
everything runs in this process with one BLAS thread. The script trains a
predictor at the acceptance suite's scale (q_train 40, rollout_iters 20,
epochs 300, seed 0), then runs ``compare_conservative`` and
``compare_optimistic`` at seeds 0-9 and ``synthetic2d`` at seeds 0-2, each
at its defaults with q_init 100 and q_max 400, under these variants:

* ``paper rule``: the loop as it is;
* ``global only``: the loop with ``pacsbo_loop.regions`` patched to return
  the global region alone;
* ``one-cell hat``: the loop with each hat mask joined with its tilde mask
  grown by one cell along each axis (``subdomain.cross_dilation``);
* ``SafeOpt, bound B``: the baseline at the scenario's fixed bound, and at
  the truths' norm (``norm_target``), a ceiling rather than a competitor.

It prints one table row per scenario and variant: the distinct points each
seed measured (grouped as ``points in seeds``), the mean over seeds of the
best measured reward over the true safe optimum, the runs that measured an
unsafe point, the draws read (each region-step's largest ``q_used``,
summed), the seeds whose best reward beats the fixed-bound SafeOpt's
(criterion 6's strict wins), and the seeds whose global safe set grew past
the 3-point start set (explored). The variants are references; no
criterion reads them.
"""
import argparse
import collections
import os
import sys
import tempfile
from pathlib import Path

from cli_trees import ONE_THREAD

TRAIN = dict(q_train=40, rollout_iters=20, epochs=300, seed=0)
Q = dict(q_init=100, q_max=400)
SCENARIOS = {"compare_conservative": range(10),
             "compare_optimistic": range(10), "synthetic2d": range(3)}


def _one_cell_hat(partition_masks, cross_dilation, DomainMask):
    def masks(samples):
        tilde, hat, glob = partition_masks(samples)
        shape = tilde.grid.resolution
        grown = cross_dilation(tilde.member.reshape(shape)).reshape(-1)
        return tilde, DomainMask(hat.grid, hat.member | grown), glob
    return masks


def _row(name, outputs, fixed):
    """The table cells of one variant's ``[(seed, truth, history)]``."""
    from pacsbo import harness

    distinct = collections.Counter(
        len(set(h.samples.indices)) for _, _, h in outputs)
    ratio = sum(h.records[-1].best_safe_reward
                / harness._true_safe_optimum(truth)
                for _, truth, h in outputs) / len(outputs)
    draws = sum(max(r.q_used for r in st.results.values())
                for _, _, h in outputs for rec in h.records
                for st in rec.partitions.values())
    wins = "–" if fixed is None else sum(
        h.records[-1].best_safe_reward > fixed[seed]
        for seed, _, h in outputs)
    explored = sum(
        max(rec.partitions["global"].safe_count for rec in h.records) > 3
        for _, _, h in outputs)
    unsafe = sum(h.any_unsafe() for _, _, h in outputs)
    grouped = ", ".join(f"{k} in {n}" for k, n in sorted(distinct.items()))
    return [name, grouped, f"{ratio:.3f}", str(unsafe),
            f"{draws:,}" if draws else "–", str(wins), str(explored)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", type=Path)
    args = parser.parse_args()
    os.environ.update(ONE_THREAD)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from pacsbo import harness, pacsbo_loop
    from pacsbo.subdomain import DomainMask, cross_dilation, global_mask

    variants = {
        "paper rule": {},
        "global only": {"regions": lambda cfg, samples: {
            "global": global_mask(cfg.grid)}},
        "one-cell hat": {"partition_masks": _one_cell_hat(
            pacsbo_loop.partition_masks, cross_dilation, DomainMask)},
    }
    table = [["scenario", "variant", "distinct points", "best / safe optimum",
              "unsafe runs", "draws read", "strict wins", "explored seeds"]]
    with tempfile.TemporaryDirectory() as tmp:
        train = dict(harness.TRAIN_DEFAULTS, **TRAIN,
                     out_path=str(Path(tmp) / "predictor.json"))
        harness.train_predictor_pipeline(train)

        def outputs(scenario, seeds, algorithm, **params):
            p = harness._scenario_defaults(scenario)
            p.update(Q, predictor_path=train["out_path"], **params)
            spec = harness.ExperimentSpec(scenario, str(Path(tmp) / "runs"),
                                          tuple(seeds), p)
            return [(seed, truth, runs[algorithm]) for seed, truth, runs
                    in harness._run_seeds(spec, (algorithm,))[1]]

        for scenario, seeds in SCENARIOS.items():
            params = harness._scenario_defaults(scenario)
            bounds = [params[k] for k in ("fixed_bound", "norm_target")
                      if k in params]
            baselines = {b: outputs(scenario, seeds, "safeopt", fixed_bound=b)
                         for b in bounds}
            fixed = None
            if "fixed_bound" in params:
                fixed = {seed: h.records[-1].best_safe_reward for seed, _, h
                         in baselines[params["fixed_bound"]]}
            rows = []
            for name, patches in variants.items():
                saved = {k: getattr(pacsbo_loop, k) for k in patches}
                for k, v in patches.items():
                    setattr(pacsbo_loop, k, v)
                try:
                    rows.append(_row(name, outputs(scenario, seeds, "pacsbo"),
                                     fixed))
                finally:
                    for k, v in saved.items():
                        setattr(pacsbo_loop, k, v)
            rows += [_row(f"SafeOpt, bound {b:g}", out, fixed)
                     for b, out in baselines.items()]
            table += [[scenario if k == 0 else "", *row]
                      for k, row in enumerate(rows)]
    for k, row in enumerate(table):
        print("| " + " | ".join(row) + " |")
        if k == 0:
            print("|" + " --- |" * len(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
