"""Reduced-scale output trees of every CLI command, for byte-identity checks.

    python3 bench/cli_trees.py CHECKOUT OUT

``CHECKOUT`` is a checkout of the repository; its ``src/`` is imported.
``OUT`` must not exist yet. The script trains a small predictor and runs
every scenario, the loop scenarios against that predictor, through
``python -m pacsbo.cli``, one command at a time with one BLAS thread. Each
command's process then runs one OS thread, so ``fig3_thresholds`` and the
multi-seed comparisons take the harness's worker pool on a machine with
two or more CPUs.
``hoeffding_mc`` and ``synthetic2d`` run through their own subcommands,
the other scenarios through ``run``, so all four commands are covered:

* ``predictor.json`` (and its report): q_train 12, rollout_iters 10,
  epochs 40;
* ``fig3_thresholds``: seeds 0 and 1;
* ``compare_conservative``: seeds 0, 1 and 3, budget 8, a snapshot at
  iteration 3;
* ``compare_optimistic``: seeds 0 and 1, budget 8, a snapshot at
  iteration 3;
* ``synthetic2d``: seed 0 on a 30x30 grid, budget 5;
* ``hoeffding_mc``: seed 0, 50 replicates of 20 draws;

all but ``hoeffding_mc`` with q_init 50 and q_max 200, everything else at
its default. The commands run inside ``OUT`` with relative paths, so the
manifests and config hashes do not depend on where ``OUT`` is, and two
checkouts that produce the same numbers give trees that ``diff -r`` finds
equal. The config files go to a temporary directory, not into ``OUT``.
"""
import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

Q = dict(q_init=50, q_max=200)
LOOP = dict(budget=8, snapshot_iterations=[3],
            predictor_path="predictor.json", **Q)
TRAIN = dict(out_path="predictor.json", q_train=12, rollout_iters=10,
             epochs=40)
SCENARIOS = {
    "fig3_thresholds": dict(seeds=[0, 1], **Q),
    "compare_conservative": dict(seeds=[0, 1, 3], **LOOP),
    "compare_optimistic": dict(seeds=[0, 1], **LOOP),
    "synthetic2d": dict(seeds=[0], grid_resolution=[30, 30], budget=5,
                        predictor_path="predictor.json", **Q),
    "hoeffding_mc": dict(seeds=[0], replicates=50, q=20),
}
SUBCOMMANDS = {"hoeffding_mc": "hoeffding-mc", "synthetic2d": "synthetic2d"}
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}


def _cli(checkout: Path, out: Path, *args) -> None:
    env = {k: v for k, v in os.environ.items() if k != "PACSBO_OUT"}
    env.update(ONE_THREAD, PYTHONPATH=str(checkout / "src"))
    subprocess.run([sys.executable, "-m", "pacsbo.cli", *args], cwd=out,
                   env=env, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("out", type=Path)
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    out = args.out.resolve()
    out.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "train.yaml"
        config.write_text(yaml.safe_dump(TRAIN))
        _cli(checkout, out, "train-predictor", "--config", str(config))
        for scenario, body in SCENARIOS.items():
            config = Path(tmp) / f"{scenario}.yaml"
            config.write_text(yaml.safe_dump(
                dict(scenario=scenario, out_dir=scenario, **body)))
            _cli(checkout, out, SUBCOMMANDS.get(scenario, "run"),
                 "--config", str(config))
    print(f"wrote {sum(p.is_file() for p in out.rglob('*'))} files under "
          f"{out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
