"""Command line front end.

Four subcommands: ``train-predictor`` builds and saves the norm predictor,
``run`` executes any experiment scenario from a config file, and
``hoeffding-mc`` / ``synthetic2d`` are the same runner pinned to their
scenario. The output directory can come from the command line (highest
priority), the environment (PACSBO_OUT), or the config file. Package
warnings go to stderr while a command runs.

Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .errors import ConfigError, NumericError
from .harness import (
    load_spec,
    load_train_config,
    run_experiment,
    train_predictor_pipeline,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacsbo",
        description="Safe Bayesian optimization experiments with "
                    "data-driven norm bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override: use this single seed")
        p.add_argument("--out", default=None,
                       help="override the output directory or predictor path")

    add_common(sub.add_parser("train-predictor", help="generate rollout data "
                              "and fit the predictor"))
    add_common(sub.add_parser("run", help="run an experiment scenario"))
    add_common(sub.add_parser("hoeffding-mc",
                              help="Monte Carlo width-coverage check"))
    add_common(sub.add_parser("synthetic2d",
                              help="2-D synthetic exploration run"))
    return parser


def _dispatch(args) -> int:
    out = args.out or os.environ.get("PACSBO_OUT") or None  # empty is unset
    if args.command == "train-predictor":
        cfg = load_train_config(args.config, out_path=out, seed=args.seed)
        result = train_predictor_pipeline(cfg)
        report = result["report"]
        print(f"wrote {result['path']} ({report['rows']} rows, "
              f"final loss {report['final_loss']:.4g})")
        return 0

    spec = load_spec(args.config, out_dir=out, seed=args.seed)
    expected = {"hoeffding-mc": "hoeffding_mc", "synthetic2d": "synthetic2d"}
    want = expected.get(args.command)
    if want is not None and spec.scenario != want:
        raise ConfigError(f"{args.config}: command {args.command} expects "
                          f"scenario {want}, found {spec.scenario}")
    result = run_experiment(spec)
    if "bound_means" in result:
        for m, bnd in sorted(result["bound_means"].items()):
            thr = result["threshold_means"][m]
            print(f"accepted bound at {m:3d} samples: {bnd:.4g} "
                  f"(draw mean + width {thr:.4g})")
        print(f"per-seed strictly decreasing: {result['decreasing']}")
    elif "coverage" in result:
        for delta, cov in sorted(result["coverage"].items()):
            print(f"coverage at delta={delta:g}: {cov:.4g} "
                  f"(target {1 - delta:.2f})")
    else:
        print(f"wrote {result['csv']}")
    print(f"manifest: {result['manifest']}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    log, handler = logging.getLogger("pacsbo"), logging.StreamHandler()
    handler.setLevel(logging.WARNING)
    log.addHandler(handler)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    finally:
        log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
