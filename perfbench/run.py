"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process: set-up, then whole rounds of the
workload's operations until ``--seconds`` have passed (at least one round),
then the checks of the first round's outputs. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from the span tracer with ``--trace 1``.

End-to-end metrics:
  wall_s       median over rounds of the time from the round's first
               scenario or run call to its last output file written
  setup_s      median over SETUP_REPEATS set-ups of the time from the top of
               this file to the start of the first round; the first comes
               from this process, the others from fresh processes started
               with ``--setup-only`` after the checks
  peak_rss_mb  peak resident set of this process

The program is imported from ``src/`` next to this directory; without it the
command exits with status 1 before printing a result.
"""
import time

T_ENTRY = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("thresholds1d", "pacsbo2d", "safeopt2d")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit")
    return ap.parse_args(argv)


def import_program():
    src = ROOT / "src"
    if not (src / "pacsbo" / "__init__.py").is_file():
        sys.exit(f"run.py: no program source under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import pacsbo
    if Path(pacsbo.__file__).resolve().parent != src / "pacsbo":
        sys.exit(f"run.py: pacsbo imported from {pacsbo.__file__}, "
                 f"not from {src}")
    import workloads
    return workloads


def extra_setups(args, count):
    """Set-up times of ``count`` fresh processes, run one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    tracer = None
    if args.trace and not args.setup_only:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(tracing.package_modules())
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        wl.setup()
        setup_s = time.perf_counter() - T_ENTRY
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, wl, workloads, tracer, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(args, wl, workloads, tracer, setup_s) -> int:
    round_s, digests = [], []
    failed = 0
    t_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.phase = len(round_s)
        t0 = time.perf_counter()
        try:
            failed += wl.run_round()
        except Exception:  # a failing round counts all its operations
            traceback.print_exc()
            failed += wl.ops_per_round
        round_s.append(time.perf_counter() - t0)
        digests.append(workloads.tree_digest(wl.round_dir()))
        if time.perf_counter() - t_start >= args.seconds:
            break
    rounds = len(round_s)
    if tracer is not None:
        tracer.phase = "check"

    problems = []
    if len(set(digests)) > 1:
        problems.append("rounds wrote different output files")
    try:
        problems += wl.check()
    except Exception as exc:  # a crashing check is a failed check
        traceback.print_exc()
        problems.append(f"check raised {exc!r}")
    for s, (reported, oracle) in sorted(
            getattr(wl, "expander_counts", {}).items()):
        print(f"truth {s}: last-iteration expanders reported {reported}, "
              f"refit oracle {oracle}")

    wall_s = statistics.median(round_s)
    print(f"{args.workload} seed {args.seed}: {rounds} round(s) of "
          f"{wl.ops_per_round} operation(s), wall_s per round "
          f"{', '.join(f'{t:.3f}' for t in round_s)}")
    if tracer is None:
        setups = [setup_s] + extra_setups(args, SETUP_REPEATS - 1)
        print(f"setup_s samples {', '.join(f'{t:.3f}' for t in setups)}")
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MiB"),
        }
    else:
        import tracer as tracing
        values, mismatched = tracing.layer_metrics(tracer.spans, rounds)
        problems += [f"count {name} differs between rounds"
                     for name in mismatched]
        metrics = {name: (v, tracing.METRIC_UNITS[name])
                   for name, v in values.items()}
        trace_path = (HERE / "traces"
                      / f"{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path, {"workload": args.workload,
                                 "seed": args.seed, "round_wall_s": round_s,
                                 "metrics": values})
        print(f"traced wall_s {wall_s:.4f} (median of {rounds}); "
              f"{len(tracer.spans)} spans written to {trace_path}")

    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": rounds * wl.ops_per_round,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
