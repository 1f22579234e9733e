"""Parent-against-change measurement of the interpolating-norm sampler.

    python3 bench/sampler_bench.py --parent DIR --change DIR \
        --out BENCH_sampler.json

``DIR`` is a checkout of the repository (its ``src/``, ``perfbench/`` and
``tests/``). Every measurement runs in a fresh process with one BLAS thread,
one process at a time. The output holds:

* ``sampler``: draws per second of one pool of ``DRAWS`` draws, set-up
  included, on the tilde, hat and global masks of a 1-D set on the
  100-point grid, the 6-point tilde mask of a 2-D set on the 50x50 grid and
  that grid's global mask, with 5 and with 20 samples. Each of ``ROUNDS``
  rounds runs one worker process per tree, parent first in even rounds and
  change first in odd ones; a worker times ``REPEATS`` calls per case and
  keeps their median. Per tree the rows give the median and quartiles over
  the rounds, and the number of rounds in which the change was faster; the
  two trees' norms must be bitwise equal in every round, so the script
  only compares changes that keep every norm (measure one that moves norms
  with ``perfbench/run.py --trace 1`` and its ``rkhs_function.draws_per_s``);
* ``end_to_end``: per workload of ``perfbench/run.py`` (``--seconds 10
  --trace 0``, seeds 0..PAIRS-1, parent first on even seeds and change
  first on odd ones), the median and quartiles of ``wall_s``, ``setup_s``
  and ``peak_rss_mb`` per tree and the number of pairs in which the change
  was lower;
* ``tier1``: wall time and summary line of one Tier-1 run per tree, parent
  first.

``--measure-sampler SRC`` is the per-tree worker: it imports ``pacsbo`` from
``SRC`` and prints the sampler results of that tree as one JSON line. It
draws through ``DrawPool(...).norms``, whose constructor and ``norms`` are
the same in trees that define the pool in ``pacsbo.rkhs_function`` and in
older ones that define it in ``pacsbo.pac_estimator``, so both trees must
have a pool.

``BENCH_sampler.json`` holds a full run. ``BENCH_tailsum.json`` and
``BENCH_blasdraw.json`` hold only the end-to-end and Tier-1 sections, for
the change that sums each draw's tail coefficients per mask member and
the one that makes every per-draw product one BLAS call: both move norms
in their last digits, so the sampler section stops on them. Those two
sections were written by calling the functions directly::

    python3 -c "import json, sys; sys.path.insert(0, 'bench'); \\
        import sampler_bench as b; t = dict(parent=P, change=C); \\
        print(json.dumps(dict(machine=b.machine(), \\
        end_to_end=b.end_to_end_section(t), tier1=b.tier1_section(t)), \\
        indent=2))" > BENCH_blasdraw.json
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

DRAWS = 2048
REPEATS = 3
ROUNDS = 6
PAIRS = 10
SAMPLE_COUNTS = (5, 20)
WORKLOADS = ("thresholds1d", "pacsbo2d", "safeopt2d")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
# 2-D set: the four corners of a 2x3 block of the 50x50 grid and one edge
# point, so its tilde mask holds 6 points; 20 samples re-measure them
BLOCK_2D = [1020, 1022, 1070, 1072, 1021]
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}


def sampler_cases():
    """(name, number of samples, sample set, mask) per measured case."""
    import numpy as np

    from pacsbo.kernel_gp import GridDomain, SampleSet
    from pacsbo.seeding import derive_rng
    from pacsbo.subdomain import partition_masks

    def sample_set(grid, idx):
        x = grid.points[idx].sum(axis=1)
        return SampleSet(grid, idx, {0: np.sin(6.0 * x), 1: np.cos(4.0 * x)})

    for n in SAMPLE_COUNTS:
        order = derive_rng(0, "bench").permutation(100)[:n].tolist()
        samples = sample_set(GridDomain.uniform(100), order)
        for label, mask in zip(("tilde", "hat", "global"),
                               partition_masks(samples)):
            yield f"1d {label}", n, samples, mask
    for n in SAMPLE_COUNTS:
        samples = sample_set(GridDomain.uniform((50, 50)), (BLOCK_2D * n)[:n])
        tilde, _, full = partition_masks(samples)
        assert tilde.count == 6
        yield "2d tilde", n, samples, tilde
        yield "2d global", n, samples, full


def measure_sampler(src: str) -> None:
    sys.path.insert(0, src)
    from pacsbo.kernel_gp import KernelConfig
    from pacsbo.rkhs_function import SamplerConfig
    try:
        from pacsbo.rkhs_function import DrawPool
    except ImportError:  # a tree that keeps the pool in the estimator
        from pacsbo.pac_estimator import DrawPool

    kernel, cfg = KernelConfig(lengthscale=0.1), SamplerConfig()
    out = []
    for name, n, samples, mask in sampler_cases():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            norms = DrawPool(samples, (0,), 0.01, kernel, mask, cfg,
                             (11, n)).norms(0, DRAWS)
            times.append(time.perf_counter() - t0)
        out.append(dict(case=name, samples=n, mask_points=mask.count,
                        seconds=statistics.median(times),
                        norms_sha256=hashlib.sha256(norms.tobytes())
                        .hexdigest()))
    print(json.dumps(out))


def _run(cmd, cwd):
    env = dict(os.environ, **ONE_THREAD)
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, check=True).stdout


def _quartiles(values, digits=None):
    q = statistics.quantiles(values, n=4, method="inclusive")
    q1, med, q3 = (v if digits is None else round(v, digits) for v in q)
    return dict(median=med, q1=q1, q3=q3)


def sampler_section(trees):
    rounds = []
    for r in range(ROUNDS):
        order = list(trees.items())
        runs = {}
        for label, root in order if r % 2 == 0 else order[::-1]:
            runs[label] = json.loads(_run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--measure-sampler", str(Path(root) / "src")], root)
                .strip().splitlines()[-1])
        for p, c in zip(runs["parent"], runs["change"]):
            assert p["case"] == c["case"] and p["samples"] == c["samples"]
            if p["norms_sha256"] != c["norms_sha256"]:
                raise SystemExit(f"norms differ on {p['case']}, "
                                 f"{p['samples']}")
        rounds.append(runs)
    rows = []
    for k, p in enumerate(rounds[0]["parent"]):
        rate = {label: [DRAWS / runs[label][k]["seconds"] for runs in rounds]
                for label in trees}
        row = dict(case=p["case"], samples=p["samples"],
                   mask_points=p["mask_points"], draws=DRAWS, rounds=ROUNDS)
        row.update({f"{label}_draws_per_s": _quartiles(v, 0)
                    for label, v in rate.items()})
        row["speedup"] = round(row["change_draws_per_s"]["median"]
                               / row["parent_draws_per_s"]["median"], 2)
        row["change_faster_in_rounds"] = sum(
            c > p for p, c in zip(rate["parent"], rate["change"]))
        row["norms_bitwise_equal"] = True
        rows.append(row)
    return rows


def end_to_end_section(trees):
    out = {}
    for workload in WORKLOADS:
        runs = {label: [] for label in trees}
        for seed in range(PAIRS):
            order = list(trees.items())
            for label, root in order if seed % 2 == 0 else order[::-1]:
                line = _run([sys.executable, "perfbench/run.py", "--workload",
                             workload, "--seed", str(seed), "--seconds", "10",
                             "--trace", "0"], root).strip().splitlines()[-1]
                runs[label].append(json.loads(line))
                print(workload, seed, label, line, file=sys.stderr)
        entry = {"pairs": PAIRS,
                 "all_correct": all(r["correct"] for rs in runs.values()
                                    for r in rs),
                 "failed": {k: sum(r["failed"] for r in rs)
                            for k, rs in runs.items()}}
        for metric in METRICS:
            vals = {k: [r["metrics"][metric]["value"] for r in rs]
                    for k, rs in runs.items()}
            entry[metric] = {k: _quartiles(v) for k, v in vals.items()}
            entry[metric]["change_lower_in_pairs"] = sum(
                c < p for p, c in zip(vals["parent"], vals["change"]))
            entry[metric]["median_change"] = round(
                entry[metric]["change"]["median"]
                / entry[metric]["parent"]["median"] - 1.0, 3)
        out[workload] = entry
    return out


def tier1_section(trees):
    out = {}
    for label, root in trees.items():
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"], cwd=root,
            env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
            text=True)
        lines = done.stdout.strip().splitlines()
        out[label] = dict(wall_s=round(time.perf_counter() - t0, 1),
                          summary=lines[-1] if lines else "")
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--measure-sampler", metavar="SRC")
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.measure_sampler:
        return measure_sampler(args.measure_sampler)
    if not (args.parent and args.change and args.out):
        ap.error("--parent, --change and --out are required")
    trees = {"parent": args.parent, "change": args.change}
    result = {"machine": machine(),
              "sampler": sampler_section(trees),
              "end_to_end": end_to_end_section(trees),
              "tier1": tier1_section(trees)}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
