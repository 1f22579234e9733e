"""Parent-against-change evidence for one change to the repository.

    python3 bench/compare.py --parent DIR --change DIR --out BENCH_x.json

``DIR`` is a checkout of the repository. Every measurement runs in a fresh
process with one BLAS thread, one process at a time. The output holds:

* ``outputs``: whether the two checkouts' ``bench/cli_trees.py`` trees are
  ``identical``, and the ``moved`` lines ``tree_diff.compare`` reports;
* ``sampler``: one pool of ``DRAWS`` draws (set-up included) per mask of
  a 1-D and a 2-D set with 5 and 20 samples; draws/s is ``DRAWS / seconds``;
* ``compute_state``: the two channels' ``gp_fit`` (where the grid-wide
  means are made) and one call on the 50x50 grid's global mask with 10 and
  40 samples, with boundary and with exact expander candidates;
* ``whole_runs``: one ``pacsbo_loop.run`` per ``safeopt2d`` truth;
* ``draws``: per tree and per ``DRAW_WORKLOADS`` workload, one seed-0
  round run in one process with ``harness._in_order`` serial, so every
  estimator call is seen: its ``calls``, ``escalated`` calls, sampler
  ``draws`` and largest ``q_used`` against ``q_max``;
* ``end_to_end``: per ``perfbench/run.py`` workload, each metric's median
  and quartiles per tree and the number of rounds the change was lower;
* ``tier1``: wall time and summary line of one Tier-1 run per tree;
* ``machine``.

The layer and end-to-end sections take ``PAIRS`` rounds of one process per
tree, the parent first in even rounds. A layer's process, ``--measure LAYER
SRC``, imports ``pacsbo`` from ``SRC`` and prints per case its identity
fields, the median ``seconds`` of ``REPEATS`` calls and the ``sha256`` of
its outputs. A row per case, and an ``all`` row over the summed seconds,
gives per tree the median and quartiles over the rounds,
``change_faster_in_rounds`` and ``bitwise_equal``: whether the trees agreed
on all but the seconds in every round. Equality is recorded, not enforced.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tree_diff
from cli_trees import ONE_THREAD

DRAWS = 2048
REPEATS = 3
PAIRS = 10
SAMPLER_COUNTS = (5, 20)
STATE_COUNTS = (10, 40)
WORKLOADS = ("thresholds1d", "pacsbo2d", "safeopt2d")
DRAW_WORKLOADS = {"thresholds1d": "Thresholds1d", "pacsbo2d": "Pacsbo2d"}
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
# 2-D set: the four corners of a 2x3 block of the 50x50 grid and one edge
# point, so its tilde mask holds 6 points; 20 samples re-measure them
BLOCK_2D = [1020, 1022, 1070, 1072, 1021]
SCRIPT = Path(__file__).resolve()


def sampler_cases():
    import numpy as np

    from pacsbo.kernel_gp import GridDomain, KernelConfig, SampleSet
    from pacsbo.rkhs_function import DrawPool, SamplerConfig
    from pacsbo.seeding import derive_rng
    from pacsbo.subdomain import partition_masks

    kernel, cfg = KernelConfig(lengthscale=0.1), SamplerConfig()

    def sample_set(grid, idx):
        x = grid.points[idx].sum(axis=1)
        return SampleSet(grid, idx, {0: np.sin(6.0 * x), 1: np.cos(4.0 * x)})

    sets = []
    for n in SAMPLER_COUNTS:
        order = derive_rng(0, "bench").permutation(100)[:n].tolist()
        samples = sample_set(GridDomain.uniform(100), order)
        sets += [(f"1d {label}", n, samples, mask) for label, mask
                 in zip(("tilde", "hat", "global"), partition_masks(samples))]
    for n in SAMPLER_COUNTS:
        samples = sample_set(GridDomain.uniform((50, 50)), (BLOCK_2D * n)[:n])
        tilde, _, full = partition_masks(samples)
        sets += [("2d tilde", n, samples, tilde),
                 ("2d global", n, samples, full)]
    for name, n, samples, mask in sets:
        yield (dict(case=name, samples=n, mask_points=mask.count),
               lambda: DrawPool(samples, (0,), 0.01, kernel, mask, cfg,
                                (11, n)).norms(0, DRAWS),
               lambda norms: ({}, norms.tobytes()))


def state_cases():
    """Samples drawn from the 225 points of the 50x50 grid in
    ``[0.3, 0.6]^2``, so the safe set has an outside to expand into."""
    import numpy as np

    from pacsbo.kernel_gp import (GridDomain, KernelConfig, SampleSet, gp_fit,
                                  info_gain)
    from pacsbo.safeopt_core import beta_scale, compute_state
    from pacsbo.seeding import derive_rng
    from pacsbo.subdomain import global_mask

    grid = GridDomain.uniform((50, 50))
    kernel, noise = KernelConfig(lengthscale=0.1), 0.01
    mask = global_mask(grid)
    box = np.flatnonzero(np.all((grid.points > 0.3) & (grid.points < 0.6),
                                axis=1))
    order = derive_rng(0, "bench").permutation(box)

    def read(state):
        arrays = [a for i in state.field.channels
                  for a in (state.field.lower[i], state.field.upper[i])]
        arrays += [state.safe, state.maximizer_set, state.expander_set]
        return (dict(safe=int(state.safe.sum()),
                     expanders=int(state.expander_set.sum())),
                b"".join(a.tobytes() for a in arrays))

    for n in STATE_COUNTS:
        idx = order[:n]
        x = grid.points[idx].sum(axis=1)
        samples = SampleSet(grid, idx, {0: np.sin(6.0 * x),
                                        1: 1.0 + 0.3 * np.cos(4.0 * x)})
        gamma = info_gain(gp_fit(samples, 0, noise, kernel))
        betas = dict.fromkeys((0, 1), beta_scale(1.0, noise, gamma, 0.1))
        for exact in (False, True):
            yield (dict(case=f"2d global {'exact' if exact else 'boundary'}",
                        samples=n),
                   lambda: compute_state(
                       {i: gp_fit(samples, i, noise, kernel) for i in (0, 1)},
                       betas, mask, idx[:1], exact), read)


def run_cases():
    from pacsbo import pacsbo_loop

    import workloads

    wl = workloads.Safeopt2d(0, Path(workloads.__file__).parent / "out")
    wl.setup()
    for t in wl.truth_seeds:
        yield (dict(case=f"truth {t}"),
               lambda: pacsbo_loop.run(wl.cfgs[t], wl.truths[t]),
               lambda history: (dict(iterations=len(history.records)), repr(
                   [(r.chosen, r.measured) for r in history.records])
                   .encode()))


LAYERS = {"sampler": sampler_cases, "compute_state": state_cases,
          "whole_runs": run_cases}


def measure(layer: str, src: str) -> None:
    """A layer's cases yield ``(identity, call, read)``; ``read(result)``
    gives more identity fields and the bytes to hash. Each case runs before
    the generator moves on, so its lambdas see its variables."""
    sys.path[:0] = [src, str(Path(src).parent / "perfbench")]
    out = []
    for ident, call, read in LAYERS[layer]():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            result = call()
            times.append(time.perf_counter() - t0)
        fields, payload = read(result)
        out.append(dict(ident, **fields, seconds=statistics.median(times),
                        sha256=hashlib.sha256(payload).hexdigest()))
    print(json.dumps(out))


def count_draws(src: str) -> None:
    """One seed-0 round of each ``DRAW_WORKLOADS`` workload, counted by
    wrapping ``estimate_upper_bound`` where the harness and the loop call
    it and ``interpolating_norms`` where the pool calls it."""
    sys.path[:0] = [src, str(Path(src).parent / "perfbench")]
    from pacsbo import harness, pacsbo_loop, rkhs_function

    import workloads

    calls, draws = [], []
    estimate, norms = harness.estimate_upper_bound, \
        rkhs_function.interpolating_norms

    def counted_estimate(*args, **kwargs):
        calls.append((estimate(*args, **kwargs), kwargs["cfg"].q_max))
        return calls[-1][0]

    def counted_norms(pool, count):
        draws.append(count)
        return norms(pool, count)

    harness._in_order = lambda fn, tasks: [fn(t) for t in tasks]
    harness.estimate_upper_bound = counted_estimate
    pacsbo_loop.estimate_upper_bound = counted_estimate
    rkhs_function.interpolating_norms = counted_norms
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls in DRAW_WORKLOADS.items():
            wl = getattr(workloads, cls)(0, Path(tmp) / name)
            wl.setup()
            calls.clear()
            draws.clear()
            wl.run_round()
            out[name] = dict(
                calls=len(calls), escalated=sum(r.escalated for r, _ in calls),
                draws=sum(draws), max_q_used=max(r.q_used for r, _ in calls),
                q_max=max(q for _, q in calls))
    print(json.dumps(out))


def _run(cmd, cwd):
    env = dict(os.environ, **ONE_THREAD)
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, check=True).stdout


def _quartiles(values, digits=None):
    q = statistics.quantiles(values, n=4, method="inclusive")
    q1, med, q3 = (v if digits is None else round(v, digits) for v in q)
    return dict(median=med, q1=q1, q3=q3)


def outputs_section(trees):
    with tempfile.TemporaryDirectory() as tmp:
        for label, root in trees.items():
            _run([sys.executable, str(SCRIPT.parent / "cli_trees.py"), root,
                  str(Path(tmp) / label)], root)
        moved = tree_diff.compare(Path(tmp) / "parent", Path(tmp) / "change")
    return dict(identical=not moved, moved=moved)


def _rounds(trees, cmd):
    """Per round, each tree's last output line of ``cmd(r, root)``."""
    rounds = []
    for r in range(PAIRS):
        order = list(trees.items())
        runs = {}
        for label, root in order if r % 2 == 0 else order[::-1]:
            line = _run(cmd(r, root), root).strip().splitlines()[-1]
            print(r, label, line[:160], file=sys.stderr)
            runs[label] = json.loads(line)
        rounds.append(runs)
    return rounds


def layer_section(trees, layer):
    """One row per case, keyed by the parent's first round, and ``all``."""
    rounds = _rounds(trees, lambda r, root: [
        sys.executable, str(SCRIPT), "--measure", layer,
        str(Path(root) / "src")])
    cases = range(len(rounds[0]["parent"]))
    rows = []
    for ks, row in ([([k], _fixed(rounds[0]["parent"][k])) for k in cases]
                    + [(cases, dict(case="all"))]):
        secs = {label: [sum(runs[label][k]["seconds"] for k in ks)
                        for runs in rounds] for label in ("parent", "change")}
        row.update({f"{label}_seconds": _quartiles(v, 6)
                    for label, v in secs.items()}, rounds=PAIRS)
        row["change_faster_in_rounds"] = sum(
            c < p for p, c in zip(secs["parent"], secs["change"]))
        row["bitwise_equal"] = all(
            _fixed(runs["parent"][k]) == _fixed(runs["change"][k])
            for runs in rounds for k in ks)
        rows.append(row)
    return rows


def _fixed(case):
    return {k: v for k, v in case.items() if k != "seconds"}


def end_to_end_section(trees):
    out = {}
    for workload in WORKLOADS:
        rounds = _rounds(trees, lambda seed, root: [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "10", "--trace", "0"])
        entry = {"pairs": PAIRS,
                 "all_correct": all(run["correct"] for runs in rounds
                                    for run in runs.values()),
                 "failed": {k: sum(runs[k]["failed"] for runs in rounds)
                            for k in trees}}
        for metric in METRICS:
            vals = {k: [runs[k]["metrics"][metric]["value"]
                        for runs in rounds] for k in trees}
            entry[metric] = {k: _quartiles(v) for k, v in vals.items()}
            entry[metric]["change_lower_in_pairs"] = sum(
                c < p for p, c in zip(vals["parent"], vals["change"]))
            entry[metric]["median_change"] = round(
                entry[metric]["change"]["median"]
                / entry[metric]["parent"]["median"] - 1.0, 3)
        out[workload] = entry
    return out


def draws_section(trees):
    return {label: json.loads(_run(
        [sys.executable, str(SCRIPT), "--draws", str(Path(root) / "src")],
        root).strip().splitlines()[-1]) for label, root in trees.items()}


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


def machine() -> dict:
    import numpy
    import scipy
    info = Path("/proc/cpuinfo")
    lines = info.read_text().splitlines() if info.exists() else []
    cpu = [ln.split(":", 1)[1].strip() for ln in lines
           if ln.startswith("model name")]
    return {"nproc": os.cpu_count(), "cpu": (cpu or [platform.processor()])[0],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--out")
    ap.add_argument("--measure", nargs=2, metavar=("LAYER", "SRC"))
    ap.add_argument("--draws", metavar="SRC")
    args = ap.parse_args(argv)
    if args.measure:
        return measure(*args.measure)
    if args.draws:
        return count_draws(args.draws)
    if not (args.parent and args.change and args.out):
        ap.error("--parent, --change and --out are required")
    trees = {"parent": str(Path(args.parent).resolve()),
             "change": str(Path(args.change).resolve())}
    result = {"outputs": outputs_section(trees)}
    result.update({layer: layer_section(trees, layer) for layer in LAYERS})
    result["draws"] = draws_section(trees)
    result.update(end_to_end=end_to_end_section(trees),
                  tier1=tier1_section(trees), machine=machine())
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
