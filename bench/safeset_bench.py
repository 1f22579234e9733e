"""Parent-against-change measurement of the safe-set classification.

    python3 bench/safeset_bench.py --parent DIR --change DIR \
        --out BENCH_kernelrows.json

``DIR`` is a checkout of the repository (its ``src/``, ``perfbench/`` and
``tests/``). Every measurement runs in a fresh process with one BLAS thread,
one process at a time. The output holds:

* ``compute_state``: milliseconds per ``safeopt_core.compute_state`` call
  on the global mask of the 50x50 grid, with 10 and with 40 samples, in
  both candidate modes (boundary heuristic and exact). Each of
  ``ROUNDS`` rounds runs one worker process per tree, parent first in even
  rounds and change first in odd ones; a worker times ``REPEATS`` calls per
  case and keeps their median. Per tree the rows give the median and
  quartiles over the rounds, and the number of rounds in which the change
  was faster; the two trees' bounds and sets must be bitwise equal in every
  round;
* ``end_to_end`` and ``tier1``: as in ``bench/sampler_bench.py``, whose
  helpers this script runs.

``--measure-state SRC`` is the per-tree worker: it imports ``pacsbo`` from
``SRC`` and prints the timings of that tree as one JSON line.
"""
import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import sampler_bench

REPEATS = 5
ROUNDS = 6
SAMPLE_COUNTS = (10, 40)
RUN_ROUNDS = 10


def state_cases():
    """(name, number of samples, exact, posteriors, betas, mask, seed set)
    per measured case: samples drawn from the 225 points of the 50x50 grid
    in ``[0.3, 0.6]^2``, so the safe set has an outside to expand into."""
    import numpy as np

    from pacsbo.kernel_gp import (GridDomain, KernelConfig, SampleSet, gp_fit,
                                  info_gain)
    from pacsbo.safeopt_core import beta_scale
    from pacsbo.seeding import derive_rng
    from pacsbo.subdomain import global_mask

    grid = GridDomain.uniform((50, 50))
    kernel, noise = KernelConfig(lengthscale=0.1), 0.01
    mask = global_mask(grid)
    box = np.flatnonzero(np.all((grid.points > 0.3) & (grid.points < 0.6),
                                axis=1))
    order = derive_rng(0, "bench").permutation(box)
    for n in SAMPLE_COUNTS:
        idx = order[:n]
        x = grid.points[idx].sum(axis=1)
        samples = SampleSet(grid, idx, {0: np.sin(6.0 * x),
                                        1: 1.0 + 0.3 * np.cos(4.0 * x)})
        posteriors = {i: gp_fit(samples, i, noise, kernel) for i in (0, 1)}
        betas = {i: beta_scale(1.0, noise, info_gain(post), 0.1)
                 for i, post in posteriors.items()}
        for exact in (False, True):
            name = f"2d global {'exact' if exact else 'boundary'}"
            yield name, n, exact, posteriors, betas, mask, idx[:1]


def _state_digest(state) -> str:
    h = hashlib.sha256()
    for i in state.field.channels:
        h.update(state.field.lower[i].tobytes())
        h.update(state.field.upper[i].tobytes())
    for a in (state.safe, state.maximizer_set, state.expander_set):
        h.update(a.tobytes())
    return h.hexdigest()


def measure_state(src: str) -> None:
    sys.path.insert(0, src)
    from pacsbo.safeopt_core import compute_state

    out = []
    for name, n, exact, posteriors, betas, mask, seed in state_cases():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            state = compute_state(posteriors, betas, mask, seed, exact)
            times.append(time.perf_counter() - t0)
        out.append(dict(case=name, samples=n, safe=int(state.safe.sum()),
                        expanders=int(state.expander_set.sum()),
                        seconds=statistics.median(times),
                        state_sha256=_state_digest(state)))
    print(json.dumps(out))


def measure_runs(src: str) -> None:
    sys.path[:0] = [src, str(Path(src).parent / "perfbench")]
    from pacsbo import pacsbo_loop

    import workloads

    wl = workloads.Safeopt2d(0, Path(src).parent / "perfbench" / "out")
    wl.setup()
    out = []
    for t in wl.truth_seeds:
        t0, c0 = time.perf_counter(), time.process_time()
        history = pacsbo_loop.run(wl.cfgs[t], wl.truths[t])
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        path = repr([(r.chosen, r.measured) for r in history.records])
        out.append(dict(truth=t, iterations=len(history.records),
                        seconds=wall, cpu_seconds=cpu,
                        path_sha256=hashlib.sha256(path.encode())
                        .hexdigest()))
    print(json.dumps(out))


def _worker_rounds(trees, flag, rounds):
    """``rounds`` rounds of one worker per tree, parent first in even
    rounds; stops when the trees' rows differ in anything but timings."""
    out = []
    for r in range(rounds):
        order = list(trees.items())
        runs = {}
        for label, root in order if r % 2 == 0 else order[::-1]:
            runs[label] = json.loads(sampler_bench._run(
                [sys.executable, str(Path(__file__).resolve()), flag,
                 str(Path(root) / "src")], root).strip().splitlines()[-1])
        for p, c in zip(runs["parent"], runs["change"]):
            if any(p[k] != c[k] for k in p if "seconds" not in k):
                raise SystemExit(f"trees differ in round {r}: {p} {c}")
        out.append(runs)
    return out


def runs_section(trees):
    rounds = _worker_rounds(trees, "--measure-runs", RUN_ROUNDS)
    rows = []
    cases = [(p["truth"], [k]) for k, p in enumerate(rounds[0]["parent"])]
    cases.append(("all", list(range(len(rounds[0]["parent"])))))
    for truth, ks in cases:
        row = dict(truth=truth, rounds=RUN_ROUNDS)
        if truth != "all":
            row["iterations"] = rounds[0]["parent"][ks[0]]["iterations"]
        for field in ("seconds", "cpu_seconds"):
            vals = {label: [sum(runs[label][k][field] for k in ks)
                            for runs in rounds] for label in trees}
            for label, v in vals.items():
                row[f"{label}_{field}"] = sampler_bench._quartiles(v, 3)
            row[f"change_faster_in_rounds_{field}"] = sum(
                c < p for p, c in zip(vals["parent"], vals["change"]))
        row["path_bitwise_equal"] = True
        rows.append(row)
    return rows


def state_section(trees):
    rounds = _worker_rounds(trees, "--measure-state", ROUNDS)
    rows = []
    for k, p in enumerate(rounds[0]["parent"]):
        ms = {label: [1e3 * runs[label][k]["seconds"] for runs in rounds]
              for label in trees}
        row = dict(case=p["case"], samples=p["samples"], safe=p["safe"],
                   expanders=p["expanders"], rounds=ROUNDS)
        row.update({f"{label}_ms_per_call": sampler_bench._quartiles(v, 2)
                    for label, v in ms.items()})
        row["speedup"] = round(row["parent_ms_per_call"]["median"]
                               / row["change_ms_per_call"]["median"], 2)
        row["change_faster_in_rounds"] = sum(
            c < p for p, c in zip(ms["parent"], ms["change"]))
        row["state_bitwise_equal"] = True
        rows.append(row)
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--measure-state", metavar="SRC")
    ap.add_argument("--measure-runs", metavar="SRC")
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.measure_state:
        return measure_state(args.measure_state)
    if args.measure_runs:
        return measure_runs(args.measure_runs)
    if not (args.parent and args.change and args.out):
        ap.error("--parent, --change and --out are required")
    trees = {"parent": args.parent, "change": args.change}
    result = {"machine": sampler_bench.machine(),
              "compute_state": state_section(trees),
              "whole_runs": runs_section(trees),
              "end_to_end": sampler_bench.end_to_end_section(trees),
              "tier1": sampler_bench.tier1_section(trees)}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
