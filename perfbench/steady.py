"""Steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py run --out SET.json [--runs 10]
    python3 perfbench/steady.py summary SET.json
    python3 perfbench/steady.py compare FIRST.json SECOND.json

``run`` runs every workload of ``BENCHMARK.json`` ``--runs`` times, on seeds
0, 1, ..., with the run length from ``BENCHMARK.json``, and saves every
result line to ``SET.json`` as it arrives. ``summary`` prints, per workload
and metric, the median, the quartiles and the interquartile range as a share
of the median. ``compare`` checks that two sets agree: for every workload,
every run of both sets is correct, the share of failed operations is the
same, and for every end-to-end metric (``setup_s`` included) the spread of
each set stays within the metric's bound and the two medians differ by no
more than the bound in either direction. Exits 1 when the sets disagree.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_set(path) -> dict:
    """{workload: [result, ...]} from a saved set."""
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r["result"])
    return out


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives
    the quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def cmd_run(args) -> int:
    bench = benchmark()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out = Path(args.out)
    record = {"run_seconds": seconds, "runs": []}
    for name in names:
        for seed in range(args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record["runs"].append({"workload": name, "seed": seed,
                                   "result": result})
            out.write_text(json.dumps(record, indent=1) + "\n")
            vals = ", ".join(f"{k} {v['value']:.4g}"
                             for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct {result['correct']}, "
                  f"{vals}", flush=True)
    return summarize(load_set(out))


def summarize(runs) -> int:
    for name, results in runs.items():
        print(f"{name}: {len(results)} runs, correct "
              f"{sum(r['correct'] for r in results)}/{len(results)}, "
              f"failed {sum(r['failed'] for r in results)} of "
              f"{sum(r['attempted'] for r in results)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            if len(values) < 2:
                print(f"  {metric:12s} {values[0]:.4f} {unit}")
                continue
            med, q1, q3, rel = spread(values)
            print(f"  {metric:12s} median {med:.4f} {unit}, quartiles "
                  f"{q1:.4f} .. {q3:.4f}, spread {100 * rel:.2f}%")
    return 0


def cmd_compare(args) -> int:
    bench = benchmark()
    first, second = load_set(args.first), load_set(args.second)
    bad = 0
    for w in bench["workloads"]:
        name = w["name"]
        if name not in first or name not in second:
            print(f"{name}: missing from a set")
            bad += 1
            continue
        for label, runs in (("first", first[name]), ("second", second[name])):
            wrong = sum(not r["correct"] for r in runs)
            bad += wrong > 0
            print(f"{'ok  ' if not wrong else 'FAIL'} {name} {label} set: "
                  f"{len(runs) - wrong} of {len(runs)} runs correct")
        for m in bench["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            a = spread([r["metrics"][metric]["value"] for r in first[name]])
            b = spread([r["metrics"][metric]["value"] for r in second[name]])
            change = (b[0] - a[0]) / a[0]
            ok = abs(change) <= bound and a[3] <= bound and b[3] <= bound
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name} {metric}: median "
                  f"{a[0]:.4f} -> {b[0]:.4f} ({100 * change:+.2f}%), spread "
                  f"{100 * a[3]:.2f}% / {100 * b[3]:.2f}%, bound "
                  f"{100 * bound:.0f}%")
        shares = [sum(r["failed"] for r in s[name])
                  / sum(r["attempted"] for r in s[name])
                  for s in (first, second)]
        same = shares[0] == shares[1]
        bad += not same
        print(f"{'ok  ' if same else 'FAIL'} {name} failed share "
              f"{shares[0]:.4f} / {shares[1]:.4f}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--runs", type=int, default=10)
    s = sub.add_parser("summary")
    s.add_argument("set")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args)
    if args.cmd == "summary":
        return summarize(load_set(args.set))
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
