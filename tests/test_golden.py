"""Golden outputs of tiny seeded runs.

The files under ``tests/data/golden`` hold the CSV outputs of six tiny
runs: a conservative comparison (both algorithms, two seeds, GP snapshots
at iterations 1, 3 and 4), a 2-D run on a 15x15 grid, a fixed-bound 2-D
run on a 50x50 grid whose safe set grows
(once per expander candidate set), a predictor training set, an
accepted-bound study (two seeds, 5 and 20 samples), and the norms of 64
interpolating draws per channel on the tilde, hat and global regions of a
1-D and a 2-D sample set, and on the 6-point tilde and the global region
of a sample set on a 50x50 grid. The test reruns the same configurations and
compares every CSV cell. Discrete columns (chosen coordinates, draw counts,
escalation flags, set sizes, unsafe flags, region labels) must match
exactly; floating-point columns to a relative 1e-9.

Re-record the files only for a change that is meant to move the outputs:

    PYTHONPATH=src python3 tests/test_golden.py

A re-record rewrites only the files with a cell that fails the comparison,
adds new files and deletes the files no configuration writes any more, so
last-digit noise of another BLAS build stays out of the recorded files.
"""

import dataclasses
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
from conftest import constant_predictor, first_norms, read_csv_rows

from pacsbo import kernel_gp
from pacsbo.harness import (
    ExperimentSpec,
    _grid_for,
    _kernel_for,
    _safeopt_config,
    _scenario_defaults,
    history_rows,
    make_truth,
    record_header,
    run_experiment,
    seed_triple,
    write_csv,
)
from pacsbo.kernel_gp import GridDomain, KernelConfig, SampleSet
from pacsbo.pacsbo_loop import run
from pacsbo.predictor import generate_training_data, save_predictor
from pacsbo.rkhs_function import SamplerConfig
from pacsbo.subdomain import partition_masks

GOLDEN = Path(__file__).parent / "data" / "golden"
TINY_BUDGET = dict(q_init=20, q_max=40)
EXACT = re.compile(r"(schema_version|seed|algorithm|iteration|[ax]\d+|unsafe"
                   r"|any_unsafe|iters_to_fraction|total_samples|sampled"
                   r"|tilde|hat|q_\w+|escalated(_\w+)?|[SMG]_\w+"
                   r"|num_samples|dim|region|channel|draw|chosen_partition)")
DECISION = re.compile(r"a\d+|chosen_partition")
# sampler pin: (grid resolution, sample indices) per dimension; the 2-D
# hull is a polygon
SAMPLER_SETS = {1: (100, [22, 30, 41, 57]),
                2: ((20, 20), [45, 52, 168, 230, 301])}
# the smallest and the largest mask the sampler reads its lattice-table
# blocks for: this set's tilde mask holds 6 points, its global mask 2500
SAMPLER_50X50 = ((50, 50), [1020, 1022, 1070, 1072])


def produce(out: Path) -> None:
    """Run the four tiny configurations, writing CSVs under ``out``."""
    pred = out / "predictor.json"
    out.mkdir(parents=True, exist_ok=True)
    save_predictor(constant_predictor(3.0), pred)

    # snapshots at the first, a middle and the last iteration of the budget
    params = _scenario_defaults("compare_conservative")
    params.update(budget=4, predictor_path=str(pred),
                  snapshot_iterations=[1, 3, 4], **TINY_BUDGET)
    run_experiment(ExperimentSpec("compare_conservative",
                                  str(out / "compare_conservative"),
                                  (0, 1), params))

    params = _scenario_defaults("synthetic2d")
    params.update(grid_resolution=[15, 15], budget=3,
                  predictor_path=str(pred), **TINY_BUDGET)
    run_experiment(ExperimentSpec("synthetic2d", str(out / "synthetic2d"),
                                  (0,), params))

    # On 20x20 or 30x30 grids no synthetic2d truth leaves its start set in
    # 12 iterations; on 50x50 truth 0 grows it from 3 to 54 points.
    params = _scenario_defaults("synthetic2d")
    params.update(grid_resolution=[50, 50], budget=12, fixed_bound=2.0)
    grid, kernel = _grid_for(params), _kernel_for(params)
    truth = make_truth(params, grid, kernel, 0)
    s0 = seed_triple(truth, grid, placement=params["s0_placement"])
    cfg = _safeopt_config(params, grid, kernel, s0, 0)
    for name, exact in (("boundary", False), ("exact", True)):
        history = run(dataclasses.replace(cfg, exact_expanders=exact), truth)
        write_csv(out / "safeopt2d" / f"records_safeopt_{name}.csv",
                  record_header(grid.dim),
                  history_rows(0, "safeopt", grid, history))

    data = generate_training_data(3, 4, seed=0)
    width = data.inputs.shape[1]
    write_csv(out / "training" / "training_set.csv",
              [f"in{k}" for k in range(width)] + ["label"],
              [[f"{v:.17g}" for v in row] + [f"{label:.17g}"]
               for row, label in zip(data.inputs, data.labels)])
    params = _scenario_defaults("fig3_thresholds")
    params.update(sample_counts=[5, 20], q_init=50, q_max=100)
    run_experiment(ExperimentSpec("fig3_thresholds",
                                  str(out / "fig3_thresholds"), (0, 1),
                                  params))

    header = ["dim", "region", "channel", "draw", "norm"]
    write_csv(out / "sampler" / "norms.csv", header,
              [row for dim, (resolution, idx) in SAMPLER_SETS.items()
               for row in sampler_rows(dim, resolution, idx)])
    write_csv(out / "sampler" / "norms_50x50.csv", header,
              sampler_rows(2, *SAMPLER_50X50, labels=("tilde", "global")))
    pred.unlink()


def sampler_rows(dim, resolution, idx,
                 labels=("tilde", "hat", "global")) -> list:
    """Norms of 64 interpolating draws per region and channel of one sample
    set; the two channels carry different measurements."""
    kernel = KernelConfig(lengthscale=0.1)
    grid = GridDomain.uniform(resolution)
    x = grid.points[idx].sum(axis=1)
    samples = SampleSet(grid, idx, {0: np.sin(6.0 * x),
                                    1: np.cos(4.0 * x) - 0.3})
    # the 2-D samples are not collinear, so their hull is a polygon
    pts = grid.points[idx]
    assert dim == 1 or np.linalg.matrix_rank(pts - pts[0]) == 2
    rows = []
    for label, mask in zip(("tilde", "hat", "global"),
                           partition_masks(samples)):
        if label not in labels:
            continue
        for i in (0, 1):
            norms = first_norms(samples, (i,), 0.01, kernel, mask,
                                SamplerConfig(), (7, dim, i), 64)[:, 0]
            rows += [[dim, label, i, j, f"{v:.17g}"]
                     for j, v in enumerate(norms)]
    return rows


def tables(root: Path) -> dict:
    return {str(p.relative_to(root)): read_csv_rows(p)
            for p in sorted(root.rglob("*.csv"))}


def same_cell(column: str, want: str, got: str) -> bool:
    if EXACT.fullmatch(column) or want == "" or got == "":
        return want == got
    a, b = float(want), float(got)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def mismatch(want, got) -> str:
    """The first difference of table ``got`` from ``want``, or ''."""
    (header, rows), (got_header, got_rows) = want, got
    if got_header != header:
        return f"header {got_header} for {header}"
    if len(got_rows) != len(rows):
        return f"{len(got_rows)} rows for {len(rows)}"
    for k, (w, g) in enumerate(zip(rows, got_rows)):
        bad = [c for c in header if not same_cell(c, w[c], g[c])]
        if bad:
            return f"row {k}: " + ", ".join(f"{c} {w[c]} -> {g[c]}"
                                            for c in bad)
    return ""


def test_tiny_runs_match_golden_outputs(tmp_path):
    produce(tmp_path)
    want, got = tables(GOLDEN), tables(tmp_path)
    assert want, "no golden files recorded"
    assert sorted(got) == sorted(want)
    for name in want:
        diff = mismatch(want[name], got[name])
        assert not diff, f"{name} {diff}"


def test_one_ulp_on_the_kernel_moves_no_decision(tmp_path, monkeypatch,
                                                 request):
    """Mirror-image grid points have equal widths in exact arithmetic, so
    rounding must not pick between them: with every kernel value one ulp
    up, each run chooses the same points in the same regions."""
    real = kernel_gp.matern32
    monkeypatch.setattr(kernel_gp, "matern32",
                        lambda d, ls: np.nextafter(real(d, ls), np.inf))
    kernel_gp.lattice_table.cache_clear()
    request.addfinalizer(kernel_gp.lattice_table.cache_clear)
    produce(tmp_path)
    want, got = tables(GOLDEN), tables(tmp_path)
    records = [name for name in want if "records_" in name]
    assert len(records) == 7
    for name in records:
        (header, rows), (_, got_rows) = want[name], got[name]
        cols = [c for c in header if DECISION.fullmatch(c)]
        assert ([[r[c] for c in cols] for r in got_rows]
                == [[r[c] for c in cols] for r in rows]), name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        produce(Path(tmp))
        want, got = tables(GOLDEN), tables(Path(tmp))
        moved = [n for n in got if n not in want or mismatch(want[n], got[n])]
        for name in moved:
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(tmp) / name, GOLDEN / name)
        for name in set(want) - set(got):
            (GOLDEN / name).unlink()
    print(f"rewrote {len(moved)} and deleted {len(set(want) - set(got))} "
          f"of the {len(got)} files under {GOLDEN}", file=sys.stderr)
