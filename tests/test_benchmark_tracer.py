"""The benchmark's traced runs, at the self-test scale.

``perfbench/tracer.py`` reads arguments and results of some program
functions (the estimator's configuration, the sampler's draw count, the
masks' sizes). A signature change that breaks one of its hooks fails no
other test, so this one runs the three workloads at ``tiny=True`` under the
tracer, in a fresh interpreter, and requires the hooks to run and count.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_ROUNDS = """
import json
import sys
from pathlib import Path

import run  # sets the thread limits before numpy loads

workloads = run.import_program()
import tracer as tracing

tracer = tracing.Tracer()
tracer.install(tracing.package_modules())
metrics = {}
for name in run.WORKLOAD_NAMES:
    tracer.spans.clear()  # in place: the wrappers hold this list
    tracer.phase = "setup"
    wl = workloads.WORKLOADS[name](0, Path(sys.argv[1]) / name, tiny=True)
    wl.setup()
    tracer.phase = 0
    wl.run_round()
    metrics[name], _ = tracing.layer_metrics(tracer.spans, 1)
print(json.dumps(metrics))
"""


def test_traced_tiny_rounds_count_every_layer(tmp_path):
    """Each workload's counts come from its own round: ``thresholds1d``'s
    two estimator calls (one seed, two sample counts) run in the traced
    process."""
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ROUNDS, str(tmp_path)],
        cwd=ROOT / "perfbench", capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    fig3, loop, safeopt = (metrics[name] for name in
                           ("thresholds1d", "pacsbo2d", "safeopt2d"))
    assert fig3["pac_estimator.calls"] == 2
    assert fig3["rkhs_function.draws"] > 0
    for name in ("pac_estimator.calls", "rkhs_function.draws",
                 "pacsbo_loop.steps"):
        assert loop[name] > 0, name
    assert safeopt["pacsbo_loop.steps"] > 0
