"""Scenario work on forked worker processes (``harness._in_order``).

The pool runs only in a process with exactly one OS thread, so each test
runs its scenario in a fresh interpreter with BLAS pinned to one thread;
the test process itself has BLAS threads and would take the in-process
path.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from conftest import constant_predictor
from pacsbo.predictor import save_predictor

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

pytestmark = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2
    or not os.path.isdir("/proc/self/task"),
    reason="the pool needs two usable CPUs and /proc/self/task")

PRELUDE = """
import json
import multiprocessing
import os
import resource
import sys
from pathlib import Path

from pacsbo import harness


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime
"""

TREES = PRELUDE + """
out, predictor = Path(sys.argv[1]), sys.argv[2]


def scenarios(root):
    root.mkdir()
    os.chdir(root)  # relative out_dirs keep the manifests comparable
    fig3 = dict(harness._scenario_defaults("fig3_thresholds"), q_init=30,
                q_max=60, sample_counts=[5, 20])
    harness.run_experiment(harness.ExperimentSpec(
        "fig3_thresholds", "fig3", (0, 1, 2), fig3))
    compare = dict(harness._scenario_defaults("compare_conservative"),
                   budget=4, snapshot_iterations=[3], q_init=20, q_max=40,
                   predictor_path=predictor)
    harness.run_experiment(harness.ExperimentSpec(
        "compare_conservative", "compare", (0, 1, 3), compare))


affinity = os.sched_getaffinity
os.sched_getaffinity = lambda pid: {0}
scenarios(out / "one_cpu")
serial_cpu = children_cpu()
os.sched_getaffinity = affinity
scenarios(out / "pooled")
print(json.dumps({"serial_cpu": serial_cpu, "pooled_cpu": children_cpu(),
                  "alive": len(multiprocessing.active_children())}))
"""

FAILURE = PRELUDE + """
from pacsbo import cli
from pacsbo.errors import NumericError


def broken(*args, **kwargs):
    raise NumericError(f"probe failure in pid {os.getpid()}")


harness.estimate_upper_bound = broken
code = cli.main(["run", "--config", sys.argv[1]])
print(json.dumps({"code": code, "pid": os.getpid(),
                  "alive": len(multiprocessing.active_children())}))
"""

THREADED = PRELUDE + """
import threading
import time


def pid(_):
    return os.getpid()


release = threading.Event()
thread = threading.Thread(target=release.wait, args=(60,))
thread.start()
during = harness._in_order(pid, [0, 1, 2])
during_cpu = children_cpu()
release.set()
thread.join(timeout=60)
# a joined thread can still be listed for a moment while the OS ends it
deadline = time.monotonic() + 60
while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
    time.sleep(0.01)
after = harness._in_order(pid, [0, 1, 2])
print(json.dumps({"pid": os.getpid(), "during": during, "after": after,
                  "during_cpu": during_cpu, "joined": not thread.is_alive(),
                  "alive": len(multiprocessing.active_children())}))
"""


def run_script(script, *args):
    """Run ``script`` in a fresh interpreter with one BLAS thread, a fork
    from a threaded process turned into an error; returns the process and
    its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")})
    proc = subprocess.run(
        [sys.executable, "-W", "error:This process:DeprecationWarning",
         "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.stdout, proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_pooled_scenarios_write_the_one_cpu_bytes(tmp_path):
    """fig3 (3 seeds x 2 counts) and compare_conservative (3 seeds) write
    byte-identical trees on the pool and with one usable CPU, where the
    helper runs every task in-process."""
    predictor = tmp_path / "pred.json"
    save_predictor(constant_predictor(3.0), predictor)
    proc, out = run_script(TREES, tmp_path, predictor)
    assert proc.returncode == 0, proc.stderr
    assert out["serial_cpu"] == 0  # no child ran at one CPU
    assert out["pooled_cpu"] > 0  # the workers did the pooled run's work
    assert out["alive"] == 0
    serial, pooled = tree(tmp_path / "one_cpu"), tree(tmp_path / "pooled")
    # fig3: thresholds and manifest; compare: summary, manifest, and per
    # seed and algorithm a records file and a snapshot
    assert len(serial) == 2 + 2 + 6 + 6
    assert pooled.keys() == serial.keys()
    for name in serial:
        assert pooled[name] == serial[name], name


def test_worker_numeric_error_reaches_the_cli(tmp_path):
    """A NumericError raised in a worker is raised in the parent with its
    type, so the CLI exits 3, and no worker outlives the command."""
    cfg = tmp_path / "f.yaml"
    cfg.write_text(yaml.safe_dump(dict(
        scenario="fig3_thresholds", out_dir=str(tmp_path / "o"),
        seeds=[0, 1], q_init=30, q_max=60, sample_counts=[5, 20])))
    proc, out = run_script(FAILURE, cfg)
    assert out["code"] == 3, proc.stderr
    raised_in = re.search(r"numeric failure: probe failure in pid (\d+)",
                          proc.stderr)
    assert raised_in, proc.stderr
    assert int(raised_in.group(1)) != out["pid"]  # raised in a worker
    assert out["alive"] == 0
    assert not (tmp_path / "o").exists()


def test_second_thread_keeps_the_tasks_in_process():
    """While a second thread is alive the helper starts no child; once it
    has joined, the same call runs on workers."""
    proc, out = run_script(THREADED)
    assert proc.returncode == 0, proc.stderr
    assert out["joined"]
    assert out["during"] == [out["pid"]] * 3
    assert out["during_cpu"] == 0
    assert out["pid"] not in out["after"]
    assert out["alive"] == 0
