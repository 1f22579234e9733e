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

# runs ``scenarios`` once with one usable CPU, where ``_in_order`` keeps
# every task in-process, and once with the CPUs the test has
TWICE = """
affinity = os.sched_getaffinity
os.sched_getaffinity = lambda pid: {0}
scenarios(out / "one_cpu")
serial_cpu = children_cpu()
os.sched_getaffinity = affinity
scenarios(out / "two_cpu")
print(json.dumps({"serial_cpu": serial_cpu, "cpu": children_cpu(),
                  "threads": len(os.listdir("/proc/self/task")),
                  "alive": len(multiprocessing.active_children())}))
"""

TREES = PRELUDE + """
out, predictor = Path(sys.argv[1]), sys.argv[2]


def scenarios(root):
    root.mkdir()
    os.chdir(root)  # relative out_dirs keep the manifests comparable
    loop = dict(budget=4, q_init=20, q_max=40, predictor_path=predictor)
    synthetic = dict(harness._scenario_defaults("synthetic2d"),
                     grid_resolution=[20, 20], **loop)
    harness.run_experiment(harness.ExperimentSpec(
        "synthetic2d", "synthetic", (0, 1, 2), synthetic))
    compare = dict(harness._scenario_defaults("compare_conservative"),
                   snapshot_iterations=[3], **loop)
    harness.run_experiment(harness.ExperimentSpec(
        "compare_conservative", "compare", (0, 1, 3), compare))
""" + TWICE

FIG3 = PRELUDE + """
out = Path(sys.argv[1])


def scenarios(root):
    root.mkdir()
    os.chdir(root)
    fig3 = dict(harness._scenario_defaults("fig3_thresholds"), q_init=30,
                q_max=60, sample_counts=[5, 20])
    harness.run_experiment(harness.ExperimentSpec(
        "fig3_thresholds", "fig3", (0, 1, 2), fig3))
""" + TWICE

FAILURE = PRELUDE + """
from pacsbo import cli, pacsbo_loop
from pacsbo.errors import NumericError


def broken(*args, **kwargs):
    raise NumericError(f"probe failure in pid {os.getpid()}")


pacsbo_loop.estimate_upper_bound = broken
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

BACK_TO_BACK = PRELUDE + """


def pid(_):
    return os.getpid()


calls = [harness._in_order(pid, [0, 1, 2]) for _ in range(5)]
print(json.dumps({"pid": os.getpid(), "calls": calls,
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
    """synthetic2d and compare_conservative (3 seeds each) write
    byte-identical trees on the pool and with one usable CPU, where the
    helper runs every task in-process."""
    predictor = tmp_path / "pred.json"
    save_predictor(constant_predictor(3.0), predictor)
    proc, out = run_script(TREES, tmp_path, predictor)
    assert proc.returncode == 0, proc.stderr
    assert out["serial_cpu"] == 0  # no child ran at one CPU
    assert out["cpu"] > 0  # the workers did the pooled run's work
    assert out["alive"] == 0
    serial, pooled = tree(tmp_path / "one_cpu"), tree(tmp_path / "two_cpu")
    # synthetic2d: summary, manifest, and per seed a records file and an
    # explored dump; compare: summary, manifest, and per seed and
    # algorithm a records file and a snapshot
    assert len(serial) == (2 + 3 + 3) + (2 + 6 + 6)
    assert pooled.keys() == serial.keys()
    for name in serial:
        assert pooled[name] == serial[name], name


def test_fig3_runs_its_calls_in_process(tmp_path):
    """fig3's estimator calls (3 seeds x 2 counts) start no child even
    where the pool would fork: one OS thread and two usable CPUs. The tree
    is the one-CPU run's."""
    proc, out = run_script(FIG3, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out["threads"] == 1  # so ``_in_order`` would have forked
    assert out["cpu"] == 0  # no child ran in either run
    assert out["alive"] == 0
    serial, two_cpu = tree(tmp_path / "one_cpu"), tree(tmp_path / "two_cpu")
    assert len(serial) == 2  # thresholds and manifest
    assert two_cpu == serial


def test_worker_numeric_error_reaches_the_cli(tmp_path):
    """A NumericError raised in a worker is raised in the parent with its
    type, so the CLI exits 3, and no worker outlives the command."""
    predictor = tmp_path / "pred.json"
    save_predictor(constant_predictor(3.0), predictor)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(dict(
        scenario="compare_conservative", out_dir=str(tmp_path / "o"),
        seeds=[0, 1], budget=4, snapshot_iterations=[3], q_init=20,
        q_max=40, predictor_path=str(predictor))))
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


def test_back_to_back_calls_each_run_on_workers():
    """A pooled call returns once its pool's thread has left the process,
    so each of five calls in a row runs on workers again."""
    proc, out = run_script(BACK_TO_BACK)
    assert proc.returncode == 0, proc.stderr
    assert len(out["calls"]) == 5
    for pids in out["calls"]:
        assert out["pid"] not in pids, out["calls"]
    assert out["alive"] == 0
