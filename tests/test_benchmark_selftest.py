"""The benchmark's own self-test, run as part of the suite.

``perfbench/selftest.py`` sets up every benchmark workload at a tiny scale,
checks its outputs against the dense-solve and refit oracles, and plants
one fault per check. A program change that breaks the benchmark's set-up
or its checks fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all cases behaved" in proc.stdout
