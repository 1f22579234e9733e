"""``bench/compare.py``: the round loop of its layer sections with the
workers faked, and one real ``compute_state`` worker."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CASES = ("a", "b")


@pytest.fixture
def compare(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("compare")


def fake_workers(compare, monkeypatch, seconds, digest):
    """Replace ``compare._run`` by workers that print cases ``a`` and
    ``b``, with ``seconds(tree, round, case)`` and ``digest(tree, round,
    case)``; returns the trees in the order they ran."""
    ran = []

    def run(cmd, cwd):
        tree = Path(cwd).name
        r = ran.count(tree)
        ran.append(tree)
        assert cmd[2:4] == ["--measure", "sampler"]
        assert cmd[4] == str(Path(cwd) / "src")
        cases = [dict(case=c, samples=5, seconds=seconds(tree, r, c),
                      sha256=digest(tree, r, c)) for c in CASES]
        return "a line before the result\n" + json.dumps(cases) + "\n"

    monkeypatch.setattr(compare, "_run", run)
    return ran


def trees(tmp_path):
    return {label: str(tmp_path / label) for label in ("parent", "change")}


def test_rounds_alternate_which_tree_runs_first(compare, monkeypatch,
                                                tmp_path):
    ran = fake_workers(compare, monkeypatch, lambda *a: 1.0,
                       lambda *a: "same")
    compare.layer_section(trees(tmp_path), "sampler")
    firsts = ran[::2]
    assert len(ran) == 2 * compare.PAIRS
    assert firsts == ["parent", "change"] * (compare.PAIRS // 2)
    assert all(a != b for a, b in zip(ran[::2], ran[1::2]))


def test_one_row_per_case_and_all(compare, monkeypatch, tmp_path):
    fake_workers(compare, monkeypatch, lambda *a: 1.0, lambda *a: "same")
    rows = compare.layer_section(trees(tmp_path), "sampler")
    assert [row["case"] for row in rows] == [*CASES, "all"]
    assert rows[0]["samples"] == 5 and rows[0]["sha256"] == "same"
    assert all(row["rounds"] == compare.PAIRS and row["bitwise_equal"]
               for row in rows)
    assert rows[-1]["parent_seconds"] == dict(median=2.0, q1=2.0, q3=2.0)


def test_a_differing_digest_is_recorded_not_raised(compare, monkeypatch,
                                                   tmp_path):
    def digest(tree, r, case):
        return "moved" if (tree, r, case) == ("change", 3, "b") else "same"

    fake_workers(compare, monkeypatch, lambda *a: 1.0, digest)
    rows = compare.layer_section(trees(tmp_path), "sampler")
    assert [row["bitwise_equal"] for row in rows] == [True, False, False]


def test_change_faster_in_rounds_counts_strictly_faster_rounds(
        compare, monkeypatch, tmp_path):
    # the change is faster on a in rounds 0-6, ties on b in every round
    # but round 9, where it is slower; summed, it is faster in rounds 0-6
    def seconds(tree, r, case):
        if tree == "parent":
            return 1.0
        if case == "a":
            return 0.5 if r < 7 else 1.0
        return 1.25 if r == 9 else 1.0

    fake_workers(compare, monkeypatch, seconds, lambda *a: "same")
    rows = compare.layer_section(trees(tmp_path), "sampler")
    assert [row["change_faster_in_rounds"] for row in rows] == [7, 0, 7]
    assert rows[0]["change_seconds"]["median"] == 0.5
    assert rows[1]["change_seconds"]["q3"] == 1.0


def test_compute_state_worker_gives_its_four_cases():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"), "--measure",
         "compute_state", str(ROOT / "src")], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True, timeout=120).stdout
    cases = json.loads(out.strip().splitlines()[-1])
    assert [(c["case"], c["samples"]) for c in cases] == [
        ("2d global boundary", 10), ("2d global exact", 10),
        ("2d global boundary", 40), ("2d global exact", 40)]
    for c in cases:
        assert set(c) == {"case", "samples", "safe", "expanders", "seconds",
                          "sha256"}
        # the exact mode tests every safe point, so it finds at least the
        # heuristic's expanders
        assert 0 < c["expanders"] <= c["safe"]
    assert cases[1]["expanders"] >= cases[0]["expanders"]


def test_draws_worker_counts_every_estimator_call():
    """The draws worker runs each workload's round in one process, so it
    sees fig3's calls too: 3 seeds x 3 sample counts, and 15 iterations x
    3 regions x 2 channels; no call reads past its budget."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"), "--draws",
         str(ROOT / "src")], cwd=ROOT, env=env, capture_output=True,
        text=True, check=True, timeout=120).stdout
    counts = json.loads(out.strip().splitlines()[-1])
    assert {k: v["calls"] for k, v in counts.items()} == {
        "thresholds1d": 9, "pacsbo2d": 90}
    for c in counts.values():
        assert 0 <= c["escalated"] <= c["calls"]
        assert 0 < c["max_q_used"] <= c["q_max"]
        assert c["draws"] >= c["max_q_used"]
