"""``bench/tree_diff.py``, the cell-level comparison behind every
byte-identity check of two ``bench/cli_trees.py`` output trees."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = "a,b,label\n1.0,2.0,x\n3.0,4.0,y\n"


def tree(root: Path, files: dict) -> Path:
    """A tree under ``root`` holding ``files`` (relative name -> text)."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def tree_diff(parent: Path, change: Path):
    """Exit code and printed lines of the script on two trees."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tree_diff.py"),
         str(parent), str(change)],
        capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout.splitlines()


def compare(tmp_path, parent: dict, change: dict):
    return tree_diff(tree(tmp_path / "parent", parent),
                     tree(tmp_path / "change", change))


def test_equal_trees_print_nothing(tmp_path):
    files = {"s/records.csv": RECORDS, "s/manifest.yaml": "seed: 0\n"}
    assert compare(tmp_path, files, files) == (0, [])


def test_moved_cell_listed_under_its_column(tmp_path):
    moved = RECORDS.replace("4.0", "5.0")
    code, lines = compare(tmp_path, {"r.csv": RECORDS}, {"r.csv": moved})
    assert code == 1
    assert lines == ["r.csv:", "  b: 1 cells moved, largest relative "
                               "change 0.25"]


def test_file_on_one_side_only_listed(tmp_path):
    code, lines = compare(tmp_path, {"r.csv": RECORDS, "old.csv": RECORDS},
                          {"r.csv": RECORDS, "new.yaml": "x: 1\n"})
    assert code == 1
    assert lines == [f"only in {tmp_path / 'parent'}: old.csv",
                     f"only in {tmp_path / 'change'}: new.yaml"]


def test_added_column_listed(tmp_path):
    wider = "a,b,label,c\n1.0,2.0,x,7\n3.0,4.0,y,8\n"
    code, lines = compare(tmp_path, {"r.csv": RECORDS}, {"r.csv": wider})
    assert code == 1
    assert lines == ["r.csv:", "  column c added"]


def test_differing_non_csv_file_named(tmp_path):
    code, lines = compare(tmp_path, {"m.yaml": "seed: 0\n"},
                          {"m.yaml": "seed: 1\n"})
    assert code == 1
    assert lines == ["m.yaml: differs"]
