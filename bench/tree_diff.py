"""Cell-level comparison of two ``bench/cli_trees.py`` output trees.

    python3 bench/tree_diff.py PARENT CHANGE

Prints the files found in only one tree, then, for each CSV that differs,
its moved cells per column and the largest relative change among them
(``|change - parent| / |parent|``; ``inf`` for a cell that leaves zero,
``n/a`` for a cell that is not a number), then the name of every other
file that differs. Columns are matched by name, so a change that adds
columns compares only the existing ones and lists the added ones. Prints
nothing and exits 0 when the trees are byte-identical; exits 1 otherwise.
"""
import argparse
import csv
import math
import sys
from pathlib import Path


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def _read(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _relative(old: str, new: str) -> float:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.nan
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def csv_moves(parent: Path, change: Path) -> list:
    """Report lines of a differing CSV pair: column and row-count changes,
    then one line per column with moved cells."""
    old, new = _read(parent), _read(change)
    if not old or not new:
        return [f"  rows {len(old)} -> {len(new)}"]
    lines = []
    head_old, head_new = old[0], new[0]
    for name in head_old:
        if name not in head_new:
            lines.append(f"  column {name} removed")
    for name in head_new:
        if name not in head_old:
            lines.append(f"  column {name} added")
    if len(old) != len(new):
        lines.append(f"  rows {len(old) - 1} -> {len(new) - 1}; the first "
                     f"{min(len(old), len(new)) - 1} compared")
    for name in head_old:
        if name not in head_new:
            continue
        i, j = head_old.index(name), head_new.index(name)
        changes = [_relative(a[i], b[j]) for a, b in zip(old[1:], new[1:])
                   if a[i] != b[j]]
        if changes:
            numeric = [c for c in changes if not math.isnan(c)]
            largest = f"{max(numeric):.3g}" if numeric else "n/a"
            lines.append(f"  {name}: {len(changes)} cells moved, largest "
                         f"relative change {largest}")
    return lines


def compare(parent: Path, change: Path) -> list:
    """Every report line for the two trees; empty when they are equal."""
    files_old, files_new = _files(parent), _files(change)
    lines = [f"only in {parent}: {name}"
             for name in sorted(files_old - files_new)]
    lines += [f"only in {change}: {name}"
              for name in sorted(files_new - files_old)]
    for name in sorted(files_old & files_new):
        a, b = parent / name, change / name
        if a.read_bytes() == b.read_bytes():
            continue
        if name.endswith(".csv"):
            lines.append(f"{name}:")
            lines += csv_moves(a, b) or ["  same cells, bytes differ"]
        else:
            lines.append(f"{name}: differs")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    for root in (args.parent, args.change):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    lines = compare(args.parent, args.change)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
