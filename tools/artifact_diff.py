"""The artifact fields that differ between two checkouts, over a range of seeds.

    python3 tools/artifact_diff.py A B --workload W --seeds 1-10 [--tiny]

For each seed, each side runs one pass of the workload in a worker that
imports that checkout's own `perfbench/harness.py` (`tools/interleave.py`'s
worker, keeping its pass on disk).  The two passes' artifacts are then
compared field by field: a CSV by column, row by row; a JSON document by key
path (`checks[3].detail.min_margin`); any other file as a whole.  For every
field with a differing value, one line gives the number of differing values
over all seeds, the largest relative change |b - a| / |a| (inf from 0 or for
a value that is not a number) and the seed where it was largest:

    <label>/<artifact>:<field>  <count> differ  max rel <change> (seed <s>)

"no field differs" when none does.  A command that fails its gate stops the
run (exit status 1).  Standard library only.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import tempfile
from pathlib import Path

from interleave import Side, failures


def seed_range(text: str) -> list[int]:
    """`S` or `S-T`, both ends included."""
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected S or S-T, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def csv_fields(path: Path) -> dict[str, list[str]]:
    """Each column's values, keyed by its header."""
    with path.open(newline="") as handle:
        header, *rows = list(csv.reader(handle))
    return {name: [row[j] if j < len(row) else "" for row in rows] for j, name in enumerate(header)}


def json_fields(doc, path: str = "") -> dict[str, list]:
    """Each scalar's value, keyed by its key path, as a one-value list."""
    if isinstance(doc, dict):
        items = [(f"{path}.{key}" if path else key, value) for key, value in doc.items()]
    elif isinstance(doc, list):
        items = [(f"{path}[{j}]", value) for j, value in enumerate(doc)]
    else:
        return {path: [doc]}
    return {k: v for where, value in items for k, v in json_fields(value, where).items()}


def fields(path: Path) -> dict[str, list]:
    if not path.exists():
        return {}
    if path.suffix == ".csv":
        return csv_fields(path)
    if path.suffix == ".json":
        return json_fields(json.loads(path.read_text()))
    return {"(bytes)": [path.read_bytes()]}


def relative_change(a, b) -> float:
    if isinstance(a, bool) or isinstance(b, bool):
        return math.inf
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(y - x) / abs(x) if x != 0.0 else math.inf


def differences(a: dict[str, list], b: dict[str, list]) -> dict[str, tuple[int, float]]:
    """(differing values, largest relative change) of every field that differs;
    a field or a row on one side only differs from the missing value."""
    out = {}
    for name in sorted({*a, *b}):
        left, right = a.get(name, []), b.get(name, [])
        pairs = [(x, y) for x, y in zip(left, right) if x != y]
        count = len(pairs) + abs(len(left) - len(right))
        if count:
            worst = max((relative_change(x, y) for x, y in pairs), default=0.0)
            out[name] = (count, math.inf if len(left) != len(right) else worst)
    return out


def run_pass(name: str, root: Path, args: argparse.Namespace, seed: int, keep: Path) -> tuple[list[dict], list[str]]:
    side = Side(name, root, args.workload, seed, args.tiny, keep)
    try:
        outcomes = side.run_pass()
    finally:
        side.close()
    return outcomes, failures(side, outcomes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first checkout (holds perfbench/ and src/)")
    parser.add_argument("b", type=Path, help="second checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="S or S-T")
    parser.add_argument("--tiny", action="store_true", help="the workload's tiny sizes")
    args = parser.parse_args(argv)
    found: dict[str, list] = {}  # field -> [count, largest change, its seed]
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        for seed in args.seeds:
            passes = {}
            for name, root in (("A", args.a), ("B", args.b)):
                keep = Path(tmp) / name / str(seed)
                outcomes, failed = run_pass(name, root.resolve(), args, seed, keep)
                if failed:
                    print("\n".join(failed))
                    return 1
                passes[name] = (keep / "pass", outcomes)
            (dir_a, outcomes_a), (dir_b, outcomes_b) = passes["A"], passes["B"]
            artifacts = sorted({f"{o['label']}/{name}" for o in outcomes_a + outcomes_b for name in o["digests"]})
            for where in artifacts:
                for name, (count, change) in differences(fields(dir_a / where), fields(dir_b / where)).items():
                    row = found.setdefault(f"{where}:{name}", [0, -1.0, seed])
                    row[0] += count
                    if change > row[1]:
                        row[1:] = [change, seed]
    for name, (count, change, seed) in found.items():
        print(f"{name}  {count} differ  max rel {change:.3g} (seed {seed})")
    if not found:
        print("no field differs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
