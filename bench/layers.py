"""Per-layer table of traced runs, and whether their counts repeat.

    python3 bench/layers.py bench-out/rank-cli-seed5-trace1.json [another.json]

Prints each traced layer's calls, self time and share of the traced
timed phase.  Given two records of the same workload and seed, it also
checks that every count (`*.calls`, `evaluation.tensordot.mults`,
`evaluation.peak_entries`) is identical in both and exits 1 if not.
"""

from __future__ import annotations

import json
import sys

COUNTS = ("evaluation.tensordot.mults", "evaluation.peak_entries")


def counts(record):
    return {k: v["value"] for k, v in record["metrics"].items()
            if k.endswith(".calls") or k in COUNTS}


def main(paths):
    records = [json.loads(open(p).read()) for p in paths]
    first = records[0]
    solve = first["solve_s"]
    print(f"{first['workload']} seed {first['seed']}: traced timed phase {solve:.3f} s, "
          f"{first['attempted']} operations")
    for name, row in first["layers"].items():
        print(f"  {name:40s} calls {row['calls']:>10d}  self {row['self_s']:9.4f} s"
              f"  {100 * row['self_s'] / solve:5.1f} %")
    if len(records) == 2:
        a, b = counts(records[0]), counts(records[1])
        diff = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
        print("counts repeat exactly" if not diff else f"counts differ: {diff}")
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
