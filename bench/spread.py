"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload rank-cli --seeds 1-10
    python3 bench/spread.py --workload rank-cli --seeds 101-110 --against 201-210

Each run lasts `run_seconds` from BENCHMARK.json.  For every end-to-end
metric it prints the median over the runs and the distance between the
first and third quartile (`statistics.quantiles`, n=4) as a share of the
median, next to the bound in BENCHMARK.json.  With `--against`, the two
sets run alternately, seed by seed (A101, B201, A102, B202, ...), so
that both see the same changes of the machine's speed; then each set's
spread is printed, and the change of median from one set to the other
in both directions.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, label):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{label}seed {seed}: attempted {result['attempted']} failed {result['failed']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
          flush=True)
    return result


def summary(runs, bounds, label=""):
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{label}failed share: {sorted(shares)}")
    medians = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = medians[name] = statistics.median(values)
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / med:.4f}"
        else:
            spread = "n/a"
        print(f"{label}{name:45s} median {med:.6g}  spread {spread}  bound {bounds.get(name)}")
    return medians


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--against", help="a second range of as many seeds, run alternately")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    a_seeds = seeds(args.seeds)
    if not args.against:
        summary([run_once(spec, args.workload, s, "") for s in a_seeds], bounds)
        return
    b_seeds = seeds(args.against)
    if len(b_seeds) != len(a_seeds):
        raise SystemExit("--seeds and --against must name as many seeds")
    a_runs, b_runs = [], []
    for sa, sb in zip(a_seeds, b_seeds):
        a_runs.append(run_once(spec, args.workload, sa, "A "))
        b_runs.append(run_once(spec, args.workload, sb, "B "))
    a_med = summary(a_runs, bounds, "A ")
    b_med = summary(b_runs, bounds, "B ")
    for name in a_med:
        print(f"{name:45s} B/A - 1 = {b_med[name] / a_med[name] - 1:+.4f}  "
              f"A/B - 1 = {a_med[name] / b_med[name] - 1:+.4f}  bound {bounds.get(name)}")


if __name__ == "__main__":
    main()
