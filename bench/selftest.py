"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

For every workload: a short clean run must report no failed operation,
and the same run with one output corrupted (`--corrupt`) must report
exactly one failed operation, `correct: false` and exit code 1.  Last,
the benchmark copied without the program must exit non-zero without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def run(cwd, workload, *extra):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    problems = []
    for name in WORKLOADS:
        code, res = run(ROOT, name)
        if code != 0 or not res["correct"] or res["failed"] != 0:
            problems.append(f"{name}: clean run gave exit {code}, {res}")
        code, res = run(ROOT, name, "--corrupt")
        if code != 1 or res is None or res["correct"] or res["failed"] != 1:
            problems.append(f"{name}: corrupted run gave exit {code}, {res}")
        print(f"{name}: checked", flush=True)

    bare = ROOT / "bench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in (ROOT / "bench").glob("*.py"):
        shutil.copy(f, bare / "bench")
    try:
        code, res = run(bare, next(iter(WORKLOADS)))
    finally:
        shutil.rmtree(bare)
    if code == 0 or res is not None:
        problems.append(f"without the program: exit {code}, result {res}")

    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
