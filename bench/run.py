"""Benchmark of trivalent: one workload per run, every metric on the last line.

    python3 bench/run.py --workload delta-so4-k7 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  A copy of the result, with the
per-operation spans and the full layer table of a traced run, goes to
`bench-out/`.  The exit code is 0 when every output checked out, 1 when
one did not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import os

# One BLAS thread: on a two-core machine extra BLAS threads only add
# scheduling noise to contractions this small.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench-out"
MODULES = ("diagrams", "algebras", "evaluation", "relations", "enumeration", "cli")
#: set-up is timed SETUP_BEFORE times before the first round and then once
#: after each of up to SETUP_SAMPLES - SETUP_BEFORE rounds spread over the
#: run, so that its median covers the same stretch of time as the rounds
SETUP_BEFORE, SETUP_SAMPLES = 3, 15
#: a run must end within 180 s; past this many seconds it gives up (exit 2,
#: no result) rather than be cut off, so a program about 5x slower than
#: the one the rounds were sized for cannot be measured at 30 s
DEADLINE_S = 170.0


def loaded():
    return {m: sys.modules[m] for m in list(sys.modules)
            if m == "trivalent" or m.startswith("trivalent.")}


def fresh_import():
    """Import `trivalent` anew, dropping any copy already loaded."""
    for name in loaded():
        del sys.modules[name]
    P = types.SimpleNamespace(trivalent=importlib.import_module("trivalent"))
    for name in MODULES:
        setattr(P, name, importlib.import_module(f"trivalent.{name}"))
    return P


def set_up(w):
    """(modules, state, seconds): one timed fresh import and `construct`."""
    gc.collect()
    t0 = perf_counter()
    P = fresh_import()
    state = w.construct(P)
    return P, state, perf_counter() - t0


def setup_between(w):
    """Time one more set-up, then put back the modules the rounds use."""
    keep = loaded()
    _, _, seconds = set_up(w)
    for name in loaded():
        del sys.modules[name]
    sys.modules.update(keep)
    return seconds


def rounds_followed_by_setup(rounds):
    """Indices of the rounds after which set-up is timed again, evenly spread."""
    k = min(rounds, SETUP_SAMPLES - SETUP_BEFORE)
    return {round((i + 1) * rounds / k) - 1 for i in range(k)}


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="self-test: alter the first output before it is checked")
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "trivalent" / "__init__.py").is_file():
        print(f"error: no program source at {src}/trivalent", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    w = WORKLOADS[args.workload]()
    rounds = max(1, round(args.seconds / w.ROUND_S))
    rounds = min(rounds, getattr(w, "MAX_ROUNDS", rounds))

    setup = []
    for _ in range(1 if args.trace else SETUP_BEFORE):
        P, state, seconds = set_up(w)
        setup.append(seconds)
    if Path(P.trivalent.__file__).resolve().parent != (src / "trivalent").resolve():
        print(f"error: imported trivalent from {P.trivalent.__file__}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        t0 = perf_counter()
        inputs = w.generate(P, state, random.Random(f"{w.name}/{args.seed}"),
                            rounds, workdir)
        generate_s = perf_counter() - t0

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            state = w.construct(P)

        ops, outputs, durations, spans, round_s = [], [], [], [], []
        setup_after = set() if tracer else rounds_followed_by_setup(len(inputs))
        rss_before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # the inputs and everything else made so far are kept out of the
        # collector's passes, which then cost what the program's objects cost
        gc.collect()
        gc.freeze()
        phase0 = perf_counter()
        for r, round_ops in enumerate(inputs):
            r0 = perf_counter()
            for op in round_ops:
                t0 = perf_counter()
                try:
                    out = w.run(P, state, op)
                except (Exception, SystemExit) as exc:  # raised: the operation failed
                    out = exc
                t1 = perf_counter()
                ops.append(op)
                outputs.append(out)
                durations.append(t1 - t0)
                if tracer:
                    spans.append({"workload": w.name, "round": r, "op": len(spans),
                                  "start_s": t0 - phase0, "end_s": t1 - phase0})
            round_s.append(perf_counter() - r0)
            if r in setup_after:
                setup.append(setup_between(w))
            if perf_counter() - started > DEADLINE_S:
                print(f"error: past {DEADLINE_S} s after {r + 1} of {len(inputs)} rounds",
                      file=sys.stderr)
                return 2
        gc.unfreeze()
        # the rounds only: set-up timed between them is not part of it
        solve_s = sum(round_s)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()

        if args.corrupt:
            outputs[0] = w.corrupt(ops[0], outputs[0])
        t0 = perf_counter()
        failed = 0
        wrong = 0
        for op, out in zip(ops, outputs):
            if isinstance(out, (Exception, SystemExit)):
                failed += 1
                print(f"failed: {type(out).__name__}: {out}", file=sys.stderr)
            elif not w.check(op, out):
                failed += 1
                wrong += 1
        control_errors = w.controls(P)
        for msg in control_errors:
            print(f"control failed: {msg}", file=sys.stderr)
        correct = wrong == 0 and not control_errors
        check_s = perf_counter() - t0

        n = len(durations)
        beyond = round(n * (100 - w.TAIL) / 100, 6)
        if beyond < 10:
            print(f"warning: only {beyond:.1f} of {n} samples beyond p{w.TAIL}",
                  file=sys.stderr)
        if tracer:
            metrics = tracer.metrics()
        else:
            metrics = {
                "solve_s": {"value": solve_s, "unit": "s"},
                "op_p50_ms": {"value": percentile(durations, 50) * 1e3, "unit": "ms"},
                "op_tail_ms": {"value": percentile(durations, w.TAIL) * 1e3, "unit": "ms"},
                "setup_s": {"value": float(np.median(setup)), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        result = {"correct": correct, "attempted": len(ops), "failed": failed,
                  "metrics": metrics}
        record = dict(result, workload=w.name, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, rounds=rounds, tail_percentile=w.TAIL,
                      solve_s=solve_s, round_s=round_s, setup_samples_s=setup,
                      rss_before_solve_mb=rss_before_mb,
                      generate_s=generate_s, check_s=check_s, inputs=w.describe(inputs))
        if hasattr(w, "nonzero_share"):
            record["nonzero_share"] = w.nonzero_share(inputs[0])
        if tracer:
            record["layers"] = tracer.table()
            record["spans"] = spans
        name = f"{w.name}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(record))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
