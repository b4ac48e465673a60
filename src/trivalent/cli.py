"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 a check failed, 2 usage or IO
error (negative counts such as `--legs -1` or `--corpus random:-3`,
algebra specs such as `so:-2` or `so:x`, and malformed input files
included), 3 an internal error, reported with its traceback.  Human-readable
messages go to stderr; with --json the machine report goes to stdout.
Every command that uses randomness requires an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from . import algebras, diagrams, enumeration, relations
from .algebras import RATIONAL, StructureTensor, _integer
from .errors import TrivalentError
from .evaluation import TableBacked, TensorBacked, partition_function

BUILTIN_GRAPHS = {
    "builtin:theta": diagrams.theta,
    "builtin:k4": diagrams.k4,
    "builtin:loop": diagrams.vertexless_loop,
}


def load_algebra(spec: str) -> StructureTensor:
    if spec == "so3":
        return algebras.so3_eps()
    if spec == "sl2k":
        return algebras.sl2_killing()
    if ":" in spec:
        name, _, arg = spec.partition(":")
        if name in ("abelian", "so", "sl", "gl"):
            if not arg.removeprefix("-").isdecimal():
                raise TrivalentError(f"algebra {spec!r}: N must be an integer")
            n = int(arg)
            low = 1 if name == "sl" else 0  # sl(N) has dimension N^2 - 1
            if n < low:
                raise TrivalentError(f"algebra {spec!r}: N must be at least {low}")
            return {"abelian": algebras.abelian,
                    "so": algebras.so_n_rational,
                    "sl": algebras.sl_n_trace,
                    "gl": algebras.gl_n_trace}[name](n)
    return _load_json(spec, algebras.tensor_from_json_dict)


def load_graph(spec: str) -> diagrams.FixedDiagram:
    if spec in BUILTIN_GRAPHS:
        return BUILTIN_GRAPHS[spec]()
    return _load_json(spec, diagrams.from_json_dict)


def load_weights(spec: str):
    path = Path(spec)
    if path.suffix == ".json" and path.exists():
        return _load_json(path, _weights_from_json_dict)
    return TensorBacked(load_algebra(spec))


def _load_json(path, parse):
    """parse(the JSON object in a file); malformed input is a usage error."""
    try:
        obj = json.loads(Path(path).read_text())
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, not {type(obj).__name__}")
        return parse(obj)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:  # bad JSON: ValueError
        raise TrivalentError(f"{path}: {exc!r}") from exc


def _weights_from_json_dict(obj):
    if "loop_value" not in obj:
        return TensorBacked(algebras.tensor_from_json_dict(obj))
    algebras._check_keys(obj, "table")
    backend = obj.get("backend", RATIONAL)
    for ent in obj["entries"]:
        algebras._check_keys(ent, "table", "entries")
    table = {bytes.fromhex(ent["code"]): _parse_value(ent["value"], backend)
             for ent in obj["entries"]}
    return TableBacked(_parse_value(obj["loop_value"], backend), table, backend)


def _parse_value(v, backend):
    if isinstance(v, list):
        if len(v) != 2:
            raise ValueError(f"value {v!r} is not a pair of two numbers")
        if backend == RATIONAL:
            return Fraction(_integer(v[0]), _integer(v[1]))
        return complex(v[0], v[1])
    return Fraction(v) if backend == RATIONAL else complex(v)


def format_scalar(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return f"{x.real:.12g} {x.imag:.12g}"
    return repr(x)


def _json_safe(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def _emit(obj, text, args):
    """Print `obj` as JSON with --json, else `text`."""
    print(json.dumps(_json_safe(obj)) if args.json else text)


def _report_line(report):
    status = "pass" if report["pass"] else "FAIL"
    return f"{report['check']}: residual {format_scalar(report['residual'])} ({status})"


def _emit_report(report, args):
    _emit(report, _report_line(report), args)
    return 0 if report["pass"] else 1


def cmd_eval(args):
    c = load_algebra(args.algebra)
    g = load_graph(args.graph)
    val = partition_function(c, g)
    _emit({"value": val}, format_scalar(val), args)
    return 0


def cmd_check(args):
    c = load_algebra(args.algebra)
    run_all = args.all or not (args.jacobi or args.as_check or args.ihx)
    tol = args.tol if args.tol is not None else (0 if c.backend == RATIONAL else algebras.TOL)
    reports = []
    if args.jacobi or run_all:
        reports.append(("jacobi", algebras.jacobi_check(c)))
    if args.as_check or run_all:
        reports.append(("as", relations.as_residual(c)))
    if args.ihx or run_all:
        reports.append(("ihx", relations.ihx_residual(c)))
    out = [relations.check_report(name, {"algebra": args.algebra, "dim": c.dim}, residual, tol)
           for name, residual in reports]
    _emit(out, "\n".join(map(_report_line, out)), args)
    return 0 if all(rep["pass"] for rep in out) else 1


def cmd_delta(args):
    f = load_weights(args.algebra)
    k = args.k
    # an explicit --tol is absolute; by default each sum is held to TOL (0 when
    # exact) times the size of the terms that cancel in it
    relative = args.tol is None
    tol = args.tol if not relative else 0 if f.backend == RATIONAL else algebras.TOL
    if args.h == "builtin:pid":
        val, bound, scale = relations.delta_bound(f, k, diagrams.identity_pairing(k), tol, relative)
        params = {"k": k, "h": "builtin:pid", "tol": float(bound), "scale": float(scale)}
        report = relations.check_report("delta", params, abs(val), bound)
        _emit(report, format_scalar(val), args)
        return 0 if report["pass"] else 1
    if args.corpus is None:
        raise TrivalentError("need either --h builtin:pid or --corpus random:<count>")
    if args.seed is None:
        raise TrivalentError("--seed is required with --corpus")
    corpus = enumeration.random_diagram_corpus(2 * k, args.corpus, args.max_vertices,
                                               args.seed)
    hs = list(corpus) + [diagrams.identity_pairing(k)]
    report = relations.delta_check(f, k, hs, tol, args.seed, relative)
    return _emit_report(report, args)


def cmd_rank(args):
    f = load_weights(args.weights)
    loop = f.loop_value
    n = loop.real
    if loop != n or abs(n) == float("inf") or n != int(n) or n < 0:
        raise TrivalentError(f"loop value {loop} is not a nonnegative integer; "
                             "no rank bound applies")
    bound = int(n) ** args.legs
    corpus = enumeration.enumerate_fixed_diagrams(args.legs, args.max_vertices)
    if args.max_corpus is not None:
        corpus = corpus.head(args.max_corpus)
    r = relations.rank(relations.connection_matrix(f, corpus))
    report = relations.check_report("rank", {"legs": args.legs, "corpus": len(corpus),
                                             "rank": r, "bound": bound}, max(0, r - bound), 0)
    _emit(report, f"rank {r} bound {bound} ({'pass' if report['pass'] else 'FAIL'})", args)
    return 0 if report["pass"] else 1


def cmd_gen(args):
    c = load_algebra(args.algebra)
    Path(args.out).write_text(json.dumps(algebras.tensor_to_json_dict(c)))
    return 0


def cmd_enum(args):
    corpus = enumeration.enumerate_fixed_diagrams(args.legs, args.max_vertices)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for i, d in enumerate(corpus):
        name = f"diagram_{i:05d}.json"
        (out / name).write_text(json.dumps(diagrams.to_json_dict(d)))
        files.append(name)
    index = {"legs": args.legs, "max_vertices": args.max_vertices,
             "codes": [c.hex() for c in corpus.codes], "files": files}
    (out / "index.json").write_text(json.dumps(index))
    _emit({"count": len(files), "dir": str(out)}, f"wrote {len(files)} diagrams to {out}", args)
    return 0


def cmd_canon(args):
    g = load_graph(args.graph)
    code = diagrams.canonical_form(g).hex()
    _emit({"code": code}, code, args)
    return 0


def _at_least(low):
    """argparse type: an integer no smaller than `low`."""
    def count(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return int(text)
    return count


def _random_corpus(text):
    """argparse type: `random:<count>`, the count at least 0."""
    kind, _, count = text.partition(":")
    if kind != "random":
        raise argparse.ArgumentTypeError(f"unknown corpus spec {text!r}")
    return _at_least(0)(count)


def build_parser():
    p = argparse.ArgumentParser(prog="trivalent",
                                description="Weight systems on trivalent diagrams")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("eval", help="evaluate a partition function on a diagram")
    q.add_argument("--algebra", required=True)
    q.add_argument("--graph", required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_eval)

    q = sub.add_parser("check", help="residuals of the defining relations")
    q.add_argument("--algebra", required=True)
    q.add_argument("--jacobi", action="store_true")
    q.add_argument("--as", dest="as_check", action="store_true")
    q.add_argument("--ihx", action="store_true")
    q.add_argument("--all", action="store_true")
    q.add_argument("--tol", type=float, default=None)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_check)

    q = sub.add_parser("delta", help="signed permutation-sum check")
    q.add_argument("--algebra", required=True)
    q.add_argument("--k", type=_at_least(0), required=True)
    q.add_argument("--h", choices=["builtin:pid"], default=None)
    q.add_argument("--corpus", type=_random_corpus, default=None, help="random:<count>")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--max-vertices", type=_at_least(0), default=4)
    q.add_argument("--tol", type=float, default=None)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_delta)

    q = sub.add_parser("rank", help="connection-matrix rank against the bound")
    q.add_argument("--weights", required=True, help="algebra name or table.json")
    q.add_argument("--legs", type=_at_least(0), required=True)
    q.add_argument("--max-vertices", type=_at_least(0), required=True)
    q.add_argument("--max-corpus", type=_at_least(1), default=None,
                   help="cap the corpus to its first N diagrams")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_rank)

    q = sub.add_parser("gen", help="write a named generator as tensor JSON")
    q.add_argument("--algebra", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_gen)

    q = sub.add_parser("enum", help="enumerate diagrams into a directory")
    q.add_argument("--legs", type=_at_least(0), required=True)
    q.add_argument("--max-vertices", type=_at_least(0), required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_enum)

    q = sub.add_parser("canon", help="canonical code of a diagram")
    q.add_argument("--graph", required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_canon)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrivalentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not a usage error
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
