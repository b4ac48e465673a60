"""The three workloads: inputs made from a seed, one operation, its check.

Each workload has the same shape:

- `construct(P)`: the program's own set-up before the first operation
  (timed as part of `setup_s` together with importing the package);
- `generate(P, state, rng, rounds, workdir)`: the inputs, one list of
  operations per round; every round has the same make-up;
- `run(P, state, op)`: one operation, the only code that is timed;
- `check(op, out)`: True when the output is right, judged by a
  computation made apart from the program (`reference`) or by a property
  the method must have;
- `controls(P)`: checks outside the timed phase that a program which
  always answered the same would fail;
- `corrupt(op, out)`: a wrong version of an output, used by the self-test.

`P` holds the freshly imported `trivalent` modules.  The benchmark calls
the program only through module attributes, so the tracing wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import numpy as np

import reference as ref


def _random_matching(rng, m):
    slots = list(range(m))
    rng.shuffle(slots)
    return [(slots[i], slots[i + 1]) for i in range(0, m, 2)]


def random_diagram(P, rng, v, k):
    """Uniform random matching on 3v vertex slots plus k leg slots."""
    m = 3 * v + k
    return P.diagrams.FixedDiagram(
        vertices=[(3 * i, 3 * i + 1, 3 * i + 2) for i in range(v)],
        legs=list(range(3 * v, m)),
        edges=_random_matching(rng, m))


def distinct_sample(P, make, count, seen, what):
    """`count` diagrams from `make()` whose canonical codes are not in `seen`."""
    out = []
    for _ in range(500 * count):
        if len(out) == count:
            return out
        d = make()
        if d is None:
            continue
        code = P.diagrams.canonical_form(d)
        if code not in seen:
            seen.add(code)
            out.append(d)
    raise RuntimeError(f"could not draw {count} distinct {what}")


# ---------------------------------------------------------------------------

class DeltaSO4:
    """Signed permutation sums at k = 7 on so(4) (dim 6), one per 14-legged h."""

    name = "delta-so4-k7"
    K = 7
    #: random h per round, by vertex count (3v + 14 must be even).  Most are
    #: 4-vertex, so the median operation falls inside that group, not on
    #: the edge between two groups of different cost.
    STRATA = ((0, 1), (2, 2), (4, 7))
    ROUND_S = 6.0
    TAIL = 80

    def construct(self, P):
        return P.evaluation.TensorBacked(P.algebras.so_n_rational(4))

    def generate(self, P, state, rng, rounds, workdir):
        seen = set()
        out = []
        for _ in range(rounds):
            ops = [P.diagrams.identity_pairing(self.K)]
            for v, count in self.STRATA:
                ops += distinct_sample(
                    P, lambda: random_diagram(P, rng, v, 2 * self.K), count, seen,
                    f"14-legged diagrams with {v} vertices")
            out.append(ops)
        return out

    def run(self, P, f, h):
        return P.relations.delta_sum(f, self.K, h)

    def check(self, h, out):
        # k = dim + 1: every signed sum vanishes exactly
        return type(out) is Fraction and out == 0

    def controls(self, P):
        """Sums that must not vanish: falling factorials and 3! on so(3)."""
        bad = []
        for n in range(1, 5):
            f = P.evaluation.TensorBacked(P.algebras.abelian(n))
            for k in range(1, 6):
                got = P.relations.delta_sum(f, k, P.diagrams.identity_pairing(k))
                if got != ref.falling(n, k):
                    bad.append(f"abelian({n}) k={k}: {got} != {ref.falling(n, k)}")
        f = P.evaluation.TensorBacked(P.algebras.so3_eps())
        got = P.relations.delta_sum(f, 3, P.diagrams.identity_pairing(3))
        if got != 6:
            bad.append(f"so(3) k=3: {got} != 6")
        return bad

    def corrupt(self, h, out):
        return out + 1

    def describe(self, rounds):
        return [{"vertices": len(h.vertices), "legs": len(h.legs)} for h in rounds[0]]


# ---------------------------------------------------------------------------

class ContractComplex:
    """Closed partition functions of complex sl(3) (dim 8), one per diagram."""

    name = "contract-complex"
    #: diagrams per round by vertex count; no diagram repeats within a run.
    #: 18,000 draws found only 430 distinct ones with 8 vertices and 7,903
    #: with 10, against 18,090 with 12, so most have 12.
    STRATA = ((10, 100), (12, 400))
    ROUND_S = 1.875
    TAIL = 99.8
    #: theta on sl(n) with the trace form: the trace of the Killing form, 2n(n^2 - 1)
    THETA = 48
    #: the scale bounds every partial sum of the contraction, so its rounding
    #: error is a few unit roundoffs (1.1e-16) times it; this allows about 100
    SCALE_TOL = 1e-14

    def construct(self, P):
        return P.algebras.sl_n_trace(3)

    def generate(self, P, state, rng, rounds, workdir):
        def draw(v):
            d = random_diagram(P, rng, v, 0)
            if ref.has_self_loop(d) or not ref.connected_and_bridgeless(d):
                return None
            return d

        self._entries = np.asarray(state.entries, dtype=complex)
        seen = set()
        out = []
        for _ in range(rounds):
            ops = []
            for v, count in self.STRATA:
                ops += distinct_sample(P, lambda: draw(v), count, seen,
                                       f"bridgeless closed diagrams with {v} vertices")
            out.append(ops)
        return out

    def run(self, P, c, g):
        return P.evaluation.partition_function(c, g)

    def check(self, g, out):
        if not isinstance(out, complex):
            return False
        # within 1e-9 of |want|, or, near a cancellation, within the
        # rounding error the scale allows
        want, scale = ref.closed_value_and_scale(
            self._entries, g, lambda want: abs(out - want) > 1e-9 * max(abs(want), 1.0))
        return scale is None or abs(out - want) <= self.SCALE_TOL * scale

    def controls(self, P):
        theta = P.diagrams.theta()
        got = complex(ref.contract(self._entries, theta)[()])
        bad = []
        if abs(got - self.THETA) > 1e-9 * self.THETA:
            bad.append(f"einsum theta on sl(3) = {got}, expected {self.THETA}")
        e = self._entries
        if np.max(np.abs(e + e.transpose(1, 0, 2))) > 1e-9:
            bad.append("sl(3) structure tensor is not antisymmetric")
        return bad

    def corrupt(self, g, out):
        # a hundred times both tolerances
        want, scale = ref.closed_value_and_scale(self._entries, g)
        return out + 100 * max(self.SCALE_TOL * scale, 1e-9 * abs(want), 1e-9)

    def nonzero_share(self, ops):
        nz = 0
        for g in ops:
            value, scale = ref.closed_value_and_scale(self._entries, g)
            nz += abs(value) > self.SCALE_TOL * scale
        return nz / len(ops)

    def describe(self, rounds):
        return [{"vertices": len(g.vertices)} for g in rounds[0]]


# ---------------------------------------------------------------------------

def levi_civita():
    eps = np.zeros((3, 3, 3), dtype=object)
    for (i, j, k), s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                         ((1, 0, 2), -1), ((2, 1, 0), -1), ((0, 2, 1), -1)):
        eps[i, j, k] = s
    return eps


def random_cyclic(rng, n):
    """Integer cyclic-invariant tensor raw + rotations; the program gets half of it."""
    raw = np.array([rng.randint(-3, 3) for _ in range(n ** 3)], dtype=object)
    raw = raw.reshape(n, n, n)
    return raw + raw.transpose(1, 2, 0) + raw.transpose(2, 0, 1)


def tensor_json(ent2):
    """Tensor JSON of ent2 / 2 (rational, not Lie)."""
    entries = []
    for (i, j, k), v in np.ndenumerate(ent2):
        if v:
            q = Fraction(int(v), 2)
            entries.append([i, j, k, q.numerator, q.denominator])
    return {"dim": ent2.shape[0], "backend": "rational", "lie": False,
            "entries": entries}


class RankCli:
    """`trivalent rank --json` command lines run in process through `cli.main`."""

    name = "rank-cli"
    #: (weights, legs, max vertices, corpus cap).  The cap of a named or table
    #: system shrinks by one each round and abelian:N cycles N, so that no
    #: command line repeats within a run; random tensors are new every round.
    FAMILIES = (
        ("so3", 3, 3, 34),
        ("so3", 4, 2, 40),
        ("so3", 2, 4, 50),
        ("abelian", 0, 4, 20),
        ("abelian", 4, 2, 36),
        ("random4", 1, 3, 9),
        ("random5", 1, 3, 9),
        ("random6", 1, 3, 9),
        ("random5", 2, 3, 9),
        ("random6", 2, 3, 9),
        ("random5", 0, 4, 20),
        ("random3", 3, 3, 30),
        ("table", 3, 3, 30),
        ("table", 4, 2, 36),
        ("table", 2, 4, 28),
    )
    #: corpus sizes of enumerate_fixed_diagrams(legs, max_vertices)
    CORPUS_SIZE = {(3, 3): 80, (4, 2): 62, (0, 4): 20, (2, 4): 101, (1, 3): 9, (2, 3): 9}
    MAX_ROUNDS = 16
    ROUND_S = 3.75
    TAIL = 90

    def construct(self, P):
        return None

    def _table(self, P, corpus, m0, path):
        eps = levi_civita()
        items = list(corpus)[:m0]
        values = {}
        for g in items:
            for h in items:
                for comp in P.diagrams.components(P.diagrams.glue(g, h)):
                    if comp.vertices:
                        code = P.diagrams.canonical_form(comp).hex()
                        if code not in values:
                            values[code] = int(ref.contract(eps, comp)[()])
        table = {"backend": "rational", "loop_value": 3,
                 "entries": [{"code": c, "value": v} for c, v in sorted(values.items())]}
        path.write_text(json.dumps(table))

    def generate(self, P, state, rng, rounds, workdir):
        corpora = {}
        for _, legs, maxv, _ in self.FAMILIES:
            if (legs, maxv) not in corpora:
                corpora[(legs, maxv)] = list(
                    P.enumeration.enumerate_fixed_diagrams(legs, maxv))
        self._corpora = corpora
        tables = {}
        for kind, legs, maxv, m0 in self.FAMILIES:
            if kind == "table":
                path = workdir / f"table-l{legs}-v{maxv}.json"
                self._table(P, corpora[(legs, maxv)], m0, path)
                tables[(legs, maxv)] = path
        out = []
        for r in range(rounds):
            ops = []
            for i, (kind, legs, maxv, m0) in enumerate(self.FAMILIES):
                if kind == "so3" or kind == "table":
                    tensor = levi_civita()
                    spec = "so3" if kind == "so3" else str(tables[(legs, maxv)])
                elif kind == "abelian":
                    n = 2 + r % 3
                    tensor = np.zeros((n, n, n), dtype=object)
                    spec = f"abelian:{n}"
                else:
                    tensor = random_cyclic(rng, int(kind[-1]))
                    path = workdir / f"tensor-r{r}-f{i}.json"
                    path.write_text(json.dumps(tensor_json(tensor)))
                    spec = str(path)
                cap = m0 if kind.startswith("random") else m0 - r
                argv = ["rank", "--weights", spec, "--legs", str(legs),
                        "--max-vertices", str(maxv), "--max-corpus", str(cap), "--json"]
                ops.append({"argv": argv, "tensor": tensor, "legs": legs,
                            "corpus": (legs, maxv), "cap": cap, "kind": kind})
            out.append(ops)
        self._ranks = {}
        return out

    def run(self, P, state, op):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = P.cli.main(op["argv"])
        return code, stdout.getvalue()

    def expected_rank(self, op):
        """rank(A), rows of A the open evaluations (M = A A^T for real tensors)."""
        tensor = op["tensor"]
        key = (tensor.shape, tuple(tensor.flat), op["corpus"])
        if key not in self._ranks:
            rows = [ref.contract(tensor, g).reshape(-1)
                    for g in self._corpora[op["corpus"]]]
            self._ranks[key] = ref.prefix_ranks(rows)
        return self._ranks[key][min(op["cap"], len(self._ranks[key]) - 1)]

    def check(self, op, out):
        code, stdout = out
        if code != 0:
            return False
        try:
            report = json.loads(stdout.strip().splitlines()[-1])
            params = report["params"]
        except (ValueError, IndexError, KeyError, TypeError):
            return False
        n = op["tensor"].shape[0]
        bound = n ** op["legs"]
        size = min(op["cap"], self.CORPUS_SIZE[op["corpus"]])
        return (report.get("check") == "rank" and report.get("pass") is True
                and params.get("legs") == op["legs"] and params.get("corpus") == size
                and params.get("bound") == bound and params.get("rank", -1) <= bound
                and params["rank"] == self.expected_rank(op))

    def controls(self, P):
        return []

    def corrupt(self, op, out):
        code, stdout = out
        report = json.loads(stdout)
        report["params"]["rank"] += 1
        return code, json.dumps(report)

    def describe(self, rounds):
        return [{"kind": op["kind"], "legs": op["legs"],
                 "max_vertices": op["corpus"][1], "cap": op["cap"]} for op in rounds[0]]


WORKLOADS = {w.name: w for w in (DeltaSO4, ContractComplex, RankCli)}
