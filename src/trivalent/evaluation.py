"""Partition functions of structure tensors on trivalent diagrams.

The closed value on a 0-legged diagram is the sum over edge colorings of
the product, over vertices, of the tensor read along the vertex's cyclic
order; every vertexless loop contributes a factor of the dimension.  The
open variant on a k-legged diagram keeps the leg edges uncolored and
returns the rank-k tensor indexed in leg-label order.

Evaluation contracts the diagram as a tensor network.  `plan` reads its
shape alone and merges node pairs greedily, fewest open indices first,
trying random tie-breaks too when that order would cost many multiplies.
`execute` runs a plan with `tensordot` on the scaled form s*c (values on V
vertices are s**V times c's: D*c in Python ints, or a complex c real up to
one phase in float64) unless its peak intermediate exceeds MAX_ENTRIES.
`_scaled_open` is the one step from a contraction to a value: open and
closed values divide it by s**V, connection-matrix rows scale it to s**Vmax.
The literal coloring sum `open_brute_force` (closed: `brute_force_oracle`)
stays apart from the planner so each checks the other.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import algebras
from .algebras import RATIONAL, StructureTensor
from .diagrams import (
    FixedDiagram,
    _component_items,
    _extract_component,
    _leg_label_map,
    _pack,
    glue,
    require_no_legs,
)
from .errors import BackendMismatch, DanglingAxes, LegCountMismatch, TableMiss, TooLarge

#: no intermediate of more entries is allocated; over it, `TooLarge`
MAX_ENTRIES = 2 ** 24
#: a plan costing this many multiplies or more is also tried with RESTARTS random ties
RESTART_MULTS, RESTARTS = 10 ** 7, 8
#: the coloring-sum oracle refuses a diagram with more colorings than this
ORACLE_COLORINGS = 10 ** 7


@dataclass
class DenseTensor:
    """Dense rank-k tensor in its backend's dtype, axes in leg-label order."""

    dim: int
    rank: int
    entries: np.ndarray
    backend: str

    def __post_init__(self):
        self.entries = np.asarray(self.entries, algebras._dtype(self.backend))

    def item(self):
        return algebras.as_scalar(self.entries.item(), self.backend)

    def bilinear_dot(self, other: "DenseTensor"):
        """Non-conjugated entrywise dot (the pairing both sides of the
        gluing identity use)."""
        if self.rank != other.rank:
            raise LegCountMismatch(f"rank {self.rank} vs {other.rank}")
        return algebras.as_scalar(np.sum(self.entries * other.entries), self.backend)


def _edge_ids(g: FixedDiagram):
    """dart -> edge id, edges numbered in .edges() order."""
    eid = [-1] * g.num_darts
    for i, (a, b) in enumerate(g.edges()):
        eid[a] = eid[b] = i
    return eid


class Plan(NamedTuple):
    """A contraction order read from a diagram's shape, valid for any tensor.

    Nodes are vertex v's tensor (traced over the axis pair `traces[v]` at a
    loop edge), then `eyes` identities for leg-to-leg edges.  Step (i, j,
    pos_i, pos_j) contracts nodes i and j over those axes (an outer product
    when empty) into the next node, of rank `ranks[step]`; `perm` orders
    the last node's axes by leg label.
    """

    traces: tuple
    eyes: int
    steps: tuple
    ranks: tuple
    perm: tuple

    @property
    def peak(self):
        """Largest intermediate rank: it holds dim**peak entries."""
        return max(self.ranks, default=0)

    def mults(self, dim):
        """Scalar multiplies `execute` makes at this dimension."""
        return sum(dim ** (r + len(s[2])) for r, s in zip(self.ranks, self.steps))


def plan(g: FixedDiagram, rng=None) -> Plan:
    """Greedy plan read from `g`'s shape alone: merge the two nodes sharing
    an edge whose result has the fewest open indices, ties to the lowest
    edge id or, given a `random.Random`, at random; join what is left by
    outer products.  Open axes other than the legs raise `DanglingAxes`."""
    eid, lab = _edge_ids(g), _leg_label_map(g)
    nodes, traces = [], []
    for tri in g.vertices:
        axes = [-lab[g.partner[x]] if lab[g.partner[x]] else eid[x] for x in tri]
        tr = next(((i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if axes[i] == axes[j]), None)
        traces.append(tr)
        nodes.append([a for t, a in enumerate(axes) if tr is None or t not in tr])
    eyes = [[-lab[a], -lab[b]] for a, b in g.edges() if lab[a] and lab[b]]
    nodes += eyes
    adj, seen = [{} for _ in nodes], {}         # node -> {neighbour: shared edges}
    for n, axes in enumerate(nodes):
        for a in axes:
            if a in seen:
                adj[n][seen[a]] = adj[seen[a]].setdefault(n, [])
                adj[n][seen[a]].append(a)
            seen[a] = n
    tie = (lambda shared: rng.random()) if rng else min
    # a pair's cost is fixed while both nodes live, so stale entries are skipped
    heap = [(len(nodes[i]) + len(nodes[j]) - 2 * len(sh), tie(sh), i, j)
            for i in range(len(nodes)) for j, sh in adj[i].items() if i < j]
    heapq.heapify(heap)
    steps, ranks = [], []

    def merge(i, j, shared):
        ai, aj, n = nodes[i], nodes[j], len(nodes)
        new = [a for a in ai + aj if a not in shared]
        steps.append((i, j, tuple(map(ai.index, shared)), tuple(map(aj.index, shared))))
        ranks.append(len(new))
        nodes[i] = nodes[j] = None
        nodes.append(new)
        adj.append({})
        for m, sh in itertools.chain(adj[i].items(), adj[j].items()):
            if nodes[m] is not None:
                adj[n].setdefault(m, []).extend(sh)
        for m, sh in adj[n].items():
            adj[m][n] = sh
            heapq.heappush(heap, (len(nodes[m]) + len(new) - 2 * len(sh), tie(sh), m, n))

    while heap:
        *_, i, j = heapq.heappop(heap)
        if nodes[i] is not None and nodes[j] is not None:
            merge(i, j, adj[i][j])
    rest = sorted((n for n, ax in enumerate(nodes) if ax is not None),
                  key=lambda n: -len(nodes[n]))
    while len(rest) > 1:
        merge(rest.pop(), rest.pop(), [])
        rest.append(len(nodes) - 1)
    out = nodes[rest[0]] if rest else []
    if sorted(out) != list(range(-g.num_legs, 0)):
        raise DanglingAxes(f"contraction leaves axes {out}, not the {g.num_legs} legs")
    return Plan(tuple(traces), len(eyes), tuple(steps), tuple(ranks),
                tuple(out.index(-k) for k in range(1, g.num_legs + 1)))


def _plan_for(g: FixedDiagram, dim):
    """`plan(g)`, or if that costs RESTART_MULTS multiplies or more at this
    dimension, the cheapest of it and RESTARTS passes with random ties."""
    p = plan(g)
    if p.mults(dim) >= RESTART_MULTS:
        p = min([p] + [plan(g, random.Random(s)) for s in range(RESTARTS)],
                key=lambda q: q.mults(dim))
    return p


def execute(c: StructureTensor, p: Plan):
    """Run plan `p` on `c.scaled`, s*c, in its dtype, or raise `TooLarge`
    before allocating anything when an intermediate would exceed MAX_ENTRIES."""
    if c.dim ** p.peak > MAX_ENTRIES:
        raise TooLarge(f"contraction needs {c.dim}^{p.peak} = {c.dim ** p.peak} "
                       f"entries in one intermediate, over the limit of {MAX_ENTRIES}")
    ent = c.scaled[1]
    vals = [ent if t is None else np.trace(ent, axis1=t[0], axis2=t[1]) for t in p.traces]
    vals += [np.eye(c.dim, dtype=ent.dtype) for _ in range(p.eyes)]
    for i, j, pos_i, pos_j in p.steps:
        vals.append(np.tensordot(vals[i], vals[j], axes=(pos_i, pos_j)))
        vals[i] = vals[j] = None
    return vals[-1] if vals else np.ones((), ent.dtype)


def _scaled_open(c: StructureTensor, g: FixedDiagram):
    """s**V times g's open value on V vertices: `execute` on s*c by `_plan_for`,
    axes by leg label, times dim**loops.  Always an array of `c.scaled[1]`'s
    dtype, never the bare scalar a 0-d product gives."""
    p = _plan_for(g, c.dim)
    return np.asarray(np.transpose(execute(c, p), p.perm) * c.dim ** g.loop_count,
                      c.scaled[1].dtype)


def partition_function(c: StructureTensor, g: FixedDiagram):
    """Closed evaluation on a 0-legged diagram: the rank-0 open value."""
    require_no_legs(g)
    return open_partition_function(c, g).item()


def open_partition_function(c: StructureTensor, g: FixedDiagram) -> DenseTensor:
    """Open evaluation on a k-legged diagram: a rank-k tensor, axes by leg label."""
    s = algebras.as_scalar(c.scaled[0], c.backend)
    return DenseTensor(c.dim, g.num_legs, _scaled_open(c, g) / s ** g.num_vertices, c.backend)


def brute_force_oracle(c: StructureTensor, g: FixedDiagram):
    """Closed coloring-sum oracle: the rank-0 value of `open_brute_force`."""
    require_no_legs(g)
    return open_brute_force(c, g).item()


def open_brute_force(c: StructureTensor, g: FixedDiagram) -> DenseTensor:
    """Literal sum over all n^|E| edge colorings, leg edges kept as axes;
    an exact transcription that never calls `plan` or `execute`."""
    n, num_edges = c.dim, g.num_darts // 2
    if n ** num_edges > ORACLE_COLORINGS:
        raise TooLarge(f"{n}^{num_edges} colorings exceed the guard")
    eid, ent = _edge_ids(g), c.entries
    leg_edges = [eid[dart] for dart in g.legs]
    out = algebras.zeros_array((n,) * g.num_legs, c.backend)
    for psi in itertools.product(range(n), repeat=num_edges):
        term = 1
        for a, b, d in g.vertices:
            term = term * ent[psi[eid[a]], psi[eid[b]], psi[eid[d]]]
        out[tuple(psi[e] for e in leg_edges)] += term
    return DenseTensor(n, g.num_legs, out * n ** g.loop_count, c.backend)


def pairing_identity_check(c: StructureTensor, g: FixedDiagram, h: FixedDiagram):
    """|<open(g), open(h)> - closed(g glued with h)| with the bilinear dot."""
    if g.num_legs != h.num_legs:
        raise LegCountMismatch(f"{g.num_legs} vs {h.num_legs} legs")
    lhs = open_partition_function(c, g).bilinear_dot(open_partition_function(c, h))
    rhs = partition_function(c, glue(g, h))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# weight systems
# ---------------------------------------------------------------------------

class TableBacked:
    """Weight system given by a table canonical-code -> value plus the loop value.

    Values are multiplicative over components; a component whose code is
    not in the table goes to `_missing`, which raises `TableMiss` here.
    """

    def __init__(self, loop_value, table, backend=RATIONAL):
        if backend not in (RATIONAL, algebras.COMPLEX):
            raise BackendMismatch(f"unknown backend {backend!r}")
        self.backend = backend
        self.loop_value = algebras.as_scalar(loop_value, backend)
        self.table = {key: algebras.as_scalar(v, backend) for key, v in table.items()}

    def _missing(self, g, darts, key):
        raise TableMiss(key)

    def evaluate(self, g: FixedDiagram):
        require_no_legs(g)
        val = algebras.one(self.backend)
        for code, darts in _component_items(g):
            key = _pack((code,))
            v = self.table.get(key)
            val = val * (self._missing(g, darts, key) if v is None else v)
        if g.loop_count:
            val = val * self.loop_value ** g.loop_count
        return val


class TensorBacked(TableBacked):
    """Weight system f = partition function of a fixed structure tensor:
    a table that fills itself, contracting a component the first time its
    code is met."""

    def __init__(self, tensor: StructureTensor):
        super().__init__(tensor.dim, {}, tensor.backend)
        self.tensor = tensor

    def _missing(self, g, darts, key):
        v = self.table[key] = partition_function(self.tensor, _extract_component(g, darts))
        return v


def evaluate(f, x):
    """Apply a weight system to a diagram or, linearly, to a formal sum.

    Formal sums are lists of (coefficient, diagram) pairs; the empty
    diagram evaluates to 1 by multiplicativity.
    """
    if isinstance(x, FixedDiagram):
        return f.evaluate(x)
    total = algebras.zero(f.backend)
    for coeff, d in x:
        v = f.evaluate(d)
        if coeff != 1:
            v = v * algebras.as_scalar(coeff, f.backend)
        total = total + v
    return total
