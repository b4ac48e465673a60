"""Reference computations made apart from the program under test.

Nothing here calls into `trivalent`: a diagram is read only through its
raw fields (`vertices`, `legs`, `partner`, `loop_count`), values come
from `numpy.einsum` on a memory-limited greedy plan, and ranks from Gaussian
elimination over the integers.
"""

from __future__ import annotations

import math

import numpy as np

#: einsum plans greedily, with no intermediate above 2^20 entries (a bare
#: greedy plan can build intermediates of hundreds of MB and stall)
EINSUM_OPTIMIZE = ("greedy", 1 << 20)


def _network(entries, vertices, legs, partner):
    """einsum operands in sublist form, and the output sublist (one index per leg)."""
    n = entries.shape[0]
    leg_of = {x: i for i, x in enumerate(legs)}
    index = {}
    operands = []
    out = [None] * len(legs)
    fresh = 0
    for x in range(len(partner)):
        if x in index:
            continue
        y = partner[x]
        if x in leg_of and y in leg_of:
            # an edge joining two legs is a Kronecker delta between them
            a, b = fresh, fresh + 1
            fresh += 2
            operands.append((np.eye(n, dtype=entries.dtype), [a, b]))
            out[leg_of[x]], out[leg_of[y]] = a, b
            index[x], index[y] = a, b
            continue
        index[x] = index[y] = fresh
        for z in (x, y):
            if z in leg_of:
                out[leg_of[z]] = fresh
        fresh += 1
    if fresh > 52:
        raise ValueError(f"{fresh} indices exceed einsum's 52")
    for tri in vertices:
        operands.append((entries, [index[x] for x in tri]))
    return operands, out


def _einsum_args(entries, d):
    operands, out = _network(entries, d.vertices, d.legs, d.partner)
    args = []
    for arr, sub in operands:
        args += [arr, sub]
    args.append(out)
    return args


def contract(entries, d):
    """Open evaluation of diagram `d` with the cubic tensor `entries`.

    Returns an array indexed by leg labels 1..k in order (a 0-d array
    for a closed diagram), times dim ** loop_count.  An integer tensor
    given as an object array is contracted exactly in int64: every
    partial sum is at most max|entry| ** |V| * dim ** |E|, which is
    checked against 2 ** 63 first.
    """
    n = entries.shape[0]
    exact = entries.dtype == object
    if exact:
        top = max((abs(int(x)) for x in entries.flat), default=0)
        if top ** len(d.vertices) * n ** (len(d.partner) // 2) >= 2 ** 63:
            raise OverflowError("int64 contraction could overflow")
        entries = entries.astype(np.int64)
    args = _einsum_args(entries, d)
    if len(args) > 1:
        value = np.asarray(np.einsum(*args, optimize=EINSUM_OPTIMIZE))
    else:
        value = np.ones((), dtype=entries.dtype)
    if exact:
        value = value.astype(object)
    return np.asarray(value * n ** d.loop_count, dtype=value.dtype)


def closed_value_and_scale(entries, d, need_scale=lambda value: True):
    """(value, the same contraction on |entries|) for a closed diagram with vertices.

    The scale bounds |value| and every partial sum, so the rounding error
    of a correct float contraction is at most a small multiple of 1.1e-16
    times it.  It is None when `need_scale(value)` is false.
    """
    args = _einsum_args(entries, d)
    n = entries.shape[0]
    value = complex(np.einsum(*args, optimize=EINSUM_OPTIMIZE)) * n ** d.loop_count
    if not need_scale(value):
        return value, None
    abs_args = [np.abs(a) if isinstance(a, np.ndarray) else a for a in args]
    scale = float(np.real(np.einsum(*abs_args, optimize=EINSUM_OPTIMIZE)))
    return value, scale * n ** d.loop_count


def prefix_ranks(rows):
    """ranks[m] = rank over Q of the first m integer rows, by exact elimination."""
    basis = []  # (pivot column, row); each row is zero at earlier pivots
    ranks = [0]
    for row in rows:
        row = [int(x) for x in row]
        for col, b in basis:
            if row[col]:
                p, q = b[col], row[col]
                row = [p * x - q * y for x, y in zip(row, b)]
                g = math.gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
        col = next((i for i, x in enumerate(row) if x), None)
        if col is not None:
            basis.append((col, row))
        ranks.append(len(basis))
    return ranks


def falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def has_self_loop(d) -> bool:
    vof = {x: v for v, tri in enumerate(d.vertices) for x in tri}
    return any(vof.get(x, -1) == vof.get(y, -2) for x, y in enumerate(d.partner))


def connected_and_bridgeless(d) -> bool:
    """True if the closed diagram's multigraph is connected with no bridge."""
    nv = len(d.vertices)
    vof = {x: v for v, tri in enumerate(d.vertices) for x in tri}
    adj = [[] for _ in range(nv)]
    for x, y in enumerate(d.partner):
        if x < y:
            adj[vof[x]].append((vof[y], x))
            adj[vof[y]].append((vof[x], x))
    disc = [-1] * nv
    low = [0] * nv
    bridge = False
    # iterative DFS carrying the edge used to enter each vertex
    stack = [(0, -1, iter(adj[0]))]
    disc[0] = low[0] = 0
    clock = 1
    while stack:
        u, via, it = stack[-1]
        step = next(it, None)
        if step is None:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[u])
                if low[u] > disc[parent]:
                    bridge = True
            continue
        w, edge = step
        if edge == via:
            continue
        if disc[w] < 0:
            disc[w] = low[w] = clock
            clock += 1
            stack.append((w, edge, iter(adj[w])))
        else:
            low[u] = min(low[u], disc[w])
    return min(disc) >= 0 and not bridge
