"""Deterministic generation of diagram corpora.

A connected component rooted at a dart has no non-trivial automorphism,
and `diagrams._bfs_code` from that root describes it completely.  So each
rooted component is built once, dart by dart in the order its code reads
them: a dart unpaired at its turn joins an unused leg, an unpaired dart
of a vertex already reached, or one fresh vertex.  Legged components are
rooted at their smallest leg's partner, closed ones at dart 0 and kept
only if no other root reads smaller by `diagrams._rival_below`, as in
canonical codes (orderly generation: Read 1978; McKay 1998).  A diagram
is one legged component per block of a set partition of the legs (a
2-block may be a bare edge) plus closed ones, within the vertex budget.
Components come by vertex count; every branch taken ends in a component
or class, counted against `MAX_CLASSES` before any diagram is built, so
a large budget stops at a small vertex count and no code is recomputed.
"""

from __future__ import annotations

import itertools
import math
import random

from .diagrams import DiagramCorpus, _pack, _rival_below, _slots_diagram, canonical_form
from .errors import TooLarge

#: cap on the components generated, and on the classes of one corpus
MAX_CLASSES = 100_000


def double_factorial(m: int) -> int:
    return math.prod(range(m, 1, -2))


def _components(legs, budget, room):
    """Connected components on legs 1..`legs` with 1..`budget` vertices, each
    once and by vertex count, as (vertices, code, (dart, partner) pairs);
    past `room`, TooLarge.  Darts run vertex by vertex in cyclic order; leg l
    is dart -l."""
    out = []
    if budget < 1:
        return out
    partner = [None] * (3 * budget + legs)
    rho = [x + 1 if x % 3 < 2 else x - 2 for x in range(3 * budget)]
    num = [-1] * (3 * budget)
    if legs:
        partner[0], partner[-1] = -1, 0  # the root is the partner of leg 1
    num[0] = 0
    order = [0]
    seq = []

    def step(i, nv, free, left):
        """Pair order[i]; `free` darts of the nv vertices reached are unpaired,
        `left` legs unused.  A fresh vertex adds a free dart, a leg takes one,
        a pair two, so a branch can end with exactly `size` vertices iff free
        >= left - (size - nv) and a dart stays free until the end.  A closed
        component adds no vertex once a root reached beats its code so far."""
        if i == len(order):
            if legs or not any(_rival_below(seq, y, rho, partner) for y in range(1, 3 * nv)):
                if len(out) == room:
                    raise TooLarge(f"more than {MAX_CLASSES} components to enumerate")
                out.append((nv, ("map",) + tuple(seq), tuple(enumerate(partner[:3 * nv]))))
            return
        x = order[i]
        r, p = rho[x], partner[x]
        for t, f, u in [(p, free, left)] if p is not None else [
                (y, free - 2 + (y < 0) + 3 * (y == 3 * nv), left - (y < 0))
                for y in range(-legs, min(3 * nv + 1, 3 * size))
                if y != x and partner[y] is None]:
            m = size - nv - (t == 3 * nv)
            if f < u - m or not (f or u == m == 0):
                continue
            if not legs and t == 3 * nv and any(
                    _rival_below(seq, y, rho, partner) for y in range(1, 3 * nv)):
                continue
            partner[x], partner[t] = t, x
            n = len(order)
            for y in (r, t):
                if y >= 0 and num[y] < 0:
                    num[y] = len(order)
                    order.append(y)
            seq.extend((num[r], t if t < 0 else num[t]))
            step(i + 1, nv + (t == 3 * nv), f, u)
            del seq[-2:]
            for y in order[n:]:
                num[y] = -1
            del order[n:]
            if p is None:
                partner[x] = partner[t] = None

    # the parity of 3 * size + legs is that of the darts, which pair up
    for size in range(max(1, legs - 2), budget + 1):
        if (size + legs) % 2 == 0:
            step(0, 1, 3 - bool(legs), max(legs - 1, 0))
    return out


def enumerate_fixed_diagrams(k: int, max_vertices: int) -> DiagramCorpus:
    """All loop-free diagrams with exactly k legs and at most `max_vertices`
    trivalent vertices, one per isomorphism class, in canonical order."""
    # bare edges, and one tadpole if k is odd, already give this many classes
    if (k % 2 == 0 or max_vertices > 0) and double_factorial(k - 1 - k % 2) > MAX_CLASSES:
        raise TooLarge(f"more than {MAX_CLASSES} diagrams to enumerate")
    # the other k - s legs need (k - s) % 2 vertices at least (bare edges
    # and a tadpole or tripod), so each component kept lies in some class
    comps = {}
    for s in (*range(1, k + 1), 0):
        room = MAX_CLASSES - sum(map(len, comps.values()))
        comps[s] = _components(s, max_vertices - (k - s) % 2, room)
    if k >= 2:
        comps[2].insert(0, (0, ("edge", 1, 2), ((-1, -2),)))
    closed = [c + ((),) for c in comps.pop(0)]
    on_block = {}

    def classes(labels, budget, start):
        """Components on blocks of `labels`, then from closed[start:]; an odd
        number of labels left needs a vertex, so every branch ends in a class."""
        if not labels:
            yield ()
            for i in range(start, len(closed)):
                if closed[i][0] > budget:
                    break
                for rest in classes((), budget - closed[i][0], i):
                    yield (closed[i],) + rest
            return
        for j in range(len(labels)):
            fits = budget - (len(labels) - 1 - j) % 2
            if not comps[j + 1] or comps[j + 1][0][0] > fits:
                continue
            for others in itertools.combinations(labels[1:], j):
                block = labels[:1] + others
                left = tuple(x for x in labels[1:] if x not in others)
                for i, (v, code, pairs) in enumerate(comps[j + 1]):
                    if v > fits:
                        break
                    if (block, i) not in on_block:
                        on_block[block, i] = (v, ("edge",) + block if v == 0 else code[:1] + tuple(
                            x if x >= 0 else -block[-x - 1] for x in code[1:]), pairs, block)
                    for rest in classes(left, budget - v, 0):
                        yield (on_block[block, i],) + rest

    found = {}
    for parts in classes(tuple(range(1, k + 1)), max_vertices, 0):
        if parts:
            if len(found) == MAX_CLASSES:
                raise TooLarge(f"more than {MAX_CLASSES} diagrams to enumerate")
            found[_pack(tuple(sorted(c[1] for c in parts)))] = parts
    return DiagramCorpus.by_code(k, {code: _build(k, parts, code)
                                     for code, parts in found.items()})


def _build(k, parts, code):
    """The representative: vertex darts first, vertex by vertex, then legs."""
    base = 3 * sum(c[0] for c in parts)

    def slot_pairs():
        off = 0
        for v, _, pairs, block in parts:
            for pair in pairs:
                yield tuple(off + y if y >= 0 else base + block[-y - 1] - 1 for y in pair)
            off += 3 * v

    d = _slots_diagram(base // 3, k, slot_pairs())
    d._code = code
    return d


def random_diagram_corpus(k: int, count: int, max_vertices: int, seed: int,
                          min_vertices: int = 0) -> DiagramCorpus:
    """Seeded sample of distinct k-legged diagrams (uniform random matchings
    on a random admissible vertex count).  Deterministic for a fixed seed."""
    rng = random.Random(seed)
    vs = [v for v in range(min_vertices, max_vertices + 1)
          if (3 * v + k) % 2 == 0 and (v > 0 or k > 0)]
    if not vs:
        return DiagramCorpus(k, (), ())
    found = {}
    for _ in range(200 * count):
        if len(found) >= count:
            break
        v = rng.choice(vs)
        slots = list(range(3 * v + k))
        rng.shuffle(slots)
        d = _slots_diagram(v, k, zip(slots[::2], slots[1::2]))
        found.setdefault(canonical_form(d), d)
    return DiagramCorpus.by_code(k, found)
