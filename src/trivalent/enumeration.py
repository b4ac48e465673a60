"""Deterministic generation of diagram corpora.

Fixed diagrams with v trivalent vertices and k legs are in bijection with
perfect matchings on the 3v vertex slots plus k leg slots, modulo
rotating each vertex's slot triple and permuting vertices.  The
enumerator walks all matchings smallest-slot-first and prunes, as soon as
a vertex's three partners are known, any assignment that is not
rotation-minimal at that vertex; the rotation key only looks at the
partner's owning vertex (or leg label, or self-loop status), which is
itself rotation-invariant, so every isomorphism class survives the
pruning.  Duplicates that remain (vertex permutations) are removed by
canonical code.
"""

from __future__ import annotations

import math
import random

from .diagrams import (
    DiagramCorpus,
    FixedDiagram,
    canonical_form,
    glue,
    tri_star,
)
from .errors import TooLarge

#: cap on raw matchings explored per vertex count
WORK_GUARD = 8 * 10 ** 6
#: cap on isomorphism classes kept
MAX_CLASSES = 100_000

_SELF = (2, 0)


def double_factorial(m: int) -> int:
    return math.prod(range(m, 1, -2))


def _matchings_rotation_pruned(v: int, k: int):
    """Yield partner arrays for slots [0, 3v+k); leg slots are the last k."""
    m = 3 * v + k
    nv = 3 * v
    partner = [-1] * m

    def key(p, w):
        if p >= nv:
            return (1, p - nv)
        pw = p // 3
        return _SELF if pw == w else (0, pw)

    def vertex_ok(w):
        base = 3 * w
        a = key(partner[base], w)
        b = key(partner[base + 1], w)
        c = key(partner[base + 2], w)
        t = (a, b, c)
        return t <= (b, c, a) and t <= (c, a, b)

    def rec(lo):
        s = lo
        while s < m and partner[s] >= 0:
            s += 1
        if s == m:
            yield tuple(partner)
            return
        for t in range(s + 1, m):
            if partner[t] >= 0:
                continue
            partner[s] = t
            partner[t] = s
            ok = True
            for w in {s // 3} | ({t // 3} if t < nv else set()):
                if w * 3 < nv and all(partner[3 * w + j] >= 0 for j in range(3)):
                    if not vertex_ok(w):
                        ok = False
                        break
            if ok:
                yield from rec(s + 1)
            partner[s] = -1
            partner[t] = -1

    if m % 2 == 0:
        yield from rec(0)


def _slots_diagram(v, k, partner):
    vertices = tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(v))
    legs = tuple(range(3 * v, 3 * v + k))
    return FixedDiagram._raw(vertices, legs, partner, 0)


def enumerate_fixed_diagrams(k: int, max_vertices: int) -> DiagramCorpus:
    """All loop-free diagrams with exactly k legs and at most `max_vertices`
    trivalent vertices, one per isomorphism class, in canonical order."""
    found = {}
    for v in range(max_vertices + 1):
        if (3 * v + k) % 2:
            continue
        if v == 0 and k == 0:
            continue
        m = 3 * v + k
        if double_factorial(m - 1) > WORK_GUARD:
            raise TooLarge(f"{m} slots: too many matchings to enumerate")
        for partner in _matchings_rotation_pruned(v, k):
            d = _slots_diagram(v, k, partner)
            code = canonical_form(d)
            if code not in found:
                found[code] = d
                if len(found) > MAX_CLASSES:
                    raise TooLarge(f"more than {MAX_CLASSES} diagrams")
    return DiagramCorpus.by_code(k, found)


def enumerate_matchings(m: int):
    """All perfect matchings on [m] (1-based pairs), lexicographic order."""
    if m % 2:
        raise TooLarge(f"[{m}] has no perfect matching")
    if double_factorial(m - 1) > 10 ** 6:
        raise TooLarge(f"(m-1)!! = {double_factorial(m - 1)} exceeds the guard")
    # with no vertices nothing is pruned, and smallest-free-slot-first is lexicographic
    return [tuple((s + 1, t + 1) for s, t in enumerate(partner) if s < t)
            for partner in _matchings_rotation_pruned(0, m)]


def matching_diagram(matching, m: int) -> FixedDiagram:
    """The m-legged diagram whose edges pair legs as the matching does."""
    partner = [-1] * m
    for a, b in matching:
        partner[a - 1] = b - 1
        partner[b - 1] = a - 1
    return FixedDiagram._raw((), tuple(range(m)), tuple(partner), 0)


def matching_glue(matching, k: int) -> FixedDiagram:
    """Glue a perfect matching on [3k] with the k-fold star diagram."""
    return glue(matching_diagram(matching, 3 * k), tri_star(k))


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
        m = 3 * v + k
        slots = list(range(m))
        rng.shuffle(slots)
        partner = [-1] * m
        for i in range(0, m, 2):
            a, b = slots[i], slots[i + 1]
            partner[a] = b
            partner[b] = a
        d = _slots_diagram(v, k, tuple(partner))
        found.setdefault(canonical_form(d), d)
    return DiagramCorpus.by_code(k, found)
