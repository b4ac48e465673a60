"""Canonical codes against an independent isomorphism test.

`are_isomorphic` compares canonical codes.  Here networkx VF2 decides the
same question on the dart graph: one node per dart, labelled by its leg
label (0 off the legs), and one arc per dart to its successor at its
vertex (kind rho) and to its partner (kind partner).  A bijection of darts
that keeps labels and arc kinds is exactly an isomorphism that fixes the
legs and keeps every vertex's cyclic order.
"""

import random

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from networkx.algorithms.isomorphism import DiGraphMatcher

from trivalent import (
    FixedDiagram,
    are_isomorphic,
    disjoint_union,
    enumerate_fixed_diagrams,
    theta,
    vertexless_loop,
)

#: the (2, 4) corpus, checked pair by pair
CORPUS = list(enumerate_fixed_diagrams(2, 4))
#: what the random presentations are drawn from
POOL = (CORPUS + list(enumerate_fixed_diagrams(0, 4)) + list(enumerate_fixed_diagrams(1, 3))
        + [disjoint_union(theta(), vertexless_loop())])


def dart_graph(d):
    """The dart graph; each node also carries (its leg label, its partner's
    leg label, whether its partner is its successor), which any isomorphism
    keeps too, so VF2 prunes earlier without deciding anything else."""
    leg = {x: i + 1 for i, x in enumerate(d.legs)}
    rho = {tri[i]: tri[(i + 1) % 3] for tri in d.vertices for i in range(3)}
    partner = {}
    for a, b in d.edges():
        partner[a], partner[b] = b, a
    arcs = {(x, y): {"rho"} for x, y in rho.items()}
    for x, y in partner.items():
        arcs.setdefault((x, y), set()).add("partner")
    g = nx.DiGraph()
    g.add_nodes_from((x, {"label": (leg.get(x, 0), leg.get(y, 0), rho.get(x) == y)})
                     for x, y in partner.items())
    g.add_edges_from((x, y, {"kinds": frozenset(k)}) for (x, y), k in arcs.items())
    return g


def vf2_isomorphic(a, b):
    ga, gb = dart_graph(a), dart_graph(b)
    labels = [sorted(label for _, label in g.nodes(data="label")) for g in (ga, gb)]
    if a.loop_count != b.loop_count or labels[0] != labels[1]:
        return False
    return DiGraphMatcher(ga, gb, node_match=lambda u, v: u["label"] == v["label"],
                          edge_match=lambda e, f: e["kinds"] == f["kinds"]).is_isomorphic()


def present(d, names, order, turns, flips=()):
    """d with dart x renamed names[x], vertex i listed at position order[i]
    and rotated by turns[i], and reversed where flips[i] (not an isomorphism)."""
    vertices = [None] * len(d.vertices)
    for i, tri in enumerate(d.vertices):
        t = turns[i]
        tri = tri[t:] + tri[:t]
        if i < len(flips) and flips[i]:
            tri = tri[::-1]
        vertices[order[i]] = tuple(names[x] for x in tri)
    return FixedDiagram(vertices, [names[x] for x in d.legs],
                        [(names[a], names[b]) for a, b in d.edges()], d.loop_count)


def random_presentation(d, rng):
    names = list(range(len(d.partner)))
    order = list(range(len(d.vertices)))
    rng.shuffle(names)
    rng.shuffle(order)
    return present(d, names, order, [rng.randrange(3) for _ in d.vertices])


@st.composite
def presentations(draw):
    d = draw(st.sampled_from(POOL))
    v = len(d.vertices)
    names = draw(st.permutations(range(len(d.partner))))
    order = draw(st.permutations(range(v)))
    turns = draw(st.lists(st.integers(0, 2), min_size=v, max_size=v))
    flips = draw(st.lists(st.booleans(), min_size=v, max_size=v))
    return d, names, order, turns, flips


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(presentations())
def test_presentations_are_isomorphic(drawn):
    d, names, order, turns, _ = drawn
    e = present(d, names, order, turns)
    assert vf2_isomorphic(d, e)
    assert are_isomorphic(d, e)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(presentations())
def test_flipped_presentations_agree(drawn):
    d, names, order, turns, flips = drawn
    e = present(d, names, order, turns, flips)
    assert vf2_isomorphic(d, e) == are_isomorphic(d, e)


def test_corpus_pairs_agree():
    assert len(CORPUS) == 101
    rng = random.Random(3)
    for i, a in enumerate(CORPUS):
        for b in CORPUS[i:]:
            e = random_presentation(b, rng)
            same = a is b
            assert vf2_isomorphic(a, e) == same
            assert are_isomorphic(a, e) == same
