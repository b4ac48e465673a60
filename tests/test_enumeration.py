import functools
import itertools
from time import perf_counter

import pytest

from trivalent import (
    FixedDiagram,
    are_isomorphic,
    canonical_form,
    enumerate_fixed_diagrams,
    flip_vertex,
    partition_function,
    random_diagram_corpus,
    so3_eps,
    theta,
    validate,
)
from trivalent import enumeration
from trivalent.enumeration import double_factorial
from trivalent.errors import TooLarge

from oracles import enumerate_matchings, matching_diagram, matching_glue


def _matchings_rotation_pruned(v, k):
    """Partner arrays for slots [0, 3v+k), leg slots last: every perfect
    matching, smallest free slot first, less those in which some vertex's
    slot triple is not rotation-minimal (by the partner's vertex, leg label
    or self-loop, all rotation-invariant, so every class survives)."""
    m = 3 * v + k
    nv = 3 * v
    partner = [-1] * m

    def key(p, w):
        if p >= nv:
            return (1, p - nv)
        pw = p // 3
        return (2, 0) if pw == w else (0, pw)

    def vertex_ok(w):
        a, b, c = (key(partner[3 * w + j], w) for j in range(3))
        return (a, b, c) <= (b, c, a) and (a, b, c) <= (c, a, b)

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
            if all(vertex_ok(w) for w in {s // 3, t // 3}
                   if 3 * w < nv and all(partner[3 * w + j] >= 0 for j in range(3))):
                yield from rec(s + 1)
            partner[s] = -1
            partner[t] = -1

    if m % 2 == 0:
        yield from rec(0)


@functools.lru_cache(maxsize=None)
def walk_codes(k, v):
    """Canonical codes of the k-legged diagrams with exactly v vertices, by
    the matching walk: code every rotation-pruned matching, keep distinct."""
    if v == 0 and k == 0:
        return frozenset()
    return frozenset(canonical_form(enumeration._slots_diagram(v, k, enumerate(partner)))
                     for partner in _matchings_rotation_pruned(v, k))


def fresh_code(d):
    """canonical_form of a copy of d that does not carry a stored code."""
    return canonical_form(FixedDiagram._raw(d.vertices, d.legs, d.partner, d.loop_count))


def drop_leg_one_vertex(d):
    """A 1-legged diagram less the vertex at its leg: that vertex's other two
    darts, in its cyclic order, become legs 1 and 2 (a bare edge if they
    were joined), so v vertices and 1 leg go to v - 1 vertices and 2 legs."""
    leg = d.legs[0]
    a = d.partner[leg]
    tri = next(t for t in d.vertices if a in t)
    i = tri.index(a)
    return FixedDiagram([t for t in d.vertices if t != tri], [tri[i - 2], tri[i - 1]],
                        [e for e in d.edges() if leg not in e], d.loop_count)


class TestEnumerateDiagrams:
    def test_two_vertex_closed_diagrams(self):
        corpus = enumerate_fixed_diagrams(0, 2)
        codes = set(corpus.codes)
        assert canonical_form(theta()) in codes
        assert canonical_form(flip_vertex(theta(), 0)) in codes
        from trivalent import FixedDiagram
        dumbbell = FixedDiagram(vertices=[(0, 1, 2), (3, 4, 5)],
                                edges=[(1, 2), (4, 5), (0, 3)])
        assert canonical_form(dumbbell) in codes
        assert len(corpus) == 3

    def test_two_legs_zero_vertices(self):
        corpus = enumerate_fixed_diagrams(2, 0)
        assert len(corpus) == 1
        assert corpus.items[0].num_vertices == 0

    def test_one_leg_zero_vertices_empty(self):
        assert len(enumerate_fixed_diagrams(1, 0)) == 0

    def test_all_valid_and_deduplicated(self):
        corpus = enumerate_fixed_diagrams(1, 3)
        assert len(set(corpus.codes)) == len(corpus)
        for d in corpus:
            validate(d)
            assert d.num_legs == 1 and d.loop_count == 0

    def test_deterministic(self):
        a = enumerate_fixed_diagrams(2, 2)
        b = enumerate_fixed_diagrams(2, 2)
        assert a.codes == b.codes

    @pytest.mark.parametrize("k, v", [(k, v) for k in range(5) for v in range(6)
                                      if 3 * v + k <= 16])
    def test_against_the_matching_walk(self, k, v):
        corpus = enumerate_fixed_diagrams(k, v)
        assert corpus.codes == tuple(sorted(frozenset().union(
            *(walk_codes(k, w) for w in range(v + 1)))))
        for d, code in zip(corpus, corpus.codes):
            assert canonical_form(d) == fresh_code(d) == code

    @pytest.mark.parametrize("k, v, count", [(0, 6, 144), (2, 6, 1595), (3, 5, 1450),
                                             (1, 7, 1595), (0, 8, 1762)])
    def test_counts_past_the_walk(self, k, v, count):
        corpus = enumerate_fixed_diagrams(k, v)
        assert len(corpus) == count
        for d, code in zip(corpus, corpus.codes):
            assert d.num_legs == k and d.num_vertices <= v and d.loop_count == 0
            assert canonical_form(d) == fresh_code(d) == code

    @pytest.mark.parametrize("v, count", [(4, 101), (6, 1595)])
    def test_leg_vertex_bijection(self, v, count):
        one = enumerate_fixed_diagrams(1, v + 1)
        two = enumerate_fixed_diagrams(2, v)
        images = {canonical_form(drop_leg_one_vertex(d)) for d in one}
        assert len(one) == len(two) == len(images) == count
        assert images == set(two.codes)

    @pytest.mark.parametrize("k, v", [(0, 6), (2, 6), (3, 5)])
    def test_random_samples_are_generated(self, k, v):
        codes = set(enumerate_fixed_diagrams(k, v).codes)
        sample = random_diagram_corpus(k, 100, v, seed=k + v)
        assert len(sample) == 100 and set(sample.codes) <= codes

    @pytest.mark.parametrize("k, v, cap, what", [(4, 2, 40, "diagrams"),
                                                 (4, 4, 40, "components")])
    def test_cap_raises_before_building(self, monkeypatch, k, v, cap, what):
        def build(*args):
            raise AssertionError("a diagram was built past the cap")

        monkeypatch.setattr(enumeration, "MAX_CLASSES", cap)
        monkeypatch.setattr(enumeration, "_build", build)
        with pytest.raises(TooLarge, match=f"more than {cap} {what}"):
            enumerate_fixed_diagrams(k, v)

    def test_large_corpus_raises_quickly(self):
        t0 = perf_counter()
        with pytest.raises(TooLarge):
            enumerate_fixed_diagrams(4, 8)
        assert perf_counter() - t0 < 5

    @pytest.mark.parametrize("k, v", [(16, 0), (15, 1), (2000, 0)])
    def test_many_legs_raise_quickly(self, k, v):
        # bare edges alone give more than 15!! and 13!! classes; (12, 6),
        # whose components have at most 8 legs, is a test_cli case
        t0 = perf_counter()
        with pytest.raises(TooLarge):
            enumerate_fixed_diagrams(k, v)
        assert perf_counter() - t0 < 5

    @pytest.mark.parametrize("k", [13, 15, 2001])
    def test_odd_legs_without_vertices_are_empty_at_once(self, k):
        t0 = perf_counter()
        assert len(enumerate_fixed_diagrams(k, 0)) == 0
        assert perf_counter() - t0 < 1

    @pytest.mark.parametrize("legs, budget", [(7, 4), (5, 2), (4, 1), (3, 0)])
    def test_no_component_has_more_legs_than_vertices_plus_two(self, legs, budget):
        assert enumeration._components(legs, budget, 0) == []
        assert enumeration._components(legs, budget + 1, 10 ** 5)

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_deep_vertex_budget_stops_at_the_cap(self, monkeypatch, k):
        # components come by vertex count, so the cap stops the search
        # long before the budget, and well within the recursion limit
        monkeypatch.setattr(enumeration, "MAX_CLASSES", 2000)
        with pytest.raises(TooLarge, match="more than 2000"):
            enumerate_fixed_diagrams(k, 5000)


class TestEnumerateMatchings:
    def test_counts(self):
        assert len(enumerate_matchings(2)) == 1
        assert len(enumerate_matchings(4)) == 3
        assert len(enumerate_matchings(6)) == 15
        assert double_factorial(5) == 15

    def test_lexicographic(self):
        ms = enumerate_matchings(4)
        assert ms == sorted(ms)
        assert ms[0] == ((1, 2), (3, 4))

    @pytest.mark.parametrize("m", range(0, 11, 2))
    def test_against_itertools(self, m):
        # sets of m/2 pairs that cover [m]; disjoint pairs in lexicographic
        # order list a matching by its smaller elements
        pairs = itertools.combinations(range(1, m + 1), 2)
        ref = sorted(c for c in itertools.combinations(pairs, m // 2)
                     if len({x for pair in c for x in pair}) == m)
        assert enumerate_matchings(m) == ref

    def test_guard(self):
        with pytest.raises(TooLarge):
            enumerate_matchings(22)
        with pytest.raises(TooLarge):
            enumerate_matchings(3)


class TestMatchingGlue:
    def test_straight_matching_is_flipped_theta(self):
        # pairing slot i of one star with slot i of the other aligns the two
        # rotations, which is theta with one vertex reversed
        g = matching_glue([(1, 4), (2, 5), (3, 6)], 2)
        assert are_isomorphic(g, flip_vertex(theta(), 1))

    def test_twisted_matching_is_theta(self):
        g = matching_glue([(1, 4), (2, 6), (3, 5)], 2)
        assert are_isomorphic(g, theta())

    def test_within_star_matching_makes_loop_edge(self):
        g = matching_glue([(1, 2), (3, 4), (5, 6)], 2)
        assert g.num_vertices == 2
        # loop edges kill antisymmetric tensors
        assert partition_function(so3_eps(), g) == 0

    def test_surjectivity_two_vertices(self):
        glued = {canonical_form(matching_glue(m, 2)) for m in enumerate_matchings(6)}
        corpus = enumerate_fixed_diagrams(0, 2)
        wanted = {c for c, d in zip(corpus.codes, corpus.items) if d.num_vertices == 2}
        assert wanted <= glued

    def test_surjectivity_four_vertices(self):
        glued = {canonical_form(matching_glue(m, 4)) for m in enumerate_matchings(12)}
        corpus = enumerate_fixed_diagrams(0, 4)
        wanted = {c for c, d in zip(corpus.codes, corpus.items) if d.num_vertices == 4}
        assert wanted <= glued

    def test_matching_diagram_legs(self):
        d = matching_diagram([(1, 3), (2, 4)], 4)
        validate(d)
        assert d.num_legs == 4


class TestRandomCorpus:
    def test_deterministic_for_seed(self):
        a = random_diagram_corpus(4, 10, 3, seed=42)
        b = random_diagram_corpus(4, 10, 3, seed=42)
        assert a.codes == b.codes
        assert len(a) == 10

    def test_distinct_seeds_differ(self):
        a = random_diagram_corpus(4, 10, 3, seed=1)
        b = random_diagram_corpus(4, 10, 3, seed=2)
        assert a.codes != b.codes

    def test_all_valid(self):
        for d in random_diagram_corpus(6, 15, 4, seed=3):
            validate(d)
            assert d.num_legs == 6

    def test_small_space_saturates(self):
        corpus = random_diagram_corpus(2, 50, 0, seed=0)
        assert len(corpus) == 1
