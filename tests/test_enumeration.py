import itertools

import pytest

from trivalent import (
    are_isomorphic,
    canonical_form,
    enumerate_fixed_diagrams,
    enumerate_matchings,
    flip_vertex,
    matching_diagram,
    matching_glue,
    partition_function,
    random_diagram_corpus,
    so3_eps,
    theta,
    validate,
)
from trivalent.enumeration import double_factorial
from trivalent.errors import TooLarge


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

    def test_work_guard(self):
        with pytest.raises(TooLarge):
            enumerate_fixed_diagrams(0, 8)


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
