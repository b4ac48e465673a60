import cmath
import collections
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from trivalent import (
    DiagramCorpus,
    FixedDiagram,
    TableBacked,
    TensorBacked,
    abelian,
    as_residual,
    brute_force_oracle,
    canonical_form,
    components,
    connected_sum_multiplicativity_check,
    connection_matrix,
    delta_check,
    delta_sum,
    direct_sum,
    direct_sum_additivity_check,
    disjoint_union,
    enumerate_fixed_diagrams,
    flip_vertex,
    gl_n_trace,
    glue,
    identity_pairing,
    ihx_residual,
    jacobi_check,
    k4,
    normalized,
    open_brute_force,
    open_partition_function,
    partition_function,
    permutation_diagram,
    random_diagram_corpus,
    random_structure_tensor,
    rank,
    scale_tensor,
    sl2_killing,
    sl_n_trace,
    so3_eps,
    so_n_rational,
    theta,
    tri_star,
    tripod,
    vertexless_loop,
)
from trivalent import evaluation, relations
from trivalent.algebras import TOL, StructureTensor, zeros_array
from trivalent.diagrams import _leg_label_map, _slots_diagram
from trivalent.errors import LegCountMismatch, TableMiss, TooLarge, ZeroDimension
from trivalent.relations import _rank_fraction_free, _rank_svd, delta_bound

from oracles import (
    delta_by_antisymmetrizer,
    delta_by_gluing,
    delta_outcomes_by_walk,
    lexicographic_signs,
    permutation_sign,
)


def falling(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


class TestResiduals:
    def test_lie_tensors_vanish(self):
        for c in (so3_eps(), abelian(3)):
            assert as_residual(c) == 0
            assert ihx_residual(c) == 0

    def test_symmetric_tensor_as(self):
        ent = zeros_array((2, 2, 2), "rational")
        ent[0, 0, 0] = Fraction(1)
        c = StructureTensor(2, ent, "rational")
        assert as_residual(c) == 2

    def test_ihx_equals_jacobi_exactly(self):
        for seed in range(200):
            c = random_structure_tensor(3, seed=seed)
            assert ihx_residual(c) == jacobi_check(c)

    def test_ihx_equals_jacobi_complex(self):
        for seed in range(20):
            c = random_structure_tensor(3, seed=seed, backend="complex")
            assert ihx_residual(c) == jacobi_check(c)

    def test_as_iff_antisymmetric(self):
        from trivalent import antisymmetry_check
        for seed in range(30):
            c = random_structure_tensor(3, seed=seed)
            assert (as_residual(c) == 0) == (antisymmetry_check(c) == 0)


class TestPermutationSign:
    def test_small(self):
        assert permutation_sign((1, 2, 3)) == 1
        assert permutation_sign((2, 1, 3)) == -1
        assert permutation_sign((2, 3, 1)) == 1

    def test_matches_inversions(self):
        for pi in itertools.permutations(range(1, 5)):
            inv = sum(1 for i in range(4) for j in range(i + 1, 4) if pi[i] > pi[j])
            assert permutation_sign(pi) == (-1) ** inv

    def test_lexicographic_signs(self):
        for k in range(8):
            assert lexicographic_signs(k) == [
                permutation_sign(pi) for pi in itertools.permutations(range(1, k + 1))]


class TestDeltaSum:
    def test_falling_factorial(self):
        for n in range(1, 5):
            f = TensorBacked(abelian(n))
            for k in range(1, 6):
                assert delta_sum(f, k, identity_pairing(k)) == falling(n, k)

    def test_nonzero_at_k_equals_n(self):
        for n in (2, 3):
            f = TensorBacked(abelian(n))
            val = delta_sum(f, n, identity_pairing(n))
            assert val == falling(n, n) != 0

    def test_so3_tri_star_pair_at_k3(self):
        # one level below threshold: the sum over S_3 against two tripods
        f = TensorBacked(so3_eps())
        assert delta_sum(f, 3, tri_star(2)) == 36

    def test_so3_vanishes_at_k4(self):
        f = TensorBacked(so3_eps())
        corpus = random_diagram_corpus(8, 12, 4, seed=17)
        rep = delta_check(f, 4, list(corpus) + [identity_pairing(4)], tol=0)
        assert rep["pass"] and rep["residual"] == 0

    def test_abelian2_vanishes_at_k3(self):
        f = TensorBacked(abelian(2))
        corpus = random_diagram_corpus(6, 20, 4, seed=23)
        rep = delta_check(f, 3, list(corpus) + [identity_pairing(3)], tol=0)
        assert rep["pass"] and rep["residual"] == 0

    def test_arbitrary_table_fails(self):
        # loop 2, theta 7, flipped theta 5: the S_3 sum against two tripods
        # is 3*(5 - 7) != 0
        table = {
            canonical_form(theta()): Fraction(7),
            canonical_form(flip_vertex(theta(), 0)): Fraction(5),
        }
        f = TableBacked(Fraction(2), table, backend="rational")
        val = delta_sum(f, 3, tri_star(2))
        assert val == -6
        rep = delta_check(f, 3, [tri_star(2)], tol=0)
        assert not rep["pass"]

    def test_guards(self, monkeypatch):
        f = TensorBacked(abelian(2))
        with pytest.raises(LegCountMismatch):
            delta_sum(f, 2, identity_pairing(3))
        # all 20 legs at vertices: 10! x 1 outcomes, refused before any is built
        h = _slots_diagram(8, 20, [(i, 24 + i) for i in range(20)] + [(20, 21), (22, 23)])
        monkeypatch.setattr(FixedDiagram, "_raw", None)
        with pytest.raises(TooLarge, match=r"^3628800 outcomes \(10! x 1\) exceed the guard$"):
            delta_sum(f, 10, h)

    def test_report_shape(self):
        f = TensorBacked(abelian(2))
        rep = delta_check(f, 3, [identity_pairing(3)], tol=0, seed=99)
        assert set(rep) == {"check", "params", "seed", "residual", "pass"}
        assert rep["seed"] == 99


class TestDeltaScale:
    """By default a complex sum is held to TOL times the size of its terms."""

    def test_scale_is_the_size_of_the_terms(self):
        f = TensorBacked(sl2_killing())
        for h in _hs(3, 20, 11):
            val, bound, scale = delta_bound(f, 3, h, TOL, relative=True)
            terms = [count * f.evaluate(glue(permutation_diagram(pi), h))
                     for count, pi in delta_outcomes_by_walk(3, h)]
            assert abs(scale - sum(map(abs, terms))) <= TOL * scale and bound == TOL * scale
            assert delta_bound(f, 3, h, TOL) == (val, TOL, scale)

    def test_sl3_at_k9_passes(self):
        # sl(3) has dimension 8; the terms reach 1e8 and round off near 1e-8
        rep = delta_check(TensorBacked(sl_n_trace(3)), 9, _hs(9, 20, 1), TOL, relative=True)
        assert rep["pass"] and rep["params"]["tol"] == TOL * rep["params"]["scale"] > 0

    def test_real_failures_still_fail(self):
        for f in (TensorBacked(sl2_killing()), TensorBacked(so3_eps())):
            # k = n: n! = 6 against terms of size 3 * 4 * 5
            rep = delta_check(f, 3, [identity_pairing(3)], TOL if f.backend == "complex" else 0,
                              relative=True)
            assert not rep["pass"] and abs(rep["residual"] - 6) < 1e-9
            assert rep["params"]["scale"] == 60
        table = {canonical_form(theta()): 7j, canonical_form(flip_vertex(theta(), 0)): 5j}
        rep = delta_check(TableBacked(2, table, "complex"), 3, [tri_star(2)], TOL, relative=True)
        assert not rep["pass"] and rep["residual"] == 6

    def test_a_failing_sum_is_reported_before_a_larger_passing_one(self, monkeypatch):
        hs = [identity_pairing(k) for k in range(3)]
        sums = {id(hs[0]): (5.0, 10.0, 1e10), id(hs[1]): (2.0, 1.0, 1e9), id(hs[2]): (0, 0, 0)}
        monkeypatch.setattr(relations, "delta_bound", lambda f, k, h, tol, rel: sums[id(h)])
        rep = delta_check(TensorBacked(sl2_killing()), 3, hs, TOL, relative=True)
        assert not rep["pass"] and rep["residual"] == 2.0 and rep["params"]["tol"] == 1.0
        assert rep["params"]["worst"] == canonical_form(hs[1]).decode()
        del sums[id(hs[1])], hs[1]
        rep = delta_check(TensorBacked(sl2_killing()), 3, hs, TOL, relative=True)
        assert rep["pass"] and rep["residual"] == 5.0 and rep["params"]["scale"] == 1e10


def _hs(k, count, seed):
    return list(random_diagram_corpus(2 * k, count, 4, seed=seed)) + [identity_pairing(k)]


def _same_side_chord(k, h):
    """True iff a leg-to-leg edge of h joins two top legs (labels 1..k) or two bottom ones."""
    lab = _leg_label_map(h)
    return any(lab[h.partner[d]] and (i < k) == (lab[h.partner[d]] <= k)
               for i, d in enumerate(h.legs))


def _top_bottom(k, v, p, seed):
    """A 2k-legged h on v vertices whose chords all join a top leg to a bottom
    one: p random legs of each side sit at random vertex slots, the other
    slots pair up among themselves and the other legs across the sides."""
    rng = random.Random(seed)
    slots = rng.sample(range(3 * v), 3 * v)
    tops, bottoms = rng.sample(range(k), k), rng.sample(range(k, 2 * k), k)
    pairs = [(s, 3 * v + leg) for s, leg in zip(slots, tops[:p] + bottoms[:p])]
    pairs += list(zip(slots[2 * p::2], slots[2 * p + 1::2]))
    pairs += [(3 * v + a, 3 * v + b) for a, b in zip(tops[p:], bottoms[p:])]
    return _slots_diagram(v, 2 * k, pairs)


class _Counting:
    """A weight system that records every diagram it is asked to evaluate."""

    def __init__(self, f):
        self.f, self.backend, self.seen = f, f.backend, []

    def evaluate(self, g):
        self.seen.append(g)
        return self.f.evaluate(g)


class _One:
    """The weight system that is 1 on every diagram: its signed sum is sum sgn(pi)."""

    backend = "rational"

    def evaluate(self, g):
        return Fraction(1)


def _literal(g):
    return g.vertices, g.partner, g.loop_count


class TestDeltaByOutcome:
    """The per-outcome signed sum against the gluing path it replaced."""

    @pytest.mark.parametrize("make,k", [(lambda: so_n_rational(4), 4), (so3_eps, 3),
                                        (lambda: abelian(3), 3),
                                        (lambda: random_structure_tensor(3, seed=5), 3)],
                             ids=["so_4", "so3_eps", "abelian_3", "random_3"])
    def test_nonzero_sums_exact(self, make, k):
        f, hs = TensorBacked(make()), _hs(k, 40, 11)
        sums = [delta_sum(f, k, h) for h in hs]
        assert sums == [delta_by_gluing(f, k, h) for h in hs]
        assert all(type(x) is Fraction for x in sums)
        assert any(sums)

    @pytest.mark.parametrize("make,k,seed", [(lambda: abelian(2), 3, 30021),
                                             (so3_eps, 4, 30022)],
                             ids=["abelian_2", "so3_eps"])
    def test_acceptance_corpora_exact(self, make, k, seed):
        f = TensorBacked(make())
        for h in _hs(k, 50, seed):
            val = delta_sum(f, k, h)
            assert type(val) is Fraction and val == delta_by_gluing(f, k, h)

    def test_so4_k7_exact(self):
        f = TensorBacked(so_n_rational(4))
        corpus = random_diagram_corpus(14, 50, 4, seed=30023)
        hs = [identity_pairing(7)] + [next(h for h in corpus if h.num_vertices == v)
                                      for v in (2, 4)] + [_top_bottom(7, 4, 3, 1)]
        for h in hs:
            val = delta_sum(f, 7, h)
            assert type(val) is Fraction and val == delta_by_gluing(f, 7, h)

    def test_complex_within_tol(self):
        f = TensorBacked(sl2_killing())
        for h in _hs(3, 40, 11):
            ref = delta_by_gluing(f, 3, h)
            assert abs(delta_sum(f, 3, h) - ref) <= TOL * max(1.0, abs(ref))

    def test_evaluates_each_nonzero_outcome_once(self):
        f = TensorBacked(so3_eps())
        for h in _hs(4, 40, 11) + [_top_bottom(4, 4, 2, seed) for seed in range(5)]:
            counting = _Counting(f)
            delta_sum(counting, 4, h)
            glued = [_literal(glue(permutation_diagram(pi), h))
                     for count, pi in delta_outcomes_by_walk(4, h) if count]
            assert sorted(map(_literal, counting.seen)) == sorted(glued)
            assert not glued == _same_side_chord(4, h)

    def test_identity_pairing_one_evaluation_per_cycle_count(self):
        for n, k in itertools.product(range(1, 5), range(1, 7)):
            counting = _Counting(TensorBacked(abelian(n)))
            assert delta_sum(counting, k, identity_pairing(k)) == falling(n, k)
            assert len(counting.seen) == k
            assert sorted(_literal(g) for g in counting.seen) == [
                ((), (), loops) for loops in range(1, k + 1)]

    def test_table_backed(self):
        hs = _hs(3, 40, 11)
        rng = random.Random(3)
        table = {}
        for h in hs:
            for pi in itertools.permutations(range(1, 4)):
                for comp in components(glue(permutation_diagram(pi), h)):
                    if comp.num_vertices:
                        table.setdefault(canonical_form(comp),
                                         Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        f = TableBacked(Fraction(3), table)
        sums = [delta_sum(f, 3, h) for h in hs]
        assert sums == [delta_by_gluing(f, 3, h) for h in hs] and any(sums)
        h = next(h for h in hs if h.num_vertices and not _same_side_chord(3, h))
        comp = next(c for c in components(glue(identity_pairing(3), h)) if c.num_vertices)
        del table[canonical_form(comp)]
        f = TableBacked(Fraction(3), table)
        with pytest.raises(TableMiss):
            delta_sum(f, 3, h)
        with pytest.raises(TableMiss):
            delta_by_gluing(f, 3, h)

    def test_same_side_chord_reads_no_table_entry(self):
        # pi and pi o (i i') glue one diagram with opposite signs, for every f
        empty = TableBacked(Fraction(3), {})
        hs = [h for h in _hs(4, 40, 11) if h.num_vertices and _same_side_chord(4, h)]
        assert len(hs) > 10
        for h in hs:
            val = delta_sum(empty, 4, h)
            assert type(val) is Fraction and val == 0
            assert delta_bound(empty, 4, h) == (0, 0, 0)
            with pytest.raises(TableMiss):
                delta_by_gluing(empty, 4, h)


def _chorded(k, chords, at_vertex=()):
    """2k legs (dart ids 1..2k): `chords` join label pairs, and the four
    labels `at_vertex`, if given, sit two by two on two joined vertices."""
    edges = list(chords) + [("u", "v")] * bool(at_vertex)
    edges += list(zip(at_vertex, "abcd"))
    vertices = [("a", "b", "u"), ("c", "d", "v")] if at_vertex else []
    return FixedDiagram(vertices, range(1, 2 * k + 1), edges)


def _by_code(outcomes, h=None):
    """{canonical code: summed count}, zero sums left out; given h, the outcomes
    are the walk's (count, pi) and the code is that of P_pi glued to h."""
    out = collections.Counter()
    for count, g in outcomes:
        out[canonical_form(g if h is None else glue(permutation_diagram(g), h))] += count
    return {code: n for code, n in out.items() if n}


def _against_walk(k, h):
    outcomes = list(relations._delta_outcomes(k, h))
    walk = delta_outcomes_by_walk(k, h)
    assert _by_code(outcomes) == _by_code(walk, h)
    if _same_side_chord(k, h):
        assert not outcomes and not any(count for count, _ in walk)
    else:
        assert sum(abs(count) for count, _ in outcomes) == math.factorial(k)
    return outcomes


class TestDeltaOutcomes:
    """The closed form against the per-permutation walk, outcome by outcome."""

    SHAPED = {
        # pi = id closes a 4-leg loop (3-4-8-7) next to two 2-leg loops
        "mixed_loops": _chorded(4, [(1, 5), (2, 6), (3, 4), (7, 8)]),
        "top_top_bottom_bottom": _chorded(4, [(1, 2), (7, 8)], at_vertex=(3, 4, 5, 6)),
        # pi = id walks 1-6-2-7-3-8-4-9 through four joins and three chords
        "chain": _chorded(5, [(6, 2), (7, 3), (8, 4)], at_vertex=(1, 5, 9, 10)),
        "top_bottom_only": _chorded(4, [(1, 6), (2, 5)], at_vertex=(3, 4, 7, 8)),
        "all_at_vertices_across": _chorded(2, [], at_vertex=(1, 3, 2, 4)),
    }

    @pytest.mark.parametrize("k,count,seed", [(3, 40, 11), (4, 40, 11), (3, 50, 30021),
                                              (4, 50, 30022)])
    def test_random_corpora(self, k, count, seed):
        for h in _hs(k, count, seed):
            _against_walk(k, h)

    def test_top_bottom_chords_only(self):
        for k, v, p in [(2, 2, 2), (3, 2, 2), (3, 4, 3), (4, 2, 1), (4, 4, 3), (5, 4, 2),
                        (5, 6, 4), (6, 4, 3)]:
            for seed in range(4):
                h = _top_bottom(k, v, p, seed)
                assert _against_walk(k, h)
                assert _against_walk(k, disjoint_union(h, vertexless_loop()))  # h's own loop

    def test_k7_and_k8(self):
        corpus = random_diagram_corpus(14, 50, 4, seed=30023)
        cases = [(7, next(h for h in corpus if h.num_vertices == v)) for v in (2, 4)]
        cases += [(8, h) for h in random_diagram_corpus(16, 6, 4, seed=8) if h.num_vertices][:2]
        cases += [(7, _top_bottom(7, 4, 4, 1)), (8, _top_bottom(8, 4, 3, 2))]
        for k, h in cases:
            _against_walk(k, h)

    def test_identity_pairings(self):
        for k in range(9):
            outcomes = _against_walk(k, identity_pairing(k))
            assert len(outcomes) == max(k, 1)

    @pytest.mark.parametrize("name", sorted(SHAPED))
    def test_shaped(self, name):
        h = self.SHAPED[name]
        _against_walk(h.num_legs // 2, h)

    @pytest.mark.parametrize("make", [sl2_killing, lambda: sl_n_trace(3)],
                             ids=["sl2_killing", "sl3_trace"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_complex_sums_within_tol(self, make, k):
        f = TensorBacked(make())
        for h in _hs(k, 12, 11) + [_top_bottom(k, 2, 2, 5)]:
            terms = [count * f.evaluate(glue(permutation_diagram(pi), h))
                     for count, pi in delta_outcomes_by_walk(k, h)]
            assert abs(delta_sum(f, k, h) - sum(terms)) <= TOL * max(1.0, sum(map(abs, terms)))

    def test_outcomes_are_streamed(self):
        # 14 of 16 legs at vertices and one chord: 7! x 2 = 10,080 outcomes, 3 MB
        # as a list, read one at a time; the constant f sums sgn over S_8 to 0
        h = _slots_diagram(6, 16, [(i, 18 + i) for i in range(7)]
                           + [(7 + i, 26 + i) for i in range(7)] + [(25, 33), (14, 15), (16, 17)])
        tracemalloc.start()
        try:
            assert delta_sum(_One(), 8, h) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestDeltaAboveTheOldGuard:
    """k >= 9, past any walk over the k! permutations."""

    def test_antisymmetrizer_oracle_where_it_is_not_zero(self):
        for c, k in ((so3_eps(), 3), (random_structure_tensor(3, seed=4), 3),
                     (random_structure_tensor(4, seed=2), 2)):
            f = TensorBacked(c)
            hs = _hs(k, 8, 7) + [_top_bottom(k, 2, 2, 3)]
            vals = [delta_by_antisymmetrizer(c, k, h) for h in hs]
            assert vals == [delta_by_gluing(f, k, h) for h in hs] and any(vals)

    def test_n2_at_k9_against_the_antisymmetrizer(self):
        # Z(h) has 2^18 entries; the antisymmetrizer of 9 indices over 2 colours is zero
        c = random_structure_tensor(2, seed=9)
        f = TensorBacked(c)
        for h in [identity_pairing(9), _top_bottom(9, 2, 2, 1), _top_bottom(9, 4, 3, 2)]:
            val = delta_sum(f, 9, h)
            assert type(val) is Fraction and val == delta_by_antisymmetrizer(c, 9, h) == 0

    @pytest.mark.parametrize("k", [9, 10, 11])
    def test_sampled_permutations(self, k):
        # every sampled P_pi glued to h is an outcome, and its count has sgn(pi)
        rng = random.Random(k)
        for h in [identity_pairing(k), _top_bottom(k, 2, 2, k), _top_bottom(k, 4, 4, k),
                  _top_bottom(k, 6, 6, k)]:
            outcomes = {_literal(g): count for count, g in relations._delta_outcomes(k, h)}
            assert sum(map(abs, outcomes.values())) == math.factorial(k)
            for _ in range(40):
                pi = rng.sample(range(1, k + 1), k)
                count = outcomes[_literal(glue(permutation_diagram(pi), h))]
                assert count * permutation_sign(pi) > 0

    def test_falling_factorials(self):
        for n, k in ((9, 9), (12, 10), (5, 11), (11, 11)):
            assert delta_sum(TensorBacked(abelian(n)), k, identity_pairing(k)) == falling(n, k)


class TestConnectionMatrix:
    def test_rank_zero_legs(self):
        f = TensorBacked(so3_eps())
        corpus = DiagramCorpus.from_diagrams(
            0, [vertexless_loop(), theta(), k4(), flip_vertex(theta(), 0)])
        cm = connection_matrix(f, corpus)
        assert rank(cm) == 1
        # entries factor through the multiplicativity rule
        vals = {canonical_form(d): f.evaluate(d) for d in corpus}
        for i, g in enumerate(corpus):
            for j, h in enumerate(corpus):
                assert cm.entries[i][j] == vals[canonical_form(g)] * vals[canonical_form(h)]

    def test_rank_one_leg_is_zero(self):
        f = TensorBacked(so3_eps())
        corpus = enumerate_fixed_diagrams(1, 3)
        cm = connection_matrix(f, corpus)
        assert all(x == 0 for row in cm.entries for x in row)
        assert rank(cm) == 0

    def test_rank_two_legs_at_most_casimir(self):
        f = TensorBacked(so3_eps())
        corpus = enumerate_fixed_diagrams(2, 2)
        cm = connection_matrix(f, corpus)
        assert rank(cm) <= 1

    def test_symmetry(self):
        f = TensorBacked(so3_eps())
        corpus = enumerate_fixed_diagrams(2, 2)
        cm = connection_matrix(f, corpus)
        for i in range(len(corpus)):
            for j in range(len(corpus)):
                assert cm.entries[i][j] == cm.entries[j][i]


def _glued_matrix(f, corpus):
    """The m^2 gluing matrix, every ordered pair glued and evaluated."""
    return [[f.evaluate(glue(g, h)) for h in corpus] for g in corpus]


def _cyclic_with_denominators(n, seed):
    """Seeded cyclic-invariant, not antisymmetric tensor with mixed denominators."""
    rng = random.Random(seed)
    raw = zeros_array((n, n, n), "rational")
    for idx in itertools.product(range(n), repeat=3):
        raw[idx] = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
    return StructureTensor(n, raw + raw.transpose(1, 2, 0) + raw.transpose(2, 0, 1),
                           "rational", check=False)


def _mixed_phases():
    """so(3) at two phases, e^(0.6i) and that of sl(2)'s Killing form: a complex
    tensor not real up to one phase, so it contracts in complex128."""
    return direct_sum(scale_tensor(so3_eps().to_complex(), cmath.exp(0.6j)), sl2_killing())


#: (legs, max vertices, corpus cap) for the factored-against-glued comparisons
CORPORA = ((0, 4, None), (1, 3, None), (2, 3, None), (3, 3, 24))


def _corpus(legs, max_vertices, cap):
    corpus = enumerate_fixed_diagrams(legs, max_vertices)
    return corpus.head(cap) if cap else corpus


class TestFactoredConnectionMatrix:
    """The Gram-matrix path against the gluing path it replaced."""

    @pytest.mark.parametrize("make", [so3_eps, lambda: so_n_rational(4),
                                      lambda: _cyclic_with_denominators(3, 7)],
                             ids=["so3_eps", "so_4", "cyclic_denominators"])
    @pytest.mark.parametrize("legs,max_vertices,cap", CORPORA)
    def test_rational_exact(self, make, legs, max_vertices, cap):
        c = make()
        corpus = _corpus(legs, max_vertices, cap)
        cm = connection_matrix(TensorBacked(c), corpus)
        assert all(type(x) is Fraction for row in cm.entries for x in row)
        assert cm.entries == _glued_matrix(TensorBacked(c), corpus)

    def test_loop_rows_with_a_denominator_stay_exact(self):
        # a vertexless loop once made a 0-legged row a bare int, then int64,
        # which the row scale D**(Vmax - V) = 7**20 wrapped without an error
        c = scale_tensor(random_structure_tensor(3, seed=1), Fraction(1, 7))
        big = next(iter(random_diagram_corpus(0, 5, 22, seed=2, min_vertices=22)))
        corpus = DiagramCorpus.from_diagrams(0, [disjoint_union(theta(), vertexless_loop()), big])
        cm = connection_matrix(TensorBacked(c), corpus)
        assert c.scaled[0] == 7 and cm.den == 7 ** 44
        assert all(type(v) is int for row in cm.values for v in row)
        assert cm.entries == _glued_matrix(TensorBacked(c), corpus)

    @pytest.mark.parametrize("make", [so3_eps, lambda: so_n_rational(4)], ids=["so3_eps", "so_4"])
    @pytest.mark.parametrize("legs", [0, 2])
    def test_loop_rows_without_a_denominator(self, make, legs):
        c = make()
        loops = [vertexless_loop(), disjoint_union(vertexless_loop(), vertexless_loop()),
                 disjoint_union(theta(), vertexless_loop())]
        if legs:
            loops = [disjoint_union(identity_pairing(1), g) for g in loops]
        corpus = DiagramCorpus.from_diagrams(
            legs, loops + list(random_diagram_corpus(legs, 6, 4, seed=3)))
        cm = connection_matrix(TensorBacked(c), corpus)
        assert c.scaled[0] == 1 and cm.den == 1
        assert cm.entries == _glued_matrix(TensorBacked(c), corpus)

    def test_denominators_reach_the_matrix(self):
        c = _cyclic_with_denominators(3, 7)
        cm = connection_matrix(TensorBacked(c), _corpus(2, 3, None))
        assert any(x.denominator > 1 for row in cm.entries for x in row)

    # a phase that is not a power of i: a scale of s**(Vmax - V) would show
    @pytest.mark.parametrize("make", [sl2_killing, lambda: sl_n_trace(3),
                                      lambda: scale_tensor(so3_eps().to_complex(),
                                                           cmath.exp(0.6j))],
                             ids=["sl2_killing", "sl_3_trace", "so3_phase_0.6"])
    @pytest.mark.parametrize("legs,max_vertices,cap", CORPORA)
    def test_complex_within_tol(self, make, legs, max_vertices, cap):
        c = make()
        corpus = _corpus(legs, max_vertices, cap)
        cm = connection_matrix(TensorBacked(c), corpus)
        ref = _glued_matrix(TensorBacked(c), corpus)
        for row, ref_row in zip(cm.entries, ref):
            for x, y in zip(row, ref_row):
                assert abs(x - y) <= TOL * max(1.0, abs(y))

    def test_table_backed_one_triangle(self, monkeypatch):
        corpus = _corpus(2, 3, None)
        rng = random.Random(11)
        table = {}
        for g in corpus:
            for h in corpus:
                for comp in components(glue(g, h)):
                    if comp.num_vertices:
                        table.setdefault(canonical_form(comp),
                                         Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        f = TableBacked(Fraction(3), table)
        ref = _glued_matrix(f, corpus)
        calls = []
        real = TableBacked.evaluate
        monkeypatch.setattr(TableBacked, "evaluate",
                            lambda self, d: calls.append(d) or real(self, d))
        cm = connection_matrix(f, corpus)
        assert cm.entries == ref
        m = len(corpus)
        assert len(calls) == m * (m + 1) // 2

    def test_filled_table_is_a_table(self):
        # a tensor-backed system's filled table, handed to TableBacked, is the
        # same weight system on every diagram it covers
        f = TensorBacked(so3_eps())
        corpus = _corpus(2, 3, None)
        closed = list(_corpus(0, 4, None))
        ref = _glued_matrix(f, corpus)
        values = [f.evaluate(g) for g in closed]
        t = TableBacked(3, f.table)
        assert [t.evaluate(g) for g in closed] == values
        assert all(type(x) is Fraction for x in values)
        assert connection_matrix(t, corpus).entries == ref

    def test_factor_over_the_limit_raises_before_any_row(self, monkeypatch):
        corpus = _corpus(3, 3, 24)
        monkeypatch.setattr(evaluation, "MAX_ENTRIES", len(corpus) * 27 - 1)
        monkeypatch.setattr(evaluation, "_scaled_open", None)  # no row may be built
        with pytest.raises(TooLarge, match=f"factor needs 24 x 27 = {24 * 27} entries"):
            connection_matrix(TensorBacked(so3_eps()), corpus)

    def test_row_over_the_limit_propagates(self, monkeypatch):
        def too_large(c, g):
            raise TooLarge("row contraction over the limit")

        monkeypatch.setattr(evaluation, "_scaled_open", too_large)
        with pytest.raises(TooLarge, match="row contraction over the limit"):
            connection_matrix(TensorBacked(so3_eps()), _corpus(2, 3, None))

    @pytest.mark.parametrize("make", [so3_eps, lambda: _cyclic_with_denominators(3, 7),
                                      sl2_killing, _mixed_phases],
                             ids=["so3_eps", "cyclic_denominators", "sl2_killing",
                                  "mixed_phases"])
    def test_tensor_backed_never_glues(self, monkeypatch, make):
        monkeypatch.setattr(relations, "glue", None)  # a gluing would raise TypeError
        for spec in CORPORA:
            cm = connection_matrix(TensorBacked(make()), _corpus(*spec))
            assert len(cm.entries) == len(cm.corpus) >= rank(cm)

    def test_values_over_the_limit(self, monkeypatch):
        corpus = _corpus(2, 4, None)
        cm = connection_matrix(TensorBacked(so3_eps()), corpus)
        assert len(corpus) == 101 and cm.factored
        monkeypatch.setattr(evaluation, "MAX_ENTRIES", 101 * 101 - 1)
        with pytest.raises(TooLarge, match="101 x 101 = 10201 entries"):
            cm.values

    def test_empty_corpus(self):
        cm = connection_matrix(TensorBacked(so3_eps()), DiagramCorpus.from_diagrams(1, []))
        assert cm.entries == [] and rank(cm) == 0


def _half_integral(n, seed):
    """Seeded cyclic-invariant tensor with entries in (1/2)Z, some not integral."""
    c = random_structure_tensor(n, seed)
    return StructureTensor(n, c.entries * Fraction(1, 2), "rational", check=False)


class TestScaledContraction:
    """Rational tensors contract as D*c in Python ints, values over D**V."""

    @pytest.mark.parametrize("make", [lambda: _half_integral(3, 4),
                                      lambda: _cyclic_with_denominators(3, 7)],
                             ids=["half_integral", "cyclic_denominators"])
    @pytest.mark.parametrize("legs,max_vertices", [(0, 4), (1, 3), (2, 3), (3, 3)])
    def test_open_values_equal_the_oracle(self, make, legs, max_vertices):
        c = make()
        assert c.scaled[0] > 1 and all(type(x) is int for x in c.scaled[1].flat)
        for g in enumerate_fixed_diagrams(legs, max_vertices):
            got = open_partition_function(c, g)
            assert (got.entries == open_brute_force(c, g).entries).all()
            assert all(type(x) is Fraction for x in got.entries.flat)
            if not legs:
                value = partition_function(c, g)
                assert type(value) is Fraction and value == brute_force_oracle(c, g)

    def test_integral_tensor_contracts_its_entries(self):
        c = so_n_rational(4)
        assert c.scaled == (1, c.entries) and c.scaled[1] is c.entries

    def test_rebuilt_tensors_keep_their_own_scale(self):
        # tensors made and freed in turn may reuse one another's id(); each
        # must contract with its own D, never with a dropped tensor's
        for seed in range(30):
            c = (_cyclic_with_denominators(3, seed) if seed % 3 else
                 random_structure_tensor(3, seed))
            for g in (theta(), k4(), flip_vertex(k4(), 1)):
                assert partition_function(c, g) == brute_force_oracle(c, g)
            got = open_partition_function(c, tripod(1, 2, 3)).entries
            assert (got == open_brute_force(c, tripod(1, 2, 3)).entries).all()
            del c


def _rank_by_fraction_rows(rows):
    """Bareiss rank of rational rows, each row brought to integers with a fresh
    `Fraction` per entry and its own lcm: the kernel the integer rank replaced."""
    mat = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in fr))
        mat.append([int(x * den) for x in fr])
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    r = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r][col]
        for i in range(r + 1, nrows):
            mic = mat[i][col]
            row_i, row_r = mat[i], mat[r]
            for j in range(col + 1, ncols):
                row_i[j] = (row_i[j] * p - mic * row_r[j]) // prev
            row_i[col] = 0
        prev = p
        r += 1
        if r == nrows:
            break
    return r


class TestIntegerConnectionMatrix:
    """One integer matrix over one denominator, ranked without Fractions."""

    @pytest.mark.parametrize("make", [so3_eps, lambda: _half_integral(3, 2),
                                      lambda: _cyclic_with_denominators(3, 5)],
                             ids=["so3_eps", "half_integral", "cyclic_denominators"])
    @pytest.mark.parametrize("legs,seed", [(0, 1), (1, 2), (2, 3), (3, 4)])
    def test_random_corpus_rank_against_fraction_rows(self, make, legs, seed):
        f = TensorBacked(make())
        corpus = random_diagram_corpus(legs, 30, 5, seed=seed)
        cm = connection_matrix(f, corpus)
        assert all(type(v) is int for row in cm.values for v in row)
        glued = _glued_matrix(f, corpus)
        assert cm.entries == glued and rank(cm) == _rank_by_fraction_rows(glued)

    def test_one_denominator(self):
        corpus = _corpus(2, 3, None)
        cm = connection_matrix(TensorBacked(_cyclic_with_denominators(3, 7)), corpus)
        assert cm.den > 1 and cm.den % max(x.denominator for row in cm.entries for x in row) == 0
        assert connection_matrix(TensorBacked(so3_eps()), corpus).den == 1

    def test_table_backed_rank_above_one(self):
        corpus = random_diagram_corpus(2, 40, 4, seed=8)
        rng = random.Random(3)
        table = {}
        for g in corpus:
            for h in corpus:
                for comp in components(glue(g, h)):
                    if comp.num_vertices:
                        table.setdefault(canonical_form(comp),
                                         Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        f = TableBacked(Fraction(5, 2), table)
        cm = connection_matrix(f, corpus)
        assert all(type(v) is int for row in cm.values for v in row)
        glued = _glued_matrix(f, corpus)
        assert cm.entries == glued and rank(cm) > 1
        assert rank(cm) == _rank_by_fraction_rows(glued)

    def test_rank_leaves_the_matrix(self):
        cm = connection_matrix(TensorBacked(_half_integral(3, 2)), _corpus(2, 3, None))
        before = [list(row) for row in cm.values]
        rank(cm)
        assert cm.values == before


class TestRankFromTheFactor:
    """`rank` reads the factor A, never M; the glued M is the independent check."""

    @staticmethod
    def _rank_of_factor(monkeypatch, f, corpus):
        cm = connection_matrix(f, corpus)
        assert cm.factored and len(cm.rows) == len(corpus)
        monkeypatch.setattr(relations.ConnectionMatrix, "values", None)  # M is never formed
        return rank(cm)

    @pytest.mark.parametrize("make", [so3_eps, lambda: so_n_rational(4),
                                      lambda: random_structure_tensor(3, seed=5),
                                      lambda: _cyclic_with_denominators(3, 5)],
                             ids=["so3_eps", "so_4", "random", "cyclic_denominators"])
    @pytest.mark.parametrize("legs,seed", [(0, 1), (1, 2), (2, 3), (3, 4)])
    def test_rational_against_bareiss_on_glued(self, monkeypatch, make, legs, seed):
        f = TensorBacked(make())
        corpus = random_diagram_corpus(legs, 30, 5, seed=seed)
        glued = _glued_matrix(f, corpus)
        den = math.lcm(*(x.denominator for row in glued for x in row))
        expect = _rank_fraction_free([[int(x * den) for x in row] for row in glued])
        assert self._rank_of_factor(monkeypatch, f, corpus) == expect

    @pytest.mark.parametrize("make", [lambda: random_structure_tensor(3, seed=5),
                                      lambda: _cyclic_with_denominators(3, 5)],
                             ids=["random", "cyclic_denominators"])
    def test_rational_rank_above_one(self, monkeypatch, make):
        f = TensorBacked(make())
        corpus = random_diagram_corpus(2, 30, 5, seed=3)
        assert self._rank_of_factor(monkeypatch, f, corpus) > 1

    @pytest.mark.parametrize("make", [lambda: sl_n_trace(3), lambda: gl_n_trace(2), sl2_killing,
                                      lambda: scale_tensor(so3_eps().to_complex(),
                                                           cmath.exp(0.6j))],
                             ids=["sl_3_trace", "gl_2_trace", "sl2_killing", "so3_phase_0.6"])
    @pytest.mark.parametrize("legs,max_vertices,cap", CORPORA + ((4, 2, None),))
    def test_complex_svd_of_the_factor(self, monkeypatch, make, legs, max_vertices, cap):
        c = make()
        assert c.scaled[1].dtype == float
        corpus = _corpus(legs, max_vertices, cap)
        expect = _rank_svd(_glued_matrix(TensorBacked(c), corpus))
        assert self._rank_of_factor(monkeypatch, TensorBacked(c), corpus) == expect

    def test_complex128_keeps_the_matrix(self):
        c = _mixed_phases()
        assert c.scaled[1].dtype == complex
        corpus = _corpus(2, 3, None)
        cm = connection_matrix(TensorBacked(c), corpus)
        assert not cm.factored and len(cm.rows) == len(cm.rows[0]) == len(corpus)
        assert rank(cm) == _rank_svd(_glued_matrix(TensorBacked(c), corpus))


class TestRankKernels:
    def test_fraction_free_small(self):
        assert _rank_fraction_free([[1, 2], [2, 4]]) == 1
        assert _rank_fraction_free([[1, 2], [3, 4]]) == 2
        assert _rank_fraction_free([[0, 0], [0, 0]]) == 0
        assert _rank_fraction_free([[6, 4], [3, 2]]) == 1  # [[1/2, 1/3], [1/4, 1/6]] * 12

    def test_fraction_free_against_fraction_rows(self):
        rng = random.Random(17)
        for _ in range(60):
            m, n, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 4)
            left = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(m)]
            right = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
            rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                    if r else [0] * n for row in left]
            assert _rank_fraction_free(rows) == _rank_by_fraction_rows(rows) <= r

    def test_svd_threshold(self):
        assert _rank_svd([[1, 0], [0, 1e-12]]) == 1
        assert _rank_svd([[1, 0], [0, 1]]) == 2

    def test_factor_threshold_is_the_square_root(self):
        # singular values 1 and 1e-6 of A are 1 and 1e-12 of M = A A^T
        cm = relations.ConnectionMatrix(2, None, "complex", np.diag([1, 1e-6 + 0j]), 1, True)
        assert rank(cm) == _rank_svd(cm.values) == 1


class TestNormalization:
    def test_theta_connected_sums(self):
        eps = so3_eps()
        rep = connected_sum_multiplicativity_check(eps, theta(), theta())
        assert rep["pass"] and rep["residual"] == 0
        rep = connected_sum_multiplicativity_check(eps, theta(), k4())
        assert rep["pass"] and rep["residual"] == 0

    def test_join_values(self):
        from trivalent import edge_connected_sum, partition_function
        eps = so3_eps()
        assert partition_function(eps, edge_connected_sum(theta(), 0, theta(), 0)) == 12
        assert partition_function(eps, edge_connected_sum(theta(), 0, k4(), 0)) == -12

    def test_normalized_values(self):
        phi = normalized(TensorBacked(so3_eps()))
        assert phi.value(theta()) == -2
        assert phi.value(vertexless_loop()) == 1

    def test_zero_dimension(self):
        with pytest.raises(ZeroDimension):
            normalized(TensorBacked(abelian(0)))

    def test_abelian_multiplicativity_trivial(self):
        rep = connected_sum_multiplicativity_check(abelian(2), theta(), theta())
        assert rep["pass"]  # 0 == 0 on both sides; loop value 2 != 0


class TestAdditivity:
    def test_so3_pairs(self):
        assert direct_sum_additivity_check(so3_eps(), so3_eps(), theta()) == 0
        assert direct_sum_additivity_check(abelian(2), so3_eps(), k4()) == 0

    def test_connected_corpus(self):
        from trivalent import is_three_graph
        corpus = [d for d in enumerate_fixed_diagrams(0, 4) if is_three_graph(d)]
        assert corpus
        for g in corpus:
            assert direct_sum_additivity_check(so3_eps(), abelian(1), g) == 0

    def test_loop_dims_add(self):
        # the vertexless loop sits outside the additivity formula's graph
        # set, but its value is the dimension, which is additive anyway
        assert direct_sum_additivity_check(so3_eps(), abelian(2), vertexless_loop()) == 0
