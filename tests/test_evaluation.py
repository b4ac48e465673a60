import itertools
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from trivalent import (
    FixedDiagram,
    TableBacked,
    TensorBacked,
    abelian,
    antisymmetry_check,
    as_residual,
    brute_force_oracle,
    canonical_form,
    connection_matrix,
    cyclic_check,
    delta_sum,
    direct_sum_additivity_check,
    disjoint_union,
    edge_connected_sum,
    enumerate_fixed_diagrams,
    evaluate,
    flip_vertex,
    glue,
    identity_pairing,
    ihx_residual,
    jacobi_check,
    k4,
    normalized,
    open_brute_force,
    open_partition_function,
    pairing_identity_check,
    partition_function,
    permutation_diagram,
    random_diagram_corpus,
    random_structure_tensor,
    sl2_killing,
    so3_eps,
    so_n_rational,
    theta,
    tri_star,
    tripod,
    vertexless_loop,
)
from trivalent import evaluation
from trivalent.algebras import RATIONAL, StructureTensor, max_abs
from trivalent.errors import DanglingAxes, HasLegs, LegCountMismatch, TableMiss, TooLarge
from trivalent.evaluation import MAX_ENTRIES, _plan_for, plan


class TestPartitionFunction:
    def test_loop_value_is_dim(self):
        for n in (1, 2, 5):
            assert partition_function(abelian(n), vertexless_loop()) == n
        assert partition_function(sl2_killing(), vertexless_loop()) == 3

    def test_theta(self):
        assert partition_function(so3_eps(), theta()) == -6
        assert brute_force_oracle(so3_eps(), theta()) == -6

    def test_k4(self):
        assert partition_function(so3_eps(), k4()) == 6
        assert brute_force_oracle(so3_eps(), k4()) == 6

    def test_sl2_killing_theta(self):
        v = partition_function(sl2_killing(), theta())
        assert abs(v - 3) <= 1e-9 * 3

    def test_zero_tensor_kills_vertices(self):
        for g in (theta(), k4()):
            assert partition_function(abelian(4), g) == 0

    def test_zero_tensor_connected_sum(self):
        g = edge_connected_sum(theta(), 0, theta(), 0)
        assert partition_function(abelian(3), g) == 0

    def test_legs_rejected(self):
        with pytest.raises(HasLegs):
            partition_function(so3_eps(), tripod(1, 2, 3))

    def test_multiplicative_over_components(self):
        c = so3_eps()
        g = disjoint_union(theta(), k4())
        assert partition_function(c, g) == (-6) * 6

    def test_loop_edges_vanish_for_antisymmetric(self):
        # dumbbell has two loop edges; any full self-trace of eps is zero
        from trivalent import FixedDiagram
        dumbbell = FixedDiagram(vertices=[(0, 1, 2), (3, 4, 5)],
                                edges=[(1, 2), (4, 5), (0, 3)])
        assert partition_function(so3_eps(), dumbbell) == 0
        assert brute_force_oracle(so3_eps(), dumbbell) == 0


class TestOpenPartitionFunction:
    def test_tripod_gives_tensor(self):
        c = so3_eps()
        t = open_partition_function(c, tripod(1, 2, 3))
        assert (t.entries == c.entries).all()

    def test_single_edge_gives_identity(self):
        t = open_partition_function(so3_eps(), permutation_diagram([1]))
        assert (t.entries == np.diag([Fraction(1)] * 3)).all()

    def test_permutation_diagrams(self):
        c = abelian(2)
        for pi in ([1, 2], [2, 1]):
            t = open_partition_function(c, permutation_diagram(pi))
            o = open_brute_force(c, permutation_diagram(pi))
            assert (t.entries == o.entries).all()

    def test_rank_zero_reduces_to_closed(self):
        t = open_partition_function(so3_eps(), theta())
        assert t.rank == 0 and t.item() == -6

    def test_closed_with_loops_stays_an_array(self):
        g = disjoint_union(theta(), vertexless_loop())
        for c, want in ((so3_eps(), -18), (so3_eps().to_complex(), -18)):
            for t in (open_partition_function(c, g), open_brute_force(c, g)):
                assert isinstance(t.entries, np.ndarray) and t.entries.shape == ()
                assert t.item() == want and t.entries.reshape(-1)[0] == want

    def test_matches_oracle_on_random_legged(self):
        c = random_structure_tensor(2, seed=9)
        corpus = random_diagram_corpus(3, 8, 3, seed=21)
        for g in corpus:
            a = open_partition_function(c, g)
            b = open_brute_force(c, g)
            assert (a.entries == b.entries).all()


class TestOracle:
    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_force_oracle(abelian(10), _ten_edges())

    def test_oracle_never_plans(self, monkeypatch):
        c = random_structure_tensor(2, seed=3)
        closed = list(enumerate_fixed_diagrams(0, 4))
        want = [partition_function(c, g) for g in closed]
        legged = list(random_diagram_corpus(3, 6, 3, seed=4))
        want_open = [open_partition_function(c, g).entries for g in legged]

        def forbidden(*args, **kwargs):
            raise RuntimeError("the oracle reached the planner")

        for name in ("plan", "_plan_for", "execute"):
            monkeypatch.setattr(evaluation, name, forbidden)
        assert [brute_force_oracle(c, g) for g in closed] == want
        for g, w in zip(legged, want_open):
            assert (open_brute_force(c, g).entries == w).all()
        with pytest.raises(HasLegs):
            brute_force_oracle(c, legged[0])

    def test_plan_independence(self):
        c = so3_eps()
        closed = [k4(), edge_connected_sum(theta(), 0, k4(), 2),
                  *random_diagram_corpus(0, 4, 8, seed=3, min_vertices=6)]
        for g in closed:
            ref = partition_function(c, g)
            plans = {plan(g, random.Random(s)) for s in range(6)}
            assert len(plans) > 1
            for p in plans:
                assert partition_function(c, g, plan=p) == ref
        for g in random_diagram_corpus(3, 4, 6, seed=8):
            ref = open_partition_function(c, g).entries
            for s in range(4):
                p = plan(g, random.Random(s))
                assert (open_partition_function(c, g, plan=p).entries == ref).all()

    def test_oracle_equals_planner_small_sweep(self):
        corpus = enumerate_fixed_diagrams(0, 2)
        for n, seed in ((2, 0), (3, 1), (4, 2)):
            c = so3_eps() if n == 3 else random_structure_tensor(n, seed=seed)
            for g in corpus:
                assert partition_function(c, g) == brute_force_oracle(c, g)


class TestPlan:
    @staticmethod
    def _count_tensordot(monkeypatch):
        calls = []
        real = np.tensordot

        def counted(a, b, axes):
            out = real(a, b, axes)
            calls.append((out.ndim, out.size * math.prod(a.shape[i] for i in axes[0])))
            return out

        monkeypatch.setattr(np, "tensordot", counted)
        return calls

    def test_prediction_matches_execution(self, monkeypatch):
        calls = self._count_tensordot(monkeypatch)
        c = random_structure_tensor(4, seed=2).to_complex()
        corpus = [*random_diagram_corpus(0, 6, 12, seed=5),
                  *random_diagram_corpus(4, 6, 6, seed=6),
                  disjoint_union(theta(), k4()), identity_pairing(2), tri_star(2)]
        for g in corpus:
            for p in (plan(g), plan(g, random.Random(1))):
                calls.clear()
                open_partition_function(c, g, plan=p)
                assert len(calls) == len(p.steps)
                assert max((r for r, _ in calls), default=0) == p.peak
                assert sum(m for _, m in calls) == p.mults(c.dim)

    def test_closed_result_read_directly(self, monkeypatch):
        calls = self._count_tensordot(monkeypatch)
        partition_function(so3_eps(), k4())
        assert len(calls) == 3          # one per merge, no final outer product

    def test_size_guard_before_allocation(self, monkeypatch):
        calls = self._count_tensordot(monkeypatch)
        g, = random_diagram_corpus(0, 1, 60, seed=0, min_vertices=60)
        t0 = time.perf_counter()
        with pytest.raises(TooLarge) as info:
            partition_function(so_n_rational(5), g)
        assert time.perf_counter() - t0 < 1.0
        m = re.search(r"10\^(\d+) = (\d+) entries", str(info.value))
        assert m and int(m[2]) == 10 ** int(m[1]) > MAX_ENTRIES
        assert not calls

    def test_dangling_axes_are_typed(self):
        # darts 3 and 5 are each claimed by two edges, so edges 0 and 2 have one end
        g = FixedDiagram._raw(((0, 1, 2), (3, 4, 5)), (), (3, 3, 5, 0, 5, 2), 0)
        with pytest.raises(DanglingAxes):
            partition_function(so3_eps(), g)
        with pytest.raises(DanglingAxes):
            open_partition_function(so3_eps(), g)

    def test_against_exhaustive_optimum(self):
        corpus = random_diagram_corpus(0, 40, 8, seed=17)
        improved = 0
        for g in corpus:
            for dim in (3, 8, 64):
                greedy, best = plan(g).mults(dim), _plan_for(g, dim).mults(dim)
                assert optimal_mults(g, dim) <= best <= greedy
                improved += best < greedy
        assert improved


def optimal_mults(g, dim):
    """Fewest multiplies over all pairwise contraction trees of a closed
    diagram, by dynamic programming over node subsets."""
    edge = {d: min(d, g.partner[d]) for d in range(g.num_darts)}
    masks = []
    for tri in g.vertices:
        m = 0
        for x in tri:
            m ^= 1 << edge[x]           # a loop edge cancels itself
        masks.append(m)
    full = (1 << len(masks)) - 1
    open_ = [0] * (full + 1)
    cost = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        open_[s] = open_[s ^ low] ^ masks[low.bit_length() - 1]
        if s == low:
            continue
        best = None
        a = (s - 1) & s
        while a:
            if a & low:
                b = s ^ a
                c = cost[a] + cost[b] + dim ** bin(open_[a] | open_[b]).count("1")
                best = c if best is None else min(best, c)
            a = (a - 1) & s
        cost[s] = best
    return cost[full]


def _ten_edges():
    g = edge_connected_sum(theta(), 0, theta(), 0)
    return edge_connected_sum(g, 0, theta(), 0)


class TestPairing:
    def test_tripods(self):
        c = so3_eps()
        assert pairing_identity_check(c, tripod(1, 2, 3), tripod(1, 3, 2)) == 0
        a = open_partition_function(c, tripod(1, 2, 3))
        b = open_partition_function(c, tripod(1, 3, 2))
        assert a.bilinear_dot(b) == -6

    def test_identity_pairings(self):
        c = abelian(3)
        for k in (1, 2, 3):
            p = identity_pairing(k)
            assert open_partition_function(c, p).bilinear_dot(
                open_partition_function(c, p)) == 3 ** k
            assert pairing_identity_check(c, p, p) == 0

    def test_random_four_legged(self):
        c = random_structure_tensor(2, seed=4)
        corpus = list(random_diagram_corpus(4, 10, 2, seed=31))
        rng = random.Random(5)
        for _ in range(20):
            g, h = rng.choice(corpus), rng.choice(corpus)
            assert pairing_identity_check(c, g, h) == 0

    def test_mismatch(self):
        with pytest.raises(LegCountMismatch):
            pairing_identity_check(so3_eps(), tripod(1, 2, 3), identity_pairing(2))


class TestWeightSystems:
    def test_empty_diagram_is_one(self):
        from trivalent import empty_diagram
        f = TensorBacked(so3_eps())
        assert f.evaluate(empty_diagram()) == 1

    def test_multiplicativity(self):
        f = TensorBacked(so3_eps())
        assert f.evaluate(disjoint_union(theta(), theta())) == f.evaluate(theta()) ** 2

    def test_linearity_over_formal_sums(self):
        f = TensorBacked(so3_eps())
        s = [(2, theta()), (Fraction(1, 2), k4())]
        assert evaluate(f, s) == 2 * (-6) + Fraction(1, 2) * 6

    def test_table_backed(self):
        table = {canonical_form(theta()): Fraction(5)}
        f = TableBacked(Fraction(2), table, backend="rational")
        assert f.evaluate(disjoint_union(theta(), vertexless_loop())) == 10
        assert f.evaluate(disjoint_union(theta(), theta())) == 25

    def test_table_miss(self):
        f = TableBacked(Fraction(2), {}, backend="rational")
        with pytest.raises(TableMiss):
            f.evaluate(theta())

    def test_tensor_backed_memo_consistency(self):
        f = TensorBacked(so3_eps())
        v1 = f.evaluate(k4())
        v2 = f.evaluate(k4())
        assert v1 == v2 == 6
        assert f._memo


class TestStructuralLaws:
    def test_as_sign_flip(self):
        c = so3_eps()
        for g in (theta(), k4()):
            base = partition_function(c, g)
            for v in range(g.num_vertices):
                assert partition_function(c, flip_vertex(g, v)) == -base

    def test_scale_law_complex(self):
        c = so3_eps().to_complex()
        from trivalent import scale_tensor
        ci = scale_tensor(c, 1j)
        for g in (theta(), k4()):
            ref = partition_function(c, g)
            got = partition_function(ci, g)
            assert abs(got - (1j) ** g.num_vertices * ref) < 1e-9


def fraction_coloring_sum(ent, g):
    """Closed value of `g` on the nested-list tensor `ent`, summed over edge
    colorings in `Fraction` arithmetic: independent of numpy and the planner."""
    eid = {}
    for i, (a, b) in enumerate(g.edges()):
        eid[a] = eid[b] = i
    n = len(ent)
    total = Fraction(0)
    for psi in itertools.product(range(n), repeat=g.num_darts // 2):
        term = Fraction(1)
        for a, b, d in g.vertices:
            term *= Fraction(ent[psi[eid[a]]][psi[eid[b]]][psi[eid[d]]])
        total += term
    return total * n ** g.loop_count


class TestExactness:
    @staticmethod
    def big_cyclic():
        """int64 cyclic tensor with entries near 2**40: K4 products reach 2**160."""
        raw = np.random.default_rng(40).integers(-2 ** 40, 2 ** 40, (3, 3, 3), dtype=np.int64)
        return raw + raw.transpose(1, 2, 0) + raw.transpose(2, 0, 1)

    @pytest.mark.parametrize("form", ["array", "list of numpy scalars"])
    def test_int64_input_stays_exact(self, form):
        ent = self.big_cyclic()
        if form != "array":
            ent = np.array(list(ent.flat), dtype=object).reshape(ent.shape)
        c = StructureTensor(3, ent, RATIONAL)
        assert all(type(x) is int for x in c.entries.flat)
        python_ints = [[[int(x) for x in row] for row in plane] for plane in ent]
        for g in (theta(), k4()):
            got = partition_function(c, g)
            assert type(got) is Fraction and got == fraction_coloring_sum(python_ints, g)
        assert abs(partition_function(c, k4())) > 2 ** 150

    def test_half_integral_keeps_fractions(self):
        half = [[[Fraction(int(x), 2) for x in row] for row in plane]
                for plane in self.big_cyclic()]
        c = StructureTensor(3, half, RATIONAL)
        kinds = {type(x) for x in c.entries.flat}
        assert kinds == {int, Fraction}
        assert all(x.denominator == 2 for x in c.entries.flat if type(x) is Fraction)
        for g in (theta(), k4(), disjoint_union(theta(), vertexless_loop())):
            want = fraction_coloring_sum(half, g)
            assert partition_function(c, g) == brute_force_oracle(c, g) == want

    @pytest.mark.parametrize("c", [so3_eps(), so_n_rational(4), abelian(0),
                                   random_structure_tensor(3, seed=5)],
                             ids=["so3", "so4", "abelian0", "random3"])
    def test_public_exact_results_are_fractions(self, c):
        f = TensorBacked(c)
        a = open_partition_function(c, tripod(1, 2, 3))
        b = open_partition_function(c, tripod(1, 3, 2))
        values = [
            partition_function(c, theta()), brute_force_oracle(c, k4()),
            open_partition_function(c, theta()).item(), a.bilinear_dot(b),
            max_abs(c.entries), cyclic_check(c), antisymmetry_check(c), jacobi_check(c),
            as_residual(c), ihx_residual(c), f.loop_value, f.evaluate(k4()),
            evaluate(f, [(2, theta())]), delta_sum(f, 2, identity_pairing(2)),
            pairing_identity_check(c, tripod(1, 2, 3), tripod(1, 3, 2)),
            direct_sum_additivity_check(c, c, theta()),
        ]
        if c.dim:
            values.append(normalized(f).value(theta()))
        values += [x for row in connection_matrix(f, enumerate_fixed_diagrams(1, 3)).entries
                   for x in row]
        assert [type(v) for v in values] == [Fraction] * len(values)

    def test_dim_zero_residuals(self):
        for c, zero in ((abelian(0), Fraction(0)), (abelian(0).to_complex(), 0.0)):
            for check in (cyclic_check, antisymmetry_check, jacobi_check, as_residual,
                          ihx_residual):
                r = check(c)
                assert r == 0 and type(r) is type(zero)
