import cmath
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
    direct_sum,
    direct_sum_additivity_check,
    disjoint_union,
    edge_connected_sum,
    enumerate_fixed_diagrams,
    evaluate,
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
    pairing_identity_check,
    partition_function,
    permutation_diagram,
    random_diagram_corpus,
    random_structure_tensor,
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
from trivalent import evaluation
from trivalent.algebras import COMPLEX, RATIONAL, TOL, StructureTensor, max_abs
from trivalent.errors import DanglingAxes, HasLegs, LegCountMismatch, TableMiss, TooLarge
from trivalent.evaluation import MAX_ENTRIES, _plan_for, execute, plan


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
            for p in plans:  # so(3) has D = 1: execute gives the value itself
                assert execute(c, p)[()] * c.dim ** g.loop_count == ref
        for g in random_diagram_corpus(3, 4, 6, seed=8):
            ref = open_partition_function(c, g).entries
            for s in range(4):
                p = plan(g, random.Random(s))
                assert (np.transpose(execute(c, p), p.perm) * c.dim ** g.loop_count == ref).all()

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
                execute(c, p)
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


def _sevenths():
    """A rational tensor with D = 7, not antisymmetric."""
    return scale_tensor(random_structure_tensor(3, seed=1), Fraction(1, 7))


CLOSED_PAIRS = {
    "k4_theta": lambda: (k4(), theta()),
    "loop_loop": lambda: (vertexless_loop(), vertexless_loop()),
    "theta_and_loop_k4": lambda: (disjoint_union(theta(), vertexless_loop()), k4()),
}
RANK_ZERO = {
    "theta": theta,
    "loop": vertexless_loop,
    "k4_and_loop": lambda: disjoint_union(k4(), vertexless_loop()),
}


class TestRankZeroValues:
    """A closed value is a rank-0 open value in the backend's dtype, never a
    bare scalar: object on the rational backend, complex128 on the complex one."""

    @pytest.mark.parametrize("make", [so3_eps, _sevenths], ids=["so3_eps", "sevenths"])
    @pytest.mark.parametrize("pair", list(CLOSED_PAIRS.values()), ids=list(CLOSED_PAIRS))
    def test_closed_pairing_is_exactly_zero(self, make, pair):
        r = pairing_identity_check(make(), *pair())
        assert r == 0 and type(r) is Fraction

    @pytest.mark.parametrize("pair", list(CLOSED_PAIRS.values()), ids=list(CLOSED_PAIRS))
    def test_closed_pairing_sl3_within_tol(self, pair):
        c = sl_n_trace(3)
        g, h = pair()
        scale = max(1.0, abs(partition_function(c, glue(g, h))))
        assert pairing_identity_check(c, g, h) <= TOL * scale

    @pytest.mark.parametrize("make", [so3_eps, _sevenths, lambda: sl_n_trace(3)],
                             ids=["so3_eps", "sevenths", "sl_3"])
    @pytest.mark.parametrize("g", list(RANK_ZERO.values()), ids=list(RANK_ZERO))
    def test_rank_zero_keeps_the_backend_dtype(self, make, g):
        c, d = make(), g()
        for t in (open_partition_function(c, d), open_brute_force(c, d)):
            assert t.entries.shape == ()
            assert t.entries.dtype == (object if c.backend == RATIONAL else np.complex128)
            assert type(t.item()) is (Fraction if c.backend == RATIONAL else complex)


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
        # the memo is the table, keyed as table.json files key it
        assert f.table == {canonical_form(k4()): 6}


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


def _phased_so3():
    return scale_tensor(so3_eps().to_complex(), cmath.exp(0.6j))


def _with_imaginary_residue():
    """Real so(3) plus 1e-12 i on every entry: far above rounding, so not real."""
    c = so3_eps().to_complex()
    return StructureTensor(3, c.entries + 1e-12j, COMPLEX, check=False)


#: complex tensors that are real up to one phase, contracted in float64
REAL_UP_TO_A_PHASE = {
    "sl_2_trace": lambda: sl_n_trace(2),
    "sl_3_trace": lambda: sl_n_trace(3),
    "gl_2_trace": lambda: gl_n_trace(2),
    "sl2_killing": sl2_killing,
    "so3_phase_0.6": _phased_so3,
    "minus_so4": lambda: scale_tensor(so_n_rational(4).to_complex(), -1),
}
#: complex tensors with no such phase, contracted in complex128 as they are
NOT_REAL_UP_TO_A_PHASE = {
    "sl2_killing_plus_so3": lambda: direct_sum(sl2_killing(), so3_eps().to_complex()),
    "so3_imaginary_residue": _with_imaginary_residue,
}


def _oracle_corpora(dim):
    """Closed diagrams, odd V (one or three legs) and leg-to-leg edges (two and
    three legs), kept to at most dim**6 colorings a diagram for the oracle."""
    budget = [(0, 2), (1, 1), (2, 2), (3, 1)] if dim > 4 else [(0, 4), (1, 3), (2, 3), (3, 3)]
    return [g for legs, v in budget for g in enumerate_fixed_diagrams(legs, v)]


class TestPhaseScaledContraction:
    """A complex tensor c = w*r, r real and |w| = 1, contracts as r in float64."""

    @pytest.mark.parametrize("make", list(REAL_UP_TO_A_PHASE.values()),
                             ids=list(REAL_UP_TO_A_PHASE))
    def test_float_form_equals_the_oracle(self, make):
        c = make()
        s, sc = c.scaled
        assert sc.dtype == np.float64 and type(s) is complex and abs(abs(s) - 1) < 1e-15
        assert np.abs(s * c.entries - sc).max() <= 1e-15 * max_abs(c.entries)
        self._check_against_oracle(c)

    @pytest.mark.parametrize("make", list(NOT_REAL_UP_TO_A_PHASE.values()),
                             ids=list(NOT_REAL_UP_TO_A_PHASE))
    def test_other_tensors_stay_complex(self, make):
        c = make()
        assert c.scaled == (1, c.entries) and c.scaled[1] is c.entries
        assert c.scaled[1].dtype == np.complex128
        self._check_against_oracle(c)

    @staticmethod
    def _check_against_oracle(c):
        corpus = _oracle_corpora(c.dim) + [vertexless_loop()]
        assert {g.num_vertices % 2 for g in corpus} == {0, 1}
        assert any(g.partner[x] in g.legs for g in corpus for x in g.legs)
        for g in corpus:
            # identities for leg-to-leg edges and an empty plan's 1 keep the dtype
            assert evaluation.execute(c, _plan_for(g, c.dim)).dtype == c.scaled[1].dtype
            got, want = open_partition_function(c, g), open_brute_force(c, g)
            assert got.entries.dtype == np.complex128
            assert np.abs(got.entries - want.entries).max(initial=0) <= \
                TOL * max(1.0, max_abs(want.entries))
            if not g.num_legs:
                value, ref = partition_function(c, g), brute_force_oracle(c, g)
                assert type(value) is complex and abs(value - ref) <= TOL * max(1.0, abs(ref))

    @pytest.mark.parametrize("make", [lambda: sl_n_trace(3), sl2_killing, _phased_so3],
                             ids=["sl_3_trace", "sl2_killing", "so3_phase_0.6"])
    def test_complex_results_are_python_complex(self, make):
        c = make()
        f = TensorBacked(c)
        a = open_partition_function(c, tripod(1, 2, 3))   # one vertex: odd V
        b = open_partition_function(c, tripod(1, 3, 2))
        loop = disjoint_union(theta(), vertexless_loop())
        values = [
            partition_function(c, theta()), partition_function(c, k4()),
            partition_function(c, loop), brute_force_oracle(c, theta()),
            open_partition_function(c, theta()).item(), open_partition_function(c, loop).item(),
            a.bilinear_dot(b), f.evaluate(k4()), evaluate(f, [(2, theta())]),
        ]
        values += [x for row in connection_matrix(f, enumerate_fixed_diagrams(1, 3)).entries
                   for x in row]
        assert [type(v) for v in values] == [complex] * len(values)
        assert a.entries.dtype == b.entries.dtype == np.complex128
        assert abs(a.bilinear_dot(b) - partition_function(c, glue(tripod(1, 2, 3),
                                                                  tripod(1, 3, 2)))) < 1e-9

    def test_phase_powers(self):
        # phi_{w c}(G) = w**V phi_c(G), V odd or even
        c, w = so3_eps(), cmath.exp(0.6j)
        cw = scale_tensor(c.to_complex(), w)
        for g in _oracle_corpora(3):
            want = open_partition_function(c, g).entries.astype(complex) * w ** g.num_vertices
            got = open_partition_function(cw, g).entries
            assert np.abs(got - want).max(initial=0) <= TOL * max(1.0, max_abs(want))
