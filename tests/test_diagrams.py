import hashlib
import itertools
import json

import pytest

from trivalent import (
    DiagramCorpus,
    FixedDiagram,
    are_isomorphic,
    canonical_form,
    components,
    disjoint_union,
    edge_connected_sum,
    empty_diagram,
    enumerate_fixed_diagrams,
    flip_vertex,
    from_json_dict,
    glue,
    identity_pairing,
    ihx_element,
    is_three_graph,
    k4,
    permutation_diagram,
    theta,
    to_json_dict,
    tri_star,
    tripod,
    validate,
    vertexless_loop,
)
from trivalent.diagrams import (
    _bfs_code,
    _component_code,
    _components_darts,
    _leg_label_map,
    _pack,
    _rho_map,
    _rival_below,
    _slots_diagram,
)
from trivalent.errors import (
    BadIndex,
    BadLegRange,
    DanglingHalfEdge,
    DuplicateLegLabel,
    LegCountMismatch,
    LoopEdge,
    NotAPermutation,
    NotAThreeGraph,
    PairingNotInvolution,
)


def cycles(pi):
    seen = [False] * len(pi)
    out = 0
    for i in range(len(pi)):
        if not seen[i]:
            out += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = pi[j] - 1
    return out


class TestValidate:
    def test_builtins_valid(self):
        for d in (theta(), k4(), tripod(1, 2, 3), tri_star(3), vertexless_loop(),
                  empty_diagram(), permutation_diagram([3, 1, 2])):
            validate(d)

    def test_half_edge_in_two_slots(self):
        with pytest.raises(DanglingHalfEdge):
            FixedDiagram(vertices=[("a", "b", "c"), ("a", "d", "e")],
                         legs=(),
                         edges=[("b", "c"), ("d", "e")])

    def test_bad_leg_range(self):
        with pytest.raises(BadLegRange):
            FixedDiagram(vertices=[], legs={1: "x", 3: "y"}, edges=[("x", "y")])

    def test_duplicate_leg_label(self):
        with pytest.raises(DuplicateLegLabel):
            FixedDiagram(vertices=[], legs={1: "x", "1": "y"}, edges=[("x", "y")])

    def test_pairing_not_involution(self):
        with pytest.raises(PairingNotInvolution):
            FixedDiagram(vertices=[], legs=("x", "y", "z"),
                         edges=[("x", "y"), ("x", "z")])
        with pytest.raises(PairingNotInvolution):
            FixedDiagram(vertices=[], legs=("x", "y"), edges=[("x", "x")])

    def test_unpaired_half_edge(self):
        with pytest.raises(PairingNotInvolution):
            FixedDiagram(vertices=[], legs=("x", "y"), edges=[])

    @pytest.mark.parametrize("edges,reason,culprit", [
        ([("x", "y"), ("y", "z")], "appears in two edges", "y"),
        ([("x", "y"), ("z", "z")], "paired with itself", "z"),
        ([("x", "y")], "not covered by any edge", "z"),
    ])
    def test_pairing_error_names_user_id(self, edges, reason, culprit):
        with pytest.raises(PairingNotInvolution, match=reason) as err:
            FixedDiagram(vertices=[], legs=("x", "y", "z", "w"), edges=edges)
        assert err.value.half_edge == culprit

    @pytest.mark.parametrize("partner", [(2, 0), (1, 2), (1, -2), (0, 1), (1, 1)])
    def test_raw_pairing_out_of_range_or_not_involution(self, partner):
        with pytest.raises(PairingNotInvolution):
            validate(FixedDiagram._raw((), (0, 1), partner, 0))


class TestFlip:
    def test_flip_tripod(self):
        assert are_isomorphic(flip_vertex(tripod(1, 2, 3), 0), tripod(1, 3, 2))

    def test_flip_is_involution(self):
        for d in (theta(), k4(), tripod(1, 2, 3)):
            for v in range(d.num_vertices):
                assert are_isomorphic(flip_vertex(flip_vertex(d, v), v), d)

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            flip_vertex(theta(), 2)


class TestGlue:
    def test_identity_pairings_close_loops(self):
        for k in (1, 2, 3, 4):
            g = glue(identity_pairing(k), identity_pairing(k))
            assert g.num_vertices == 0
            assert g.loop_count == k

    def test_loop_count_is_cycle_count(self):
        # glue(P_pi, P_sigma) closes one loop per cycle of sigma o pi^(-1)
        for k in (2, 3, 4):
            for pi in itertools.permutations(range(1, k + 1)):
                for sigma in itertools.permutations(range(1, k + 1)):
                    comp = [0] * k
                    inv = [0] * k
                    for i in range(k):
                        inv[pi[i] - 1] = i + 1
                    for i in range(k):
                        comp[i] = sigma[inv[i] - 1]
                    got = glue(permutation_diagram(pi), permutation_diagram(sigma))
                    assert got.loop_count == cycles(comp)

    def test_tripods_glue_to_theta(self):
        assert are_isomorphic(glue(tripod(1, 2, 3), tripod(1, 3, 2)), theta())
        # same-rotation gluing gives the vertex-flipped variant instead
        aligned = glue(tripod(1, 2, 3), tripod(1, 2, 3))
        assert not are_isomorphic(aligned, theta())
        assert are_isomorphic(aligned, flip_vertex(theta(), 1))

    def test_vertex_counts_add(self):
        g = glue(tri_star(2), tri_star(2))
        assert g.num_vertices == 4

    def test_loop_counts_carry_over(self):
        a = disjoint_union(tripod(1, 2, 3), vertexless_loop())
        b = tripod(1, 3, 2)
        assert glue(a, b).loop_count == 1

    def test_leg_count_mismatch(self):
        with pytest.raises(LegCountMismatch):
            glue(tripod(1, 2, 3), identity_pairing(2))


class TestGlueLayout:
    """glue's literal darts: contraction plans break ties by dart number."""

    def test_slot_layout_g_first(self):
        g, h = ihx_element()[0][1], ihx_element()[1][1]
        glued = glue(g, h)
        assert glued.vertices == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))
        assert glued.partner == (7, 10, 3, 2, 6, 11, 4, 0, 9, 8, 1, 5)
        assert (glued.legs, glued.loop_count) == ((), 0)
        # g's darts numbered backwards: the slots follow vertex order, not dart ids
        backwards = FixedDiagram(vertices=[(9, 8, 7), (6, 5, 4)], legs=[3, 2, 1, 0],
                                 edges=[(7, 6), (9, 3), (8, 2), (5, 1), (4, 0)])
        assert glue(backwards, h).partner == glued.partner

    def test_slot_layout_vertexless_g(self):
        glued = glue(permutation_diagram((2, 1)), ihx_element()[1][1])
        assert glued.vertices == ((0, 1, 2), (3, 4, 5))
        assert (glued.partner, glued.loop_count) == ((4, 5, 3, 2, 0, 1), 0)

    def test_tripods(self):
        glued = glue(tripod(1, 2, 3), tripod(1, 3, 2))
        assert glued.vertices == ((0, 1, 2), (3, 4, 5))
        assert (glued.partner, glued.loop_count) == ((3, 5, 4, 0, 2, 1), 0)

    def test_chains_through_chords_on_both_sides(self):
        # h: chords leg1-leg5 (closes a loop with P's edge 1-5) and leg2-leg4
        # (the chain u0 - leg3 - leg4 - leg2 - leg6 - v5 passes it and P's
        # edges 3-4 and 2-6); legs 3 and 6 at vertices u and v
        h = _slots_diagram(2, 6, [(6, 10), (7, 9), (0, 8), (5, 11), (1, 4), (2, 3)])
        for glued in (glue(permutation_diagram((2, 3, 1)), h),
                      glue(h, permutation_diagram((2, 3, 1)))):
            assert glued.vertices == ((0, 1, 2), (3, 4, 5))
            assert (glued.partner, glued.loop_count) == ((5, 4, 3, 2, 1, 0), 1)


class TestDisjointUnion:
    def test_empty_is_unit(self):
        g = disjoint_union(empty_diagram(), theta())
        assert are_isomorphic(g, theta())

    def test_loops_add(self):
        g = disjoint_union(vertexless_loop(), vertexless_loop())
        assert g.loop_count == 2

    def test_legs_relabel(self):
        g = disjoint_union(tripod(1, 2, 3), tripod(1, 2, 3))
        assert g.num_legs == 6
        validate(g)

    def test_two_components(self):
        g = disjoint_union(theta(), k4())
        assert g.num_legs == 0
        assert len(components(g)) == 2


class TestPermutationDiagram:
    def test_single_edge(self):
        d = permutation_diagram([1])
        assert d.num_legs == 2
        assert d.num_vertices == 0
        assert d.partner[d.legs[0]] == d.legs[1]

    def test_transposition(self):
        d = permutation_diagram([2, 1])
        # edges leg1-leg4 and leg2-leg3
        assert d.partner[d.legs[0]] == d.legs[3]
        assert d.partner[d.legs[1]] == d.legs[2]

    def test_three_cycle(self):
        d = permutation_diagram([2, 3, 1])
        # edge i joins legs i and 3+pi(i)
        assert d.partner[d.legs[0]] == d.legs[4]
        assert d.partner[d.legs[1]] == d.legs[5]
        assert d.partner[d.legs[2]] == d.legs[3]

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutation):
            permutation_diagram([1, 1])


def _rewired_sum(g, e, h, e2, swap):
    """The connected sum built directly: both partner arrays side by side,
    edges x-y of g and x'-y' of h rewired to x-x', y-y' (x-y', y-x' on swap)."""
    (x, y), (x2, y2) = g.edges()[e], h.edges()[e2]
    mg = g.num_darts
    partner = list(g.partner) + [p + mg for p in h.partner]
    x2, y2 = (y2 + mg, x2 + mg) if swap else (x2 + mg, y2 + mg)
    partner[x], partner[x2], partner[y], partner[y2] = x2, x, y2, y
    vertices = g.vertices + tuple(tuple(t + mg for t in tri) for tri in h.vertices)
    return FixedDiagram(vertices=vertices, edges=[(a, b) for a, b in enumerate(partner) if a < b])


def _theta_theta():
    return edge_connected_sum(theta(), 0, theta(), 0)


def _flipped_k4():
    return flip_vertex(k4(), 0)


class TestEdgeConnectedSum:
    # on the last two, the two crossings give non-isomorphic sums for some edge pairs
    @pytest.mark.parametrize("make_g, make_h", [
        (theta, theta), (theta, k4), (k4, k4), (_theta_theta, theta),
        (_theta_theta, _theta_theta), (_flipped_k4, _flipped_k4)])
    def test_matches_rewired_sum(self, make_g, make_h):
        g, h = make_g(), make_h()
        for e, e2, swap in itertools.product(range(len(g.edges())), range(len(h.edges())),
                                             (False, True)):
            assert (canonical_form(edge_connected_sum(g, e, h, e2, swap=swap))
                    == canonical_form(_rewired_sum(g, e, h, e2, swap)))

    def test_bad_edge_index(self):
        for e, e2 in ((-1, 0), (3, 0), (0, -1), (0, 6)):
            with pytest.raises(BadIndex):
                edge_connected_sum(theta(), e, k4(), e2)

    def test_theta_theta_vertices(self):
        g = edge_connected_sum(theta(), 0, theta(), 0)
        assert g.num_vertices == 4
        assert is_three_graph(g)

    def test_theta_k4_vertices(self):
        g = edge_connected_sum(theta(), 0, k4(), 0)
        assert g.num_vertices == 6
        assert is_three_graph(g)

    def test_swap_flag_changes_join(self):
        a = edge_connected_sum(theta(), 0, theta(), 0, swap=False)
        b = edge_connected_sum(theta(), 0, theta(), 0, swap=True)
        assert is_three_graph(a) and is_three_graph(b)

    def test_requires_three_graphs(self):
        with pytest.raises(NotAThreeGraph):
            edge_connected_sum(tripod(1, 2, 3), 0, theta(), 0)
        with pytest.raises(NotAThreeGraph):
            edge_connected_sum(disjoint_union(theta(), theta()), 0, theta(), 0)

    def test_loop_edge_rejected(self):
        # dumbbell: two loop vertices joined by a bridge
        dumbbell = FixedDiagram(vertices=[(0, 1, 2), (3, 4, 5)],
                                edges=[(1, 2), (4, 5), (0, 3)])
        with pytest.raises(LoopEdge):
            edge_connected_sum(dumbbell, 1, theta(), 0)
        with pytest.raises(LoopEdge):
            edge_connected_sum(theta(), 0, dumbbell, 1)


class TestCanonicalForm:
    def test_as_flipped_tripods_distinct(self):
        assert not are_isomorphic(tripod(1, 2, 3), tripod(1, 3, 2))

    def test_rotation_invariance(self):
        rotated = FixedDiagram(vertices=[(1, 2, 0), (4, 5, 3)],
                               edges=[(0, 3), (1, 5), (2, 4)])
        assert are_isomorphic(rotated, theta())

    def test_k4_relabelings_share_code(self):
        base = k4()
        codes = set()
        for perm in itertools.permutations(range(4)):
            # list vertices in permuted order with renamed darts
            remap = {}
            verts = []
            for v in perm:
                tri = base.vertices[v]
                verts.append(tuple(f"d{x}" for x in tri))
            edges = [(f"d{a}", f"d{b}") for a, b in base.edges()]
            codes.add(canonical_form(FixedDiagram(vertices=verts, edges=edges)))
        assert len(codes) == 1

    def test_legs_anchor_codes(self):
        # relabeling legs is not an isomorphism
        assert not are_isomorphic(permutation_diagram([2, 1]), identity_pairing(2))

    def test_loop_count_in_code(self):
        assert not are_isomorphic(theta(), disjoint_union(theta(), vertexless_loop()))

    def test_invalid_diagram_rejected(self):
        from trivalent.errors import InvalidDiagram
        broken = FixedDiagram(vertices=[("a", "b", "c")], legs=("d",),
                              edges=[("a", "b")], check=False)
        with pytest.raises(InvalidDiagram):
            canonical_form(broken)

    def test_code_invariant_under_presentation(self):
        # renaming darts, rotating stored triples and reordering the vertex
        # list never changes the code
        import random
        from trivalent import random_diagram_corpus

        rng = random.Random(8)
        pool = list(random_diagram_corpus(2, 8, 4, seed=55)) + [k4(), theta()]
        for d in pool:
            names = [f"x{i}" for i in range(d.num_darts)]
            rng.shuffle(names)
            verts = []
            for tri in d.vertices:
                r = rng.randrange(3)
                tri = tri[r:] + tri[:r]
                verts.append([names[x] for x in tri])
            rng.shuffle(verts)
            legs = {i + 1: names[x] for i, x in enumerate(d.legs)}
            edges = [(names[a], names[b]) for a, b in d.edges()]
            shuffled = FixedDiagram(vertices=verts, legs=legs, edges=edges,
                                    loop_count=d.loop_count)
            assert canonical_form(shuffled) == canonical_form(d)


def all_roots_form(d):
    """canonical_form as it was before the early-exit rival traversal: a
    closed component's code is the least of one full traversal per dart."""
    rho, lab = _rho_map(d), _leg_label_map(d)
    codes = []
    for darts in _components_darts(d):
        if any(lab[x] for x in darts):
            codes.append(_component_code(darts, rho, d.partner, lab))
        else:
            codes.append(("map",) + min(_bfs_code(r, rho, d.partner, lab) for r in darts))
    return _pack(tuple(sorted(codes)), d.loop_count)


def renumbered(d, rng):
    """The same diagram with its darts renumbered at random."""
    new = list(range(d.num_darts))
    rng.shuffle(new)
    partner = [0] * d.num_darts
    for x, y in enumerate(d.partner):
        partner[new[x]] = new[y]
    vertices = tuple(tuple(new[x] for x in tri) for tri in d.vertices)
    return FixedDiagram._raw(vertices, tuple(new[x] for x in d.legs), tuple(partner),
                             d.loop_count)


def dumbbell():
    """Two vertices with a loop edge each, joined by an edge."""
    return FixedDiagram._raw(((0, 1, 2), (3, 4, 5)), (), (3, 2, 1, 0, 5, 4), 0)


class TestLeastRoot:
    """`_rival_below` decides a closed component's least root; the all-roots
    minimum above is its oracle."""

    def test_closed_classes_under_renumbering(self):
        import random

        rng = random.Random(15)
        moved = 0  # components whose least root is not their first dart
        for d in enumerate_fixed_diagrams(0, 8):
            e = renumbered(d, rng)
            assert canonical_form(e) == all_roots_form(e) == canonical_form(d)
            rho, lab = _rho_map(e), [0] * e.num_darts
            moved += sum(_component_code(c, rho, e.partner, lab)[1:]
                         != _bfs_code(c[0], rho, e.partner, lab) for c in _components_darts(e))
        assert moved > 1000

    def test_glued_pairs(self):
        from trivalent import random_diagram_corpus

        corpus = list(random_diagram_corpus(2, 120, 6, seed=5))[::3]
        for a in corpus:
            for b in corpus:
                g = glue(a, b)
                assert canonical_form(g) == all_roots_form(g)

    @pytest.mark.parametrize("make", [
        theta, k4, dumbbell, vertexless_loop, empty_diagram,
        lambda: tripod(1, 3, 2), lambda: disjoint_union(dumbbell(), k4()),
        lambda: disjoint_union(flip_vertex(k4(), 2), vertexless_loop()),
        # a tadpole: one leg on a vertex with a loop edge
        lambda: FixedDiagram._raw(((0, 1, 2),), (3,), (3, 2, 1, 0), 0)])
    def test_small_maps(self, make):
        d = make()
        assert canonical_form(d) == all_roots_form(d)

    def test_rival_stops_where_it_differs(self):
        rho, partner = _rho_map(dumbbell()), dumbbell().partner
        code = _bfs_code(0, rho, partner, [0] * 6)  # reads (1, 2) first
        assert _rival_below(code, 1, rho, partner)  # reads (1, 1) first
        assert not _rival_below(code, 0, rho, partner)
        assert not _rival_below(code[:0], 1, rho, partner)

    def test_rival_stops_at_unpaired_dart(self):
        # theta's map looks the same from every root, so no rival reads below
        # its code; with darts 1, 2, 4 and 5 unpaired the rival from 3 stops at 4
        rho, full = _rho_map(theta()), theta().partner
        code = _bfs_code(0, rho, full, [0] * 6)
        assert not any(_rival_below(code, r, rho, full) for r in range(6))
        assert not _rival_below(code, 3, rho, [3, None, None, 0, None, None])


class TestPinnedCodes:
    """`table.json` files store canonical codes, so any change to the code
    format shows here first."""

    GOLDEN = {
        "theta": (theta, ()),
        "k4": (k4, ()),
        "tripod(1, 2, 3)": (tripod, (1, 2, 3)),
        "tripod(1, 3, 2)": (tripod, (1, 3, 2)),
        "vertexless_loop": (vertexless_loop, ()),
        "identity_pairing(2)": (identity_pairing, (2,)),
    }
    HEX = {
        "theta": "282828276d6170272c20312c20322c20332c20342c20352c20302c20302c20352c20322c"
                 "20312c20342c2033292c292c203029",
        "k4": "282828276d6170272c20312c20322c20332c20342c20352c20302c20302c20362c20372c20"
              "312c20382c20392c2031302c20332c2031312c20382c20322c20372c20362c20352c20392c"
              "2031312c20342c203130292c292c203029",
        "tripod(1, 2, 3)": "282828276d6170272c20312c202d312c20322c202d322c20302c202d33292c"
                           "292c203029",
        "tripod(1, 3, 2)": "282828276d6170272c20312c202d312c20322c202d332c20302c202d32292c"
                           "292c203029",
        "vertexless_loop": "2828292c203129",
        "identity_pairing(2)": "2828282765646765272c20312c2033292c20282765646765272c20322c"
                               "203429292c203029",
    }
    #: (legs, max vertices): class count and sha256 of the sorted hex codes, one a line
    CORPORA = {
        (0, 4): (20, "346698d1956250bc0fa21cb96a4dc9b6eaa8fb2e33aa4f0c54021619f39fc30c"),
        (1, 3): (9, "bdd91345677666a403e393048de2df67dd903dfbcd6eca636260c7f025d6e0e1"),
        (2, 4): (101, "cca4eb7c4750171b039eb30cc89393231c078357e94df3bdb3f20f43ade6e07d"),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_builtin_codes(self, name):
        make, args = self.GOLDEN[name]
        assert canonical_form(make(*args)).hex() == self.HEX[name]

    @pytest.mark.parametrize("legs, max_vertices", sorted(CORPORA))
    def test_corpus_digest(self, legs, max_vertices):
        codes = sorted(enumerate_fixed_diagrams(legs, max_vertices).codes)
        digest = hashlib.sha256("".join(c.hex() + "\n" for c in codes).encode()).hexdigest()
        assert (len(codes), digest) == self.CORPORA[(legs, max_vertices)]


class TestThreeGraph:
    def test_loop_is_three_graph(self):
        assert is_three_graph(vertexless_loop())

    def test_theta_and_k4(self):
        assert is_three_graph(theta()) and is_three_graph(k4())

    def test_disconnected_is_not(self):
        assert not is_three_graph(disjoint_union(theta(), theta()))
        assert not is_three_graph(tripod(1, 2, 3))


class TestJson:
    @pytest.mark.parametrize("make", [theta, k4, lambda: permutation_diagram([2, 3, 1]),
                                      vertexless_loop,
                                      lambda: disjoint_union(theta(), vertexless_loop())])
    def test_round_trip_preserves_canonical_form(self, make):
        d = make()
        obj = json.loads(json.dumps(to_json_dict(d)))
        assert canonical_form(from_json_dict(obj)) == canonical_form(d)

    def test_schema_fields(self):
        obj = to_json_dict(tripod(1, 2, 3))
        assert set(obj) == {"legs", "loop_count", "vertices", "legs_map", "edges"}
        assert obj["legs"] == 3
        assert set(obj["legs_map"]) == {"1", "2", "3"}


class TestCorpus:
    def test_dedup_and_order(self):
        c = DiagramCorpus.from_diagrams(
            0, [theta(), theta(), k4(), flip_vertex(theta(), 0)])
        assert len(c) == 3
        assert list(c.codes) == sorted(c.codes)

    def test_leg_mismatch(self):
        with pytest.raises(LegCountMismatch):
            DiagramCorpus.from_diagrams(1, [theta()])
