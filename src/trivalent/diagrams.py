"""Trivalent diagrams with labeled legs, stored as combinatorial maps.

A diagram consists of half-edges ("darts"), trivalent vertices given as
ordered triples of darts (the triple is read cyclically, so triples equal
up to rotation are the same vertex datum), a sequence of legs labeled
1..k, a fixed-point-free pairing of the darts into edges, and a count of
isolated vertexless loops.

Darts are normalized to 0..m-1 internally; the public constructor accepts
arbitrary hashable ids and remembers them for error messages.  All
diagrams are immutable after construction, so they are safe to share.

Isomorphism here always means: leg labels fixed pointwise, every vertex's
cyclic order preserved (no reversals).  Reversing a vertex is a separate
operation (`flip_vertex`) because it carries a sign in every application
of these diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import _check_keys, _integer
from .errors import (
    BadIndex,
    BadLegRange,
    DanglingHalfEdge,
    DuplicateLegLabel,
    HasLegs,
    InvalidDiagram,
    LegCountMismatch,
    LoopEdge,
    NotAPermutation,
    NotAThreeGraph,
    PairingNotInvolution,
)


class FixedDiagram:
    __slots__ = ("vertices", "legs", "partner", "loop_count", "names", "_code")

    def __init__(self, vertices=(), legs=(), edges=(), loop_count=0, check=True):
        """Build a diagram from user-facing data.

        `vertices`: iterable of triples of half-edge ids.
        `legs`: mapping {label: id} with labels 1..k, or a sequence
        (position i = label i+1).
        `edges`: iterable of id pairs; together they must form a
        fixed-point-free involution covering every half-edge.
        The edge list and leg labels are checked here, always; `check`
        runs `validate` on the stored form.
        """
        if isinstance(legs, dict):
            leg_items = sorted(((int(l), h) for l, h in legs.items()), key=lambda t: t[0])
            labels = [lab for lab, _ in leg_items]
            for a, b in zip(labels, labels[1:]):
                if a == b:
                    raise DuplicateLegLabel(a)
            for lab in labels:
                if not 1 <= lab <= len(labels):
                    raise BadLegRange(lab, len(labels))
        else:
            leg_items = [(i + 1, h) for i, h in enumerate(legs)]
        ids: list = []
        index: dict = {}

        def intern(h):
            j = index.get(h)
            if j is None:
                j = index[h] = len(ids)
                ids.append(h)
            return j

        self.vertices = tuple(tuple(intern(h) for h in tri) for tri in vertices)
        self.legs = tuple(intern(h) for _, h in leg_items)
        edge_norm = [(intern(a), intern(b)) for a, b in edges]
        partner = [-1] * len(ids)
        for a, b in edge_norm:
            if a == b:
                raise PairingNotInvolution(ids[a], "paired with itself")
            for x in (a, b):
                if partner[x] >= 0:
                    raise PairingNotInvolution(ids[x], "appears in two edges")
            partner[a], partner[b] = b, a

        self.names = tuple(ids)
        self.partner = tuple(partner)
        self.loop_count = int(loop_count)
        self._code = None
        if check:
            validate(self)

    @classmethod
    def _raw(cls, vertices, legs, partner, loop_count):
        """Fast path for internally built, already-valid diagrams (int darts)."""
        d = cls.__new__(cls)
        d.vertices = vertices
        d.legs = legs
        d.partner = partner
        d.loop_count = loop_count
        d.names = None
        d._code = None
        return d

    @property
    def num_darts(self):
        return len(self.partner)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_legs(self):
        return len(self.legs)

    def edges(self):
        """Edges as dart pairs (a, b) with a < b, sorted by a."""
        return [(a, b) for a, b in enumerate(self.partner) if a < b]

    def _name(self, dart):
        return self.names[dart] if self.names is not None else dart

    def __repr__(self):
        return (f"FixedDiagram(vertices={self.num_vertices}, legs={self.num_legs}, "
                f"edges={self.num_darts // 2}, loops={self.loop_count})")


def validate(d: FixedDiagram) -> None:
    """Check the stored form: every dart in exactly one slot, `partner` a
    fixed-point-free involution on all darts, no negative loop count.
    Raises a typed error naming the offending dart, by its user id if any."""
    m = d.num_darts
    count = [0] * m
    for tri in d.vertices:
        if len(tri) != 3:
            raise InvalidDiagram(f"vertex {tri!r} does not have exactly 3 slots")
        for x in tri:
            count[x] += 1
    for x in d.legs:
        count[x] += 1
    for x in range(m):
        if count[x] != 1:
            raise DanglingHalfEdge(d._name(x))

    for a, b in enumerate(d.partner):
        if b == -1:
            raise PairingNotInvolution(d._name(a), "not covered by any edge")
        if not (0 <= b < m and b != a and d.partner[b] == a):
            raise PairingNotInvolution(d._name(a), "not a fixed-point-free involution")
    if d.loop_count < 0:
        raise InvalidDiagram("negative loop count")


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def flip_vertex(d: FixedDiagram, v: int) -> FixedDiagram:
    """Reverse the cyclic order at vertex `v` (0-based); everything else kept."""
    if not 0 <= v < d.num_vertices:
        raise BadIndex(f"vertex index {v} out of range")
    vertices = tuple(tuple(reversed(tri)) if i == v else tri
                     for i, tri in enumerate(d.vertices))
    return FixedDiagram._raw(vertices, d.legs, d.partner, d.loop_count)


def glue(g: FixedDiagram, h: FixedDiagram) -> FixedDiagram:
    """Identify equally labeled legs of g and h and join their incident edges.

    The result is in the slot layout: vertex i is darts 3i, 3i+1, 3i+2, g's
    vertices first and then h's, each in vertex order.  Chains of edges
    whose ends are all legs are spliced through; a chain that closes up
    entirely on leg-edges becomes one vertexless loop.
    """
    k = g.num_legs
    if h.num_legs != k:
        raise LegCountMismatch(f"{k} legs vs {h.num_legs} legs")
    mg = g.num_darts
    tau = list(g.partner) + [p + mg for p in h.partner]
    cross = [-1] * len(tau)
    for a, b in zip(g.legs, h.legs):
        cross[a], cross[b + mg] = b + mg, a
    darts = [x for tri in g.vertices for x in tri] + [x + mg for tri in h.vertices for x in tri]
    slot = [-1] * len(tau)
    for i, x in enumerate(darts):
        slot[x] = i

    def chain_end(y):
        """The dart where tau -> cross -> tau ... from y stops; clears its legs."""
        while cross[y] >= 0:
            z = cross[y]
            cross[y] = cross[z] = -1
            y = tau[z]
        return y

    partner = [-1] * len(darts)
    for i, x in enumerate(darts):
        if partner[i] < 0:
            j = slot[chain_end(tau[x])]
            partner[i], partner[j] = j, i
    loops = 0
    for a in g.legs:
        if cross[a] >= 0:
            chain_end(a)
            loops += 1
    return FixedDiagram._raw(tuple([(x, x + 1, x + 2) for x in range(0, len(darts), 3)]),
                             (), tuple(partner), g.loop_count + h.loop_count + loops)


def disjoint_union(g: FixedDiagram, h: FixedDiagram) -> FixedDiagram:
    """Disjoint union; legs of h are relabeled to k_g+1 .. k_g+k_h."""
    mg = g.num_darts
    vertices = g.vertices + tuple(tuple(x + mg for x in tri) for tri in h.vertices)
    legs = g.legs + tuple(x + mg for x in h.legs)
    partner = g.partner + tuple(p + mg for p in h.partner)
    return FixedDiagram._raw(vertices, legs, partner, g.loop_count + h.loop_count)


def _slots_diagram(v, k, pairs):
    """The diagram on slots [0, 3v+k) whose edges are the slot pairs `pairs`:
    vertex i is slots 3i, 3i+1, 3i+2 in cyclic order, leg l is slot 3v+l-1."""
    partner = [-1] * (3 * v + k)
    for a, b in pairs:
        partner[a], partner[b] = b, a
    return FixedDiagram._raw(tuple([(x, x + 1, x + 2) for x in range(0, 3 * v, 3)]),
                             tuple(range(3 * v, 3 * v + k)), tuple(partner), 0)


def permutation_diagram(pi) -> FixedDiagram:
    """The 2k-legged diagram of k disjoint edges, edge i joining legs i and k+pi(i).

    `pi` is a sequence of the images pi(1), ..., pi(k) (1-based).
    """
    pi = list(map(int, pi))
    k = len(pi)
    if sorted(pi) != list(range(1, k + 1)):
        raise NotAPermutation(f"{pi} is not a permutation of 1..{k}")
    return _slots_diagram(0, 2 * k, enumerate([k - 1 + p for p in pi]))


def identity_pairing(k: int) -> FixedDiagram:
    return permutation_diagram(range(1, k + 1))


def is_three_graph(d: FixedDiagram) -> bool:
    """Connected cubic diagram with no legs; the single vertexless loop qualifies."""
    if d.num_legs:
        return False
    if d.num_vertices == 0:
        return d.loop_count == 1 and d.num_darts == 0
    return d.loop_count == 0 and len(_components_darts(d)) == 1


def edge_connected_sum(g: FixedDiagram, e: int, h: FixedDiagram, e2: int,
                       swap: bool = False) -> FixedDiagram:
    """Cross-join edge `e` of g with edge `e2` of h (indices into .edges()).

    With edges (x,y) and (x',y'), the default joins x-x' and y-y'; `swap`
    selects the other crossing x-y', y-x'.  Both edges are cut into two legs
    and the halves glued, so the result is in glue's slot layout.
    """
    for d in (g, h):
        if not is_three_graph(d):
            raise NotAThreeGraph(repr(d))
    ge, he = g.edges(), h.edges()
    if not 0 <= e < len(ge):
        raise BadIndex(f"edge index {e} out of range")
    if not 0 <= e2 < len(he):
        raise BadIndex(f"edge index {e2} out of range")
    vert_of_g = _vertex_of(g)
    vert_of_h = _vertex_of(h)
    x, y = ge[e]
    if vert_of_g[x] == vert_of_g[y]:
        raise LoopEdge(f"edge {e} of first diagram is a loop")
    x2, y2 = he[e2]
    if vert_of_h[x2] == vert_of_h[y2]:
        raise LoopEdge(f"edge {e2} of second diagram is a loop")
    if swap:
        x2, y2 = y2, x2
    return glue(_cut(g, x, y), _cut(h, x2, y2))


def _cut(d, x, y):
    """d with edge x-y cut into leg 1 at x and leg 2 at y."""
    m = d.num_darts
    partner = list(d.partner) + [x, y]
    partner[x], partner[y] = m, m + 1
    return FixedDiagram._raw(d.vertices, (m, m + 1), tuple(partner), d.loop_count)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _vertex_of(d):
    vof = [-1] * d.num_darts
    for i, tri in enumerate(d.vertices):
        for x in tri:
            vof[x] = i
    return vof


def _rho_map(d):
    """Next dart at the same vertex, following the cyclic order; -1 on legs."""
    rho = [-1] * d.num_darts
    for a, b, c in d.vertices:
        rho[a] = b
        rho[b] = c
        rho[c] = a
    return rho


def _leg_label_map(d):
    lab = [0] * d.num_darts
    for i, dart in enumerate(d.legs):
        lab[dart] = i + 1
    return lab


def _components_darts(d):
    """Connected components as sorted dart lists, ordered by smallest dart."""
    m = d.num_darts
    rho = _rho_map(d)
    seen = bytearray(m)
    comps = []
    for start in range(m):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = 1
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in (rho[x], d.partner[x]):
                if y >= 0 and not seen[y]:
                    seen[y] = 1
                    stack.append(y)
        comp.sort()
        comps.append(comp)
    return comps


def _bfs_code(root, rho, partner, lab):
    """Traversal code from a root dart; complete invariant for rooted maps."""
    num = {root: 0}
    order = [root]
    seq = []
    i = 0
    while i < len(order):
        x = order[i]
        i += 1
        r = rho[x]
        nr = num.get(r)
        if nr is None:
            nr = num[r] = len(order)
            order.append(r)
        p = partner[x]
        if r < 0 or p < 0:
            raise InvalidDiagram(f"dart {x} has no vertex successor or partner")
        lb = lab[p]
        if lb:
            seq.append(nr)
            seq.append(-lb)
        else:
            np_ = num.get(p)
            if np_ is None:
                np_ = num[p] = len(order)
                order.append(p)
            seq.append(nr)
            seq.append(np_)
    return tuple(seq)


def _rival_below(code, root, rho, partner):
    """True iff a closed map read from `root` as `_bfs_code` reads it is below
    `code`; it stops where they differ, at the end of `code` or at an unpaired (None) dart."""
    num, order, j = {root: 0}, [root], 0
    for x in order:
        if j == len(code) or partner[x] is None:
            return False
        for y in (rho[x], partner[x]):
            n = num.setdefault(y, len(order))
            if n == len(order):
                order.append(y)
            if n != code[j]:
                return n < code[j]
            j += 1
    return False


def _component_code(darts, rho, partner, lab):
    leg_labels = sorted(lab[x] for x in darts if lab[x])
    vertex_darts = [x for x in darts if not lab[x]]
    if not vertex_darts:
        # a single edge joining two legs
        return ("edge", leg_labels[0], leg_labels[1])
    if leg_labels:
        anchor = next(x for x in darts if lab[x] == leg_labels[0])
        return ("map",) + _bfs_code(partner[anchor], rho, partner, lab)
    code = _bfs_code(vertex_darts[0], rho, partner, lab)
    for r in vertex_darts[1:]:
        if _rival_below(code, r, rho, partner):
            code = _bfs_code(r, rho, partner, lab)
    return ("map",) + code


def _component_items(d):
    """(code, darts) per component, using the same codes as canonical_form."""
    rho = _rho_map(d)
    lab = _leg_label_map(d)
    return [(_component_code(c, rho, d.partner, lab), c)
            for c in _components_darts(d)]


def canonical_form(d: FixedDiagram) -> bytes:
    """Canonical code; equal iff diagrams are leg- and rotation-preserving isomorphic."""
    if d._code is None:
        try:
            codes = tuple(sorted(code for code, _ in _component_items(d)))
        except (IndexError, TypeError) as exc:  # partial pairing etc.
            raise InvalidDiagram(str(exc)) from exc
        d._code = _pack(codes, d.loop_count)
    return d._code


def are_isomorphic(a: FixedDiagram, b: FixedDiagram) -> bool:
    return canonical_form(a) == canonical_form(b)


def _pack(codes, loop_count=0) -> bytes:
    """Canonical bytes of a diagram with the given sorted component codes."""
    return repr((codes, loop_count)).encode()


def _extract_component(d, darts):
    """Build the standalone diagram on one component's darts (legs relabeled 1..j)."""
    newid = {x: i for i, x in enumerate(darts)}
    dset = set(darts)
    vertices = tuple(tuple(newid[x] for x in tri)
                     for tri in d.vertices if tri[0] in dset)
    lab = _leg_label_map(d)
    legs = tuple(newid[x] for x in sorted((x for x in darts if lab[x]),
                                          key=lambda x: lab[x]))
    partner = [0] * len(darts)
    for x in darts:
        partner[newid[x]] = newid[d.partner[x]]
    return FixedDiagram._raw(vertices, legs, tuple(partner), 0)


def components(d: FixedDiagram):
    """Standalone connected components; each vertexless loop is its own component.

    Legs of a component are relabeled 1..j in ascending order of original labels.
    """
    out = [_extract_component(d, c) for c in _components_darts(d)]
    for _ in range(d.loop_count):
        out.append(vertexless_loop())
    return out


# ---------------------------------------------------------------------------
# builtin diagrams
# ---------------------------------------------------------------------------

def empty_diagram() -> FixedDiagram:
    return FixedDiagram._raw((), (), (), 0)


def vertexless_loop() -> FixedDiagram:
    return FixedDiagram._raw((), (), (), 1)


def tripod(a: int, b: int, c: int) -> FixedDiagram:
    """One vertex whose cyclic order visits legs a, b, c (a permutation of 1,2,3)."""
    if sorted((a, b, c)) != [1, 2, 3]:
        raise NotAPermutation(f"({a},{b},{c}) is not a permutation of 1,2,3")
    return _slots_diagram(1, 3, [(slot, 2 + lab) for slot, lab in enumerate((a, b, c))])


def theta() -> FixedDiagram:
    """Two vertices joined by a triple edge, rotations (e1,e2,e3) and (e1,e3,e2)."""
    return _slots_diagram(2, 0, ((0, 3), (1, 5), (2, 4)))


def k4() -> FixedDiagram:
    """K4 with its planar rotation system."""
    # v1:(a12,a13,a14) v2:(a21,a24,a23) v3:(a31,a32,a34) v4:(a41,a43,a42)
    return _slots_diagram(4, 0, ((0, 3), (1, 6), (2, 9), (4, 11), (5, 7), (8, 10)))


def tri_star(k: int) -> FixedDiagram:
    """k disjoint tripods; vertex i carries legs 3i-2, 3i-1, 3i in order."""
    return _slots_diagram(k, 3 * k, [(x, 3 * k + x) for x in range(3 * k)])


def as_element():
    """Formal sum whose open evaluation vanishes exactly on antisymmetric tensors."""
    return [(1, tripod(1, 2, 3)), (1, tripod(1, 3, 2))]


def _two_vertex(legs_u, legs_v):
    """4-legged diagram u:(leg lu1, leg lu2, s), v:(s, leg lv1, leg lv2)."""
    # internal edge 2-3 ; leg l is slot 5 + l
    return _slots_diagram(2, 4, [(2, 3)] + [(slot, 5 + lab) for slot, lab in
                                            zip((0, 1, 4, 5), legs_u + legs_v)])


def ihx_element():
    """Formal sum matching the three-term quadratic (Jacobi) relation."""
    d1 = _two_vertex((1, 2), (3, 4))
    d2 = _two_vertex((3, 1), (2, 4))
    d3 = _two_vertex((2, 3), (1, 4))
    return [(1, d1), (1, d2), (1, d3)]


# ---------------------------------------------------------------------------
# corpora and JSON
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagramCorpus:
    """Deduplicated diagrams with a fixed leg count, in canonical-code order."""

    legs: int
    items: tuple
    codes: tuple

    @classmethod
    def from_diagrams(cls, legs, diagrams):
        by_code = {}
        for d in diagrams:
            if d.num_legs != legs:
                raise LegCountMismatch(f"expected {legs} legs, got {d.num_legs}")
            by_code.setdefault(canonical_form(d), d)
        return cls.by_code(legs, by_code)

    @classmethod
    def by_code(cls, legs, found):
        """The corpus of a code -> diagram dict, in code order."""
        codes = sorted(found)
        return cls(legs, tuple(found[c] for c in codes), tuple(codes))

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def head(self, n):
        """Stable prefix, useful to cap quadratic sweeps."""
        return DiagramCorpus(self.legs, self.items[:n], self.codes[:n])


def to_json_dict(d: FixedDiagram) -> dict:
    name = [f"h{i}" for i in range(d.num_darts)]
    return {
        "legs": d.num_legs,
        "loop_count": d.loop_count,
        "vertices": [[name[x] for x in tri] for tri in d.vertices],
        "legs_map": {str(i + 1): name[x] for i, x in enumerate(d.legs)},
        "edges": [[name[a], name[b]] for a, b in d.edges()],
    }


def from_json_dict(obj) -> FixedDiagram:
    _check_keys(obj, "diagram")
    if not isinstance(obj["legs_map"], dict):
        raise TypeError(f"legs_map is not a JSON object: {obj['legs_map']!r}")
    d = FixedDiagram(vertices=obj["vertices"],
                     legs={int(lab): h for lab, h in obj["legs_map"].items()},
                     edges=obj["edges"],
                     loop_count=_integer(obj["loop_count"]))
    if d.num_legs != _integer(obj["legs"]):
        raise BadLegRange(obj["legs"], d.num_legs)
    return d


def require_no_legs(d: FixedDiagram):
    if d.num_legs:
        raise HasLegs(f"diagram has {d.num_legs} legs")
