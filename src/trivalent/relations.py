"""Linear and polynomial relations a Lie-algebra weight system must satisfy.

Contains the antisymmetry / three-term residuals of a structure tensor,
the signed permutation sum over leg pairings (whose vanishing at order
n+1 characterizes n-dimensional Lie weight systems), connection matrices
of glued diagram pairs with their rank bound, the loop-normalized system
and its multiplicativity under edge connected sums, and direct-sum
additivity on connected diagrams.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import algebras, evaluation
from .algebras import RATIONAL, StructureTensor, direct_sum, max_abs
from .diagrams import (
    DiagramCorpus,
    FixedDiagram,
    as_element,
    canonical_form,
    edge_connected_sum,
    glue,
    ihx_element,
    permutation_diagram,
    _leg_label_map,
    _vertex_of,
)
from .errors import LegCountMismatch, TooLarge, ZeroDimension
from .evaluation import TensorBacked, open_partition_function, partition_function

DELTA_GUARD = 10 ** 6
#: singular values at or below this fraction of the largest count as zero
SVD_REL_TOL = 1e-8


def _formal_open(c: StructureTensor, element):
    total = None
    for coeff, d in element:
        t = open_partition_function(c, d).entries
        if coeff != 1:
            t = t * algebras.as_scalar(coeff, c.backend)
        total = t if total is None else total + t
    return total


def as_residual(c: StructureTensor):
    """Max-norm of the open evaluation of the two-term antisymmetry sum."""
    return max_abs(_formal_open(c, as_element()))


def ihx_residual(c: StructureTensor):
    """Max-norm of the open evaluation of the three-term sum.

    This is the same number as `algebras.jacobi_check`: both run the same
    contractions in the same order, only packaged through diagrams here.
    """
    return max_abs(_formal_open(c, ihx_element()))


# ---------------------------------------------------------------------------
# signed permutation sums
# ---------------------------------------------------------------------------

#: join-table rows per array pass: faster than larger blocks, with small work arrays
_BLOCK = 720


@functools.lru_cache(maxsize=1)
def _join_table(k: int):
    """(J, even, odd): row r of the k! x 2k int8 array J joins legs i and
    pi(i) both ways, pi the r-th permutation of k..2k-1 in `itertools` order;
    the bytes masks `even` and `odd` mark the rows by the sign of pi."""
    p, odd = np.zeros((1, 0), np.int8), np.zeros(1, bool)
    for n in range(1, k + 1):  # j first, then the rest in order: j more inversions
        p = np.concatenate([np.column_stack([np.full(len(p), j, np.int8), p + (p >= j)])
                            for j in range(n)])
        odd = np.concatenate([odd ^ bool(j % 2) for j in range(n)])
    join = np.empty((len(p), 2 * k), np.int8)
    join[:, :k] = p + k
    np.put_along_axis(join, p + k, np.arange(k, dtype=np.int8), axis=1)
    return join, (~odd).tobytes(), odd.tobytes()


def _delta_outcomes(k: int, h: FixedDiagram):
    """[(signed count, pi)] per glued diagram P_pi with h, in the order of
    the first pi (1-based, in `itertools.permutations` order) that gives it.

    Gluing P_pi joins legs i and k+pi(i) of h.  Followed through h's
    leg-to-leg edges ("chords"), the joins pair up h's legs at vertices and
    close the rest into vertexless loops: that outcome is the glued diagram
    itself.  All k! joins are followed at once, as rows of the join table.
    """
    if h.num_legs != 2 * k:
        raise LegCountMismatch(f"h has {h.num_legs} legs, expected {2 * k}")
    if math.factorial(k) > DELTA_GUARD:
        raise TooLarge(f"{k}! permutations exceed the guard")
    table, even, odd = _join_table(k)
    lab = _leg_label_map(h)
    chord = np.array([lab[h.partner[d]] - 1 for d in h.legs], np.intp)  # leg, or -1 at a vertex
    at_vertex, ends = np.flatnonzero(chord < 0), np.flatnonzero(chord >= 0)
    chords = len(ends) // 2
    compact = np.full(2 * k, len(ends), np.int8)  # chord legs in order; vertex legs: one sink
    compact[ends] = np.arange(len(ends))
    label = np.append(np.arange(len(ends), dtype=np.int8), np.int8(-1))
    outcomes = {}  # key -> [signed count, first row that gives it]
    for start in range(0, len(table), _BLOCK):
        join = table[start:start + _BLOCK]
        row = np.arange(len(join))[:, None]
        step = join[:, np.maximum(chord, 0)]  # x -> join(chord(x)); legs at vertices stay
        step[:, at_vertex] = at_vertex
        flat = (step + row * (2 * k)).ravel()  # the same maps on flat indices
        far = join[:, at_vertex] + row * (2 * k)
        for _ in range(chords):
            far = flat[far]
        # loops by pointer doubling on the chord legs: each loop is two orbits
        to = np.empty((len(join), len(ends) + 1), np.intp)
        to[:, :-1], to[:, -1] = compact[step[:, ends]], len(ends)
        to = (to + row * to.shape[1]).ravel()
        low = np.tile(label, len(join))
        for _ in range(chords.bit_length()):
            low, to = np.minimum(low, low[to]), to[to]
        loops = (low.reshape(len(join), -1)[:, :-1] == label[:-1]).sum(1) // 2
        keys = np.column_stack([far - row * (2 * k), loops]).astype(np.int8, order="C")
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel().tolist()
        plus = collections.Counter(itertools.compress(keys, even[start:start + _BLOCK]))
        minus = collections.Counter(itertools.compress(keys, odd[start:start + _BLOCK]))
        for key in dict.fromkeys(keys):
            if key not in outcomes:
                outcomes[key] = [0, start + keys.index(key)]
            outcomes[key][0] += plus[key] - minus[key]
    return [(count, tuple((table[r, :k] - (k - 1)).tolist())) for count, r in outcomes.values()]


def delta_sum(f, k: int, h: FixedDiagram):
    """sum over permutations pi of sgn(pi) * f(P_pi glued with h), h 2k-legged.

    f reads each distinct glued diagram once, zero sums included."""
    total = algebras.zero(f.backend)
    for count, pi in _delta_outcomes(k, h):
        total = total + count * f.evaluate(glue(permutation_diagram(pi), h))
    return total


def check_report(check, params, residual, tol, seed=None):
    """The one report shape: `pass` means the residual is within `tol`."""
    return {"check": check, "params": params, "seed": seed,
            "residual": residual, "pass": residual <= tol}


def delta_check(f, k: int, hs, tol=0, seed=None):
    """Run the signed permutation sum over a family of 2k-legged diagrams.

    Returns a report dict; `pass` means every residual is within `tol`
    (exact backends should be run with tol=0).
    """
    worst = None
    worst_code = None
    count = 0
    for h in hs:
        r = abs(delta_sum(f, k, h))
        count += 1
        if worst is None or r > worst:
            worst = r
            worst_code = canonical_form(h).decode()
    if worst is None:
        worst = algebras.zero(f.backend)
    return check_report("delta", {"k": k, "count": count, "tol": float(tol),
                                  "worst": worst_code}, worst, tol, seed)


# ---------------------------------------------------------------------------
# connection matrices
# ---------------------------------------------------------------------------

@dataclass
class ConnectionMatrix:
    """M is `values` over one denominator `den`, Python ints when exact.  If
    `factored`, `rows` is A, M = A A^T and rank A = rank M (see `_gram`); else M."""

    legs: int
    corpus: DiagramCorpus
    backend: str
    rows: list | np.ndarray
    den: int | complex
    factored: bool

    @property
    def values(self):  # a factor is multiplied out on demand, under MAX_ENTRIES
        if self.factored:
            _bound("the connection matrix", len(self.rows), len(self.rows))
            return self.rows.dot(self.rows.T).tolist()
        return self.rows

    @property
    def entries(self):
        return [[algebras.as_scalar(v, self.backend) / self.den for v in row] for row in self.values]


def _bound(what, rows, cols):
    if rows * cols > evaluation.MAX_ENTRIES:
        raise TooLarge(f"{what} needs {rows} x {cols} = {rows * cols} entries, over MAX_ENTRIES")


def connection_matrix(f, corpus: DiagramCorpus) -> ConnectionMatrix:
    """Matrix of f-values of pairwise gluings of the corpus diagrams.

    Tensor-backed, nothing is glued: it is A A^T by the gluing duality, row g
    of A the open value Z(g).  A is kept unless complex128, whose isotropic
    rows can drop the rank.  Table-backed, each unordered pair is glued once."""
    if isinstance(f, TensorBacked):
        cm = ConnectionMatrix(corpus.legs, corpus, f.backend, *_gram(f.tensor, corpus), True)
        return cm if np.isrealobj(f.tensor.scaled[1]) else replace(cm, rows=cm.values,
                                                                   factored=False)
    items = list(corpus)
    _bound("the connection matrix", len(items), len(items))
    values, den = [[None] * len(items) for _ in items], 1
    for i, g in enumerate(items):
        for j in range(i, len(items)):  # glue(g, h) and glue(h, g) are one diagram
            values[i][j] = values[j][i] = f.evaluate(glue(g, items[j]))
    if f.backend == RATIONAL:
        den = math.lcm(*(x.denominator for row in values for x in row))
        values = [[x.numerator * (den // x.denominator) for x in row] for row in values]
    return ConnectionMatrix(corpus.legs, corpus, f.backend, values, den, False)


def _gram(c: StructureTensor, corpus):
    """(A, s**(2 Vmax)): row g of A is g's scaled open value times s**(Vmax - V),
    ints when exact, s a unit phase when complex.  Over MAX_ENTRIES, `TooLarge` first."""
    items, width = list(corpus), c.dim ** corpus.legs
    _bound("the factor", len(items), width)
    s, vmax = c.scaled[0], max((g.num_vertices for g in items), default=0)
    a = np.array([evaluation._scaled_open(c, g).reshape(-1) * s ** (vmax - g.num_vertices)
                  for g in items], dtype=algebras._dtype(c.backend))
    return a.reshape(len(items), width), s ** (2 * vmax)


def _rank_fraction_free(rows):
    """Rank of an integer matrix by fraction-free (Bareiss) elimination: exact."""
    mat = [list(row) for row in rows]
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
        prev = p
        r += 1
        if r == nrows:
            break
    return r


def _rank_svd(rows, tol=SVD_REL_TOL):
    a = np.asarray(rows, dtype=complex)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * s[0]))


def rank(m: ConnectionMatrix) -> int:
    if m.backend == RATIONAL:
        return _rank_fraction_free(m.rows)
    # A's singular values are the square roots of M's
    return _rank_svd(m.rows, SVD_REL_TOL ** (0.5 if m.factored else 1))


# ---------------------------------------------------------------------------
# normalization and product/sum laws
# ---------------------------------------------------------------------------

class NormalizedWeightSystem:
    """f divided by its loop value; meaningful on connected diagrams."""

    def __init__(self, f):
        if f.loop_value == 0:
            raise ZeroDimension("loop value is zero")
        self.f = f
        self.loop_value = f.loop_value

    def value(self, g: FixedDiagram):
        return self.f.evaluate(g) / self.loop_value


def normalized(f) -> NormalizedWeightSystem:
    return NormalizedWeightSystem(f)


def connected_sum_multiplicativity_check(c: StructureTensor, g: FixedDiagram,
                                         h: FixedDiagram, tol=0):
    """Residual of phi'(g#h) = phi'(g) phi'(h) over every edge-pair choice
    and both crossing conventions.  Exact multiplicativity is only promised
    for simple (or one-dimensional) algebras."""
    f = TensorBacked(c)
    phi = normalized(f)
    expect = phi.value(g) * phi.value(h)
    vg, vh = _vertex_of(g), _vertex_of(h)
    worst = algebras.zero(c.backend) if c.backend == RATIONAL else 0.0
    pairs = 0
    for ei, (a, b) in enumerate(g.edges()):
        if vg[a] == vg[b]:
            continue
        for ej, (a2, b2) in enumerate(h.edges()):
            if vh[a2] == vh[b2]:
                continue
            for swap in (False, True):
                joined = edge_connected_sum(g, ei, h, ej, swap=swap)
                r = abs(phi.value(joined) - expect)
                pairs += 1
                if r > worst:
                    worst = r
    return check_report("connected_sum_multiplicativity",
                        {"pairs": pairs, "tol": float(tol)}, worst, tol)


def direct_sum_additivity_check(c1: StructureTensor, c2: StructureTensor,
                                g: FixedDiagram):
    """|p_(c1 (+) c2)(g) - p_c1(g) - p_c2(g)| for a connected diagram with vertices."""
    whole = partition_function(direct_sum(c1, c2), g)
    split = partition_function(c1, g) + partition_function(c2, g)
    return abs(whole - split)
