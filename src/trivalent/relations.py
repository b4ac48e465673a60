"""Linear and polynomial relations a Lie-algebra weight system must satisfy.

Contains the antisymmetry / three-term residuals of a structure tensor,
the signed permutation sum over leg pairings (whose vanishing at order
n+1 characterizes n-dimensional Lie weight systems), connection matrices
of glued diagram pairs with their rank bound, the loop-normalized system
and its multiplicativity under edge connected sums, and direct-sum
additivity on connected diagrams.
"""

from __future__ import annotations

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
    _leg_label_map,
    _vertex_of,
)
from .errors import LegCountMismatch, TooLarge, ZeroDimension
from .evaluation import TensorBacked, open_partition_function, partition_function

#: an h with more delta outcomes p! (q + 1) than this raises `TooLarge` at once
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

def _delta_outcomes(k: int, h: FixedDiagram):
    """Yield (signed count, glued diagram) per diagram P_pi glued with h of a
    nonzero count, in closed form (see the README): gluing P_pi joins top leg
    i of h to bottom leg k+pi(i).  A chord (leg-to-leg edge of h) with both
    ends on one side cancels every count.  Else p tops and p bottoms sit at
    vertices, q = k - p tops carry chords, and phi maps the bottoms to the
    tops (chord ends to partners, vertex legs in order).  An outcome is
    (rho, l): rho the first return of phi o pi to the vertex tops, pairing the
    vertex legs, and l the loops closed by the cycles inside the chord tops.
    Its N(l) = sum_m C(q, m) p^(m) c(q - m, l) permutations share the sign
    sgn(phi) sgn(rho) (-1)^(q - l) (c: unsigned Stirling numbers, first kind).
    """
    if h.num_legs != 2 * k:
        raise LegCountMismatch(f"h has {h.num_legs} legs, expected {2 * k}")
    lab = _leg_label_map(h)
    chord = [lab[h.partner[d]] - 1 for d in h.legs]  # leg at the other end, or -1 at a vertex
    if any(0 <= b and (a < k) == (b < k) for a, b in enumerate(chord)):
        return
    tops = [a for a in range(k) if chord[a] < 0]
    bottoms = [b for b in range(k, 2 * k) if chord[b] < 0]
    p, q = len(tops), k - len(tops)
    if (outcomes := math.factorial(p) * (q + 1)) > DELTA_GUARD:
        raise TooLarge(f"{outcomes} outcomes ({p}! x {q + 1}) exceed the guard")
    phi = chord[k:]
    for a, b in zip(tops, bottoms):
        phi[b - k] = a
    c = [[1]]  # c[n][j]: permutations of n elements with j cycles
    for n in range(q):
        c.append([n * x + y for x, y in zip(c[n] + [0], [0] + c[n])])
    counts = [(-1) ** (q - ell) * sum(math.comb(q, m) * math.prod(range(p, p + m)) *
                                      c[q - m][ell] for m in range(q - ell + 1))
              for ell in range(q + 1)]
    darts = [x for tri in h.vertices for x in tri]
    slot = {x: i for i, x in enumerate(darts)}
    base = [slot.get(h.partner[x], -1) for x in darts]  # -1 where the edge goes to a leg
    at_top = [slot[h.partner[h.legs[a]]] for a in tops]
    at_bottom = [slot[h.partner[h.legs[b]]] for b in bottoms]
    vertices = tuple([(x, x + 1, x + 2) for x in range(0, len(darts), 3)])
    parity = sum(a > b for a, b in itertools.combinations(phi, 2))
    for rho in itertools.permutations(range(p)):
        partner = list(base)
        for t, r in zip(at_top, rho):
            partner[t], partner[at_bottom[r]] = at_bottom[r], t
        odd = sum((a > b for a, b in itertools.combinations(rho, 2)), parity)
        partner = tuple(partner)
        for ell, n in enumerate(counts):
            if n:
                yield (-1) ** odd * n, FixedDiagram._raw(vertices, (), partner, h.loop_count + ell)


def delta_sum(f, k: int, h: FixedDiagram):
    """sum over permutations pi of sgn(pi) * f(P_pi glued with h), h 2k-legged.

    f reads each glued diagram of a nonzero count once, and nothing when h
    has a chord with both ends on one side."""
    return sum((count * f.evaluate(g) for count, g in _delta_outcomes(k, h)),
               algebras.zero(f.backend))


def delta_bound(f, k: int, h: FixedDiagram, tol=0, relative=False):
    """(sum, bound, scale) for one h: the signed sum passes when its size is
    within `bound`, which is `tol` or, if `relative`, tol * scale, with scale
    sum |count * f(outcome)| the size of the terms that cancel in it."""
    total, scale = algebras.zero(f.backend), 0
    for count, g in _delta_outcomes(k, h):
        term = count * f.evaluate(g)
        total, scale = total + term, scale + abs(term)
    return total, tol * scale if relative else tol, scale


def check_report(check, params, residual, tol, seed=None):
    """The one report shape: `pass` means the residual is within `tol`."""
    return {"check": check, "params": params, "seed": seed,
            "residual": residual, "pass": residual <= tol}


def delta_check(f, k: int, hs, tol=0, seed=None, relative=False):
    """Run the signed permutation sum over a family of 2k-legged diagrams.

    `pass` means every sum is within its `delta_bound` (exact backends
    should be run with tol=0).  The report reads the h whose sum is largest
    against its bound, failing ones first: its code, bound (`tol`) and `scale`.
    """
    worst, count = None, 0
    for h in hs:
        val, bound, scale = delta_bound(f, k, h, tol, relative)
        r, count = abs(val), count + 1
        key = (r > bound, r / bound if bound else r)
        if worst is None or key > worst[0]:
            worst = key, r, bound, scale, h
    _, r, bound, scale, h = worst or (None, algebras.zero(f.backend), tol, 0, None)
    code = None if h is None else canonical_form(h).decode()
    return check_report("delta", {"k": k, "count": count, "tol": float(bound),
                                  "scale": float(scale), "worst": code}, r, bound, seed)


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
