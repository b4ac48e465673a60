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
from fractions import Fraction
from dataclasses import dataclass

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
    _vertex_of,
)
from .errors import LegCountMismatch, TooLarge, ZeroDimension
from .evaluation import TensorBacked, open_partition_function, partition_function

DELTA_GUARD = 10 ** 6


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

def permutation_sign(pi):
    """Sign from the cycle decomposition of a 1-based permutation tuple."""
    k = len(pi)
    seen = [False] * k
    cycles = 0
    for i in range(k):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = pi[j] - 1
    return 1 if (k - cycles) % 2 == 0 else -1


def delta_sum(f, k: int, h: FixedDiagram):
    """sum over permutations pi of sgn(pi) * f(P_pi glued with h), h 2k-legged."""
    if h.num_legs != 2 * k:
        raise LegCountMismatch(f"h has {h.num_legs} legs, expected {2 * k}")
    if math.factorial(k) > DELTA_GUARD:
        raise TooLarge(f"{k}! permutations exceed the guard")
    total = algebras.zero(f.backend)
    for pi in itertools.permutations(range(1, k + 1)):
        val = f.evaluate(glue(permutation_diagram(pi), h))
        if permutation_sign(pi) > 0:
            total = total + val
        else:
            total = total - val
    return total


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
    return {
        "check": "delta",
        "params": {"k": k, "count": count, "tol": float(tol), "worst": worst_code},
        "seed": seed,
        "residual": worst,
        "pass": worst <= tol,
    }


# ---------------------------------------------------------------------------
# connection matrices
# ---------------------------------------------------------------------------

@dataclass
class ConnectionMatrix:
    legs: int
    corpus: DiagramCorpus
    entries: list
    backend: str


def connection_matrix(f, corpus: DiagramCorpus) -> ConnectionMatrix:
    """Matrix of f-values of pairwise gluings of the corpus diagrams.

    Tensor-backed, it is A A^T by the gluing duality f(glue(g, h)) =
    <Z(g), Z(h)>, row g of A the open evaluation Z(g), if A fits in
    MAX_ENTRIES.  Otherwise each unordered pair is glued and evaluated once.
    """
    items = list(corpus)
    if items and isinstance(f, TensorBacked) and (
            len(items) * f.tensor.dim ** corpus.legs <= evaluation.MAX_ENTRIES):
        try:
            return ConnectionMatrix(corpus.legs, corpus, _gram(f.tensor, items), f.backend)
        except TooLarge:  # a row's contraction is over the limit: glue instead
            pass
    entries = [[None] * len(items) for _ in items]
    for i, g in enumerate(items):
        for j in range(i, len(items)):  # glue(g, h) and glue(h, g) are one diagram
            entries[i][j] = entries[j][i] = f.evaluate(glue(g, items[j]))
    return ConnectionMatrix(corpus.legs, corpus, entries, f.backend)


def _gram(c: StructureTensor, items):
    """A A^T with rows of A the flattened open evaluations: rational ones
    exactly, as Python integers over one common denominator."""
    rows = [open_partition_function(c, g).entries.reshape(-1) for g in items]
    if c.backend != RATIONAL:
        a = np.array(rows, dtype=complex)
        return (a @ a.T).tolist()
    flat = [x for row in rows for x in row]
    den = math.lcm(*(x.denominator for x in flat))
    a = np.array([x.numerator * (den // x.denominator) for x in flat],
                 dtype=object).reshape(len(rows), -1)
    return [[Fraction(v, den * den) for v in row] for row in a.dot(a.T).tolist()]


def _rank_fraction_free(rows):
    """Rank by fraction-free (Bareiss) elimination; exact on rationals."""
    mat = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        den = 1
        for x in fr:
            den = den * x.denominator // math.gcd(den, x.denominator)
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


def _rank_svd(rows, rel_tol=1e-8):
    a = np.asarray(rows, dtype=complex)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def rank(m: ConnectionMatrix) -> int:
    if not m.entries:
        return 0
    if m.backend == RATIONAL:
        return _rank_fraction_free(m.entries)
    return _rank_svd(m.entries)


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
    return {
        "check": "connected_sum_multiplicativity",
        "params": {"pairs": pairs, "tol": float(tol)},
        "seed": None,
        "residual": worst,
        "pass": worst <= tol,
    }


def direct_sum_additivity_check(c1: StructureTensor, c2: StructureTensor,
                                g: FixedDiagram):
    """|p_(c1 (+) c2)(g) - p_c1(g) - p_c2(g)| for a connected diagram with vertices."""
    whole = partition_function(direct_sum(c1, c2), g)
    split = partition_function(c1, g) + partition_function(c2, g)
    return abs(whole - split)
