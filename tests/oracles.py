"""Reference implementations and fixtures the tests compare the program against.

They are kept simple rather than fast: the signed permutation sum term by
term, the per-permutation walk that groups the permutations by the glued
diagram they give, the antisymmetrizer applied to an open value, the walk
over perfect matchings that orderly generation replaced, and metric Lie
algebras given as bracket data for `orthonormalize`.
"""

import itertools

import numpy as np

from trivalent import glue, permutation_diagram, so3_eps, tri_star
from trivalent.algebras import RATIONAL, MetricLieAlgebra, _dtype, zero, zeros_array
from trivalent.diagrams import _leg_label_map, _slots_diagram
from trivalent.enumeration import double_factorial
from trivalent.evaluation import open_partition_function
from trivalent.errors import TooLarge


def permutation_sign(pi):
    """(-1) to the number of inversions of a permutation tuple."""
    return -1 if sum(a > b for a, b in itertools.combinations(pi, 2)) % 2 else 1


def lexicographic_signs(k):
    """Signs of the permutations of 1..k in `itertools.permutations` order:
    putting the j-th smallest remaining element first adds j inversions."""
    signs = [1]
    for n in range(2, k + 1):
        signs = [-s if j % 2 else s for j in range(n) for s in signs]
    return signs


def delta_by_gluing(f, k, h):
    """The signed sum term by term: every P_pi glued to h and evaluated."""
    total = zero(f.backend)
    for pi in itertools.permutations(range(1, k + 1)):
        total = total + permutation_sign(pi) * f.evaluate(glue(permutation_diagram(pi), h))
    return total


def delta_outcomes_by_walk(k, h):
    """[(signed count, pi)] per glued diagram, in first-occurrence order.

    Each permutation is walked on its own: the joins of legs i and k+pi(i),
    followed through h's leg-to-leg edges ("chords"), pair up h's legs at
    vertices and close the rest into vertexless loops.  pi is 1-based, as
    `permutation_diagram` takes it.
    """
    lab = _leg_label_map(h)
    chord = [lab[h.partner[d]] - 1 for d in h.legs]  # leg index, or -1 at a vertex
    order = sorted(range(2 * k), key=lambda a: chord[a] >= 0)  # legs at vertices first
    join = [0] * (2 * k)
    outcomes = {}  # key -> [signed count, one pi that gives it]
    for pi, sign in zip(itertools.permutations(range(k, 2 * k)), lexicographic_signs(k)):
        for i, j in enumerate(pi):
            join[i], join[j] = j, i
        seen = bytearray(2 * k)
        key = bytearray()
        for a in order:  # walk to the leg at the other end, or around a loop back to a
            if not seen[a]:
                b = join[a]
                while chord[b] >= 0 and chord[b] != a:
                    seen[b] = seen[chord[b]] = 1
                    b = join[chord[b]]
                seen[b] = 1
                key.append(255 if chord[b] >= 0 else b)
        outcomes.setdefault(bytes(key), [0, pi])[0] += sign
    return [(count, tuple(j - k + 1 for j in pi)) for count, pi in outcomes.values()]


def delta_by_antisymmetrizer(c, k, h):
    """The signed sum for `TensorBacked(c)` from h's open value Z alone, never
    gluing: the sum over colourings a of the top legs and permutations pi of
    sgn(pi) Z[a, a o pi].  A colouring with a repeated colour cancels against
    its transposition, so only injective ones are read: none when k > dim."""
    z = open_partition_function(c, h).entries
    a = np.array(list(itertools.permutations(range(c.dim), k)), np.intp).reshape(-1, k)
    total = zero(c.backend)
    if len(a):
        for pi, sign in zip(itertools.permutations(range(k)), lexicographic_signs(k)):
            total = total + sign * z[tuple(a.T) + tuple(a[:, pi].T)].sum()
    return total


def _matchings(labels):
    if not labels:
        yield ()
    for j in range(1, len(labels)):
        for rest in _matchings(labels[1:j] + labels[j + 1:]):
            yield ((labels[0], labels[j]),) + rest


def enumerate_matchings(m: int):
    """All perfect matchings on [m] (1-based pairs), lexicographic order."""
    if m % 2:
        raise TooLarge(f"[{m}] has no perfect matching")
    if double_factorial(m - 1) > 10 ** 6:
        raise TooLarge(f"(m-1)!! = {double_factorial(m - 1)} exceeds the guard")
    return list(_matchings(tuple(range(1, m + 1))))


def matching_diagram(matching, m: int):
    """The m-legged diagram whose edges pair legs as the matching does."""
    return _slots_diagram(0, m, [(a - 1, b - 1) for a, b in matching])


def matching_glue(matching, k: int):
    """Glue a perfect matching on [3k] with the k-fold star diagram."""
    return glue(matching_diagram(matching, 3 * k), tri_star(k))


def eye_array(n, backend):
    return np.eye(n, dtype=_dtype(backend))


def killing_gram(alg: MetricLieAlgebra):
    """K(u_i,u_j) = tr(ad u_i ad u_j), computed from the bracket constants."""
    # (ad u_i)_{k j} = B[i,j,k];  K_ij = sum_{k,l} B[i,l,k] B[j,k,l]
    return np.einsum("ilk,jkl->ij", alg.bracket, alg.bracket)


def so3_algebra() -> MetricLieAlgebra:
    """so(3) as bracket data with the identity gram (already orthonormal)."""
    return MetricLieAlgebra(3, so3_eps().entries, eye_array(3, RATIONAL),
                            backend=RATIONAL)


def sl2_algebra_killing() -> MetricLieAlgebra:
    """sl(2) in the basis {H, E, F} with the Killing form as gram."""
    br = zeros_array((3, 3, 3), RATIONAL)
    # [H,E]=2E, [H,F]=-2F, [E,F]=H   (H=0, E=1, F=2)
    br[0, 1, 1], br[1, 0, 1] = 2, -2
    br[0, 2, 2], br[2, 0, 2] = -2, 2
    br[1, 2, 0], br[2, 1, 0] = 1, -1
    alg = MetricLieAlgebra(3, br, eye_array(3, RATIONAL), backend=RATIONAL, check=False)
    return MetricLieAlgebra(3, br, killing_gram(alg), backend=RATIONAL)
