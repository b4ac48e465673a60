"""Reference implementations the tests compare the program against.

They are kept simple rather than fast: the signed permutation sum term by
term, and the per-permutation walk that groups the permutations by the
glued diagram they give.
"""

import itertools

from trivalent import glue, permutation_diagram
from trivalent.algebras import zero
from trivalent.diagrams import _leg_label_map


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
