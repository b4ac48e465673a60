"""Reference implementations and fixtures the tests compare the program against.

They are kept simple rather than fast: the signed permutation sum term by
term, the per-permutation walk that groups the permutations by the glued
diagram they give, the antisymmetrizer applied to an open value, the walk
over perfect matchings that orderly generation replaced, and metric Lie
algebras given as bracket data with an invariant form, which `orthonormalize`
turns into a structure tensor by a bilinear Gram-Schmidt search: the
independent reference for the closed-form bases of `sl_n_trace` and
`gl_n_trace`.
"""

import cmath
import itertools

import numpy as np

from trivalent import glue, permutation_diagram, so3_eps, tri_star
from trivalent.algebras import (COMPLEX, RATIONAL, TOL, StructureTensor, _array, _brackets,
                                _dtype, _jacobi_residual, _unit, antisymmetry_check,
                                cyclic_check, jacobi_check, max_abs, zero, zeros_array)
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


class DegenerateForm(Exception):
    pass


class OrthonormalizationFailed(Exception):
    pass


class MetricLieAlgebra:
    """Bracket constants B[i][j][k] (meaning [u_i,u_j] = sum_k B[i][j][k] u_k)
    plus the Gram matrix of a nondegenerate invariant symmetric form."""

    __slots__ = ("dim", "bracket", "gram", "backend")

    def __init__(self, dim, bracket, gram, backend=COMPLEX, check=True):
        self.dim = int(dim)
        self.backend = backend
        self.bracket = _array(bracket, backend)
        self.gram = _array(gram, backend)
        if self.bracket.shape != (dim, dim, dim) or self.gram.shape != (dim, dim):
            raise ValueError("bad bracket/gram shape")
        if check and dim > 0:
            self._check()

    def _scale(self):
        return max(1.0, float(max_abs(self.bracket)), float(max_abs(self.gram)))

    def _check(self):
        tolr = 0 if self.backend == RATIONAL else TOL * self._scale()
        if max_abs(self.gram - self.gram.T) > tolr:
            raise ValueError("gram matrix not symmetric")
        if max_abs(self.bracket + self.bracket.transpose(1, 0, 2)) > tolr:
            raise ValueError("bracket not antisymmetric")
        # Jacobi: [[ui,uj],uk] + [[uj,uk],ui] + [[uk,ui],uj] = 0
        b = self.bracket
        if _jacobi_residual(b) > tolr:
            raise ValueError("bracket fails the Jacobi identity")
        # ad-invariance: <[ui,uj],uk> = <ui,[uj,uk]>
        lhs = np.tensordot(b, self.gram, axes=([2], [0]))  # [i,j,k]
        rhs = np.tensordot(b, self.gram, axes=([2], [1])).transpose(2, 0, 1)
        # rhs[i,j,k] = sum_m B_jkm G_im
        if max_abs(lhs - rhs) > tolr:
            raise ValueError("form is not ad-invariant")
        det = np.linalg.det(np.asarray(self.gram, dtype=complex))
        if abs(det) < 1e-12 * self._scale() ** self.dim:
            raise DegenerateForm(f"gram determinant {det}")


def orthonormalize(g: MetricLieAlgebra) -> StructureTensor:
    """Structure tensor on a computed orthonormal basis of the form.

    Non-conjugated bilinear Gram-Schmidt over the complex numbers with
    principal-branch square roots, in one pass over the standard basis:
    each step takes the first candidate whose residual is not isotropic.
    If every residual left is isotropic, the form, nondegenerate on their
    span, pairs two of them, r_i and r_j; r_i + r_j then has square norm
    2 B(r_i, r_j) != 0 and is taken in place of r_i.
    """
    n = g.dim
    gram = np.asarray(g.gram, dtype=complex)
    bracket = np.asarray(g.bracket, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(gram)))) if n else 1.0
    if n and abs(np.linalg.det(gram)) < 1e-12 * scale ** n:
        raise DegenerateForm("gram matrix is numerically singular")
    iso_tol = 1e-10 * scale

    res = np.eye(n, dtype=complex)  # residuals of the candidates not yet taken
    basis = []
    while len(res):
        nrm2 = np.einsum("ij,jk,ik->i", res, gram, res)
        i = int(np.argmax(np.abs(nrm2) > iso_tol))
        if abs(nrm2[i]) <= iso_tol:
            pairing = np.abs(res @ gram @ res.T)
            i, j = np.unravel_index(np.argmax(pairing), pairing.shape)
            if pairing[i, j] <= iso_tol:
                raise OrthonormalizationFailed("the form vanishes on the residuals left")
            res[i] += res[j]
            nrm2[i] = res[i] @ gram @ res[i]
        b = res[i] / cmath.sqrt(nrm2[i])
        res = np.delete(res, i, axis=0)
        res -= np.outer(res @ gram @ b, b)
        basis.append(b)
    s = np.array(basis).reshape(n, n)  # (0, 0), not (0,), for the zero algebra
    ent = np.einsum("ai,bj,ijm,ml,cl->abc", s, s, bracket, gram, s, optimize=True)
    c = StructureTensor(n, ent, COMPLEX, lie=True, check=False)
    bound = TOL * max(1.0, float(max_abs(c.entries)))
    if cyclic_check(c) > bound or antisymmetry_check(c) > bound or \
            jacobi_check(c) > TOL * max(1.0, float(max_abs(c.entries)) ** 2):
        raise OrthonormalizationFailed("output tensor failed re-verification")
    return c


def _trace_gram(mats):
    """tr(X_p X_q), the trace form on a basis of matrices, shape (d, d)."""
    d = len(mats)
    return np.array([np.trace(x @ y) for x in mats for y in mats],
                    dtype=object).reshape(d, d)


def sl_algebra(n: int) -> MetricLieAlgebra:
    """sl(n) on the basis {E_ij (i != j)} + {E_ll - E_(l+1)(l+1)}, trace-form gram.

    Bracket constants and gram entries are exact integers on this basis.
    """
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    mats = [_unit(n, i, j) for i, j in off]
    mats += [_unit(n, l, l) - _unit(n, l + 1, l + 1) for l in range(n - 1)]

    def coords(x):
        # a traceless diagonal is sum_l mu_l H_l with mu_l = d_0 + ... + d_l
        return [x[i, j] for i, j in off] + list(itertools.accumulate(x.diagonal()))[:n - 1]

    return MetricLieAlgebra(len(mats), _brackets(mats, coords), _trace_gram(mats),
                            backend=RATIONAL)


def gl_algebra(n: int) -> MetricLieAlgebra:
    """gl(n) on the basis E_ij (index i*n + j) with the trace form."""
    mats = [_unit(n, i, j) for i in range(n) for j in range(n)]
    return MetricLieAlgebra(n * n, _brackets(mats, lambda x: x.reshape(-1)),
                            _trace_gram(mats), backend=RATIONAL)


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
