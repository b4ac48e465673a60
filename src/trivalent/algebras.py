"""Scalar backends, structure tensors, and metric Lie algebra generators.

Two backends: exact rationals and double-precision complex.  A rational
array is an object array whose entries are Python `int`s where the value
is integral and `fractions.Fraction`s otherwise (`_array` is the one place
that form is chosen), so the integer generators contract in Python-int
arithmetic, which cannot overflow.  Every exact scalar handed to a caller
is a `Fraction` (`as_scalar`).  The rational backend exists because the
so(n) family has integer structure constants in a suitable basis, which
makes rank and relation tests exact; Killing-normalized algebras force
complex floats through the square roots in orthonormalization.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

from .errors import (
    BackendMismatch,
    DegenerateForm,
    OrthonormalizationFailed,
)

RATIONAL = "rational"
COMPLEX = "complex"

#: relative tolerance for complex-backend comparisons
TOL = 1e-9


def zero(backend):
    return Fraction(0) if backend == RATIONAL else 0j


def one(backend):
    return Fraction(1) if backend == RATIONAL else 1 + 0j


def as_scalar(x, backend):
    if backend == RATIONAL:
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise BackendMismatch(f"{x!r} is not exact-rational")
    if isinstance(x, (int, float, complex, Fraction)):
        return complex(x)
    raise BackendMismatch(f"{x!r} is not a complex scalar")


def _exact(x):
    """x as a Python int if integral, else as a Fraction; never a numpy scalar."""
    q = Fraction(x)
    num, den = int(q.numerator), int(q.denominator)
    return num if den == 1 else Fraction(num, den)


def _dtype(backend):
    return object if backend == RATIONAL else complex


def _array(entries, backend):
    if backend == RATIONAL:
        a = np.array(entries, dtype=object)
        a.flat = [_exact(x) for x in a.flat]
        return a
    return np.asarray(entries, dtype=complex)


def zeros_array(shape, backend):
    return np.zeros(shape, dtype=_dtype(backend))


def eye_array(n, backend):
    return np.eye(n, dtype=_dtype(backend))


def max_abs(arr):
    """Largest absolute value in an array: a Fraction for exact arrays, else a float."""
    if arr.dtype == object:
        return as_scalar(max((abs(x) for x in arr.flat), default=0), RATIONAL)
    return float(np.max(np.abs(arr), initial=0.0))


class StructureTensor:
    """A cubic tensor c[i][j][k] invariant under cyclic index rotation.

    `lie=True` records that the tensor claims full antisymmetry and the
    quadratic (Jacobi) relations; the checks below verify the claim.
    """

    __slots__ = ("dim", "backend", "entries", "lie")

    def __init__(self, dim, entries, backend, lie=False, check=True):
        self.dim = int(dim)
        self.backend = backend
        if backend not in (RATIONAL, COMPLEX):
            raise BackendMismatch(f"unknown backend {backend!r}")
        self.entries = _array(entries, backend)
        if self.entries.shape != (dim, dim, dim):
            raise ValueError(f"entries shape {self.entries.shape} != {(dim,) * 3}")
        self.lie = bool(lie)
        if check and dim > 0:
            r = cyclic_check(self)
            bound = 0 if backend == RATIONAL else TOL * max(1.0, float(max_abs(self.entries)))
            if r > bound:
                raise ValueError(f"entries are not cyclically invariant (residual {r})")

    @classmethod
    def zeros(cls, dim, backend=RATIONAL, lie=True):
        return cls(dim, zeros_array((dim, dim, dim), backend), backend, lie=lie, check=False)

    def to_complex(self):
        if self.backend == COMPLEX:
            return self
        return StructureTensor(self.dim, self.entries, COMPLEX, lie=self.lie, check=False)

    def __repr__(self):
        return f"StructureTensor(dim={self.dim}, backend={self.backend!r}, lie={self.lie})"


def cyclic_check(c: StructureTensor):
    """Max |c_ijk - c_jki| over the two nontrivial rotations."""
    t = c.entries
    r1 = max_abs(t - t.transpose(1, 2, 0))
    r2 = max_abs(t - t.transpose(2, 0, 1))
    return max(r1, r2)


def antisymmetry_check(c: StructureTensor):
    """Max residual of full antisymmetry over all index permutations."""
    t = c.entries
    worst = max_abs(t + t.transpose(1, 0, 2))
    worst = max(worst, max_abs(t + t.transpose(0, 2, 1)))
    worst = max(worst, max_abs(t + t.transpose(2, 1, 0)))
    worst = max(worst, max_abs(t - t.transpose(1, 2, 0)))
    worst = max(worst, max_abs(t - t.transpose(2, 0, 1)))
    return worst


def jacobi_check(c: StructureTensor):
    """Max residual of the quadratic relations
    sum_a (c_ija c_akl + c_kia c_ajl + c_jka c_ail) = 0."""
    t = c.entries
    q = np.tensordot(t, t, axes=([2], [0]))
    r = q + q.transpose(1, 2, 0, 3) + q.transpose(2, 0, 1, 3)
    return max_abs(r)


def direct_sum(c1: StructureTensor, c2: StructureTensor) -> StructureTensor:
    if c1.backend != c2.backend:
        raise BackendMismatch(f"{c1.backend} vs {c2.backend}")
    n1, n2 = c1.dim, c2.dim
    ent = zeros_array((n1 + n2,) * 3, c1.backend)
    ent[:n1, :n1, :n1] = c1.entries
    ent[n1:, n1:, n1:] = c2.entries
    return StructureTensor(n1 + n2, ent, c1.backend, lie=c1.lie and c2.lie, check=False)


def scale_tensor(c: StructureTensor, mu) -> StructureTensor:
    mu = as_scalar(mu, c.backend)
    return StructureTensor(c.dim, c.entries * mu, c.backend, lie=c.lie, check=False)


# ---------------------------------------------------------------------------
# metric Lie algebras on arbitrary bases
# ---------------------------------------------------------------------------

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
        q = np.tensordot(b, b, axes=([2], [0]))  # q[i,j,k,l] = sum_m B_ijm B_mkl
        r = q + q.transpose(1, 2, 0, 3) + q.transpose(2, 0, 1, 3)
        if max_abs(r) > tolr:
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

    def killing_gram(self):
        """K(u_i,u_j) = tr(ad u_i ad u_j), computed from the bracket constants."""
        # (ad u_i)_{k j} = B[i,j,k];  K_ij = sum_{k,l} B[i,l,k] B[j,k,l]
        return np.einsum("ilk,jkl->ij", self.bracket, self.bracket)


def orthonormalize(g: MetricLieAlgebra, retries: int = 8) -> StructureTensor:
    """Structure tensor on a computed orthonormal basis of the form.

    Non-conjugated bilinear Gram-Schmidt over the complex numbers with
    principal-branch square roots; candidate vectors whose residual is
    isotropic are skipped (pivoting), and if every remaining candidate is
    isotropic the whole run restarts from a seeded random basis change.
    """
    n = g.dim
    gram = np.asarray(g.gram, dtype=complex)
    bracket = np.asarray(g.bracket, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(gram)))) if n else 1.0
    if n and abs(np.linalg.det(gram)) < 1e-12 * scale ** n:
        raise DegenerateForm("gram matrix is numerically singular")
    iso_tol = 1e-10 * scale

    rng = np.random.default_rng(0x5EED)
    for attempt in range(retries):
        if attempt == 0:
            pool = [np.eye(n, dtype=complex)[i] for i in range(n)]
        else:
            mix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            pool = list(mix)
        basis = []
        failed = False
        while len(basis) < n:
            picked = None
            for idx, w in enumerate(pool):
                r = w.copy()
                for b in basis:
                    r = r - (w @ gram @ b) * b
                nrm2 = r @ gram @ r
                if abs(nrm2) > iso_tol:
                    picked = (idx, r, nrm2)
                    break
            if picked is None:
                failed = True
                break
            idx, r, nrm2 = picked
            pool.pop(idx)
            basis.append(r / cmath.sqrt(nrm2))
        if failed:
            continue
        s = np.array(basis).reshape(n, n)  # (0, 0), not (0,), for the zero algebra
        ent = np.einsum("ai,bj,ijm,ml,cl->abc", s, s, bracket, gram, s, optimize=True)
        c = StructureTensor(n, ent, COMPLEX, lie=True, check=False)
        bound = TOL * max(1.0, float(max_abs(c.entries)))
        if cyclic_check(c) > bound or antisymmetry_check(c) > bound or \
                jacobi_check(c) > TOL * max(1.0, float(max_abs(c.entries)) ** 2):
            raise OrthonormalizationFailed("output tensor failed re-verification")
        return c
    raise OrthonormalizationFailed(f"no orthonormal basis found in {retries} attempts")


# ---------------------------------------------------------------------------
# named generators
# ---------------------------------------------------------------------------

def abelian(n: int) -> StructureTensor:
    return StructureTensor.zeros(n, RATIONAL, lie=True)


def so3_eps() -> StructureTensor:
    """so(3) with the standard basis: the Levi-Civita tensor, exact."""
    ent = zeros_array((3, 3, 3), RATIONAL)
    for (i, j, k), s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                         ((1, 0, 2), -1), ((2, 1, 0), -1), ((0, 2, 1), -1)):
        ent[i, j, k] = s
    return StructureTensor(3, ent, RATIONAL, lie=True, check=False)


def so_n_rational(n: int) -> StructureTensor:
    """so(n) on the basis E_ab - E_ba (a<b), with the form declaring it orthonormal.

    All structure constants are 0 or +-1, so the whole family stays exact.
    """
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    d = len(pairs)
    ent = zeros_array((d, d, d), RATIONAL)

    def coeff(x, y):
        return (index[(x, y)], 1) if x < y else (index[(y, x)], -1)

    for p, (a, b) in enumerate(pairs):
        for q, (cc, dd) in enumerate(pairs):
            terms = []
            if b == cc and a != dd:
                terms.append((a, dd, 1))
            if a == dd and b != cc:
                terms.append((b, cc, 1))
            if b == dd and a != cc:
                terms.append((a, cc, -1))
            if a == cc and b != dd:
                terms.append((b, dd, -1))
            for x, y, s in terms:
                r, s2 = coeff(x, y)
                ent[p, q, r] += s * s2
    return StructureTensor(d, ent, RATIONAL, lie=True, check=False)


def sl2_killing() -> StructureTensor:
    """sl(2) with the Killing form as metric, in closed form: mu*eps, mu^2 = -1/2."""
    mu = 1 / cmath.sqrt(-2)
    return scale_tensor(so3_eps().to_complex(), mu)


def sl_algebra(n: int) -> MetricLieAlgebra:
    """sl(n) on the basis {E_ij (i != j)} + {E_ll - E_(l+1)(l+1)}, trace-form gram.

    Bracket constants and gram entries are exact integers on this basis.
    """
    basis = [(i, j) for i in range(n) for j in range(n) if i != j]
    nh = n - 1
    d = len(basis) + nh

    def diag_coeffs(diag):
        # expand a traceless diagonal in H_l = e_l - e_(l+1): mu_l = d_0+...+d_l
        out = []
        s = 0
        for l in range(nh):
            s += diag[l]
            out.append(s)
        return out

    def expand(mat):
        # mat: dict (i,j) -> int, traceless
        vec = [0] * d
        for (i, j), v in mat.items():
            if i != j:
                vec[basis.index((i, j))] += v
        diag = [mat.get((l, l), 0) for l in range(n)]
        for l, mu in enumerate(diag_coeffs(diag)):
            vec[len(basis) + l] += mu
        return vec

    def elem(idx):
        if idx < len(basis):
            i, j = basis[idx]
            return {(i, j): 1}
        l = idx - len(basis)
        return {(l, l): 1, (l + 1, l + 1): -1}

    def matmul(x, y):
        out = {}
        for (i, j), v in x.items():
            for (jj, k), w in y.items():
                if j == jj:
                    out[(i, k)] = out.get((i, k), 0) + v * w
        return out

    bracket = zeros_array((d, d, d), RATIONAL)
    gram = zeros_array((d, d), RATIONAL)
    mats = [elem(i) for i in range(d)]
    for p in range(d):
        for q in range(d):
            xy = matmul(mats[p], mats[q])
            yx = matmul(mats[q], mats[p])
            comm = {k: xy.get(k, 0) - yx.get(k, 0) for k in set(xy) | set(yx)}
            for r, v in enumerate(expand(comm)):
                bracket[p, q, r] = v
            gram[p, q] = sum(v for (i, j), v in xy.items() if i == j)
    return MetricLieAlgebra(d, bracket, gram, backend=RATIONAL)


def sl_n_trace(n: int) -> StructureTensor:
    return orthonormalize(sl_algebra(n))


def gl_algebra(n: int) -> MetricLieAlgebra:
    """gl(n) on the basis E_ij with the trace form."""
    d = n * n
    idx = {(i, j): i * n + j for i in range(n) for j in range(n)}
    bracket = zeros_array((d, d, d), RATIONAL)
    gram = zeros_array((d, d), RATIONAL)
    for (a, b), p in idx.items():
        for (c, e), q in idx.items():
            # [E_ab, E_ce] = delta_bc E_ae - delta_ea E_cb
            if b == c:
                bracket[p, q, idx[(a, e)]] += 1
            if e == a:
                bracket[p, q, idx[(c, b)]] -= 1
            gram[p, q] = int(b == c and a == e)
    return MetricLieAlgebra(d, bracket, gram, backend=RATIONAL)


def gl_n_trace(n: int) -> StructureTensor:
    return orthonormalize(gl_algebra(n))


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
    return MetricLieAlgebra(3, br, alg.killing_gram(), backend=RATIONAL)


# ---------------------------------------------------------------------------
# random tensors and JSON
# ---------------------------------------------------------------------------

def random_structure_tensor(n, seed, backend=RATIONAL, antisymmetric=False):
    """Seeded random cyclic-invariant tensor; fully antisymmetrized on request.

    Note that a nonzero fully antisymmetric cubic tensor needs n >= 3.
    """
    import random as _random

    rng = _random.Random(seed)
    raw = zeros_array((n, n, n), backend)
    for idx in np.ndindex(raw.shape):
        raw[idx] = rng.randint(-3, 3)
    if antisymmetric:
        ent = (raw - raw.transpose(1, 0, 2) + raw.transpose(1, 2, 0)
               - raw.transpose(2, 1, 0) + raw.transpose(2, 0, 1)
               - raw.transpose(0, 2, 1))
    else:
        ent = raw + raw.transpose(1, 2, 0) + raw.transpose(2, 0, 1)
    return StructureTensor(n, ent, backend, lie=False, check=False)


def tensor_to_json_dict(c: StructureTensor) -> dict:
    entries = []
    for (i, j, k), v in np.ndenumerate(c.entries):
        if v == 0:
            continue
        if c.backend == RATIONAL:
            entries.append([i, j, k, v.numerator, v.denominator])
        else:
            entries.append([i, j, k, v.real, v.imag])
    return {"dim": c.dim, "backend": c.backend, "lie": c.lie, "entries": entries}


def tensor_from_json_dict(obj) -> StructureTensor:
    dim = int(obj["dim"])
    backend = obj["backend"]
    ent = zeros_array((dim, dim, dim), backend)
    for i, j, k, a, b in obj["entries"]:
        if backend == RATIONAL:
            ent[i, j, k] = Fraction(int(a), int(b))
        else:
            ent[i, j, k] = complex(a, b)
    return StructureTensor(dim, ent, backend, lie=bool(obj.get("lie", False)))
