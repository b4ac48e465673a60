"""Scalar backends, structure tensors, and metric Lie algebra generators.

Two backends: exact rationals and double-precision complex.  A rational
array is an object array whose entries are Python `int`s where the value
is integral and `fractions.Fraction`s otherwise (`_array` is the one place
that form is chosen); a tensor contracts as D*c, D the lcm of its
denominators, in Python ints, which cannot overflow.  Every exact scalar
handed to a caller is a `Fraction` (`as_scalar`).  The rational backend
exists because so(n) has integer structure constants in a suitable basis,
which makes rank and relation tests exact; Killing-normalized algebras
force complex floats through the square roots in orthonormalization.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
from fractions import Fraction
from importlib import resources

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


def _integer(x):
    """int(x) for a JSON integer; a number with a fractional part is refused."""
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


@functools.cache
def _schema_keys(kind, item=None):
    """(required, allowed) keys of the shipped `kind` schema, or of the items
    of its array property `item`."""
    text = resources.files(__package__).joinpath(f"schemas/{kind}.schema.json").read_text()
    schema = json.loads(text)
    if item:
        schema = schema["properties"][item]["items"]
    return frozenset(schema["required"]), frozenset(schema["properties"])


def _check_keys(obj, kind, item=None):
    """Refuse a JSON object that lacks a key the `kind` schema (or its `item`
    entries) requires or has one it does not allow, as the schema does."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, not {obj!r}")
    required, allowed = _schema_keys(kind, item)
    if not required <= obj.keys() <= allowed:
        raise KeyError(f"{item or kind} keys {sorted(obj)}: {sorted(required)} required, "
                       f"{sorted(allowed)} allowed")


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


def max_abs(arr):
    """Largest absolute value in an array: a Fraction for exact arrays, else a float."""
    if arr.dtype == object:
        return as_scalar(max((abs(x) for x in arr.flat), default=0), RATIONAL)
    return float(np.max(np.abs(arr), initial=0.0))


class StructureTensor:
    """A cubic tensor c[i][j][k] invariant under cyclic index rotation.

    `lie=True` records that the tensor claims full antisymmetry and the
    quadratic (Jacobi) relations; the checks below verify the claim.
    `scaled` is (s, s*entries), values on V vertices s**V times c's: s = D, the
    lcm of the denominators, if rational; if complex, s undoes the largest
    entry's phase when that leaves a tensor real up to rounding, kept in
    float64, and s = 1 otherwise.
    """

    __slots__ = ("dim", "backend", "entries", "lie", "scaled")

    def __init__(self, dim, entries, backend, lie=False, check=True):
        self.dim = int(dim)
        self.backend = backend
        if backend not in (RATIONAL, COMPLEX):
            raise BackendMismatch(f"unknown backend {backend!r}")
        self.entries = _array(entries, backend)
        if self.entries.shape != (dim, dim, dim):
            raise ValueError(f"entries shape {self.entries.shape} != {(dim,) * 3}")
        if backend == RATIONAL:
            den = math.lcm(*(x.denominator for x in self.entries.flat))
            self.scaled = (den, self.entries if den == 1 else np.array(
                [x.numerator * (den // x.denominator) for x in self.entries.flat],
                dtype=object).reshape(self.entries.shape))
        else:
            top = complex(max(self.entries.flat, key=abs, default=0))
            s = top.conjugate() / abs(top) if top else 1 + 0j
            sc = self.entries * s
            real = np.max(np.abs(sc.imag), initial=0.0) <= 8 * np.finfo(float).eps * abs(top)
            self.scaled = (s, sc.real.copy()) if real else (1 + 0j, self.entries)
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
    odd = [max_abs(t + t.transpose(p)) for p in ((1, 0, 2), (0, 2, 1), (2, 1, 0))]
    return max(odd + [cyclic_check(c)])


def _jacobi_residual(t):
    """Max |q_ijkl + q_jkil + q_kijl| with q_ijkl = sum_a t_ija t_akl."""
    q = np.tensordot(t, t, axes=([2], [0]))
    return max_abs(q + q.transpose(1, 2, 0, 3) + q.transpose(2, 0, 1, 3))


def jacobi_check(c: StructureTensor):
    """Max residual of the quadratic relations
    sum_a (c_ija c_akl + c_kia c_ajl + c_jka c_ail) = 0."""
    return _jacobi_residual(c.entries)


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


def _unit(n, i, j):
    """The n x n matrix unit E_ij, exact."""
    e = np.zeros((n, n), dtype=object)
    e[i, j] = 1
    return e


def _brackets(mats, coords):
    """B[p, q] = coords([X_p, X_q]) for a basis X of matrices, shape (d, d, d)."""
    d = len(mats)
    return np.array([coords(x @ y - y @ x) for x in mats for y in mats],
                    dtype=object).reshape(d, d, d)


def _trace_gram(mats):
    """tr(X_p X_q), the trace form on a basis of matrices, shape (d, d)."""
    d = len(mats)
    return np.array([np.trace(x @ y) for x in mats for y in mats],
                    dtype=object).reshape(d, d)


def so_n_rational(n: int) -> StructureTensor:
    """so(n) on the basis E_ab - E_ba (a<b), with the form declaring it orthonormal.

    All structure constants are 0 or +-1, so the whole family stays exact.
    """
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    mats = [_unit(n, a, b) - _unit(n, b, a) for a, b in pairs]
    ent = _brackets(mats, lambda x: [x[a, b] for a, b in pairs])
    return StructureTensor(len(pairs), ent, RATIONAL, lie=True, check=False)


def sl2_killing() -> StructureTensor:
    """sl(2) with the Killing form as metric, in closed form: mu*eps, mu^2 = -1/2."""
    mu = 1 / cmath.sqrt(-2)
    return scale_tensor(so3_eps().to_complex(), mu)


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


def sl_n_trace(n: int) -> StructureTensor:
    return orthonormalize(sl_algebra(n))


def gl_algebra(n: int) -> MetricLieAlgebra:
    """gl(n) on the basis E_ij (index i*n + j) with the trace form."""
    mats = [_unit(n, i, j) for i in range(n) for j in range(n)]
    return MetricLieAlgebra(n * n, _brackets(mats, lambda x: x.reshape(-1)),
                            _trace_gram(mats), backend=RATIONAL)


def gl_n_trace(n: int) -> StructureTensor:
    return orthonormalize(gl_algebra(n))


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
    _check_keys(obj, "tensor")
    dim = _integer(obj["dim"])
    backend = obj["backend"]
    ent = zeros_array((dim, dim, dim), backend)
    for i, j, k, a, b in obj["entries"]:
        idx = tuple(map(_integer, (i, j, k)))
        if not all(0 <= x < dim for x in idx):
            raise ValueError(f"entry index {idx} outside 0..{dim - 1}")
        if backend == RATIONAL:
            ent[idx] = Fraction(_integer(a), _integer(b))
        else:
            ent[idx] = complex(a, b)
    lie = obj.get("lie", False)
    if not isinstance(lie, bool):
        raise TypeError(f"lie {lie!r} is not a JSON boolean")
    return StructureTensor(dim, ent, backend, lie=lie)
