import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from trivalent import (
    COMPLEX,
    RATIONAL,
    MetricLieAlgebra,
    StructureTensor,
    abelian,
    antisymmetry_check,
    cyclic_check,
    direct_sum,
    gl_n_trace,
    jacobi_check,
    k4,
    orthonormalize,
    partition_function,
    random_structure_tensor,
    scale_tensor,
    sl2_killing,
    sl_n_trace,
    so3_eps,
    so_n_rational,
    tensor_from_json_dict,
    tensor_to_json_dict,
    theta,
    vertexless_loop,
)
from trivalent.algebras import gl_algebra, sl_algebra, zeros_array
from trivalent.errors import BackendMismatch, DegenerateForm

from oracles import eye_array, killing_gram, sl2_algebra_killing, so3_algebra


def all_generators():
    return [
        ("abelian(5)", abelian(5)),
        ("so3_eps", so3_eps()),
        ("so_4", so_n_rational(4)),
        ("so_5", so_n_rational(5)),
        ("sl2_killing", sl2_killing()),
        ("sl_2_trace", sl_n_trace(2)),
        ("sl_3_trace", sl_n_trace(3)),
        ("gl_2_trace", gl_n_trace(2)),
    ]


class TestChecks:
    def test_so3_eps_entries(self):
        c = so3_eps()
        assert c.entries[0, 1, 2] == 1
        assert c.entries[1, 0, 2] == -1
        assert c.entries[0, 0, 1] == 0

    @pytest.mark.parametrize("name,c", all_generators())
    def test_generator_residuals(self, name, c):
        bound = 0 if c.backend == RATIONAL else 1e-12
        assert cyclic_check(c) <= bound
        assert antisymmetry_check(c) <= bound
        assert jacobi_check(c) <= bound

    def test_zero_tensor(self):
        z = abelian(4)
        assert jacobi_check(z) == 0 and antisymmetry_check(z) == 0

    def test_cyclic_but_not_antisymmetric(self):
        ent = zeros_array((3, 3, 3), RATIONAL)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            ent[i, j, k] = Fraction(1)
        c = StructureTensor(3, ent, RATIONAL)
        assert antisymmetry_check(c) > 0

    def test_non_cyclic_rejected(self):
        ent = zeros_array((2, 2, 2), RATIONAL)
        ent[0, 0, 1] = Fraction(1)
        with pytest.raises(ValueError):
            StructureTensor(2, ent, RATIONAL)


class TestOrthonormalize:
    def test_abelian_stays_zero(self):
        alg = MetricLieAlgebra(2, zeros_array((2, 2, 2), RATIONAL),
                               eye_array(2, RATIONAL), backend=RATIONAL)
        c = orthonormalize(alg)
        assert c.backend == COMPLEX
        assert c.entries.flatten().tolist() == [0j] * 8

    def test_so3_identity_gram_gives_eps(self):
        c = orthonormalize(so3_algebra())
        ref = so3_eps().to_complex()
        assert np.max(np.abs(c.entries - ref.entries)) < 1e-12

    def test_sl2_killing_theta_value(self):
        c = orthonormalize(sl2_algebra_killing())
        v = partition_function(c, theta())
        assert abs(v - 3) < 1e-9

    def test_degenerate_form(self):
        gram = zeros_array((2, 2), RATIONAL)
        gram[0, 0] = Fraction(1)
        with pytest.raises(DegenerateForm):
            orthonormalize(MetricLieAlgebra(2, zeros_array((2, 2, 2), RATIONAL),
                                            gram, backend=RATIONAL, check=False))

    def test_isotropic_pivoting_on_gl2(self):
        # trace form on gl(2) makes E12, E21 isotropic; must still succeed
        c = orthonormalize(gl_algebra(2))
        assert jacobi_check(c) < 1e-10

    def test_isotropic_standard_basis(self):
        # both standard basis vectors are isotropic; their sum is not
        gram = np.array([[0, 1], [1, 0]], dtype=object)
        c = orthonormalize(MetricLieAlgebra(2, zeros_array((2, 2, 2), RATIONAL), gram,
                                            backend=RATIONAL))
        assert c.entries.flatten().tolist() == [0j] * 8

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("make", [sl_n_trace, gl_n_trace])
    def test_theta_on_trace_forms(self, make, n):
        # theta = 2n(n^2 - 1) on sl(n) and on gl(n), whose centre adds nothing
        v = partition_function(make(n), theta())
        assert abs(v - 2 * n * (n * n - 1)) < 1e-9 * n ** 3

    def test_deterministic(self):
        for make in (sl_n_trace, gl_n_trace):
            assert np.array_equal(make(3).entries, make(3).entries)


class TestKilling:
    def test_sl2_killing_gram(self):
        alg = sl2_algebra_killing()
        g = alg.gram
        assert g[0, 0] == 8 and g[1, 2] == 4 and g[2, 1] == 4
        assert g[0, 1] == 0 and g[1, 1] == 0

    def test_so3_killing_is_minus_two_identity(self):
        kg = killing_gram(so3_algebra())
        for i in range(3):
            for j in range(3):
                assert kg[i, j] == (-2 if i == j else 0)


class TestClosedForms:
    def test_sl2_killing_scaling(self):
        c = sl2_killing()
        mu = c.entries[0, 1, 2]
        assert abs(mu ** 2 - (-0.5)) < 1e-14

    def test_sl2_killing_matches_orthonormalization(self):
        # same orbit under orthogonal transformations: equal on a graph corpus
        a = sl2_killing()
        b = orthonormalize(sl2_algebra_killing())
        from trivalent import edge_connected_sum, enumerate_fixed_diagrams
        graphs = list(enumerate_fixed_diagrams(0, 4))[:10]
        for g in graphs:
            va, vb = partition_function(a, g), partition_function(b, g)
            assert abs(va - vb) <= 1e-9 * max(1, abs(va))

    def test_so_n_theta_scaling(self):
        for n in (3, 4, 5):
            c = so_n_rational(n)
            assert partition_function(c, theta()) == -n * (n - 1) * (n - 2)

    def test_so_n_theta_is_minus_square_sum(self):
        # theta's two rotations differ by one swap, so its value is -sum c^2
        for n in (3, 4):
            c = so_n_rational(n)
            square_sum = sum(x * x for x in c.entries.flat)
            assert partition_function(c, theta()) == -square_sum


class TestSums:
    def test_direct_sum_of_abelians(self):
        c = direct_sum(abelian(1), abelian(2))
        assert c.dim == 3
        assert (c.entries == abelian(3).entries).all()

    def test_direct_sum_theta(self):
        c = direct_sum(so3_eps(), so3_eps())
        assert partition_function(c, theta()) == -12

    def test_backend_mismatch(self):
        with pytest.raises(BackendMismatch):
            direct_sum(so3_eps(), sl2_killing())
        with pytest.raises(BackendMismatch):
            scale_tensor(so3_eps(), 0.5)

    def test_scale_tensor_law(self):
        c = scale_tensor(so3_eps(), 2)
        assert partition_function(c, k4()) == 96
        assert partition_function(c, vertexless_loop()) == 3


class TestJson:
    @pytest.mark.parametrize("make", [so3_eps, sl2_killing, lambda: abelian(3),
                                      lambda: so_n_rational(4)])
    def test_round_trip(self, make):
        c = make()
        obj = json.loads(json.dumps(tensor_to_json_dict(c)))
        c2 = tensor_from_json_dict(obj)
        assert c2.dim == c.dim and c2.backend == c.backend and c2.lie == c.lie
        assert (c2.entries == c.entries).all()

    def test_sparse_entries_only(self):
        obj = tensor_to_json_dict(so3_eps())
        assert len(obj["entries"]) == 6


class TestRandomTensors:
    def test_deterministic(self):
        a = random_structure_tensor(3, seed=5)
        b = random_structure_tensor(3, seed=5)
        assert (a.entries == b.entries).all()

    def test_cyclic_invariance(self):
        for seed in range(5):
            assert cyclic_check(random_structure_tensor(4, seed=seed)) == 0

    def test_antisymmetric_variant(self):
        c = random_structure_tensor(3, seed=1, antisymmetric=True)
        assert antisymmetry_check(c) == 0

    def test_dim2_antisymmetric_is_zero(self):
        # there is no nonzero fully antisymmetric cubic tensor in dimension 2
        c = random_structure_tensor(2, seed=0, antisymmetric=True)
        assert all(x == 0 for x in c.entries.flat)


class TestPinnedGenerators:
    """The bracket and Gram entries of the matrix generators, value and Python
    type, as sha256 of one `type value` line per entry (bracket, then Gram)."""

    DIGESTS = {
        ("so", 2): "ff3ed6e3ab8795c49227b390a41ebd5baf16d9269dddd9eefc89f95728a64ec0",
        ("so", 3): "a7a929a20c5b30b59832bd385f7ae2b1bfcc1eb00ca2027e6c5af413771c9017",
        ("so", 4): "5163adc6b753726236a5c33fdaa545ccca237778f125fc63e99217cc5852ffd4",
        ("so", 5): "e052d28f8eca1752ff13ae0fb88bc29ff056b78b5466f04c51eb032ac65e05b7",
        ("so", 6): "e129ed70f06cc7d7c680326a3cc84b92ed60ee8a074a3f1228e70185e3c84b7c",
        ("sl", 2): "0c991fb0287b6558e2b993ed8f9e528980c799c233d3933067079aa957b6deb6",
        ("sl", 3): "28b255a4035402086d103c8f18ba067e1e5328e2256f7022e041a9044326c87c",
        ("sl", 4): "7038c70bb145ee3c5ced6004683323c2cf535a2b02d07102faaf773b4d57679d",
        ("gl", 1): "954c815cf7c8f1143e1a3dc6013431e927572ee130656464de2494f9a6991779",
        ("gl", 2): "29ae2c6628151ae344c0cca9ace5f899675cedf449898e259cbca75ae2f7b5ab",
        ("gl", 3): "8baaa09176994251e4ac61bc9e30be1324b5ac1c3cada05c6a6a93b667bf3f6b",
    }

    @pytest.mark.parametrize("name, n", sorted(DIGESTS))
    def test_digest(self, name, n):
        if name == "so":
            arrays = (so_n_rational(n).entries,)  # the form is the identity
        else:
            g = {"sl": sl_algebra, "gl": gl_algebra}[name](n)
            arrays = (g.bracket, g.gram)
        text = "\n".join(f"{type(x).__name__} {x}" for a in arrays for x in a.flat)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[name, n]
