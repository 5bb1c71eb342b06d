import numpy as np
import pytest

from resdp import group_actions as ga
from resdp import phase_space as ps
from resdp.errors import FiberMismatch, NotInImage, SingularEmbed


def cpoint(a1, a2):
    return ps.from_complex(a1, a2)


IDENTITY = ga.GroupElement(np.eye(2, dtype=complex), "plus")


class TestLieAlgebra:
    def test_plus_axis_matrices(self):
        assert np.allclose(ga.lie_algebra_matrix("plus", [0, 0, 1]), np.diag([1j, -1j]))
        assert np.allclose(ga.lie_algebra_matrix("plus", [1, 0, 0]),
                           np.array([[0, 1j], [1j, 0]]))

    def test_minus_axis_matrix(self):
        assert np.allclose(ga.lie_algebra_matrix("minus", [1, 0, 0]),
                           np.array([[0, 1j], [-1j, 0]]))

    def test_skew_and_traceless(self):
        rng = np.random.default_rng(0)
        for sign in ("plus", "minus"):
            for _ in range(50):
                xi = ga.lie_algebra_matrix(sign, rng.normal(size=3))
                assert abs(np.trace(xi)) < 1e-15
                assert ps.skew_defect(sign, xi) < 1e-15

    def test_components_roundtrip(self):
        rng = np.random.default_rng(1)
        for sign in ("plus", "minus"):
            v = rng.normal(size=3)
            w = ga.lie_algebra_components(sign, ga.lie_algebra_matrix(sign, v))
            assert np.allclose(v, w, atol=1e-15)

    def test_pattern_mismatch_raises(self):
        with pytest.raises(NotInImage):
            ga.lie_algebra_components("plus", np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestEmbedAndAct:
    def test_embed_scalar_point(self):
        assert np.allclose(ga.point_matrix(cpoint(3.0, 0.0), "plus"), 3.0 * np.eye(2))

    def test_embed_swapped_point(self):
        got = ga.point_matrix(cpoint(0.0, 2.0), "plus")
        assert np.allclose(got, np.array([[0.0, -2.0], [2.0, 0.0]]))

    def test_embed_null_fiber_determinant(self):
        k = ga.point_matrix(cpoint(1.0, 1.0), "minus")
        assert np.allclose(k, np.ones((2, 2)))
        assert abs(np.linalg.det(k)) < 1e-15

    def test_identity_acts_trivially(self):
        a = cpoint(0.3 + 0.4j, -1.0 + 0.2j)
        assert np.allclose(ga.act(IDENTITY, a), a)

    def test_rotation_action(self):
        g = ga.GroupElement(np.array([[0, -1], [1, 0]], dtype=complex), "plus")
        assert np.allclose(ga.act(g, cpoint(2.0, 0.0)), cpoint(0.0, 2.0))

    def test_phase_action(self):
        th = 0.6
        g = ga.GroupElement(np.diag([np.exp(1j * th), np.exp(-1j * th)]), "plus")
        got = ga.act(g, cpoint(1.0, 1.0))
        assert np.allclose(got, cpoint(np.exp(1j * th), np.exp(-1j * th)))

    def test_action_preserves_forms(self):
        rng = np.random.default_rng(2)
        for sign in ("plus", "minus"):
            for _ in range(100):
                g = ga.random_element(sign, rng)
                a, b = rng.normal(size=(2, 4))
                before = ps.hermitian(sign, a, b)
                after = ps.hermitian(sign, ga.act(g, a), ga.act(g, b))
                assert abs(after - before) < 1e-12


class TestGroupElements:
    def test_constructors_satisfy_invariants(self):
        rng = np.random.default_rng(3)
        for sign in ("plus", "minus"):
            for _ in range(100):
                g = ga.random_element(sign, rng)
                assert ga.group_defect(g) < 1e-12

    def test_closure_products_and_inverses(self):
        rng = np.random.default_rng(4)
        for sign in ("plus", "minus"):
            for _ in range(100):
                g = ga.random_element(sign, rng)
                h = ga.random_element(sign, rng)
                assert ga.group_defect(ga.GroupElement(g.matrix @ h.matrix, sign)) < 1e-12
                assert ga.group_defect(g.inverse()) < 1e-12

    def test_group_defect_flags_junk(self):
        bad = ga.GroupElement(np.array([[2.0, 0.0], [0.0, 0.5]]), "plus")
        assert ga.group_defect(bad) > 1e-12


class TestTransitivity:
    def test_su2_quarter_turn(self):
        g = ga.transitive_element(cpoint(1.0, 0.0), cpoint(0.0, 1.0), "plus")
        assert np.allclose(g.matrix, np.array([[0, -1], [1, 0]]))

    def test_same_point_gives_identity(self):
        a = cpoint(0.6 + 0.1j, 0.8j)
        g = ga.transitive_element(a, a, "plus")
        assert np.allclose(g.matrix, np.eye(2), atol=1e-14)

    def test_su11_roundtrip(self):
        rng = np.random.default_rng(5)
        a = cpoint(2.0, 1.0)
        g0 = ga.random_element("minus", rng)
        b = ga.act(g0, a)
        g = ga.transitive_element(a, b, "minus")
        assert np.max(np.abs(ga.act(g, a) - b)) < 1e-12
        assert ga.group_defect(g) < 1e-12

    def test_roundtrip_many(self):
        rng = np.random.default_rng(6)
        for sign in ("plus", "minus"):
            done = 0
            while done < 300:
                a = rng.uniform(-1.5, 1.5, size=4)
                level = float(np.real(ps.hermitian(sign, a, a)))
                if abs(level) < 0.1:
                    continue
                g0 = ga.random_element(sign, rng)
                b = ga.act(g0, a)
                g = ga.transitive_element(a, b, sign)
                assert np.max(np.abs(ga.act(g, a) - b)) < 1e-12
                done += 1

    def test_null_fiber_refused(self):
        with pytest.raises(SingularEmbed):
            ga.transitive_element(cpoint(1.0, 1.0), cpoint(1.0, 1.0), "minus")

    def test_fiber_mismatch_refused(self):
        with pytest.raises(FiberMismatch):
            ga.transitive_element(cpoint(1.0, 0.0), cpoint(2.0, 0.0), "plus")


class TestAdjoint:
    def test_identity_fixes_vectors(self):
        v = np.array([0.3, -0.7, 1.1])
        assert np.allclose(ga.adjoint("plus", IDENTITY, v), v)

    def test_quarter_phase_rotates_axes(self):
        g = ga.GroupElement(np.diag([np.exp(1j * np.pi / 4),
                                     np.exp(-1j * np.pi / 4)]), "plus")
        w = ga.adjoint("plus", g, [1.0, 0.0, 0.0])
        assert np.allclose(w, [0.0, -1.0, 0.0], atol=1e-14)

    def test_zero_vector_fixed(self):
        rng = np.random.default_rng(7)
        g = ga.random_element("plus", rng)
        assert np.allclose(ga.adjoint("plus", g, np.zeros(3)), np.zeros(3))

    def test_plus_preserves_euclidean_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            g = ga.random_element("plus", rng)
            v = rng.normal(size=3)
            w = ga.adjoint("plus", g, v)
            assert abs(w @ w - v @ v) < 1e-12

    def test_minus_preserves_lorentz_form(self):
        rng = np.random.default_rng(9)
        quad = lambda v: v[0] ** 2 + v[1] ** 2 - v[2] ** 2
        for _ in range(200):
            g = ga.random_element("minus", rng)
            v = rng.normal(size=3)
            w = ga.adjoint("minus", g, v)
            assert abs(quad(w) - quad(v)) < 1e-12


class TestEquivariance:
    def test_identity_element(self):
        a = cpoint(0.5 + 0.5j, -0.3)
        assert ga.equivariance_defect("plus", IDENTITY, a, [1.0, 2.0, 3.0]) == 0.0

    @pytest.mark.parametrize("sign", ["plus", "minus"], ids=["plus-SU2", "minus-SU11"])
    def test_random_elements(self, sign):
        rng = np.random.default_rng(10)
        for _ in range(300):
            g = ga.random_element(sign, rng)
            a = rng.uniform(-1.5, 1.5, size=4)
            v = rng.normal(size=3)
            assert ga.equivariance_defect(sign, g, a, v) < 1e-12


class TestSignArgument:
    @pytest.mark.parametrize("call", [
        lambda s: ga.lie_algebra_matrix(s, [0.0, 0.0, 1.0]),
        lambda s: ga.random_element(s, np.random.default_rng(0)),
        lambda s: ga.point_matrix(cpoint(1.0, 0.5), s),
        lambda s: ga.transitive_element(cpoint(1.0, 0.0), cpoint(0.0, 1.0), s),
    ], ids=["lie_algebra_matrix", "random_element", "point_matrix", "transitive_element"])
    @pytest.mark.parametrize("bad", ["SU2", "SU11", None])
    def test_unknown_sign_raises(self, call, bad):
        with pytest.raises(ValueError, match="sign must be"):
            call(bad)

    def test_elements_carry_their_sign(self):
        assert ga.su2_element(1.0, 0.5).sign == "plus"
        assert ga.su11_element(1.0, 0.5).sign == "minus"
