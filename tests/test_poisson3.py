import numpy as np
import pytest

from resdp import casimir, poisson3
from resdp import resonance_maps as rm
from resdp.errors import OffDomain
from resdp.poisson3 import PoissonStructure3, ScalarField, coordinate_fields
from resdp.resonance_maps import Resonance
from resdp.verification import sample_leaf_points

FX, FY, FZ = coordinate_fields()


def sphere_structure():
    """The 1:1 field (2x, 2y, 2z), smooth on all of R^3."""
    return PoissonStructure3(field=lambda p: 2.0 * p, label="sphere")


def vertical_structure():
    return PoissonStructure3(field=lambda p: np.array([0.0, 0.0, 1.0]), label="e_z")


def twist_structure():
    """Nonzero-helicity control field (z, x, y): not Poisson."""
    return PoissonStructure3(field=lambda p: p[..., [2, 0, 1]], label="twist")


def leaf_points(res, count, seed):
    return sample_leaf_points(res, count, seed)


class TestBracket:
    def test_vertical_field_canonical_pair(self):
        assert poisson3.bracket(vertical_structure(), FX, FY, [0.3, -0.2, 0.9]) == 1.0

    def test_sphere_structure_at_pole(self):
        assert poisson3.bracket(sphere_structure(), FX, FY, [0.0, 0.0, 1.0]) == 2.0

    def test_antisymmetry_diagonal(self):
        assert poisson3.bracket(sphere_structure(), FX, FX, [1.0, 2.0, 3.0]) == 0.0

    def test_bilinear_and_antisymmetric(self):
        rng = np.random.default_rng(0)
        s = sphere_structure()
        for _ in range(20):
            p = rng.normal(size=3)
            ab = poisson3.bracket(s, FX, FY, p)
            ba = poisson3.bracket(s, FY, FX, p)
            assert ab == pytest.approx(-ba, abs=1e-14)

    def test_leibniz_with_fd_gradients(self):
        s = sphere_structure()
        def xy(p):
            return p[..., 0] * p[..., 1]

        fg = ScalarField(xy, lambda p: poisson3.central_difference(
            xy, p, 1e-6 * (1.0 + poisson3.norm(p))))
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = rng.uniform(0.5, 1.5, size=3)
            lhs = poisson3.bracket(s, fg, FZ, p)
            rhs = p[0] * poisson3.bracket(s, FY, FZ, p) \
                + p[1] * poisson3.bracket(s, FX, FZ, p)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_fd_gradient_of_cubic(self):
        def cubic(p):
            x, y, z = np.moveaxis(p, -1, 0)
            return x ** 3 - 2.0 * x * y * z + 0.5 * z ** 3 + y

        def exact(p):
            return np.array([3.0 * p[0] ** 2 - 2.0 * p[1] * p[2], -2.0 * p[0] * p[2] + 1.0,
                             -2.0 * p[0] * p[1] + 1.5 * p[2] ** 2])

        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.uniform(-1.5, 1.5, size=3)
            got = poisson3.central_difference(cubic, p, 1e-6 * (1.0 + np.linalg.norm(p)))
            assert np.max(np.abs(got - exact(p))) < 1e-8

    def test_off_domain_raises(self):
        s = poisson3.resonance_structure(Resonance(2, 1))
        with pytest.raises(OffDomain):
            poisson3.bracket(s, FX, FY, [0.0, 0.0, 1.0])

    def test_off_domain_messages_name_the_point_and_row(self):
        s = poisson3.resonance_structure(Resonance(2, 1))
        with pytest.raises(OffDomain) as single:
            s.field_at([0.0, 0.0, 1.0])
        assert str(single.value) == ("point (0.0, 0.0, 1.0) outside domain of structure "
                                     "'2:1 resonance'")
        with pytest.raises(OffDomain) as batch:
            s.field_at([[1.0, 0.0, 0.5], [0.0, 0.0, 1.0]])
        assert str(batch.value) == ("point (0.0, 0.0, 1.0) at row 1 outside domain of "
                                    "structure '2:1 resonance'")
        upper = PoissonStructure3(field=lambda p: p, domain=lambda p: p[..., 2] > 0.0,
                                  label="{z > 0}")
        with pytest.raises(OffDomain, match="structure '{z > 0}'$"):
            upper.field_at([1.0, 2.0, -3.0])


class TestHamiltonianVF:
    def test_vertical_field_with_x(self):
        got = poisson3.hamiltonian_vf(vertical_structure(), FX, [0.0, 0.0, 0.0])
        assert np.allclose(got, [0.0, 1.0, 0.0])

    def test_casimir_hamiltonian_is_stationary(self):
        res = Resonance(2, 1)
        s = poisson3.resonance_structure(res)
        cas = ScalarField(lambda p: casimir.solve_casimir(res, p).value,
                           lambda p: casimir.solve_casimir(res, p).gradient)
        p = leaf_points(res, 20, seed=2)
        vf = poisson3.hamiltonian_vf(s, cas, p)
        assert np.all(np.linalg.norm(vf, axis=-1)
                      < 1e-9 * (1.0 + np.linalg.norm(s.field_at(p), axis=-1)))

    def test_constant_hamiltonian(self):
        const = ScalarField(lambda p: 4.2, lambda p: np.zeros(3))
        got = poisson3.hamiltonian_vf(sphere_structure(), const, [1.0, 1.0, 1.0])
        assert np.allclose(got, 0.0)

    def test_orthogonal_to_field_and_gradient(self):
        rng = np.random.default_rng(3)
        s = sphere_structure()
        h = ScalarField(lambda p: p[0] + 0.5 * p[2] ** 2,
                         lambda p: np.array([1.0, 0.0, p[2]]))
        for _ in range(20):
            p = rng.normal(size=3)
            vf = poisson3.hamiltonian_vf(s, h, p)
            assert abs(vf @ s.field_at(p)) < 1e-12
            assert abs(vf @ h.gradient(p)) < 1e-12


def nambu(c, f, g, p):
    """Jac(C, F, G): the bracket of F and G under the gradient structure of C."""
    return poisson3.bracket(PoissonStructure3(field=c.gradient), f, g, p)


class TestNambu:
    def test_coordinates(self):
        assert nambu(FZ, FX, FY, [0.1, 0.2, 0.3]) == 1.0

    def test_radius_squared(self):
        r2 = ScalarField(lambda p: p @ p, lambda p: 2.0 * p)
        assert nambu(r2, FX, FY, [0.0, 0.0, 1.0]) == 2.0

    def test_repeated_argument_vanishes(self):
        assert nambu(FX, FX, FY, [1.0, 2.0, 3.0]) == 0.0

    def test_totally_antisymmetric(self):
        rng = np.random.default_rng(4)
        p = rng.normal(size=3)
        base = nambu(FX, FY, FZ, p)
        assert nambu(FY, FX, FZ, p) == pytest.approx(-base, abs=1e-14)
        assert nambu(FZ, FX, FY, p) == pytest.approx(base, abs=1e-14)

    def test_matches_gradient_structure(self):
        # {F, G} of the structure v = grad C is the determinant of the
        # three gradients.
        fields = [ScalarField(lambda p: p @ p, lambda p: 2.0 * p),
                  ScalarField(lambda p: p[0] * p[1] * p[2],
                              lambda p: np.array([p[1] * p[2], p[0] * p[2], p[0] * p[1]])),
                  ScalarField(lambda p: np.sin(p[0]) + p[2] ** 2,
                              lambda p: np.array([np.cos(p[0]), 0.0, 2.0 * p[2]]))]
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = rng.normal(size=3)
            c, f, g = (fields[i] for i in rng.permutation(3))
            s = PoissonStructure3(field=c.gradient)
            det = np.linalg.det(np.array([c.gradient(p), f.gradient(p), g.gradient(p)]))
            assert poisson3.bracket(s, f, g, p) == pytest.approx(det, abs=1e-12)


class TestIntegrability:
    def test_gradient_field_closed(self):
        assert poisson3.integrability_defect(sphere_structure(), [1.0, -0.5, 2.0]) < 1e-9

    def test_fd_jacobian_layout(self):
        # Row i holds the derivatives of component i, as the curl expects.
        a = np.array([[1.0, 2.0, -3.0], [0.5, -1.0, 4.0], [7.0, 0.25, 2.0]])
        jac = poisson3.central_difference(lambda p: p @ a.T, [0.3, -1.2, 0.8], 1e-3)
        assert np.allclose(jac, a, rtol=0.0, atol=1e-10)
        fd = poisson3.fd_jacobian(PoissonStructure3(field=lambda p: p @ a.T), np.ones(3))
        assert np.allclose(poisson3.curl(fd),
                           [a[2, 1] - a[1, 2], a[0, 2] - a[2, 0], a[1, 0] - a[0, 1]],
                           rtol=0.0, atol=1e-10)

    def test_twist_control_value(self):
        got = poisson3.integrability_defect(twist_structure(), [1.0, 1.0, 1.0])
        assert got == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("n,m,sign", [(1, 1, "plus"), (3, 2, "plus"),
                                          (2, 1, "minus"), (3, 3, "minus")])
    def test_resonance_structures(self, n, m, sign):
        res = Resonance(n, m, sign)
        s = poisson3.resonance_structure(res)
        assert np.all(poisson3.integrability_defect(s, leaf_points(res, 15, seed=6)) < 1e-8)


class TestClosedFormJacobian:
    # The twist field (z, x, y) with its constant Jacobian: helicity x + y + z.
    TWIST_JAC = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def twist(self, with_jacobian):
        jac = (lambda p: np.broadcast_to(self.TWIST_JAC, np.shape(p) + (3,))) \
            if with_jacobian else None
        return PoissonStructure3(field=lambda p: p[..., [2, 0, 1]], label="twist", jacobian=jac)

    def test_helicity_from_the_jacobian(self):
        pts = np.random.default_rng(24).uniform(0.5, 1.5, size=(10, 3))
        got = poisson3.integrability_defect(self.twist(True), pts)
        assert np.allclose(got, np.abs(pts.sum(axis=-1)), rtol=1e-15, atol=0.0)
        fd = poisson3.integrability_defect(self.twist(False), pts)
        assert np.allclose(got, fd, rtol=1e-9, atol=0.0)

    def test_jacobi_sum_is_exact_for_nonlinear_functions(self):
        # The second derivatives of F, G and H cancel in the cyclic sum, so
        # J^T (grad F x grad G) as the outer gradient gives the Jacobiator,
        # (v . curl v) det(grad F, grad G, grad H), for nonlinear F, G, H too.
        f = ScalarField(lambda p: p[..., 0] * p[..., 1],
                        lambda p: np.stack([p[..., 1], p[..., 0], 0.0 * p[..., 2]], axis=-1))
        g = ScalarField(lambda p: p[..., 2] ** 2 + p[..., 0],
                        lambda p: np.stack([1.0 + 0.0 * p[..., 0], 0.0 * p[..., 1],
                                            2.0 * p[..., 2]], axis=-1))
        h = ScalarField(lambda p: np.sin(p[..., 1]),
                        lambda p: np.stack([0.0 * p[..., 0], np.cos(p[..., 1]),
                                            0.0 * p[..., 2]], axis=-1))
        pts = np.random.default_rng(25).uniform(0.5, 1.5, size=(10, 3))
        got = poisson3.jacobi_defect(self.twist(True), f, g, h, pts)
        det = np.linalg.det(np.stack([f.gradient(pts), g.gradient(pts), h.gradient(pts)], -2))
        assert np.allclose(got, np.abs(pts.sum(axis=-1) * det), rtol=1e-13, atol=1e-15)
        fd = poisson3.jacobi_defect(self.twist(False), f, g, h, pts)
        assert np.allclose(got, fd, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("res", [Resonance(n, m, sign) for sign in ("plus", "minus")
                                     for n, m in ((1, 1), (2, 1), (1, 4), (4, 3))], ids=str)
    def test_resonance_jacobian_row_layout(self, res):
        # Rows 0 and 1 are 2 mn e_x and 2 mn e_y; row 2 is the gradient of v3.
        s = poisson3.resonance_structure(res)
        pts = leaf_points(res, 5, seed=26)
        jac = s.jacobian_at(pts)
        assert np.array_equal(jac[:, :2], np.broadcast_to(2.0 * res.mn * np.eye(3)[:2], (5, 2, 3)))
        fd = poisson3.fd_jacobian(s, pts)
        assert np.all(poisson3.norm(fd[:, 2] - jac[:, 2]) <= 1e-6 * poisson3.norm(jac[:, 2]))

    def test_jacobian_off_domain_raises(self):
        with pytest.raises(OffDomain, match="at row 1"):
            poisson3.resonance_structure(Resonance(2, 1)).jacobian_at([[1.0, 0.0, 0.5],
                                                                       [0.0, 0.0, 1.0]])


class TestJacobi:
    def test_sphere_structure(self):
        s = sphere_structure()
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = rng.uniform(0.4, 1.2, size=3)
            assert poisson3.jacobi_defect(s, FX, FY, FZ, p) < 1e-5

    def test_twist_control_fails(self):
        assert poisson3.jacobi_defect(twist_structure(), FX, FY, FZ,
                                      [1.0, 1.0, 1.0]) > 1e-2

    def test_repeated_argument_small(self):
        s = sphere_structure()
        assert poisson3.jacobi_defect(s, FX, FX, FZ, [0.7, 0.2, 0.4]) < 1e-8

    @pytest.mark.parametrize("n,m,sign", [(2, 1, "plus"), (2, 3, "minus")])
    def test_resonance_structures(self, n, m, sign):
        res = Resonance(n, m, sign)
        s = poisson3.resonance_structure(res)
        assert np.all(poisson3.jacobi_defect(s, FX, FY, FZ, leaf_points(res, 6, seed=8)) < 1e-5)


class TestBatches:
    # A batch evaluates the field once per stencil on all its points; every
    # point keeps the bits of its own single-point call.
    @pytest.mark.parametrize("res", [Resonance(n, m, sign) for sign in ("plus", "minus")
                                     for n, m in ((1, 1), (2, 1), (3, 4), (4, 3))], ids=str)
    def test_resonance_defects_match_per_point_calls(self, res):
        s = poisson3.resonance_structure(res)
        pts = leaf_points(res, 4, seed=21)
        assert (poisson3.integrability_defect(s, pts).tolist()
                == [poisson3.integrability_defect(s, p) for p in pts])
        assert (poisson3.jacobi_defect(s, FX, FY, FZ, pts).tolist()
                == [poisson3.jacobi_defect(s, FX, FY, FZ, p) for p in pts])

    def test_twist_defects_match_per_point_calls(self):
        s = PoissonStructure3(field=lambda p: p[..., [2, 0, 1]], label="twist")
        pts = np.random.default_rng(22).uniform(0.5, 1.5, size=(20, 3))
        integ = poisson3.integrability_defect(s, pts)
        jac = poisson3.jacobi_defect(s, FX, FY, FZ, pts)
        assert integ.tolist() == [poisson3.integrability_defect(s, p) for p in pts]
        assert jac.tolist() == [poisson3.jacobi_defect(s, FX, FY, FZ, p) for p in pts]
        assert np.all(integ > 1e-2) and np.all(jac > 1e-2)

    def test_central_difference_gives_a_point_the_same_bits_at_every_shape(self):
        # (d,), (k, d) and (j, k, d) run one code path: one call of fn on
        # every stencil point, then the leading axes restored.
        def vector(q):
            x, y, z = np.moveaxis(q, -1, 0)
            return np.stack([x * y * z, np.sin(x) + z ** 2], axis=-1)

        def scalar(q):
            return q[..., 0] * np.cos(q[..., 2])

        pts = np.random.default_rng(27).uniform(-1.5, 1.5, size=(2, 3, 3))
        h = 1e-4 * (1.0 + poisson3.norm(pts))
        for fn, tail in ((vector, (2, 3)), (scalar, (3,))):
            stack = poisson3.central_difference(fn, pts, h)
            assert stack.shape == (2, 3) + tail
            batch = poisson3.central_difference(fn, pts.reshape(6, 3), h.reshape(6))
            assert batch.tolist() == stack.reshape((6,) + tail).tolist()
            for p, step, row in zip(pts.reshape(6, 3), h.reshape(6), batch):
                assert poisson3.central_difference(fn, p, step).tolist() == row.tolist()

    @pytest.mark.parametrize("res", [Resonance(3, 2), Resonance(2, 4, "minus")], ids=str)
    def test_fd_jacobian_of_a_point_equals_its_batch_row(self, res):
        s = poisson3.resonance_structure(res)
        pts = leaf_points(res, 4, seed=28)
        batch = poisson3.fd_jacobian(s, pts)
        assert poisson3.fd_jacobian(s, pts.reshape(2, 2, 3)).tolist() \
            == batch.reshape(2, 2, 3, 3).tolist()
        for p, row in zip(pts, batch):
            assert poisson3.fd_jacobian(s, p).tolist() == row.tolist()

    def test_fd_jacobian_reads_exactly_the_stencil(self):
        seen = []

        def recording(q):
            seen.append(q.copy())
            return q[..., [2, 0, 1]]

        pts = np.random.default_rng(29).normal(size=(4, 3))
        poisson3.fd_jacobian(PoissonStructure3(field=recording), pts)
        assert len(seen) == 1
        assert seen[0].tolist() == poisson3.fd_stencil(pts).tolist()

    def test_batch_jacobian_layout(self):
        # Row i of each point's Jacobian holds the derivatives of component i.
        a = np.array([[1.0, 2.0, -3.0], [0.5, -1.0, 4.0], [7.0, 0.25, 2.0]])
        pts = np.random.default_rng(23).normal(size=(5, 3))
        jac = poisson3.central_difference(lambda p: p @ a.T, pts, 1e-3)
        assert jac.shape == (5, 3, 3)
        assert np.allclose(jac, a, rtol=0.0, atol=1e-10)


class TestBivector:
    def test_vertical_field_matrix(self):
        got = poisson3.bivector_matrix(vertical_structure(), [0.0, 0.0, 0.0])
        assert np.array_equal(got, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])

    def test_zero_field(self):
        s = PoissonStructure3(field=lambda p: np.zeros(3))
        got = poisson3.bivector_matrix(s, [1.0, 1.0, 1.0])
        assert np.array_equal(got, np.zeros((3, 3)))
        assert np.linalg.matrix_rank(got) == 0

    def test_kernel_is_field(self):
        rng = np.random.default_rng(9)
        s = sphere_structure()
        for _ in range(20):
            p = rng.normal(size=3)
            mat = poisson3.bivector_matrix(s, p)
            assert np.allclose(mat @ s.field_at(p), 0.0, atol=1e-14)
            assert np.allclose(mat, -mat.T)

    def test_reproduces_bracket(self):
        s = sphere_structure()
        rng = np.random.default_rng(10)
        h = ScalarField(lambda p: p[0] * p[2], lambda p: np.array([p[2], 0.0, p[0]]))
        for _ in range(10):
            p = rng.normal(size=3)
            mat = poisson3.bivector_matrix(s, p)
            direct = poisson3.bracket(s, FX, h, p)
            assert FX.gradient(p) @ mat @ h.gradient(p) == pytest.approx(direct, abs=1e-13)

    @pytest.mark.parametrize("n,m,sign", [(1, 1, "plus"), (4, 3, "plus"), (2, 1, "minus")])
    def test_rank_two_on_domain(self, n, m, sign):
        res = Resonance(n, m, sign)
        s = poisson3.resonance_structure(res)
        for p in leaf_points(res, 20, seed=11):
            assert np.linalg.matrix_rank(poisson3.bivector_matrix(s, p)) == 2


class TestResonanceStructure:
    def test_one_one_field_is_linear(self):
        s = poisson3.resonance_structure(Resonance(1, 1))
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = rng.uniform(-1.5, 1.5, size=3)
            if p[0] ** 2 + p[1] ** 2 < 1e-4:
                continue
            assert np.allclose(s.field_at(p), 2.0 * p, atol=1e-12)

    def test_two_one_example(self):
        s = poisson3.resonance_structure(Resonance(2, 1))
        got = s.field_at([1.0, 0.0, 0.0])
        assert np.allclose(got, [4.0, 0.0, 2.0 * 2 ** (-1 / 3)], rtol=1e-12)

    def test_minus_example(self):
        s = poisson3.resonance_structure(Resonance(1, 1, "minus"))
        got = s.field_at([0.6, 0.0, 1.0])
        assert np.allclose(got, [1.2, 0.0, -2.0], atol=1e-12)

    def test_field_is_mn_times_leaf_field(self):
        res = Resonance(3, 2)
        s = poisson3.resonance_structure(res)
        p = leaf_points(res, 10, seed=13)
        assert np.allclose(s.field_at(p), 6.0 * casimir.leaf_field(res, p))

    @pytest.mark.parametrize("n,m,sign", [(1, 1, "plus"), (2, 3, "plus"), (2, 1, "minus")])
    def test_casimir_property(self, n, m, sign):
        res = Resonance(n, m, sign)
        s = poisson3.resonance_structure(res)
        cas = ScalarField(lambda p: casimir.solve_casimir(res, p).value,
                           lambda p: casimir.solve_casimir(res, p).gradient)
        p = leaf_points(res, 25, seed=14)
        for coord in (FX, FY, FZ):
            assert np.all(np.abs(poisson3.bracket(s, cas, coord, p)) < 1e-8)

    def test_leaf_tangency(self):
        res = Resonance(2, 1)
        s = poisson3.resonance_structure(res)
        h = ScalarField(lambda p: p[2] + 0.3 * p[0], lambda p: np.array([0.3, 0.0, 1.0]))
        p = leaf_points(res, 20, seed=15)
        vf = poisson3.hamiltonian_vf(s, h, p)
        grad = casimir.solve_casimir(res, p).gradient
        norms = np.linalg.norm(vf, axis=-1) * np.linalg.norm(grad, axis=-1)
        assert np.all(np.abs(np.sum(vf * grad, axis=-1)) < 1e-9 * (1.0 + norms))
