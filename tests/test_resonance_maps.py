import numpy as np
import pytest

from resdp import group_actions as ga
from resdp import phase_space as ps
from resdp import resonance_maps as rm
from resdp.casimir import solve_casimir
from resdp.dynamics import circle_flow
from resdp.errors import OnAxis
from resdp.resonance_maps import Resonance
from resdp.verification import GRID


def cpoint(a1, a2):
    return ps.from_complex(a1, a2)


def random_in_domain(res, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = rng.uniform(-1.5, 1.5, size=4)
        if rm.in_domain(res, a):
            out.append(a)
    return np.array(out)


class TestResonanceType:
    def test_rejects_bad_integers(self):
        with pytest.raises(ValueError):
            Resonance(0, 1)
        with pytest.raises(ValueError):
            Resonance(2, -3)
        with pytest.raises(ValueError):
            Resonance(1, 1, "sideways")

    def test_integral_floats_are_stored_as_int(self):
        # A float n reached the Casimir solver's integer powers as a TypeError.
        res = Resonance(2.0, 1.0)
        assert type(res.n) is int and type(res.m) is int
        assert res == Resonance(2, 1)
        assert solve_casimir(res, [1.0, 0.0, 0.0]).value == solve_casimir(
            Resonance(2, 1), [1.0, 0.0, 0.0]).value

    @pytest.mark.parametrize("n,m", [(2.5, 1), (1, 0.5), (float("nan"), 1),
                                     (1, float("inf")), ("2", 1)])
    def test_rejects_non_integral_values(self, n, m):
        with pytest.raises(ValueError, match="positive integers"):
            Resonance(n, m)


class TestCircleMomentum:
    def test_plus_example(self):
        assert rm.circle_momentum(Resonance(2, 1), cpoint(1.0, 1.0)) == 1.5

    def test_minus_null(self):
        assert rm.circle_momentum(Resonance(1, 1, "minus"), cpoint(1.0, 1j)) == 0.0

    def test_origin(self):
        assert rm.circle_momentum(Resonance(3, 4), np.zeros(4)) == 0.0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        for res in (Resonance(2, 1), Resonance(3, 4, "minus")):
            for _ in range(20):
                a = rng.normal(size=4)
                grad = rm.circle_momentum_gradient(res, a)
                h = 1e-6
                for i in range(4):
                    e = np.zeros(4)
                    e[i] = h
                    fd = (rm.circle_momentum(res, a + e)
                          - rm.circle_momentum(res, a - e)) / (2 * h)
                    assert abs(grad[i] - fd) < 1e-8


class TestLeafMap:
    def test_plus_example(self):
        assert np.allclose(rm.leaf_map(Resonance(2, 1), cpoint(1.0, 1.0)), [1.0, 0.0, 0.5])

    def test_axis_point(self):
        assert np.allclose(rm.leaf_map(Resonance(1, 1), cpoint(1.0, 0.0)), [0.0, 0.0, 0.5])

    def test_minus_axis_point(self):
        got = rm.leaf_map(Resonance(1, 1, "minus"), cpoint(1.0, 0.0))
        assert np.allclose(got, [0.0, 0.0, 0.5])

    def test_su2_momentum_values(self):
        # The SU(2) momentum map is the 1:1 leaf map.
        su2 = Resonance(1, 1)
        assert np.allclose(rm.leaf_map(su2, cpoint(1.0, 0.0)), [0.0, 0.0, 0.5])
        assert np.allclose(rm.leaf_map(su2, cpoint(1.0, 1.0)), [1.0, 0.0, 0.0])
        assert np.allclose(rm.leaf_map(su2, cpoint(1.0, 1j)), [0.0, 1.0, 0.0])

    def test_su11_momentum_as_printed(self):
        assert np.allclose(rm.su11_momentum(cpoint(1.0, 0.0)), [0.0, 0.0, -0.5])
        assert np.allclose(rm.su11_momentum(cpoint(1.0, 1.0)), [1.0, 0.0, -1.0])
        assert np.allclose(rm.su11_momentum(np.zeros(4)), [0.0, 0.0, 0.0])

    def test_su11_third_component_sign_vs_pairing(self):
        # The conventional printed third component is minus what the abstract
        # pairing against the u3 axis produces; the squared identity hides it.
        rng = np.random.default_rng(2)
        xi3 = ga.lie_algebra_matrix("minus", [0.0, 0.0, 1.0])
        for _ in range(30):
            a = rng.normal(size=4)
            paired = ps.momentum_pairing("minus", a, xi3)
            printed = rm.su11_momentum(a)[2]
            assert paired == pytest.approx(-printed, abs=1e-13)
            for axis, v in ((0, [1.0, 0, 0]), (1, [0, 1.0, 0])):
                xi = ga.lie_algebra_matrix("minus", v)
                assert ps.momentum_pairing("minus", a, xi) == pytest.approx(
                    rm.su11_momentum(a)[axis], abs=1e-13)


class TestJacobian:
    def test_z_row_at_unit_point(self):
        jac = rm.leaf_map_jacobian(Resonance(1, 1), cpoint(1.0, 0.0))
        assert np.allclose(jac[2], [1.0, 0.0, 0.0, 0.0])

    def test_xy_rows_vanish_at_origin_for_high_degree(self):
        for res in (Resonance(2, 1), Resonance(1, 2, "minus"), Resonance(3, 3)):
            jac = rm.leaf_map_jacobian(res, np.zeros(4))
            assert np.allclose(jac[0], 0.0)
            assert np.allclose(jac[1], 0.0)

    @pytest.mark.parametrize("n,m,sign", [(1, 1, "plus"), (2, 1, "plus"), (3, 2, "plus"),
                                          (1, 1, "minus"), (2, 3, "minus"), (5, 4, "minus")])
    def test_matches_finite_differences(self, n, m, sign):
        res = Resonance(n, m, sign)
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.uniform(-1.2, 1.2, size=4)
            jac = rm.leaf_map_jacobian(res, a)
            h = 1e-6 * (1.0 + np.linalg.norm(a))
            scale = 1.0 + np.max(np.abs(jac))
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd = (rm.leaf_map(res, a + e) - rm.leaf_map(res, a - e)) / (2 * h)
                assert np.max(np.abs(jac[:, i] - fd)) < 1e-7 * scale


    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_batch_matches_per_point_complex_reference(self, sign):
        # The reference runs each point in Python complex arithmetic, whose
        # products may round differently from numpy's array loops: the batch
        # stays within 4 ulps of 1 + max|J| (1.85 measured).
        rng = np.random.default_rng(5)
        for n in range(1, 5):
            for m in range(1, 5):
                res = Resonance(n, m, sign)
                a = rng.uniform(-1.5, 1.5, size=(2, 25, 4))
                jac = rm.leaf_map_jacobian(res, a)
                assert jac.shape == (2, 25, 3, 4)
                for idx in np.ndindex(2, 25):
                    want = _reference_jacobian(res, a[idx])
                    scale = 1.0 + np.max(np.abs(want))
                    assert np.max(np.abs(jac[idx] - want)) <= 4 * np.finfo(float).eps * scale


def _reference_jacobian(res, a):
    x1, y1, x2, y2 = a.tolist()
    a1, c2 = complex(x1, y1), complex(x2, -y2)
    n, m = res.n, res.m
    pa = m * a1 ** (m - 1) * c2 ** n
    pb = n * a1 ** m * c2 ** (n - 1)
    dw = np.array([pa, 1j * pa, pb, -1j * pb])
    s = 1.0 if res.sign == "plus" else -1.0
    return np.array([dw.real, -dw.imag, [n * x1, n * y1, -s * m * x2, -s * m * y2]])


@pytest.mark.parametrize("cell", GRID)
def test_single_point_has_its_batch_bits(cell):
    # A single point runs as a one-row batch, so it rounds as its row does
    # in any batch shape.
    res = Resonance(*cell)
    a = np.random.default_rng(13).uniform(-1.5, 1.5, size=(6, 10, 4))
    p, jac = rm.leaf_map(res, a), rm.leaf_map_jacobian(res, a)
    assert p.shape == (6, 10, 3) and jac.shape == (6, 10, 3, 4)
    assert rm.leaf_map(res, a.reshape(-1, 4)).tobytes() == p.tobytes()
    assert rm.leaf_map_jacobian(res, a.reshape(-1, 4)).tobytes() == jac.tobytes()
    for idx in np.ndindex(6, 10):
        assert rm.leaf_map(res, a[idx]).tobytes() == p[idx].tobytes()
        assert rm.leaf_map_jacobian(res, a[idx]).tobytes() == jac[idx].tobytes()


class TestCircleGenerator:
    def test_example_two_one(self):
        got = rm.circle_generator(Resonance(2, 1), cpoint(1.0, 1.0))
        assert np.allclose(got, [0.0, 2.0, 0.0, 1.0])

    def test_example_one_one(self):
        got = rm.circle_generator(Resonance(1, 1), cpoint(1.0, 1j))
        assert np.allclose(got, [0.0, 1.0, -1.0, 0.0])

    def test_linearity_in_point(self):
        a = cpoint(0.5 + 0.2j, -0.7 + 0.9j)
        res = Resonance(3, 2)
        assert np.allclose(rm.circle_generator(res, 2 * a), 2 * rm.circle_generator(res, a))

    def test_on_axis_rejected(self):
        with pytest.raises(OnAxis):
            rm.circle_generator(Resonance(1, 1), cpoint(1.0, 0.0))

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_spans_leaf_map_kernel(self, sign):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            res = Resonance(n, m, sign)
            a = random_in_domain(res, 1, int(rng.integers(1 << 30)))[0]
            k = rm.circle_generator(res, a)
            jac = rm.leaf_map_jacobian(res, a)
            scale = (1.0 + np.max(np.abs(jac))) * np.linalg.norm(k)
            assert np.max(np.abs(jac @ k)) < 1e-10 * scale


class TestDomain:
    def test_plus_axis_excluded(self):
        assert not rm.in_domain(Resonance(1, 1), cpoint(1.0, 0.0))

    def test_minus_equality_case_excluded(self):
        assert not rm.in_domain(Resonance(1, 1, "minus"), cpoint(1.0, 1.0))

    def test_minus_interior_point(self):
        assert rm.in_domain(Resonance(1, 1, "minus"), cpoint(2.0, 1.0))

    def test_margin_keeps_points_inside(self):
        # (n|a1|^2)^m (m|a2|^2)^n over (n/2 |a1|^2 + m/2 |a2|^2)^(n+m) is 0.75 here.
        res = Resonance(1, 1, "minus")
        a = cpoint(np.sqrt(3.0), 1.0)
        assert rm.in_domain(res, a, 0.9)
        assert not rm.in_domain(res, a, 0.5)
        assert rm.in_domain(Resonance(1, 1), a, 0.5)

    def test_vectorized(self):
        res = Resonance(1, 1, "minus")
        pts = np.array([cpoint(2.0, 1.0), cpoint(1.0, 1.0), cpoint(1.0, 0.0)])
        assert list(rm.in_domain(res, pts)) == [True, False, False]


class TestIdentities:
    def test_kummer_example_plus(self):
        assert rm.kummer_identity_defect(Resonance(2, 1), cpoint(1.0, 1.0)) < 1e-14

    def test_kummer_example_minus(self):
        res = Resonance(1, 1, "minus")
        a = cpoint(2.0, 1.0)
        p = rm.leaf_map(res, a)
        r = rm.circle_momentum(res, a)
        assert p[0] ** 2 + p[1] ** 2 == pytest.approx(4.0)
        assert p[2] ** 2 - r ** 2 == pytest.approx(4.0)
        assert rm.kummer_identity_defect(res, a) < 1e-12

    def test_kummer_on_axis(self):
        assert rm.kummer_identity_defect(Resonance(3, 2), cpoint(1.0, 0.0)) < 1e-14

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_kummer_random_grid(self, sign):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            for m in (1, 2, 3, 4):
                res = Resonance(n, m, sign)
                a = random_in_domain(res, 100, seed=n * 10 + m)
                norms = np.linalg.norm(a, axis=-1)
                scale = 1.0 + norms ** (2 * (n + m))
                assert np.max(rm.kummer_identity_defect(res, a) / scale) < 1e-10

    def test_hopf_identity(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(-1.5, 1.5, size=(2000, 4))
        assert np.max(rm.hopf_identity_defect(a)) < 1e-12

    def test_hyperbolic_identity_corrected(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1.5, 1.5, size=(2000, 4))
        assert np.max(rm.hyperbolic_identity_defect(a)) < 1e-12

    def test_leaf_map_invariant_under_circle_flow(self):
        rng = np.random.default_rng(8)
        for sign in ("plus", "minus"):
            for _ in range(50):
                n = int(rng.integers(1, 5))
                m = int(rng.integers(1, 5))
                res = Resonance(n, m, sign)
                a = rng.uniform(-1.5, 1.5, size=4)
                t = rng.uniform(0, 2 * np.pi)
                before = rm.leaf_map(res, a)
                after = rm.leaf_map(res, circle_flow(res, a, t))
                assert np.max(np.abs(after - before)) < 1e-12
                assert abs(rm.circle_momentum(res, circle_flow(res, a, t))
                           - rm.circle_momentum(res, a)) < 1e-12
