import numpy as np
import pytest

from resdp import casimir, dual_pair as dp
from resdp import phase_space as ps
from resdp import resonance_maps as rm
from resdp.dynamics import circle_flow
from resdp.errors import EmptyFiber, OffDomain, OnAxis, ZeroPoint
from resdp.resonance_maps import Resonance
from resdp.verification import check_dual_pair


def cpoint(a1, a2):
    return ps.from_complex(a1, a2)


class TestKernelBases:
    def test_momentum_kernel_at_axis_point(self):
        basis = dp.momentum_kernel_basis(Resonance(1, 1), cpoint(1.0, 0.0))
        assert basis.shape == (3, 4)
        want = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])
        assert ps.subspace_distance(basis, want) < 1e-12

    def test_momentum_kernel_minus_two_one(self):
        basis = dp.momentum_kernel_basis(Resonance(2, 1, "minus"), cpoint(1.0, 1.0))
        normal = np.array([2.0, 0.0, -1.0, 0.0])
        for b in basis:
            assert abs(b @ normal) < 1e-12

    def test_momentum_kernel_annihilates_differential(self):
        # Analytic annihilation is exact; the FD cross-check carries the
        # round-off floor |R| eps / h of the pinned step.
        rng = np.random.default_rng(0)
        for sign in ("plus", "minus"):
            for _ in range(40):
                res = Resonance(int(rng.integers(1, 5)), int(rng.integers(1, 5)), sign)
                a = rng.uniform(-1.5, 1.5, size=4)
                if np.linalg.norm(a) < 0.3:
                    continue
                grad = rm.circle_momentum_gradient(res, a)
                for b in dp.momentum_kernel_basis(res, a):
                    assert abs(grad @ b) < 1e-13 * (1.0 + np.linalg.norm(grad))
                    assert abs(dp._fd_momentum_differential(res, a, b)) < 1e-9

    def test_zero_point_rejected(self):
        with pytest.raises(ZeroPoint):
            dp.momentum_kernel_basis(Resonance(1, 1), np.zeros(4))

    def test_leaf_kernel_normalized_example(self):
        got = dp.leaf_map_kernel(Resonance(2, 1), cpoint(1.0, 1.0))
        assert np.allclose(got, np.array([0.0, 2.0, 0.0, 1.0]) / np.sqrt(5.0))

    def test_leaf_kernel_on_axis(self):
        with pytest.raises(OnAxis):
            dp.leaf_map_kernel(Resonance(1, 1), cpoint(1.0, 0.0))

    def test_leaf_kernel_consistent_along_orbit(self):
        res = Resonance(3, 2)
        a = cpoint(0.8 + 0.1j, -0.5 + 0.6j)
        for t in (0.3, 1.1, 4.0):
            b = circle_flow(res, a, t)
            k = dp.leaf_map_kernel(res, b)
            jac = rm.leaf_map_jacobian(res, b)
            assert np.max(np.abs(jac @ k)) < 1e-10
            gen = rm.circle_generator(res, b)
            gen = gen / np.linalg.norm(gen)
            assert min(np.linalg.norm(k - gen), np.linalg.norm(k + gen)) < 1e-12


class TestDualPairDefect:
    def test_one_one_example(self):
        kr, sd = dp.dual_pair_defect(Resonance(1, 1), cpoint(1.0, 1.0))
        assert kr < 1e-9
        assert sd < 1e-9

    @pytest.mark.parametrize("n,m,sign", [(3, 2, "plus"), (2, 1, "minus"), (4, 4, "minus")])
    def test_random_fiber_points(self, n, m, sign):
        res = Resonance(n, m, sign)
        for c in (0.5, 1.5, 3.0):
            for a in dp.fiber_sample(res, c, 40, seed=1):
                kr, sd = dp.dual_pair_defect(res, a)
                assert kr < 1e-9
                assert sd < 1e-9

    def test_dimension_counts(self):
        res = Resonance(2, 3, "minus")
        a = dp.fiber_sample(res, 1.5, 1, seed=2)[0]
        basis = dp.momentum_kernel_basis(res, a)
        assert basis.shape[0] == 3
        comp = ps.symplectic_orthogonal(res.sign, [dp.leaf_map_kernel(res, a)])
        assert len(comp) == 3

    def test_off_domain_rejected(self):
        with pytest.raises(OffDomain):
            dp.dual_pair_defect(Resonance(1, 1), cpoint(1.0, 0.0))

    def test_report_passes(self):
        rep = check_dual_pair(Resonance(3, 2), samples=30, seed=3)
        defects = {d["name"]: d["defect"] for d in rep.details}
        assert rep.passed
        assert rep.samples > 0
        assert defects["kernel_residual"] < 1e-9
        assert defects["subspace_distance"] < 1e-9


class TestFiberSample:
    def test_plus_momentum_exact(self):
        res = Resonance(2, 1)
        pts = dp.fiber_sample(res, 1.5, 200, seed=4)
        r = rm.circle_momentum(res, pts)
        assert np.max(np.abs(r - 1.5)) < 1e-12
        assert np.all(rm.in_domain(res, pts))

    def test_plus_empty_fiber(self):
        with pytest.raises(EmptyFiber):
            dp.fiber_sample(Resonance(1, 1), 0.0, 10)

    def test_minus_momentum_exact_and_in_domain(self):
        res = Resonance(1, 1, "minus")
        pts = dp.fiber_sample(res, 1.5, 200, seed=5)
        r = rm.circle_momentum(res, pts)
        assert np.max(np.abs(r - 1.5)) < 1e-12
        assert np.all(rm.in_domain(res, pts))

    def test_minus_thin_band_cells(self):
        # n < m: the admissible |a2|^2 interval is bounded and can fall
        # below the default sampling window; the sampler must adapt.
        for (n, m) in [(1, 3), (1, 4), (2, 4)]:
            res = Resonance(n, m, "minus")
            for c in (0.5, 1.5, 3.0):
                pts = dp.fiber_sample(res, c, 25, seed=6)
                assert len(pts) == 25
                assert np.max(np.abs(rm.circle_momentum(res, pts) - c)) < 1e-12
                assert np.all(rm.in_domain(res, pts))

    def test_minus_s_max_matches_domain_boundary(self):
        res = Resonance(1, 3, "minus")
        c = 0.5
        s_max = dp.minus_fiber_s_max(res, c)
        inside = cpoint(np.sqrt(2 * c + 3 * 0.9 * s_max), np.sqrt(0.9 * s_max))
        outside = cpoint(np.sqrt(2 * c + 3 * 1.1 * s_max), np.sqrt(1.1 * s_max))
        assert rm.in_domain(res, inside)
        assert not rm.in_domain(res, outside)


def _reference_s_max(res, c):
    """minus_fiber_s_max with its full 200 bisection steps."""
    def inside(w):
        u = 2.0 * c + w
        return u ** res.m * w ** res.n < (0.5 * (u + w)) ** (res.n + res.m)

    hi = 1.0
    while inside(hi):
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo / res.m


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(n + 1, 5)])
def test_s_max_early_stop_is_bit_identical(n, m):
    res = Resonance(n, m, "minus")
    for c in np.logspace(-3.0, 3.0, 40):
        assert dp.minus_fiber_s_max(res, c) == _reference_s_max(res, c), c


class TestLeafCorrespondence:
    def test_plus_hand_value(self):
        # The level-1.5 fiber of the 2:1 resonance contains (1, 1), whose
        # image (1, 0, 0.5) must sit on the Casimir-1.5 shape.
        res = Resonance(2, 1)
        ev = casimir.solve_casimir(res, [1.0, 0.0, 0.5])
        assert ev.value == pytest.approx(1.5, rel=1e-12)

    def test_minus_hand_value(self):
        res = Resonance(1, 1, "minus")
        p = rm.leaf_map(res, cpoint(2.0, 1.0))
        assert np.allclose(p, [2.0, 0.0, 2.5])
        assert casimir.solve_casimir(res, p).value == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("n,m,sign", [(1, 1, "plus"), (2, 1, "plus"), (3, 4, "plus"),
                                          (1, 1, "minus"), (2, 1, "minus"), (1, 3, "minus")])
    def test_levels(self, n, m, sign):
        res = Resonance(n, m, sign)
        for c in (0.5, 1.5, 3.0):
            out = dp.leaf_correspondence_check(res, c, 50, seed=7)
            assert out["max_deviation"] < 1e-9 * (1.0 + c)

    def test_sphere_levels(self):
        # 1:1 images of the level-c fiber lie on the radius-c sphere.
        res = Resonance(1, 1)
        c = 0.75
        pts = dp.fiber_sample(res, c, 100, seed=8)
        radii = np.linalg.norm(rm.leaf_map(res, pts), axis=1)
        assert np.max(np.abs(radii - c)) < 1e-12

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            dp.leaf_correspondence_check(Resonance(1, 1, "minus"), -1.0, 10)
