import warnings

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


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestKernelBases:
    def test_momentum_kernel_at_axis_point(self):
        basis = dp.momentum_kernel_basis(Resonance(1, 1), cpoint(1.0, 0.0)[None])
        assert basis.shape == (1, 3, 4)
        want = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])
        assert np.max(np.abs(basis[0].T @ basis[0] - want.T @ want)) < 1e-12

    def test_momentum_kernel_minus_two_one(self):
        basis = dp.momentum_kernel_basis(Resonance(2, 1, "minus"), cpoint(1.0, 1.0)[None])
        normal = np.array([2.0, 0.0, -1.0, 0.0])
        assert np.max(np.abs(basis @ normal)) < 1e-12

    def test_momentum_kernel_annihilates_differential(self):
        # Analytic annihilation is exact; the FD cross-check carries the
        # round-off floor |R| eps / h of the pinned step.
        rng = np.random.default_rng(0)
        for sign in ("plus", "minus"):
            for _ in range(40):
                res = Resonance(int(rng.integers(1, 5)), int(rng.integers(1, 5)), sign)
                a = rng.uniform(-1.5, 1.5, size=(8, 4))
                a = a[np.linalg.norm(a, axis=1) >= 0.3]
                grad = rm.circle_momentum_gradient(res, a)
                basis = dp.momentum_kernel_basis(res, a)
                assert basis.shape == (len(a), 3, 4)
                assert np.allclose(basis @ basis.transpose(0, 2, 1), np.eye(3), atol=1e-14)
                analytic = np.abs(basis @ grad[:, :, None])[:, :, 0]
                assert np.all(analytic < 1e-13 * (1.0 + np.linalg.norm(grad, axis=1))[:, None])
                fd = dp._fd_momentum_differential(res, a[:, None, :], basis)
                assert fd.shape == (len(a), 3)
                assert np.max(np.abs(fd)) < 1e-9

    def test_zero_point_rejected(self):
        points = np.array([cpoint(1.0, 1.0), np.zeros(4)])
        with pytest.raises(ZeroPoint):
            dp.momentum_kernel_basis(Resonance(1, 1), points)

    def test_leaf_kernel_normalized_example(self):
        got = unit(rm.circle_generator(Resonance(2, 1), cpoint(1.0, 1.0)[None]))
        assert np.allclose(got, np.array([[0.0, 2.0, 0.0, 1.0]]) / np.sqrt(5.0))

    def test_leaf_kernel_on_axis(self):
        points = np.array([cpoint(1.0, 1.0), cpoint(1.0, 0.0)])
        with pytest.raises(OnAxis):
            rm.circle_generator(Resonance(1, 1), points)

    def test_leaf_kernel_consistent_along_orbit(self):
        res = Resonance(3, 2)
        a = cpoint(0.8 + 0.1j, -0.5 + 0.6j)
        b = np.array([circle_flow(res, a, t) for t in (0.3, 1.1, 4.0)])
        k = unit(rm.circle_generator(res, b))
        jac = rm.leaf_map_jacobian(res, b)
        assert jac.shape == (3, 3, 4)
        assert np.max(np.abs(jac @ k[:, :, None])) < 1e-10
        # The generator at the flowed point is the flowed generator.
        moved = unit(np.array([circle_flow(res, rm.circle_generator(res, a), t)
                               for t in (0.3, 1.1, 4.0)]))
        assert np.max(np.abs(k - moved)) < 1e-12


class TestDualPairDefect:
    def test_one_one_example(self):
        kr, sd = dp.dual_pair_defect(Resonance(1, 1), cpoint(1.0, 1.0)[None])
        assert kr.shape == sd.shape == (1,)
        assert kr[0] < 1e-9
        assert sd[0] < 1e-9

    @pytest.mark.parametrize("n,m,sign", [(3, 2, "plus"), (2, 1, "minus"), (4, 4, "minus")])
    def test_random_fiber_points(self, n, m, sign):
        res = Resonance(n, m, sign)
        for c in (0.5, 1.5, 3.0):
            kr, sd = dp.dual_pair_defect(res, dp.fiber_sample(res, c, 40, seed=1))
            assert kr.shape == sd.shape == (40,)
            assert np.all(kr < 1e-9)
            assert np.all(sd < 1e-9)

    def test_dimension_counts(self):
        res = Resonance(2, 3, "minus")
        a = dp.fiber_sample(res, 1.5, 5, seed=2)
        basis = dp.momentum_kernel_basis(res, a)
        assert basis.shape == (5, 3, 4)
        assert np.allclose(np.linalg.svd(basis, compute_uv=False), 1.0)
        w = ps.symplectic_normal(res.sign, rm.circle_generator(res, a))
        complement = np.eye(4) - w[:, :, None] * w[:, None, :]
        assert np.allclose(np.trace(complement, axis1=1, axis2=2), 3.0)
        assert np.all(np.linalg.matrix_rank(complement) == 3)

    def test_off_domain_rejected(self):
        with pytest.raises(OffDomain):
            dp.dual_pair_defect(Resonance(1, 1), cpoint(1.0, 0.0)[None])

    def test_one_off_domain_row_rejects_the_batch(self):
        # An axis point, and a point on the excluded boundary |a1| = |a2|.
        res = Resonance(1, 1, "minus")
        for bad in (cpoint(1.0, 0.0), cpoint(1.0, 1.0)):
            points = dp.fiber_sample(res, 1.5, 10, seed=3)
            assert np.all(rm.in_domain(res, points))
            points[4] = bad
            with pytest.raises(OffDomain):
                dp.dual_pair_defect(res, points)

    @pytest.mark.parametrize("n,m,sign", [(3, 2, "plus"), (2, 3, "minus"), (4, 4, "minus")])
    def test_batch_rows_match_single_points(self, n, m, sign):
        res = Resonance(n, m, sign)
        points = dp.fiber_sample(res, 1.5, 50, seed=4)
        kr, sd = dp.dual_pair_defect(res, points)
        for i, a in enumerate(points):
            kr1, sd1 = dp.dual_pair_defect(res, a[None])
            assert abs(kr1[0] - kr[i]) <= 1e-15
            assert abs(sd1[0] - sd[i]) <= 1e-15

    @pytest.mark.parametrize("n,m,sign", [(3, 2, "plus"), (2, 3, "minus")])
    def test_swapped_generator_is_caught(self, monkeypatch, n, m, sign):
        # Negative control: the generator of the m:n circle spans a line
        # whose symplectic orthogonal is not ker dR, so the rank-1 distance
        # must see it; it is not zero by construction.
        res = Resonance(n, m, sign)
        points = dp.fiber_sample(res, 1.5, 30, seed=5)
        generator = rm.circle_generator
        monkeypatch.setattr(rm, "circle_generator",
                            lambda r, a: generator(Resonance(r.m, r.n, r.sign), a))
        kr, sd = dp.dual_pair_defect(res, points)
        assert np.max(sd) > 1e-2
        assert np.max(kr) > 1e-2

    @pytest.mark.parametrize("n,m,sign", [(3, 2, "plus"), (2, 3, "minus"), (4, 1, "minus")])
    @pytest.mark.parametrize("swap", [False, True])
    def test_matches_svd_projector_reference(self, monkeypatch, n, m, sign, swap):
        # With the swapped generator the distance is of order one, so the
        # rank-1 formula is checked against the SVD projectors on values
        # that are not rounding noise.
        res = Resonance(n, m, sign)
        points = dp.fiber_sample(res, 1.5, 30, seed=6)
        if swap:
            generator = rm.circle_generator
            monkeypatch.setattr(rm, "circle_generator",
                                lambda r, a: generator(Resonance(r.m, r.n, r.sign), a))
        _, sd = dp.dual_pair_defect(res, points)
        want = np.array([_svd_projector_distance(res, a) for a in points])
        assert np.max(np.abs(sd - want)) < 1e-14

    def test_report_passes(self):
        rep = check_dual_pair(Resonance(3, 2), samples=30, seed=3)
        defects = {d["name"]: d["defect"] for d in rep.details}
        assert rep.passed
        assert rep.samples > 0
        assert defects["kernel_residual"] < 1e-9
        assert defects["subspace_distance"] < 1e-9


def _svd_projector_distance(res, a):
    """The former per-point distance: SVD bases of both hyperplanes, then projectors."""
    grad = rm.circle_momentum_gradient(res, a)
    normal = ps.omega_matrix(res.sign) @ rm.circle_generator(res, a)
    r_basis = np.linalg.svd(grad[None, :])[2][1:]
    w_basis = np.linalg.svd(normal[None, :])[2][1:]
    return np.max(np.abs(r_basis.T @ r_basis - w_basis.T @ w_basis))


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


def _one_draw_at_a_time(res, c, count, seed):
    """The minus branch of fiber_sample as a loop of single draws, for c > 0."""
    rng = np.random.default_rng(seed)
    s_lo, s_hi = 0.1, 4.0
    if res.n < res.m:
        s_max = dp.minus_fiber_s_max(res, c)
        if s_max <= s_lo:
            s_lo, s_hi = 0.02 * s_max, 0.98 * s_max
        else:
            s_hi = min(s_hi, 0.999 * s_max)
    samples = []
    while len(samples) < count:
        s = rng.uniform(s_lo, s_hi)
        r1 = (2.0 * c + res.m * s) / res.n
        ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        a = ps.from_complex(np.sqrt(r1) * np.exp(1j * ph1), np.sqrt(s) * np.exp(1j * ph2))
        if rm.in_domain(res, a):
            samples.append(a)
    return np.array(samples)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, 5)])
def test_minus_blocks_match_one_draw_at_a_time(n, m):
    res = Resonance(n, m, "minus")
    for c in (0.5, 1.5, 3.0, 7.3):
        for seed in (1, 42):
            for count in (1, 2, 25):
                got = dp.fiber_sample(res, c, count, seed=seed)
                assert np.array_equal(got, _one_draw_at_a_time(res, c, count, seed)), (c, seed)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 2)])
def test_minus_negative_level_rejects_draws_without_a1(n, m):
    # For c < 0, |a1|^2 = (2c + m s)/n <= 0 on part of the s window.  Those
    # draws are dropped before any square root, so no NaN point is built;
    # the rest still lie on the fiber and in the domain.
    res = Resonance(n, m, "minus")
    c = -1.0
    s = 0.1 + 3.9 * np.random.default_rng(3).random((40, 3))[:, 0]
    assert np.any(2.0 * c + m * s <= 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = dp.fiber_sample(res, c, 40, seed=3)
    assert pts.shape == (40, 4)
    assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 > 0.0)
    assert np.max(np.abs(rm.circle_momentum(res, pts) - c)) < 1e-12
    assert np.all(rm.in_domain(res, pts))


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
