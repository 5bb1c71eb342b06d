import numpy as np
import pytest

from resdp import casimir
from resdp import resonance_maps as rm
from resdp.errors import NoConvergence, OffDomain
from resdp.resonance_maps import Resonance
from resdp.verification import sample_in_domain


def bisect_root(fn, lo, hi, iters=200):
    """Plain bisection oracle, independent of the package solver."""
    flo = fn(lo)
    assert flo * fn(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def shape_equation(res, p, c):
    """x^2 + y^2 minus the Kummer product: zero on the shape at level c."""
    x, y, z = p
    return x * x + y * y - casimir.kummer_product(res, c, z)


def field_over_gradient(res, p):
    """The factor s with leaf_field = s * gradient, by projection onto the gradient.

    Equals (x^2+y^2)(m/(C+z) + n/(C-z)) at the solved level: positive for the
    bounded family, nonvanishing but of either sign for the unbounded one.
    """
    g = casimir.solve_casimir(res, p).gradient
    return np.sum(casimir.leaf_field(res, p) * g, axis=-1) / np.sum(g * g, axis=-1)


def by_cell(pairs):
    """(res, point, ...) tuples grouped per cell: {res: (points (k, 3), extras...)}."""
    groups = {}
    for res, *row in pairs:
        groups.setdefault(res, []).append(row)
    return {res: tuple(np.array(col) for col in zip(*rows)) for res, rows in groups.items()}


class TestShapeEquations:
    def test_bounded_examples(self):
        assert shape_equation(Resonance(1, 1), (1, 0, 0), 1) == 0.0
        assert abs(shape_equation(Resonance(2, 1), (1, 0, 0), 2 ** (1 / 3))) < 1e-15
        assert shape_equation(Resonance(3, 2), (0, 0, 0.7), 0.7) == 0.0

    def test_unbounded_examples(self):
        assert abs(shape_equation(Resonance(1, 1, "minus"), (0.6, 0, 1), 0.8)) < 1e-15
        assert shape_equation(Resonance(1, 1, "minus"), (1, 0, 1), 0) == 0.0

    def test_unbounded_even_symmetry_when_equal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y, z, r = rng.normal(size=4)
            for n in (1, 2, 3):
                res = Resonance(n, n, "minus")
                a = shape_equation(res, (x, y, z), r)
                b = shape_equation(res, (x, y, z), -r)
                assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_kummer_product_matches_mpmath(self, sign):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        worst = 0.0
        with mpmath.workdps(50):
            for n in range(1, 9):
                for m in range(1, 9):
                    res = Resonance(n, m, sign)
                    c = rng.uniform(0.1, 3.0, size=300)
                    z = rng.uniform(-3.0, 3.0, size=300)
                    got = casimir.kummer_product(res, c, z)
                    for ci, zi, gi in zip(c, z, got):
                        ci, zi = mpmath.mpf(float(ci)), mpmath.mpf(float(zi))
                        fb = ci - zi if sign == "plus" else zi - ci
                        want = ((ci + zi) / n) ** m * (fb / m) ** n
                        worst = max(worst, float(abs((gi - want) / want)))
        assert worst < 1e-14


class TestSolver:
    def test_sphere_case(self):
        ev = casimir.solve_casimir(Resonance(1, 1), [1.0, 0.0, 0.0])
        assert ev.value == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(ev.gradient, [1.0, 0.0, 0.0], atol=1e-12)

    def test_equator_closed_form(self):
        ev = casimir.solve_casimir(Resonance(2, 1), [1.0, 0.0, 0.0])
        assert ev.value == pytest.approx(2 ** (1 / 3), rel=1e-14)

    def test_hyperboloid_case(self):
        ev = casimir.solve_casimir(Resonance(1, 1, "minus"), [0.6, 0.0, 1.0])
        assert ev.value == pytest.approx(0.8, rel=1e-14)

    def test_unbounded_two_one_oracle(self):
        # Independent bisection on the defining polynomial, then the frozen
        # value the oracle produced.
        fn = lambda r: shape_equation(Resonance(2, 1, "minus"), (1.0, 0.0, 2.0), r)
        oracle = bisect_root(fn, 0.0, 2.0)
        ev = casimir.solve_casimir(Resonance(2, 1, "minus"), [1.0, 0.0, 2.0])
        assert ev.value == pytest.approx(oracle, rel=1e-12)
        assert ev.value == pytest.approx(1.2107558809591916, rel=1e-13)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 3), (4, 4), (5, 2)])
    def test_equator_closed_form_random(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        res = Resonance(n, m)
        for _ in range(40):
            rho2 = rng.uniform(0.01, 9.0)
            got = casimir.solve_casimir(res, [np.sqrt(rho2), 0.0, 0.0]).value
            want = (float(n) ** m * float(m) ** n * rho2) ** (1.0 / (n + m))
            assert got == pytest.approx(want, rel=1e-12)

    def test_quadric_closed_forms_random(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            x, y = rng.uniform(-1.5, 1.5, size=2)
            if x * x + y * y < 1e-4:
                continue
            z = rng.uniform(-1.5, 1.5)
            got = casimir.solve_casimir(Resonance(1, 1), [x, y, z]).value
            assert got == pytest.approx(np.hypot(np.hypot(x, y), z), rel=1e-12)
            zu = np.sign(z if z else 1.0) * (np.hypot(x, y) + rng.uniform(0.05, 2.0))
            want = np.sqrt(zu * zu - x * x - y * y)
            got = casimir.solve_casimir(Resonance(1, 1, "minus"), [x, y, zu]).value
            assert got == pytest.approx(want, rel=1e-12)

    def test_bracketing_and_residual_invariants(self):
        # The residual cannot beat the root granularity |d/dr| * ulp(value)
        # when the root sits close to a pole of the shape, so the bound is
        # the stated tolerance or that floor, whichever is larger.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(2)
        for sign in ("plus", "minus"):
            pairs = []
            for _ in range(200):
                n = int(rng.integers(1, 6))
                m = int(rng.integers(1, 6))
                res = Resonance(n, m, sign)
                a = sample_in_domain(res, 1, rng)[0]
                p = rm.leaf_map(res, a)
                if casimir.in_leaf_domain(res, p):
                    pairs.append((res, p))
            for res, (p,) in by_cell(pairs).items():
                ev = casimir.solve_casimir(res, p)
                x, y, z = p.T
                rho2 = x ** 2 + y ** 2
                if sign == "plus":
                    assert np.all(ev.value > np.abs(z))
                else:
                    assert np.all((0.0 < ev.value) & (ev.value < np.abs(z)))
                slope = np.abs(rho2 * (res.m / (ev.value + z) + res.n / (ev.value - z)))
                floor = 4.0 * slope * eps * ev.value
                assert np.all(ev.residual < np.maximum(1e-13 * (1.0 + rho2), floor))
                assert np.all(np.isfinite(ev.gradient))

    def test_deterministic_bits(self):
        res = Resonance(3, 2, "minus")
        p = [0.4, 0.1, 2.0]
        first = casimir.solve_casimir(res, p)
        second = casimir.solve_casimir(res, p)
        assert first.value == second.value
        assert first.iterations == second.iterations
        assert np.array_equal(first.gradient, second.gradient)

    def test_off_domain_errors(self):
        with pytest.raises(OffDomain):
            casimir.solve_casimir(Resonance(2, 1), [0.0, 0.0, 1.0])
        with pytest.raises(OffDomain):
            casimir.solve_casimir(Resonance(1, 1, "minus"), [1.0, 0.0, 0.5])
        with pytest.raises(OffDomain):
            casimir.solve_casimir(Resonance(2, 1, "minus"), [1.0, 0.0, -2.0])


ALL_CELLS = [Resonance(n, m, sign) for sign in ("plus", "minus")
             for n in (1, 2, 3, 4) for m in (1, 2, 3, 4)]


def leaf_and_stencil_points(res, seed):
    """Projected random phase points, and the FD stencil points around 20 of them.

    The steps are those of the casimir gradient (1e-6), integrability (1e-5
    and 5e-6) and jacobi (1e-4 absolute) stencils; stencil points off the
    domain are dropped.
    """
    leaf = rm.leaf_map(res, sample_in_domain(res, 200, np.random.default_rng(seed)))
    leaf = leaf[casimir.in_leaf_domain(res, leaf)]
    scale = 1.0 + np.linalg.norm(leaf[:20], axis=-1)[:, None, None]
    steps = [1e-6 * scale, 1e-5 * scale, 5e-6 * scale, 1e-4 * np.ones_like(scale)]
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    stencil = np.concatenate([(leaf[:20, None, :] + h * axes).reshape(-1, 3) for h in steps])
    return leaf, stencil[casimir.in_leaf_domain(res, stencil)]


class TestArrayDriver:
    @pytest.mark.parametrize("res", ALL_CELLS, ids=str)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_equals_its_rows_solved_one_at_a_time(self, res, seed):
        # 12 rows a cell and seed, 6 leaf points and 6 stencil points, each
        # solved alone as a one-row batch, against the batch of all the points.
        leaf, stencil = leaf_and_stencil_points(res, seed)
        pts = np.concatenate([leaf, stencil])
        batch = casimir.solve_casimir(res, pts)
        values, iterations = casimir._solve_rows(res, pts[:, 0] ** 2 + pts[:, 1] ** 2, pts[:, 2])
        assert batch.value.tolist() == values.tolist()
        assert type(batch.iterations) is int
        assert batch.iterations == int(iterations.sum())
        picks = np.concatenate([np.arange(6), len(leaf) + np.linspace(0, len(stencil) - 1, 6,
                                                                      dtype=int)])
        for i in picks:
            ev = casimir.solve_casimir(res, pts[i])
            assert type(ev.value) is float and type(ev.residual) is float
            assert type(ev.iterations) is int and ev.gradient.shape == (3,)
            assert ev.value == batch.value[i]
            assert ev.iterations == iterations[i]
            assert ev.residual == batch.residual[i]
            assert ev.gradient.tolist() == batch.gradient[i].tolist()

    @pytest.mark.parametrize("n,m,z", [(1, 4, 1e80), (3, 3, 1e110), (1, 1, -1.5e308)])
    def test_pinched_root_raises(self, n, m, z):
        # At lo == |z| the Kummer product is 0 and the residual -rho2 < 0, so
        # the tightening loop runs out only where the product overflows at
        # |z| (inf * 0 = nan).  There is no root to report, so the solver
        # raises, alone and after a good row 0; only the batch names a row.
        tail = f"pinched against |z| = {abs(z):.6g}, where the Kummer product overflows"
        with pytest.raises(NoConvergence) as single:
            casimir.solve_casimir(Resonance(n, m), [1e-10, 0.0, z])
        assert str(single.value) == "root " + tail
        with pytest.raises(NoConvergence) as batch:
            casimir.solve_casimir(Resonance(n, m), [[1.0, 0.0, 0.5], [1e-10, 0.0, z]])
        assert str(batch.value) == "root at row 1 " + tail

    def test_batch_off_domain_rejected(self):
        pts = np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 1.0]])
        with pytest.raises(OffDomain):
            casimir.solve_casimir(Resonance(2, 1), pts)

    def test_off_domain_messages_name_the_point_and_row(self):
        res = Resonance(1, 1, "minus")
        with pytest.raises(OffDomain) as single:
            casimir.solve_casimir(res, [1.0, 0.0, 0.5])
        assert str(single.value) == "point (1.0, 0.0, 0.5) outside the minus Casimir domain"
        with pytest.raises(OffDomain) as batch:
            casimir.solve_casimir(res, np.array([[0.6, 0.0, 1.0], [1.0, 0.0, 0.5]]))
        assert str(batch.value) == "point (1.0, 0.0, 0.5) at row 1 outside the minus Casimir domain"

    @pytest.mark.parametrize("point", [[1e160, 0.0, 1e10], [1e200, 0.0, 0.0]])
    def test_overflowing_rho2_is_off_domain(self, point):
        # x^2 + y^2 = inf gave a finite value with a nan gradient and residual.
        res = Resonance(4, 4)
        text = "point ({}, {}, {}){} where x^2 + y^2 overflows"
        with pytest.raises(OffDomain) as single:
            casimir.solve_casimir(res, point)
        assert str(single.value) == text.format(*point, "")
        with pytest.raises(OffDomain) as batch:
            casimir.solve_casimir(res, np.array([[1.0, 0.0, 0.5], point, [1e300, 0.0, 0.0]]))
        assert str(batch.value) == text.format(*point, " at row 1")

    def test_empty_batch(self):
        ev = casimir.solve_casimir(Resonance(2, 1), np.empty((0, 3)))
        assert ev.value.shape == (0,) and ev.gradient.shape == (0, 3) and ev.iterations == 0

    @pytest.mark.parametrize("res", [Resonance(3, 2), Resonance(2, 3, "minus")], ids=str)
    def test_stack_keeps_its_shape_and_bits(self, res):
        # A (2, 5, 3) stack solves as its 10 rows and keeps its leading axes,
        # so leaf_field broadcasts over it as field_on_level does.
        pts = leaf_and_stencil_points(res, 4)[0][:10]
        flat = casimir.solve_casimir(res, pts)
        stack = casimir.solve_casimir(res, pts.reshape(2, 5, 3))
        assert stack.value.shape == stack.residual.shape == (2, 5)
        assert stack.gradient.shape == (2, 5, 3)
        assert stack.value.tolist() == flat.value.reshape(2, 5).tolist()
        assert stack.residual.tolist() == flat.residual.reshape(2, 5).tolist()
        assert stack.gradient.tolist() == flat.gradient.reshape(2, 5, 3).tolist()
        assert stack.iterations == flat.iterations
        field = casimir.leaf_field(res, pts.reshape(2, 5, 3))
        assert field.tolist() == casimir.leaf_field(res, pts).reshape(2, 5, 3).tolist()


def domain_probe_points(res, rng):
    """10^4 leaf points, 6,000 of them within 4 ulps of a domain boundary.

    Half of those straddle the axis margin 1e-9 (1 + |x| + |y| + |z|), the
    other half the bound n^m m^n rho^2 < margin z^(n+m) at margins 1 and
    0.8; 50 lie on the axis and 4,000 are generic.
    """
    theta = rng.uniform(0.0, 2.0 * np.pi, size=6000)
    ulps = rng.integers(-4, 5, size=6000)
    z = rng.uniform(0.5, 2.0, size=6000) * rng.choice([-1.0, 1.0], size=6000)
    rho = np.empty(6000)
    cos_sin = np.abs(np.cos(theta[:3000])) + np.abs(np.sin(theta[:3000]))
    rho[:3000] = 1e-9 * (1.0 + 1e-9 * (1.0 + np.abs(z[:3000])) * cos_sin + np.abs(z[:3000]))
    scale = float(res.n ** res.m * res.m ** res.n)
    margin = np.where(np.arange(3000) % 2 == 0, 1.0, 0.8)
    rho[3000:] = np.sqrt(margin * np.abs(z[3000:]) ** (res.n + res.m) / scale)
    x = rho * np.cos(theta)
    x = x + ulps * np.spacing(x)
    probes = np.column_stack([x, rho * np.sin(theta), z])
    probes[:50, :2] = 0.0
    generic = rng.uniform(-2.0, 2.0, size=(4000, 3))
    return np.vstack([probes, generic])


class TestLeafDomain:
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_single_point_path_matches_array_path(self, sign):
        rng = np.random.default_rng(12)
        for n in range(1, 5):
            for m in range(1, 5):
                res = Resonance(n, m, sign)
                pts = domain_probe_points(res, rng)
                rows = pts.tolist()
                for axis_margin, bound_margin in [(0.0, 1.0), (1e-9, 1.0), (0.0, 0.8)]:
                    got = casimir.in_leaf_domain(res, pts, axis_margin, bound_margin)
                    assert got.shape == (10000,)
                    assert got.any() and not got.all()
                    single = [casimir.in_leaf_domain(res, p, axis_margin, bound_margin)
                              for p in rows]
                    assert single == got.tolist(), (res, axis_margin, bound_margin)

    def test_margins_shrink_the_domain(self):
        res = Resonance(2, 1, "minus")
        # n^m m^n rho^2 / z^3 = 0.9: inside the open set, outside the 0.8 margin.
        p = [np.sqrt(0.9 / 2.0), 0.0, 1.0]
        assert casimir.in_leaf_domain(res, p)
        assert not casimir.in_leaf_domain(res, p, bound_margin=0.8)
        assert casimir.in_leaf_domain(res, [1e-10, 0.0, 1.0])
        assert not casimir.in_leaf_domain(res, [1e-10, 0.0, 1.0], axis_margin=1e-9)


class TestGradient:
    def test_sphere_gradient(self):
        got = casimir.solve_casimir(Resonance(1, 1), [3.0, 0.0, 4.0]).gradient
        assert np.allclose(got, [0.6, 0.0, 0.8], atol=1e-12)

    def test_hyperboloid_gradient(self):
        got = casimir.solve_casimir(Resonance(1, 1, "minus"), [0.6, 0.0, 1.0]).gradient
        assert np.allclose(got, [-0.75, 0.0, 1.25], atol=1e-12)

    def test_equator_z_component_vanishes_for_equal_orders(self):
        for n in (1, 2, 3):
            got = casimir.solve_casimir(Resonance(n, n), [1.1, 0.0, 0.0]).gradient
            assert abs(got[2]) < 1e-12

    @pytest.mark.parametrize("n,m,sign", [(1, 1, "plus"), (3, 2, "plus"), (2, 5, "plus"),
                                          (1, 1, "minus"), (2, 1, "minus"), (4, 5, "minus")])
    def test_matches_finite_differences(self, n, m, sign):
        res = Resonance(n, m, sign)
        rng = np.random.default_rng(3)
        a = sample_in_domain(res, 200, rng, lo=0.35, hi=1.4)
        p = rm.leaf_map(res, a)
        rho2 = p[:, 0] ** 2 + p[:, 1] ** 2
        keep = rho2 >= 1e-2
        if sign == "minus":
            scale = float(n) ** m * float(m) ** n
            keep &= ~(scale * rho2 > 0.8 * p[:, 2] ** (n + m))
        p = p[keep]
        grad = casimir.solve_casimir(res, p).gradient
        h = 1e-6 * (1.0 + np.linalg.norm(p, axis=-1))
        fd = np.stack([(casimir.solve_casimir(res, p + e * h[:, None]).value
                        - casimir.solve_casimir(res, p - e * h[:, None]).value) / (2 * h)
                       for e in np.eye(3)], axis=-1)
        assert np.all(np.linalg.norm(grad - fd, axis=-1) < 1e-6 * np.linalg.norm(fd, axis=-1))
        assert len(p) >= 50


class TestLeafField:
    def test_sphere_field(self):
        assert np.allclose(casimir.leaf_field(Resonance(1, 1), [1.0, 0.0, 0.0]),
                           [2.0, 0.0, 0.0], atol=1e-14)

    def test_two_one_third_component(self):
        got = casimir.leaf_field(Resonance(2, 1), [1.0, 0.0, 0.0])
        assert got[2] == pytest.approx(2 ** (-1 / 3), rel=1e-12)

    def test_minus_example(self):
        got = casimir.leaf_field(Resonance(1, 1, "minus"), [0.6, 0.0, 1.0])
        assert np.allclose(got, [1.2, 0.0, -2.0], atol=1e-12)

    def test_scaling_factor_examples(self):
        assert field_over_gradient(Resonance(1, 1), [1.0, 0.0, 0.0]) == pytest.approx(2.0)
        got = field_over_gradient(Resonance(1, 1, "minus"), [0.6, 0.0, 1.0])
        assert got == pytest.approx(-1.6, rel=1e-12)

    def test_scaling_factor_positive_on_bounded_family(self):
        rng = np.random.default_rng(4)
        pairs = []
        while len(pairs) < 1000:
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            res = Resonance(n, m)
            a = sample_in_domain(res, 1, rng)[0]
            p = rm.leaf_map(res, a)
            if p[0] ** 2 + p[1] ** 2 < 1e-3:
                continue
            pairs.append((res, p))
        for res, (p,) in by_cell(pairs).items():
            assert np.all(field_over_gradient(res, p) > 0.0)

    def test_field_collinear_with_gradient(self):
        rng = np.random.default_rng(5)
        for sign in ("plus", "minus"):
            pairs = []
            while len(pairs) < 150:
                n = int(rng.integers(1, 5))
                m = int(rng.integers(1, 5))
                res = Resonance(n, m, sign)
                a = sample_in_domain(res, 1, rng, lo=0.3)[0]
                p = rm.leaf_map(res, a)
                if not casimir.in_leaf_domain(res, p) or p[0] ** 2 + p[1] ** 2 < 1e-2:
                    continue
                pairs.append((res, p))
            for res, (p,) in by_cell(pairs).items():
                v = casimir.leaf_field(res, p)
                grad = casimir.solve_casimir(res, p).gradient
                cross = np.linalg.norm(np.cross(v, grad), axis=-1)
                norms = np.linalg.norm(v, axis=-1) * np.linalg.norm(grad, axis=-1)
                assert np.all(cross < 1e-9 * norms)
                factor = field_over_gradient(res, p)
                assert np.allclose(v, factor[:, None] * grad, rtol=1e-9, atol=1e-12)


class TestComposition:
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_casimir_of_leaf_map_recovers_momentum(self, sign):
        rng = np.random.default_rng(6)
        pairs = []
        while len(pairs) < 300:
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            res = Resonance(n, m, sign)
            a = sample_in_domain(res, 1, rng)[0]
            r = float(rm.circle_momentum(res, a))
            if sign == "minus" and r < 0.1:
                continue
            p = rm.leaf_map(res, a)
            if not casimir.in_leaf_domain(res, p):
                continue
            pairs.append((res, p, r))
        for res, (p, r) in by_cell(pairs).items():
            assert casimir.solve_casimir(res, p).value == pytest.approx(r, rel=1e-10)
