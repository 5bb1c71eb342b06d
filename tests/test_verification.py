import inspect
import math

import numpy as np
import pytest

from resdp import casimir, dual_pair as dp, dynamics, group_actions as ga, poisson3
from resdp import resonance_maps as rm, verification as vf
from resdp.errors import EmptyFiber
from resdp.resonance_maps import Resonance


def per_point_pushforward_points(res, count, seed):
    """The per-point filter loop that one mask per fiber draw replaced, as the reference."""
    c, domain_margin = 1.5, 0.5
    gap_floor = 0.3 * c
    if res.sign == "minus" and res.n < res.m:
        gap_floor = min(gap_floor, 0.3 * res.m * dp.minus_fiber_s_max(res, c))
        domain_margin = 0.9
    out = []
    for attempt in range(50):
        pts = dp.fiber_sample(res, c, 4 * count, seed=seed + 101 * attempt)
        for a, ok in zip(pts, rm.in_domain(res, pts, domain_margin)):
            a1, a2 = complex(a[0], a[1]), complex(a[2], a[3])
            if ok and min(res.n * abs(a1) ** 2, res.m * abs(a2) ** 2) >= gap_floor:
                out.append(a)
                if len(out) == count:
                    return np.array(out)
    raise AssertionError("the reference ran out of points")


class TestPushforwardPoints:
    def test_returns_requested_count(self):
        points = vf._pushforward_points(Resonance(3, 2, "minus"), 3, seed=7)
        assert len(points) == 3

    @pytest.mark.parametrize("cell", vf.GRID, ids=str)
    def test_same_points_as_the_per_point_filter(self, cell):
        res = Resonance(*cell)
        for count, seed in ((1, 61), (3, 7)):
            got = vf._pushforward_points(res, count, seed)
            assert got.shape == (count, 4)
            assert got.tolist() == per_point_pushforward_points(res, count, seed).tolist()

    def test_shortfall_raises_with_count(self, monkeypatch):
        # Every fiber point sits next to the a2 = 0 axis, so the pole-gap
        # filter rejects all of them.
        near_axis = np.array([[1.7, 0.0, 1e-3, 0.0]])
        monkeypatch.setattr(dp, "fiber_sample", lambda res, c, count, seed: near_axis)
        with pytest.raises(EmptyFiber, match="found 0/2"):
            vf._pushforward_points(Resonance(2, 1), 2, seed=1)

    # Below one sample a check would certify nothing and still report a pass.
    @pytest.mark.parametrize("check", list(vf.CHECKS.values()))
    def test_no_samples_is_a_clear_error(self, check):
        with pytest.raises(ValueError, match="got 0"):
            check(Resonance(2, 1), samples=0)


def test_leaf_correspondence_reports_points_checked():
    # 100 samples over three levels check 33 points each.
    report = vf.check_leaf_correspondence(Resonance(2, 1), samples=100, seed=42)
    assert report.samples == 99


def test_every_check_takes_exactly_res_samples_seed_tol():
    # The CLI and the benchmark call every check as check(res, samples=, seed=, tol=).
    for name, check in vf.CHECKS.items():
        assert list(inspect.signature(check).parameters) == ["res", "samples", "seed", "tol"], name


@pytest.mark.parametrize("tol,want", [(None, [1e-10, 1e-12, 1e-12]),
                                      (1e-300, [1e-300] * 3), (0.0, [0.0] * 3)])
def test_explicit_tolerance_reaches_every_detail(tol, want):
    # Only None selects the defaults; an explicit 0.0 is a tolerance like any other.
    report = vf.check_identity(Resonance(1, 1, "minus"), samples=50, seed=1, tol=tol)
    assert [d["tolerance"] for d in report.details] == want
    assert report.passed == (tol is None)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_casimir_composition_checks_fiber_points_on_minus_cells(m, monkeypatch):
    # With both moduli in [0.15, 1.5] the 1:-m cells have few or no in-domain
    # points of momentum >= 0.1; fiber points at the three levels give each
    # level its share.  A composition point is solved at the leaf image of a
    # level-c fiber point, so its Casimir value is c.
    values = []
    solve = casimir.solve_casimir

    def counting(res, p):
        ev = solve(res, p)
        values.extend(np.atleast_1d(ev.value).tolist())
        return ev

    monkeypatch.setattr(casimir, "solve_casimir", counting)
    report = vf.check_casimir(Resonance(1, m, "minus"), samples=60, seed=42)
    assert report.passed
    for c in vf._LEVELS:
        hits = sum(abs(v - c) <= 1e-9 * c for v in values)
        assert hits >= 18, (c, hits)


class TestLeafPoints:
    # One projected draw of 100 kept 24 points on 1:-1 minus at this rng seed
    # (the seed + 2 of verify all --seed 42) and fewer than 100 on 29 cells.
    @pytest.mark.parametrize("res", [Resonance(n, m, sign) for sign in ("plus", "minus")
                                     for n in (1, 2, 3, 4) for m in (1, 2, 3, 4)], ids=str)
    def test_returns_requested_count(self, res):
        pts = vf._leaf_points(res, 100, np.random.default_rng(44))
        assert pts.shape == (100, 3)
        assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 > 1e-2)
        assert np.all(casimir.in_leaf_domain(res, pts, bound_margin=0.8))

    def test_shortfall_raises_with_count(self, monkeypatch):
        monkeypatch.setattr(casimir, "in_leaf_domain",
                            lambda res, p, bound_margin: np.zeros(len(p), dtype=bool))
        with pytest.raises(EmptyFiber, match="found 0/16 leaf points after 1600 draws"):
            vf._leaf_points(Resonance(2, 1), 16, np.random.default_rng(1))

    def test_casimir_reports_points_checked(self):
        report = vf.check_casimir(Resonance(1, 1, "minus"), samples=400, seed=42)
        points = {d["name"]: d.get("points") for d in report.details}
        assert points["closed_form_quadric"] == 100
        assert points["gradient_vs_fd"] == 100


ALL_CELLS = [Resonance(*cell) for cell in vf.GRID]


class TestSampleLeafPoints:
    @pytest.mark.parametrize("res", ALL_CELLS, ids=str)
    def test_count_seed_and_filters(self, res):
        pts = vf.sample_leaf_points(res, 12, seed=1)
        assert pts.shape == (12, 3)
        assert np.array_equal(vf.sample_leaf_points(res, 12, seed=1), pts)
        assert not np.array_equal(vf.sample_leaf_points(res, 12, seed=2), pts)
        assert np.all(casimir.in_leaf_domain(res, pts))
        assert np.all(casimir.in_leaf_domain(res, poisson3.fd_stencil(pts)))
        ev = casimir.solve_casimir(res, pts)
        s_max_1 = dp.minus_fiber_s_max(res, 1.0) if res.sign == "minus" else None
        floor = vf._fiber_rho2_floor(res, ev.value, s_max_1)
        assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 >= floor * (1.0 - 1e-12))
        field = res.mn * casimir.leaf_field(res, pts)
        assert np.all(poisson3.norm(field) <= 8.0 * (1.0 + 1e-12))
        assert np.all(poisson3.norm(ev.gradient) <= 8.0 * (1.0 + 1e-12))

    @pytest.mark.parametrize("res", ALL_CELLS, ids=str)
    def test_closed_form_field_and_gradient_match_the_solver(self, res):
        # A draw's Casimir is its level c by construction, so the filters read
        # the field and grad C at c without a solve.
        p, c = vf._shape_draws(res, 4096, np.random.default_rng(3))
        s_max_1 = dp.minus_fiber_s_max(res, 1.0) if res.sign == "minus" else None
        keep = vf._accepted(res, p, c, s_max_1)
        assert keep.sum() >= 10
        p, c = p[keep], c[keep]
        ev = casimir.solve_casimir(res, p)
        assert np.all(np.abs(ev.value - c) <= 1e-12 * c)
        for got, want in ((casimir.field_on_level(res, p, c), casimir.leaf_field(res, p)),
                          (casimir.gradient_on_level(res, p, c), ev.gradient)):
            assert np.all(poisson3.norm(got - want) <= 1e-12 * poisson3.norm(want))

    @pytest.mark.parametrize("res", ALL_CELLS, ids=str)
    def test_structure_jacobian_matches_richardson_fd(self, res):
        s = poisson3.resonance_structure(res)
        pts = vf.sample_leaf_points(res, 12, seed=4)
        jac = s.jacobian_at(pts)
        fd = poisson3.fd_jacobian(s, pts)
        rel = np.linalg.norm(fd - jac, axis=(-2, -1)) / np.linalg.norm(jac, axis=(-2, -1))
        assert np.all(rel <= 1e-6)
        assert s.jacobian_at(pts[3]).tolist() == jac[3].tolist()

    def test_draw_cap_raises(self, monkeypatch):
        # With every candidate off the domain, the sampler draws blocks that
        # double from 64 * count rows up to 4096, stops at 4096 * (count + 1)
        # draws and raises instead of returning short.
        sizes = []
        draws = vf._shape_draws

        def recording(res, size, rng):
            sizes.append(size)
            return draws(res, size, rng)

        monkeypatch.setattr(vf, "_shape_draws", recording)
        monkeypatch.setattr(casimir, "in_leaf_domain", lambda res, p: np.zeros(p.shape[:-1], bool))
        with pytest.raises(EmptyFiber, match="found 0/12 leaf points after 53248 draws"):
            vf.sample_leaf_points(Resonance(2, 1), 12, seed=1)
        assert sizes == [768, 1536, 3072] + [4096] * 11 + [2816]


class TestFiberFloor:
    @pytest.mark.parametrize("res", ALL_CELLS, ids=str)
    def test_floor_bounds_every_fiber_point(self, res):
        s_max_1 = dp.minus_fiber_s_max(res, 1.0) if res.sign == "minus" else None
        base = float(res.n) ** res.m * float(res.m) ** res.n
        for c in (np.array([0.02, 0.3, 1.2]) * base) ** (1.0 / (res.n + res.m)):
            p = rm.leaf_map(res, dp.fiber_sample(res, c, 300, seed=9))
            rho2 = p[:, 0] ** 2 + p[:, 1] ** 2
            floor = vf._fiber_rho2_floor(res, c, s_max_1)
            assert np.min(rho2) >= floor * (1.0 - 1e-12), c
            assert np.min(rho2) <= 1.5 * floor, c

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(n + 1, 5)])
    def test_s_max_is_homogeneous_in_the_level(self, n, m):
        res = Resonance(n, m, "minus")
        s_max_1 = dp.minus_fiber_s_max(res, 1.0)
        for c in np.logspace(-2.0, 2.0, 30):
            assert abs(dp.minus_fiber_s_max(res, c) - c * s_max_1) <= 1e-14 * c * s_max_1


class TestIntegrabilityAndJacobi:
    # The finite-difference readings of the former checks failed at these
    # seeds: integrability 1:-4 minus at 1.10 and 1.70 times tolerance (116,
    # 132), and EmptyFiber on 2:-4 minus (70, 128).
    @pytest.mark.parametrize("seed", [116, 132])
    def test_integrability_one_minus_four(self, seed):
        report = vf.check_integrability(Resonance(1, 4, "minus"), samples=12, seed=seed)
        assert report.passed and report.samples == 12

    @pytest.mark.parametrize("check,samples", [("integrability", 12), ("jacobi", 6)])
    @pytest.mark.parametrize("seed", [70, 128])
    def test_two_minus_four(self, check, samples, seed):
        report = vf.CHECKS[check](Resonance(2, 4, "minus"), samples=samples, seed=seed)
        assert report.passed and report.samples == samples

    @pytest.mark.parametrize("check", ["integrability", "jacobi"])
    def test_closed_form_details(self, check):
        report = vf.CHECKS[check](Resonance(3, 4, "minus"), samples=12, seed=5)
        defects = {d["name"]: d["defect"] for d in report.details}
        assert set(defects) == {"helicity" if check == "integrability" else "jacobi_cyclic_sum",
                                "field_jacobian_vs_fd"}
        assert max(defects.values()) <= 1e-8


class TestOneSolvePerItem:
    """Each check that reads Casimir values solves every point it needs in one call."""

    @pytest.fixture
    def solves(self, monkeypatch):
        shapes = []
        real_solve = casimir.solve_casimir

        def counted_solve(res, p):
            shapes.append(np.shape(p))
            return real_solve(res, p)

        monkeypatch.setattr(casimir, "solve_casimir", counted_solve)
        return shapes

    @pytest.mark.parametrize("cell", [(1, 1, "plus"), (3, 2, "plus"), (2, 3, "minus")], ids=str)
    @pytest.mark.parametrize("check", ["casimir", "integrability", "jacobi",
                                       "leaf-correspondence"])
    def test_one_solve_per_check(self, solves, check, cell):
        assert vf.CHECKS[check](Resonance(*cell), seed=42).passed
        assert len(solves) == 1

    @pytest.mark.parametrize("samples", [1, 3])
    def test_one_solve_per_pushforward_start(self, solves, samples):
        assert vf.check_pushforward(Resonance(3, 2), samples=samples, seed=1).passed
        assert len(solves) == samples

    @pytest.mark.parametrize("res", ALL_CELLS, ids=str)
    def test_details_match_the_public_path(self, res):
        # The same computations through the public functions, which solve
        # their points on every call.
        def bits(values):
            return [float(v).hex() for v in values]

        structure = poisson3.resonance_structure(res)
        fx, fy, fz = poisson3.coordinate_fields()
        for check, samples, defect in [
                ("integrability", 12, lambda p: poisson3.integrability_defect(structure, p)),
                ("jacobi", 6, lambda p: poisson3.jacobi_defect(structure, fx, fy, fz, p))]:
            pts = vf.sample_leaf_points(res, samples, 1)
            jac = structure.jacobian_at(pts)
            fd = poisson3.fd_jacobian(structure, pts)
            want = [np.max(defect(pts)), np.max(np.linalg.norm(fd - jac, axis=(-2, -1))
                                                / np.linalg.norm(jac, axis=(-2, -1)))]
            got = [d["defect"] for d in vf.CHECKS[check](res, seed=1).details]
            assert bits(got) == bits(want), check
        want = [dp.leaf_correspondence_check(res, c, 20, seed=1 + i)["max_deviation"]
                for i, c in enumerate(vf._LEVELS)]
        got = [d["defect"] for d in vf.check_leaf_correspondence(res, seed=1).details]
        assert bits(got) == bits(want)


class TestDualPairCheck:
    @pytest.mark.parametrize("seed", [72, 95, 162])
    def test_four_four_minus_seeds(self, seed):
        # These seeds once failed on finite-difference rounding noise alone.
        report = vf.check_dual_pair(Resonance(4, 4, "minus"), samples=60, seed=seed)
        assert report.passed
        assert report.details[0]["defect"] < 1e-11


    def test_one_defect_call_per_report(self, monkeypatch):
        calls = []
        defect = dp.dual_pair_defect

        def counted(res, a):
            calls.append(len(a))
            return defect(res, a)

        monkeypatch.setattr(dp, "dual_pair_defect", counted)
        report = vf.check_dual_pair(Resonance(2, 3, "minus"), seed=1)
        assert report.passed and calls == [report.samples] == [60]

    @pytest.mark.parametrize("check,samples,seed,draws", [
        ("dual-pair", 60, 5, [(0.5, 20, 5), (1.5, 20, 6), (3.0, 20, 7)]),
        ("dual-pair", 2, 0, [(0.5, 1, 0), (1.5, 1, 1), (3.0, 1, 2)]),
        ("leaf-correspondence", 7, 3, [(0.5, 2, 3), (1.5, 2, 4), (3.0, 2, 5)]),
        ("casimir", 400, 42, [(0.5, 133, 43), (1.5, 133, 44), (3.0, 133, 45)]),
    ])
    def test_level_points_draw_as_each_check_drew(self, check, samples, seed, draws,
                                                  monkeypatch):
        # (level, count, seed) of every fiber_sample call, as each check
        # drew its levels before _level_points served all three.
        calls = []
        sample = dp.fiber_sample

        def recorded(res, c, count, seed=42):
            calls.append((c, count, seed))
            return sample(res, c, count, seed=seed)

        monkeypatch.setattr(dp, "fiber_sample", recorded)
        assert vf.CHECKS[check](Resonance(2, 3, "minus"), samples=samples, seed=seed).passed
        assert calls == draws


def nan_equivariance_defect(sign, g, a, v):
    return np.full(len(a), np.nan)


class TestNanDefect:
    def test_nan_detail_fails_its_check(self, monkeypatch):
        monkeypatch.setattr(ga, "equivariance_defect", nan_equivariance_defect)
        report = vf.check_equivariance(Resonance(2, 1), samples=5, seed=1)
        assert report.details[0]["pass"] is False
        assert report.passed is False
        assert math.isnan(report.max_defect)

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_nan_anywhere_among_passing_details(self, where):
        details = [{"name": f"d{i}", "defect": 0.5e-12, "tolerance": 1e-12} for i in range(3)]
        details[where]["defect"] = float("nan")
        report = vf._assemble("check", Resonance(1, 1), 1, 0, details)
        assert [d["pass"] for d in details] == [i != where for i in range(3)]
        assert report.passed is False
        assert math.isnan(report.max_defect)

    def test_nan_kernel_residual_fails_the_dual_pair_report(self, monkeypatch):
        # Python max over the levels dropped the NaN: this reported PASS with defect 0.0.
        monkeypatch.setattr(dp, "dual_pair_defect",
                            lambda res, a: (np.full(len(a), np.nan), np.zeros(len(a))))
        report = vf.check_dual_pair(Resonance(2, 1), samples=6, seed=1)
        assert [d["pass"] for d in report.details] == [False, True]
        assert report.passed is False and math.isnan(report.max_defect)

    def test_nan_flow_defect_fails_the_pushforward_report(self, monkeypatch):
        # Python max over the start points dropped the NaN: this reported PASS with defect 0.0.
        monkeypatch.setattr(dynamics, "pushforward_defect", lambda *args: float("nan"))
        report = vf.check_pushforward(Resonance(2, 1), samples=2, seed=1)
        assert report.passed is False and math.isnan(report.max_defect)

    def test_zero_defect_meets_a_zero_tolerance(self):
        details = [{"name": "exact", "defect": 0.0, "tolerance": 0.0},
                   {"name": "loose", "defect": 0.25, "tolerance": 1.0}]
        report = vf._assemble("check", Resonance(1, 1), 1, 0, details)
        assert report.passed is True and report.max_defect == 0.25
        details[0]["defect"] = 1e-300
        report = vf._assemble("check", Resonance(1, 1), 1, 0, details)
        assert report.passed is False and report.max_defect == float("inf")


class TestSummary:
    def test_to_dict_keys_in_report_order(self):
        report = vf.check_equivariance(Resonance(2, 1), samples=5, seed=1)
        assert list(report.to_dict()) == ["check", "n", "m", "sign", "samples", "seed",
                                          "tolerance", "max_defect", "pass", "details"]
        assert report.to_dict()["pass"] is report.passed

    @pytest.mark.parametrize("where", [0, 1])
    def test_summarize_keeps_a_nan_max_defect_and_fails(self, where):
        reports = []
        for i in range(2):
            defect = float("nan") if i == where else 0.5e-12
            details = [{"name": "d", "defect": defect, "tolerance": 1e-12}]
            reports.append(vf._assemble("check", Resonance(1, 1), 3, 7, details))
        summary = vf.summarize(reports, seed=7)
        assert summary.passed is False
        assert math.isnan(summary.max_defect)
        assert (summary.check, summary.n, summary.samples, summary.seed) == ("all", None, 6, 7)
        assert summary.details == [r.to_dict() for r in reports]

    def test_summarize_passes_with_the_worst_ratio(self):
        reports = [vf._assemble("check", Resonance(1, 1), 1, 0,
                                [{"name": "d", "defect": d, "tolerance": 1.0}])
                   for d in (0.25, 0.75, 0.5)]
        summary = vf.summarize(reports, seed=0)
        assert summary.passed is True and summary.max_defect == 0.75
        assert vf.summarize([], seed=0).to_dict()["max_defect"] == 0.0
