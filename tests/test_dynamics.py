import numpy as np
import pytest

from resdp import casimir, dual_pair as dp, dynamics as dyn
from resdp import phase_space as ps, poisson3
from resdp import resonance_maps as rm
from resdp.errors import DomainExit, OffDomain, StepRejected
from resdp.poisson3 import ScalarField
from resdp.resonance_maps import Resonance
from resdp.verification import sample_in_domain, sample_leaf_points


def cpoint(a1, a2):
    return ps.from_complex(a1, a2)


def leaf_coordinates(res):
    """X, Y and Z o leaf_map as pullbacks, the Hamiltonians of `resdp flow upstairs`."""
    return tuple(dyn.pullback(res, dyn.DownstairsHamiltonian(**{k: 1.0}))
                 for k in ("alpha", "beta", "gamma"))


class TestCircleFlow:
    def test_half_turn_one_one(self):
        a = cpoint(0.3 + 0.4j, -0.2 + 0.9j)
        assert np.allclose(dyn.circle_flow(Resonance(1, 1), a, np.pi), -a, atol=1e-15)

    def test_half_turn_two_one(self):
        a = cpoint(0.3 + 0.4j, -0.2 + 0.9j)
        got = dyn.circle_flow(Resonance(2, 1), a, np.pi)
        a1, a2 = ps.to_complex(a)
        assert np.allclose(got, ps.from_complex(a1, -a2), atol=1e-12)

    def test_generator_matches_fd(self):
        res = Resonance(3, 2)
        a = cpoint(1.0 + 0.5j, 0.7 - 0.2j)
        h = 1e-7
        fd = (dyn.circle_flow(res, a, h) - dyn.circle_flow(res, a, -h)) / (2 * h)
        assert np.max(np.abs(fd - rm.circle_generator(res, a))) < 1e-8


class TestCanonicalBracket:
    def test_normalization_first_plane(self):
        # {|a1|^2, x1} = -2 y1 and {|a1|^2, y1} = 2 x1 for both signs.
        mod = ScalarField(lambda a: a[0] ** 2 + a[1] ** 2,
                          lambda a: np.array([2 * a[0], 2 * a[1], 0.0, 0.0]))
        x1 = ScalarField(lambda a: a[0], lambda a: np.array([1.0, 0, 0, 0]))
        y1 = ScalarField(lambda a: a[1], lambda a: np.array([0.0, 1, 0, 0]))
        rng = np.random.default_rng(0)
        for sign in ("plus", "minus"):
            a = rng.normal(size=4)
            assert dyn.canonical_bracket(sign, mod, x1, a) == pytest.approx(-2 * a[1])
            assert dyn.canonical_bracket(sign, mod, y1, a) == pytest.approx(2 * a[0])

    def test_second_plane_sign_flips(self):
        mod = ScalarField(lambda a: a[2] ** 2 + a[3] ** 2,
                          lambda a: np.array([0.0, 0.0, 2 * a[2], 2 * a[3]]))
        x2 = ScalarField(lambda a: a[2], lambda a: np.array([0.0, 0, 1, 0]))
        a = np.array([0.1, 0.2, 0.5, 0.7])
        assert dyn.canonical_bracket("plus", mod, x2, a) == pytest.approx(-2 * a[3])
        assert dyn.canonical_bracket("minus", mod, x2, a) == pytest.approx(2 * a[3])

    def test_antisymmetry(self):
        res = Resonance(2, 3)
        fx, fy, _ = leaf_coordinates(res)
        a = cpoint(0.8 + 0.1j, 0.5 - 0.6j)
        assert dyn.canonical_bracket("plus", fx, fy, a) == pytest.approx(
            -dyn.canonical_bracket("plus", fy, fx, a), abs=1e-13)
        assert abs(dyn.canonical_bracket("plus", fx, fx, a)) < 1e-15

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_structure_table(self, sign):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            res = Resonance(n, m, sign)
            a = None
            while a is None or not rm.in_domain(res, a):
                r1, r2 = rng.uniform(0.2, 2.0, size=2)
                ph = rng.uniform(0, 2 * np.pi, size=2)
                a = ps.from_complex(np.sqrt(r1) * np.exp(1j * ph[0]),
                                    np.sqrt(r2) * np.exp(1j * ph[1]))
            fx, fy, fz = leaf_coordinates(res)
            p = rm.leaf_map(res, a)
            r = float(rm.circle_momentum(res, a))
            x, y, z = (float(v) for v in p)
            mn = n * m
            expect_xy = -mn * (x * x + y * y) * (m / (r + z) - n / (r - z))
            scale = 1.0 + abs(x) + abs(y) + abs(expect_xy)
            assert abs(dyn.canonical_bracket(sign, fy, fz, a) - 2 * mn * x) < 1e-7 * scale
            assert abs(dyn.canonical_bracket(sign, fz, fx, a) - 2 * mn * y) < 1e-7 * scale
            assert abs(dyn.canonical_bracket(sign, fx, fy, a) - expect_xy) < 1e-7 * scale

    def test_minus_complex_combination(self):
        # {Z, X - iY} = 2 i m n (X - iY) split into real brackets:
        # {Z, X} = 2 m n Y and {Z, Y} = -2 m n X.
        res = Resonance(3, 2, "minus")
        fx, fy, fz = leaf_coordinates(res)
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.uniform(-1.2, 1.2, size=4)
            p = rm.leaf_map(res, a)
            assert dyn.canonical_bracket("minus", fz, fx, a) == pytest.approx(
                2 * res.mn * p[1], abs=1e-8 * (1 + abs(p[1])))
            assert dyn.canonical_bracket("minus", fz, fy, a) == pytest.approx(
                -2 * res.mn * p[0], abs=1e-8 * (1 + abs(p[0])))

    def test_momentum_property(self):
        # The circle generator is the Hamiltonian vector field of the
        # momentum: form(gen, u) = d(momentum)(u) for arbitrary u.
        rng = np.random.default_rng(3)
        for sign in ("plus", "minus"):
            for _ in range(100):
                n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
                res = Resonance(n, m, sign)
                a = rng.uniform(-1.5, 1.5, size=4)
                if abs(a[0]) + abs(a[1]) < 1e-3 or abs(a[2]) + abs(a[3]) < 1e-3:
                    continue
                gen = rm.circle_generator(res, a)
                u = rng.normal(size=4)
                lhs = ps.symplectic_form(sign, gen, u)
                rhs = rm.circle_momentum_gradient(res, a) @ u
                assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


class TestFlowUpstairs:
    def test_momentum_generates_circle_flow(self):
        for sign in ("plus", "minus"):
            res = Resonance(2, 1, sign)
            a0 = np.array([1.0, 0.2, -0.3, 0.8])
            traj = dyn.flow_upstairs(sign, dyn.field_R(res), a0, 1e-3, 1.0)
            exact = dyn.circle_flow(res, a0, traj.times[-1])
            assert np.max(np.abs(traj.states[-1] - exact)) < 1e-9

    def test_constant_hamiltonian_is_stationary(self):
        const = ScalarField(lambda a: np.full(np.shape(a)[:-1], 3.0), lambda a: np.zeros(4))
        traj = dyn.flow_upstairs("plus", const, [1.0, 0.0, 0.5, 0.2], 1e-2, 0.5)
        assert np.max(np.abs(traj.states - traj.states[0])) == 0.0

    def test_invariant_hamiltonian_conserves_momentum(self):
        res = Resonance(1, 1)
        a0 = np.array([0.9, 0.1, 0.4, -0.6])
        traj = dyn.flow_upstairs("plus", leaf_coordinates(res)[0], a0, 1e-3, 1.0)
        r = np.array([rm.circle_momentum(res, a) for a in traj.states])
        assert np.max(np.abs(r - r[0])) < 1e-9

    def test_hamiltonian_drift_small(self):
        res = Resonance(2, 1)
        ham = leaf_coordinates(res)[0]
        a0 = np.array([1.1, -0.2, 0.6, 0.4])
        traj = dyn.flow_upstairs("plus", ham, a0, 1e-3, 1.0)
        drift = np.max(np.abs(traj.conserved["H"] - traj.conserved["H"][0]))
        assert drift < 1e-8 * (1.0 + abs(traj.conserved["H"][0]))

    def test_order_factor_under_step_halving(self):
        res = Resonance(1, 1)
        fx, _, fz = leaf_coordinates(res)
        ham = ScalarField(lambda a: fx.fn(a) ** 2 + fz.fn(a),
                          lambda a: 2 * fx.fn(a) * fx.gradient(a) + fz.gradient(a))
        a0 = np.array([1.0, 0.3, -0.4, 0.8])
        drifts = []
        for dt in (4e-3, 2e-3):
            traj = dyn.flow_upstairs("plus", ham, a0, dt, 1.0)
            drifts.append(np.max(np.abs(traj.conserved["H"] - traj.conserved["H"][0])))
        factor = drifts[0] / drifts[1]
        assert 8.0 <= factor <= 32.0

    def test_blowup_guard(self):
        # A gradient engineered so the flow is pure exponential growth.
        runaway = ScalarField(lambda a: 0.0,
                              lambda a: -ps.omega_matrix("plus") @ a * 8.0)
        with pytest.raises(StepRejected):
            dyn.flow_upstairs("plus", runaway, [1.0, 0.0, 0.0, 0.0], 1e-2, 3.0)

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError):
            dyn.flow_upstairs("plus", dyn.field_R(Resonance(1, 1)),
                              [1.0, 0, 0, 0], -1e-3, 1.0)

    @pytest.mark.parametrize("dt,total", [(np.nan, 1.0), (1e-3, np.nan), (1e-3, np.inf),
                                          (np.inf, np.inf), (5e-324, 1.0)])
    def test_non_finite_steps_rejected(self, dt, total):
        # The last pair has a finite dt and T, but T / dt overflows.
        with pytest.raises(ValueError, match="finite T / dt"):
            dyn._step_count(dt, total)

    @pytest.mark.parametrize("dt,total,ratio", [(0.6, 1.0, "1.66666666667"), (0.4, 1.0, "2.5"),
                                                (1e-3, 1.0 + 1e-6, "1000.001")])
    def test_fractional_step_count_rejected(self, dt, total, ratio):
        # Rounding would integrate to 1.2, 0.8 and 1.0 instead of T.
        with pytest.raises(ValueError, match=f"whole number of steps, not {ratio}$"):
            dyn._step_count(dt, total)

    @pytest.mark.parametrize("dt,total,steps", [(1e-3, 1.0, 1000), (1e-3, 0.3, 300),
                                                (0.1, 0.3, 3), (1e-3, 1.0 + 1e-13, 1000)])
    def test_whole_step_count_within_rounding(self, dt, total, steps):
        assert dyn._step_count(dt, total) == steps

    def test_nan_state_rejected(self):
        # A NaN norm is not above the blowup bound, yet the state is no state.
        nan_after = ScalarField(lambda a: 0.0, lambda a: np.full(4, np.nan))
        with pytest.raises(StepRejected, match="nan beyond 1e\\+06 at step 1"):
            dyn.flow_upstairs("plus", nan_after, [1.0, 0.0, 0.0, 0.0], 1e-2, 0.1)

    def test_overflow_in_a_step_rejected(self):
        # Python complex powers raise OverflowError where numpy gives inf.
        def grad(a):
            if a[0] > 1.0 + 2.5e-2:
                raise OverflowError("complex exponentiation")
            return -ps.omega_matrix("plus") @ np.array([1.0, 0.0, 0.0, 0.0])

        with pytest.raises(StepRejected, match="overflow in step 3: complex") as err:
            dyn.flow_upstairs("plus", ScalarField(lambda a: 0.0, grad),
                              [1.0, 0.0, 0.0, 0.0], 1e-2, 0.1)
        assert isinstance(err.value.__cause__, OverflowError)


class TestFlowDownstairs:
    def test_rotation_about_axis(self):
        res = Resonance(1, 1)
        traj = dyn.flow_downstairs(res, dyn.DownstairsHamiltonian(gamma=1.0),
                                   [1.0, 0.0, 0.0], 1e-3, 1.0)
        t = traj.times[-1]
        want = [np.cos(2 * t), -np.sin(2 * t), 0.0]
        assert np.max(np.abs(traj.states[-1] - want)) < 1e-10
        radii = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-10

    @pytest.mark.parametrize("n,m,sign", [(1, 1, "plus"), (3, 2, "plus"), (2, 1, "minus")])
    def test_casimir_drift(self, n, m, sign):
        res = Resonance(n, m, sign)
        a0 = dp.fiber_sample(res, 1.5, 1, seed=4)[0]
        p0 = rm.leaf_map(res, a0)
        ham = dyn.DownstairsHamiltonian(alpha=0.1, gamma=1.0)
        traj = dyn.flow_downstairs(res, ham, p0, 1e-3, 1.0)
        drift = np.max(np.abs(traj.conserved["C"] - traj.conserved["C"][0]))
        assert drift < 1e-6

    @pytest.mark.parametrize("n,m,sign", [(3, 2, "plus"), (2, 1, "minus"), (1, 3, "minus")])
    def test_casimir_log_matches_single_point_solves(self, n, m, sign):
        res = Resonance(n, m, sign)
        p0 = rm.leaf_map(res, dp.fiber_sample(res, 1.5, 1, seed=4)[0])
        traj = dyn.flow_downstairs(res, dyn.DownstairsHamiltonian(gamma=1.0), p0, 1e-3, 0.3)
        want = [casimir.solve_casimir(res, q).value for q in traj.states]
        assert traj.conserved["C"].tolist() == want

    def test_domain_exit_raises(self):
        # A strong x-translation pushes any thin minus-band trajectory out.
        res = Resonance(1, 2, "minus")
        a0 = dp.fiber_sample(res, 1.5, 1, seed=5)[0]
        p0 = rm.leaf_map(res, a0)
        ham = dyn.DownstairsHamiltonian(alpha=3.0)
        with pytest.raises(DomainExit) as err:
            dyn.flow_downstairs(res, ham, p0, 1e-3, 20.0)
        assert err.value.time >= 0.0

    def test_domain_exit_reports_stage_time(self):
        # Step j runs its stages at j dt, j dt + dt/2 and (j + 1) dt; the
        # state at j dt was accepted, so the exit lies in (j dt, (j + 1) dt].
        res = Resonance(1, 2, "minus")
        p0 = rm.leaf_map(res, dp.fiber_sample(res, 1.5, 1, seed=5)[0])
        ham = dyn.DownstairsHamiltonian(alpha=3.0)
        dt = 1e-3
        with pytest.raises(DomainExit) as err:
            dyn.flow_downstairs(res, ham, p0, dt, 20.0)
        t_exit = err.value.time
        j = (round(2.0 * t_exit / dt) - 1) // 2
        assert j >= 1
        assert t_exit in (j * dt + 0.5 * dt, (j + 1) * dt)
        last = dyn.flow_downstairs(res, ham, p0, dt, j * dt)
        assert len(last.times) == j + 1
        with pytest.raises(DomainExit) as again:
            dyn.flow_downstairs(res, ham, p0, dt, (j + 1) * dt)
        assert again.value.time == t_exit

    def test_off_domain_start(self):
        with pytest.raises(OffDomain):
            dyn.flow_downstairs(Resonance(1, 1), dyn.DownstairsHamiltonian(gamma=1.0),
                                [0.0, 0.0, 1.0], 1e-3, 1.0)


def downstairs_rhs(monkeypatch, res, ham, p):
    """The downstairs right-hand side at time 0 on the trajectory that starts at p."""
    monkeypatch.setattr(dyn, "_rk4", lambda rhs, y0, dt, steps, accept: rhs(0.0, y0))
    return dyn._downstairs_states(res, ham, p, 1e-3, 1)


class TestNambuField:
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3, 4) for m in (1, 2, 3, 4)])
    def test_matches_structure_hamiltonian_field(self, monkeypatch, n, m, sign):
        # H = z leaves the third field component out of the flow; a tilted H
        # checks it against the structure field re-solved at the point.
        res = Resonance(n, m, sign)
        ham = dyn.DownstairsHamiltonian(alpha=0.3, beta=-0.2, gamma=0.9)
        grad_h = ScalarField(ham.value, lambda p: np.array([ham.alpha, ham.beta, ham.gamma]))
        structure = poisson3.resonance_structure(res)
        pts = sample_leaf_points(res, 10, seed=n + 10 * m)
        for p, want in zip(pts, poisson3.hamiltonian_vf(structure, grad_h, pts)):
            got = downstairs_rhs(monkeypatch, res, ham, p)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_one_casimir_solve_per_trajectory(self, monkeypatch):
        # One public solve at the start point, which runs the Newton-bisection
        # once, on one row.
        solves, rows = [], []
        real_solve, real_rows = casimir.solve_casimir, casimir._newton_bisect_rows

        def counted_solve(res, p):
            solves.append(np.shape(p))
            return real_solve(res, p)

        def counted_rows(*args):
            rows.append(len(args[-1]))
            return real_rows(*args)

        monkeypatch.setattr(casimir, "solve_casimir", counted_solve)
        monkeypatch.setattr(casimir, "_newton_bisect_rows", counted_rows)
        res = Resonance(3, 2)
        a0 = dp.fiber_sample(res, 1.5, 1, seed=6)[0]
        ham = dyn.DownstairsHamiltonian(alpha=0.15, beta=-0.1, gamma=0.8)
        assert dyn.pushforward_defect(res, ham, a0, 1e-3, 1.0) < 1e-6
        assert solves == [(3,)]
        assert rows == [1]

    def test_hamiltonian_log_matches_pointwise_values(self):
        res = Resonance(2, 1)
        p0 = rm.leaf_map(res, dp.fiber_sample(res, 1.5, 1, seed=6)[0])
        ham = dyn.DownstairsHamiltonian(alpha=0.2, beta=-0.1, gamma=0.7)
        traj = dyn.flow_downstairs(res, ham, p0, 1e-3, 0.2)
        pointwise = [ham.alpha * x + ham.beta * y + ham.gamma * z for x, y, z in traj.states]
        assert traj.conserved["H"].tolist() == pointwise


class TestPushforward:
    def test_rotation_one_one(self):
        res = Resonance(1, 1)
        a0 = cpoint((1.0 + 0.2j) / np.sqrt(2), (0.9 - 0.3j) / np.sqrt(2))
        defect = dyn.pushforward_defect(res, dyn.DownstairsHamiltonian(gamma=1.0),
                                        a0, 1e-3, 1.0)
        assert defect < 1e-6

    def test_zero_hamiltonian(self):
        res = Resonance(2, 1)
        a0 = cpoint(1.0, 1.0)
        assert dyn.pushforward_defect(res, dyn.DownstairsHamiltonian(), a0, 1e-2, 0.1) == 0.0

    def test_minus_two_one(self):
        res = Resonance(2, 1, "minus")
        defect = dyn.pushforward_defect(res, dyn.DownstairsHamiltonian(gamma=1.0),
                                        cpoint(2.0, 1.0), 1e-3, 0.5)
        assert defect < 1e-6

    def test_mixed_hamiltonian(self):
        res = Resonance(2, 1)
        a0 = dp.fiber_sample(res, 1.5, 1, seed=6)[0]
        ham = dyn.DownstairsHamiltonian(alpha=0.2, beta=-0.1, gamma=0.7)
        assert dyn.pushforward_defect(res, ham, a0, 1e-3, 1.0) < 1e-6


_PULLBACK_HAMS = [dyn.DownstairsHamiltonian(),
                  dyn.DownstairsHamiltonian(alpha=1.0),
                  dyn.DownstairsHamiltonian(beta=1.0),
                  dyn.DownstairsHamiltonian(gamma=1.3),
                  dyn.DownstairsHamiltonian(alpha=0.15, beta=-0.1, gamma=0.8)]


class TestPullbackGradient:
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_closed_form_matches_jacobian_product(self, sign):
        for n in (1, 2, 3, 4):
            for m in (1, 2, 3, 4):
                res = Resonance(n, m, sign)
                pts = sample_in_domain(res, 200, np.random.default_rng(10 * n + m))
                for ham in _PULLBACK_HAMS:
                    closed = dyn.pullback(res, ham)
                    grad_h = np.array([ham.alpha, ham.beta, ham.gamma])
                    for a in pts:
                        want = rm.leaf_map_jacobian(res, a).T @ grad_h
                        got = closed.gradient(a)
                        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_mpmath_spot_check(self, sign):
        mpmath = pytest.importorskip("mpmath")
        res = Resonance(4, 3, sign)
        ham = _PULLBACK_HAMS[-1]
        a = cpoint(0.9 + 0.35j, 0.55 - 0.6j)
        s = 1 if sign == "plus" else -1
        with mpmath.workdps(50):
            def h(x1, y1, x2, y2):
                w = mpmath.mpc(x1, y1) ** 3 * mpmath.mpc(x2, -y2) ** 4
                z = 2 * (x1 ** 2 + y1 ** 2) - s * mpmath.mpf(3) / 2 * (x2 ** 2 + y2 ** 2)
                return ham.alpha * w.real - ham.beta * w.imag + ham.gamma * z

            args = [mpmath.mpf(float(v)) for v in a]
            want = np.array([float(mpmath.diff(h, args, tuple(int(i == j) for j in range(4))))
                             for i in range(4)])
        got = dyn.pullback(res, ham).gradient(a)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestConservationReport:
    def test_two_one_orbit(self):
        res = Resonance(2, 1)
        report = dyn.conservation_report(res, cpoint(1.0, 1.0), [0.0, 0.7, np.pi, 5.0])
        assert report["max"] < 1e-12
        assert np.allclose(rm.leaf_map(res, cpoint(1.0, 1.0)), [1.0, 0.0, 0.5])

    def test_axis_point(self):
        report = dyn.conservation_report(Resonance(1, 1), cpoint(1.0, 0.0),
                                         [0.0, 1.0, 2.0])
        assert report["max"] < 1e-15

    def test_origin(self):
        report = dyn.conservation_report(Resonance(3, 4), np.zeros(4), [0.0, 1.0])
        assert report["max"] == 0.0

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_batch_rows_match_single_points(self, sign):
        res = Resonance(3, 2, sign)
        a0 = np.random.default_rng(3).uniform(-1.5, 1.5, size=(20, 4))
        t_grid = [0.0, 0.7, np.pi, 5.0]
        batch = dyn.conservation_report(res, a0, t_grid)
        assert batch["max"].shape == (20,)
        for key in ("dX", "dY", "dZ", "dR", "max"):
            single = [dyn.conservation_report(res, a, t_grid)[key] for a in a0]
            # Batched complex products may round differently in the last place.
            assert np.max(np.abs(batch[key] - single)) <= 1e-14


class TestTrajectoryType:
    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            dyn.Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 3)),
                           conserved={})
        with pytest.raises(ValueError):
            dyn.Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 3)),
                           conserved={})
