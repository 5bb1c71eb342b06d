"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line per criterion (visible with -s or on
failure); the grid is n, m in {1..4}, both signatures, unless a criterion
names a smaller envelope.
"""

import dataclasses
import time

import numpy as np
import pytest

from resdp import casimir, dual_pair as dp, dynamics as dyn
from resdp import group_actions as ga
from resdp import phase_space as ps
from resdp import poisson3
from resdp import resonance_maps as rm
from resdp import shapes, verification as vf
from resdp.poisson3 import coordinate_fields
from resdp.resonance_maps import Resonance

GRID = vf.GRID

FX, FY, FZ = coordinate_fields()


def criterion(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_1_identity_suite():
    t0 = time.perf_counter()
    worst_kummer, worst_quadric = 0.0, 0.0
    for n, m, sign in GRID:
        res = Resonance(n, m, sign)
        rng = np.random.default_rng(1000 + 10 * n + m)
        a = vf.sample_in_domain(res, 10000, rng)
        scale = 1.0 + np.linalg.norm(a, axis=-1) ** (2 * (n + m))
        worst_kummer = max(worst_kummer,
                           float(np.max(rm.kummer_identity_defect(res, a) / scale)))
        if n == 1 and m == 1:
            quad = rm.hopf_identity_defect(a) if sign == "plus" \
                else rm.hyperbolic_identity_defect(a)
            worst_quadric = max(worst_quadric, float(np.max(quad)))
    elapsed = time.perf_counter() - t0
    criterion("1a kummer-identity", worst_kummer < 1e-10,
              f"max scaled defect {worst_kummer:.3e} (tol 1e-10, {elapsed:.1f}s)")
    criterion("1b hopf+hyperbolic", worst_quadric < 1e-12,
              f"max defect {worst_quadric:.3e} (tol 1e-12)")


def test_2_casimir_suite():
    t0 = time.perf_counter()
    # Closed-form oracles.
    worst_closed = 0.0
    rng = np.random.default_rng(2)
    for n, m, sign in GRID:
        res = Resonance(n, m, sign)
        pts, want = [], []
        if sign == "plus":
            for rho2 in rng.uniform(0.05, 4.0, size=300):
                pts.append([np.sqrt(rho2), 0.0, 0.0])
                want.append((float(n) ** m * float(m) ** n * rho2) ** (1.0 / (n + m)))
        if n == 1 and m == 1:
            for _ in range(300):
                x, y = rng.uniform(-1.2, 1.2, size=2)
                if x * x + y * y < 1e-3:
                    continue
                if sign == "plus":
                    z = rng.uniform(-1.2, 1.2)
                    want.append(np.sqrt(x * x + y * y + z * z))
                else:
                    z = np.hypot(x, y) + rng.uniform(0.05, 2.0)
                    want.append(np.sqrt(z * z - x * x - y * y))
                pts.append([x, y, z])
        if pts:
            got = casimir.solve_casimir(res, np.array(pts)).value
            worst_closed = max(worst_closed, float(np.max(np.abs(got - want) / want)))
    criterion("2a closed-form oracles", worst_closed < 1e-12,
              f"max rel deviation {worst_closed:.3e} (tol 1e-12)")

    # Composition with the leaf map recovers the momentum (D+ for minus).
    worst_comp = 0.0
    per_cell = 625
    for n, m, sign in GRID:
        res = Resonance(n, m, sign)
        a = vf.sample_in_domain(res, per_cell, np.random.default_rng(20 + n + 5 * m))
        r = rm.circle_momentum(res, a)
        p = rm.leaf_map(res, a)
        keep = casimir.in_leaf_domain(res, p) & ((r >= 0.1) if sign == "minus" else True)
        got = casimir.solve_casimir(res, p[keep]).value
        worst_comp = max(worst_comp,
                         float(np.max(np.abs(got - r[keep]) / np.abs(r[keep]), initial=0.0)))
    criterion("2b composition recovers momentum", worst_comp < 1e-10,
              f"max rel deviation {worst_comp:.3e} (tol 1e-10)")

    # Gradient against central finite differences.
    worst_grad = 0.0
    per_cell = 320
    for n, m, sign in GRID:
        res = Resonance(n, m, sign)
        rng = np.random.default_rng(30 + n + 5 * m)
        a = vf.sample_in_domain(res, per_cell, rng, lo=0.35, hi=1.4)
        pts = rm.leaf_map(res, a)
        rho2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        keep = rho2 >= 1e-2
        if sign == "minus":
            scale = float(n) ** m * float(m) ** n
            keep &= ~(scale * rho2 > 0.8 * pts[:, 2] ** (n + m))
        pts = pts[keep]
        grad = casimir.solve_casimir(res, pts).gradient
        fd = poisson3.central_difference(lambda q: casimir.solve_casimir(res, q).value, pts,
                                         1e-6 * (1.0 + poisson3.norm(pts)))
        worst_grad = max(worst_grad, float(np.max(poisson3.norm(grad - fd) / poisson3.norm(fd),
                                                  initial=0.0)))
    elapsed = time.perf_counter() - t0
    criterion("2c gradient vs finite differences", worst_grad < 1e-6,
              f"max rel deviation {worst_grad:.3e} (tol 1e-6, suite {elapsed:.1f}s)")


def test_3_poisson_suite():
    t0 = time.perf_counter()
    failed = []
    for n, m, sign in GRID:
        res = Resonance(n, m, sign)
        rep = vf.check_bracket_table(res, samples=1000, seed=42)
        if not rep.passed:
            failed.append((n, m, sign, rep.max_defect))
    criterion("3a bracket tables", not failed,
              f"1000 pts/cell, tol 1e-7*scale ({time.perf_counter()-t0:.1f}s)"
              + (f" failures: {failed}" if failed else ""))

    # Finite-difference readings: the structure without its closed-form
    # Jacobian, as a generic field would be checked.
    worst_integ, worst_jac, worst_rank, worst_closed = 0.0, 0.0, 2, 0.0
    for n, m, sign in GRID:
        res = Resonance(n, m, sign)
        closed = poisson3.resonance_structure(res)
        structure = dataclasses.replace(closed, jacobian=None)
        pts = vf.sample_leaf_points(res, 12, seed=333)
        assert len(pts) >= 8, (res, len(pts))
        worst_closed = max(worst_closed,
                           float(np.max(poisson3.integrability_defect(closed, pts))),
                           float(np.max(poisson3.jacobi_defect(closed, FX, FY, FZ, pts))))
        worst_integ = max(worst_integ, float(np.max(poisson3.integrability_defect(structure, pts))))
        for p in pts:
            rank = np.linalg.matrix_rank(poisson3.bivector_matrix(structure, p))
            worst_rank = rank if rank != 2 else worst_rank
        worst_jac = max(worst_jac,
                        float(np.max(poisson3.jacobi_defect(structure, FX, FY, FZ, pts[:5]))))
    criterion("3b integrability", worst_integ < 1e-8,
              f"max finite-difference |v.curl v| {worst_integ:.3e} (tol 1e-8)")
    criterion("3c jacobi identity", worst_jac < 1e-5,
              f"max finite-difference cyclic sum {worst_jac:.3e} (tol 1e-5)")
    criterion("3d bivector rank", worst_rank == 2, f"rank {worst_rank} everywhere")

    twist = poisson3.PoissonStructure3(field=lambda p: p[..., [2, 0, 1]])
    control_i = poisson3.integrability_defect(twist, [1.0, 1.0, 1.0])
    control_j = poisson3.jacobi_defect(twist, FX, FY, FZ, [1.0, 1.0, 1.0])
    criterion("3e negative control", control_i > 1e-2 and control_j > 1e-2,
              f"twist field defects {control_i:.3e}, {control_j:.3e} (> 1e-2)")
    criterion("3f closed-form helicity and jacobi", worst_closed < 1e-8,
              f"max {worst_closed:.3e} from the closed-form Jacobian (tol 1e-8)")
    print(f"  poisson suite {time.perf_counter()-t0:.1f}s")


def test_4_dual_pair_suite():
    t0 = time.perf_counter()
    worst_k, worst_s = 0.0, 0.0
    for n, m, sign in GRID:
        res = Resonance(n, m, sign)
        rep = vf.check_dual_pair(res, samples=1000, seed=42, tol=1e-9)
        defects = {d["name"]: d["defect"] for d in rep.details}
        worst_k = max(worst_k, defects["kernel_residual"])
        worst_s = max(worst_s, defects["subspace_distance"])
        assert rep.samples >= 900, (res, rep.samples)
    criterion("4a dual-pair kernels", worst_k < 1e-9,
              f"max kernel residual {worst_k:.3e} (tol 1e-9, 1000 pts/cell)")
    criterion("4b symplectic orthogonality", worst_s < 1e-9,
              f"max projector distance {worst_s:.3e} (tol 1e-9)")

    worst_leaf = 0.0
    for n, m, sign in GRID:
        res = Resonance(n, m, sign)
        for i, c in enumerate((0.5, 1.5, 3.0)):
            out = dp.leaf_correspondence_check(res, c, 100, seed=50 + i)
            worst_leaf = max(worst_leaf, out["max_deviation"] / (1.0 + c))
    criterion("4c leaf correspondence", worst_leaf < 1e-9,
              f"max scaled deviation {worst_leaf:.3e} "
              f"(tol 1e-9*(1+c), {time.perf_counter()-t0:.1f}s)")


def test_5_group_suite():
    t0 = time.perf_counter()
    worst_round, worst_equi, worst_form = 0.0, 0.0, 0.0
    for sign in ("plus", "minus"):
        rng = np.random.default_rng(5)
        done = 0
        while done < 1000:
            a = rng.uniform(-1.5, 1.5, size=4)
            level = float(np.real(ps.hermitian(sign, a, a)))
            if abs(level) < 0.1:
                continue
            g0 = ga.random_element(sign, rng)
            b = ga.act(g0, a)
            g = ga.transitive_element(a, b, sign)
            worst_round = max(worst_round, float(np.max(np.abs(ga.act(g, a) - b))))
            done += 1
        for _ in range(1000):
            g = ga.random_element(sign, rng)
            a = rng.uniform(-1.5, 1.5, size=4)
            v = rng.normal(size=3)
            worst_equi = max(worst_equi, ga.equivariance_defect(sign, g, a, v))
            w = ga.adjoint(sign, g, v)
            if sign == "plus":
                defect = abs(w @ w - v @ v)
            else:
                quad = lambda u: u[0] ** 2 + u[1] ** 2 - u[2] ** 2
                defect = abs(quad(w) - quad(v))
            worst_form = max(worst_form, defect)
    criterion("5a transitivity round trips", worst_round < 1e-12,
              f"max defect {worst_round:.3e} (tol 1e-12)")
    criterion("5b equivariance", worst_equi < 1e-12,
              f"max defect {worst_equi:.3e} (tol 1e-12)")
    criterion("5c adjoint preserves forms", worst_form < 1e-12,
              f"max defect {worst_form:.3e} (tol 1e-12, {time.perf_counter()-t0:.1f}s)")


def test_6_dynamics_suite():
    t0 = time.perf_counter()
    # Circle-flow conservation.
    worst_cons = 0.0
    for n, m, sign in GRID:
        res = Resonance(n, m, sign)
        rng = np.random.default_rng(6)
        t_grid = np.concatenate([[0.0, 0.7, np.pi, 5.0], rng.uniform(0, 8, size=6)])
        for _ in range(50):
            a0 = rng.uniform(-1.5, 1.5, size=4)
            base = np.append(rm.leaf_map(res, a0), rm.circle_momentum(res, a0))
            scale = 1.0 + float(np.max(np.abs(base)))
            report = dyn.conservation_report(res, a0, t_grid)
            worst_cons = max(worst_cons, report["max"] / scale)
    criterion("6a circle-flow conservation", worst_cons < 1e-12,
              f"max scaled drift {worst_cons:.3e} (tol 1e-12)")

    # Downstairs Casimir drift, dt=1e-3, T=10, n,m <= 3, both signs.
    worst_drift = 0.0
    for sign in ("plus", "minus"):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                res = Resonance(n, m, sign)
                points = vf._pushforward_points(res, 1, seed=61)
                assert len(points), res
                p0 = rm.leaf_map(res, points[0])
                ham = dyn.DownstairsHamiltonian(gamma=1.0) \
                    if (sign == "minus" and n < m) \
                    else dyn.DownstairsHamiltonian(alpha=0.1, gamma=1.0)
                traj = dyn.flow_downstairs(res, ham, p0, 1e-3, 10.0)
                drift = np.max(np.abs(traj.conserved["C"] - traj.conserved["C"][0]))
                worst_drift = max(worst_drift, float(drift))
    criterion("6b downstairs casimir drift", worst_drift < 1e-6,
              f"max drift {worst_drift:.3e} over T=10 (tol 1e-6, "
              f"{time.perf_counter()-t0:.1f}s so far)")

    # Pushforward commutation, dt=1e-3, T=1.
    worst_push = 0.0
    for sign in ("plus", "minus"):
        for (n, m) in ((1, 1), (2, 1), (3, 2)):
            res = Resonance(n, m, sign)
            rep = vf.check_pushforward(res, samples=2, seed=62)
            assert rep.samples == 2, res
            worst_push = max(worst_push, rep.details[0]["defect"])
    criterion("6c pushforward commutation", worst_push < 1e-6,
              f"max defect {worst_push:.3e} (tol 1e-6, dt=1e-3, T=1)")

    # One-step method order under halving.
    res = Resonance(1, 1)
    fx = dyn.pullback(res, dyn.DownstairsHamiltonian(alpha=1.0))
    fz = dyn.pullback(res, dyn.DownstairsHamiltonian(gamma=1.0))
    ham = poisson3.ScalarField(lambda a: fx.fn(a) ** 2 + fz.fn(a),
                               lambda a: 2 * fx.fn(a) * fx.gradient(a) + fz.gradient(a))
    a0 = np.array([1.0, 0.3, -0.4, 0.8])
    drifts = []
    for dt in (4e-3, 2e-3):
        traj = dyn.flow_upstairs("plus", ham, a0, dt, 1.0)
        drifts.append(np.max(np.abs(traj.conserved["H"] - traj.conserved["H"][0])))
    factor = drifts[0] / drifts[1]
    criterion("6d integrator order factor", 8.0 <= factor <= 32.0,
              f"drift ratio {factor:.2f} in [8, 32] "
              f"(suite {time.perf_counter()-t0:.1f}s)")


def test_7_shapes_suite():
    t0 = time.perf_counter()
    [sphere] = shapes.surface_mesh(Resonance(1, 1), 1.0, slices=48, rings=25)
    sphere_dev = float(np.max(np.abs(np.linalg.norm(sphere.vertices, axis=1) - 1.0)))
    criterion("7a unit sphere mesh", sphere_dev < 1e-8,
              f"max radial deviation {sphere_dev:.3e} (tol 1e-8)")

    worst_res = 0.0
    for res, c in [(Resonance(3, 2), 1.0), (Resonance(4, 1), 0.7),
                   (Resonance(2, 2), 2.5), (Resonance(1, 1, "minus"), 1.0),
                   (Resonance(4, 2, "minus"), 1.0), (Resonance(2, 1, "minus"), 1.5)]:
        for mesh in shapes.surface_mesh(res, c, slices=32, rings=16):
            worst_res = max(worst_res, shapes.mesh_residual(res, c, mesh) / (1 + c * c))
    criterion("7b mesh residuals", worst_res < 1e-8,
              f"max scaled residual {worst_res:.3e} (tol 1e-8*(1+c^2))")

    parity_ok = True
    for n in range(1, 6):
        for m in range(1, 6):
            curves = shapes.generating_curve(Resonance(n, m, "minus"), 1.0, 8)
            if len(curves) != (2 if (n + m) % 2 == 0 else 1):
                parity_ok = False
    criterion("7c lower-sheet parity rule", parity_ok,
              f"exact for n,m <= 5 ({time.perf_counter()-t0:.1f}s)")


def test_8_erratum_regression():
    # The printed hyperbolic identity reads X^2+Y^2-Z^2 = R^2; the correct
    # statement has -R^2 on the right.  Pin the corrected form and document
    # that the printed one is violated by 2 R^2.
    res = Resonance(1, 1, "minus")
    rng = np.random.default_rng(8)
    a = rng.uniform(-1.5, 1.5, size=(10000, 4))
    p = rm.leaf_map(res, a)
    r = rm.circle_momentum(res, a)
    printed_lhs = p[..., 0] ** 2 + p[..., 1] ** 2 - p[..., 2] ** 2
    corrected = float(np.max(np.abs(printed_lhs + r ** 2)))
    criterion("8a corrected hyperbolic identity", corrected < 1e-12,
              f"max |LHS + R^2| {corrected:.3e} (tol 1e-12)")

    # Same structure through the conventional momentum components.
    j = rm.su11_momentum(a)
    r11 = 0.5 * (a[:, 0] ** 2 + a[:, 1] ** 2 - a[:, 2] ** 2 - a[:, 3] ** 2)
    printed_j = j[:, 0] ** 2 + j[:, 1] ** 2 - j[:, 2] ** 2
    corrected_j = float(np.max(np.abs(printed_j + r11 ** 2)))
    criterion("8b identity via momentum components", corrected_j < 1e-12,
              f"max defect {corrected_j:.3e}")

    a_ref = ps.from_complex(2.0, 1.0)
    p_ref = rm.leaf_map(res, a_ref)
    r_ref = float(rm.circle_momentum(res, a_ref))
    printed_defect = abs((p_ref[0] ** 2 + p_ref[1] ** 2 - p_ref[2] ** 2) - r_ref ** 2)
    criterion("8c printed form rejected", printed_defect == pytest.approx(2 * r_ref ** 2),
              f"printed identity off by exactly 2 R^2 = {2 * r_ref ** 2}")
