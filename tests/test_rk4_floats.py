"""The float-state RK4 loop against a copy of the former numpy-vector loop.

The reference keeps the array forms of both flows: the upstairs field as
omega @ grad(a) and the downstairs field as an np.array, with every stage
computed on numpy vectors, and it runs the upstairs flow to the end before
the downstairs one.  The float loop, and the pushforward check's joint run
of both flows, must reproduce its states bit for bit, and its failures with
the same exception and message.
"""

import numpy as np
import pytest

from resdp import casimir, dynamics as dyn, phase_space as ps, resonance_maps as rm, verification
from resdp.errors import DomainExit, OffDomain, StepRejected
from resdp.resonance_maps import Resonance


def _array_rk4(rhs, y0, dt, steps, accept):
    out = np.empty((steps + 1, len(y0)))
    out[0] = y0
    y = y0
    half = 0.5 * dt
    k = 0
    try:
        for k in range(steps):
            t = k * dt
            k1 = rhs(t, y)
            k2 = rhs(t + half, y + half * k1)
            k3 = rhs(t + half, y + half * k2)
            k4 = rhs((k + 1) * dt, y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            accept(y, k + 1)
            out[k + 1] = y
    except OverflowError as exc:
        raise StepRejected(f"arithmetic overflow in step {k + 1}: {exc}") from exc
    return out


def _array_upstairs(sign, grad, a0, dt, steps):
    omega = ps.omega_matrix(sign)

    def accept(a, k):
        dyn._guard_norm(np.linalg.norm(a), k)

    with np.errstate(all="ignore"):
        return _array_rk4(lambda t, a: omega @ np.asarray(grad(a), dtype=float),
                          np.asarray(a0, dtype=float), dt, steps, accept)


def _array_downstairs(res, ham, p0, dt, steps):
    p0 = np.asarray(p0, dtype=float)
    if not casimir.in_leaf_domain(res, p0, dyn._AXIS_MARGIN):
        raise OffDomain("initial point outside the structure domain")
    c0 = casimir.solve_casimir(res, p0).value
    mn = float(res.mn)
    hx, hy, hz = ham.alpha, ham.beta, ham.gamma

    def rhs(t, p):
        x, y, z = p.tolist()
        if not casimir.in_leaf_domain(res, (x, y, z), dyn._AXIS_MARGIN):
            raise DomainExit(t)
        vx = 2.0 * mn * x
        vy = 2.0 * mn * y
        vz = -mn * casimir._kummer_dz(res, c0)(z)
        return np.array([vy * hz - vz * hy, vz * hx - vx * hz, vx * hy - vy * hx])

    def accept(p, k):
        dyn._guard_norm(abs(p[0]) + abs(p[1]) + abs(p[2]), k)
        if not casimir.in_leaf_domain(res, p, dyn._AXIS_MARGIN):
            raise DomainExit(k * dt)

    return _array_rk4(rhs, p0, dt, steps, accept)


def _array_pushforward(res, ham, a0, dt, steps):
    up = _array_upstairs(res.sign, dyn.pullback(res, ham).grad, a0, dt, steps)
    down = _array_downstairs(res, ham, rm.leaf_map(res, a0), dt, steps)
    q = rm.leaf_map(res, up)
    ok = casimir.in_leaf_domain(res, q, dyn._AXIS_MARGIN)
    if not ok.all():
        raise DomainExit(dt * int(np.argmin(ok)))
    return float(np.max(np.abs(q - down)))


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (DomainExit, StepRejected) as exc:
        return type(exc), str(exc)


def _same(got, want):
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and np.array_equal(got, want)
    return got == want


_Z = dyn.DownstairsHamiltonian(gamma=1.0)
_TILTED = dyn.DownstairsHamiltonian(alpha=0.15, beta=-0.1, gamma=0.8)
_CELLS = [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (3, 1), (4, 3), (2, 4)]


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("n,m", _CELLS)
@pytest.mark.parametrize("ham", [_Z, _TILTED], ids=["z", "tilted"])
def test_float_rk4_matches_array_rk4(n, m, sign, ham):
    res = Resonance(n, m, sign)
    dt, total = 1e-3, 0.3
    steps = dyn._step_count(dt, total)
    a0 = verification._pushforward_points(res, 1, seed=n + 10 * m)[0]
    p0 = rm.leaf_map(res, a0)
    field = dyn.pullback(res, ham)

    up = _outcome(lambda: dyn.flow_upstairs(sign, field, a0, dt, total).states)
    assert _same(up, _outcome(_array_upstairs, sign, field.gradient, a0, dt, steps))
    down = _outcome(lambda: dyn.flow_downstairs(res, ham, p0, dt, total).states)
    assert _same(down, _outcome(_array_downstairs, res, ham, p0, dt, steps))
    defect = _outcome(dyn.pushforward_defect, res, ham, a0, dt, total)
    assert _same(defect, _outcome(_array_pushforward, res, ham, a0, dt, steps))


@pytest.mark.parametrize("n,m,seed,index,message", [
    (3, 1, 1, 1, "state norm 4.66844e+53 beyond 1e+06 at step 462"),
    (4, 2, 1, 1, "arithmetic overflow in step 300: complex exponentiation"),
    (4, 2, 7, 1, "state norm inf beyond 1e+06 at step 185"),
    (4, 2, 42, 2, "state norm nan beyond 1e+06 at step 284"),
])
def test_failing_pushforward_matches_array_rk4(n, m, seed, index, message):
    # The start points and Hamiltonians of check_pushforward on these cells.
    res = Resonance(n, m, "minus")
    a0 = verification._pushforward_points(res, index + 1, seed)[index]
    ham = [_Z, _TILTED, dyn.DownstairsHamiltonian(alpha=-0.2, gamma=1.2)][index]
    got = _outcome(dyn.pushforward_defect, res, ham, a0, 1e-3, 1.0)
    assert got == _outcome(_array_pushforward, res, ham, a0, 1e-3, 1000)
    assert got == (StepRejected, message)


def test_downstairs_only_failure_matches_array_rk4():
    # The upstairs flow runs to T alone; the downstairs one leaves its domain
    # at a stage time, which the joint run must report unchanged.
    res = Resonance(1, 2, "minus")
    a0 = verification._pushforward_points(res, 3, 7)[0]
    dyn.flow_upstairs(res.sign, dyn.pullback(res, _TILTED), a0, 1e-3, 1.0)
    got = _outcome(dyn.pushforward_defect, res, _TILTED, a0, 1e-3, 1.0)
    assert got == _outcome(_array_pushforward, res, _TILTED, a0, 1e-3, 1000)
    assert got == (DomainExit, "trajectory left the domain at t=0.40750000000000003")


def test_one_rk4_run_per_pushforward(monkeypatch):
    starts = []
    real_rk4 = dyn._rk4

    def counted_rk4(rhs, y0, dt, steps, accept):
        starts.append(y0)
        return real_rk4(rhs, y0, dt, steps, accept)

    monkeypatch.setattr(dyn, "_rk4", counted_rk4)
    res = Resonance(3, 2)
    a0 = verification._pushforward_points(res, 1, seed=1)[0]
    assert dyn.pushforward_defect(res, _TILTED, a0, 1e-3, 1.0) < 1e-6
    assert len(starts) == 1
    assert starts[0] == a0.tolist() + rm.leaf_map(res, a0).tolist()
    assert all(type(u) is float for u in starts[0])


def test_off_domain_start_matches_array_rk4():
    # a2 alone projects onto the z axis: the upstairs flow runs, the
    # downstairs one cannot start.
    res = Resonance(1, 1)
    a0 = np.array([0.0, 0.0, 1.0, 0.0])
    for fn, args in [(dyn.pushforward_defect, (1e-3, 0.1)), (_array_pushforward, (1e-3, 100))]:
        with pytest.raises(OffDomain, match="^initial point outside the structure domain$"):
            fn(res, _Z, a0, *args)
