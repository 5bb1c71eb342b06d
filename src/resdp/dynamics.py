"""Hamiltonian flows on C^2 and on the reduced space, with bracket oracles.

The canonical bracket convention is pinned per complex plane by
{|a1|^2, a1} = 2i a1; the second plane enters with the same sign for "plus"
and the opposite sign for "minus".  The Hamiltonian vector field is the one
with d/dt F = {H, F}, under which the circle momentum generates exactly the
resonant circle action (e^{i n t} a1, e^{i m t} a2) for both signatures.

Every flow runs through one classical 4th-order Runge-Kutta loop on a list
of Python floats, so a stage makes no numpy call; the upstairs field is a
signed permutation of the gradient.  Each flow's field and step guard are
built once per run, and the pushforward check integrates both flows as one
7-float state (x1, y1, x2, y2, x, y, z).  The public flows measure
conservation, never assume it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import casimir, phase_space as ps, resonance_maps as rm
from .errors import DomainExit, OffDomain, ResdpError, StepRejected
from .phase_space import PLUS
from .poisson3 import ScalarField

_BLOWUP_NORM = 1e6
_AXIS_MARGIN = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Time grid, states, and a log of conserved quantities per step."""

    times: np.ndarray
    states: np.ndarray
    conserved: dict

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")


def field_R(res):
    """The circle momentum on batches (..., 4), with its gradient at one point as Python floats."""
    return ScalarField(lambda a: rm.circle_momentum(res, a),
                       lambda a: rm.circle_momentum_gradient(res, a).tolist())


@dataclass(frozen=True)
class DownstairsHamiltonian:
    """Linear Hamiltonian alpha*x + beta*y + gamma*z, with value() broadcast over (..., 3)."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def value(self, p):
        p = np.asarray(p, dtype=float)
        return self.alpha * p[..., 0] + self.beta * p[..., 1] + self.gamma * p[..., 2]


def pullback(res, ham):
    """The downstairs Hamiltonian composed with the leaf map, with closed-form gradient.

    The gradient of (alpha X + beta Y + gamma Z) o leaf_map takes the four
    coordinates as any sequence and returns a tuple of Python floats.  With
    w = X - iY = a1^m conj(a2)^n, the X and Y rows of the Jacobian come from
    pa = dw/da1 = m a1^(m-1) conj(a2)^n and pb = dw/dconj(a2) = n a1^m
    conj(a2)^(n-1); the Z row is (n x1, n y1, -/+ m x2, -/+ m y2).
    """
    n, m = res.n, res.m
    alpha, beta, gamma = ham.alpha, ham.beta, ham.gamma
    m1, n1 = m - 1, n - 1
    gz1 = gamma * n
    gz2 = -gamma * m if res.sign == PLUS else gamma * m

    def grad(a):
        x1, y1, x2, y2 = a
        a1 = complex(x1, y1)
        c2 = complex(x2, -y2)
        pa = m * a1 ** m1 * c2 ** n
        pb = n * a1 ** m * c2 ** n1
        return (alpha * pa.real - beta * pa.imag + gz1 * x1,
                -alpha * pa.imag - beta * pa.real + gz1 * y1,
                alpha * pb.real - beta * pb.imag + gz2 * x2,
                alpha * pb.imag + beta * pb.real + gz2 * y2)

    return ScalarField(lambda a: ham.value(rm.leaf_map(res, a)), grad)


def circle_flow(res, a, t):
    """Exact resonant circle action: (e^{i n t} a1, e^{i m t} a2)."""
    a1, a2 = ps.to_complex(a)
    return ps.from_complex(np.exp(1j * res.n * t) * a1, np.exp(1j * res.m * t) * a2)


def poisson_tensor(sign):
    """Matrix P of the canonical bracket: {F, G} = grad F @ P @ grad G."""
    return -ps.omega_matrix(sign)


def canonical_bracket(sign, f, g, a):
    """Canonical bracket of two ScalarFields at the point a."""
    a = np.asarray(a, dtype=float)
    return float(f.gradient(a) @ poisson_tensor(sign) @ g.gradient(a))


def _rk4(rhs, y0, dt, steps, accept):
    """Classical 4th-order one-step integration; returns the (steps + 1, d) states.

    The state is a list of floats and rhs(t, y) returns a sequence of floats;
    each component sees the operations of y + (dt/6)(k1 + 2 k2 + 2 k3 + k4).
    rhs receives the stage time, so a stage that leaves its domain can report
    when.  accept(y, k) runs on the state after step k and raises to reject
    it.  An OverflowError inside a step becomes StepRejected.
    """
    out = [y0]
    y = y0
    half = 0.5 * dt
    sixth = dt / 6.0
    k = 0
    try:
        for k in range(steps):
            t = k * dt
            k1 = rhs(t, y)
            k2 = rhs(t + half, [u + half * v for u, v in zip(y, k1)])
            k3 = rhs(t + half, [u + half * v for u, v in zip(y, k2)])
            k4 = rhs((k + 1) * dt, [u + dt * v for u, v in zip(y, k3)])
            y = [u + sixth * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
                 for u, v1, v2, v3, v4 in zip(y, k1, k2, k3, k4)]
            accept(y, k + 1)
            out.append(y)
    except OverflowError as exc:
        # Python float and complex powers raise where numpy would give inf.
        raise StepRejected(f"arithmetic overflow in step {k + 1}: {exc}") from exc
    return np.array(out, dtype=float)


def _step_count(dt, total):
    """The number of steps T / dt, which must be within 1e-9 (relative) of a whole number."""
    if not (0.0 < dt <= total and total / dt < math.inf):
        raise ValueError("need dt > 0, T >= dt and a finite T / dt")
    ratio = total / dt
    steps = round(ratio)
    if abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"need T / dt to be a whole number of steps, not {ratio:.12g}")
    return steps


def _guard_norm(norm, k):
    """StepRejected unless norm <= _BLOWUP_NORM, which a NaN norm fails too."""
    if not norm <= _BLOWUP_NORM:
        raise StepRejected(f"state norm {norm:g} beyond {_BLOWUP_NORM:g} at step {k}")


def _upstairs_parts(sign, grad):
    """Field and step guard of the flow whose vector field is omega @ grad(a).

    omega @ grad(a) is a signed permutation of the gradient.  The field
    takes the stage time, which it ignores, and the four coordinates as a
    sequence of floats, which it hands to grad; the guard takes them with
    the step number.
    """
    ps.check_sign(sign)
    s = 1.0 if sign == PLUS else -1.0
    ms = -s

    def field(t, a):
        g0, g1, g2, g3 = grad(a)
        return (-g1, g0, ms * g3, s * g2)

    def guard(a, k):
        x1, y1, x2, y2 = a
        _guard_norm(math.sqrt(sum((x1 * x1, y1 * y1, x2 * x2, y2 * y2))), k)

    return field, guard


def _upstairs_states(sign, grad, a0, dt, steps):
    """RK4 states of the flow whose vector field is omega @ grad(a)."""
    field, guard = _upstairs_parts(sign, grad)
    return _rk4(field, np.asarray(a0, dtype=float).tolist(), dt, steps, guard)


def flow_upstairs(sign, hamiltonian, a0, dt, total_time):
    """Hamiltonian flow from hamiltonian.grad; one hamiltonian.fn call on the states logs H."""
    steps = _step_count(dt, total_time)
    states = _upstairs_states(sign, hamiltonian.grad, a0, dt, steps)
    times = dt * np.arange(steps + 1)
    return Trajectory(times=times, states=states, conserved={"H": hamiltonian.fn(states)})


def _downstairs_parts(res, hamiltonian, p0, dt):
    """Field and step guard of mn grad G x grad H on the leaf through p0.

    G = x^2 + y^2 - K(C0, z) is the Kummer polynomial of that leaf, so C0 is
    solved once and mn grad G is the structure field on it.  The field
    takes the stage time and x, y, z as floats, and raises DomainExit at
    that time outside the structure domain; the guard takes (x, y, z) as a
    sequence with the step number, rejects a blown-up state, and raises
    DomainExit at its step time.
    """
    p0 = np.asarray(p0, dtype=float)
    inside = casimir.leaf_domain_test(res, _AXIS_MARGIN)
    if not inside(*p0.tolist()):
        raise OffDomain("initial point outside the structure domain")
    dk_dz = casimir._kummer_dz(res, casimir.solve_casimir(res, p0).value)
    mn = float(res.mn)
    two_mn, neg_mn = 2.0 * mn, -mn
    hx, hy, hz = hamiltonian.alpha, hamiltonian.beta, hamiltonian.gamma

    def field(t, x, y, z):
        if not inside(x, y, z):
            raise DomainExit(t)
        vx = two_mn * x
        vy = two_mn * y
        vz = neg_mn * dk_dz(z)
        return (vy * hz - vz * hy, vz * hx - vx * hz, vx * hy - vy * hx)

    def guard(p, k):
        x, y, z = p
        _guard_norm(abs(x) + abs(y) + abs(z), k)
        if not inside(x, y, z):
            raise DomainExit(k * dt)

    return field, guard


def _downstairs_states(res, hamiltonian, p0, dt, steps):
    """RK4 states of mn grad G x grad H from p0, with the domain and blowup guards."""
    field, guard = _downstairs_parts(res, hamiltonian, p0, dt)
    return _rk4(lambda t, p: field(t, *p), np.asarray(p0, dtype=float).tolist(), dt, steps, guard)


def flow_downstairs(res, hamiltonian, p0, dt, total_time):
    """Flow of v x grad H for the resonance structure (field m*n*leaf_field).

    The field solves the Casimir once, at p0; the C log solves it at every
    state, in one batch.  Leaving the structure domain raises DomainExit with
    the time of the offending stage or step rather than extrapolating.
    """
    steps = _step_count(dt, total_time)
    out = _downstairs_states(res, hamiltonian, p0, dt, steps)
    times = dt * np.arange(steps + 1)
    cvals = casimir.solve_casimir(res, out).value
    hvals = hamiltonian.value(out)
    return Trajectory(times=times, states=out, conserved={"C": cvals, "H": hvals})


def _joint_states(res, hamiltonian, grad, a0, dt, steps):
    """RK4 states (x1, y1, x2, y2, x, y, z) of both flows, one run from a0 and leaf_map(a0)."""
    up_field, up_guard = _upstairs_parts(res.sign, grad)
    p0 = rm.leaf_map(res, a0)
    down_field, down_guard = _downstairs_parts(res, hamiltonian, p0, dt)

    def rhs(t, y):
        x1, y1, x2, y2, x, yy, z = y
        return up_field(t, (x1, y1, x2, y2)) + down_field(t, x, yy, z)

    def accept(y, k):
        up_guard(y[:4], k)
        down_guard(y[4:], k)

    return _rk4(rhs, a0.tolist() + p0.tolist(), dt, steps, accept)


def pushforward_defect(res, hamiltonian, a0, dt, total_time):
    """Worst gap between reduced upstairs flow and the downstairs flow.

    Integrates the pulled-back Hamiltonian upstairs and the downstairs flow
    from the projected initial point as one 7-float state, pushes every
    upstairs state through the leaf map in one batch, and compares.  When
    the joint run raises, the upstairs flow runs alone first and raises its
    own error if it has one: the error is the one of running the upstairs
    flow to the end before the downstairs one.  Neither flow keeps a
    conserved-quantity log here.
    """
    a0 = np.asarray(a0, dtype=float)
    steps = _step_count(dt, total_time)
    grad = pullback(res, hamiltonian).grad
    try:
        states = _joint_states(res, hamiltonian, grad, a0, dt, steps)
    except ResdpError as exc:
        error = exc
    else:
        q = rm.leaf_map(res, states[:, :4])
        ok = casimir.in_leaf_domain(res, q, _AXIS_MARGIN)
        if not ok.all():
            raise DomainExit(dt * int(np.argmin(ok)))
        return float(np.max(np.abs(q - states[:, 4:])))
    _upstairs_states(res.sign, grad, a0, dt, steps)
    raise error


def conservation_report(res, a0, t_grid):
    """Max drift of (X, Y, Z, R) along the exact circle flow over a time grid.

    Broadcasts over start points a0 of shape (..., 4); every entry then has
    the leading shape of a0.
    """
    a0 = np.asarray(a0, dtype=float)
    t = np.reshape(np.asarray(t_grid, dtype=float), (-1,) + (1,) * (a0.ndim - 1))

    def invariants(a):
        return np.concatenate([rm.leaf_map(res, a), rm.circle_momentum(res, a)[..., None]],
                              axis=-1)

    worst = np.max(np.abs(invariants(circle_flow(res, a0, t)) - invariants(a0)),
                   axis=0, initial=0.0)
    return {"dX": worst[..., 0], "dY": worst[..., 1], "dZ": worst[..., 2],
            "dR": worst[..., 3], "max": np.max(worst, axis=-1)}
