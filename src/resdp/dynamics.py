"""Hamiltonian flows on C^2 and on the reduced space, with bracket oracles.

The canonical bracket convention is pinned per complex plane by
{|a1|^2, a1} = 2i a1; the second plane enters with the same sign for "plus"
and the opposite sign for "minus".  The Hamiltonian vector field is the one
with d/dt F = {H, F}, under which the circle momentum generates exactly the
resonant circle action (e^{i n t} a1, e^{i m t} a2) for both signatures.

Both flows run through one classical 4th-order Runge-Kutta loop on a list
of Python floats, so a stage makes no numpy call; the upstairs field is a
signed permutation of the gradient.  The public flows measure conservation,
never assume it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import casimir, phase_space as ps, resonance_maps as rm
from .errors import DomainExit, OffDomain, StepRejected
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
    gz1 = gamma * n
    gz2 = -gamma * m if res.sign == PLUS else gamma * m

    def grad(a):
        x1, y1, x2, y2 = a
        a1 = complex(x1, y1)
        c2 = complex(x2, -y2)
        pa = m * a1 ** (m - 1) * c2 ** n
        pb = n * a1 ** m * c2 ** (n - 1)
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
    out = np.empty((steps + 1, len(y0)))
    out[0] = y0
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
            out[k + 1] = y
    except OverflowError as exc:
        # Python float and complex powers raise where numpy would give inf.
        raise StepRejected(f"arithmetic overflow in step {k + 1}: {exc}") from exc
    return out


def _step_count(dt, total):
    if not (0.0 < dt <= total and total / dt < math.inf):
        raise ValueError("need dt > 0, T >= dt and a finite T / dt")
    return int(round(total / dt))


def _guard_norm(norm, k):
    """StepRejected unless norm <= _BLOWUP_NORM, which a NaN norm fails too."""
    if not norm <= _BLOWUP_NORM:
        raise StepRejected(f"state norm {norm:g} beyond {_BLOWUP_NORM:g} at step {k}")


def _upstairs_states(sign, grad, a0, dt, steps):
    """RK4 states of the flow whose vector field is omega @ grad(a), a signed permutation."""
    ps.check_sign(sign)
    s = 1.0 if sign == PLUS else -1.0

    def rhs(t, a):
        g0, g1, g2, g3 = grad(a)
        return (-g1, g0, -s * g3, s * g2)

    def accept(a, k):
        _guard_norm(math.sqrt(sum(u * u for u in a)), k)

    return _rk4(rhs, np.asarray(a0, dtype=float).tolist(), dt, steps, accept)


def flow_upstairs(sign, hamiltonian, a0, dt, total_time):
    """Hamiltonian flow from hamiltonian.grad; one hamiltonian.fn call on the states logs H."""
    steps = _step_count(dt, total_time)
    states = _upstairs_states(sign, hamiltonian.grad, a0, dt, steps)
    times = dt * np.arange(steps + 1)
    return Trajectory(times=times, states=states, conserved={"H": hamiltonian.fn(states)})


def _downstairs_states(res, hamiltonian, p0, dt, steps):
    """RK4 states of mn grad G x grad H from p0, with the domain and blowup guards.

    G = x^2 + y^2 - K(C0, z) is the Kummer polynomial of the leaf through p0,
    so C0 is solved once and mn grad G is the structure field on that leaf.
    """
    p0 = np.asarray(p0, dtype=float)
    if not casimir.in_leaf_domain(res, p0, _AXIS_MARGIN):
        raise OffDomain("initial point outside the structure domain")
    c0 = casimir.solve_casimir(res, p0).value
    mn = float(res.mn)
    hx, hy, hz = hamiltonian.alpha, hamiltonian.beta, hamiltonian.gamma

    def rhs(t, p):
        if not casimir.in_leaf_domain(res, p, _AXIS_MARGIN):
            raise DomainExit(t)
        x, y, z = p
        vx = 2.0 * mn * x
        vy = 2.0 * mn * y
        vz = -mn * casimir._kummer_dz(res, c0, z)
        return (vy * hz - vz * hy, vz * hx - vx * hz, vx * hy - vy * hx)

    def accept(p, k):
        _guard_norm(abs(p[0]) + abs(p[1]) + abs(p[2]), k)
        if not casimir.in_leaf_domain(res, p, _AXIS_MARGIN):
            raise DomainExit(k * dt)

    return _rk4(rhs, p0.tolist(), dt, steps, accept)


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


def pushforward_defect(res, hamiltonian, a0, dt, total_time):
    """Worst gap between reduced upstairs flow and the downstairs flow.

    Integrates the pulled-back Hamiltonian upstairs, pushes every state
    through the leaf map in one batch, and compares with the downstairs
    trajectory from the projected initial point.  Neither flow keeps a
    conserved-quantity log here.
    """
    a0 = np.asarray(a0, dtype=float)
    steps = _step_count(dt, total_time)
    up = _upstairs_states(res.sign, pullback(res, hamiltonian).grad, a0, dt, steps)
    down = _downstairs_states(res, hamiltonian, rm.leaf_map(res, a0), dt, steps)
    q = rm.leaf_map(res, up)
    ok = casimir.in_leaf_domain(res, q, _AXIS_MARGIN)
    if not ok.all():
        raise DomainExit(dt * int(np.argmin(ok)))
    return float(np.max(np.abs(q - down)))


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
