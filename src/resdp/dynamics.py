"""Hamiltonian flows on C^2 and on the reduced space, with bracket oracles.

The canonical bracket convention is pinned per complex plane by
{|a1|^2, a1} = 2i a1; the second plane enters with the same sign for "plus"
and the opposite sign for "minus".  The Hamiltonian vector field is the one
with d/dt F = {H, F}, under which the circle momentum generates exactly the
resonant circle action (e^{i n t} a1, e^{i m t} a2) for both signatures.

Every flow runs through one integration loop, _integrate, on a tuple of
Python floats, and each flow writes out its own classical 4th-order Runge-Kutta
step on its floats, so a stage makes no numpy call and builds no list; the
upstairs field is a signed permutation of the gradient.  Each flow's field
and step guard are built once per run.  The pushforward check integrates
both flows as one 7-float state (x1, y1, x2, y2, x, y, z): the state is
block-diagonal, so its step is the upstairs step followed by the
downstairs one, and each component keeps its float operations.  The public
flows measure conservation, never assume it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import casimir, phase_space as ps, resonance_maps as rm
from .errors import DomainExit, OffDomain, ResdpError, StepRejected
from .phase_space import PLUS
from .poisson3 import ScalarField

_BLOWUP_NORM = 1e6
# A run keeps every state, about 260 B a step, so 10^6 steps hold about 260 MB.
_MAX_STEPS = 10 ** 6
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


def _integrate(step, y0, steps):
    """The one integration loop: the states y0, step(1, *y0), ... as a (steps + 1, d) array.

    step(k, *y) takes the state after step k - 1 as floats, returns the one
    after step k and raises to reject it.  Each flow writes out its own RK4
    step, so every component sees the operations of y + (dt/6)(k1 + 2 k2 +
    2 k3 + k4).  An OverflowError inside a step becomes StepRejected.
    """
    out = [y0]
    y = y0
    k = 0
    try:
        for k in range(1, steps + 1):
            y = step(k, *y)
            out.append(y)
    except OverflowError as exc:
        # Python float and complex powers raise where numpy would give inf.
        raise StepRejected(f"arithmetic overflow in step {k}: {exc}") from exc
    return np.array(out, dtype=float)


def _step_count(dt, total):
    """The number of steps T / dt: within 1e-9 (relative) of a whole number, at most _MAX_STEPS."""
    if not (0.0 < dt <= total and total / dt < math.inf):
        raise ValueError("need dt > 0, T >= dt and a finite T / dt")
    ratio = total / dt
    steps = round(ratio)
    if abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"need T / dt to be a whole number of steps, not {ratio:.12g}")
    if steps > _MAX_STEPS:
        raise ValueError(f"need at most {_MAX_STEPS} steps, not {steps}")
    return steps


def _guard_norm(norm, k):
    """StepRejected unless norm <= _BLOWUP_NORM, which a NaN norm fails too."""
    if not norm <= _BLOWUP_NORM:
        raise StepRejected(f"state norm {norm:g} beyond {_BLOWUP_NORM:g} at step {k}")


def _upstairs_step(sign, grad, dt):
    """RK4 step of the flow whose vector field is omega @ grad(a), for _integrate.

    omega @ grad(a) is the signed permutation (-g1, g0, -/+ g3, +/- g2) of
    the gradient, which grad returns for the four coordinates as a tuple of
    floats.  The step rejects a state whose norm passes _BLOWUP_NORM.
    """
    ps.check_sign(sign)
    s = 1.0 if sign == PLUS else -1.0
    ms = -s
    half, sixth = 0.5 * dt, dt / 6.0

    def step(k, x1, y1, x2, y2):
        g0, g1, g2, g3 = grad((x1, y1, x2, y2))
        a0, a1, a2, a3 = -g1, g0, ms * g3, s * g2
        g0, g1, g2, g3 = grad((x1 + half * a0, y1 + half * a1, x2 + half * a2, y2 + half * a3))
        b0, b1, b2, b3 = -g1, g0, ms * g3, s * g2
        g0, g1, g2, g3 = grad((x1 + half * b0, y1 + half * b1, x2 + half * b2, y2 + half * b3))
        c0, c1, c2, c3 = -g1, g0, ms * g3, s * g2
        g0, g1, g2, g3 = grad((x1 + dt * c0, y1 + dt * c1, x2 + dt * c2, y2 + dt * c3))
        x1 = x1 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 - g1)
        y1 = y1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + g0)
        x2 = x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + ms * g3)
        y2 = y2 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + s * g2)
        _guard_norm(math.sqrt(sum((x1 * x1, y1 * y1, x2 * x2, y2 * y2))), k)
        return x1, y1, x2, y2

    return step


def flow_upstairs(sign, hamiltonian, a0, dt, total_time):
    """Hamiltonian flow from hamiltonian.grad; one hamiltonian.fn call on the states logs H."""
    steps = _step_count(dt, total_time)
    states = _integrate(_upstairs_step(sign, hamiltonian.grad, dt),
                        np.asarray(a0, dtype=float).tolist(), steps)
    times = dt * np.arange(steps + 1)
    return Trajectory(times=times, states=states, conserved={"H": hamiltonian.fn(states)})


def _downstairs_field(res, hamiltonian, p0):
    """The field mn grad G x grad H on the leaf through p0, and the domain test.

    G = x^2 + y^2 - K(C0, z) is the Kummer polynomial of that leaf, so C0 is
    solved once and mn grad G is the structure field on it.  The field
    takes the stage time and x, y, z as floats, and raises DomainExit at
    that time outside the structure domain.
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
        return vy * hz - vz * hy, vz * hx - vx * hz, vx * hy - vy * hx

    return field, inside


def _downstairs_step(res, hamiltonian, p0, dt):
    """RK4 step of the downstairs flow from p0, for _integrate.

    The step rejects a blown-up state and raises DomainExit at the time of
    the stage or the step that leaves the structure domain.
    """
    field, inside = _downstairs_field(res, hamiltonian, p0)
    half, sixth = 0.5 * dt, dt / 6.0

    def step(k, x, y, z):
        t = (k - 1) * dt
        ax, ay, az = field(t, x, y, z)
        bx, by, bz = field(t + half, x + half * ax, y + half * ay, z + half * az)
        cx, cy, cz = field(t + half, x + half * bx, y + half * by, z + half * bz)
        dx, dy, dz = field(k * dt, x + dt * cx, y + dt * cy, z + dt * cz)
        x = x + sixth * (ax + 2.0 * bx + 2.0 * cx + dx)
        y = y + sixth * (ay + 2.0 * by + 2.0 * cy + dy)
        z = z + sixth * (az + 2.0 * bz + 2.0 * cz + dz)
        _guard_norm(abs(x) + abs(y) + abs(z), k)
        if not inside(x, y, z):
            raise DomainExit(k * dt)
        return x, y, z

    return step


def flow_downstairs(res, hamiltonian, p0, dt, total_time):
    """Flow of v x grad H for the resonance structure (field m*n*leaf_field).

    The field solves the Casimir once, at p0; the C log solves it at every
    state, in one batch.  Leaving the structure domain raises DomainExit with
    the time of the offending stage or step rather than extrapolating.
    """
    steps = _step_count(dt, total_time)
    out = _integrate(_downstairs_step(res, hamiltonian, p0, dt),
                     np.asarray(p0, dtype=float).tolist(), steps)
    times = dt * np.arange(steps + 1)
    cvals = casimir.solve_casimir(res, out).value
    hvals = hamiltonian.value(out)
    return Trajectory(times=times, states=out, conserved={"C": cvals, "H": hvals})


def pushforward_defect(res, hamiltonian, a0, dt, total_time):
    """Worst gap between reduced upstairs flow and the downstairs flow.

    Integrates the pulled-back Hamiltonian upstairs and the downstairs flow
    from the projected initial point as one 7-float state, whose step is
    the upstairs step followed by the downstairs one, pushes every upstairs
    state through the leaf map in one batch, and compares.  When the joint
    run raises, the upstairs flow runs alone first and raises its own error
    if it has one: the error is the one of running the upstairs flow to the
    end before the downstairs one.  Neither flow keeps a conserved-quantity
    log here.
    """
    a0 = np.asarray(a0, dtype=float)
    steps = _step_count(dt, total_time)
    up = _upstairs_step(res.sign, pullback(res, hamiltonian).grad, dt)
    try:
        p0 = rm.leaf_map(res, a0)
        down = _downstairs_step(res, hamiltonian, p0, dt)

        def step(k, x1, y1, x2, y2, x, y, z):
            return up(k, x1, y1, x2, y2) + down(k, x, y, z)

        states = _integrate(step, a0.tolist() + p0.tolist(), steps)
    except ResdpError as exc:
        error = exc
    else:
        q = rm.leaf_map(res, states[:, :4])
        ok = casimir.in_leaf_domain(res, q, _AXIS_MARGIN)
        if not ok.all():
            raise DomainExit(dt * int(np.argmin(ok)))
        return float(np.max(np.abs(q - states[:, 4:])))
    _integrate(up, a0.tolist(), steps)
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
