"""Numerical certification of the dual-pair condition and leaf correspondence.

At every admissible phase point the kernel of the circle-momentum
differential must be the symplectic orthogonal of the kernel of the leaf-map
differential.  Both kernels are computable in closed form:

    ker d(circle_momentum) = (n a1, m a2)-perp            (plus)
                             (n a1, -m a2)-perp           (minus)
    ker d(leaf_map)        = span of (i n a1, i m a2)

and the certification compares the first against the symplectic orthogonal
of the second through orthogonal projectors, plus direct annihilation
residuals.
"""

import numpy as np

from . import phase_space as ps
from . import casimir, resonance_maps as rm
from .errors import EmptyFiber, OffDomain, ZeroPoint
from .phase_space import PLUS


def momentum_kernel_basis(res, a):
    """Orthonormal basis (3 rows) of ker d(circle_momentum) at a.

    This is the Euclidean complement of the analytic momentum gradient.
    """
    a = np.asarray(a, dtype=float)
    grad = rm.circle_momentum_gradient(res, a)
    if np.linalg.norm(grad) == 0.0:
        raise ZeroPoint("momentum differential vanishes only at the origin")
    u, s, vt = np.linalg.svd(grad.reshape(1, 4))
    return vt[1:]


def leaf_map_kernel(res, a):
    """Unit vector spanning ker d(leaf_map) at a (the circle-orbit tangent)."""
    k = rm.circle_generator(res, a)
    return k / np.linalg.norm(k)


def _fd_momentum_differential(res, a, u):
    """Central difference of circle_momentum along u.

    The momentum is quadratic, so the central difference carries no
    truncation error at any step; a wide step keeps the rounding noise
    (about eps * R / h, with h = 1e-3 (1 + |a|)) far below the dual-pair
    tolerance.
    """
    a = np.asarray(a, dtype=float)
    u = np.asarray(u, dtype=float)
    h = 1e-3 * (1.0 + np.linalg.norm(a))
    return (rm.circle_momentum(res, a + h * u) - rm.circle_momentum(res, a - h * u)) / (2.0 * h)


def dual_pair_defect(res, a):
    """(kernel_residual, subspace_distance) at an in-domain point.

    kernel_residual is the worst annihilation defect of the two closed-form
    kernels, checked against both analytic and finite-difference
    differentials.  subspace_distance compares the momentum kernel with the
    symplectic orthogonal of the leaf-map kernel as projectors.
    """
    a = np.asarray(a, dtype=float)
    if not rm.in_domain(res, a):
        raise OffDomain(f"point outside the {res.sign} dual-pair domain")
    r_basis = momentum_kernel_basis(res, a)
    k = leaf_map_kernel(res, a)
    jac = rm.leaf_map_jacobian(res, a)
    grad = rm.circle_momentum_gradient(res, a)

    residual = float(np.max(np.abs(jac @ k)))
    for b in r_basis:
        residual = max(residual, abs(float(grad @ b)))
        residual = max(residual, abs(_fd_momentum_differential(res, a, b)))

    omega_complement = ps.symplectic_orthogonal(res.sign, [k])
    distance = ps.subspace_distance(r_basis, omega_complement)
    return residual, distance


def minus_fiber_s_max(res, c):
    """Largest |a2|^2 admissible on the momentum-c fiber of the open domain.

    For n >= m every s > 0 works (the excluded ratio band sits at momentum
    <= 0).  For n < m the admissible set is an interval (0, s_max) computed
    here by bisection on the domain inequality.
    """
    if c <= 0.0:
        raise ValueError("needs a positive fiber level")
    if res.n >= res.m:
        return np.inf

    def inside(w):
        u = 2.0 * c + w
        return u ** res.m * w ** res.n < (0.5 * (u + w)) ** (res.n + res.m)

    hi = 1.0
    while inside(hi):
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            # lo and hi are adjacent floats: no further step moves them.
            break
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo / res.m


def fiber_sample(res, c, count, seed=42):
    """Draw `count` phase points on the momentum fiber {circle_momentum = c}.

    Plus: the fiber is an ellipsoid-like 3-sphere; the two moduli are split
    by t uniform in (0.05, 0.95) with independent uniform phases.  Minus:
    |a2|^2 is drawn uniform on (0.1, 4.0) and the draw is rejected against the
    open dual-pair domain; when n < m the admissible s interval on a c > 0
    fiber is bounded and the window is clipped to it (shrunk into it when
    the default window misses it entirely).  For c > 0 every minus sample
    also lies in the positive-momentum part of the domain.
    """
    rng = np.random.default_rng(seed)
    if res.sign == PLUS:
        if c <= 0.0:
            raise EmptyFiber("positive-signature fibers need c > 0")
        t = rng.uniform(0.05, 0.95, size=count)
        r1 = 2.0 * c * t / res.n
        r2 = 2.0 * c * (1.0 - t) / res.m
        ph1 = rng.uniform(0.0, 2.0 * np.pi, size=count)
        ph2 = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return ps.from_complex(np.sqrt(r1) * np.exp(1j * ph1),
                               np.sqrt(r2) * np.exp(1j * ph2))
    s_lo, s_hi = 0.1, 4.0
    if res.n < res.m and c > 0.0:
        s_max = minus_fiber_s_max(res, c)
        if s_max <= s_lo:
            s_lo, s_hi = 0.02 * s_max, 0.98 * s_max
        else:
            s_hi = min(s_hi, 0.999 * s_max)
    samples = []
    attempts = 0
    max_attempts = max(1000, 200 * count)
    while len(samples) < count:
        attempts += 1
        if attempts > max_attempts:
            raise EmptyFiber(f"rejection sampling found {len(samples)}/{count} "
                             f"points on the fiber c={c}")
        s = rng.uniform(s_lo, s_hi)
        r1 = (2.0 * c + res.m * s) / res.n
        if r1 <= 0.0:
            continue
        ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        a = ps.from_complex(np.sqrt(r1) * np.exp(1j * ph1),
                            np.sqrt(s) * np.exp(1j * ph2))
        if rm.in_domain(res, a):
            samples.append(a)
    return np.array(samples)


def leaf_correspondence_check(res, c, count, seed=42):
    """Max |Casimir(leaf_map(a)) - c| over fiber samples at level c > 0.

    The correspondence sends the momentum level c to the Kummer shape at
    Casimir level c; for the unbounded family only positive levels are
    checked (the Casimir composed with the leaf map recovers |c|, not c,
    on negative-momentum fibers of the 1:-1 case).
    """
    if c <= 0.0:
        raise ValueError("leaf correspondence is checked for c > 0 only")
    points = fiber_sample(res, c, count, seed=seed)
    worst = 0.0
    for a in points:
        p = rm.leaf_map(res, a)
        worst = max(worst, abs(casimir.solve_casimir(res, p).value - c))
    return {"resonance": (res.n, res.m, res.sign), "c": c,
            "samples": len(points), "seed": seed, "max_deviation": worst}
