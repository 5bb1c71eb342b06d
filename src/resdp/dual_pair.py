"""Numerical certification of the dual-pair condition and leaf correspondence.

At every admissible phase point the kernel of the circle-momentum
differential must be the symplectic orthogonal of the kernel of the leaf-map
differential.  Both are complements of one vector:

    ker d(circle_momentum) = (grad R)-perp,   grad R = (n a1, +-m a2)
    ker d(leaf_map)        = span{k},         k = (i n a1, i m a2)
    span{k}^omega          = (W k)-perp,      since form(u, k) = u @ W @ k

with W the matrix of the symplectic form.  Their orthogonal projectors are
I - g g^T and I - w w^T, with g and w the unit normals, so the max-norm
projector distance is exactly max|w w^T - g g^T|: (I - A) - (I - B) = B - A.
No SVD or rank decision enters; both normals are nonzero on the domain
(off the axes), and a unit normal fixes its projector whatever its sign.
In exact arithmetic W k = -grad R (R generates the circle action), so the
distance is the rounding of the two normalizations.  The kernel residual
checks the closed forms independently: d(leaf_map) must annihilate k, and
the analytic and finite-difference dR an orthonormal basis of (grad R)-perp.
Every function here works on batches of points.
"""

import numpy as np

from . import phase_space as ps
from . import casimir, resonance_maps as rm
from .errors import EmptyFiber, OffDomain, ZeroPoint
from .phase_space import PLUS


def momentum_kernel_basis(res, a):
    """Orthonormal basis of ker d(circle_momentum), shape (..., 3, 4).

    The Euclidean complement of the analytic momentum gradient, from one
    stacked SVD of the gradients as 1x4 matrices.
    """
    grad = rm.circle_momentum_gradient(res, a)
    if np.any(np.all(grad == 0.0, axis=-1)):
        raise ZeroPoint("momentum differential vanishes only at the origin")
    return np.linalg.svd(grad[..., None, :])[2][..., 1:, :]


def _fd_momentum_differential(res, a, u):
    """Central difference of circle_momentum at points a along directions u.

    The momentum is quadratic, so the central difference carries no
    truncation error at any step; a wide step keeps the rounding noise
    (about eps * R / h, with h = 1e-3 (1 + |a|)) far below the dual-pair
    tolerance.
    """
    h = 1e-3 * (1.0 + np.linalg.norm(a, axis=-1))
    step = h[..., None] * u
    return (rm.circle_momentum(res, a + step) - rm.circle_momentum(res, a - step)) / (2.0 * h)


def dual_pair_defect(res, a):
    """(kernel_residual, subspace_distance) at in-domain points a of shape (k, 4).

    Returns two length-k arrays.  kernel_residual is the worst annihilation
    defect of the two closed-form kernels at each point, checked against both
    analytic and finite-difference differentials.  subspace_distance is the
    max-norm distance of the projectors onto the momentum kernel and onto the
    symplectic orthogonal of the leaf-map kernel.  Raises OffDomain when any
    point lies outside the dual-pair domain.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(rm.in_domain(res, a)):
        raise OffDomain(f"point outside the {res.sign} dual-pair domain")
    k = rm.circle_generator(res, a)
    k = k / np.linalg.norm(k, axis=-1, keepdims=True)
    grad = rm.circle_momentum_gradient(res, a)
    basis = momentum_kernel_basis(res, a)
    leaf = rm.leaf_map_jacobian(res, a) @ k[..., None]
    residual = np.max(np.abs(np.concatenate([
        leaf[..., 0],
        (basis @ grad[..., None])[..., 0],
        _fd_momentum_differential(res, a[..., None, :], basis)], axis=-1)), axis=-1)

    g = grad / np.linalg.norm(grad, axis=-1, keepdims=True)
    w = ps.symplectic_normal(res.sign, k)
    distance = np.max(np.abs(w[..., :, None] * w[..., None, :]
                             - g[..., :, None] * g[..., None, :]), axis=(-2, -1))
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
    also lies in the positive-momentum part of the domain; for c <= 0 a draw
    with |a1|^2 <= 0 is rejected too.  Minus draws are taken in blocks of the
    points still needed, up to 200 * count (at least 1000) draws.
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
    # Each draw takes three uniforms (s and two phases), scaled as
    # rng.uniform scales them, so a block of draws gives the points of the
    # same draws taken one at a time.
    blocks = [np.empty((0, 4))]
    found = drawn = 0
    max_attempts = max(1000, 200 * count)
    while found < count:
        size = min(count - found, max_attempts - drawn)
        if size == 0:
            raise EmptyFiber(f"rejection sampling found {found}/{count} "
                             f"points on the fiber c={c}")
        u = rng.random((size, 3))
        drawn += size
        s = s_lo + (s_hi - s_lo) * u[:, 0]
        r1 = (2.0 * c + res.m * s) / res.n
        ph = 2.0 * np.pi * u[:, 1:]
        if c <= 0.0:
            # Only a level c <= 0 leaves |a1|^2 = r1 <= 0 for some s.
            keep = r1 > 0.0
            s, r1, ph = s[keep], r1[keep], ph[keep]
        a = ps.from_complex(np.sqrt(r1) * np.exp(1j * ph[:, 0]),
                            np.sqrt(s) * np.exp(1j * ph[:, 1]))
        a = a[rm.in_domain(res, a)]
        blocks.append(a)
        found += len(a)
    return np.concatenate(blocks)[:count]


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
    value = casimir.solve_casimir(res, rm.leaf_map(res, points)).value
    worst = float(np.max(np.abs(value - c), initial=0.0))
    return {"resonance": (res.n, res.m, res.sign), "c": c,
            "samples": len(points), "seed": seed, "max_deviation": worst}
