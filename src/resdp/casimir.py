"""Implicit Casimir functions of the Kummer shape families.

The bounded family is the zero set of

    x^2 + y^2 - ((r + z)/n)^m ((r - z)/m)^n,   |z| < r,

solved for r on (|z|, inf); the unbounded family is the zero set of

    x^2 + y^2 - ((z + r)/n)^m ((z - r)/m)^n,   r < |z|,

solved for r on (0, |z|), which requires the point to satisfy the open
condition n^m m^n (x^2 + y^2) < z^(n+m).  In both cases the defining
polynomial has a single simple root in the bracket, so bisection is always
correct and Newton steps only accelerate the endgame.

One array Newton-bisection solves every point: a batch of k points runs
it on k rows, and a single point is a one-row batch.  The solver is
deterministic, and each row's float operations do not depend on the other
rows, so a point's bits are the same alone and in any batch.
"""

from dataclasses import dataclass

import numpy as np

from . import phase_space as ps
from .errors import NoConvergence, OffDomain
from .phase_space import PLUS, int_pow

_MAX_ITER = 200
_WIDTH_TOL = 1e-14


@dataclass(frozen=True)
class CasimirEval:
    """Casimir value at a point with its gradient and solver diagnostics."""

    value: float
    gradient: np.ndarray
    iterations: int
    residual: float


def kummer_product(res, c, z):
    """The Kummer product at level c and height z; broadcasts over c and z.

    ((c+z)/n)^m ((c-z)/m)^n for the bounded family, ((z+c)/n)^m ((z-c)/m)^n
    for the unbounded one.  A point (x, y, z) lies on the shape at level c
    exactly when x^2 + y^2 equals this product.
    """
    fb = c - z if res.sign == PLUS else z - c
    return int_pow((c + z) / res.n, res.m) * int_pow(fb / res.m, res.n)


def in_leaf_domain(res, p, axis_margin=0.0, bound_margin=1.0):
    """Whether the Casimir of the given resonance is defined at p.

    The inequality is leaf_domain_test(res, axis_margin, bound_margin).
    Points of shape (k, 3) and up are checked elementwise; a single point is
    unpacked as it comes, a 1-D array through tolist().
    """
    if isinstance(p, np.ndarray):
        x, y, z = np.moveaxis(p, -1, 0) if p.ndim > 1 else p.tolist()
    else:
        x, y, z = p
    return leaf_domain_test(res, axis_margin, bound_margin)(x, y, z)


def leaf_domain_test(res, axis_margin=0.0, bound_margin=1.0):
    """The leaf-domain inequality as a function inside(x, y, z) of floats or arrays.

    Off the z axis: x^2 + y^2 > tau^2 with tau = axis_margin (1 + |x| + |y|
    + |z|).  The unbounded family also needs n^m m^n (x^2 + y^2) <
    bound_margin z^(n+m).  The per-resonance constants are computed here, so
    a loop that builds the test once pays only the arithmetic per point.
    """
    if res.sign == PLUS:
        def inside(x, y, z):
            tau = axis_margin * (1.0 + abs(x) + abs(y) + abs(z))
            return x * x + y * y > tau * tau
        return inside
    scale = float(res.n ** res.m * res.m ** res.n)
    order = res.n + res.m

    def inside(x, y, z):
        rho2 = x * x + y * y
        tau = axis_margin * (1.0 + abs(x) + abs(y) + abs(z))
        return (rho2 > tau * tau) & (scale * rho2 < bound_margin * _powi(z, order))
    return inside


def _powi(x, k):
    out = 1.0
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


def _eval(n, m, sm, rho2, z, r):
    """Value and r-derivative of the Kummer product at level r, minus rho2.

    sm is m for the bounded family and -m for the unbounded one, which turns
    (r-z)/m into (z-r)/m.
    """
    fa = (r + z) / n
    fb = (r - z) / sm
    fa1 = _powi(fa, m - 1)
    fb1 = _powi(fb, n - 1)
    val = fa1 * fa * fb1 * fb - rho2
    dval = fa1 * fb1 * (m * fb / n + n * fa / sm)
    return val, dval


def _kummer_dz(res, c):
    """dK/dz of the Kummer product at level c, as a function of the height z.

    It is _eval with level and height swapped.
    """
    n, m = res.n, res.m
    sm = -m if res.sign == PLUS else m
    return lambda z: _eval(n, m, sm, 0.0, c, z)[1]


def kummer_second_derivatives(res, k, c, z):
    """(K_zz, K_zc) of the Kummer product K, given its value k at level c and height z.

    With a = c + z and b = c - z, both families have K_z = K (m/a - n/b)
    and K_c = K (m/a + n/b), so

        K_zz = K (m(m-1)/a^2 - 2mn/(ab) + n(n-1)/b^2),
        K_zc = K (m(m-1)/a^2 - n(n-1)/b^2).

    Broadcasts over k, c and z.
    """
    a, b = c + z, c - z
    ta = res.m * (res.m - 1) / (a * a)
    tb = res.n * (res.n - 1) / (b * b)
    return k * (ta - 2.0 * res.mn / (a * b) + tb), k * (ta - tb)


def _newton_bisect_rows(n, m, sm, rho2, z, lo, hi):
    """Bracketed Newton with bisection fallback, on arrays of brackets.

    Each row holds a single simple root.  Its bracket is kept from the sign
    of the residual; a Newton candidate is taken only when it lands strictly
    inside the bracket.  A row stops when its bracket width passes tolerance
    or its Newton step falls below float resolution, and leaves the active
    set; the rest go on.  The root is increasing in the residual's sign
    exactly when sm > 0.
    """
    value = np.empty_like(lo)
    iterations = np.empty(len(lo), dtype=np.int64)
    rows = np.arange(len(lo))
    r = 0.5 * (lo + hi)
    for it in range(1, _MAX_ITER + 1):
        val, dval = _eval(n, m, sm, rho2, z, r)
        below = (val < 0.0) if sm > 0 else (val > 0.0)
        lo = np.where(below, r, lo)
        hi = np.where(below, hi, r)
        slope = dval != 0.0
        candidate = r - val / np.where(slope, dval, 1.0)
        done = (val == 0.0) | (hi - lo < _WIDTH_TOL * (1.0 + r)) | (slope & (candidate == r))
        value[rows[done]] = r[done]
        iterations[rows[done]] = it
        r = np.where(slope & (lo < candidate) & (candidate < hi), candidate, 0.5 * (lo + hi))
        more = ~done
        if not more.any():
            return value, iterations
        rows, r, lo, hi, rho2, z = rows[more], r[more], lo[more], hi[more], rho2[more], z[more]
    raise NoConvergence(f"no root to width tolerance after {_MAX_ITER} iterations")


def _solve_plus_rows(n, m, rho2, z, shape):
    """Bounded family: bracket every root on (|z|, inf), then one Newton-bisection.

    shape is the caller's batch shape of the rows, which a pinched root's
    error names: no row for a single point.
    """
    az = np.abs(z)
    lo = az * (1.0 + 1e-12) + 1e-300
    # A root pinched between |z| and lo has its left endpoint tightened.  At
    # lo == |z| the product is 0 and the residual -rho2 < 0, so the loop can
    # only run out where the product overflows there (inf * 0 = nan).
    pinched = _eval(n, m, m, rho2, z, lo)[0] >= 0.0
    hi = np.where(pinched, lo, np.maximum(az + 1.0, 2.0 * lo))
    tight = np.flatnonzero(pinched)
    for _ in range(64):
        if not tight.size:
            break
        lo[tight] = az[tight] + (lo[tight] - az[tight]) / 16.0
        tight = tight[~(_eval(n, m, m, rho2[tight], z[tight], lo[tight])[0] < 0.0)]
        hi[tight] = lo[tight]
    pinched = np.zeros(len(z), dtype=bool)
    pinched[tight] = True
    ps.raise_on_first(pinched.reshape(shape), NoConvergence,
                      "root{row} pinched against |z| = {:.6g}, where the Kummer product "
                      "overflows", az.reshape(shape))
    grow = np.flatnonzero(~pinched)
    for doublings in range(1, 302):
        grow = grow[_eval(n, m, m, rho2[grow], z[grow], hi[grow])[0] <= 0.0]
        if not grow.size:
            break
        if doublings > 300:
            raise NoConvergence("upper bracket search failed")
        hi[grow] *= 2.0
    return _newton_bisect_rows(n, m, m, rho2, z, lo, hi)


def _solve_rows(res, rho2, z):
    """Roots and iteration counts, one row per point, at points (rho2, z) of any batch shape."""
    shape = np.shape(z)
    rho2, z = np.ravel(rho2), np.ravel(z)
    if res.sign == PLUS:
        return _solve_plus_rows(res.n, res.m, rho2, z, shape)
    return _newton_bisect_rows(res.n, res.m, -res.m, rho2, z, np.zeros_like(z), np.abs(z))


def solve_casimir(res, p):
    """Casimir value, gradient, and diagnostics at a leaf point or a batch of them.

    A batch (shape (..., 3)) returns value and residual of shape (...,), the
    gradient (..., 3), and its iterations summed over the rows.  A single
    point (shape (3,)) is a one-row batch: it returns a float value and
    residual, a (3,) gradient and an int iteration count, and costs about
    0.25-0.36 ms against under 0.5 us a row in a batch of 10^4, so callers
    with many points solve them together.  Raises OffDomain, naming the
    first bad row of a batch, when a point is on the z axis (either family),
    outside the open set of the unbounded family, or where x^2 + y^2
    overflows.
    """
    p = np.asarray(p, dtype=float)
    rows = p.reshape(-1, 3)
    x, y, z = rows.T
    sm = res.m if res.sign == PLUS else -res.m
    with np.errstate(all="ignore"):
        # Overflow goes to inf and nan silently: an overflowing x^2 + y^2 is
        # refused here, and the residual shows the rest.
        rho2 = x * x + y * y
        coords = np.moveaxis(p, -1, 0)
        ps.raise_on_first(np.logical_not(in_leaf_domain(res, p)), OffDomain,
                          "point ({}, {}, {}){row} outside the %s Casimir domain" % res.sign,
                          *coords)
        ps.raise_on_first(~np.isfinite(rho2).reshape(p.shape[:-1]), OffDomain,
                          "point ({}, {}, {}){row} where x^2 + y^2 overflows", *coords)
        value, iterations = _solve_rows(res, rho2.reshape(p.shape[:-1]), z.reshape(p.shape[:-1]))
        residual = np.abs(_eval(res.n, res.m, sm, rho2, z, value)[0])
        gradient = gradient_on_level(res, rows, value)
    if p.ndim == 1:
        return CasimirEval(value=float(value[0]), gradient=gradient[0],
                           iterations=int(iterations[0]), residual=float(residual[0]))
    return CasimirEval(value=value.reshape(p.shape[:-1]), gradient=gradient.reshape(p.shape),
                       iterations=int(iterations.sum()), residual=residual.reshape(p.shape[:-1]))


def field_on_level(res, p, c):
    """leaf_field at points p (..., 3) of the level set c, without a solve; broadcasts."""
    x, y, z = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    rho2 = x * x + y * y
    return np.stack([2.0 * x, 2.0 * y, -rho2 * (res.m / (c + z) - res.n / (c - z))], axis=-1)


def gradient_on_level(res, p, c):
    """Casimir gradient at points p (..., 3) of the level set c, without a solve; broadcasts.

    Differentiating x^2 + y^2 = K(C, z) gives grad C = leaf_field / K_c,
    with K_c = (x^2 + y^2)(m/(c+z) + n/(c-z)) on the level set.
    """
    x, y, z = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    scale = (x * x + y * y) * (res.m / (c + z) + res.n / (c - z))
    return field_on_level(res, p, c) / scale[..., None]


def leaf_field(res, p):
    """The structure-defining field (2x, 2y, -(x^2+y^2)(m/(C+z) - n/(C-z))).

    Equals the spatial gradient of the defining polynomial on the level set,
    so it is collinear with the Casimir gradient.  Takes a point (3,) or a
    batch (..., 3), solved in one call.
    """
    return field_on_level(res, p, solve_casimir(res, p).value)
