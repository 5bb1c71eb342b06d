"""Verification checks behind the CLI and the acceptance suite.

Every check returns a VerificationReport whose details list one record per
verified property.  Detail defects are compared against their own
tolerances; the headline max_defect is the worst defect/tolerance ratio, so
the report-level rule is always pass <=> max_defect <= tolerance (= 1.0).

The integrability and jacobi checks are closed-form certificates: helicity
and the jacobi cyclic sum come from the closed-form Jacobian of the
resonance structure, and a field_jacobian_vs_fd detail cross-checks that
Jacobian against the Richardson finite-difference one.  Their points come
from sample_leaf_points, which draws on the Kummer shapes themselves, keeps
the points a fiber draw's distance from the z axis (without that floor the
finite-difference cross-check reads up to 1.8e-2 near the axis of 2:-4
minus), and keeps every finite-difference stencil point in the domain.
"""

from dataclasses import dataclass, field

import numpy as np

from . import casimir, dual_pair, dynamics, group_actions as ga
from . import phase_space as ps, poisson3, resonance_maps as rm
from .errors import EmptyFiber
from .phase_space import MINUS, PLUS
from .resonance_maps import Resonance


@dataclass
class VerificationReport:
    check: str
    n: int
    m: int
    sign: str
    samples: int
    seed: int
    tolerance: float
    max_defect: float
    passed: bool
    details: list = field(default_factory=list)

    def to_dict(self):
        return {
            "check": self.check,
            "n": self.n,
            "m": self.m,
            "sign": self.sign,
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "max_defect": self.max_defect,
            "pass": self.passed,
            "details": self.details,
        }


# The (n, m, sign) cells that `verify all` and the acceptance suite certify.
GRID = tuple((n, m, sign) for sign in (PLUS, MINUS) for n in (1, 2, 3, 4) for m in (1, 2, 3, 4))

# Fiber levels of the dual-pair and leaf-correspondence checks.
_LEVELS = (0.5, 1.5, 3.0)


def _tol(tol, default):
    """The caller's tolerance, or the check's default when none is given."""
    return default if tol is None else tol


def _require_samples(count):
    """Raise ValueError below one sample, so no check certifies an empty sample."""
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")


def _assemble(check, res, samples, seed, details):
    worst = 0.0
    for d in details:
        ratio = d["defect"] / d["tolerance"] if d["tolerance"] > 0 else float("inf")
        d["pass"] = bool(d["defect"] <= d["tolerance"])
        worst = max(worst, ratio)
    return VerificationReport(check=check, n=res.n, m=res.m, sign=res.sign,
                              samples=samples, seed=seed, tolerance=1.0,
                              max_defect=worst, passed=worst <= 1.0,
                              details=details)


def sample_in_domain(res, count, rng, lo=0.15, hi=1.5):
    """Random in-domain phase points with both moduli in [lo, hi]."""
    _require_samples(count)
    out = np.empty((0, 4))
    while len(out) < count:
        batch = max(count - len(out), 64)
        r1 = rng.uniform(lo * lo, hi * hi, size=batch)
        r2 = rng.uniform(lo * lo, hi * hi, size=batch)
        ph1 = rng.uniform(0.0, 2 * np.pi, size=batch)
        ph2 = rng.uniform(0.0, 2 * np.pi, size=batch)
        a = ps.from_complex(np.sqrt(r1) * np.exp(1j * ph1),
                            np.sqrt(r2) * np.exp(1j * ph2))
        out = np.vstack([out, a[rm.in_domain(res, a)]])
    return out[:count]


def check_identity(res, samples=10000, seed=42, tol=None):
    """Kummer product identity plus the 1:1 / 1:-1 quadratic identities."""
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    a = sample_in_domain(res, samples, rng)
    norms = np.linalg.norm(a, axis=-1)
    scale = 1.0 + norms ** (2 * (res.n + res.m))
    kummer = np.max(rm.kummer_identity_defect(res, a) / scale)
    details = [{"name": "kummer_product", "defect": float(kummer),
                "tolerance": _tol(tol, 1e-10)}]
    if res.n == 1 and res.m == 1:
        if res.sign == PLUS:
            details.append({"name": "hopf_sphere", "defect":
                            float(np.max(rm.hopf_identity_defect(a))),
                            "tolerance": _tol(tol, 1e-12)})
        else:
            details.append({"name": "hyperbolic_corrected", "defect":
                            float(np.max(rm.hyperbolic_identity_defect(a))),
                            "tolerance": _tol(tol, 1e-12)})
            # The widely printed form X^2+Y^2-Z^2 = R^2 is off by the sign of
            # R^2; pin the corrected statement X^2+Y^2-Z^2 = -R^2 instead.
            p = rm.leaf_map(res, a)
            r = rm.circle_momentum(res, a)
            printed = p[..., 0] ** 2 + p[..., 1] ** 2 - p[..., 2] ** 2
            details.append({"name": "erratum_printed_form", "defect":
                            float(np.max(np.abs(printed + r ** 2))),
                            "tolerance": _tol(tol, 1e-12)})
    return _assemble("identity", res, samples, seed, details)


def check_casimir(res, samples=2000, seed=42, tol=None):
    """Closed-form oracles, composition with the leaf map, gradient vs FD.

    Every detail solves its points in one batch.
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    details = []
    rel_tol = _tol(tol, 1e-12)

    if res.sign == PLUS:
        rho2 = rng.uniform(0.05, 4.0, size=max(samples // 4, 16))
        got = casimir.solve_casimir(res, np.sqrt(rho2)[:, None] * [1.0, 0.0, 0.0]).value
        # Python float powers: numpy's array power rounds differently.
        scale = float(res.n) ** res.m * float(res.m) ** res.n
        want = np.array([(scale * r2) ** (1.0 / (res.n + res.m)) for r2 in rho2.tolist()])
        details.append({"name": "closed_form_equator",
                        "defect": float(np.max(np.abs(got - want) / want)),
                        "tolerance": rel_tol})
    if res.n == 1 and res.m == 1:
        pts = _leaf_points(res, max(samples // 4, 16), rng)
        got = casimir.solve_casimir(res, pts).value
        x, y, z = pts.T
        want = np.sqrt(x * x + y * y + z * z if res.sign == PLUS else z * z - x * x - y * y)
        details.append({"name": "closed_form_quadric",
                        "defect": float(np.max(np.abs(got - want) / want)),
                        "tolerance": rel_tol, "points": len(pts)})

    if res.sign == PLUS:
        a = sample_in_domain(res, samples, np.random.default_rng(seed + 1))
    else:
        # Fiber points have momentum R = c > 0.  The moduli box of
        # sample_in_domain holds few in-domain points with R well above 0,
        # and on 1:-4 none with R >= 0.1.
        per_level = max(1, samples // len(_LEVELS))
        a = np.vstack([dual_pair.fiber_sample(res, c, per_level, seed=seed + 1 + i)
                       for i, c in enumerate(_LEVELS)])
    p = rm.leaf_map(res, a)
    # The projected point can fall off the open set at rounding level.
    inside = casimir.in_leaf_domain(res, p)
    p, r = p[inside], rm.circle_momentum(res, a[inside])
    ev = casimir.solve_casimir(res, p)
    rho2 = p[:, 0] ** 2 + p[:, 1] ** 2
    # Residual floor: the root granularity |d/dr| * ulp(value).
    slope = np.abs(rho2 * (res.m / (ev.value + p[:, 2]) + res.n / (ev.value - p[:, 2])))
    bound = np.maximum(1e-13 * (1.0 + rho2), 4.0 * slope * np.finfo(float).eps * ev.value)
    details.append({"name": "composition_recovers_momentum",
                    "defect": float(np.max(np.abs(ev.value - r) / np.abs(r), initial=0.0)),
                    "tolerance": _tol(tol, 1e-10)})
    details.append({"name": "solver_residual_vs_bound",
                    "defect": float(np.max(ev.residual / bound, initial=0.0)),
                    "tolerance": 1.0})

    pts = _leaf_points(res, max(samples // 4, 16), np.random.default_rng(seed + 2))
    grad = casimir.solve_casimir(res, pts).gradient
    fd = poisson3.central_difference(lambda q: casimir.solve_casimir(res, q).value, pts,
                                     1e-6 * (1.0 + np.linalg.norm(pts, axis=-1)))
    worst_grad = np.max(np.linalg.norm(grad - fd, axis=-1) / np.linalg.norm(fd, axis=-1))
    details.append({"name": "gradient_vs_fd", "defect": float(worst_grad),
                    "tolerance": _tol(tol, 1e-6), "points": len(pts)})
    return _assemble("casimir", res, samples, seed, details)


def _leaf_points(res, count, rng):
    """`count` in-domain leaf points, by projecting in-domain phase points.

    Points near the Oz axis or the domain boundary (bound margin 0.8) are
    dropped so finite-difference stencils of the callers stay inside; more
    phase points are drawn, `count` at a time, until `count` remain.  Raises
    EmptyFiber when 100 * count draws yield fewer.
    """
    pts = np.empty((0, 3))
    drawn = 0
    while len(pts) < count and drawn < 100 * count:
        a = sample_in_domain(res, count, rng, lo=0.35, hi=1.4)
        drawn += count
        p = rm.leaf_map(res, a)
        keep = p[:, 0] ** 2 + p[:, 1] ** 2 > 1e-2
        pts = np.vstack([pts, p[keep & casimir.in_leaf_domain(res, p, bound_margin=0.8)]])
    if len(pts) < count:
        raise EmptyFiber(f"found {len(pts)}/{count} leaf points after {drawn} draws")
    return pts[:count]


def sample_leaf_points(res, count, seed):
    """`count` points on the Kummer shapes where the structure field is of desk scale.

    The candidates come from _shape_draws, with one generator
    default_rng(seed) for the call, in blocks that double from 64 * count
    rows up to _BLOCK_CAP.  A candidate at level c is kept (_accepted) when,
    in closed form from c, |mn leaf_field| <= 8 and |grad C| <= 8, with
    grad C = leaf_field / K_c; when x^2 + y^2 >= _fiber_rho2_floor(c), the
    distance from the z axis that fiber draws at level c keep; and when the
    point and every point of its poisson3.fd_stencil lie in the Casimir
    domain.  No candidate is solved.  The first `count` kept points are
    returned in draw order.  Raises EmptyFiber when _BLOCK_CAP * (count + 1)
    draws keep fewer; the rarest cell, 2:-4 minus, keeps about 0.7% of its
    draws.
    """
    _require_samples(count)
    rng = np.random.default_rng(seed)
    s_max_1 = dual_pair.minus_fiber_s_max(res, 1.0) if res.sign == MINUS else None
    max_draws = _BLOCK_CAP * (count + 1)
    blocks, found, drawn, size = [], 0, 0, 64 * count
    while found < count:
        if drawn >= max_draws:
            raise EmptyFiber(f"found {found}/{count} leaf points after {drawn} draws")
        size = min(size, _BLOCK_CAP, max_draws - drawn)
        p, c = _shape_draws(res, size, rng)
        drawn += size
        size *= 2
        blocks.append(p[_accepted(res, p, c, s_max_1)])
        found += len(blocks[-1])
    return np.concatenate(blocks)[:count]


def _accepted(res, p, c, s_max_1):
    """The filters of sample_leaf_points on candidates p (k, 3) at levels c (k,), as a mask."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # A draw at z = +-c sits on the axis: its nan norms fail the bounds.
        keep = ((p[:, 0] ** 2 + p[:, 1] ** 2 >= _fiber_rho2_floor(res, c, s_max_1))
                & (poisson3.norm(res.mn * casimir.field_on_level(res, p, c)) <= 8.0)
                & (poisson3.norm(casimir.gradient_on_level(res, p, c)) <= 8.0)
                & casimir.in_leaf_domain(res, p))
    keep[keep] = np.all(casimir.in_leaf_domain(res, poisson3.fd_stencil(p[keep])), axis=-1)
    return keep


# Largest block of candidates that sample_leaf_points draws at once.
_BLOCK_CAP = 4096


def _shape_draws(res, size, rng):
    """`size` candidate points (size, 3) on the Kummer shapes, and their levels c (size,).

    The level is scaled per cell, c = (u n^m m^n)^(1/(n+m)) with u uniform
    in (0.02, 1.2), so the shape radius stays of order one.  The height z
    is uniform in (-c, c) on plus cells, and in (c, z_max) on minus cells,
    where K(c, z_max) = (4/mn)^2: above z_max, x^2 + y^2 = K(c, z) exceeds
    (4/mn)^2, so |mn leaf_field| >= 2 mn |(x, y)| exceeds the field bound 8.
    Then (x, y) = sqrt(K(c, z)) (cos t, sin t) with t uniform, so the
    Casimir of the point is c.
    """
    base = float(res.n) ** res.m * float(res.m) ** res.n
    c = (rng.uniform(0.02, 1.2, size=size) * base) ** (1.0 / (res.n + res.m))
    if res.sign == PLUS:
        z = rng.uniform(-c, c)
    else:
        z = rng.uniform(c, _minus_z_max(res, c, (4.0 / res.mn) ** 2))
    t = rng.uniform(0.0, 2.0 * np.pi, size=size)
    r = np.sqrt(casimir.kummer_product(res, c, z))
    return np.stack([r * np.cos(t), r * np.sin(t), z], axis=-1), c


def _minus_z_max(res, c, target):
    """Heights z > c with K(c, z) >= target, by 12 steps of bisection from above.

    K(c, c + d) >= d^(n+m) / (n^m m^n), so d0 = (target n^m m^n)^(1/(n+m))
    brackets the root z*; the result is within 2^-12 d0 above z*, which
    widens the minus window of _shape_draws by as much.
    """
    base = float(res.n) ** res.m * float(res.m) ** res.n
    lo, hi = c, c + (target * base) ** (1.0 / (res.n + res.m))
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        below = casimir.kummer_product(res, c, mid) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return hi


def _fiber_rho2_floor(res, c, s_max_1):
    """Lower bound of x^2 + y^2 over the leaf images of fiber_sample(res, c, ...); broadcasts.

    x^2 + y^2 = |a1|^(2m) |a2|^(2n).  Plus: the moduli are 2ct/n and
    2c(1 - t)/m with t in [0.05, 0.95); the log of the product is concave in
    t, so the smaller endpoint value bounds it.  Minus: the product
    ((2c + m s)/n)^m s^n grows with s = |a2|^2, so the left end of the s
    window bounds it.  On n < m cells that end follows s_max(c), which the
    homogeneity of the domain inequality makes c * s_max(1); a 1e-12 margin
    covers the rounding of both bisections.
    """
    n, m = res.n, res.m
    if res.sign == PLUS:
        return np.minimum(*((2.0 * c * t / n) ** m * (2.0 * c * (1.0 - t) / m) ** n
                            for t in (0.05, 0.95)))
    s_max = c * s_max_1 * (1.0 - 1e-12)
    s_lo = np.where(s_max <= 0.1, 0.02 * s_max, 0.1)
    return ((2.0 * c + m * s_lo) / n) ** m * s_lo ** n


def check_bracket_table(res, samples=1000, seed=42, tol=None):
    """Canonical brackets of (X, Y, Z) against the structure table."""
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    a = sample_in_domain(res, samples, rng, lo=0.4, hi=1.4)
    tolerance = _tol(tol, 1e-7)
    mn = res.mn
    x, y, z = rm.leaf_map(res, a).T
    r = rm.circle_momentum(res, a)
    expected_xy = -mn * (x * x + y * y) * (res.m / (r + z) - res.n / (r - z))
    scale = 1.0 + np.abs(2 * mn * x) + np.abs(2 * mn * y) + np.abs(expected_xy)
    # {F, G} = grad F @ P @ grad G as in dynamics.canonical_bracket, for all
    # three pairs at once from the rows of one leaf-map Jacobian per point.
    jac = rm.leaf_map_jacobian(res, a)
    brackets = jac @ dynamics.poisson_tensor(res.sign) @ jac.swapaxes(-1, -2)
    worst = {"yz": brackets[:, 1, 2] - 2 * mn * x, "zx": brackets[:, 2, 0] - 2 * mn * y,
             "xy": brackets[:, 0, 1] - expected_xy}
    details = [{"name": f"bracket_{k}", "defect": float(np.max(np.abs(v) / scale)),
                "tolerance": tolerance} for k, v in worst.items()]
    return _assemble("bracket-table", res, samples, seed, details)


def check_dual_pair(res, samples=300, seed=42, tol=None):
    """Dual-pair defects over fiber samples at momentum levels 0.5, 1.5 and 3."""
    _require_samples(samples)
    per_level = max(1, samples // len(_LEVELS))
    worst_res, worst_dist, total = 0.0, 0.0, 0
    for i, c in enumerate(_LEVELS):
        points = dual_pair.fiber_sample(res, c, per_level, seed=seed + i)
        kernel_residual, distance = dual_pair.dual_pair_defect(res, points)
        worst_res = max(worst_res, float(np.max(kernel_residual)))
        worst_dist = max(worst_dist, float(np.max(distance)))
        total += len(points)
    tolerance = _tol(tol, 1e-9)
    details = [
        {"name": "kernel_residual", "defect": worst_res, "tolerance": tolerance},
        {"name": "subspace_distance", "defect": worst_dist, "tolerance": tolerance},
    ]
    return _assemble("dual-pair", res, total, seed, details)


def check_leaf_correspondence(res, samples=300, seed=42, tol=None):
    _require_samples(samples)
    details = []
    per_level = max(1, samples // len(_LEVELS))
    total = 0
    for i, c in enumerate(_LEVELS):
        out = dual_pair.leaf_correspondence_check(res, c, per_level, seed=seed + i)
        details.append({"name": f"level_c_{c:g}", "defect": out["max_deviation"],
                        "tolerance": _tol(tol, 1e-9) * (1.0 + c)})
        total += out["samples"]
    return _assemble("leaf-correspondence", res, total, seed, details)


def check_integrability(res, samples=50, seed=42, tol=None):
    """Helicity v . curl v from the closed-form field Jacobian, cross-checked by FD."""
    _require_samples(samples)
    structure = poisson3.resonance_structure(res)
    pts = sample_leaf_points(res, samples, seed)
    worst = np.max(poisson3.integrability_defect(structure, pts))
    details = [{"name": "helicity", "defect": float(worst), "tolerance": _tol(tol, 1e-8)},
               _field_jacobian_vs_fd(structure, pts, tol)]
    return _assemble("integrability", res, len(pts), seed, details)


def check_jacobi(res, samples=20, seed=42, tol=None):
    """Cyclic sum of the coordinate brackets from the closed-form Jacobian, cross-checked by FD."""
    _require_samples(samples)
    structure = poisson3.resonance_structure(res)
    fx, fy, fz = poisson3.coordinate_fields()
    pts = sample_leaf_points(res, samples, seed)
    worst = np.max(poisson3.jacobi_defect(structure, fx, fy, fz, pts))
    details = [{"name": "jacobi_cyclic_sum", "defect": float(worst),
                "tolerance": _tol(tol, 1e-5)},
               _field_jacobian_vs_fd(structure, pts, tol)]
    return _assemble("jacobi", res, len(pts), seed, details)


def _field_jacobian_vs_fd(structure, pts, tol):
    """Detail: worst |J_fd - J| / |J| (Frobenius) of the Richardson FD against the closed form."""
    jac = structure.jacobian_at(pts)
    fd = poisson3.fd_jacobian(structure, pts)
    worst = np.max(np.linalg.norm(fd - jac, axis=(-2, -1)) / np.linalg.norm(jac, axis=(-2, -1)))
    return {"name": "field_jacobian_vs_fd", "defect": float(worst),
            "tolerance": _tol(tol, 1e-6)}


def _equivariance_draws(sign, samples, rng):
    """Per-sample (element draws, point, algebra vector), in the generator's order."""
    rows = [(ga.draw_element(sign, rng), rng.uniform(-1.5, 1.5, size=4), rng.normal(size=3))
            for _ in range(samples)]
    return tuple(np.array(col) for col in zip(*rows))


def check_equivariance(res, samples=1000, seed=42, tol=None):
    _require_samples(samples)
    draws, a, v = _equivariance_draws(res.sign, samples, np.random.default_rng(seed))
    g = ga.element_from_draws(res.sign, draws)
    worst = float(np.max(ga.equivariance_defect(res.sign, g, a, v)))
    details = [{"name": "momentum_equivariance", "defect": worst,
                "tolerance": _tol(tol, 1e-12)}]
    return _assemble("equivariance", res, samples, seed, details)


def _transitivity_draws(sign, samples, rng):
    """Per-sample (point, element draws), skipping points near the null or zero fiber."""
    points, draws = [], []
    while len(points) < samples:
        a = rng.uniform(-1.5, 1.5, size=4)
        if (abs(ps.hermitian(MINUS, a, a).real) if sign == MINUS else np.linalg.norm(a)) < 0.1:
            continue
        points.append(a)
        draws.append(ga.draw_element(sign, rng))
    return np.array(points), np.array(draws)


def check_transitivity(res, samples=1000, seed=42, tol=None):
    _require_samples(samples)
    a, draws = _transitivity_draws(res.sign, samples, np.random.default_rng(seed))
    b = ga.act(ga.element_from_draws(res.sign, draws), a)
    g = ga.transitive_element(a, b, res.sign)
    defects = {"roundtrip": np.abs(ga.act(g, a) - b), "group_constraints": ga.group_defect(g)}
    details = [{"name": name, "defect": float(np.max(d)), "tolerance": _tol(tol, 1e-12)}
               for name, d in defects.items()]
    return _assemble("transitivity", res, samples, seed, details)


def check_conservation(res, samples=200, seed=42, tol=None):
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    t_grid = np.concatenate([[0.0, 0.7, np.pi, 5.0], rng.uniform(0.0, 8.0, size=8)])
    a0 = rng.uniform(-1.5, 1.5, size=(samples, 4))
    base = np.column_stack([rm.leaf_map(res, a0), rm.circle_momentum(res, a0)])
    scale = 1.0 + np.max(np.abs(base), axis=-1)
    report = dynamics.conservation_report(res, a0, t_grid)
    details = [{"name": "circle_flow_invariants",
                "defect": float(np.max(report["max"] / scale)),
                "tolerance": _tol(tol, 1e-12)}]
    return _assemble("conservation", res, samples, seed, details)


def _pushforward_points(res, count, seed):
    """Fiber samples at momentum 1.5, kept well inside the domain and away from leaf poles.

    For n < m minus resonances the admissible fiber band itself is thin, so
    the pole-gap floor adapts to what the domain allows.  Returns the first
    `count` kept points (count, 4) in draw order; raises EmptyFiber when 50
    rounds of sampling yield fewer.
    """
    c = 1.5
    gap_floor = 0.3 * c
    domain_margin = 0.5
    if res.sign == MINUS and res.n < res.m:
        s_max = dual_pair.minus_fiber_s_max(res, c)
        gap_floor = min(gap_floor, 0.3 * res.m * s_max)
        domain_margin = 0.9
    out = np.empty((0, 4))
    attempt = 0
    while len(out) < count and attempt < 50:
        pts = dual_pair.fiber_sample(res, c, 4 * count, seed=seed + 101 * attempt)
        a1, a2 = ps.to_complex(pts)
        gap = np.minimum(res.n * np.abs(a1) ** 2, res.m * np.abs(a2) ** 2)
        keep = rm.in_domain(res, pts, domain_margin) & (gap >= gap_floor)
        out = np.concatenate([out, pts[keep][:count - len(out)]])
        attempt += 1
    if len(out) < count:
        raise EmptyFiber(f"found {len(out)}/{count} pushforward start points on the "
                         f"fiber c={c} after {attempt} attempts")
    return out


def check_pushforward(res, samples=3, seed=42, tol=None):
    """Upstairs vs downstairs flows over T = 1 at dt = 1e-3."""
    _require_samples(samples)
    if res.sign == MINUS and res.n < res.m:
        # The admissible band of these cells is thin; only rotations about
        # the z axis are guaranteed to keep trajectories inside it.
        hams = [dynamics.DownstairsHamiltonian(gamma=1.0),
                dynamics.DownstairsHamiltonian(gamma=-0.7),
                dynamics.DownstairsHamiltonian(gamma=1.3)]
    else:
        hams = [dynamics.DownstairsHamiltonian(gamma=1.0),
                dynamics.DownstairsHamiltonian(alpha=0.15, beta=-0.1, gamma=0.8),
                dynamics.DownstairsHamiltonian(alpha=-0.2, gamma=1.2)]
    points = _pushforward_points(res, samples, seed)
    worst = 0.0
    for i, a0 in enumerate(points):
        ham = hams[i % len(hams)]
        worst = max(worst, dynamics.pushforward_defect(res, ham, a0, 1e-3, 1.0))
    details = [{"name": "flow_commutation", "defect": worst,
                "tolerance": _tol(tol, 1e-6)}]
    return _assemble("pushforward", res, len(points), seed, details)


CHECKS = {
    "identity": check_identity,
    "casimir": check_casimir,
    "bracket-table": check_bracket_table,
    "dual-pair": check_dual_pair,
    "leaf-correspondence": check_leaf_correspondence,
    "integrability": check_integrability,
    "jacobi": check_jacobi,
    "equivariance": check_equivariance,
    "transitivity": check_transitivity,
    "conservation": check_conservation,
    "pushforward": check_pushforward,
}

# Sample counts used by `verify all` (kept modest so the sweep stays fast).
_ALL_SAMPLES = {
    "identity": 2000,
    "casimir": 400,
    "bracket-table": 200,
    "dual-pair": 60,
    "leaf-correspondence": 60,
    "integrability": 12,
    "jacobi": 6,
    "equivariance": 200,
    "transitivity": 200,
    "conservation": 50,
    "pushforward": 1,
}


def run_all(seed=42):
    """Every check over GRID; sorted deterministically."""
    reports = [CHECKS[name](Resonance(*cell), samples=_ALL_SAMPLES[name], seed=seed)
               for name in sorted(CHECKS) for cell in GRID]
    reports.sort(key=lambda r: (r.check, r.n, r.m, r.sign))
    return reports
