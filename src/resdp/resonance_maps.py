"""Conserved quantities and reduction maps of two oscillators in n:(+/-)m resonance.

For a resonance (n, m, sign) the circle z.(a1, a2) = (z^n a1, z^m a2) acts on
C^2.  Its momentum is

    circle_momentum = n/2 |a1|^2 + m/2 |a2|^2        (plus)
                      n/2 |a1|^2 - m/2 |a2|^2        (minus)

and the invariant functions X, Y, Z defined through X - iY = a1^m conj(a2)^n
together with

    Z = n/2 |a1|^2 - m/2 |a2|^2                      (plus)
        n/2 |a1|^2 + m/2 |a2|^2                      (minus)

assemble into the leaf map (X, Y, Z) onto an open subset of R^3.  All maps
broadcast over arrays of points with shape (..., 4).
"""

from dataclasses import dataclass

import numpy as np

from . import phase_space as ps
from .casimir import kummer_product
from .errors import OnAxis
from .phase_space import MINUS, PLUS, int_pow, to_complex


@dataclass(frozen=True)
class Resonance:
    """A pair of positive integers plus the form sign ('plus' = n:m, 'minus' = n:-m)."""

    n: int
    m: int
    sign: str = PLUS

    def __post_init__(self):
        try:
            n, m = int(self.n), int(self.m)
        except (TypeError, ValueError, OverflowError):
            n = m = 0
        if n != self.n or m != self.m or n < 1 or m < 1:
            raise ValueError(f"n, m must be positive integers, got ({self.n}, {self.m})")
        # Integral floats are stored as int: the Casimir solver's powers need int exponents.
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        ps.check_sign(self.sign)

    @property
    def mn(self):
        return self.n * self.m


def _moduli(res, a):
    """The terms n/2 |a1|^2 and m/2 |a2|^2 of circle_momentum and leaf_z."""
    a1, a2 = to_complex(a)
    return 0.5 * res.n * (a1.real ** 2 + a1.imag ** 2), 0.5 * res.m * (a2.real ** 2 + a2.imag ** 2)


def circle_momentum(res, a):
    """Momentum of the resonant circle action (R for plus, R_minus for minus)."""
    first, second = _moduli(res, a)
    return first + second if res.sign == PLUS else first - second


def circle_momentum_gradient(res, a):
    """Analytic gradient of circle_momentum, shape (..., 4)."""
    a = np.asarray(a, dtype=float)
    s = 1.0 if res.sign == PLUS else -1.0
    return np.stack([res.n * a[..., 0], res.n * a[..., 1],
                     s * res.m * a[..., 2], s * res.m * a[..., 3]], axis=-1)


def leaf_z(res, a):
    """Third leaf coordinate: the sign-flipped companion of circle_momentum."""
    first, second = _moduli(res, a)
    return first - second if res.sign == PLUS else first + second


def leaf_map(res, a):
    """Map phase points (..., 4) to (X, Y, Z), shape (..., 3), run as one (k, 4) batch.

    A single point is a one-row batch, so it has the same bits alone and in any batch.
    """
    a = np.asarray(a, dtype=float)
    rows = a.reshape(-1, 4)
    a1, a2 = to_complex(rows)
    w = int_pow(a1, res.m) * int_pow(np.conj(a2), res.n)
    return np.stack([w.real, -w.imag, leaf_z(res, rows)], axis=-1).reshape(a.shape[:-1] + (3,))


def su11_momentum(a):
    """Momentum map of the SU(1,1) action, third component as conventionally printed.

    Note the printed third component -(|a1|^2 + |a2|^2)/2 carries the opposite
    sign from what the abstract pairing produces; only the squared hyperbolic
    identity is insensitive to this.  Correctness checks route through
    phase_space.momentum_pairing instead.
    """
    a1, a2 = to_complex(a)
    w = a1 * np.conj(a2)
    third = -0.5 * (a1.real ** 2 + a1.imag ** 2 + a2.real ** 2 + a2.imag ** 2)
    return np.stack([w.real, -w.imag, third], axis=-1)


def leaf_map_jacobian(res, a):
    """Jacobian of leaf_map, shape (..., 3, 4), at points (..., 4) run as one (k, 4) batch.

    w = X - iY has dw/dx1 = pa, dw/dy1 = i pa, dw/dx2 = pb, dw/dy2 = -i pb.
    """
    a = np.asarray(a, dtype=float)
    rows = a.reshape(-1, 4)
    a1, a2 = to_complex(rows)
    n, m = res.n, res.m
    pa = m * int_pow(a1, m - 1) * int_pow(np.conj(a2), n)
    pb = n * int_pow(a1, m) * int_pow(np.conj(a2), n - 1)
    s = 1.0 if res.sign == PLUS else -1.0
    jac = np.array([
        [pa.real, -pa.imag, pb.real, pb.imag],
        [-pa.imag, -pa.real, -pb.imag, pb.real],
        [n * rows[:, 0], n * rows[:, 1], -s * m * rows[:, 2], -s * m * rows[:, 3]],
    ])
    return jac.transpose(2, 0, 1).reshape(a.shape[:-1] + (3, 4))


def circle_generator(res, a):
    """Infinitesimal circle action (i n a1, i m a2) as a real 4-vector.

    Spans the kernel of the leaf map differential; requires both components
    nonzero so the vector is not degenerate for that purpose.
    """
    a = np.asarray(a, dtype=float)
    a1, a2 = to_complex(a)
    if np.any(np.abs(a1) == 0.0) or np.any(np.abs(a2) == 0.0):
        raise OnAxis("circle generator spans ker T(leaf_map) only for a1, a2 != 0")
    return np.stack([-res.n * a[..., 1], res.n * a[..., 0],
                     -res.m * a[..., 3], res.m * a[..., 2]], axis=-1)


def in_domain(res, a, margin=1.0):
    """Domain predicate for the dual-pair certification (strict inequalities).

    Plus: both complex components nonzero.  Minus: additionally the open
    condition (n|a1|^2)^m (m|a2|^2)^n < margin (n/2 |a1|^2 + m/2 |a2|^2)^(n+m);
    a margin below 1 keeps the point that far inside.  One numpy bool per point.
    """
    a1, a2 = to_complex(a)
    r1 = a1.real ** 2 + a1.imag ** 2
    r2 = a2.real ** 2 + a2.imag ** 2
    off_axes = (r1 > 0.0) & (r2 > 0.0)
    if res.sign == PLUS:
        return off_axes
    lhs = int_pow(res.n * r1, res.m) * int_pow(res.m * r2, res.n)
    rhs = int_pow(0.5 * res.n * r1 + 0.5 * res.m * r2, res.n + res.m)
    return off_axes & (lhs < margin * rhs)


def kummer_identity_defect(res, a):
    """|X^2 + Y^2 - product form| for the sign-appropriate pairing of (R, Z).

    The product form is the Kummer product at level R (casimir.kummer_product);
    both sides are evaluated independently.
    """
    p = leaf_map(res, a)
    product = kummer_product(res, circle_momentum(res, a), p[..., 2])
    return np.abs(p[..., 0] ** 2 + p[..., 1] ** 2 - product)


def hopf_identity_defect(a):
    """|X^2 + Y^2 + Z^2 - R^2| for the 1:1 momentum map."""
    res = Resonance(1, 1, PLUS)
    p = leaf_map(res, a)
    r = circle_momentum(res, a)
    return np.abs(p[..., 0] ** 2 + p[..., 1] ** 2 + p[..., 2] ** 2 - r ** 2)


def hyperbolic_identity_defect(a):
    """|Z^2 - X^2 - Y^2 - R^2| for the 1:-1 maps (the sign-corrected identity)."""
    res = Resonance(1, 1, MINUS)
    p = leaf_map(res, a)
    r = circle_momentum(res, a)
    return np.abs(p[..., 2] ** 2 - p[..., 0] ** 2 - p[..., 1] ** 2 - r ** 2)
