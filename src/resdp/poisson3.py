"""Poisson structures on open subsets of R^3 induced by vector fields.

A vector field v corresponds to the bivector

    pi_v = v1 d/dy ^ d/dz + v2 d/dz ^ d/dx + v3 d/dx ^ d/dy

with bracket {F, G} = v . (grad F x grad G) and Hamiltonian vector field
X_H = v x grad H.  The bivector is Poisson exactly when v . curl v = 0,
which holds in particular for v = f grad C with f nonvanishing; then C is a
Casimir and its level sets carry the symplectic leaves.

A structure may carry a closed-form Jacobian of its field.  Then
integrability_defect reads the helicity v . curl v from it, and
jacobi_defect reads the cyclic sum from the outer gradients J^T (grad F x
grad G), which is exact for any F, G, H: the second derivatives of F, G and
H cancel in the cyclic sum.  Without one, both fall back on central finite
differences, which is what a generic field (such as a non-Poisson control)
gets; fd_jacobian is the Richardson finite-difference Jacobian that
cross-checks a closed form.

field_at, bracket, hamiltonian_vf, integrability_defect and jacobi_defect
take a point (3,) or a batch (k, 3); a single point is the () case of the
same code.  Fields, gradients and the function of central_difference take
batches: the finite differences evaluate every stencil point of every
point in one call.  Every point keeps the bits of its single-point call.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import casimir
from .errors import OffDomain
from .phase_space import PLUS, raise_on_first


def dot(u, v):
    """Inner products over the last axis; broadcasts.

    A stacked matmul, which rounds as the 1-D u @ v does, so a point has
    the same bits alone and in a batch.
    """
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def norm(u):
    """Euclidean norms over the last axis, rounding as np.linalg.norm of one vector."""
    return np.sqrt(dot(u, u))


def central_difference(fn, p, h):
    """Central differences (fn(p + h e_i) - fn(p - h e_i)) / (2h) along every axis.

    At points p (..., d) with steps h that broadcast over the leading axes,
    fn is called once, on the 2 d stencil points of every point as one
    batch (k, d), and must take batches.  The result is the gradients
    (..., d) for a scalar fn and the Jacobians (..., r, d), column i the
    difference along axis i, for an r-vector fn.
    """
    p = np.asarray(p, dtype=float)
    lead, d = p.shape[:-1], p.shape[-1]
    h = np.broadcast_to(np.asarray(h, dtype=float), lead).reshape(-1)
    step = np.eye(d) * h[:, None, None]
    vals = fn((p.reshape(-1, 1, d) + np.stack([step, -step])).reshape(-1, d))
    vals = vals.reshape((2, -1, d) + vals.shape[1:])
    diff = (vals[0] - vals[1]) / (2.0 * h).reshape((-1,) + (1,) * (vals.ndim - 2))
    return np.moveaxis(diff, 1, -1).reshape(lead + vals.shape[3:] + (d,))


@dataclass(frozen=True)
class ScalarField:
    """A scalar function on R^d with its gradient."""

    fn: Callable
    grad: Callable

    def gradient(self, p):
        return np.asarray(self.grad(np.asarray(p, dtype=float)), dtype=float)


def coordinate_fields():
    """The three coordinate functions with exact gradients."""
    return (
        ScalarField(lambda p: p[0], lambda p: np.array([1.0, 0.0, 0.0])),
        ScalarField(lambda p: p[1], lambda p: np.array([0.0, 1.0, 0.0])),
        ScalarField(lambda p: p[2], lambda p: np.array([0.0, 0.0, 1.0])),
    )


@dataclass(frozen=True)
class PoissonStructure3:
    """A vector field with a domain predicate, read as the bivector pi_v.

    jacobian, when given, is the closed-form Jacobian of the field: points
    (..., 3) to matrices (..., 3, 3) whose row i holds the derivatives of
    component i.
    """

    field: Callable
    domain: Callable = field(default=lambda p: True)
    label: str = ""
    jacobian: Optional[Callable] = None

    def field_at(self, p):
        p = np.asarray(p, dtype=float)
        self._require(p)
        return np.asarray(self.field(p), dtype=float)

    def jacobian_at(self, p):
        """The closed-form Jacobian at p; the structure must have one."""
        p = np.asarray(p, dtype=float)
        self._require(p)
        return np.asarray(self.jacobian(p), dtype=float)

    def _require(self, p):
        bad = np.broadcast_to(np.logical_not(self.domain(p)), p.shape[:-1])
        label = repr(self.label).replace("{", "{{").replace("}", "}}")
        raise_on_first(bad, OffDomain, "point ({}, {}, {}){row} outside domain of structure "
                       + label, *np.moveaxis(p, -1, 0))


def bracket(structure, f, g, p):
    """{F, G} = v . (grad F x grad G) at p (3,) or at each point of a batch (k, 3)."""
    p = np.asarray(p, dtype=float)
    return dot(structure.field_at(p), np.cross(f.gradient(p), g.gradient(p)))


def hamiltonian_vf(structure, h, p):
    """Hamiltonian vector field v x grad H at p.

    Orthogonal to both v (leaf tangency) and grad H; the orientation is the
    one under which pushing trajectories through the reduction map matches
    the flow generated upstairs by the pulled-back Hamiltonian.
    """
    p = np.asarray(p, dtype=float)
    v = structure.field_at(p)
    return np.cross(v, h.gradient(p))


def fd_stencil(p):
    """The 12 points p +- h e_i, p +- (h/2) e_i, h = 1e-5 (1 + |p|), of fd_jacobian; (..., 12, 3).

    Blocks of three: the steps +h, -h, +h/2 and -h/2 along the axes in order.
    """
    p = np.asarray(p, dtype=float)
    offsets = np.concatenate([np.eye(3), -np.eye(3), 0.5 * np.eye(3), -0.5 * np.eye(3)])
    return p[..., None, :] + np.asarray(1e-5 * (1.0 + norm(p)))[..., None, None] * offsets


def fd_jacobian(structure, p):
    """Richardson-extrapolated central-difference Jacobian of the field, (..., 3, 3).

    The field runs once, on all the points of fd_stencil(p), which must lie
    in the domain.  Central differences at its steps h and h/2 combine as
    (4 fine - coarse) / 3 to cancel the leading truncation term, which
    matters for fields with nearby poles.
    """
    p = np.asarray(p, dtype=float)
    h = np.asarray(1e-5 * (1.0 + norm(p)))[..., None, None]
    vals = structure.field_at(fd_stencil(p))
    coarse = (vals[..., 0:3, :] - vals[..., 3:6, :]) / (2.0 * h)
    fine = (vals[..., 6:9, :] - vals[..., 9:12, :]) / (2.0 * (0.5 * h))
    return np.swapaxes((4.0 * fine - coarse) / 3.0, -1, -2)


def curl(jac):
    """Curl from Jacobians (..., 3, 3) whose row i holds the derivatives of component i."""
    return np.stack([jac[..., 2, 1] - jac[..., 1, 2], jac[..., 0, 2] - jac[..., 2, 0],
                     jac[..., 1, 0] - jac[..., 0, 1]], axis=-1)


def integrability_defect(structure, p):
    """|v . curl v|, the curl from the closed-form Jacobian, else from fd_jacobian."""
    p = np.asarray(p, dtype=float)
    v = structure.field_at(p)
    jac = fd_jacobian(structure, p) if structure.jacobian is None else structure.jacobian_at(p)
    return np.abs(dot(v, curl(jac)))


def jacobi_defect(structure, f, g, h, p):
    """|{{F,G},H} + {{G,H},F} + {{H,F},G}|.

    The outer gradient of {F, G} = v . (grad F x grad G) is J^T (grad F x
    grad G) for the closed-form Jacobian J: the terms with second
    derivatives of F and G cancel in the cyclic sum, so the sum is exact
    for any F, G, H.  Without a closed form it is the central difference of
    the inner bracket, at the fixed step 1e-4.
    """
    p = np.asarray(p, dtype=float)
    v = structure.field_at(p)
    if structure.jacobian is None:
        def grad_inner(a, b):
            return central_difference(lambda q: bracket(structure, a, b, q), p, 1e-4)
    else:
        jac_t = np.swapaxes(structure.jacobian_at(p), -1, -2)

        def grad_inner(a, b):
            return dot(jac_t, np.cross(a.gradient(p), b.gradient(p))[..., None, :])

    def outer(a, b, c):
        return dot(v, np.cross(grad_inner(a, b), c.gradient(p)))

    return np.abs(outer(f, g, h) + outer(g, h, f) + outer(h, f, g))


def bivector_matrix(structure, p):
    """Antisymmetric matrix M with {F, G} = grad F . M grad G.

    Convention: M[0,1] = v3, M[1,2] = v1, M[2,0] = v2, which reproduces
    v . (grad F x grad G) identically.  Rank is 2 wherever v != 0 and the
    kernel is spanned by v.
    """
    v = structure.field_at(p)
    return np.array([
        [0.0, v[2], -v[1]],
        [-v[2], 0.0, v[0]],
        [v[1], -v[0], 0.0],
    ])


def resonance_structure(res):
    """The Poisson structure of the resonance: field m*n times the leaf field.

    Domain: off the z axis for the bounded family; the open set
    n^m m^n (x^2+y^2) < z^(n+m) for the unbounded one.  On the level set of
    C the field is v = mn (2x, 2y, -K_z(C, z)), with K the Kummer product,
    so its closed-form Jacobian, from one batched Casimir solve, is

        J = mn [[2, 0, 0], [0, 2, 0],
                [-K_zc C_x, -K_zc C_y, -(K_zz + K_zc C_z)]].
    """
    mn = float(res.mn)

    def fld(p):
        return mn * casimir.leaf_field(res, p)

    def jacobian(p):
        ev = casimir.solve_casimir(res, p)
        x, y, z = np.moveaxis(p, -1, 0)
        k_zz, k_zc = casimir.kummer_second_derivatives(res, x * x + y * y, ev.value, z)
        jac = np.zeros(p.shape + (3,))
        jac[..., 0, 0] = jac[..., 1, 1] = 2.0 * mn
        jac[..., 2, :] = -mn * np.asarray(k_zc)[..., None] * ev.gradient
        jac[..., 2, 2] -= mn * k_zz
        return jac

    label = f"{res.n}:{res.m if res.sign == PLUS else -res.m} resonance"
    return PoissonStructure3(field=fld,
                             domain=lambda p: casimir.in_leaf_domain(res, p),
                             label=label, jacobian=jacobian)
