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
same code.  On a batch the field and the gradients must take batches, and
every point keeps the bits of its single-point call.
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

    At one point p, a scalar fn gives the gradient and a vector-valued fn the
    Jacobian, whose column i is the difference along axis i.  At a batch of
    points p (k, d) with steps h (k,) or one step for all, fn is called
    once, on all 2 d k stencil points, and must take batches; the result is
    (k, d) for a scalar fn and the (k, r, d) Jacobians for an r-vector fn.
    """
    p = np.asarray(p, dtype=float)
    d = p.shape[-1]
    if p.ndim > 1:
        h = np.broadcast_to(np.asarray(h, dtype=float), p.shape[:1])
        step = np.eye(d) * h[:, None, None]
        vals = fn((p[:, None, :] + np.stack([step, -step])).reshape(-1, d))
        vals = vals.reshape((2, -1, d) + vals.shape[1:])
        diff = (vals[0] - vals[1]) / (2.0 * h).reshape((-1,) + (1,) * (vals.ndim - 2))
        return np.moveaxis(diff, 1, -1)
    cols = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        cols.append((fn(p + e) - fn(p - e)) / (2.0 * h))
    return np.array(cols).T


@dataclass(frozen=True)
class ScalarField:
    """A scalar function on R^d with an optional analytic gradient.

    Without one, the gradient is a central difference with step
    1e-6 * (1 + |p|).
    """

    fn: Callable
    grad: Optional[Callable] = None
    name: str = ""

    def __call__(self, p):
        return float(self.fn(np.asarray(p, dtype=float)))

    def gradient(self, p):
        p = np.asarray(p, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(p), dtype=float)
        return central_difference(self.fn, p, 1e-6 * (1.0 + norm(p)))


def coordinate_fields():
    """The three coordinate functions with exact gradients."""
    return (
        ScalarField(lambda p: p[0], lambda p: np.array([1.0, 0.0, 0.0]), "x"),
        ScalarField(lambda p: p[1], lambda p: np.array([0.0, 1.0, 0.0]), "y"),
        ScalarField(lambda p: p[2], lambda p: np.array([0.0, 0.0, 1.0]), "z"),
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


def _fd_steps(p):
    """The two steps h and h/2, h = 1e-5 (1 + |p|), of the Richardson FD Jacobian."""
    h = 1e-5 * (1.0 + norm(p))
    return h, 0.5 * h


def fd_stencil(p):
    """The 12 points p +- h e_i, p +- (h/2) e_i where fd_jacobian reads the field, (..., 12, 3)."""
    p = np.asarray(p, dtype=float)
    offsets = np.concatenate([np.eye(3), -np.eye(3), 0.5 * np.eye(3), -0.5 * np.eye(3)])
    return p[..., None, :] + np.asarray(_fd_steps(p)[0])[..., None, None] * offsets


def fd_jacobian(structure, p):
    """Richardson-extrapolated central-difference Jacobian of the field, (..., 3, 3).

    Central differences at steps h and h/2 (h = 1e-5 (1 + |p|)) combine as
    (4 fine - coarse) / 3 to cancel the leading truncation term, which
    matters for fields with nearby poles.  On a batch (k, 3) the field runs
    once, on all the stencil points (fd_stencil), which must lie in the
    domain.
    """
    p = np.asarray(p, dtype=float)
    h, half = _fd_steps(p)
    if p.ndim > 1:
        # Both steps in one call of the field.
        both = central_difference(structure.field_at, np.concatenate([p, p]),
                                  np.concatenate([h, half]))
        coarse, fine = np.split(both, 2)
    else:
        coarse, fine = (central_difference(structure.field_at, p, step) for step in (h, half))
    return (4.0 * fine - coarse) / 3.0


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
