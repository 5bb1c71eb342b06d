"""Poisson structures on open subsets of R^3 induced by vector fields.

A vector field v corresponds to the bivector

    pi_v = v1 d/dy ^ d/dz + v2 d/dz ^ d/dx + v3 d/dx ^ d/dy

with bracket {F, G} = v . (grad F x grad G) and Hamiltonian vector field
X_H = v x grad H.  The bivector is Poisson exactly when v . curl v = 0,
which holds in particular for v = f grad C with f nonvanishing; then C is a
Casimir and its level sets carry the symplectic leaves.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import casimir
from .errors import OffDomain
from .phase_space import PLUS


def central_difference(fn, p, h):
    """Central differences (fn(p + h e_i) - fn(p - h e_i)) / (2h) along every axis.

    At one point p, a scalar fn gives the gradient and a vector-valued fn the
    Jacobian, whose column i is the difference along axis i.  At a batch of
    points p (k, d) with steps h (k,), fn is scalar-valued on batches and is
    called once, on all 2 d k stencil points; the result is (k, d).
    """
    p = np.asarray(p, dtype=float)
    d = p.shape[-1]
    if p.ndim > 1:
        h = np.asarray(h, dtype=float)[:, None]
        step = np.eye(d) * h[..., None]
        vals = fn((p[:, None, :] + np.stack([step, -step])).reshape(-1, d)).reshape(2, -1, d)
        return (vals[0] - vals[1]) / (2.0 * h)
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
        return central_difference(self.fn, p, 1e-6 * (1.0 + np.linalg.norm(p)))


def coordinate_fields():
    """The three coordinate functions with exact gradients."""
    return (
        ScalarField(lambda p: p[0], lambda p: np.array([1.0, 0.0, 0.0]), "x"),
        ScalarField(lambda p: p[1], lambda p: np.array([0.0, 1.0, 0.0]), "y"),
        ScalarField(lambda p: p[2], lambda p: np.array([0.0, 0.0, 1.0]), "z"),
    )


@dataclass(frozen=True)
class PoissonStructure3:
    """A vector field with a domain predicate, read as the bivector pi_v."""

    field: Callable
    domain: Callable = field(default=lambda p: True)
    label: str = ""

    def field_at(self, p):
        p = np.asarray(p, dtype=float)
        self._require(p)
        return np.asarray(self.field(p), dtype=float)

    def _require(self, p):
        if not self.domain(np.asarray(p, dtype=float)):
            raise OffDomain(f"point {tuple(np.asarray(p, float))} outside domain "
                            f"of structure {self.label!r}")


def bracket(structure, f, g, p):
    """{F, G} = v . (grad F x grad G) at p."""
    p = np.asarray(p, dtype=float)
    v = structure.field_at(p)
    return float(v @ np.cross(f.gradient(p), g.gradient(p)))


def hamiltonian_vf(structure, h, p):
    """Hamiltonian vector field v x grad H at p.

    Orthogonal to both v (leaf tangency) and grad H; the orientation is the
    one under which pushing trajectories through the reduction map matches
    the flow generated upstairs by the pulled-back Hamiltonian.
    """
    p = np.asarray(p, dtype=float)
    v = structure.field_at(p)
    return np.cross(v, h.gradient(p))


def _fd_curl(structure, p, h):
    jac = central_difference(structure.field_at, p, h)
    return np.array([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]])


def integrability_defect(structure, p):
    """|v . curl v| with the curl from Richardson-extrapolated central FD.

    Central differences at steps h and h/2 (h = 1e-5 * (1 + |p|))
    combine to cancel the leading truncation term, which matters for fields
    with nearby poles.
    """
    p = np.asarray(p, dtype=float)
    v = structure.field_at(p)
    h = 1e-5 * (1.0 + np.linalg.norm(p))
    coarse = _fd_curl(structure, p, h)
    fine = _fd_curl(structure, p, 0.5 * h)
    curl = (4.0 * fine - coarse) / 3.0
    return float(abs(v @ curl))


def jacobi_defect(structure, f, g, h, p):
    """|{{F,G},H} + {{G,H},F} + {{H,F},G}| with outer gradients by FD (fixed step 1e-4)."""
    p = np.asarray(p, dtype=float)
    v = structure.field_at(p)

    def outer(a, b, c):
        grad_inner = central_difference(lambda q: bracket(structure, a, b, q), p, 1e-4)
        return float(v @ np.cross(grad_inner, c.gradient(p)))

    return float(abs(outer(f, g, h) + outer(g, h, f) + outer(h, f, g)))


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
    n^m m^n (x^2+y^2) < z^(n+m) for the unbounded one.
    """
    mn = float(res.mn)

    def fld(p):
        return mn * casimir.leaf_field(res, p)

    label = f"{res.n}:{res.m if res.sign == PLUS else -res.m} resonance"
    return PoissonStructure3(field=fld,
                             domain=lambda p: casimir.in_leaf_domain(res, p),
                             label=label)
