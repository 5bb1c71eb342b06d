"""SU(2) and SU(1,1) acting on C^2: transitivity, adjoint maps, equivariance.

SU(2) preserves the definite Hermitian product ("plus" form), SU(1,1) the
indefinite one ("minus" form).  Both groups are parameterized by a pair
(alpha, beta) of complex numbers:

    SU(2):   [[alpha, beta], [-conj(beta), conj(alpha)]],  |alpha|^2 + |beta|^2 = 1
    SU(1,1): [[alpha, beta], [ conj(beta), conj(alpha)]],  |alpha|^2 - |beta|^2 = 1

The R^3 <-> Lie algebra identifications are

    su(2):   v -> [[i v3, i v1 + v2], [i v1 - v2, -i v3]]
    su(1,1): v -> [[i v3, i v1 + v2], [-i v1 + v2, -i v3]]

Every function broadcasts over leading axes of (..., 2, 2) matrices, (..., 4)
points and (..., 3) algebra vectors; checks name the first bad row of a batch.
random_element draws elements of any shape as arrays from one generator.
"""

from dataclasses import dataclass

import numpy as np

from . import phase_space as ps
from .errors import FiberMismatch, NotInImage, SingularEmbed

_GROUP_TOL = 1e-12
_PATTERN_TOL = 1e-10


@dataclass(frozen=True)
class GroupElement:
    """(..., 2, 2) complex matrices and the signature of their group: plus SU(2), minus SU(1,1)."""

    matrix: np.ndarray
    sign: str

    def inverse(self):
        return GroupElement(_inv2(self.matrix), self.sign)


def _mat2(a, b, c, d):
    """The (..., 2, 2) matrices [[a, b], [c, d]] from broadcastable entries."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.stack([a, b, c, d], axis=-1).reshape(a.shape + (2, 2))


def _det2(mat):
    return mat[..., 0, 0] * mat[..., 1, 1] - mat[..., 0, 1] * mat[..., 1, 0]


def _inv2(mat):
    """Closed-form adjugate inverse of 2x2 matrices."""
    adj = _mat2(mat[..., 1, 1], -mat[..., 0, 1], -mat[..., 1, 0], mat[..., 0, 0])
    return adj / _det2(mat)[..., None, None]


def group_defect(g):
    """Max violation of the defining constraints (det, shape, form), per element."""
    mat = np.asarray(g.matrix, dtype=complex)
    s = 1.0 if g.sign == ps.PLUS else -1.0
    shape = np.maximum(np.abs(mat[..., 1, 0] + s * np.conj(mat[..., 0, 1])),
                       np.abs(mat[..., 1, 1] - np.conj(mat[..., 0, 0])))
    gram = np.diag([1.0, s])
    form = np.abs(np.swapaxes(mat.conj(), -1, -2) @ gram @ mat - gram).max(axis=(-2, -1))
    return np.maximum(np.maximum(np.abs(_det2(mat) - 1.0), shape), form)


def su2_element(alpha, beta):
    norm = np.sqrt(np.abs(alpha) ** 2 + np.abs(beta) ** 2)
    alpha, beta = alpha / norm, beta / norm
    return GroupElement(_mat2(alpha, beta, -np.conj(beta), np.conj(alpha)), ps.PLUS)


def su11_element(alpha, beta):
    scale = np.abs(alpha) ** 2 - np.abs(beta) ** 2
    ps.raise_on_first(~(scale > 0), ValueError, "need |alpha|^2 - |beta|^2 > 0{row}")
    alpha, beta = alpha / np.sqrt(scale), beta / np.sqrt(scale)
    return GroupElement(_mat2(alpha, beta, np.conj(beta), np.conj(alpha)), ps.MINUS)


def random_element(sign, rng, shape=()):
    """Elements of the given shape: Haar SU(2) from a normal (*shape, 4) draw (plus), or SU(1,1)
    boosts (cosh t e^{i phi}, sinh t e^{i psi}), t in [0, 1.2) drawn before (phi, psi)."""
    ps.check_sign(sign)
    shape = np.broadcast_shapes(shape)
    if sign == ps.PLUS:
        return su2_element(*ps.to_complex(rng.normal(size=shape + (4,))))
    t = rng.uniform(0.0, 1.2, size=shape)
    phi, psi = rng.uniform(0.0, 2 * np.pi, size=(2,) + shape)
    return su11_element(np.cosh(t) * np.exp(1j * phi), np.sinh(t) * np.exp(1j * psi))


def lie_algebra_matrix(sign, v):
    """Realize R^3 vectors as trace-free skew matrices of the given form."""
    ps.check_sign(sign)
    v1, v2, v3 = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    s = 1.0 if sign == ps.PLUS else -1.0
    return _mat2(1j * v3, 1j * v1 + v2, s * 1j * v1 - s * v2, -1j * v3)


def lie_algebra_components(sign, xi):
    """Invert lie_algebra_matrix; raises NotInImage on the first pattern mismatch."""
    ps.check_sign(sign)
    xi = np.asarray(xi, dtype=complex)
    v = np.stack([xi[..., 0, 1].imag, xi[..., 0, 1].real, xi[..., 0, 0].imag], axis=-1)
    defect = np.abs(xi - lie_algebra_matrix(sign, v)).max(axis=(-2, -1))
    scale = 1.0 + np.abs(xi).max(axis=(-2, -1))
    ps.raise_on_first(defect > _PATTERN_TOL * scale, NotInImage, "matrix{row} does not match "
                      "the %s algebra pattern (defect {:.3e})" % sign, defect)
    return v


def act(g, a):
    """Apply group elements to phase points (matrix multiplication)."""
    a1, a2 = ps.to_complex(a)
    mat = g.matrix
    return ps.from_complex(mat[..., 0, 0] * a1 + mat[..., 0, 1] * a2,
                           mat[..., 1, 0] * a1 + mat[..., 1, 1] * a2)


def point_matrix(a, sign):
    """The matrices with first column a whose columns span the fiber frame.

    For plus (SU(2)) it is [[a1, -conj(a2)], [a2, conj(a1)]] with determinant
    |a1|^2 + |a2|^2; for minus (SU(1,1)) it is [[a1, conj(a2)], [a2, conj(a1)]]
    with determinant |a1|^2 - |a2|^2.
    """
    ps.check_sign(sign)
    a1, a2 = ps.to_complex(a)
    s = 1.0 if sign == ps.PLUS else -1.0
    return _mat2(a1, -s * np.conj(a2), a2, np.conj(a1))


def transitive_element(a, b, sign):
    """Group elements mapping a to b along their common fiber.

    SU(2) (plus) requires equal positive Hermitian norms; SU(1,1) (minus)
    requires equal nonzero values of |a1|^2 - |a2|^2 (the embedding is
    singular on the null fiber, which is refused).
    """
    ps.check_sign(sign)
    fa = ps.hermitian(sign, a, a).real
    fb = ps.hermitian(sign, b, b).real
    scale = 1.0 + np.abs(fa) + np.abs(fb)
    ps.raise_on_first(np.abs(fa - fb) > _GROUP_TOL * scale, FiberMismatch,
                      "fiber levels differ{row}: {} vs {}", fa, fb)
    if sign == ps.PLUS:
        ps.raise_on_first(fa <= _GROUP_TOL, FiberMismatch,
                          "SU(2) transitivity needs a positive fiber level{row}")
    else:
        ps.raise_on_first(np.abs(fa) <= _GROUP_TOL * scale, SingularEmbed,
                          "null fiber |a1| = |a2|{row}: embedding matrix is singular")
    g = point_matrix(b, sign) @ _inv2(point_matrix(a, sign))
    return GroupElement(g, sign)


def adjoint(sign, g, v):
    """Conjugate the algebra vectors v by g: the w with xi_w = g xi_v g^-1."""
    xi = lie_algebra_matrix(sign, v)
    conjugated = g.matrix @ xi @ _inv2(g.matrix)
    return lie_algebra_components(sign, conjugated)


def equivariance_defect(sign, g, a, v):
    """|pairing(g.a, xi_v) - pairing(a, xi_{Ad_{g^-1} v})|, per row.

    Vanishes (to rounding) for any valid group element of the matching form.
    """
    left = ps.momentum_pairing(sign, act(g, a), lie_algebra_matrix(sign, v))
    w = adjoint(sign, g.inverse(), v)
    right = ps.momentum_pairing(sign, a, lie_algebra_matrix(sign, w))
    return np.abs(left - right)
