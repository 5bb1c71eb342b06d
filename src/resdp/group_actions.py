"""SU(2) and SU(1,1) acting on C^2: transitivity, adjoint maps, equivariance.

SU(2) preserves the definite Hermitian product ("plus" form), SU(1,1) the
indefinite one ("minus" form).  Both groups are parameterized by a pair
(alpha, beta) of complex numbers:

    SU(2):   [[alpha, beta], [-conj(beta), conj(alpha)]],  |alpha|^2 + |beta|^2 = 1
    SU(1,1): [[alpha, beta], [ conj(beta), conj(alpha)]],  |alpha|^2 - |beta|^2 = 1

The R^3 <-> Lie algebra identifications are

    su(2):   v -> [[i v3, i v1 + v2], [i v1 - v2, -i v3]]
    su(1,1): v -> [[i v3, i v1 + v2], [-i v1 + v2, -i v3]]
"""

from dataclasses import dataclass

import numpy as np

from . import phase_space as ps
from .errors import FiberMismatch, NotInImage, SingularEmbed

_GROUP_TOL = 1e-12
_PATTERN_TOL = 1e-10


@dataclass(frozen=True)
class GroupElement:
    """A 2x2 complex matrix with the signature of its group: plus SU(2), minus SU(1,1)."""

    matrix: np.ndarray
    sign: str

    def inverse(self):
        return GroupElement(_inv2(self.matrix), self.sign)

    def __matmul__(self, other):
        if self.sign != other.sign:
            raise ValueError("cannot multiply elements of different groups")
        return GroupElement(self.matrix @ other.matrix, self.sign)


def _inv2(mat):
    """Closed-form adjugate inverse of a 2x2 matrix."""
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    return np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]]) / det


def identity(sign):
    ps.check_sign(sign)
    return GroupElement(np.eye(2, dtype=complex), sign)


def group_defect(g):
    """Max violation of the defining constraints (det, shape, form)."""
    mat = np.asarray(g.matrix, dtype=complex)
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    det_defect = abs(det - 1.0)
    if g.sign == ps.PLUS:
        shape = max(abs(mat[1, 0] + np.conj(mat[0, 1])), abs(mat[1, 1] - np.conj(mat[0, 0])))
        gram = np.eye(2)
    else:
        shape = max(abs(mat[1, 0] - np.conj(mat[0, 1])), abs(mat[1, 1] - np.conj(mat[0, 0])))
        gram = np.diag([1.0, -1.0])
    form = np.max(np.abs(mat.conj().T @ gram @ mat - gram))
    return float(max(det_defect, shape, form))


def su2_element(alpha, beta):
    norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    alpha, beta = alpha / norm, beta / norm
    return GroupElement(np.array([[alpha, beta], [-np.conj(beta), np.conj(alpha)]]), ps.PLUS)


def su11_element(alpha, beta):
    scale = abs(alpha) ** 2 - abs(beta) ** 2
    if scale <= 0:
        raise ValueError("need |alpha|^2 - |beta|^2 > 0")
    alpha, beta = alpha / np.sqrt(scale), beta / np.sqrt(scale)
    return GroupElement(np.array([[alpha, beta], [np.conj(beta), np.conj(alpha)]]), ps.MINUS)


def random_element(sign, rng):
    """Draw a Haar-ish random SU(2) element (plus) or a moderate SU(1,1) boost (minus)."""
    ps.check_sign(sign)
    if sign == ps.PLUS:
        vec = rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        return su2_element(vec[0] + 1j * vec[1], vec[2] + 1j * vec[3])
    t = rng.uniform(0.0, 1.2)
    phi, psi = rng.uniform(0.0, 2 * np.pi, size=2)
    return su11_element(np.cosh(t) * np.exp(1j * phi), np.sinh(t) * np.exp(1j * psi))


def lie_algebra_matrix(sign, v):
    """Realize an R^3 vector as a trace-free skew matrix of the given form."""
    ps.check_sign(sign)
    v1, v2, v3 = (float(c) for c in v)
    if sign == ps.PLUS:
        return np.array([[1j * v3, 1j * v1 + v2], [1j * v1 - v2, -1j * v3]])
    return np.array([[1j * v3, 1j * v1 + v2], [-1j * v1 + v2, -1j * v3]])


def lie_algebra_components(sign, xi):
    """Invert lie_algebra_matrix; raises NotInImage on pattern mismatch."""
    ps.check_sign(sign)
    xi = np.asarray(xi, dtype=complex)
    v1 = xi[0, 1].imag
    v2 = xi[0, 1].real
    v3 = xi[0, 0].imag
    rebuilt = lie_algebra_matrix(sign, (v1, v2, v3))
    defect = np.max(np.abs(xi - rebuilt))
    scale = 1.0 + np.max(np.abs(xi))
    if defect > _PATTERN_TOL * scale:
        raise NotInImage(f"matrix does not match the {sign} algebra pattern "
                         f"(defect {defect:.3e})")
    return np.array([v1, v2, v3])


def act(g, a):
    """Apply a group element to a phase point (matrix multiplication)."""
    a1, a2 = ps.to_complex(a)
    mat = g.matrix
    return ps.from_complex(mat[0, 0] * a1 + mat[0, 1] * a2,
                           mat[1, 0] * a1 + mat[1, 1] * a2)


def point_matrix(a, sign):
    """The matrix with first column a whose columns span the fiber frame.

    For plus (SU(2)) it is [[a1, -conj(a2)], [a2, conj(a1)]] with determinant
    |a1|^2 + |a2|^2; for minus (SU(1,1)) it is [[a1, conj(a2)], [a2, conj(a1)]]
    with determinant |a1|^2 - |a2|^2.
    """
    ps.check_sign(sign)
    a1, a2 = ps.to_complex(a)
    a1, a2 = complex(a1), complex(a2)
    if sign == ps.PLUS:
        return np.array([[a1, -np.conj(a2)], [a2, np.conj(a1)]])
    return np.array([[a1, np.conj(a2)], [a2, np.conj(a1)]])


def transitive_element(a, b, sign):
    """Group element mapping a to b along their common fiber.

    SU(2) (plus) requires equal positive Hermitian norms; SU(1,1) (minus)
    requires equal nonzero values of |a1|^2 - |a2|^2 (the embedding is
    singular on the null fiber, which is refused).
    """
    ps.check_sign(sign)
    fa = float(np.real(ps.hermitian(sign, a, a)))
    fb = float(np.real(ps.hermitian(sign, b, b)))
    scale = 1.0 + abs(fa) + abs(fb)
    if abs(fa - fb) > _GROUP_TOL * scale:
        raise FiberMismatch(f"fiber levels differ: {fa} vs {fb}")
    if sign == ps.PLUS:
        if fa <= _GROUP_TOL:
            raise FiberMismatch("SU(2) transitivity needs a positive fiber level")
    else:
        if abs(fa) <= _GROUP_TOL * scale:
            raise SingularEmbed("null fiber |a1| = |a2|: embedding matrix is singular")
    g = point_matrix(b, sign) @ _inv2(point_matrix(a, sign))
    return GroupElement(g, sign)


def adjoint(sign, g, v):
    """Conjugate the algebra vector v by g: the w with xi_w = g xi_v g^-1."""
    xi = lie_algebra_matrix(sign, v)
    conjugated = g.matrix @ xi @ _inv2(g.matrix)
    return lie_algebra_components(sign, conjugated)


def equivariance_defect(sign, g, a, v):
    """|pairing(g.a, xi_v) - pairing(a, xi_{Ad_{g^-1} v})|.

    Vanishes (to rounding) for any valid group element of the matching form.
    """
    left = ps.momentum_pairing(sign, act(g, a), lie_algebra_matrix(sign, v))
    w = adjoint(sign, g.inverse(), v)
    right = ps.momentum_pairing(sign, a, lie_algebra_matrix(sign, w))
    return abs(left - right)
