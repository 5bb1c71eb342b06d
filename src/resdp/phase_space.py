"""Linear algebra of C^2 with both Hermitian signatures.

Points and tangent vectors of C^2 are stored as real 4-vectors in the fixed
coordinate order (x1, y1, x2, y2), so a1 = x1 + i*y1 and a2 = x2 + i*y2.
The ``sign`` argument selects the signature: "plus" pairs the definite
Hermitian product a1*conj(b1) + a2*conj(b2) with the symplectic form
-dx1^dy1 - dx2^dy2, while "minus" pairs a1*conj(b1) - a2*conj(b2) with
-dx1^dy1 + dx2^dy2.  In both cases form = Im and metric = Re of the
Hermitian product.
"""

import numpy as np

from .errors import NotSkewHermitian

PLUS = "plus"
MINUS = "minus"

_SKEW_TOL = 1e-12


def check_sign(sign):
    if sign not in (PLUS, MINUS):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    return sign


def to_complex(a):
    """Split real 4-vectors of shape (..., 4) into complex pairs (a1, a2)."""
    a = np.asarray(a, dtype=float)
    return a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]


def from_complex(a1, a2):
    """Assemble real 4-vectors from complex components (broadcasts)."""
    a1 = np.asarray(a1, dtype=complex)
    a2 = np.asarray(a2, dtype=complex)
    return np.stack([a1.real, a1.imag, a2.real, a2.imag], axis=-1)


def int_pow(z, k):
    """z**k for integer k >= 0 by square-and-multiply.

    Keeps complex powers exact in the exponent (no log/exp branch cuts) and
    works elementwise on arrays.
    """
    if k != int(k) or k < 0:
        raise ValueError("int_pow needs a nonnegative integer exponent")
    k = int(k)
    base = np.asarray(z)
    if base.dtype.kind in "iub":
        base = base.astype(float)
    result = np.ones_like(base)
    base = base.copy()
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def hermitian(sign, alpha, beta):
    """Hermitian product of the selected signature, linear in the first slot."""
    check_sign(sign)
    a1, a2 = to_complex(alpha)
    b1, b2 = to_complex(beta)
    if sign == PLUS:
        return a1 * np.conj(b1) + a2 * np.conj(b2)
    return a1 * np.conj(b1) - a2 * np.conj(b2)


def omega_matrix(sign):
    """Matrix W of the symplectic form: form(u, v) = u @ W @ v."""
    check_sign(sign)
    s = 1.0 if sign == PLUS else -1.0
    return np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -s],
        [0.0, 0.0, s, 0.0],
    ])


def symplectic_form(sign, u, v):
    """Evaluate the selected symplectic form on two tangent 4-vectors."""
    check_sign(sign)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    first = -(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    second = u[..., 2] * v[..., 3] - u[..., 3] * v[..., 2]
    return first - second if sign == PLUS else first + second


def symplectic_normal(sign, k):
    """Unit normal w of the symplectic orthogonal of span{k}; broadcasts over (..., 4).

    form(u, k) = u @ W @ k, so span{k}^omega is the hyperplane (W k)-perp,
    whose orthogonal projector is I - w w^T.
    """
    w = np.asarray(k, dtype=float) @ omega_matrix(sign).T
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


def raise_on_first(bad, error, message, *values):
    """Raise error for the first True entry of the mask bad, naming it.

    message is a str.format template: {row} becomes " at row i" in a batch
    ("" for a single element), and {} the values read at that entry.
    """
    bad = np.asarray(bad)
    if bad.any():
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        row = f" at row {idx[0] if len(idx) == 1 else idx}" if idx else ""
        raise error(message.format(*(np.asarray(v)[idx] for v in values), row=row))


def skew_defect(sign, xi):
    """Max-norm violation of <xi a, b> + <a, xi b> = 0 for the selected form, per matrix."""
    check_sign(sign)
    xi = np.asarray(xi, dtype=complex)
    g = np.diag([1.0, 1.0]) if sign == PLUS else np.diag([1.0, -1.0])
    return np.abs(np.swapaxes(xi.conj(), -1, -2) @ g + g @ xi).max(axis=(-2, -1))


def momentum_pairing(sign, a, xi):
    """Real pairing of points a with skew matrices xi: (i/2)<a, xi(a)>, per row.

    Raises NotSkewHermitian when a matrix fails the skew condition of the
    selected form.
    """
    defect = skew_defect(sign, xi)
    raise_on_first(defect > _SKEW_TOL, NotSkewHermitian,
                   "matrix{row} is not skew for the %s form (defect {:.3e})" % sign, defect)
    a1, a2 = to_complex(a)
    xi = np.asarray(xi, dtype=complex)
    # [()] keeps a single matrix in numpy's scalar arithmetic, which rounds as before batching.
    x00, x01, x10, x11 = (xi[..., i, j][()] for i in (0, 1) for j in (0, 1))
    b1 = x00 * a1 + x01 * a2
    b2 = x10 * a1 + x11 * a2
    if sign == PLUS:
        inner = a1 * np.conj(b1) + a2 * np.conj(b2)
    else:
        inner = a1 * np.conj(b1) - a2 * np.conj(b2)
    return (0.5j * inner).real
