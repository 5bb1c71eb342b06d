import numpy as np
import pytest

from resdp import phase_space as ps
from resdp.errors import NotSkewHermitian

E1 = np.array([1.0, 0.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0, 0.0])
E4 = np.array([0.0, 0.0, 0.0, 1.0])


class TestHermitian:
    def test_unit_vector_norm(self):
        a = ps.from_complex(1.0, 0.0)
        assert ps.hermitian("plus", a, a) == 1.0

    def test_minus_null_vector(self):
        a = ps.from_complex(1.0, 1.0j)
        assert ps.hermitian("minus", a, a) == 0.0

    def test_minus_orthogonal_factors(self):
        a = ps.from_complex(1.0, 0.0)
        b = ps.from_complex(0.0, 1.0)
        assert ps.hermitian("minus", a, b) == 0.0

    def test_sesquilinear(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 4))
        lam = 0.7 + 0.3j
        a1, a2 = ps.to_complex(a)
        scaled = ps.from_complex(lam * a1, lam * a2)
        for sign in ("plus", "minus"):
            assert ps.hermitian(sign, scaled, b) == pytest.approx(
                lam * ps.hermitian(sign, a, b), abs=1e-14)
            assert ps.hermitian(sign, b, scaled) == pytest.approx(
                np.conj(lam) * ps.hermitian(sign, b, a), abs=1e-14)


class TestMetricAndForm:
    def test_form_plus_first_plane(self):
        assert ps.symplectic_form("plus", E1, E2) == -1.0

    def test_form_minus_second_plane(self):
        assert ps.symplectic_form("minus", E3, E4) == 1.0

    def test_form_vanishes_on_diagonal(self):
        rng = np.random.default_rng(1)
        for sign in ("plus", "minus"):
            u = rng.normal(size=4)
            assert ps.symplectic_form(sign, u, u) == 0.0

    def test_antisymmetry_many_pairs(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(1000, 4))
        v = rng.normal(size=(1000, 4))
        for sign in ("plus", "minus"):
            defect = np.abs(ps.symplectic_form(sign, u, v)
                            + ps.symplectic_form(sign, v, u))
            assert np.max(defect) < 1e-14

    def test_form_metric_compatibility(self):
        # plus: w(u, v) = g(u, i v); minus: second plane conjugated.
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v = rng.normal(size=(2, 4))
            v1, v2 = ps.to_complex(v)
            iv = ps.from_complex(1j * v1, 1j * v2)
            assert abs(ps.symplectic_form("plus", u, v) - u @ iv) < 1e-14
            ivm = ps.from_complex(1j * v1, -1j * v2)
            assert abs(ps.symplectic_form("minus", u, v) - u @ ivm) < 1e-14

    def test_matrix_agrees_with_form(self):
        rng = np.random.default_rng(4)
        for sign in ("plus", "minus"):
            w = ps.omega_matrix(sign)
            for _ in range(50):
                u, v = rng.normal(size=(2, 4))
                assert u @ w @ v == pytest.approx(ps.symplectic_form(sign, u, v), abs=1e-14)


def complement_projector(sign, k):
    """I - w w^T: the projector onto the symplectic orthogonal of span{k}."""
    w = ps.symplectic_normal(sign, k)
    return np.eye(4) - w[..., :, None] * w[..., None, :]


class TestSymplecticOrthogonal:
    def test_single_vector_plus(self):
        # w(u, e1) = u_y1, so the complement is the g-orthogonal of e2.
        assert np.allclose(np.abs(ps.symplectic_normal("plus", E1)), E2)
        want = sum(np.outer(e, e) for e in (E1, E3, E4))
        assert np.max(np.abs(complement_projector("plus", E1) - want)) < 1e-15

    def test_single_vector_minus(self):
        proj = complement_projector("minus", E3)
        assert np.trace(proj) == pytest.approx(3.0, abs=1e-15)
        for col in proj.T:
            assert abs(ps.symplectic_form("minus", col, E3)) < 1e-14

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_random_complement_is_a_rank_three_projector(self, sign):
        rng = np.random.default_rng(5)
        k = rng.normal(size=(200, 4))
        proj = complement_projector(sign, k)
        assert np.max(np.abs(proj @ proj - proj)) < 1e-14
        assert np.max(np.abs(np.trace(proj, axis1=1, axis2=2) - 3.0)) < 1e-14
        # Every column is omega-orthogonal to k.
        form = ps.symplectic_form(sign, proj.transpose(0, 2, 1), k[:, None, :])
        scale = np.linalg.norm(k, axis=1)[:, None]
        assert np.max(np.abs(form) / scale) < 1e-14

    def test_dimension_count_and_double_orthogonal(self):
        # A line is isotropic, so k lies in its own symplectic orthogonal,
        # a hyperplane; the symplectic orthogonal of that hyperplane, the
        # span of W^T w, is the line again.
        rng = np.random.default_rng(5)
        for sign in ("plus", "minus"):
            k = rng.normal(size=(25, 4))
            proj = complement_projector(sign, k)
            assert np.allclose(np.linalg.matrix_rank(proj), 3)
            assert np.max(np.abs((proj @ k[:, :, None])[:, :, 0] - k)) < 1e-13
            back = ps.symplectic_normal(sign, k) @ ps.omega_matrix(sign)
            unit = k / np.linalg.norm(k, axis=1, keepdims=True)
            assert np.max(np.abs(np.abs(np.sum(back * unit, axis=1)) - 1.0)) < 1e-14


class TestMomentumPairing:
    def test_plus_diagonal_generator(self):
        a = ps.from_complex(1.0, 0.0)
        assert ps.momentum_pairing("plus", a, np.diag([1j, -1j])) == pytest.approx(0.5)

    def test_minus_diagonal_generator(self):
        a = ps.from_complex(1.0, 0.0)
        assert ps.momentum_pairing("minus", a, np.diag([1j, -1j])) == pytest.approx(0.5)

    def test_origin(self):
        assert ps.momentum_pairing("plus", np.zeros(4), np.diag([1j, -1j])) == 0.0

    def test_imaginary_residual_small(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = rng.normal(size=4)
            v = rng.normal(size=3)
            xi = np.array([[1j * v[2], 1j * v[0] + v[1]],
                           [1j * v[0] - v[1], -1j * v[2]]])
            a1, a2 = ps.to_complex(a)
            b = ps.from_complex(xi[0, 0] * a1 + xi[0, 1] * a2, xi[1, 0] * a1 + xi[1, 1] * a2)
            value = 0.5j * ps.hermitian("plus", a, b)
            assert abs(value.imag) < 1e-12
            assert ps.momentum_pairing("plus", a, xi) == value.real

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkewHermitian):
            ps.momentum_pairing("plus", E1, np.eye(2))
        # skew for plus but not for minus
        xi = np.array([[0.0, 1j], [1j, 0.0]])
        with pytest.raises(NotSkewHermitian):
            ps.momentum_pairing("minus", E1, xi)


def _array_int_pow(z, k):
    """The former array body of int_pow, kept as the reference for its bits."""
    base = np.asarray(z)
    result = np.ones_like(base)
    base = base.copy()
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


class TestIntPow:
    def test_matches_builtin(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        for k in range(6):
            assert np.allclose(ps.int_pow(z, k), z ** k, rtol=1e-13)

    def test_keeps_the_array_bits_on_float_and_complex_arrays(self):
        rng = np.random.default_rng(7)
        x = 2.0 * rng.normal(size=10 ** 4)
        for v in (x, x + 2j * rng.normal(size=10 ** 4)):
            assert ps.int_pow(v, 0) == 1.0
            for k in range(1, 9):
                got = ps.int_pow(v, k)
                assert got.dtype == v.dtype
                assert got.tobytes() == _array_int_pow(v, k).tobytes()

    def test_equals_python_complex_powers(self):
        # CPython's complex power by a small integer is the same
        # square-and-multiply (its float power calls libm pow instead).
        rng = np.random.default_rng(8)
        for x, y in (3.0 * rng.normal(size=(2000, 2))).tolist():
            for k in range(9):
                assert ps.int_pow(complex(x, y), k) == complex(x, y) ** k

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ps.int_pow(2.0, -1)
        with pytest.raises(ValueError):
            ps.int_pow(np.ones(3), -2)
