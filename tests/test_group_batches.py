"""The group-action certificates on batches.

The equivariance and transitivity checks draw every input as an array from
one generator per check, through group_actions.random_element, and then run
the group functions once over (k, 2, 2) arrays.  These tests pin a single
random_element to a loop reference of its draws, check the transitivity
points, compare each batched function with a loop over its single-element
case, and check that a bad row inside a batch raises and is named.
"""

import numpy as np
import pytest

from resdp import group_actions as ga
from resdp import phase_space as ps
from resdp import verification as vf
from resdp.errors import FiberMismatch, NotInImage, NotSkewHermitian, SingularEmbed

SIGNS = ["plus", "minus"]
SEEDS = [1, 42]


def loop_reference_element(sign, rng):
    """One random element from scalar generator calls: a normal 4-vector, or t then (phi, psi)."""
    if sign == "plus":
        return ga.su2_element(*ps.to_complex(rng.normal(size=4)))
    t = rng.uniform(0.0, 1.2)
    phi, psi = rng.uniform(0.0, 2 * np.pi, size=2)
    return ga.su11_element(np.cosh(t) * np.exp(1j * phi), np.sinh(t) * np.exp(1j * psi))


def equivariance_inputs(sign, count, seed):
    """Elements, points and algebra vectors, drawn as check_equivariance draws them."""
    rng = np.random.default_rng(seed)
    return (ga.random_element(sign, rng, count), rng.uniform(-1.5, 1.5, size=(count, 4)),
            rng.normal(size=(count, 3)))


def fiber_level(sign, a):
    """|<a, a>_-| on minus, |a| on plus: the distance rule of the transitivity points."""
    if sign == "minus":
        return np.abs(ps.hermitian("minus", a, a).real)
    return np.linalg.norm(a, axis=-1)


class TestRandomElement:
    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_single_element_matches_the_loop_reference(self, sign, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        g = ga.random_element(sign, rng)
        ref = loop_reference_element(sign, ref_rng)
        assert g.sign == sign
        assert g.matrix.shape == (2, 2)
        assert g.matrix.tolist() == ref.matrix.tolist()
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("sign", SIGNS)
    def test_shape_gives_leading_axes(self, sign):
        g = ga.random_element(sign, np.random.default_rng(7), (2, 3))
        assert g.matrix.shape == (2, 3, 2, 2)
        assert np.max(ga.group_defect(g)) < 1e-12
        assert ga.random_element(sign, np.random.default_rng(7), 5).matrix.shape == (5, 2, 2)


class TestTransitivityPoints:
    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("samples", [1, 7, 200])
    def test_count_and_distance_from_the_excluded_fiber(self, sign, samples):
        a = vf._transitivity_points(sign, samples, np.random.default_rng(2))
        assert a.shape == (samples, 4)
        assert np.all(np.abs(a) <= 1.5)
        assert np.all(fiber_level(sign, a) >= 0.1)

    @pytest.mark.parametrize("sign", SIGNS)
    def test_first_kept_rows_of_the_first_block_in_draw_order(self, sign):
        a = vf._transitivity_points(sign, 200, np.random.default_rng(4))
        block = np.random.default_rng(4).uniform(-1.5, 1.5, size=(200, 4))
        kept = block[fiber_level(sign, block) >= 0.1]
        assert len(kept) > 0
        assert a[:len(kept)].tolist() == kept.tolist()

    @pytest.mark.parametrize("sign", SIGNS)
    def test_same_seed_same_points_other_seed_other_points(self, sign):
        def points(seed):
            return vf._transitivity_points(sign, 50, np.random.default_rng(seed))

        assert points(9).tolist() == points(9).tolist()
        assert not np.any(points(9) == points(10))


def row(g, i):
    return ga.GroupElement(g.matrix[i], g.sign)


class TestBatchMatchesLoop:
    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equivariance_defect(self, sign, seed):
        # The defect is a difference of two pairings of size up to about 40.
        # A single matrix pairs in numpy's scalar complex arithmetic and a
        # batch in its vector loops, so the two differ by ulps of the
        # pairings: the bound is 1e-15 relative to 1 + |pairing|.  Batches of
        # one row run the vector loops and agree bit for bit.
        g, a, v = equivariance_inputs(sign, 200, seed)
        batch = ga.equivariance_defect(sign, g, a, v)
        loop = [ga.equivariance_defect(sign, row(g, i), a[i], v[i]) for i in range(len(a))]
        ones = [ga.equivariance_defect(sign, row(g, [i]), a[[i]], v[[i]])[0]
                for i in range(len(a))]
        pairing = ps.momentum_pairing(sign, ga.act(g, a), ga.lie_algebra_matrix(sign, v))
        assert batch.shape == (200,)
        assert np.all(np.abs(batch - loop) <= 1e-15 * (1.0 + np.abs(pairing)))
        assert batch.tolist() == ones

    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_transitive_element_and_group_defect(self, sign, seed):
        rng = np.random.default_rng(seed)
        a = vf._transitivity_points(sign, 200, rng)
        g0 = ga.random_element(sign, rng, 200)
        b = ga.act(g0, a)
        loop_b = np.array([ga.act(row(g0, i), a[i]) for i in range(len(a))])
        assert np.max(np.abs(b - loop_b)) <= 1e-15
        g = ga.transitive_element(a, b, sign)
        loop_g = np.array([ga.transitive_element(a[i], b[i], sign).matrix
                           for i in range(len(a))])
        assert g.matrix.shape == (200, 2, 2)
        assert np.max(np.abs(g.matrix - loop_g)) <= 1e-15
        loop_defect = [ga.group_defect(row(g, i)) for i in range(len(a))]
        assert np.max(np.abs(ga.group_defect(g) - loop_defect)) <= 1e-15

    @pytest.mark.parametrize("sign", SIGNS)
    def test_leading_axes_broadcast(self, sign):
        g, a, v = equivariance_inputs(sign, 6, 5)
        g_grid = ga.random_element(sign, np.random.default_rng(5), (2, 3))
        assert g_grid.matrix.reshape(6, 2, 2).tolist() == g.matrix.tolist()
        grid = ga.equivariance_defect(sign, g_grid, a.reshape(2, 3, 4), v.reshape(2, 3, 3))
        flat = ga.equivariance_defect(sign, g, a, v)
        assert grid.shape == (2, 3)
        assert grid.ravel().tolist() == flat.tolist()


def good_batch(sign, count=6, seed=11):
    """count points off the null fiber, their images under random elements, and vectors."""
    rng = np.random.default_rng(seed)
    a = vf._transitivity_points(sign, count, rng)
    b = ga.act(ga.random_element(sign, rng, count), a)
    v = np.random.default_rng(seed + 1).normal(size=(count, 3))
    return a, b, v


class TestBadRowInBatch:
    @pytest.mark.parametrize("sign", SIGNS)
    def test_pattern_mismatch_names_its_row(self, sign):
        _, _, v = good_batch(sign)
        xi = ga.lie_algebra_matrix(sign, v)
        xi[3] = np.eye(2)
        with pytest.raises(NotInImage, match="at row 3 "):
            ga.lie_algebra_components(sign, xi)

    @pytest.mark.parametrize("sign", SIGNS)
    def test_non_skew_matrix_names_its_row(self, sign):
        a, _, v = good_batch(sign)
        xi = ga.lie_algebra_matrix(sign, v)
        xi[2] = np.eye(2)
        with pytest.raises(NotSkewHermitian, match="at row 2 "):
            ps.momentum_pairing(sign, a, xi)

    @pytest.mark.parametrize("sign", SIGNS)
    def test_fiber_mismatch_names_its_row(self, sign):
        a, b, _ = good_batch(sign)
        b[4] *= 2.0
        with pytest.raises(FiberMismatch, match="at row 4:"):
            ga.transitive_element(a, b, sign)

    def test_zero_fiber_names_its_row(self):
        a, b, _ = good_batch("plus")
        a[1] = b[1] = 0.0
        with pytest.raises(FiberMismatch, match="positive fiber level at row 1$"):
            ga.transitive_element(a, b, "plus")

    def test_null_fiber_names_its_row(self):
        a, b, _ = good_batch("minus")
        a[5] = b[5] = [1.0, 0.0, 1.0, 0.0]
        with pytest.raises(SingularEmbed, match="at row 5:"):
            ga.transitive_element(a, b, "minus")

    def test_grid_batch_names_its_index(self):
        a, b, _ = good_batch("plus")
        b[4] *= 2.0
        with pytest.raises(FiberMismatch, match=r"at row \(1, 1\):"):
            ga.transitive_element(a.reshape(2, 3, 4), b.reshape(2, 3, 4), "plus")

    def test_single_element_message_has_no_row(self):
        with pytest.raises(SingularEmbed) as info:
            ga.transitive_element(ps.from_complex(1.0, 1.0), ps.from_complex(1.0, 1.0), "minus")
        assert "row" not in str(info.value)
