"""The group-action certificates on batches.

The equivariance and transitivity checks draw their samples one at a time,
in the generator order of the per-sample loop they replace, and then run the
group functions once over (k, 2, 2) arrays.  These tests pin the draws bit
for bit, compare each batched function with a loop over its single-element
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


def loop_element_draws(sign, rng):
    """The generator calls of one random element, as the per-sample loop made them."""
    if sign == "plus":
        return rng.normal(size=4)
    t = rng.uniform(0.0, 1.2)
    phi, psi = rng.uniform(0.0, 2 * np.pi, size=2)
    return np.array([t, phi, psi])


def loop_equivariance_draws(sign, samples, rng):
    rows = []
    for _ in range(samples):
        g = loop_element_draws(sign, rng)
        a = rng.uniform(-1.5, 1.5, size=4)
        v = rng.normal(size=3)
        rows.append((g, a, v))
    return rows


def loop_transitivity_draws(sign, samples, rng):
    rows = []
    while len(rows) < samples:
        a = rng.uniform(-1.5, 1.5, size=4)
        if sign == "minus":
            level = ps.hermitian("minus", a, a).real
            if abs(level) < 0.1:
                continue
        elif np.linalg.norm(a) < 0.1:
            continue
        rows.append((a, loop_element_draws(sign, rng)))
    return rows


class TestDraws:
    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equivariance_draws_match_the_loop(self, sign, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws, a, v = vf._equivariance_draws(sign, 200, rng)
        ref = loop_equivariance_draws(sign, 200, ref_rng)
        assert draws.tolist() == [r[0].tolist() for r in ref]
        assert a.tolist() == [r[1].tolist() for r in ref]
        assert v.tolist() == [r[2].tolist() for r in ref]
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_transitivity_draws_match_the_loop(self, sign, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        a, draws = vf._transitivity_draws(sign, 200, rng)
        ref = loop_transitivity_draws(sign, 200, ref_rng)
        assert a.tolist() == [r[0].tolist() for r in ref]
        assert draws.tolist() == [r[1].tolist() for r in ref]
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("sign", SIGNS)
    def test_one_draw_is_the_batch_of_one(self, sign):
        g = ga.element_from_draws(sign, ga.draw_element(sign, np.random.default_rng(3)))
        draws = loop_element_draws(sign, np.random.default_rng(3))
        assert g.matrix.shape == (2, 2)
        assert g.matrix.tolist() == ga.element_from_draws(sign, draws[None]).matrix[0].tolist()


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
        draws, a, v = vf._equivariance_draws(sign, 200, np.random.default_rng(seed))
        g = ga.element_from_draws(sign, draws)
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
        a, draws = vf._transitivity_draws(sign, 200, np.random.default_rng(seed))
        g0 = ga.element_from_draws(sign, draws)
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
        draws, a, v = vf._equivariance_draws(sign, 6, np.random.default_rng(5))
        g = ga.element_from_draws(sign, draws.reshape(2, 3, -1))
        grid = ga.equivariance_defect(sign, g, a.reshape(2, 3, 4), v.reshape(2, 3, 3))
        flat = ga.equivariance_defect(sign, ga.element_from_draws(sign, draws), a, v)
        assert grid.shape == (2, 3)
        assert grid.ravel().tolist() == flat.tolist()


def good_batch(sign, count=6, seed=11):
    """count points off the null fiber, their images under random elements, and vectors."""
    a, draws = vf._transitivity_draws(sign, count, np.random.default_rng(seed))
    b = ga.act(ga.element_from_draws(sign, draws), a)
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
