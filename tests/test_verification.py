import numpy as np
import pytest

from resdp import casimir, dual_pair as dp, verification as vf
from resdp.errors import EmptyFiber, OffDomain
from resdp.resonance_maps import Resonance


class TestPushforwardPoints:
    def test_returns_requested_count(self):
        points = vf._pushforward_points(Resonance(3, 2, "minus"), 3, seed=7)
        assert len(points) == 3

    def test_shortfall_raises_with_count(self, monkeypatch):
        # Every fiber point sits next to the a2 = 0 axis, so the pole-gap
        # filter rejects all of them.
        near_axis = np.array([[1.7, 0.0, 1e-3, 0.0]])
        monkeypatch.setattr(dp, "fiber_sample", lambda res, c, count, seed: near_axis)
        with pytest.raises(EmptyFiber, match="found 0/2"):
            vf._pushforward_points(Resonance(2, 1), 2, seed=1)


class TestSampleLeafPoints:
    def test_solver_errors_are_skipped(self, monkeypatch):
        real = casimir.leaf_field
        calls = {"n": 0}

        def flaky(res, p):
            calls["n"] += 1
            if calls["n"] % 2:
                raise OffDomain("rejected for the test")
            return real(res, p)

        monkeypatch.setattr(casimir, "leaf_field", flaky)
        pts = vf.sample_leaf_points(Resonance(2, 1), 4, seed=3)
        assert len(pts) == 4

    def test_other_errors_propagate(self, monkeypatch):
        def broken(res, p):
            raise ZeroDivisionError("not a domain error")

        monkeypatch.setattr(casimir, "leaf_field", broken)
        with pytest.raises(ZeroDivisionError):
            vf.sample_leaf_points(Resonance(2, 1), 2, seed=3)


class TestDualPairCheck:
    @pytest.mark.parametrize("seed", [72, 95, 162])
    def test_four_four_minus_seeds(self, seed):
        # These seeds once failed on finite-difference rounding noise alone.
        report = vf.check_dual_pair(Resonance(4, 4, "minus"), samples=60, seed=seed)
        assert report.passed
        assert report.details[0]["defect"] < 1e-11
