import json
import re

import numpy as np
import pytest

from resdp import cli, dynamics, group_actions, jsonio, verification
from resdp.cli import main
from resdp.errors import FiberMismatch
from resdp.resonance_maps import Resonance


def strip_timestamp(text):
    data = json.loads(text)
    data.pop("timestamp")
    return data


def _assert_trajectory_csv_matches_row_loop(tmp_path, count):
    rng = np.random.default_rng(5)
    traj = dynamics.Trajectory(times=np.arange(count) * 1e-3,
                               states=rng.normal(size=(count, 3)),
                               conserved={"C": rng.normal(size=count),
                                          "H": rng.normal(size=count) * 1e-9})
    cli._write_trajectory_csv(tmp_path / "got.csv", traj, ["x", "y", "z"])
    # The per-row loop the streamed writer replaced.
    with open(tmp_path / "want.csv", "w", newline="\n") as fh:
        fh.write("t,x,y,z,C,H\n")
        for i, t in enumerate(traj.times):
            row = [t] + list(traj.states[i]) + [traj.conserved[k][i] for k in ("C", "H")]
            fh.write(",".join(jsonio.format_float(v) for v in row) + "\n")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestCasimirCommand:
    def test_equator_value(self, capsys):
        code = main(["casimir", "--n", "2", "--m", "1", "--sign", "plus",
                     "--point", "1,0,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value 1.2599210498948732" in out
        assert "gradient" in out

    def test_off_domain_exit_code(self, capsys):
        code = main(["casimir", "--n", "1", "--m", "1", "--point", "0,0,1"])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_pinched_root_exit_code(self, capsys):
        # The Kummer product overflows at |z| = 1e80, so no root can be bracketed.
        code = main(["casimir", "--n", "1", "--m", "4", "--point", "1e-10,0,1e80"])
        assert code == 3
        assert capsys.readouterr().err == ("error: root pinched against |z| = 1e+80, where the "
                                           "Kummer product overflows\n")

    @pytest.mark.parametrize("point", ["1e160,0,1e10", "1e200,0,0"])
    def test_overflowing_point_exit_code(self, point, capsys):
        # These printed a nan gradient and residual, with a numpy warning, and exited 0.
        assert main(["casimir", "--n", "4", "--m", "4", "--point", point]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: point (") and "x^2 + y^2 overflows" in captured.err

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "cas.json"
        code = main(["casimir", "--n", "1", "--m", "1", "--point", "3,0,4",
                     "--json", str(path)])
        capsys.readouterr()
        assert code == 0
        data = json.loads(path.read_text())
        assert data["value"] == 5.0
        assert "timestamp" in data


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_point_format(self, capsys):
        assert main(["casimir", "--point", "1,2"]) == 2
        capsys.readouterr()

    def test_bad_geometry_params(self, tmp_path, capsys):
        code = main(["mesh", "--n", "1", "--m", "1", "--c", "-1",
                     "--out", str(tmp_path / "m.obj")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("what", ["identity", "integrability", "jacobi"])
    def test_no_samples_rejected(self, what, capsys):
        assert main(["verify", what, "--n", "2", "--m", "1", "--samples", "0"]) == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "4.5", "-3"])
    def test_invalid_seed_from_environment_rejected(self, value, capsys, monkeypatch):
        monkeypatch.setenv("RESDP_SEED", value)
        assert main(["verify", "identity", "--n", "2", "--m", "1", "--samples", "10"]) == 2
        err = capsys.readouterr().err
        assert value in err and "seed" in err.lower()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_tolerance_not_finite_positive_rejected(self, value, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["verify", "identity", "--n", "1", "--m", "1", "--samples", "50",
                     "--tol", value, "--json", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "--tol" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--tol", "1e-30"], ["--samples", "5"],
                                       ["--tol", "1e-30", "--samples", "5"]])
    def test_verify_all_rejects_samples_and_tol(self, flags, tmp_path, capsys):
        out = tmp_path / "all.json"
        assert main(["verify", "all", "--seed", "1", "--json", str(out)] + flags) == 2
        captured = capsys.readouterr()
        assert "--samples and --tol" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("level", ["upstairs", "downstairs"])
    @pytest.mark.parametrize("dt,total", [("-1", "1"), ("0", "1"), ("nan", "1"),
                                          ("1e-3", "inf"), ("0.1", "0.05")])
    def test_bad_flow_steps_rejected(self, level, dt, total, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = main(["flow", level, "--dt", dt, "--T", total, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: need dt > 0, T >= dt and a finite T / dt, "
                                f"got --dt {float(dt)} and --T {float(total)}\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("dt,ratio", [("0.6", "1.66666666667"), ("0.4", "2.5")])
    def test_fractional_flow_steps_rejected(self, dt, ratio, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = main(["flow", "downstairs", "--n", "1", "--m", "1", "--p0", "1,0,0",
                     "--gamma", "1", "--dt", dt, "--T", "1", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: need T / dt to be a whole number of steps, "
                                f"not {ratio}, got --dt {dt} and --T 1.0\n")
        assert captured.out == ""
        assert not out.exists()

    def test_negative_seed_rejected(self, capsys):
        assert main(["verify", "identity", "--samples", "10", "--seed", "-1"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestGeometryCommands:
    def test_curve_csv(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        code = main(["curve", "--n", "1", "--m", "1", "--c", "1",
                     "--samples", "50", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "y,z"
        assert len(lines) == 51

    def test_curve_two_sheets_writes_both(self, tmp_path, capsys):
        path = tmp_path / "hyper.csv"
        code = main(["curve", "--n", "1", "--m", "1", "--sign", "minus",
                     "--c", "1", "--samples", "20", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        assert path.exists()
        assert (tmp_path / "hyper_lower.csv").exists()

    def test_mesh_two_sheets_single_obj(self, tmp_path, capsys):
        path = tmp_path / "h.obj"
        code = main(["mesh", "--n", "1", "--m", "1", "--sign", "minus", "--c", "1",
                     "--slices", "16", "--rings", "8", "--out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 component(s)" in out
        lines = path.read_text().splitlines()
        vcount = sum(1 for l in lines if l.startswith("v "))
        assert vcount == 2 * 16 * 8


    @pytest.mark.parametrize("argv,message", [
        (["curve", "--c", "nan"], "need a finite c, got nan"),
        (["mesh", "--c", "inf"], "need a finite c, got inf"),
        (["curve", "--sign", "minus", "--c", "1", "--delta", "-1"], "need delta >= 0, got -1.0"),
        (["curve", "--sign", "minus", "--c", "1", "--delta", "nan"], "finite delta, got nan"),
        (["curve", "--sign", "minus", "--c", "1", "--zmax", "nan"], "finite z_max, got nan"),
        (["mesh", "--sign", "minus", "--c", "1", "--zmax", "inf"], "finite z_max, got inf"),
        (["curve", "--n", "1", "--m", "4", "--c", "1e-6"], "pole insets of 1:4 at c = 1e-06"),
        (["curve", "--n", "4", "--m", "4", "--c", "0.01"], "pole insets of 4:4 at c = 0.01"),
        (["mesh", "--c", "1", "--delta", "1"], "pole insets of 1:1 at c = 1.0"),
        (["curve", "--n", "4", "--m", "4", "--c", "1e80"],
         "Kummer product of 4:4 overflows at c = 1e+80"),
        (["curve", "--n", "4", "--m", "4", "--sign", "minus", "--c", "1e200", "--zmax", "1e300"],
         "Kummer product of 4:4 overflows at c = 1e+200"),
        (["mesh", "--n", "3", "--m", "2", "--c", "1e100"],
         "Kummer product of 3:2 overflows at c = 1e+100"),
        (["curve", "--n", "2", "--m", "2", "--c", "1e-200"],
         "pole insets of 2:2 overflow at c = 1e-200"),
        (["curve", "--sign", "minus", "--c", "1e308"], "need a finite z_max, got inf"),
    ])
    def test_bad_values_exit_two_and_write_nothing(self, argv, message, tmp_path, capsys):
        # Each of these wrote NaN, inf or off-shape rows and exited 0.
        out = tmp_path / "shape.out"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == "" and not out.exists()


class TestFlowCommands:
    def test_upstairs_csv(self, tmp_path, capsys):
        path = tmp_path / "traj.csv"
        code = main(["flow", "upstairs", "--n", "2", "--m", "1",
                     "--hamiltonian", "R", "--a0", "1,0,1,0",
                     "--dt", "0.01", "--T", "0.1", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,y1,x2,y2,H"
        assert len(lines) == 12

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("name,coeff", [("X", "alpha"), ("Y", "beta"), ("Z", "gamma")])
    def test_upstairs_leaf_hamiltonians_are_the_pullbacks(self, sign, name, coeff, tmp_path,
                                                          capsys):
        path = tmp_path / "up.csv"
        code = main(["flow", "upstairs", "--n", "3", "--m", "2", "--sign", sign,
                     "--hamiltonian", name, "--a0", "0.5,0.1,-0.2,0.3",
                     "--dt", "0.01", "--T", "0.5", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        ham = dynamics.pullback(Resonance(3, 2, sign),
                                dynamics.DownstairsHamiltonian(**{coeff: 1.0}))
        want = dynamics.flow_upstairs(sign, ham, [0.5, 0.1, -0.2, 0.3], 0.01, 0.5)
        got = np.loadtxt(path, delimiter=",", skiprows=1)
        assert got[:, 1:5].tolist() == want.states.tolist()
        assert got[:, 5].tolist() == want.conserved["H"].tolist()

    def test_downstairs_csv(self, tmp_path, capsys):
        path = tmp_path / "dtraj.csv"
        code = main(["flow", "downstairs", "--n", "1", "--m", "1",
                     "--p0", "1,0,0", "--gamma", "1.0",
                     "--dt", "0.01", "--T", "0.1", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,y,z,C,H"

    def test_csv_bytes_match_row_loop(self, tmp_path):
        # Many writer blocks and a partial last one.
        _assert_trajectory_csv_matches_row_loop(tmp_path, 4500)

    def test_csv_of_exactly_one_block_matches_row_loop(self, tmp_path):
        _assert_trajectory_csv_matches_row_loop(tmp_path, jsonio._BLOCK_ROWS)

    def test_downstairs_domain_exit_code(self, tmp_path, capsys):
        code = main(["flow", "downstairs", "--n", "1", "--m", "2", "--sign", "minus",
                     "--p0", "0.2,0,1.2", "--alpha", "3.0", "--gamma", "0",
                     "--dt", "0.001", "--T", "20", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        capsys.readouterr()


class TestVerifyCommand:
    def test_bracket_table_passes(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["verify", "bracket-table", "--n", "3", "--m", "2",
                     "--sign", "plus", "--samples", "100", "--seed", "42",
                     "--tol", "1e-7", "--json", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out
        data = json.loads(path.read_text())
        assert data["check"] == "bracket-table"
        assert data["pass"] is True
        assert data["n"] == 3 and data["m"] == 2 and data["sign"] == "plus"
        assert data["seed"] == 42
        assert all(d["tolerance"] == 1e-7 for d in data["details"])

    def test_reports_byte_identical_except_timestamp(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(["verify", "identity", "--n", "2", "--m", "1",
                         "--samples", "200", "--seed", "7", "--json", str(path)])
            assert code == 0
        capsys.readouterr()
        texts = [p.read_text() for p in paths]
        assert strip_timestamp(texts[0]) == strip_timestamp(texts[1])
        normalize = lambda t: re.sub(r'"timestamp": "[^"]*"', '"timestamp": "T"', t)
        assert normalize(texts[0]) == normalize(texts[1])

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("RESDP_SEED", "12345")
        code = main(["verify", "conservation", "--n", "1", "--m", "1",
                     "--samples", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "seed=12345" in out

    def test_single_check_defaults_to_1000_samples(self, capsys):
        assert main(["verify", "equivariance", "--n", "2", "--m", "1"]) == 0
        assert "samples=1000" in capsys.readouterr().out

    def test_several_checks_pass(self, capsys):
        for what, args in [("equivariance", ["--sign", "minus", "--samples", "50"]),
                           ("transitivity", ["--samples", "50"]),
                           ("dual-pair", ["--n", "2", "--m", "1", "--samples", "30"]),
                           ("leaf-correspondence",
                            ["--n", "1", "--m", "2", "--sign", "minus",
                             "--samples", "30"]),
                           ("integrability", ["--n", "2", "--m", "2", "--samples", "6"]),
                           ("casimir", ["--n", "2", "--m", "1", "--samples", "60"])]:
            code = main(["verify", what] + args)
            assert code == 0, (what, capsys.readouterr())
            capsys.readouterr()

    def test_pushforward_overflow_exits_three(self, capsys):
        # The 4:-2 orbit runs off the unbounded leaf until a Python complex
        # power overflows in the pulled-back gradient.
        code = main(["verify", "pushforward", "--n", "4", "--m", "2", "--sign", "minus",
                     "--samples", "2", "--seed", "1"])
        assert code == 3
        assert re.search(r"^error: arithmetic overflow in step \d+", capsys.readouterr().err)

    def test_group_action_error_exits_three(self, capsys, monkeypatch):
        # Every library error exits 3, not only the domain and convergence ones.
        def mismatch(a, b, sign):
            raise FiberMismatch("points on different fibers")

        monkeypatch.setattr(group_actions, "transitive_element", mismatch)
        code = main(["verify", "transitivity", "--samples", "5"])
        assert code == 3
        assert capsys.readouterr().err == "error: points on different fibers\n"

    def test_failing_check_exits_one(self, capsys):
        # An absurd tolerance forces a verification failure.
        code = main(["verify", "identity", "--n", "1", "--m", "1",
                     "--samples", "100", "--tol", "1e-30"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL]" in out


def nan_equivariance_defect(sign, g, a, v):
    return np.full(len(a), np.nan)


class TestNanDefect:
    # A NaN defect fails its report; JSON cannot hold it, so --json exits 3.
    def test_single_check_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(group_actions, "equivariance_defect", nan_equivariance_defect)
        code = main(["verify", "equivariance", "--samples", "5"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("[FAIL] equivariance n=1 m=1 sign=plus max_defect=nan ")
        assert "  BAD momentum_equivariance: defect nan" in out

    def test_single_check_json_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(group_actions, "equivariance_defect", nan_equivariance_defect)
        path = tmp_path / "report.json"
        code = main(["verify", "equivariance", "--samples", "5", "--json", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert re.fullmatch(r"error: cannot write \S+report.json: cannot serialize "
                            r"non-finite float nan\n", err)
        assert not path.exists()

    @pytest.fixture
    def nan_run_all(self, monkeypatch):
        def run_all(seed=42):
            good = verification.check_conservation(Resonance(1, 1), samples=5, seed=seed)
            nan = verification._assemble("equivariance", Resonance(1, 1), 5, seed, [
                {"name": "momentum_equivariance", "defect": float("nan"), "tolerance": 1e-12}])
            return [good, nan]

        monkeypatch.setattr(verification, "run_all", run_all)

    def test_verify_all_fails(self, nan_run_all, capsys):
        code = main(["verify", "all"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[-1] == "verify all: FAIL (2 reports)"

    def test_verify_all_json_exits_three(self, nan_run_all, tmp_path, capsys):
        code = main(["verify", "all", "--json", str(tmp_path / "all.json")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: cannot write ")
