"""Command-line front end.

Subcommands: casimir (point query), curve / mesh (geometry export), flow
(upstairs | downstairs trajectory CSV), and verify (numerical certification
with JSON reports).  Exit codes: 0 success or pass, 1 verification failure,
2 usage error, 3 any other library error (domain, convergence, group action).
"""

import argparse
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import casimir, dynamics, jsonio, shapes, verification
from .errors import BadParams, ResdpError
from .phase_space import MINUS, PLUS
from .resonance_maps import Resonance


def _default_seed():
    text = os.environ.get("RESDP_SEED", "42")
    try:
        return int(text)
    except ValueError:
        raise BadParams(f"RESDP_SEED must be an integer, got {text!r}") from None


def _parse_floats(text, count, name):
    parts = text.split(",")
    if len(parts) != count:
        raise BadParams(f"{name} needs {count} comma-separated numbers, got {text!r}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise BadParams(f"cannot parse {name}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise BadParams(f"{name} needs finite numbers, got {text!r}")
    return values


def _resonance(args):
    try:
        return Resonance(args.n, args.m, args.sign)
    except ValueError as exc:
        raise BadParams(str(exc)) from None


def _add_resonance_flags(parser):
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--sign", choices=[PLUS, MINUS], default=PLUS)


def _write_report(report_dict, path):
    report_dict = dict(report_dict)
    report_dict["timestamp"] = datetime.now(timezone.utc).isoformat()
    try:
        text = jsonio.dumps(report_dict, indent=2)
    except ValueError as exc:
        raise ResdpError(f"cannot write {path}: {exc}") from None
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _cmd_casimir(args):
    res = _resonance(args)
    point = _parse_floats(args.point, 3, "--point")
    ev = casimir.solve_casimir(res, point)
    print(f"value {jsonio.format_float(ev.value)}")
    print("gradient " + " ".join(jsonio.format_float(g) for g in ev.gradient))
    print(f"iterations {ev.iterations}")
    print(f"residual {jsonio.format_float(ev.residual)}")
    if args.json:
        _write_report({
            "check": "casimir-eval", "n": res.n, "m": res.m, "sign": res.sign,
            "point": [float(c) for c in point], "value": ev.value,
            "gradient": [float(g) for g in ev.gradient],
            "iterations": ev.iterations, "residual": ev.residual,
        }, args.json)
    return 0


def _with_suffix(path, suffix):
    root, ext = os.path.splitext(path)
    return f"{root}_{suffix}{ext}"


def _cmd_curve(args):
    res = _resonance(args)
    curves = shapes.generating_curve(res, args.c, args.samples,
                                     delta=args.delta, z_max=args.zmax)
    shapes.export(curves[0], "csv", args.out)
    written = [args.out]
    for extra in curves[1:]:
        path = _with_suffix(args.out, extra.label)
        shapes.export(extra, "csv", path)
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_mesh(args):
    res = _resonance(args)
    meshes = shapes.surface_mesh(res, args.c, args.slices, args.rings,
                                 z_max=args.zmax, delta=args.delta)
    merged = shapes.merge_meshes(meshes)
    shapes.export(merged, "obj", args.out)
    print(f"wrote {args.out} ({len(merged.vertices)} vertices, "
          f"{len(merged.triangles)} triangles, {len(meshes)} component(s))")
    return 0


def _write_trajectory_csv(path, traj, state_names):
    names = ["t"] + state_names + list(traj.conserved)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        jsonio.write_rows(fh, np.column_stack([traj.times, traj.states,
                                               *traj.conserved.values()]), ",")


def _cmd_flow(args):
    res = _resonance(args)
    try:
        dynamics._step_count(args.dt, args.T)
    except ValueError as exc:
        raise BadParams(f"{exc}, got --dt {args.dt} and --T {args.T}") from None
    if args.level == "upstairs":
        a0 = _parse_floats(args.a0, 4, "--a0")
        if args.hamiltonian == "R":
            ham = dynamics.field_R(res)
        else:
            coeff = {"X": "alpha", "Y": "beta", "Z": "gamma"}[args.hamiltonian]
            ham = dynamics.pullback(res, dynamics.DownstairsHamiltonian(**{coeff: 1.0}))
        traj = dynamics.flow_upstairs(res.sign, ham, a0, args.dt, args.T)
        _write_trajectory_csv(args.out, traj, ["x1", "y1", "x2", "y2"])
    else:
        p0 = _parse_floats(args.p0, 3, "--p0")
        coeffs = {k: getattr(args, k) for k in ("alpha", "beta", "gamma")}
        for k, v in coeffs.items():
            if not np.isfinite(v):
                raise BadParams(f"need a finite --{k}, got {v}")
        ham = dynamics.DownstairsHamiltonian(**coeffs)
        traj = dynamics.flow_downstairs(res, ham, p0, args.dt, args.T)
        _write_trajectory_csv(args.out, traj, ["x", "y", "z"])
    print(f"wrote {args.out} ({len(traj.times)} rows)")
    return 0


def _print_report(report):
    status = "PASS" if report.passed else "FAIL"
    head = f"[{status}] {report.check} n={report.n} m={report.m} sign={report.sign}"
    print(f"{head} max_defect={report.max_defect:.3e} (samples={report.samples}, "
          f"seed={report.seed})")
    for d in report.details:
        mark = "ok " if d["pass"] else "BAD"
        print(f"  {mark} {d['name']}: defect {d['defect']:.3e} vs tol {d['tolerance']:.3e}")


def _cmd_verify(args):
    seed = args.seed if args.seed is not None else _default_seed()
    if seed < 0:
        raise BadParams(f"need a seed >= 0, got {seed}")
    if args.tol is not None and not 0.0 < args.tol < np.inf:
        raise BadParams(f"need a finite --tol > 0, got {args.tol}")
    if args.what == "all":
        if args.samples is not None or args.tol is not None:
            raise BadParams("verify all runs its own sample counts and tolerances; "
                            "drop --samples and --tol")
        reports = verification.run_all(seed=seed)
        for rep in reports:
            _print_report(rep)
        summary = verification.summarize(reports, seed)
        if args.json:
            _write_report(summary.to_dict(), args.json)
        print(f"verify all: {'PASS' if summary.passed else 'FAIL'} ({len(reports)} reports)")
        return 0 if summary.passed else 1
    if args.samples is not None and args.samples < 1:
        raise BadParams(f"need --samples >= 1, got {args.samples}")
    res = _resonance(args)
    # Without --samples the check runs its own default, its `verify all` count.
    counts = {} if args.samples is None else {"samples": args.samples}
    report = verification.CHECKS[args.what](res, seed=seed, tol=args.tol, **counts)
    _print_report(report)
    if args.json:
        _write_report(report.to_dict(), args.json)
    return 0 if report.passed else 1


def _parser():
    parser = argparse.ArgumentParser(
        prog="resdp",
        description="Resonant-oscillator dual pairs: Casimir queries, Kummer "
                    "shape geometry, Hamiltonian flows, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("casimir", help="evaluate the implicit Casimir at a point")
    _add_resonance_flags(p)
    p.add_argument("--point", required=True, help="x,y,z")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_casimir)

    p = sub.add_parser("curve", help="export a generating curve as CSV")
    _add_resonance_flags(p)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--delta", type=float, default=shapes.DEFAULT_DELTA)
    p.add_argument("--zmax", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("mesh", help="export a surface of revolution as OBJ")
    _add_resonance_flags(p)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--slices", type=int, default=64)
    p.add_argument("--rings", type=int, default=32)
    p.add_argument("--delta", type=float, default=shapes.DEFAULT_DELTA)
    p.add_argument("--zmax", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("flow", help="integrate a Hamiltonian flow to CSV")
    p.add_argument("level", choices=["upstairs", "downstairs"])
    _add_resonance_flags(p)
    p.add_argument("--a0", default="1,0,1,0", help="x1,y1,x2,y2 (upstairs)")
    p.add_argument("--p0", default="1,0,0", help="x,y,z (downstairs)")
    p.add_argument("--hamiltonian", choices=["R", "X", "Y", "Z"], default="Z")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("verify", help="run a verification check")
    p.add_argument("what", choices=sorted(verification.CHECKS) + ["all"])
    _add_resonance_flags(p)
    p.add_argument("--samples", type=int, default=None,
                   help="sample count of a single check (default: the check's "
                        "`verify all` count)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


# argparse takes a token that starts with "-" as an option's value only in
# the forms -N and -N.N; a value such as -1,0,1 or -1e-3 is joined to its
# option as --opt=value.  Every long option but --help takes a value.
_VALUE_OPTION = re.compile(r"--(?!help$)[^=]+")
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _join_negative_values(argv):
    out = []
    for token in argv:
        if (out and _VALUE_OPTION.fullmatch(out[-1]) and _NEGATIVE_VALUE.match(token)
                and "--" not in out):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    try:
        args = _parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        return args.func(args)
    except BadParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResdpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
