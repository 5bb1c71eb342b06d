"""The benchmark's four workloads: inputs from a seed, items, and output checks.

A workload holds a list of items (its inputs) that the runner cycles through
in a closed loop.  ``run`` is the timed call into resdp.  ``check`` verifies
one output against the repository's own tolerances and returns an Outcome.
The first ``pass_len`` items form the first pass, which every run completes;
the fingerprint and the headroom are taken over it, so both are fixed for a
given seed.
"""

import hashlib
import json
import os
import random
from dataclasses import dataclass

import numpy as np

from resdp import dual_pair, dynamics, jsonio, phase_space, resonance_maps, shapes, verification
from resdp.resonance_maps import Resonance

# The unwrapped serializer, for output digests that must not show up as
# spans of the traced run.
_dumps = jsonio.dumps

GRID = [(n, m, sign) for n in (1, 2, 3, 4) for m in (1, 2, 3, 4) for sign in ("plus", "minus")]
TINY_GRID = [(1, 1, "plus"), (1, 1, "minus"), (2, 1, "plus"), (2, 1, "minus")]

# Sample counts of `resdp verify all`, fixed here so the workload stays the
# same when the library's defaults move.
VERIFY_ALL_SAMPLES = {
    "identity": 2000, "casimir": 400, "bracket-table": 200, "dual-pair": 60,
    "leaf-correspondence": 60, "integrability": 12, "jacobi": 6, "equivariance": 200,
    "transitivity": 200, "conservation": 50, "pushforward": 1,
}

LEAF_LEVELS = (0.5, 1.5, 3.0)


@dataclass
class Outcome:
    """Checked result of one item."""

    ok: bool
    units: int
    ratio: float
    digest: bytes


def _check_fn(name):
    # Through the module attribute, so the traced run sees its wrapper.
    return getattr(verification, verification.CHECKS[name].__name__)


def _report_outcome(report, units, ratio=None):
    ratio = report.max_defect if ratio is None else ratio
    return Outcome(ok=bool(report.passed) and ratio <= 1.0, units=units, ratio=float(ratio),
                   digest=_dumps(report.to_dict()).encode())


class CertifyGrid:
    """Every verification check on every grid cell, as `resdp verify all --seed <seed>`."""

    unit = "reports"

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        cells = random.Random(f"certify-grid:{seed}").sample(TINY_GRID if tiny else GRID,
                                                             len(TINY_GRID if tiny else GRID))
        scale = 10 if tiny else 1
        self.items = [(check, cell, max(1, VERIFY_ALL_SAMPLES[check] // scale))
                      for cell in cells for check in sorted(VERIFY_ALL_SAMPLES)]
        self.pass_len = len(self.items)

    def run(self, item):
        check, cell, samples = item
        return _check_fn(check)(Resonance(*cell), samples=samples, seed=self.seed)

    def check(self, item, report):
        return _report_outcome(report, 1)

    def finish_pass(self, reports):
        """Serialize the pass as `verify all --json` does, without the timestamp."""
        reports = sorted(reports, key=lambda r: (r.check, r.n, r.m, r.sign))
        return jsonio.dumps({
            "check": "all", "n": None, "m": None, "sign": None,
            "samples": sum(r.samples for r in reports), "seed": self.seed,
            "tolerance": 1.0, "max_defect": max(r.max_defect for r in reports),
            "pass": all(r.passed for r in reports),
            "details": [r.to_dict() for r in reports],
        }, indent=2)

    def check_pass(self, reports, text):
        doc = json.loads(text)
        ok = len(doc["details"]) == len(reports) and doc["pass"] is True
        return Outcome(ok=ok, units=0, ratio=0.0, digest=text.encode())


class CasimirBatch:
    """Bulk Casimir queries: the casimir and leaf-correspondence checks at large counts."""

    unit = "points"

    def __init__(self, seed, tiny, workdir):
        rng = random.Random(f"casimir-batch:{seed}")
        cells = TINY_GRID if tiny else GRID
        counts = {"casimir": 200, "leaf-correspondence": 60} if tiny \
            else {"casimir": 2000, "leaf-correspondence": 600}
        self.items = [(check, cell, counts[check], rng.randrange(1 << 30))
                      for cell in rng.sample(cells, len(cells)) for check in sorted(counts)]
        self.pass_len = len(self.items)

    def run(self, item):
        check, cell, samples, seed = item
        return _check_fn(check)(Resonance(*cell), samples=samples, seed=seed)

    def check(self, item, report):
        check, _, samples, _ = item
        ratio = None
        if check == "leaf-correspondence":
            # Leaf deviation at level c must stay within 1e-9 (1 + c).
            ratio = max(d["defect"] / (1e-9 * (1.0 + c))
                        for d, c in zip(report.details, LEAF_LEVELS))
        out = _report_outcome(report, samples, ratio)
        out.digest = _dumps([d["defect"] for d in report.details]).encode()
        return out


def _flow_start_points(res, count, seed, c=1.5):
    """Fiber points well inside the domain and away from the leaf poles.

    Same acceptance rule as the pushforward check of the verification suite:
    both moduli keep a gap from zero, and minus points keep a margin from the
    domain boundary (the band is thin when n < m, so the rule adapts).  It is
    written out here so that the benchmark uses only public resdp functions.
    """
    gap_floor, margin = 0.3 * c, 0.5
    if res.sign == "minus" and res.n < res.m:
        gap_floor = min(gap_floor, 0.3 * res.m * dual_pair.minus_fiber_s_max(res, c))
        margin = 0.9
    out = []
    for attempt in range(50):
        for a in dual_pair.fiber_sample(res, c, 4 * count, seed=seed + 101 * attempt):
            a1, a2 = phase_space.to_complex(a)
            m1, m2 = res.n * float(abs(a1)) ** 2, res.m * float(abs(a2)) ** 2
            if min(m1, m2) < gap_floor:
                continue
            bound = margin * (0.5 * (m1 + m2)) ** (res.n + res.m)
            if res.sign == "minus" and m1 ** res.m * m2 ** res.n > bound:
                continue
            out.append(resonance_maps.leaf_map(res, a))
            if len(out) == count:
                return out
    raise RuntimeError(f"no {count} flow start points for {res}")


class FlowLong:
    """Long downstairs trajectories (dt 1e-3, T 10) on the n, m <= 3 cells."""

    unit = "steps"
    dt = 1e-3
    points_per_cell = 8

    def __init__(self, seed, tiny, workdir):
        rng = random.Random(f"flow-long:{seed}")
        cells = [(n, m, s) for n, m, s in (TINY_GRID[:2] if tiny else GRID) if max(n, m) <= 3]
        cells = rng.sample(cells, len(cells))
        self.total_time = 0.1 if tiny else 10.0
        starts = {}
        for cell in cells:
            res = Resonance(*cell)
            starts[cell] = _flow_start_points(res, self.points_per_cell, rng.randrange(1 << 30))
        # The two Hamiltonians of the acceptance suite.  The tilted one stays on
        # the closed bounded leaves; on an unbounded leaf its orbit can run into
        # the pole (3:-1, seed 11 left the domain at t = 1.03), so the minus
        # cells use the rotation about the z axis, which keeps to the leaf.
        tilted = dynamics.DownstairsHamiltonian(alpha=0.1, gamma=1.0)
        rotation = dynamics.DownstairsHamiltonian(gamma=1.0)
        self.items = [(cell, starts[cell][j], tilted if cell[2] == "plus" else rotation)
                      for j in range(self.points_per_cell) for cell in cells]
        self.pass_len = len(cells)

    def run(self, item):
        cell, p0, ham = item
        return dynamics.flow_downstairs(Resonance(*cell), ham, p0, self.dt, self.total_time)

    def check(self, item, traj):
        c_log = traj.conserved["C"]
        drift = float(np.max(np.abs(c_log - c_log[0])))
        ok = bool(np.all(np.isfinite(traj.states))) and drift < 1e-6
        return Outcome(ok=ok, units=len(traj.times) - 1, ratio=drift / 1e-6,
                       digest=traj.states[-1].tobytes() + c_log.tobytes())


class ShapeExport:
    """Generating curves and surface meshes of every grid cell, exported to files."""

    unit = "triangles"

    def __init__(self, seed, tiny, workdir):
        rng = random.Random(f"shape-export:{seed}")
        cells = TINY_GRID if tiny else GRID
        self.slices, self.rings, self.curve_samples = (16, 8, 32) if tiny else (256, 128, 1024)
        self.items = [(cell, rng.uniform(0.5, 2.0)) for cell in rng.sample(cells, len(cells))]
        self.pass_len = len(self.items)
        self.workdir = workdir

    def _paths(self, cell, count):
        stem = os.path.join(self.workdir, "{}_{}_{}".format(*cell))
        return [f"{stem}_curve{k}.csv" for k in range(count)], f"{stem}.obj"

    def run(self, item):
        cell, c = item
        res = Resonance(*cell)
        curves = shapes.generating_curve(res, c, self.curve_samples)
        meshes = shapes.surface_mesh(res, c, self.slices, self.rings)
        merged = shapes.merge_meshes(meshes)
        curve_paths, mesh_path = self._paths(cell, len(curves))
        for curve, path in zip(curves, curve_paths):
            shapes.export(curve, "csv", path)
        shapes.export(merged, "obj", mesh_path)
        return curves, meshes, merged

    def check(self, item, out):
        cell, c = item
        curves, meshes, merged = out
        res = Resonance(*cell)
        s, r = self.slices, self.rings
        bounded = res.sign == "plus"
        sheets = 1 if bounded else (2 if shapes.has_lower_sheet(res) else 1)
        per_sheet = 2 * s * (r - 1) + (2 * s if bounded else 0)
        ok = len(meshes) == sheets and len(curves) == sheets
        ok &= all(len(mesh.triangles) == per_sheet for mesh in meshes)
        ok &= len(merged.triangles) == sheets * per_sheet
        ratio = max(shapes.mesh_residual(res, c, mesh) / (1e-8 * (1.0 + c * c)) for mesh in meshes)
        digest = hashlib.sha256()
        curve_paths, mesh_path = self._paths(cell, len(curves))
        for path in curve_paths:
            with open(path, "rb") as fh:
                data = fh.read()
            ok &= data.count(b"\n") == self.curve_samples + 1
            digest.update(data)
        with open(mesh_path, "rb") as fh:
            data = fh.read()
        vertex_lines = data.count(b"\nv ") + data.startswith(b"v ")
        ok &= vertex_lines == len(merged.vertices) and data.count(b"\nf ") == len(merged.triangles)
        digest.update(data)
        return Outcome(ok=bool(ok) and ratio <= 1.0, units=len(merged.triangles), ratio=ratio,
                       digest=digest.digest())


WORKLOADS = {
    "certify-grid": CertifyGrid,
    "casimir-batch": CasimirBatch,
    "flow-long": FlowLong,
    "shape-export": ShapeExport,
}
