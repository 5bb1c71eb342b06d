"""Generating curves and surfaces of revolution for the Kummer shape families.

Bounded shapes (n:m) live in |z| < c and close up at two poles on the z
axis; the generating curve is sampled with cosine spacing so the cusp-like
poles are well resolved, and the mesh is capped with small fans whose apex
sits exactly at (0, 0, +/-c), where the defining polynomial vanishes
identically.  Unbounded shapes (n:-m) live in |z| > c; the lower sheet
exists exactly when n and m have equal parity, and meshes are truncated at
a configurable |z| = z_max window.
"""

from dataclasses import dataclass

import numpy as np

from .casimir import kummer_product
from .errors import BadParams
from .jsonio import write_rows
from .phase_space import PLUS

DEFAULT_DELTA = 1e-6

# Relative clearance every emitted vertex keeps from the Oz axis (pole-cap
# apexes excepted); the pole insets are widened until the cusp radius beats
# this with a factor-10 safety margin.
AXIS_MARGIN = 1e-9


@dataclass(frozen=True)
class Polyline:
    """Ordered (y, z) samples of a generating curve."""

    points: np.ndarray
    label: str = ""


@dataclass(frozen=True)
class TriangleMesh:
    """Vertex array (V, 3) plus 0-based triangle index array (T, 3)."""

    vertices: np.ndarray
    triangles: np.ndarray
    label: str = ""


def has_lower_sheet(res):
    """Unbounded shapes have a z < -c component iff n and m share parity."""
    return (res.n + res.m) % 2 == 0


def _pole_insets(res, c, delta):
    """Insets (g_top, g_bot) of the bounded curve's ends from the poles z = c and z = -c.

    The curve has a cusp of order max(n, m)/2 at each pole, so each inset is
    widened from c delta until the end radius clears the axis margin.
    """
    tau = 10.0 * AXIS_MARGIN * (1.0 + c)
    try:
        g_top = max(c * delta, res.m * (tau * tau * (res.n / (2.0 * c)) ** res.m) ** (1.0 / res.n))
        g_bot = max(c * delta, res.n * (tau * tau * (res.m / (2.0 * c)) ** res.n) ** (1.0 / res.m))
    except OverflowError:
        raise BadParams(f"the pole insets of {res.n}:{res.m} overflow at c = {c}") from None
    return g_top, g_bot


def _check_geometry_params(res, c, samples, delta, z_max):
    for name, value in (("c", c), ("delta", delta), ("z_max", z_max)):
        if value is not None and not np.isfinite(value):
            raise BadParams(f"need a finite {name}, got {value}")
    if c <= 0.0:
        raise BadParams(f"need c > 0, got {c}")
    if delta < 0.0:
        raise BadParams(f"need delta >= 0, got {delta}")
    if samples < 2:
        raise BadParams(f"need at least 2 samples, got {samples}")
    if res.sign == PLUS and sum(_pole_insets(res, c, delta)) >= 2.0 * c:
        raise BadParams(f"the pole insets of {res.n}:{res.m} at c = {c} and delta = {delta} "
                        f"leave no curve between the poles")


def generating_curve(res, c, samples, delta=DEFAULT_DELTA, z_max=None):
    """Sample the generating curve(s) of the shape at level c.

    Returns a list of Polylines: one for the bounded family, one or two
    (upper sheet, then lower sheet when present) for the unbounded family.
    """
    if res.sign != PLUS and z_max is None:
        z_max = 3.0 * c
    _check_geometry_params(res, c, samples, delta, z_max)
    if res.sign == PLUS:
        g_top, g_bot = _pole_insets(res, c, delta)
        mid = 0.5 * ((c - g_top) + (-c + g_bot))
        half = 0.5 * ((c - g_top) - (-c + g_bot))
        sheets = {"bounded": mid - half * np.cos(np.pi * np.arange(samples) / (samples - 1))}
    else:
        lo = c * (1.0 + delta)
        if z_max <= lo:
            raise BadParams(f"need z_max > c(1+delta), got {z_max}")
        sheets = {"upper": np.linspace(lo, z_max, samples)}
        if has_lower_sheet(res):
            sheets["lower"] = np.linspace(-z_max, -lo, samples)
    return [Polyline(np.column_stack([_radius(res, c, z), z]), label=label)
            for label, z in sheets.items()]


def _radius(res, c, z):
    """The curve radius sqrt(K(c, z)) at heights z; BadParams where K overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        k = kummer_product(res, c, z)
    if not np.all(np.isfinite(k)):
        raise BadParams(f"the Kummer product of {res.n}:{res.m} overflows at c = {c}")
    return np.sqrt(k)


def _revolve(profile, slices, label, cap=None):
    """Revolve a (radius, z) profile around the z axis into a triangle mesh.

    Ring i starts at vertex b = i * slices and the next ring at n = b +
    slices; slice j, with k = (j + 1) mod slices, gives the triangles
    (b+j, b+k, n+k) and (b+j, n+k, n+j).  cap=c appends the apexes
    (0, 0, -c) and (0, 0, c) and closes the tube with a fan about each.
    """
    rings = len(profile)
    theta = 2.0 * np.pi * np.arange(slices) / slices
    vertices = np.column_stack([np.outer(profile[:, 0], np.cos(theta)).ravel(),
                                np.outer(profile[:, 0], np.sin(theta)).ravel(),
                                np.repeat(profile[:, 1], slices)])
    j = np.arange(slices)
    k = (j + 1) % slices
    b = slices * np.arange(rings - 1)[:, None]
    n = b + slices
    bands = np.stack([b + j, b + k, n + k, b + j, n + k, n + j], axis=-1)
    triangles = bands.reshape(-1, 3)
    if cap is not None:
        apex = len(vertices)
        top = (rings - 1) * slices
        vertices = np.vstack([vertices, [[0.0, 0.0, -cap], [0.0, 0.0, cap]]])
        triangles = np.vstack([triangles,
                               np.column_stack([np.full(slices, apex), k, j]),
                               np.column_stack([np.full(slices, apex + 1), top + j, top + k])])
    return TriangleMesh(vertices=vertices, triangles=triangles, label=label)


def surface_mesh(res, c, slices, rings, z_max=None, delta=DEFAULT_DELTA):
    """Mesh the shape at level c by revolving its generating curve.

    Returns a list of TriangleMeshes (one per connected component).  Bounded
    meshes are closed with polar fans; unbounded ones are open tubes.
    """
    _check_geometry_params(res, c, 2, delta, z_max)
    if slices < 3:
        raise BadParams(f"need at least 3 slices, got {slices}")
    if rings < 2:
        raise BadParams(f"need at least 2 rings, got {rings}")
    curves = generating_curve(res, c, rings, delta=delta, z_max=z_max)
    if res.sign == PLUS:
        return [_revolve(curves[0].points, slices, "bounded", cap=c)]
    return [_revolve(curve.points, slices, curve.label) for curve in curves]


def merge_meshes(meshes):
    """Concatenate mesh components into one mesh with offset indices."""
    if not meshes:
        return TriangleMesh(vertices=np.zeros((0, 3)), triangles=np.zeros((0, 3), dtype=int))
    verts, tris, offset = [], [], 0
    for mesh in meshes:
        verts.append(mesh.vertices)
        if len(mesh.triangles):
            tris.append(mesh.triangles + offset)
        offset += len(mesh.vertices)
    triangles = np.vstack(tris) if tris else np.zeros((0, 3), dtype=int)
    return TriangleMesh(vertices=np.vstack(verts), triangles=triangles,
                        label="+".join(m.label for m in meshes if m.label))


def mesh_residual(res, c, mesh):
    """Max |defining polynomial| over the mesh vertices at level c."""
    v = mesh.vertices
    vals = v[:, 0] ** 2 + v[:, 1] ** 2 - kummer_product(res, c, v[:, 2])
    return float(np.max(np.abs(vals))) if len(vals) else 0.0


def export(geometry, fmt, path):
    """Write a Polyline or TriangleMesh as CSV or OBJ.

    CSV: comma separated, header line, floats at 17 significant digits, LF
    endings.  OBJ: "v x y z" records then 1-based "f i j k" faces (meshes)
    or an "l" polyline record (curves); no normals.
    """
    if fmt not in ("csv", "obj"):
        raise BadParams(f"format must be 'csv' or 'obj', got {fmt!r}")
    if isinstance(geometry, Polyline):
        header, points = "y,z", geometry.points
        if fmt == "obj":
            points = np.column_stack([np.zeros(len(points)), points])
    elif isinstance(geometry, TriangleMesh):
        header, points = "x,y,z", geometry.vertices
    else:
        raise BadParams(f"cannot export {type(geometry).__name__}")
    with open(path, "w", newline="\n") as fh:
        if fmt == "csv":
            fh.write(header + "\n")
            write_rows(fh, points, ",")
        else:
            write_rows(fh, points, " ", "v ")
            if isinstance(geometry, TriangleMesh):
                write_rows(fh, geometry.triangles + 1, " ", "f ")
            elif len(points) > 1:
                fh.write("l " + " ".join(str(i + 1) for i in range(len(points))) + "\n")
