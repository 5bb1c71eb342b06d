import numpy as np
import pytest

from resdp import casimir, jsonio, shapes
from resdp.errors import BadParams
from resdp.resonance_maps import Resonance


class TestGeneratingCurve:
    def test_one_one_is_circle_arc(self):
        [curve] = shapes.generating_curve(Resonance(1, 1), 1.0, 100)
        y, z = curve.points[:, 0], curve.points[:, 1]
        assert np.max(np.abs(y * y + z * z - 1.0)) < 1e-10
        assert len(curve.points) == 100

    def test_vertex_residuals_random_orders(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            c = rng.uniform(0.5, 2.0)
            [curve] = shapes.generating_curve(Resonance(n, m), c, 60)
            y, z = curve.points[:, 0], curve.points[:, 1]
            resid = y * y - casimir.kummer_product(Resonance(n, m), c, z)
            assert np.max(np.abs(resid)) < 1e-10 * (1 + c * c)

    def test_minus_odd_parity_has_single_sheet(self):
        curves = shapes.generating_curve(Resonance(2, 1, "minus"), 1.0, 50)
        assert len(curves) == 1
        assert curves[0].label == "upper"

    def test_minus_one_one_hyperbola(self):
        curves = shapes.generating_curve(Resonance(1, 1, "minus"), 1.0, 50)
        assert len(curves) == 2
        for curve in curves:
            y, z = curve.points[:, 0], curve.points[:, 1]
            assert np.max(np.abs(y * y - (z * z - 1.0))) < 1e-10

    def test_parity_rule_full_grid(self):
        for n in range(1, 6):
            for m in range(1, 6):
                curves = shapes.generating_curve(Resonance(n, m, "minus"), 1.0, 16)
                expected = 2 if (n + m) % 2 == 0 else 1
                assert len(curves) == expected

    def test_bad_params(self):
        with pytest.raises(BadParams):
            shapes.generating_curve(Resonance(1, 1), 0.0, 10)
        with pytest.raises(BadParams):
            shapes.generating_curve(Resonance(1, 1), 1.0, 1)
        with pytest.raises(BadParams):
            shapes.generating_curve(Resonance(1, 1, "minus"), 1.0, 10, z_max=0.5)


class TestSurfaceMesh:
    def test_one_one_is_round_sphere(self):
        [mesh] = shapes.surface_mesh(Resonance(1, 1), 1.0, slices=32, rings=17)
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-8

    def test_pole_caps_sit_exactly_on_axis_ends(self):
        c = 1.7
        [mesh] = shapes.surface_mesh(Resonance(3, 2), c, slices=16, rings=9)
        on_axis = mesh.vertices[np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
                                < 1e-9 * (1 + c)]
        assert len(on_axis) == 2
        assert sorted(on_axis[:, 2]) == [-c, c]
        # every triangle references valid vertices
        assert mesh.triangles.min() >= 0
        assert mesh.triangles.max() < len(mesh.vertices)

    @pytest.mark.parametrize("n,m,c", [(3, 2, 1.0), (4, 1, 0.8), (2, 2, 2.5)])
    def test_bounded_residuals(self, n, m, c):
        res = Resonance(n, m)
        [mesh] = shapes.surface_mesh(res, c, slices=24, rings=12)
        assert shapes.mesh_residual(res, c, mesh) < 1e-8 * (1 + c * c)

    def test_minus_same_parity_two_sheets(self):
        res = Resonance(4, 2, "minus")
        meshes = shapes.surface_mesh(res, 1.0, slices=24, rings=12)
        assert len(meshes) == 2
        for mesh in meshes:
            assert shapes.mesh_residual(res, 1.0, mesh) < 1e-8 * 2
        zs = [np.sign(mesh.vertices[:, 2]) for mesh in meshes]
        assert np.all(zs[0] > 0) and np.all(zs[1] < 0)

    def test_casimir_consistency_on_vertices(self):
        rng = np.random.default_rng(1)
        for res, c in [(Resonance(2, 1), 1.0), (Resonance(3, 3), 1.5),
                       (Resonance(2, 1, "minus"), 1.0), (Resonance(1, 1, "minus"), 1.0)]:
            meshes = shapes.surface_mesh(res, c, slices=24, rings=12)
            verts = np.vstack([mesh.vertices for mesh in meshes])
            keep = verts[casimir.in_leaf_domain(res, verts)]
            sample = rng.choice(len(keep), size=min(100, len(keep)), replace=False)
            got = casimir.solve_casimir(res, keep[sample]).value
            assert got == pytest.approx(c, rel=1e-8)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            shapes.surface_mesh(Resonance(1, 1), 1.0, slices=2, rings=8)
        with pytest.raises(BadParams):
            shapes.surface_mesh(Resonance(1, 1), 1.0, slices=8, rings=1)
        with pytest.raises(BadParams):
            shapes.surface_mesh(Resonance(1, 1), -1.0, slices=8, rings=4)

    def test_merge_offsets_indices(self):
        meshes = shapes.surface_mesh(Resonance(1, 1, "minus"), 1.0, slices=8, rings=4)
        merged = shapes.merge_meshes(meshes)
        assert len(merged.vertices) == sum(len(m.vertices) for m in meshes)
        assert len(merged.triangles) == sum(len(m.triangles) for m in meshes)
        assert merged.triangles.max() == len(merged.vertices) - 1


class TestExport:
    def test_polyline_csv_roundtrip_bitexact(self, tmp_path):
        [curve] = shapes.generating_curve(Resonance(3, 2), 1.3, 40)
        path = tmp_path / "curve.csv"
        shapes.export(curve, "csv", path)
        text = path.read_text().splitlines()
        assert text[0] == "y,z"
        parsed = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
        assert np.array_equal(parsed, curve.points)

    def test_mesh_obj_format(self, tmp_path):
        [mesh] = shapes.surface_mesh(Resonance(1, 1), 1.0, slices=8, rings=5)
        path = tmp_path / "mesh.obj"
        shapes.export(mesh, "obj", path)
        lines = path.read_text().splitlines()
        vlines = [l for l in lines if l.startswith("v ")]
        flines = [l for l in lines if l.startswith("f ")]
        assert len(vlines) == len(mesh.vertices)
        assert len(flines) == len(mesh.triangles)
        parsed = np.array([[float(v) for v in l.split()[1:]] for l in vlines])
        assert np.array_equal(parsed, mesh.vertices)
        indices = np.array([[int(v) for v in l.split()[1:]] for l in flines])
        assert indices.min() == 1
        assert indices.max() == len(mesh.vertices)

    def test_mesh_csv_vertices(self, tmp_path):
        [mesh] = shapes.surface_mesh(Resonance(2, 1), 1.0, slices=6, rings=4)
        path = tmp_path / "mesh.csv"
        shapes.export(mesh, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,z"
        assert len(lines) == len(mesh.vertices) + 1

    def test_empty_mesh_header_only(self, tmp_path):
        empty = shapes.TriangleMesh(vertices=np.zeros((0, 3)),
                                    triangles=np.zeros((0, 3), dtype=int))
        path = tmp_path / "empty.csv"
        shapes.export(empty, "csv", path)
        assert path.read_text() == "x,y,z\n"
        path = tmp_path / "empty.obj"
        shapes.export(empty, "obj", path)
        assert path.read_text() == ""

    def test_unknown_format_rejected(self, tmp_path):
        [curve] = shapes.generating_curve(Resonance(1, 1), 1.0, 10)
        with pytest.raises(BadParams):
            shapes.export(curve, "stl", tmp_path / "x.stl")

    def test_lf_line_endings(self, tmp_path):
        [curve] = shapes.generating_curve(Resonance(1, 1), 1.0, 10)
        path = tmp_path / "curve.csv"
        shapes.export(curve, "csv", path)
        raw = path.read_bytes()
        assert b"\r" not in raw


def _reference_revolve(profile, slices, close_bottom=None, close_top=None):
    """The per-triangle loops that _revolve replaced, kept as its oracle."""
    theta = 2.0 * np.pi * np.arange(slices) / slices
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    vertices = np.vstack([np.column_stack([rho * cos_t, rho * sin_t, np.full(slices, z)])
                          for rho, z in profile])
    rings = len(profile)
    tris = []
    for i in range(rings - 1):
        base, nxt = i * slices, (i + 1) * slices
        for j in range(slices):
            k = (j + 1) % slices
            tris.append([base + j, base + k, nxt + k])
            tris.append([base + j, nxt + k, nxt + j])
    if close_bottom is not None:
        apex = len(vertices)
        vertices = np.vstack([vertices, close_bottom])
        for j in range(slices):
            tris.append([apex, (j + 1) % slices, j])
    if close_top is not None:
        apex = len(vertices)
        vertices = np.vstack([vertices, close_top])
        top = (rings - 1) * slices
        for j in range(slices):
            tris.append([apex, top + j, top + (j + 1) % slices])
    return vertices, np.array(tris, dtype=int)


def _reference_export(geometry, fmt, path):
    """The per-row writer loops that export replaced, kept as its byte oracle."""
    with open(path, "w", newline="\n") as fh:
        if isinstance(geometry, shapes.Polyline):
            if fmt == "csv":
                fh.write("y,z\n")
                for y, z in geometry.points:
                    fh.write(f"{jsonio.format_float(y)},{jsonio.format_float(z)}\n")
            else:
                for y, z in geometry.points:
                    fh.write(f"v 0 {jsonio.format_float(y)} {jsonio.format_float(z)}\n")
                if len(geometry.points) > 1:
                    fh.write("l " + " ".join(str(i + 1) for i in range(len(geometry.points)))
                             + "\n")
        elif fmt == "csv":
            fh.write("x,y,z\n")
            for x, y, z in geometry.vertices:
                fh.write(f"{jsonio.format_float(x)},{jsonio.format_float(y)},"
                         f"{jsonio.format_float(z)}\n")
        else:
            for x, y, z in geometry.vertices:
                fh.write(f"v {jsonio.format_float(x)} {jsonio.format_float(y)} "
                         f"{jsonio.format_float(z)}\n")
            for i, j, k in geometry.triangles:
                fh.write(f"f {i + 1} {j + 1} {k + 1}\n")


class TestAgainstLoopReference:
    def test_bounded_revolve_with_caps(self):
        c = 1.3
        [curve] = shapes.generating_curve(Resonance(3, 2), c, 9)
        mesh = shapes._revolve(curve.points, 7, "bounded", cap=c)
        vertices, triangles = _reference_revolve(curve.points, 7, np.array([0.0, 0.0, -c]),
                                                 np.array([0.0, 0.0, c]))
        assert np.array_equal(mesh.vertices, vertices)
        assert mesh.triangles.dtype == triangles.dtype
        assert np.array_equal(mesh.triangles, triangles)

    def test_unbounded_revolve_open_tube(self):
        curves = shapes.generating_curve(Resonance(2, 4, "minus"), 0.8, 6)
        for curve in curves:
            mesh = shapes._revolve(curve.points, 5, curve.label)
            vertices, triangles = _reference_revolve(curve.points, 5)
            assert np.array_equal(mesh.vertices, vertices)
            assert mesh.triangles.dtype == triangles.dtype
            assert np.array_equal(mesh.triangles, triangles)

    # Many writer blocks and a partial last one.
    @pytest.mark.parametrize("fmt", ["csv", "obj"])
    @pytest.mark.parametrize("kind", ["curve", "mesh"])
    def test_export_bytes_match_row_loops(self, kind, fmt, tmp_path):
        res = Resonance(2, 2, "minus")
        if kind == "curve":
            geometry = shapes.generating_curve(res, 1.1, 4500)[1]
        else:
            geometry = shapes.merge_meshes(shapes.surface_mesh(res, 1.1, slices=40, rings=60))
            assert len(geometry.vertices) > 4096
        shapes.export(geometry, fmt, tmp_path / "got")
        _reference_export(geometry, fmt, tmp_path / "want")
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()

    # Exactly one writer block of vertices (and of curve points).
    @pytest.mark.parametrize("fmt", ["csv", "obj"])
    @pytest.mark.parametrize("kind", ["curve", "mesh"])
    def test_export_of_exactly_one_block_matches_row_loops(self, kind, fmt, tmp_path):
        res = Resonance(2, 1, "minus")
        if kind == "curve":
            [geometry] = shapes.generating_curve(res, 0.9, jsonio._BLOCK_ROWS)
            assert len(geometry.points) == jsonio._BLOCK_ROWS
        else:
            [geometry] = shapes.surface_mesh(res, 0.9, slices=16, rings=jsonio._BLOCK_ROWS // 16)
            assert len(geometry.vertices) == jsonio._BLOCK_ROWS
        shapes.export(geometry, fmt, tmp_path / "got")
        _reference_export(geometry, fmt, tmp_path / "want")
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
