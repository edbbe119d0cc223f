import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divhdg.mesh import (
    TAG_INLET,
    TAG_INTERIOR,
    TAG_LID,
    TAG_OUTLET,
    TAG_WALL,
    build_mesh,
    step_domain,
    uniform_refine,
    unit_square,
)


class TestUnitSquare:
    def test_smallest_mesh_counts(self):
        m = unit_square(1)
        assert m.vertices.shape == (4, 2)
        assert m.edges.shape == (5, 2)
        assert m.triangles.shape == (2, 3)

    def test_counts_n2(self):
        m = unit_square(2)
        assert len(m.vertices) == 9
        assert len(m.edges) == 16
        assert len(m.triangles) == 8

    def test_lid_edges_n8(self):
        m = unit_square(8)
        assert len(m.triangles) == 128
        assert np.count_nonzero(m.edge_tags == TAG_LID) == 8
        lid = m.edges[m.edge_tags == TAG_LID]
        assert np.allclose(m.vertices[lid][..., 1], 1.0)

    def test_total_area(self):
        assert abs(unit_square(4).areas.sum() - 1.0) <= 1e-14

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(1, 10))
    def test_euler_formula(self, n):
        # V - E + T = 1 for a simply connected planar triangulation
        m = unit_square(n)
        assert len(m.vertices) - len(m.edges) + len(m.triangles) == 1

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(1, 10))
    def test_positive_areas_and_shape_regularity(self, n):
        m = unit_square(n)
        assert np.all(m.areas > 0)
        h = np.sqrt(m.areas)
        assert h.max() / h.min() <= 2.0


class TestStepDomain:
    def test_counts_and_area(self):
        m = step_domain(2)
        assert len(m.triangles) == 30
        assert abs(m.areas.sum() - 3.75) <= 1e-13

    def test_inlet_edge_count(self):
        # the inlet side is resolved with n/2 edges
        assert np.count_nonzero(step_domain(2).edge_tags == TAG_INLET) == 1
        assert np.count_nonzero(step_domain(4).edge_tags == TAG_INLET) == 2

    def test_has_outlet(self):
        assert np.count_nonzero(step_domain(2).edge_tags == TAG_OUTLET) >= 1

    def test_odd_n_rejected(self):
        with pytest.raises(Exception):
            step_domain(3)


class TestRefine:
    def test_triangle_count(self):
        assert len(uniform_refine(unit_square(1)).triangles) == 8

    def test_area_preserved(self):
        m = unit_square(2)
        r = uniform_refine(m)
        assert abs(r.areas.sum() - m.areas.sum()) <= 1e-14

    def test_halves_mesh_size(self):
        m = unit_square(1)
        rr = uniform_refine(uniform_refine(m))
        assert abs(m.areas.max() / rr.areas.max() - 16.0) <= 1e-10
        assert abs(m.edge_lengths.max() / rr.edge_lengths.max() - 4.0) <= 1e-10

    def test_tags_survive_refinement(self):
        m = step_domain(2)
        r = uniform_refine(m)
        assert np.count_nonzero(r.edge_tags == TAG_INLET) == 2 * np.count_nonzero(
            m.edge_tags == TAG_INLET
        )


class TestGeometry:
    @settings(max_examples=6, deadline=None)
    @given(n=st.integers(1, 6))
    def test_boundary_normal_closure(self, n):
        # closed boundary: sum of length-weighted outward normals vanishes
        m = unit_square(n)
        bnd = m.edge_tags != TAG_INTERIOR
        total = (m.normals[bnd] * m.edge_lengths[bnd, None]).sum(axis=0)
        assert np.max(np.abs(total)) <= 1e-13

    def test_normals_unit_and_orthogonal_to_tangents(self):
        m = step_domain(4)
        assert np.allclose(np.linalg.norm(m.normals, axis=1), 1.0, atol=1e-13)
        assert np.allclose((m.normals * m.tangents).sum(axis=1), 0.0, atol=1e-13)

    def test_edge_lengths_match_vertices(self):
        m = unit_square(3)
        vec = m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]]
        assert np.allclose(np.linalg.norm(vec, axis=1), m.edge_lengths, atol=1e-13)

    def test_det_j_is_twice_area(self):
        m = unit_square(3)
        assert np.allclose(m.det_j, 2.0 * m.areas, atol=1e-14)

    def test_tagged_edges_lie_on_their_segments(self):
        m = unit_square(3)
        lid = m.edge_tags == TAG_LID
        assert np.allclose(m.vertices[m.edges[lid]][..., 1], 1.0, atol=1e-13)
        wall = m.edge_tags == TAG_WALL
        pts = m.vertices[m.edges[wall]]
        on_side = (
            (np.abs(pts[..., 0]) <= 1e-13)
            | (np.abs(pts[..., 0] - 1.0) <= 1e-13)
            | (np.abs(pts[..., 1]) <= 1e-13)
        )
        assert np.all(on_side.all(axis=-1))

    def test_interior_edge_normal_points_first_to_second(self):
        m = unit_square(2)
        interior = np.nonzero(m.edge_tags == TAG_INTERIOR)[0]
        for e in interior:
            t0, t1 = m.edge_elems[e]
            c0 = m.vertices[m.triangles[t0]].mean(axis=0)
            c1 = m.vertices[m.triangles[t1]].mean(axis=0)
            assert np.dot(m.normals[e], c1 - c0) > 0


class TestIO:
    def test_build_mesh_custom_tag(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2]])
        m = build_mesh(
            verts, tris, tag_fn=lambda mids: np.full(len(mids), TAG_WALL)
        )
        assert np.all(m.edge_tags == TAG_WALL)


class TestConnectivityMatchesFormerLoops:
    @pytest.mark.parametrize(
        "mesh", [unit_square(1), unit_square(5), step_domain(2), step_domain(6)]
    )
    def test_equal_to_former_sorting_loop(self, mesh):
        # the former per-edge loop, kept verbatim as reference
        nt, ne = mesh.num_triangles, mesh.num_edges
        want = np.full((ne, 2), -1, np.int64)
        order = np.argsort(mesh.tri_edges.ravel(), kind="stable")
        elem_of = np.repeat(np.arange(nt), 3)[order]
        eids = mesh.tri_edges.ravel()[order]
        first = np.searchsorted(eids, np.arange(ne), side="left")
        last = np.searchsorted(eids, np.arange(ne), side="right")
        for e in range(ne):
            adj = np.sort(elem_of[first[e] : last[e]])
            want[e, : adj.size] = adj
        assert mesh.edge_elems.dtype == want.dtype
        assert np.array_equal(mesh.edge_elems, want)

    @pytest.mark.parametrize("n", [1, 3])
    def test_grid_meshes_equal_former_cell_loop(self, n):
        # the former per-cell loop of the structured meshes, kept as reference
        half = n  # step_domain(2n): cells with ix or iy >= n are kept
        for mesh, nx, ny, keep in (
            (unit_square(n), n, n, lambda ix, iy: True),
            (step_domain(2 * n), 8 * n, 2 * n, lambda ix, iy: iy >= half or ix >= half),
        ):
            used = np.zeros((ny + 1, nx + 1), bool)
            cells = [(ix, iy) for iy in range(ny) for ix in range(nx) if keep(ix, iy)]
            for ix, iy in cells:
                used[iy : iy + 2, ix : ix + 2] = True
            vid = np.full((ny + 1, nx + 1), -1, np.int64)
            ys, xs = np.nonzero(used)
            vid[ys, xs] = np.arange(ys.size)
            tris = []
            for ix, iy in cells:
                ll, lr = vid[iy, ix], vid[iy, ix + 1]
                ul, ur = vid[iy + 1, ix], vid[iy + 1, ix + 1]
                tris.append((ll, lr, ur))
                tris.append((ll, ur, ul))
            assert np.array_equal(mesh.triangles, np.array(tris, np.int64))
            spacing = 1.0 / (n if nx == ny else 2 * n)
            assert np.array_equal(mesh.vertices, np.column_stack([xs, ys]) * spacing)

    def test_more_than_two_elements_per_edge_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [2.0, 1.0]])
        tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        with pytest.raises(ValueError, match="non-conforming"):
            build_mesh(verts, tris)
