import numpy as np
import pytest

from divhdg.mesh import (
    TAG_INLET,
    TAG_INTERIOR,
    TAG_LID,
    TAG_OUTLET,
    TAG_WALL,
    step_domain,
    unit_square,
)
from divhdg.refbasis import map_piola
from divhdg.spaces import build_spaces, interpolate_essential


class TestCounts:
    def test_unit_square_2_k2(self):
        s = build_spaces(unit_square(2), 2).split
        assert s.n_bnd == 48
        assert s.n_hat == 32
        assert s.n_int == 24
        assert s.n_pbar == 8
        assert s.n_pint == 16
        assert s.n_vel == 48 + 32 + 24
        assert s.n_cond == 48 + 32

    def test_lowest_order_has_no_interior_unknowns(self):
        s = build_spaces(unit_square(2), 1).split
        assert s.n_int == 0
        assert s.n_pint == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_count_formulas(self, k):
        m = unit_square(3)
        s = build_spaces(m, k).split
        ne, nt = len(m.edges), len(m.triangles)
        assert s.n_bnd == (k + 1) * ne
        assert s.n_hat == k * ne
        assert s.n_int == (k * k - 1) * nt
        assert s.n_pbar == nt
        assert s.n_pint == (k * (k + 1) // 2 - 1) * nt


class TestDofSharing:
    def test_interior_edge_dofs_in_exactly_two_elements(self):
        m = unit_square(2)
        sp = build_spaces(m, 2)
        counts = np.zeros(sp.split.n_vel, int)
        for row in sp.dofmap.vel_loc:
            counts[row] += 1
        k = sp.split.k
        interior = m.edge_tags == TAG_INTERIOR
        for e in range(len(m.edges)):
            expect = 2 if interior[e] else 1
            # facet-normal ids of edge e
            assert np.all(counts[e * (k + 1) : (e + 1) * (k + 1)] == expect)
            # tangential ids of edge e
            h0 = sp.split.n_bnd + e * k
            assert np.all(counts[h0 : h0 + k] == expect)
        # interior velocity unknowns live on exactly one element
        assert np.all(counts[sp.split.n_cond :] == 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_normal_trace_conformity_across_shared_edges(self, k):
        m = unit_square(2)
        sp = build_spaces(m, k)
        ref, dm = sp.ref, sp.dofmap
        rng = np.random.default_rng(7)
        u = rng.standard_normal(sp.split.n_vel)
        for e in np.flatnonzero(m.edge_tags == TAG_INTERIOR):
            n = m.normals[e]
            traces = []
            for t in m.edge_elems[e]:
                l = int(np.flatnonzero(m.tri_edges[t] == e)[0])
                flip = int(m.tri_edge_flip[t, l])
                phys = map_piola(
                    m.jacobians[t], m.det_j[t], ref.edge_vals[(l, flip)]
                )
                uloc = (dm.signs[t] * u[dm.vel_loc[t]])[: ref.n_u]
                traces.append(np.einsum("i,iqa,a->q", uloc, phys, n))
            scale = max(np.abs(traces[0]).max(), 1.0)
            assert np.abs(traces[0] - traces[1]).max() <= 1e-13 * scale


class TestPhysicalDivergence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_split_divergence_structure(self, k):
        # facet velocity functions: constant divergence per element;
        # interior velocity functions: zero element-mean divergence
        m = unit_square(2)
        sp = build_spaces(m, k)
        ref = sp.ref
        w = ref.vol_rule.weights
        for t in range(len(m.triangles)):
            divs = ref.vol_divs / m.det_j[t]
            for i in range(ref.n_facet):
                assert np.ptp(divs[i]) <= 1e-11
            for i in range(ref.n_facet, ref.n_u):
                mean = np.sum(w * divs[i]) * m.det_j[t] / m.areas[t]
                assert abs(mean) <= 1e-11


@pytest.fixture(scope="module")
def cavity_setup():
    m = unit_square(4)
    sp = build_spaces(m, 2)
    ess = interpolate_essential(m, sp, "cavity")
    return m, sp, ess


class TestEssentialCavity:
    @pytest.fixture()
    def setup(self, cavity_setup):
        return cavity_setup

    def test_every_boundary_edge_is_essential(self, setup):
        m, sp, ess = setup
        k = sp.split.k
        nbe = np.count_nonzero(m.edge_tags != TAG_INTERIOR)
        assert len(ess.ids) == nbe * (2 * k + 1)

    def test_lid_normal_dofs_vanish(self, setup):
        m, sp, ess = setup
        k = sp.split.k
        val = dict(zip(ess.ids.tolist(), ess.values.tolist()))
        for e in np.flatnonzero(m.edge_tags == TAG_LID):
            for j in range(k + 1):
                assert abs(val[e * (k + 1) + j]) <= 1e-14

    def test_wall_dofs_vanish(self, setup):
        m, sp, ess = setup
        k = sp.split.k
        val = dict(zip(ess.ids.tolist(), ess.values.tolist()))
        for e in np.flatnonzero(m.edge_tags == TAG_WALL):
            for j in range(k + 1):
                assert abs(val[e * (k + 1) + j]) <= 1e-14
            for j in range(k):
                assert abs(val[sp.split.n_bnd + e * k + j]) <= 1e-14

    def test_lid_constant_tangential_coefficient(self, setup):
        # mean of the driving profile over each lid edge, signed by the
        # direction of the edge tangent
        m, sp, ess = setup
        k = sp.split.k
        val = dict(zip(ess.ids.tolist(), ess.values.tolist()))

        def antideriv(x):
            return 2.0 * x**2 - (4.0 / 3.0) * x**3

        for e in np.flatnonzero(m.edge_tags == TAG_LID):
            a, b = m.vertices[m.edges[e]]
            x0, x1 = sorted((a[0], b[0]))
            h = x1 - x0
            mean = (antideriv(x1) - antideriv(x0)) / h
            expect = m.tangents[e][0] * mean
            got = val[sp.split.n_bnd + e * k]
            assert abs(got - expect) <= 1e-13

    def test_compatibility_total_flux_zero(self, setup):
        # coefficient of the constant normal mode equals the edge flux, so
        # the prescribed data pumps no net volume into the cavity
        m, sp, ess = setup
        k = sp.split.k
        val = dict(zip(ess.ids.tolist(), ess.values.tolist()))
        flux = sum(
            val[e * (k + 1)]
            for e in np.flatnonzero(m.edge_tags != TAG_INTERIOR)
        )
        assert abs(flux) <= 1e-13

    def test_free_mask_complements_ids(self, setup):
        _, sp, ess = setup
        assert len(ess.free_ids) + len(ess.ids) == sp.split.n_vel
        assert not np.any(ess.free_mask[ess.ids])


class TestEssentialStep:
    def test_outlet_left_free(self):
        m = step_domain(4)
        sp = build_spaces(m, 2)
        ess = interpolate_essential(m, sp, "step")
        k = sp.split.k
        essential_set = set(ess.ids.tolist())
        for e in np.flatnonzero(m.edge_tags == TAG_OUTLET):
            for j in range(k + 1):
                assert e * (k + 1) + j not in essential_set
            for j in range(k):
                assert sp.split.n_bnd + e * k + j not in essential_set

    def test_inlet_carries_inflow(self):
        m = step_domain(4)
        sp = build_spaces(m, 2)
        ess = interpolate_essential(m, sp, "step")
        k = sp.split.k
        val = dict(zip(ess.ids.tolist(), ess.values.tolist()))
        inflow = sum(
            abs(val[e * (k + 1)])
            for e in np.flatnonzero(m.edge_tags == TAG_INLET)
        )
        assert inflow > 1e-3


def _former_interpolate_essential(mesh, spaces, problem):
    # the former per-edge loop, kept verbatim as reference (the moment solve
    # inlined from the removed FacetBasis.normal_coeffs_from_moments)
    from divhdg.spaces import _boundary_velocity

    k = spaces.k
    ref = spaces.ref
    fb = ref.facet
    data = _boundary_velocity(problem)
    s = fb.rule.points[:, 0]
    w = fb.rule.weights

    ids, vals = [], []
    for e in mesh.boundary_edges():
        tag = int(mesh.edge_tags[e])
        if tag == TAG_OUTLET:
            continue
        g = data[tag]
        a, b = mesh.edges[e]
        pts = mesh.vertices[a][None, :] * (1.0 - s[:, None]) + mesh.vertices[b][
            None, :
        ] * s[:, None]
        gv = g(pts)
        t = mesh.tangents[e]
        n = np.array([t[1], -t[0]])  # vertex-ordered normal (rot -90 of tangent)
        le = mesh.edge_lengths[e]
        m = le * np.einsum("q,jq,q->j", gv @ n, fb.modes_vals, w)
        c = np.linalg.solve(fb.theta.T, m)
        d = np.einsum("q,jq,q->j", gv @ t, fb.lhat_vals, w)
        for mm in range(k + 1):
            ids.append(e * (k + 1) + mm)
            vals.append(c[mm])
        for j in range(k):
            ids.append(spaces.split.n_bnd + e * k + j)
            vals.append(d[j])

    ids = np.array(ids, np.int64)
    order = np.argsort(ids)
    ids = ids[order]
    vals = np.array(vals)[order]
    free = np.ones(spaces.split.n_vel, bool)
    free[ids] = False
    return ids, vals, free


class TestEssentialEqualsFormerEdgeLoop:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("problem", ["cavity", "step"])
    def test_same_ids_mask_and_values(self, problem, k):
        mesh = step_domain(4) if problem == "step" else unit_square(4)
        sp = build_spaces(mesh, k)
        ess = interpolate_essential(mesh, sp, problem)
        ids, vals, free = _former_interpolate_essential(mesh, sp, problem)
        assert np.array_equal(ess.ids, ids)
        assert np.array_equal(ess.free_mask, free)
        assert np.abs(ess.values - vals).max() <= 1e-15 * np.abs(vals).max()
