from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from divhdg import assembly
from divhdg.assembly import (
    ProblemParams,
    assemble_pressure_ops,
    assemble_saddle,
    element_chunks,
    scatter_pattern,
)
from divhdg.condense import (
    back_substitute,
    build_condensed_monolithic,
    build_monolithic,
    condensed_structure,
    eliminate_local,
)
from divhdg.mesh import step_domain, unit_square
from divhdg.spaces import build_spaces, interpolate_essential
from conftest import jittered_square, pipeline, wall_triangle


def _positions(free_ids, cut):
    below = np.flatnonzero(free_ids < cut)
    above = np.flatnonzero(free_ids >= cut)
    return below, above


class TestLayout:
    def test_k1_condensation_is_identity(self):
        _, spaces, _, block, cond = pipeline("cavity", 2, 1, tau=1.0, inv_lambda=1.0)
        assert spaces.split.n_int == 0
        assert spaces.split.n_pint == 0
        d = (cond.A_g.csr - block.A.csr).tocoo()
        assert (np.abs(d.data).max() if d.nnz else 0.0) == 0.0
        assert np.array_equal(cond.F_g, block.F_u)
        db = (cond.B_g - block.B).tocoo()
        assert (np.abs(db.data).max() if db.nnz else 0.0) == 0.0

    def test_condensed_block_spd(self, cavity22):
        *_, cond = cavity22
        assert sla.eigvalsh(cond.A_g.toarray())[0] > 0

    def test_compressibility_block_is_scaled_mass(self, cavity22):
        mesh, _, _, _, cond = cavity22
        inv_lambda = 1.0
        assert np.allclose(
            cond.C_g.csr.diagonal(), -inv_lambda * mesh.areas, atol=1e-14
        )


class TestTwoPathEquality:
    def test_local_saddle_matches_volume_penalty_form(self):
        # eliminating the local pair (interior velocity, zero-mean pressure)
        # equals eliminating interior velocity from the lambda-augmented
        # operator A_oo + lambda * Bo^T Mo^{-1} Bo
        inv_lambda = 0.1  # lambda = 10
        mesh, spaces, ess, block, cond = pipeline(
            "cavity", 1, 2, tau=0.0, inv_lambda=inv_lambda
        )
        nt = len(mesh.triangles)
        free = ess.free_ids
        cpos, ipos = _positions(free, spaces.split.n_cond)
        a = block.A.csr.toarray()
        b = block.B.toarray()
        a_cc = a[np.ix_(cpos, cpos)]
        a_ci = a[np.ix_(cpos, ipos)]
        a_ii = a[np.ix_(ipos, ipos)]
        b_oi = b[nt:][:, ipos]
        m_o = -block.C.csr.diagonal()[nt:] / inv_lambda
        e = a_ii + (1.0 / inv_lambda) * b_oi.T @ np.diag(1.0 / m_o) @ b_oi
        a_path = a_cc - a_ci @ np.linalg.solve(e, a_ci.T)
        a_got = cond.A_g.csr.toarray()
        rel = np.abs(a_got - a_path).max() / np.abs(a_path).max()
        assert rel <= 1e-12


class TestMonolithicAgreement:
    def test_condensed_solution_matches_direct_solve(self):
        mesh, spaces, ess, block, cond = pipeline(
            "cavity", 2, 2, tau=1.0, inv_lambda=1.0
        )
        kc, fc = build_condensed_monolithic(cond)
        zc = spla.spsolve(kc.tocsc(), fc)
        trace, pbar = zc[: cond.n_free], zc[cond.n_free :]
        vel, pressure = back_substitute(cond, trace, pbar)

        km, fm = build_monolithic(block)
        zm = spla.spsolve(km.tocsc(), fm)
        nfree = block.n_free
        vel_m = ess.full_vector()
        vel_m[ess.free_ids] = zm[:nfree]
        p_m = zm[nfree:]

        scale = max(np.abs(vel_m).max(), np.abs(p_m).max())
        assert np.abs(vel - vel_m).max() <= 1e-9 * scale
        assert np.abs(pressure - p_m).max() <= 1e-9 * scale

    def test_full_residual_after_back_substitution(self):
        mesh, spaces, ess, block, cond = pipeline(
            "cavity", 2, 2, tau=1.0, inv_lambda=1.0
        )
        kc, fc = build_condensed_monolithic(cond)
        zc = spla.spsolve(kc.tocsc(), fc)
        vel, pressure = back_substitute(cond, zc[: cond.n_free], zc[cond.n_free :])
        km, fm = build_monolithic(block)
        z = np.concatenate([vel[ess.free_ids], pressure])
        r = km @ z - fm
        assert np.linalg.norm(r) <= 1e-9 * max(np.linalg.norm(fm), 1.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("problem", ["cavity", "step"])
    def test_generic_essential_data(self, problem, k):
        # nonzero data on every essential unknown, so that free trace unknowns
        # meet data from two elements, which the lid and inlet data never do;
        # the bound is the one of verify.check_condensation
        mesh = step_domain(2) if problem == "step" else unit_square(2)
        spaces = build_spaces(mesh, k)
        ess = interpolate_essential(mesh, spaces, problem)
        rng = np.random.default_rng(k)
        n = ess.values.size
        ess = replace(ess, values=rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n))

        def force(x):
            return np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] * x[:, 1]])

        params = ProblemParams(tau=1.0, inv_lambda=1.0)
        block = assemble_saddle(mesh, spaces, params, ess, body_force=force)
        cond = eliminate_local(block)
        pos = ess.pos[cond.structure.g_slots]
        touch = (pos < 0).any(axis=1)
        assert np.bincount(cond.structure.g_slots[(pos >= 0) & touch[:, None]]).max() == 2

        kc, fc = build_condensed_monolithic(cond)
        zc = spla.spsolve(kc.tocsc(), fc)
        vel, pressure = back_substitute(cond, zc[: cond.n_free], zc[cond.n_free :])
        km, fm = build_monolithic(block)
        zm = spla.spsolve(km.tocsc(), fm)
        vel_m = ess.full_vector()
        vel_m[ess.free_ids] = zm[: block.n_free]
        scale = max(np.abs(zm).max(), 1.0)
        err = max(np.abs(vel - vel_m).max(), np.abs(pressure - zm[block.n_free :]).max())
        assert err <= 1e-9 * scale

    def test_zero_data_gives_zero_locals(self, cavity22):
        mesh, spaces, ess, block, cond = cavity22
        ess0 = type(ess)(
            ids=ess.ids, values=np.zeros_like(ess.values), free_mask=ess.free_mask
        )
        block0 = assemble_saddle(mesh, spaces, block.params, ess0)
        cond0 = eliminate_local(block0)
        vel, pressure = back_substitute(
            cond0, np.zeros(cond0.n_free), np.zeros(cond0.n_pbar)
        )
        assert np.abs(vel).max() == 0.0
        assert np.abs(pressure).max() == 0.0


class TestIncompressibleLimit:
    def test_solution_is_solenoidal(self, cavity22_stokes):
        mesh, spaces, ess, block, cond = cavity22_stokes
        km, fm = build_monolithic(block)
        # enclosed flow: the constant pressure is in the nullspace, take the
        # minimum-norm member
        z = np.linalg.lstsq(km.toarray(), fm, rcond=None)[0]
        nfree = block.n_free
        vel = ess.full_vector()
        vel[ess.free_ids] = z[:nfree]
        # weak divergence against every pressure mode, including the local ones
        wdiv = assemble_pressure_ops(block.mesh, block.spaces) @ vel
        assert np.abs(wdiv).max() <= 1e-10

    def test_pointwise_divergence_vanishes(self, cavity22_stokes):
        mesh, spaces, ess, block, cond = cavity22_stokes
        km, fm = build_monolithic(block)
        z = np.linalg.lstsq(km.toarray(), fm, rcond=None)[0]
        vel = ess.full_vector()
        vel[ess.free_ids] = z[: block.n_free]
        ref, dm = spaces.ref, spaces.dofmap
        for t in range(len(mesh.triangles)):
            uloc = (dm.signs[t] * vel[dm.vel_loc[t]])[: ref.n_u]
            div_pts = np.einsum("i,iq->q", uloc, ref.vol_divs) / mesh.det_j[t]
            assert np.abs(div_pts).max() <= 1e-10


class TestLocalPressureIdentity:
    def test_interior_pressure_is_scaled_divergence(self):
        # with finite compressibility the local pressure equals minus lambda
        # times the zero-mean part of the velocity divergence, pointwise
        inv_lambda = 1.0
        mesh, spaces, ess, block, cond = pipeline(
            "cavity", 2, 2, tau=1.0, inv_lambda=inv_lambda
        )
        kc, fc = build_condensed_monolithic(cond)
        zc = spla.spsolve(kc.tocsc(), fc)
        vel, pressure = back_substitute(cond, zc[: cond.n_free], zc[cond.n_free :])
        ref, dm = spaces.ref, spaces.dofmap
        nt = len(mesh.triangles)
        n_d = ref.n_int_d
        w = ref.vol_rule.weights
        lam = 1.0 / inv_lambda
        for t in range(nt):
            uloc = (dm.signs[t] * vel[dm.vel_loc[t]])[: ref.n_u]
            div_pts = np.einsum("i,iq->q", uloc, ref.vol_divs) / mesh.det_j[t]
            mean = np.sum(w * div_pts) / np.sum(w)
            p_pts = pressure[nt + t * n_d : nt + (t + 1) * n_d] @ ref.vol_qvals[1:]
            assert np.abs(p_pts + lam * (div_pts - mean)).max() <= 1e-10


class TestMonolithicStructure:
    def test_exact_symmetry(self, cavity22):
        *_, block, _ = cavity22
        km, _ = build_monolithic(block)
        d = (km - km.T).tocoo()
        assert (np.abs(d.data).max() if d.nnz else 0.0) == 0.0

    def test_saddle_inertia(self, cavity22):
        *_, block, _ = cavity22
        km, _ = build_monolithic(block)
        evs = sla.eigvalsh(km.toarray())
        assert np.count_nonzero(evs < 0) == block.n_pressure
        assert np.count_nonzero(evs > 0) == block.n_free


PATTERN_MESHES = {
    "cavity": (lambda: unit_square(8), "cavity"),
    "step": (lambda: step_domain(4), "step"),
    "jittered": (lambda: jittered_square(8), "cavity"),
    "no-free-edge": (wall_triangle, "cavity"),
}


class TestTracePattern:
    """A_g's pattern built from the free-edge graph is the element-level
    ``scatter_pattern`` of the trace unknowns' free positions: the same
    indptr and indices, and the same data position for every entry of every
    chunk of elements."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", list(PATTERN_MESHES))
    def test_equals_element_scatter_pattern(self, monkeypatch, name, k):
        make_mesh, problem = PATTERN_MESHES[name]
        mesh = make_mesh()
        spaces = build_spaces(mesh, k)
        ess = interpolate_essential(mesh, spaces, problem)
        structure = condensed_structure(spaces, ess, np.arange(mesh.num_triangles))
        got = structure.a_g
        want = scatter_pattern(ess.pos[structure.g_slots], structure.free_cond.size)
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        monkeypatch.setattr(assembly, "_CHUNK", 63)
        chunks = list(element_chunks(mesh.num_triangles))
        assert len(chunks) > 1 or name == "no-free-edge"
        for sel in chunks:
            assert np.array_equal(got.slots(sel), want.slot[sel])
        if name == "no-free-edge":
            assert got.nnz == 0 and np.all(got.slots() == 0)
        else:  # some entries are dropped, and some elements keep all theirs
            dropped = (got.slots() == got.nnz).any(axis=1)
            assert dropped.any() and not dropped.all()

    def test_edge_split_between_free_and_essential_is_rejected(self):
        mesh = unit_square(2)
        spaces = build_spaces(mesh, 2)
        ess = interpolate_essential(mesh, spaces, "cavity")
        free = ess.free_mask.copy()
        edge = np.flatnonzero(free[: spaces.split.n_bnd : 3])[0]
        free[3 * edge + 1] = False  # one normal mode of a free edge
        with pytest.raises(ValueError, match="all free or all essential"):
            condensed_structure(spaces, replace(ess, free_mask=free), np.arange(mesh.num_triangles))
