from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from divhdg.assembly import (
    ProblemParams,
    TensorStack,
    _element_coercivity_check,
    assemble_local_stacks,
    assemble_pressure_ops,
    assemble_saddle,
    edge_coefficients,
    inverse_jacobians,
    scatter_stack,
    sym_grad_maps,
    sym_gradients,
    viscous_volume_coefficients,
)
from divhdg.condense import _local_solve, condensed_structure, eliminate_local
from divhdg.linalg import NotSPD
from divhdg.mesh import step_domain, unit_square
from divhdg.precond import aux_space
from divhdg.refbasis import build_facet_basis, build_reference_bdm, map_piola
from divhdg.spaces import build_spaces, interpolate_essential
from divhdg.verify import _bubble_curl, _energy_error, norm_stacks

from conftest import jittered_square, pipeline


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ProblemParams(mu=0.0)
        with pytest.raises(ValueError):
            ProblemParams(tau=-1.0)
        with pytest.raises(ValueError):
            ProblemParams(inv_lambda=-0.5)
        with pytest.raises(ValueError):
            ProblemParams(alpha=0.0)

    @pytest.mark.parametrize("name", ["mu", "tau", "inv_lambda", "alpha"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ProblemParams(**{name: value})


class TestSaddleStructure:
    def test_velocity_block_exactly_symmetric(self, cavity22):
        _, _, _, block, _ = cavity22
        d = (block.A.csr - block.A.csr.T).tocoo()
        worst = np.abs(d.data).max() if d.nnz else 0.0
        assert worst == 0.0

    def test_divergence_block_orthogonality(self, cavity22):
        # element-mean pressures couple facet velocity only; zero-mean
        # pressures couple interior velocity only
        mesh, spaces, _, block, _ = cavity22
        split = spaces.split
        nt = len(mesh.triangles)
        bf = assemble_pressure_ops(block.mesh, block.spaces).tocsc()
        pbar_rows = bf[:nt]
        pint_rows = bf[nt:]
        # no coupling of element-mean pressure to tangential or interior dofs
        assert pbar_rows[:, split.n_bnd :].nnz == 0
        # no coupling of zero-mean pressure to facet or tangential dofs
        assert pint_rows[:, : split.n_cond].nnz == 0

    def test_divergence_block_bitlevel(self, cavity22):
        mesh, spaces, _, block, _ = cavity22
        bf = np.asarray(assemble_pressure_ops(block.mesh, block.spaces).todense())
        nt = len(mesh.triangles)
        split = spaces.split
        assert np.abs(bf[:nt, split.n_bnd :]).max() <= 1e-14
        assert np.abs(bf[nt:, : split.n_cond]).max() <= 1e-14

    def test_compressibility_block_diagonal_nonpositive(self, cavity22):
        _, _, _, block, _ = cavity22
        c = block.C.csr
        offdiag = c - sp.diags(c.diagonal())
        assert offdiag.nnz == 0
        assert np.all(c.diagonal() <= 0)

    def test_incompressible_limit_kills_c(self, cavity22_stokes):
        _, _, _, block, _ = cavity22_stokes
        assert np.abs(block.C.csr.diagonal()).max() == 0.0

    def test_coercivity_at_reference_penalty(self):
        _, _, _, _, cond = pipeline("cavity", 2, 2, alpha=4.0)
        evs = sla.eigvalsh(cond.A_g.toarray())
        assert evs[0] > 0

    def test_low_penalty_detected(self):
        mesh = unit_square(2)
        spaces = build_spaces(mesh, 2)
        ess = interpolate_essential(mesh, spaces, "cavity")
        # the check runs wherever the element matrices are formed: in
        # condensation, chunk by chunk, and in the whole-mesh stack
        block = assemble_saddle(mesh, spaces, ProblemParams(alpha=0.01), ess)
        with pytest.raises(NotSPD):
            eliminate_local(block)
        with pytest.raises(NotSPD):
            block.aloc


def facet_projection(facet) -> np.ndarray:
    """The facet-space L2 projection on point values at the facet rule:
    tangential coefficients, then their values at the rule."""
    return facet.lhat_vals.T @ facet.tangential_projection


class TestFacetProjection:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_idempotent(self, k):
        f = build_facet_basis(k)
        p = facet_projection(f)
        assert np.abs(p @ p - p).max() <= 1e-13

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reproduces_low_degree(self, k):
        f = build_facet_basis(k)
        p = facet_projection(f)
        for row in f.lhat_vals:  # orthonormal modes of degree <= k-1
            assert np.abs(p @ row - row).max() <= 1e-13

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_kills_top_mode(self, k):
        f = build_facet_basis(k)
        p = facet_projection(f)
        top = f.modes_vals[k]
        assert np.abs(p @ top).max() <= 1e-13

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_preserves_low_moments(self, k):
        f = build_facet_basis(k)
        p = facet_projection(f)
        rng = np.random.default_rng(k + 10)
        vals = rng.standard_normal(len(f.rule.weights))
        for q in f.lhat_vals:
            before = np.sum(f.rule.weights * vals * q)
            after = np.sum(f.rule.weights * (p @ vals) * q)
            assert abs(before - after) <= 1e-13


class TestAuxOperator:
    def test_interior_vertex_stiffness_stencil(self):
        mesh = unit_square(2)
        spaces = build_spaces(mesh, 2)
        ess = interpolate_essential(mesh, spaces, "cavity")
        mu = 1.5
        aux = aux_space(spaces, condensed_structure(spaces, ess, np.arange(mesh.num_triangles)).a_g)
        a0, vpos = aux.operator(ProblemParams(mu=mu, tau=0.0)), aux.vpos
        assert np.count_nonzero(vpos >= 0) == 1  # single interior vertex
        d = a0.diagonal()
        assert np.allclose(d, 2.0 * mu * 4.0, atol=1e-13)

    def test_mass_term_isolation(self):
        mesh = unit_square(2)
        spaces = build_spaces(mesh, 2)
        ess = interpolate_essential(mesh, spaces, "cavity")
        aux = aux_space(spaces, condensed_structure(spaces, ess, np.arange(mesh.num_triangles)).a_g)
        a1 = aux.operator(ProblemParams(mu=1.0, tau=1.0))
        a0 = aux.operator(ProblemParams(mu=1.0, tau=0.0))
        mass = a1.csr - a0.csr
        # consistent-mass diagonal at a vertex shared by six triangles:
        # 6 * det / 12 with det = 1/4
        assert np.allclose(mass.diagonal(), 6 * 0.25 / 12, atol=1e-14)

    def test_spd(self):
        mesh = unit_square(4)
        spaces = build_spaces(mesh, 2)
        ess = interpolate_essential(mesh, spaces, "cavity")
        a0 = aux_space(spaces, condensed_structure(spaces, ess, np.arange(mesh.num_triangles)).a_g).operator(ProblemParams())
        assert sla.eigvalsh(a0.toarray())[0] > 0


class TestRhs:
    def test_homogeneous_data_zero_rhs(self):
        # with zero essential data and no body force every load vanishes
        mesh = unit_square(2)
        spaces = build_spaces(mesh, 2)
        ess = interpolate_essential(mesh, spaces, "cavity")
        ess0 = type(ess)(
            ids=ess.ids, values=np.zeros_like(ess.values), free_mask=ess.free_mask
        )
        block = assemble_saddle(mesh, spaces, ProblemParams(tau=1.0), ess0)
        assert np.abs(block.F_u).max() == 0.0
        assert np.abs(block.F_p).max() == 0.0

    def test_lifting_enters_rhs(self, cavity22):
        _, _, _, block, _ = cavity22
        assert np.abs(block.F_u).max() > 0


def _random_jacobians(n, seed):
    """Non-degenerate random Jacobians of both orientations: |det J| >= 0.2."""
    rng = np.random.default_rng(seed)
    j = rng.standard_normal((4 * n, 2, 2))
    det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
    keep = np.abs(det) >= 0.2
    return j[keep][:n], det[keep][:n]


class TestElementKernel:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_batched_piola_matches_per_element(self, k):
        ref = build_reference_bdm(k)
        j, det = _random_jacobians(30, k)
        for vals in (ref.vol_vals, ref.edge_vals[(1, 1)]):
            batched = map_piola(j, det, vals)
            assert batched.shape == (30,) + vals.shape
            single = np.stack([map_piola(j[e], det[e], vals) for e in range(30)])
            scale = np.abs(single).max()
            assert np.abs(batched - single).max() <= 1e-15 * scale
            # extra batch axes carry through
            grid = map_piola(j.reshape(5, 6, 2, 2), det.reshape(5, 6), vals)
            assert np.array_equal(grid.reshape(batched.shape), batched)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sym_gradients_match_five_index_einsum(self, k):
        ref = build_reference_bdm(k)
        j, det = _random_jacobians(40, 10 + k)
        for grads in (ref.vol_grads, ref.edge_grads[(0, 1)]):
            # the former single-einsum evaluation, kept verbatim as reference
            jinv = np.empty_like(j)
            jinv[:, 0, 0] = j[:, 1, 1]
            jinv[:, 0, 1] = -j[:, 0, 1]
            jinv[:, 1, 0] = -j[:, 1, 0]
            jinv[:, 1, 1] = j[:, 0, 0]
            jinv /= det[:, None, None]
            gp = np.einsum("eab,iqbc,ecd->eiqad", j, grads, jinv)
            gp /= det[:, None, None, None, None]
            want = 0.5 * (gp + np.swapaxes(gp, 3, 4))
            got = sym_gradients(j, det, grads)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_scatter_matches_dense_loop_with_repeated_slots(self):
        rng = np.random.default_rng(3)
        n, ne, m = 7, 9, 4
        stack = rng.standard_normal((ne, m, m))
        slots = rng.integers(0, n, size=(ne, m))
        slots[0] = [2, 2, 5, 2]  # repeats inside one element as well
        want = np.zeros((n, n))
        for e in range(ne):
            for a in range(m):
                for b in range(m):
                    want[slots[e, a], slots[e, b]] += stack[e, a, b]
        got = scatter_stack(stack, slots, n)
        assert isinstance(got, sp.csr_matrix)
        assert got.has_canonical_format
        assert np.abs(got.toarray() - want).max() <= 1e-14 * np.abs(want).max()

    def test_scatter_drops_minus_one_slots_rectangular(self):
        rng = np.random.default_rng(4)
        n, m, ne, r, c = 6, 5, 10, 4, 3
        stack = rng.standard_normal((ne, r, c))
        rows = rng.integers(-1, n, size=(ne, r))
        cols = rng.integers(-1, m, size=(ne, c))
        rows[0] = [1, 1, -1, 4]  # a repeat and a dropped row in one element
        cols[0] = [2, -1, 2]
        rows[1] = -1  # an element dropped entirely
        cols[2] = -1
        want = np.zeros((n, m))
        for e in range(ne):
            for a in range(r):
                for b in range(c):
                    if rows[e, a] >= 0 and cols[e, b] >= 0:
                        want[rows[e, a], cols[e, b]] += stack[e, a, b]
        got = scatter_stack(stack, rows, n, cols, m)
        assert isinstance(got, sp.csr_matrix)
        assert got.shape == (n, m) and got.has_canonical_format
        assert np.abs(got.toarray() - want).max() <= 1e-14 * np.abs(want).max()
        # square, rows as columns: the dropped slots leave no stored entry
        sq = scatter_stack(stack[:, :3, :3], rows[:, :3], n)
        want_sq = np.zeros((n, n))
        for e in range(ne):
            for a in range(3):
                for b in range(3):
                    if rows[e, a] >= 0 and rows[e, b] >= 0:
                        want_sq[rows[e, a], rows[e, b]] += stack[e, a, b]
        assert np.abs(sq.toarray() - want_sq).max() <= 1e-14 * np.abs(want_sq).max()
        kept = np.unique(rows[:, :3][rows[:, :3] >= 0])
        assert set(sq.tocoo().row.tolist()) == set(kept.tolist())

    @pytest.mark.parametrize("problem,n,k", [("cavity", 2, 2), ("step", 2, 3)])
    def test_energy_facet_term_matches_moment_formula(self, problem, n, k):
        mesh = step_domain(n) if problem == "step" else unit_square(n)
        spaces = build_spaces(mesh, k)
        ref, dm = spaces.ref, spaces.dofmap
        vel = np.random.default_rng(k).standard_normal(spaces.split.n_vel)
        _, d_velocity, _ = _bubble_curl()
        pen = assemble_local_stacks(mesh, spaces).stack("pen")

        # the former evaluation, kept verbatim as reference: volume mismatch
        # plus the facet moments of the tangential trace minus the trace unknowns
        uloc = dm.signs * vel[dm.vel_loc]
        j_all = mesh.jacobians
        det_all = mesh.det_j
        jinv_all = np.empty_like(j_all)
        jinv_all[:, 0, 0] = j_all[:, 1, 1]
        jinv_all[:, 0, 1] = -j_all[:, 0, 1]
        jinv_all[:, 1, 0] = -j_all[:, 1, 0]
        jinv_all[:, 1, 1] = j_all[:, 0, 0]
        jinv_all /= det_all[:, None, None]
        rule, _, hi_grads, _, _ = ref.volume_tables(14)
        a0 = mesh.vertices[mesh.triangles[:, 0]]
        pts = a0[:, None, :] + np.einsum("edc,qc->eqd", j_all, rule.points)
        gp = np.einsum("eab,iqbc,ecd->eiqad", j_all, hi_grads, jinv_all)
        gp /= det_all[:, None, None, None, None]
        dh = np.einsum(
            "ei,eiqad->eqad", uloc[:, : ref.n_u], 0.5 * (gp + np.swapaxes(gp, 3, 4))
        )
        g11, g12, g22 = d_velocity(pts.reshape(-1, 2))
        shape = pts.shape[:2]
        ex = np.zeros_like(dh)
        ex[:, :, 0, 0] = g11.reshape(shape)
        ex[:, :, 0, 1] = ex[:, :, 1, 0] = g12.reshape(shape)
        ex[:, :, 1, 1] = g22.reshape(shape)
        diff = dh - ex
        vol2 = np.einsum("eqad,eqad,q->e", diff, diff, rule.weights) @ det_all
        we = ref.facet.rule.weights
        lh = ref.facet.lhat_vals
        n_u = ref.n_u
        facet2 = 0.0
        for l in range(3):
            hat0 = n_u + l * k
            for flipv in (0, 1):
                gsel = np.flatnonzero(mesh.tri_edge_flip[:, l] == bool(flipv))
                if gsel.size == 0:
                    continue
                vals = ref.edge_vals[(l, flipv)]
                j = j_all[gsel]
                det = det_all[gsel]
                tvec = mesh.tangents[mesh.tri_edges[gsel, l]]
                pv = np.einsum("gdc,iqc->giqd", j, vals) / det[:, None, None, None]
                tt = np.einsum("gi,giqd,gd->gq", uloc[gsel, :n_u], pv, tvec)
                moments = np.einsum("gq,mq,q->gm", tt, lh, we)
                facet2 += np.sum((moments - uloc[gsel, hat0 : hat0 + k]) ** 2)

        assert facet2 > 0.1 * vol2  # the facet term carries real weight here
        got = _energy_error(mesh, spaces, vel, d_velocity, pen)
        assert abs(got**2 - (vol2 + facet2)) <= 1e-13 * (vol2 + facet2)


def _einsum_stacks(mesh, spaces):
    """The former einsum evaluation of the element stacks, kept verbatim as
    reference: one pass per (local edge, orientation) with fancy writes."""
    ref, dm, k = spaces.ref, spaces.dofmap, spaces.k
    n_u = ref.n_u
    shape = (mesh.num_triangles, dm.n_loc, dm.n_loc)
    mass, visc, pen = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    j, det = mesh.jacobians, mesh.det_j
    w = ref.vol_rule.weights
    pv = map_piola(j, det, ref.vol_vals)
    mass[:, :n_u, :n_u] = np.einsum("eiqd,ejqd,q->eij", pv, pv, w) * det[:, None, None]
    dsym = sym_gradients(j, det, ref.vol_grads)
    visc[:, :n_u, :n_u] = np.einsum("eiqad,ejqad,q->eij", dsym, dsym, w) * det[
        :, None, None
    ]
    we, lh = ref.facet.rule.weights, ref.facet.lhat_vals
    u = slice(0, n_u)
    for l in range(3):
        hat = slice(n_u + l * k, n_u + (l + 1) * k)
        for flip in (0, 1):
            g = np.flatnonzero(mesh.tri_edge_flip[:, l] == bool(flip))
            if g.size == 0:
                continue
            e = mesh.tri_edges[g, l]
            t = mesh.tangents[e]
            nout = np.column_stack([t[:, 1], -t[:, 0]])
            nrm = -nout if flip else nout
            pvf = map_piola(j[g], det[g], ref.edge_vals[(l, flip)])
            tt = np.einsum("giqd,gd->giq", pvf, t)
            ds = sym_gradients(j[g], det[g], ref.edge_grads[(l, flip)])
            dn = np.einsum("giqad,gd,ga->giq", ds, nrm, t)
            le = mesh.edge_lengths[e][:, None, None]
            e_uu = np.einsum("giq,gjq,q->gij", dn, tt, we) * le
            e_uh = -np.einsum("giq,mq,q->gim", dn, lh, we) * le
            bmom = np.einsum("giq,jq,q->gij", tt, lh, we)
            for stack, uu, uh, hh in (
                (visc, -(e_uu + np.swapaxes(e_uu, 1, 2)), -e_uh, None),
                (pen, np.einsum("gij,gmj->gim", bmom, bmom), -bmom, np.eye(k)),
            ):
                stack[g, u, u] += uu
                stack[g, u, hat] += uh
                stack[g, hat, u] += np.swapaxes(uh, 1, 2)
                if hh is not None:
                    stack[g, hat, hat] += hh
    souter = dm.signs[:, :, None] * dm.signs[:, None, :]
    return mass * souter, visc * souter, pen * souter


def _einsum_norm_stacks(mesh, spaces):
    """The verification norm stacks by quadrature on the physical elements:
    the symmetric-gradient volume term and the unprojected tangential
    difference, one pass per (local edge, orientation)."""
    ref, dm, k = spaces.ref, spaces.dofmap, spaces.k
    n_u = ref.n_u
    shape = (mesh.num_triangles, dm.n_loc, dm.n_loc)
    dstack, jstack = np.zeros(shape), np.zeros(shape)
    j, det = mesh.jacobians, mesh.det_j
    dsym = sym_gradients(j, det, ref.vol_grads)
    dstack[:, :n_u, :n_u] = np.einsum(
        "eiqad,ejqad,q->eij", dsym, dsym, ref.vol_rule.weights
    ) * det[:, None, None]
    we, lh = ref.facet.rule.weights, ref.facet.lhat_vals
    u = slice(0, n_u)
    for l in range(3):
        hat = slice(n_u + l * k, n_u + (l + 1) * k)
        for flip in (0, 1):
            g = np.flatnonzero(mesh.tri_edge_flip[:, l] == bool(flip))
            t = mesh.tangents[mesh.tri_edges[g, l]]
            pvf = map_piola(j[g], det[g], ref.edge_vals[(l, flip)])
            tt = np.einsum("giqd,gd->giq", pvf, t)
            uh = -np.einsum("giq,mq,q->gim", tt, lh, we)
            jstack[g, u, u] += np.einsum("giq,gjq,q->gij", tt, tt, we)
            jstack[g, u, hat] += uh
            jstack[g, hat, u] += np.swapaxes(uh, 1, 2)
            jstack[g, hat, hat] += np.eye(k)
    souter = dm.signs[:, :, None] * dm.signs[:, None, :]
    return dstack * souter, jstack * souter


def _eigvalsh_rule(aloc):
    """The former coercivity rule, kept verbatim as reference."""
    scale = np.maximum(np.abs(aloc).max(axis=(1, 2)), 1e-300)
    evs = np.linalg.eigvalsh(aloc)
    worst = np.min(evs[:, 0] / scale)
    if worst < -1e-9:
        raise NotSPD(
            "element velocity block has a negative eigenvalue "
            f"(relative {worst:.3e}); increase the penalty parameter alpha"
        )


def _blocks_with_min_eigenvalue(rng, ratios, n=18):
    """Symmetric blocks whose lowest eigenvalue is ratios[e] times the block's
    largest entry (up to rounding); ratio 0 gives a PSD rank-deficient block."""
    out = []
    for r in ratios:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(0.5, 2.0, n)
        lam[0] = 0.0
        lam[1] = 0.0  # rank deficient by two
        a0 = (q * lam) @ q.T
        a = a0 + (r * np.abs(a0).max()) * np.outer(q[:, 0], q[:, 0])
        out.append(0.5 * (a + a.T))
    return np.array(out)


class TestLazyVelocityBlocks:
    def _build(self, problem, n, k):
        mesh = step_domain(n) if problem == "step" else unit_square(n)
        spaces = build_spaces(mesh, k)
        ess = interpolate_essential(mesh, spaces, problem)
        params = ProblemParams(tau=1.0, inv_lambda=1.0)

        def force(x):
            return np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] * x[:, 1]])

        return assemble_saddle(mesh, spaces, params, ess, body_force=force), ess

    @pytest.mark.parametrize("problem,n,k", [("cavity", 3, 2), ("step", 2, 3)])
    def test_equal_to_former_eager_construction(self, problem, n, k):
        block, ess = self._build(problem, n, k)
        dm, n_vel = block.spaces.dofmap, block.spaces.split.n_vel
        # the former eager construction, kept verbatim as reference
        a_full = scatter_stack(block.aloc, dm.vel_loc, n_vel)
        f_full = np.zeros(n_vel)
        np.add.at(f_full, dm.vel_loc.ravel(), block.floc.ravel())
        free = ess.free_ids
        g = ess.full_vector()
        a_red = a_full[free][:, free]
        f_u = f_full[free] - a_full[free] @ g

        assert (block.A.csr != a_red).nnz == 0
        assert np.array_equal(block.F_u, f_u)
        assert np.abs(block.F_u).max() > 0
        assert block.n_free == free.size == block.A.n

    def test_condensed_solve_path_never_builds_them(self):
        block, _ = self._build("cavity", 3, 2)
        cond = eliminate_local(block)
        assert cond.n_free > 0 and block.n_free > 0
        for name in ("aloc", "A", "F_u", "B", "F_p", "C"):
            assert name not in vars(block), name


def _former_scatter(stack, slots, n):
    r = np.broadcast_to(slots[:, :, None], stack.shape)
    c = np.broadcast_to(slots[:, None, :], stack.shape)
    return sp.coo_matrix((stack.ravel(), (r.ravel(), c.ravel())), shape=(n, n)).tocsr()


def _former_condensed(block):
    """The former scatter-then-slice elimination, kept verbatim as reference:
    A_g, F_g and B_g from the condensed element blocks, which are rebuilt
    from the local solutions of the whole mesh, solved as ``eliminate_local``
    solves each chunk, with the operations of ``eliminate_local``."""
    dm, split = block.spaces.dofmap, block.spaces.split
    nt, n_int = block.mesh.num_triangles, dm.n_loc_int
    g_slot_idx = np.r_[0 : dm.n_loc_facet, dm.n_loc_facet + n_int : dm.n_loc]
    sol = _local_solve(block, g_slot_idx, slice(None))[2]
    back_x, back_y = sol[:, :, : g_slot_idx.size], sol[:, :, g_slot_idx.size]
    k_lg = np.zeros((nt, back_x.shape[1], g_slot_idx.size))
    k_lg[:, :n_int, :] = block.aloc[:, dm.interior_slots][:, :, g_slot_idx]
    k_gl = np.swapaxes(k_lg, 1, 2)
    a_cond = block.aloc[:, g_slot_idx[:, None], g_slot_idx] - k_gl @ back_x
    f_g_loc = block.floc[:, g_slot_idx] - (k_gl @ back_y[:, :, None])[:, :, 0]

    g_slots = dm.vel_loc[:, g_slot_idx]
    n_cond = split.n_cond
    a_all = _former_scatter(a_cond, g_slots, n_cond)
    f_all = np.zeros(n_cond)
    np.add.at(f_all, g_slots.ravel(), f_g_loc.ravel())
    ess = block.essential
    free_cond = np.flatnonzero(ess.free_mask[:n_cond])
    g = ess.full_vector()[:n_cond]
    f_g = f_all[free_cond] - a_all[free_cond] @ g
    b_full = assemble_pressure_ops(block.mesh, block.spaces)
    b_g = b_full[:nt, :n_cond].tocsr()[:, free_cond]
    return a_all[free_cond][:, free_cond], f_g, b_g


def _former_aux(mesh, spaces, params, ess):
    # the former scatter-then-slice auxiliary operator, kept verbatim
    nv = mesh.num_vertices
    det = mesh.det_j
    jinv = inverse_jacobians(mesh.jacobians, det)
    grads = np.concatenate([-(jinv[:, :1] + jinv[:, 1:]), jinv], axis=1)
    stiff = np.einsum("tid,tjd->tij", grads, grads) * (0.5 * det)[:, None, None]
    mloc = (np.ones((3, 3)) + np.eye(3)) / 24.0
    massl = mloc[None, :, :] * det[:, None, None]
    loc = 2.0 * params.mu * stiff + params.tau * massl
    free_edge = ess.free_mask[: spaces.split.n_bnd : spaces.k + 1]
    ess_verts = np.zeros(nv, bool)
    ess_verts[mesh.edges[~free_edge]] = True
    free_v = np.flatnonzero(~ess_verts)
    scal = _former_scatter(loc, mesh.triangles, nv)[free_v][:, free_v]
    return sp.kron(scal, sp.eye(2), format="csr"), free_v


def _same_csr(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


class TestEliminationByPosition:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("problem,n", [("cavity", 4), ("step", 4)])
    def test_equal_to_former_scatter_then_slice(self, problem, n, k):
        mesh = step_domain(n) if problem == "step" else unit_square(n)
        spaces = build_spaces(mesh, k)
        ess = interpolate_essential(mesh, spaces, problem)
        params = ProblemParams(tau=1.0, inv_lambda=1.0)

        def force(x):
            return np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] * x[:, 1]])

        block = assemble_saddle(mesh, spaces, params, ess, body_force=force)
        cond = eliminate_local(block)
        a_g, f_g, b_g = _former_condensed(block)
        _same_csr(cond.A_g.csr, a_g)
        assert np.array_equal(cond.F_g, f_g)
        assert np.abs(f_g).max() > 0
        _same_csr(cond.B_g, b_g)

        space = aux_space(spaces, cond.structure.a_g)
        aux, vpos = space.operator(params), space.vpos
        want, free_v = _former_aux(mesh, spaces, params, ess)
        # the former vector operator is the kron with I2: compare its scalar part
        _same_csr(aux.csr, want[::2, ::2])
        assert np.array_equal(np.flatnonzero(vpos >= 0), free_v)
        assert np.array_equal(vpos[free_v], np.arange(free_v.size))

    @pytest.mark.parametrize("problem,n,k", [("cavity", 4, 2), ("step", 4, 3), ("step", 2, 4)])
    def test_constant_pressure_rows_equal_the_whole_couplings(self, problem, n, k):
        """The structure assembles only B's nt constant-pressure rows: they,
        and B_g and F_pbar from them, are those of the whole B bit for bit."""
        mesh = step_domain(n) if problem == "step" else unit_square(n)
        spaces = build_spaces(mesh, k)
        ess = interpolate_essential(mesh, spaces, problem)
        nt = mesh.num_triangles
        want = assemble_pressure_ops(mesh, spaces)[:nt]
        _same_csr(assemble_pressure_ops(mesh, spaces, constant_only=True), want)
        s = condensed_structure(spaces, ess, np.arange(nt))
        _same_csr(s.B_g, want[:, s.free_cond])
        f_pbar = -(want @ ess.full_vector())
        assert np.array_equal(s.F_pbar, f_pbar)
        assert np.abs(f_pbar).max() > 0 or problem == "cavity"


class TestCoercivityCheck:
    def test_agrees_with_eigenvalue_rule(self):
        rng = np.random.default_rng(11)
        ratios = [0.0, 1e-3, -1e-11, -5e-10, -2e-9, -1e-8, -1e-6, -1e-3]
        for r in ratios:
            aloc = _blocks_with_min_eigenvalue(rng, [0.0, 1e-2, r])
            want = got = None
            try:
                _eigvalsh_rule(aloc)
            except NotSPD as exc:
                want = str(exc)
            try:
                _element_coercivity_check(aloc)
            except NotSPD as exc:
                got = str(exc)
            assert got == want, r
            assert (want is None) == (r > -1e-9), r

    def test_psd_singular_blocks_pass(self):
        rng = np.random.default_rng(12)
        _element_coercivity_check(_blocks_with_min_eigenvalue(rng, [0.0] * 20))
        _element_coercivity_check(np.zeros((3, 6, 6)))

    def test_threshold_both_sides(self):
        rng = np.random.default_rng(13)
        ok = _blocks_with_min_eigenvalue(rng, [0.0] * 5 + [-1e-11])
        _element_coercivity_check(ok)
        bad = _blocks_with_min_eigenvalue(rng, [0.0] * 5 + [-1e-6])
        with pytest.raises(NotSPD, match=r"relative -1\.000e-06"):
            _element_coercivity_check(bad)


@dataclass(frozen=True)
class _FormerLocalStacks:
    """The former parameter-independent signed stacks and their combination,
    kept verbatim as reference."""

    mass: np.ndarray  # (nt, n_loc, n_loc)
    visc: np.ndarray  # gradient + consistency terms
    pen: np.ndarray  # jump penalty with 1/h_F included, alpha k^2 excluded

    def combine(self, p: ProblemParams, k: int) -> np.ndarray:
        """tau * mass + 2 mu * (visc + alpha k^2 * pen), in one buffer."""
        a = (p.alpha * k * k) * self.pen
        a += self.visc
        a *= 2.0 * p.mu
        a += p.tau * self.mass
        return a


def _former_build(ts: TensorStack) -> np.ndarray:
    # the former ``TensorStack.build``, kept verbatim as reference
    n = ts.n_loc
    iu, ju = np.triu_indices(n)
    packed = np.empty((n, n), np.int64)
    packed[iu, ju] = packed[ju, iu] = np.arange(iu.size)
    g = np.concatenate(ts.coef, axis=1)
    upper = g @ np.concatenate(ts.tensors)[:, iu, ju]
    s = np.take(upper, packed.ravel(), axis=1).reshape(-1, n, n)
    s *= ts.signs[:, :, None]
    s *= ts.signs[:, None, :]
    return s


def _former_local_stacks(mesh, spaces) -> _FormerLocalStacks:
    # the former ``assemble_local_stacks``, kept verbatim as reference
    ref, dm, k = spaces.ref, spaces.dofmap, spaces.k
    j, det = mesh.jacobians, mesh.det_j
    o = sym_grad_maps(j, det)
    mass, visc, pen = (TensorStack(spaces) for _ in range(3))
    mass.add((np.swapaxes(j, 1, 2) @ j) / det[:, None, None], uu=ref.mass_moments)
    visc.add(viscous_volume_coefficients(o, det), uu=ref.grad_moments)
    for key, hat, c1, c2 in edge_coefficients(mesh, ref, o):
        em = ref.edge_moments[key]
        st = em.stress_trace
        visc.add(c1[:, :, None] * c2[:, None, :], uu=-(st + np.swapaxes(st, 2, 3)))
        visc.add(c1, uh=em.stress_mode, hat=hat)
        tm = em.trace_mode
        pen.add(c2[:, :, None] * c2[:, None, :], uu=np.einsum("aim,bjm->abij", tm, tm))
        pen.add(c2, uh=-tm, hat=hat)
    pen.add(np.ones((mesh.num_triangles, 1)), hh=np.eye(3 * k), hat=dm.hat_slots)
    return _FormerLocalStacks(
        mass=_former_build(mass), visc=_former_build(visc), pen=_former_build(pen)
    )


def _mesh(problem, n):
    return {"cavity": unit_square, "step": step_domain, "jittered": jittered_square}[
        problem
    ](n)


class TestMatmulStacks:
    @pytest.mark.parametrize(
        "problem,n,k",
        [("cavity", 3, 1), ("cavity", 3, 2), ("step", 2, 3), ("cavity", 2, 4)]
        + [("jittered", 4, k) for k in (1, 2, 3, 4)],
    )
    def test_match_einsum_reference_and_exactly_symmetric(self, problem, n, k):
        mesh = _mesh(problem, n)
        spaces = build_spaces(mesh, k)
        got = assemble_local_stacks(mesh, spaces)
        for name, want in zip(("mass", "visc", "pen"), _einsum_stacks(mesh, spaces)):
            stack = got.stack(name)
            assert np.abs(stack - want).max() <= 1e-14 * np.abs(want).max(), name
            assert np.array_equal(stack, np.swapaxes(stack, 1, 2)), name

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("problem,n", [("cavity", 3), ("step", 2), ("jittered", 4)])
    def test_coefficient_form_combines_to_former_signed_stacks(self, problem, n, k):
        mesh = _mesh(problem, n)
        spaces = build_spaces(mesh, k)
        got = assemble_local_stacks(mesh, spaces)
        want = _former_local_stacks(mesh, spaces)
        assert got.mass.shape[1] + got.visc.shape[1] + got.pen.shape[1] == 129
        for name in ("mass", "visc", "pen"):
            assert np.array_equal(got.stack(name), getattr(want, name)), name
        for p in (
            ProblemParams(),
            ProblemParams(mu=0.37, tau=3.3, inv_lambda=1e-4),
            ProblemParams(mu=2.0, tau=1e4, inv_lambda=1.0, alpha=5.0),
        ):
            assert np.array_equal(got.combine(p, k), want.combine(p, k)), p

    @pytest.mark.parametrize(
        "problem,n,k", [("cavity", 3, 2), ("step", 2, 3), ("jittered", 4, 1), ("jittered", 4, 4)]
    )
    def test_norm_stacks_match_quadrature(self, problem, n, k):
        mesh = _mesh(problem, n)
        spaces = build_spaces(mesh, k)
        got = norm_stacks(mesh, spaces)
        for name, stack, want in zip(("d", "j"), got, _einsum_norm_stacks(mesh, spaces)):
            assert np.abs(stack - want).max() <= 1e-14 * np.abs(want).max(), name
            assert np.array_equal(stack, np.swapaxes(stack, 1, 2)), name
