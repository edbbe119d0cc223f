import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from divhdg import precond
from divhdg.assembly import ProblemParams, assemble_saddle, position_map, scatter_stack
from divhdg.condense import (
    block_positions,
    condensed_structure,
    edge_ranks,
    eliminate_local,
    trace_layout,
)
from divhdg.krylov import minres, operator_condensed
from divhdg.linalg import SparseSym, factor_spd
from divhdg.mesh import TAG_INLET, TAG_OUTLET, TAG_WALL, build_mesh, step_domain, unit_square
from divhdg.precond import (
    asp_structure,
    assemble_pressure_laplacian,
    aux_space,
    build_asp,
    build_schur,
    materialize_schur_dense,
    schur_structure,
)
from divhdg.spaces import build_spaces, free_edge_rank, free_edge_unknowns, interpolate_essential

from conftest import (
    colour_patches,
    jittered_square,
    patch_matrices,
    patch_ranks,
    pipeline,
    swept_colours,
    wall_triangle,
)


def _one_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return build_mesh(verts, np.array([[0, 1, 2]]))


class TestPressureOperators:
    def test_two_element_hand_values(self):
        m = unit_square(1)
        n = assemble_pressure_laplacian(m).csr.toarray()
        assert np.allclose(m.areas, [0.5, 0.5], atol=1e-15)
        assert np.allclose(np.abs(n), [[1.0, 1.0], [1.0, 1.0]], atol=1e-14)
        assert np.allclose(n, np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-14)

    def test_cavity_constant_nullspace(self):
        m = unit_square(4)
        n = assemble_pressure_laplacian(m)
        assert np.abs(n.csr @ np.ones(n.n)).max() <= 1e-13

    def test_step_outlet_pins_nullspace(self):
        m = step_domain(2)
        n = assemble_pressure_laplacian(m)
        assert sla.eigvalsh(n.toarray())[0] > 0


class TestSchurClosedForms:
    def test_incompressible_scaling_limit(self):
        # tau = 0: the whole inverse collapses to a scaled mass solve, and
        # mu=1, lambda=2 makes the scale factor exactly one
        m = unit_square(2)
        s = build_schur(m, ProblemParams(mu=1.0, tau=0.0, inv_lambda=0.5))
        rng = np.random.default_rng(0)
        r = rng.standard_normal(len(m.areas))
        assert np.allclose(s.apply(r), r / m.areas, atol=1e-14)

    def test_single_element_exact_inverse(self):
        # one element: no jumps, the Schur approximation is (1/lambda) M and
        # its inverse must be exactly lambda M^{-1}
        m = _one_triangle()
        lam = 2.0
        s = build_schur(m, ProblemParams(mu=1.0, tau=1.0, inv_lambda=1.0 / lam))
        r = np.array([0.7])
        assert np.allclose(s.apply(r), lam * r / m.areas, atol=1e-14)

    def test_single_element_enclosed_incompressible(self):
        # one enclosed element at 1/lambda = 0: N = [[0]], so the grounded
        # factor is of [[1]], and the output is the zero mean-free vector
        s = build_schur(_one_triangle(), ProblemParams(tau=1.0, inv_lambda=0.0))
        assert s.deflate and s.inner.n == 1
        assert np.array_equal(s.apply(np.ones(1)), [0.0])

    def test_woodbury_roundtrip_single_point(self):
        m = unit_square(2)
        params = ProblemParams(mu=1.0, tau=1.0, inv_lambda=1.0)
        s = build_schur(m, params)
        dense = materialize_schur_dense(m, params)
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = rng.standard_normal(len(m.areas))
            err = np.linalg.norm(dense @ s.apply(r) - r) / np.linalg.norm(r)
            assert err <= 1e-10

    def test_spd_operator(self):
        m = unit_square(3)
        s = build_schur(m, ProblemParams(mu=2.0, tau=3.0, inv_lambda=0.25))
        rng = np.random.default_rng(2)
        for _ in range(50):
            r1 = rng.standard_normal(len(m.areas))
            r2 = rng.standard_normal(len(m.areas))
            z1, z2 = s.apply(r1), s.apply(r2)
            scale = max(abs(r1 @ z2), 1.0)
            assert abs(r1 @ z2 - r2 @ z1) <= 1e-12 * scale
            assert r1 @ z1 > 0

    def test_deflation_preserves_mean_zero(self):
        m = unit_square(4)
        s = build_schur(m, ProblemParams(mu=1.0, tau=1.0, inv_lambda=0.0))
        rng = np.random.default_rng(3)
        r = rng.standard_normal(len(m.areas))
        r -= r.mean()
        z = s.apply(r)
        assert abs(z.mean()) <= 1e-12 * np.abs(z).max()


class TestSchurDeflation:
    @pytest.mark.parametrize("inv_h", [2, 4])
    @pytest.mark.parametrize("tau", [1.0, 1e4])
    def test_minimum_norm_closed_form(self, inv_h, tau):
        # enclosed cavity at 1/lambda = 0: on mean-zero r the application is
        # P (c1 M^{-1} r + c2 N^+ r), P the mean projector; here d = 1, so
        # c1 = 2 mu and c2 = tau
        m = unit_square(inv_h)
        s = build_schur(m, ProblemParams(mu=1.0, tau=tau, inv_lambda=0.0))
        assert s.deflate
        n_pinv = np.linalg.pinv(assemble_pressure_laplacian(m).toarray())
        rng = np.random.default_rng(6)
        for _ in range(5):
            r = rng.standard_normal(len(m.areas))
            r -= r.mean()
            want = 2.0 * r / m.areas + tau * (n_pinv @ r)
            want -= want.mean()
            got = s.apply(r)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_grounded_factor_on_n_pattern_and_order(self):
        # deflation grounds N in place: the factor keeps every element and
        # N's own RCM order
        m = unit_square(4)
        s = build_schur(m, ProblemParams(mu=1.0, tau=1.0, inv_lambda=0.0))
        assert s.deflate and s.inner.n == m.num_triangles
        assert np.array_equal(s.inner.perm, schur_structure(m).layout.perm)


def _bits_equal(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """Equal CSR index arrays and data bit for bit, index types included."""
    return (
        a.shape == b.shape
        and a.indptr.dtype == b.indptr.dtype
        and a.indices.dtype == b.indices.dtype
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))
    )


class TestPlannedSchurFactor:
    """The inner factor a row forms on the structure's band layout equals
    the factor of N + diag(shift), formed and factored afresh under N's RCM
    order, band bit for band bit."""

    @pytest.mark.parametrize(
        "make_mesh,inv_lambda,deflates",
        [
            (lambda: unit_square(4), 0.0, True),
            (lambda: unit_square(4), 1.0, False),
            (lambda: step_domain(4), 0.0, False),  # the outlet's path
            (lambda: jittered_square(4), 1e-4, False),
            (wall_triangle, 0.0, True),  # N stores no diagonal: no facet
            (wall_triangle, 1.0, False),
        ],
        ids=["deflated", "plain", "outlet", "jittered", "one-deflated", "one-plain"],
    )
    def test_equals_fresh_factor(self, make_mesh, inv_lambda, deflates):
        mesh = make_mesh()
        params = ProblemParams(mu=1.5, tau=2.0, inv_lambda=inv_lambda)
        structure = schur_structure(mesh)
        s = build_schur(mesh, params, structure=structure)
        assert s.deflate is deflates
        d = 2.0 * params.mu * params.inv_lambda + 1.0
        shift = params.tau * params.inv_lambda / d * mesh.areas
        if deflates:
            shift[0] += 1.0
        n_mat = assemble_pressure_laplacian(mesh).csr
        want = factor_spd(SparseSym((n_mat + sp.diags(shift)).tocsr()), structure.layout.perm)
        assert np.array_equal(s.inner._chol_band.view(np.uint64), want._chol_band.view(np.uint64))
        assert np.array_equal(s.inner.perm, want.perm)
        assert np.array_equal(s.inner._inv_perm, want._inv_perm)

    @pytest.mark.parametrize("inv_lambda", [0.0, 1.0])
    def test_no_inner_factor_at_tau_zero(self, inv_lambda):
        m = unit_square(4)
        s = build_schur(m, ProblemParams(tau=0.0, inv_lambda=inv_lambda), structure=schur_structure(m))
        assert s.c2 == 0.0 and s.inner is None

    def test_structure_keeps_n_with_its_diagonal(self):
        m = step_domain(4)
        structure = schur_structure(m)
        n_mat = assemble_pressure_laplacian(m).csr
        assert np.array_equal(structure.n_data, n_mat.data)
        assert np.array_equal(structure.n_data[structure.layout.diag], n_mat.diagonal())


class TestSchurMode:
    def test_only_the_exact_formula(self):
        m = unit_square(2)
        p = ProblemParams(mu=1.0, tau=1.0, inv_lambda=1.0)
        r = np.random.default_rng(4).standard_normal(len(m.areas))
        # the positional mode the traced benchmark passes
        assert np.array_equal(build_schur(m, p, "exact").apply(r), build_schur(m, p).apply(r))
        for mode in ("approx", "EXACT"):
            with pytest.raises(ValueError, match=f"unknown Schur mode '{mode}'"):
                build_schur(m, p, mode=mode)


@pytest.fixture(scope="module")
def transfer_built():
    mesh, spaces, ess, block, cond = pipeline("cavity", 4, 2, tau=1.0, inv_lambda=1.0)
    return mesh, spaces, ess, cond, build_asp(cond)


def _structure(cond):
    """The patch-smoother ``AspStructure`` of ``cond``: its patches and their
    colouring."""
    return asp_structure(cond.spaces, cond.structure)


@pytest.fixture(scope="module")
def smoother_built():
    *_, cond = pipeline("cavity", 2, 2, tau=1.0, inv_lambda=1.0)
    return cond, build_asp(cond)


class TestTransfer:
    @pytest.fixture()
    def built(self, transfer_built):
        return transfer_built

    def test_zero_maps_to_zero(self, built):
        *_, asp = built
        z = asp.transfer @ np.zeros(asp.transfer.shape[1])
        assert np.abs(z).max() == 0.0

    def test_reproduces_nodal_traces(self, built):
        # a continuous piecewise-linear field has degree-1 traces, so the
        # facet projections must capture its normal moments exactly and its
        # tangential moments through the reduced facet space
        mesh, spaces, ess, cond, asp = built
        k = spaces.k
        fb = spaces.ref.facet
        s = fb.rule.points[:, 0]
        w = fb.rule.weights
        nvert = len(mesh.vertices)
        on_bnd = np.zeros(nvert, bool)
        for e in np.flatnonzero(mesh.edge_tags != 0):
            on_bnd[mesh.edges[e]] = True
        free_v = np.flatnonzero(~on_bnd)
        assert asp.transfer.shape[1] == 2 * len(free_v)

        rng = np.random.default_rng(6)
        nodal = np.zeros((nvert, 2))
        nodal[free_v] = rng.standard_normal((len(free_v), 2))
        z = asp.transfer @ nodal[free_v].ravel()
        row_of = {int(g): i for i, g in enumerate(cond.free_cond)}

        for e in np.flatnonzero(mesh.edge_tags == 0):
            a, b = mesh.edges[e]
            uv = nodal[a][None, :] * (1 - s[:, None]) + nodal[b][None, :] * s[:, None]
            t = mesh.tangents[e]
            n = np.array([t[1], -t[0]])
            le = mesh.edge_lengths[e]
            c = np.array([z[row_of[e * (k + 1) + m]] for m in range(k + 1)])
            mom_got = fb.theta.T @ c
            mom_want = le * np.einsum("q,jq,q->j", uv @ n, fb.modes_vals, w)
            assert np.abs(mom_got - mom_want).max() <= 1e-12
            d = np.array(
                [z[row_of[spaces.split.n_bnd + e * k + j]] for j in range(k)]
            )
            mom_t = np.einsum("q,jq,q->j", uv @ t, fb.lhat_vals, w)
            assert np.abs(d - mom_t).max() <= 1e-12

    def test_full_column_rank(self, built):
        *_, asp = built
        t = asp.transfer.toarray()
        assert np.linalg.matrix_rank(t, tol=1e-10) == t.shape[1]

    def test_restriction_is_stored_transpose(self, built):
        *_, cond, asp = built
        assert isinstance(asp.restrict, sp.csr_matrix)
        assert (asp.restrict != asp.transfer.T).nnz == 0
        r = np.random.default_rng(6).standard_normal(cond.n_free)
        z = asp.transfer @ asp.aux_factor.solve((asp.transfer.T @ r).reshape(-1, 2)).ravel()
        assert np.array_equal(asp.coarse(r), z)


def _former_transfer(mesh, spaces, cond):
    # the former closed-form transfer and boundary-edge loop of the
    # auxiliary space, kept verbatim as reference
    k = spaces.k
    split = spaces.split
    ess = cond.block.essential
    fb = spaces.ref.facet

    ess_verts = np.zeros(mesh.num_vertices, bool)
    for e in mesh.boundary_edges():
        if ess.free_mask[e * (spaces.k + 1)]:
            continue  # outlet edge: vertices stay free unless shared with walls
        ess_verts[mesh.edges[e]] = True
    free_v = np.flatnonzero(~ess_verts)
    vpos = np.full(mesh.num_vertices, -1, np.int64)
    vpos[free_v] = np.arange(free_v.size)

    # reference moments of the two linear endpoint profiles against the modes
    s = fb.rule.points[:, 0]
    w = fb.rule.weights
    prof = np.stack([1.0 - s, s])  # (2, Qe): endpoint a, endpoint b
    mom_full = np.einsum("pq,jq,q->pj", prof, fb.modes_vals, w)  # (2, k+1)
    mom_hat = np.einsum("pq,jq,q->pj", prof, fb.lhat_vals, w)  # (2, k)
    # normal coefficient profiles: solve the trace moment system once
    cprof = np.linalg.solve(fb.theta.T, mom_full.T).T  # (2, k+1)

    cond_pos = np.full(split.n_cond, -1, np.int64)
    cond_pos[cond.free_cond] = np.arange(cond.free_cond.size)

    # free edges and their 2k+1 condensed unknowns: normal modes, then tangential
    fe = np.flatnonzero(ess.free_mask[np.arange(mesh.num_edges) * (k + 1)])
    normal = fe[:, None] * (k + 1) + np.arange(k + 1)
    tangential = split.n_bnd + fe[:, None] * k + np.arange(k)
    edofs = cond_pos[np.concatenate([normal, tangential], axis=1)]  # (E, 2k+1)

    # transfer entries over (free edge, endpoint, component, mode)
    t = mesh.tangents[fe]
    nrm = np.stack([t[:, 1], -t[:, 0]], axis=1)
    le = mesh.edge_lengths[fe]
    vals = np.concatenate(
        [
            le[:, None, None, None] * nrm[:, None, :, None] * cprof[None, :, None, :],
            t[:, None, :, None] * mom_hat[None, :, None, :],
        ],
        axis=3,
    )
    vp = vpos[mesh.edges[fe]]  # (E, 2)
    keep = np.broadcast_to((vp >= 0)[:, :, None, None], vals.shape)
    rows = np.broadcast_to(edofs[:, None, None, :], vals.shape)
    cols = np.broadcast_to(
        2 * vp[:, :, None, None] + np.arange(2)[:, None], vals.shape
    )
    transfer = sp.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(cond.free_cond.size, 2 * free_v.size),
    ).tocsr()
    transfer.sum_duplicates()
    transfer.sort_indices()
    return free_v, transfer


class TestCoarseSolve:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("problem,n", [("cavity", 4), ("step", 4)])
    def test_equals_vector_operator_solve(self, problem, n, k):
        # Pi (A0 kron I2)^{-1} Pi^T r, the vector operator formed and solved
        # directly, against the two right sides of the scalar factor
        mesh, spaces, ess, block, cond = pipeline(problem, n, k, tau=1.0)
        asp = build_asp(cond, smoother="jacobi")
        a0 = aux_space(spaces, cond.structure.a_g).operator(block.params).csr
        vector = sp.kron(a0, sp.identity(2), format="csc")
        r = np.random.default_rng(k).standard_normal(cond.n_free)
        want = asp.transfer @ spla.spsolve(vector, asp.restrict @ r)
        got = asp.coarse(r)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestTransferEqualsFormerClosedForm:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("problem,n", [("cavity", 4), ("step", 4)])
    def test_same_pattern_and_entries(self, problem, n, k):
        mesh, spaces, ess, _, cond = pipeline(problem, n, k, tau=1.0)
        free_v, want = _former_transfer(mesh, spaces, cond)
        vpos = aux_space(spaces, cond.structure.a_g).vpos
        assert np.array_equal(np.flatnonzero(vpos >= 0), free_v)
        got = build_asp(cond, smoother="jacobi").transfer
        # the transfer stores no exact zero (axis-parallel edges give some);
        # the former one kept them, so compare against it without them
        assert got.has_canonical_format
        assert np.count_nonzero(got.data) == got.nnz
        want.eliminate_zeros()
        # every former entry is stored; the only extra ones are the modes
        # above degree 1, which the former closed form left at exact zero and
        # the projection at roundoff
        extra = (got != 0).astype(np.int8) - (want != 0).astype(np.int8)
        assert extra.min() >= 0
        assert abs(got - want).max() <= 1e-15 * np.abs(want.data).max()


def _scattered_transfer(spaces, a_g, vpos):
    """Pi as formerly built, kept as reference: one (2k+1, 4) block per free
    edge over its (endpoint, component) columns, summed by ``scatter_stack``,
    then its exact zeros dropped."""
    mesh, k, fb = spaces.mesh, spaces.k, spaces.ref.facet
    s = fb.rule.points[:, 0]
    hats = np.stack([1.0 - s, s])
    hat_n = hats @ fb.normal_projection.T
    hat_t = hats @ fb.tangential_projection.T
    fe = a_g.free_edges
    t = mesh.tangents[fe]
    nrm = np.stack([t[:, 1], -t[:, 0]], axis=1)
    le = mesh.edge_lengths[fe]
    vals = np.concatenate(
        [
            le[:, None, None, None] * nrm[:, None, :, None] * hat_n[None, :, None, :],
            t[:, None, :, None] * hat_t[None, :, None, :],
        ],
        axis=3,
    )
    vp = vpos[mesh.edges[fe]]
    cols = np.where(vp[:, :, None] >= 0, 2 * vp[:, :, None] + np.arange(2), -1)
    transfer = scatter_stack(
        vals.reshape(fe.size, 4, 2 * k + 1).transpose(0, 2, 1),
        free_edge_unknowns(np.arange(fe.size, dtype=np.intp), fe.size, k),
        a_g.shape[0],
        cols.reshape(fe.size, 4),
        2 * np.count_nonzero(vpos >= 0),
    )
    transfer.eliminate_zeros()
    return transfer.copy()


TRANSFER_MESHES = (
    [(f"cavity-{n}", lambda n=n: unit_square(n), "cavity", k) for n in (4, 16) for k in (1, 2, 3, 4)]
    + [(f"step-{n}", lambda n=n: step_domain(n), "step", k) for n in (2, 8) for k in (1, 3, 4)]
    + [("square-7", lambda: unit_square(7), "cavity", 2)]
    + [("jittered-4", lambda: jittered_square(4), "cavity", 2)]
)


class TestTransferRowByRow:
    """Pi written row by row equals the scatter of its per-edge blocks with
    the exact zeros dropped, bit for bit; the step's outlet vertices are
    free columns."""

    @pytest.mark.parametrize(
        "make_mesh,problem,k",
        [case[1:] for case in TRANSFER_MESHES],
        ids=[f"{case[0]}-k{case[3]}" for case in TRANSFER_MESHES],
    )
    def test_equals_scattered_blocks(self, make_mesh, problem, k):
        mesh = make_mesh()
        spaces = build_spaces(mesh, k)
        ess = interpolate_essential(mesh, spaces, problem)
        a_g = condensed_structure(spaces, ess, np.arange(mesh.num_triangles)).a_g
        aux = aux_space(spaces, a_g)
        got = aux.transfer
        assert got.indptr.dtype == np.int32 and got.indices.dtype == np.int32
        assert got.has_canonical_format
        assert np.count_nonzero(got.data) == got.nnz
        assert _bits_equal(got, _scattered_transfer(spaces, a_g, aux.vpos))
        assert _bits_equal(aux.restrict, got.T.tocsr())


class TestSmoother:
    @pytest.fixture()
    def built(self, smoother_built):
        return smoother_built

    def test_patch_membership_counts(self, built):
        cond, _ = built
        patches = [p for colour in _patches(_structure(cond)) for p in colour]
        # the interior vertex of this mesh touches six free edges, each
        # contributing 2k+1 = 5 condensed unknowns
        assert max(p.size for p in patches) == 30
        counts = np.bincount(np.concatenate(patches), minlength=cond.free_cond.size)
        assert counts.min() >= 1
        assert counts.max() <= 2

    def test_zero_residual_fixed(self, built):
        cond, asp = built
        z = asp.smooth(np.zeros(cond.n_free))
        assert np.abs(z).max() == 0.0

    def test_symmetric_operator(self, built):
        cond, asp = built
        rng = np.random.default_rng(7)
        n = cond.n_free
        for _ in range(20):
            r1, r2 = rng.standard_normal(n), rng.standard_normal(n)
            s12 = r1 @ asp.smooth(r2)
            s21 = r2 @ asp.smooth(r1)
            assert abs(s12 - s21) <= 1e-12 * max(abs(s12), 1.0)


@pytest.fixture(scope="module")
def step_built():
    # k=3 step mesh: patches of several sizes, so colours hold several groups
    *_, cond = pipeline("step", 2, 3)
    return cond, build_asp(cond)


def _patches(structure):
    """Per colour, its patches as arrays of unknowns, group by group."""
    return [[ids for ids, _ in colour] for colour in colour_patches(structure)]


def _reference_sgs(cond, structure, r):
    """Plain sequential block symmetric Gauss-Seidel on dense A_g: patches in
    colour order, a forward pass, then the same patches in reverse."""
    a = cond.A_g.toarray()
    sweep = [ids for colour in _patches(structure) for ids in colour]
    z = np.zeros_like(r)
    for ids in sweep + sweep[::-1]:
        z[ids] += np.linalg.solve(a[np.ix_(ids, ids)], r[ids] - a[ids] @ z)
    return z


class TestColouredSmoother:
    @pytest.fixture(params=["cavity", "step"])
    def built(self, request, smoother_built, step_built):
        return smoother_built if request.param == "cavity" else step_built

    def test_colours_are_uncoupled(self, built):
        cond, asp = built
        structure = _structure(cond)
        a = cond.A_g.toarray() != 0.0
        colours = _patches(structure)
        assert len(asp.sweep) == 2 * len(colours) - 1
        covered = np.zeros(cond.n_free, bool)
        for members in colours:
            assert members  # no empty colour
            owner = np.full(cond.n_free, -1)
            for p, ids in enumerate(members):
                assert np.all(owner[ids] == -1)  # no shared unknown
                owner[ids] = p
            for p, ids in enumerate(members):
                coupled = owner[np.flatnonzero(a[ids].any(axis=0))]
                assert set(coupled.tolist()) <= {-1, p}
            covered |= owner >= 0
        assert covered.all()  # every unknown lies in a patch

    def test_matches_sequential_reference(self, built):
        cond, asp = built
        rng = np.random.default_rng(11)
        for _ in range(3):
            r = rng.standard_normal(cond.n_free)
            want = _reference_sgs(cond, _structure(cond), r)
            got = asp.smooth(r)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_structured_mesh_needs_four_colours(self, transfer_built):
        *_, asp = transfer_built
        assert len(asp.sweep) == 2 * 4 - 1


class TestStepSmoother:
    def test_several_patch_sizes(self, step_built):
        cond, _ = step_built
        sizes = [ids.size for colour in _patches(_structure(cond)) for ids in colour]
        assert np.unique(sizes).size >= 3

    def test_symmetric_operator(self, step_built):
        cond, asp = step_built
        rng = np.random.default_rng(12)
        n = cond.n_free
        for _ in range(20):
            r1, r2 = rng.standard_normal(n), rng.standard_normal(n)
            s12 = r1 @ asp.smooth(r2)
            s21 = r2 @ asp.smooth(r1)
            assert abs(s12 - s21) <= 1e-12 * max(abs(s12), 1.0)

    def test_positivity(self, step_built):
        cond, asp = step_built
        rng = np.random.default_rng(13)
        for _ in range(100):
            r = rng.standard_normal(cond.n_free)
            assert r @ asp.smooth(r) > 0
            assert r @ asp.apply(r) > 0


class TestAspOperator:
    def test_positivity(self):
        *_, cond = pipeline("cavity", 2, 2, tau=1.0, inv_lambda=1.0)
        asp = build_asp(cond)
        rng = np.random.default_rng(8)
        for _ in range(100):
            r = rng.standard_normal(cond.n_free)
            assert r @ asp.apply(r) > 0

    def test_exact_debug_mode_one_iteration(self):
        # MINRES on the velocity block with its exact inverse as preconditioner
        *_, cond = pipeline("cavity", 2, 2, tau=1.0, inv_lambda=1.0)
        exact = factor_spd(cond.A_g).solve
        rng = np.random.default_rng(9)
        b = rng.standard_normal(cond.n_free)
        x, rep = minres(
            lambda v: cond.A_g.csr @ v, exact, b, tol=1e-10, maxit=50
        )
        assert rep.iterations == 1

    def test_jacobi_mode_runs(self):
        *_, cond = pipeline("cavity", 2, 2, tau=1.0, inv_lambda=1.0)
        asp = build_asp(cond, smoother="jacobi")
        r = np.random.default_rng(10).standard_normal(cond.n_free)
        z = asp.apply(r)
        assert np.all(np.isfinite(z))
        assert r @ z > 0

    def test_unknown_smoother_rejected(self):
        *_, cond = pipeline("cavity", 2, 2, tau=1.0, inv_lambda=1.0)
        for smoother in ("ilu", "exact"):
            with pytest.raises(ValueError, match="unknown smoother"):
                build_asp(cond, smoother=smoother)


class TestPressureLaplacianAssembly:
    @pytest.mark.parametrize(
        "mesh",
        [unit_square(1), unit_square(5), step_domain(2), step_domain(6), jittered_square(4)],
    )
    def test_equal_to_former_edge_loop(self, mesh):
        # the former per-edge loop, kept verbatim as reference
        from divhdg.mesh import TAG_OUTLET

        nt = mesh.num_triangles
        rows, cols, vals = [], [], []
        for e in np.flatnonzero(mesh.edge_elems[:, 1] >= 0):
            a, b = mesh.edge_elems[e]
            rows += [a, b, a, b]
            cols += [a, b, b, a]
            vals += [1.0, 1.0, -1.0, -1.0]
        for e in mesh.boundary_edges():
            if mesh.edge_tags[e] == TAG_OUTLET:
                a = mesh.edge_elems[e, 0]
                rows.append(a)
                cols.append(a)
                vals.append(1.0)
        want = sp.coo_matrix((vals, (rows, cols)), shape=(nt, nt)).tocsr()
        want.sum_duplicates()
        want.sort_indices()
        got = assemble_pressure_laplacian(mesh).csr
        assert got.has_canonical_format
        assert got.indptr.dtype == np.int32 and got.indices.dtype == np.int32
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


def _former_colour_rows(cond):
    """Per colour, the unknowns of its patches as the former unknown-level
    colouring ordered them, kept as reference: the vertex patches in natural
    vertex order, each the unknowns of its free edges in ascending rank,
    coloured greedily on the pattern of P (|A_g| + I) P^T, with P the
    patch-to-unknown incidence; then each colour's patches by size."""
    mesh, spaces, a = cond.spaces.mesh, cond.spaces, cond.A_g.csr
    k = spaces.k
    erank = free_edge_rank(spaces.split, cond.block.essential)
    n_fe = np.count_nonzero(erank >= 0)
    patches = []
    for v in range(mesh.num_vertices):
        at_v = np.flatnonzero((mesh.edges == v).any(axis=1))
        edges = sorted(erank[e] for e in at_v if erank[e] >= 0)
        if edges:
            unknowns = [
                np.r_[r * (k + 1) + np.arange(k + 1), n_fe * (k + 1) + r * k + np.arange(k)]
                for r in edges
            ]
            patches.append(np.concatenate(unknowns))
    n = a.shape[0]
    inc = np.zeros((len(patches), n), bool)
    for p, ids in enumerate(patches):
        inc[p, ids] = True
    coupled = (position_map(a).toarray() > 0) | np.eye(n, dtype=bool)  # A_g's stored pattern
    conflict = (inc.astype(int) @ coupled @ inc.T.astype(int)) > 0
    colour = []
    for p in range(len(patches)):
        used = {colour[q] for q in np.flatnonzero(conflict[p]) if q < p}
        colour.append(min(set(range(len(used) + 1)) - used))
    rows = []
    for c in range(max(colour, default=-1) + 1):
        members = [p for p in range(len(patches)) if colour[p] == c]
        rows.append(sorted((patches[p] for p in members), key=len))  # stable: by size
    return rows


EDGE_LEVEL_MESHES = {
    "cavity": (lambda: unit_square(4), "cavity"),
    "step": (lambda: step_domain(4), "step"),
    "jittered": (lambda: jittered_square(4), "cavity"),
    "no-free-edge": (wall_triangle, "cavity"),
}


def _neighbour_edges(mesh, erank) -> list:
    """Per free-edge rank, the sorted ranks of the free edges that share an
    element with it, itself included, by a search over the elements."""
    nbrs = [set() for _ in range(np.count_nonzero(erank >= 0))]
    for tri in erank[mesh.tri_edges].tolist():
        for r in tri:
            if r >= 0:
                nbrs[r].update(c for c in tri if c >= 0)
    return [sorted(nb) for nb in nbrs]


class TestFreeEdgeGraph:
    """The free-edge graph that the condensed structure keeps: it holds the
    free edges that share an element, A_g's pattern is its (2k+1)-expansion
    in the documented row layout, and ``edge_ranks`` reads from it the
    ranks that a search over the elements gives."""

    @pytest.fixture(params=[1, 2, 3, 4])
    def built(self, request, name):
        make_mesh, problem = EDGE_LEVEL_MESHES[name]
        mesh = make_mesh()
        spaces = build_spaces(mesh, request.param)
        ess = interpolate_essential(mesh, spaces, problem)
        erank = free_edge_rank(spaces.split, ess)
        a_g = condensed_structure(spaces, ess, np.arange(mesh.num_triangles)).a_g
        return mesh, request.param, a_g, erank, _neighbour_edges(mesh, erank)

    @pytest.mark.parametrize("name", list(EDGE_LEVEL_MESHES))
    def test_a_g_pattern_expands_the_graph(self, built, name):
        mesh, k, a_g, erank, nbrs = built
        n_fe = len(nbrs)
        assert np.array_equal(a_g.free_edges, np.flatnonzero(erank >= 0))
        graph = a_g.graph
        assert graph.shape == (n_fe, n_fe) and graph.dtype == bool
        held = [graph.indices[graph.indptr[r] : graph.indptr[r + 1]].tolist() for r in range(n_fe)]
        assert held == nbrs
        assert a_g.shape == ((2 * k + 1) * n_fe,) * 2
        assert a_g.nnz == (2 * k + 1) ** 2 * graph.nnz
        for r, nb in enumerate(nbrs):
            # the normal modes of the neighbour edges in rank order, then
            # their tangential modes, in every row of edge r's unknowns
            want = [q * (k + 1) + m for q in nb for m in range(k + 1)]
            want += [n_fe * (k + 1) + q * k + j for q in nb for j in range(k)]
            rows = [r * (k + 1) + m for m in range(k + 1)]
            rows += [n_fe * (k + 1) + r * k + j for j in range(k)]
            for i in rows:
                assert a_g.indices[a_g.indptr[i] : a_g.indptr[i + 1]].tolist() == want
        if name == "no-free-edge":
            assert n_fe == 0 and a_g.nnz == 0

    @pytest.mark.parametrize("name", list(EDGE_LEVEL_MESHES))
    def test_edge_ranks_equal_a_search(self, built, name):
        mesh, k, a_g, erank, nbrs = built

        def rank(r, c):
            return nbrs[r].index(c) if r >= 0 and c in nbrs[r] else -1

        def search(edges):
            want = [[[rank(r, c) for c in row] for r in row] for row in edges.tolist()]
            return np.array(want, np.int8).reshape(edges.shape + edges.shape[1:])

        tri_rank = erank[mesh.tri_edges]
        assert a_g.edge_rank.dtype == np.int8
        assert np.array_equal(a_g.edge_rank, search(tri_rank))
        # lists of four ranks, essential (-1) ones and pairs that share no
        # element among them, and each free edge beside an essential one
        edges = np.random.default_rng(22).integers(-1, len(nbrs), size=(300, 4), dtype=np.int32)
        beside = np.c_[np.arange(len(nbrs)), np.full(len(nbrs), -1)].astype(np.int32)
        assert np.array_equal(edge_ranks(a_g.graph, beside), search(beside))
        got = edge_ranks(a_g.graph, edges)
        assert got.dtype == np.int8 and np.array_equal(got, search(edges))
        # rectangular: the first two edges of each list among all four
        assert np.array_equal(edge_ranks(a_g.graph, edges[:, :2], edges), got[:, :2])
        essential = (edges < 0)[:, :, None] | (edges < 0)[:, None, :]
        assert np.all(got[essential] == -1)
        if name != "no-free-edge":
            assert np.any(got[~essential] == -1) and np.any(got >= 0)


class TestAuxSpace:
    """The auxiliary space built from the condensed structure's free edges:
    its free vertices are those on no essential edge, the step's outlet
    vertices off the walls and the inlet among them, and with no free edge
    Pi and A0's factor are 0x0."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", list(EDGE_LEVEL_MESHES))
    def test_free_vertices_lie_on_no_essential_edge(self, name, k):
        make_mesh, problem = EDGE_LEVEL_MESHES[name]
        mesh = make_mesh()
        spaces = build_spaces(mesh, k)
        ess = interpolate_essential(mesh, spaces, problem)
        a_g = condensed_structure(spaces, ess, np.arange(mesh.num_triangles)).a_g
        aux = aux_space(spaces, a_g)
        on_essential = np.zeros(mesh.num_vertices, bool)
        on_essential[mesh.edges[free_edge_rank(spaces.split, ess) < 0]] = True
        free = aux.vpos >= 0
        n = np.count_nonzero(free)
        assert np.array_equal(free, ~on_essential)
        assert np.array_equal(aux.vpos[free], np.arange(n))
        assert aux.pattern.shape == (n, n) and aux.layout.perm.size == n
        assert aux.transfer.shape == (a_g.shape[0], 2 * n)
        if problem == "step":
            outlet = np.unique(mesh.edges[mesh.edge_tags == TAG_OUTLET])
            walls = np.unique(mesh.edges[np.isin(mesh.edge_tags, (TAG_WALL, TAG_INLET))])
            inner = np.setdiff1d(outlet, walls)
            assert inner.size > 0 and np.all(free[inner])
        if name == "no-free-edge":
            assert n == 0 and aux.transfer.shape == (0, 0) and aux.restrict.shape == (0, 0)
            assert factor_spd(aux.operator(ProblemParams(tau=1.0)), aux.layout.perm).n == 0


class TestEdgeLevelStructure:
    """The patch structure keeps free-edge data only: its colours equal the
    former unknown-level colouring's, and the block positions a row computes
    from A_g's row starts equal lookups of A_g's position map."""

    @pytest.fixture(params=[1, 2, 3, 4])
    def cond(self, request, name):
        make_mesh, problem = EDGE_LEVEL_MESHES[name]
        mesh = make_mesh()
        spaces = build_spaces(mesh, request.param)
        ess = interpolate_essential(mesh, spaces, problem)
        return eliminate_local(assemble_saddle(mesh, spaces, ProblemParams(tau=1.0), ess))

    @pytest.mark.parametrize("name", list(EDGE_LEVEL_MESHES))
    def test_colours_equal_unknown_level_colouring(self, cond, name):
        # the patches of a colour are independent, so only their set counts
        structure = _structure(cond)
        want = _former_colour_rows(cond)
        assert [sorted(ids.tolist() for ids in colour) for colour in _patches(structure)] == [
            sorted(ids.tolist() for ids in colour) for colour in want
        ]
        if name == "no-free-edge":
            assert structure.groups == []

    @pytest.mark.parametrize("name", list(EDGE_LEVEL_MESHES))
    def test_block_positions_equal_position_map(self, cond, name):
        """The positions of each patch's block [D | A_ring], rows the patch's
        unknowns and columns the patch's then the ring's."""
        a = cond.A_g.csr
        pos = position_map(a)
        k, n = cond.spaces.k, cond.n_free
        outside = 0
        for g in _structure(cond).groups:
            p, d, m = g.take.shape[0], g.d, g.m
            rows, cols = g.take[:, :m], np.concatenate([g.take[:, :m], g.take[:, m:] - n], 1)
            got = block_positions(
                a.indptr[rows],
                patch_ranks(cond.structure.a_g, g),
                trace_layout(k, d, by_edge=True),
                a.nnz,
                precond._block_columns(k, d, g.e),
            )
            shape = (p, m, cols.shape[1])
            want = pos[
                np.broadcast_to(rows[:, :, None], shape).ravel(),
                np.broadcast_to(cols[:, None, :], shape).ravel(),
            ]
            want = np.asarray(want).reshape(shape) - 1
            want[want < 0] = a.nnz  # outside A_g's pattern
            assert np.array_equal(got, want)
            outside += np.count_nonzero(got == a.nnz)
        assert outside > 0 or name == "no-free-edge"


def _former_colour_patches(offsets, spokes, graph: sp.csr_matrix) -> np.ndarray:
    """The former greedy colouring, a Python set per patch, kept verbatim as
    reference."""
    n_p = offsets.size - 1
    inc = sp.csr_matrix(
        (np.ones(spokes.size, bool), spokes, offsets), shape=(n_p, graph.shape[0])
    )
    conflict = (inc @ graph @ inc.T).tocsr()
    ptr = conflict.indptr.tolist()
    nbr = conflict.indices.tolist()
    colour = [-1] * n_p
    for p in range(n_p):
        used = {colour[q] for q in nbr[ptr[p] : ptr[p + 1]]}
        c = 0
        while c in used:
            c += 1
        colour[p] = c
    return np.array(colour, np.int64)


@pytest.mark.parametrize(
    "make_mesh,problem",
    [(lambda n=n: unit_square(n), "cavity") for n in (2, 4, 8, 64)]
    + [(lambda n=n: step_domain(n), "step") for n in (2, 4, 8)]
    + [(lambda: jittered_square(16), "cavity")],
    ids=["cavity2", "cavity4", "cavity8", "cavity64", "step2", "step4", "step8", "jittered16"],
)
def test_bitmask_colouring_equals_the_set_loop(make_mesh, problem):
    """The table's meshes (the colouring reads the free edges, which do not
    depend on k), a large one and one with no two elements alike."""
    mesh = make_mesh()
    spaces = build_spaces(mesh, 2)
    ess = interpolate_essential(mesh, spaces, problem)
    a_g = condensed_structure(spaces, ess, np.arange(mesh.num_triangles)).a_g
    ends = mesh.edges[a_g.free_edges].ravel()
    spokes = np.argsort(ends, kind="stable") // 2
    offsets = np.r_[0, np.cumsum(np.unique(ends, return_counts=True)[1])]
    inc = sp.csr_matrix(
        (np.ones(spokes.size, bool), spokes, offsets), shape=(offsets.size - 1, a_g.free_edges.size)
    )
    got = precond._colour_patches((inc @ a_g.graph @ inc.T).tocsr())
    assert np.array_equal(got, _former_colour_patches(offsets, spokes, a_g.graph))


class TestPatchPositions:
    @pytest.mark.parametrize("problem,n,k", [("cavity", 4, 2), ("step", 2, 3), ("step", 4, 1)])
    def test_matrices_equal_those_of_the_fancy_indexed_blocks(self, problem, n, k):
        *_, cond = pipeline(problem, n, k, tau=1.0)
        a = cond.A_g.csr
        structure = asp_structure(cond.spaces, cond.structure)
        outside = 0
        for given, blk in zip(colour_patches(structure), swept_colours(build_asp(cond))):
            got = patch_matrices(blk, cond.n_free)
            # the row holds the colour's patches whole, perhaps reordered
            assert sorted(ids.tolist() for ids, _, _ in got) == sorted(
                ids.tolist() for ids, _ in given
            )
            for ids, ring, mat in got:
                block = a[ids][:, np.r_[ids, ring]].toarray()
                dinv = np.linalg.inv(block[None, :, : ids.size])
                want = np.concatenate([dinv, -(dinv @ block[None, :, ids.size :])], axis=2)
                assert np.array_equal(mat, want[0])
                outside += np.count_nonzero(block == 0.0)
        # two edges of one patch that share no triangle do not couple
        assert outside > 0

    @pytest.mark.parametrize("problem,n,k", [("step", 2, 3), ("cavity", 16, 2)])
    def test_batches_give_the_same_matrices(self, monkeypatch, problem, n, k):
        # a row classes the patches batch by batch; one patch per batch gives
        # the same classes, order and bits as whole groups (only the cavity
        # at 1/h=16 has stacks of classes)
        *_, cond = pipeline(problem, n, k)
        structure = _structure(cond)
        whole = build_asp(cond, structure=structure)
        monkeypatch.setattr(precond, "_BATCH", 1)
        got = swept_colours(build_asp(cond, structure=structure))
        for blk, ref in zip(got, swept_colours(whole)):
            assert np.array_equal(blk.rows, ref.rows) and np.array_equal(blk.take, ref.take)
            assert [p for p, _ in blk.parts] == [p for p, _ in ref.parts]
            for (_, mat), (_, want) in zip(blk.parts, ref.parts):
                assert np.array_equal(mat, want)
        classes = any(p > 1 for c in structure.colours for p, _, _ in c.parts)
        assert classes == (problem == "cavity")

    def test_structure_chooses_the_smoother(self):
        *_, cond = pipeline("cavity", 2, 2, tau=1.0, inv_lambda=1.0)
        structure = asp_structure(cond.spaces, cond.structure, "jacobi")
        assert structure.groups is None
        asp = build_asp(cond, structure=structure)
        assert asp.smoother == "jacobi" and asp.sweep is None
        r = np.random.default_rng(14).standard_normal(cond.n_free)
        assert np.array_equal(asp.apply(r), build_asp(cond, smoother="jacobi").apply(r))

    @pytest.mark.parametrize("built,asked", [("patch-sgs", "jacobi"), ("jacobi", "patch-sgs")])
    def test_smoother_other_than_the_structure_rejected(self, built, asked):
        *_, cond = pipeline("cavity", 2, 2, tau=1.0, inv_lambda=1.0)
        structure = asp_structure(cond.spaces, cond.structure, built)
        assert build_asp(cond, smoother=built, structure=structure).smoother == built
        with pytest.raises(ValueError, match=f"built for '{built}'"):
            build_asp(cond, smoother=asked, structure=structure)


def _owns_exactly_nnz(m):
    assert m.data.size == m.indices.size == m.nnz
    for arr in (m.data, m.indices, m.indptr):
        assert arr.base is None or arr.base.size == arr.size


class TestCompactMatrices:
    @pytest.mark.parametrize("problem,n,k", [("cavity", 4, 2), ("step", 4, 3)])
    def test_a_g_transfer_and_n_own_exactly_nnz(self, problem, n, k):
        mesh, *_, cond = pipeline(problem, n, k, tau=1.0)
        asp = build_asp(cond)
        for m in (cond.A_g.csr, asp.transfer, asp.restrict, assemble_pressure_laplacian(mesh).csr):
            _owns_exactly_nnz(m)
