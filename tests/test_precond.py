import numpy as np
import pytest

from divhdg.assembly import ProblemParams
from divhdg.krylov import minres, operator_condensed
from divhdg.linalg import dense_eig_sym
from divhdg.mesh import build_mesh, step_domain, unit_square
from divhdg.precond import (
    assemble_pressure_laplacian,
    build_asp,
    build_schur,
    materialize_schur_dense,
)

from conftest import pipeline


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
        assert dense_eig_sym(n)[0] > 0


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


class TestApproxComparisonMode:
    def test_identical_when_reaction_free(self):
        m = unit_square(2)
        p = ProblemParams(mu=1.0, tau=0.0, inv_lambda=0.5)
        se = build_schur(m, p, mode="exact")
        sa = build_schur(m, p, mode="approx")
        r = np.random.default_rng(4).standard_normal(len(m.areas))
        assert np.allclose(se.apply(r), sa.apply(r), atol=1e-13)

    def test_identical_in_incompressible_limit(self):
        m = unit_square(2)
        p = ProblemParams(mu=1.0, tau=1.0, inv_lambda=0.0)
        se = build_schur(m, p, mode="exact")
        sa = build_schur(m, p, mode="approx")
        r = np.random.default_rng(5).standard_normal(len(m.areas))
        r -= r.mean()
        assert np.allclose(se.apply(r), sa.apply(r), atol=1e-12)

    def test_differs_at_generic_parameters(self):
        m = unit_square(1)
        p = ProblemParams(mu=1.0, tau=1.0, inv_lambda=1.0)
        se = build_schur(m, p, mode="exact")
        sa = build_schur(m, p, mode="approx")
        r = np.array([1.0, 0.5])
        assert np.abs(se.apply(r) - sa.apply(r)).max() > 1e-8


@pytest.fixture(scope="module")
def transfer_built():
    mesh, spaces, ess, block, cond = pipeline("cavity", 4, 2, tau=1.0, inv_lambda=1.0)
    return mesh, spaces, ess, cond, build_asp(cond)


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


class TestSmoother:
    @pytest.fixture()
    def built(self, smoother_built):
        return smoother_built

    def test_patch_membership_counts(self, built):
        cond, asp = built
        sizes = np.diff(asp.patch_offsets)
        # the interior vertex of this mesh touches six free edges, each
        # contributing 2k+1 = 5 condensed unknowns
        assert sizes.max() == 30
        counts = np.bincount(asp.patch_dofs, minlength=cond.free_cond.size)
        assert counts.min() >= 1
        assert counts.max() <= 2

    def test_zero_residual_fixed(self, built):
        _, asp = built
        z = asp.smooth(np.zeros(asp.a_g.n))
        assert np.abs(z).max() == 0.0

    def test_symmetric_operator(self, built):
        _, asp = built
        rng = np.random.default_rng(7)
        n = asp.a_g.n
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


def _patches(asp):
    off = asp.patch_offsets
    return [asp.patch_dofs[off[p] : off[p + 1]] for p in range(off.size - 1)]


def _reference_sgs(asp, r):
    """Plain sequential block symmetric Gauss-Seidel on dense A_g: patches in
    colour order, a forward pass, then the same patches in reverse."""
    a = asp.a_g.toarray()
    patches = _patches(asp)
    order = np.argsort(asp.patch_colour, kind="stable")
    sweep = [patches[p] for p in order]
    z = np.zeros_like(r)
    for ids in sweep + sweep[::-1]:
        z[ids] += np.linalg.solve(a[np.ix_(ids, ids)], r[ids] - a[ids] @ z)
    return z


class TestColouredSmoother:
    @pytest.fixture(params=["cavity", "step"])
    def built(self, request, smoother_built, step_built):
        return smoother_built if request.param == "cavity" else step_built

    def test_colours_are_uncoupled(self, built):
        _, asp = built
        a = asp.a_g.toarray() != 0.0
        patches = _patches(asp)
        assert asp.patch_colour.min() == 0
        assert len(asp.colours) == asp.patch_colour.max() + 1
        for c in range(len(asp.colours)):
            owner = np.full(asp.a_g.n, -1)
            members = np.flatnonzero(asp.patch_colour == c)
            for p in members:
                assert np.all(owner[patches[p]] == -1)  # no shared unknown
                owner[patches[p]] = p
            for p in members:
                coupled = owner[np.flatnonzero(a[patches[p]].any(axis=0))]
                assert set(coupled.tolist()) <= {-1, int(p)}

    def test_matches_sequential_reference(self, built):
        _, asp = built
        rng = np.random.default_rng(11)
        for _ in range(3):
            r = rng.standard_normal(asp.a_g.n)
            want = _reference_sgs(asp, r)
            got = asp.smooth(r)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_structured_mesh_needs_four_colours(self, transfer_built):
        *_, asp = transfer_built
        assert len(asp.colours) == 4


class TestStepSmoother:
    def test_several_patch_sizes(self, step_built):
        _, asp = step_built
        assert np.unique(np.diff(asp.patch_offsets)).size >= 3

    def test_symmetric_operator(self, step_built):
        _, asp = step_built
        rng = np.random.default_rng(12)
        n = asp.a_g.n
        for _ in range(20):
            r1, r2 = rng.standard_normal(n), rng.standard_normal(n)
            s12 = r1 @ asp.smooth(r2)
            s21 = r2 @ asp.smooth(r1)
            assert abs(s12 - s21) <= 1e-12 * max(abs(s12), 1.0)

    def test_positivity(self, step_built):
        _, asp = step_built
        rng = np.random.default_rng(13)
        for _ in range(100):
            r = rng.standard_normal(asp.a_g.n)
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
        *_, cond = pipeline("cavity", 2, 2, tau=1.0, inv_lambda=1.0)
        asp = build_asp(cond, smoother="exact")
        rng = np.random.default_rng(9)
        b = rng.standard_normal(cond.n_free)
        x, rep = minres(
            lambda v: cond.A_g.csr @ v, asp.apply, b, tol=1e-10, maxit=50
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
        with pytest.raises(ValueError):
            build_asp(cond, smoother="ilu")
