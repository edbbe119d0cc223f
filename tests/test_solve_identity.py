"""The block-diagonal MINRES solve against its former implementation.

The former condensed operator, Jacobi smoother, banded solve, Schur apply
and MINRES loop are kept verbatim below. The current ones skip products with
known-zero operands, hoist per-call constants and reuse buffers, but must
produce the same iterates bit for bit. The patch smoother is handed to the
former solve as the library's own: it is a gathered product per patch that
rounds otherwise than the former correction, and
``tests/test_patch_classes.py`` checks it against a dense multiplicative
Schwarz sweep. So is the condensed operator on a mesh with element classes,
which applies A_g class by class and rounds otherwise than its CSR product
(``tests/test_class_apply.py`` bounds the difference); on a mesh with no
class, the jittered case, the former CSR operator is kept."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from divhdg.assembly import ProblemParams, assemble_saddle
from divhdg.condense import eliminate_local
from divhdg.krylov import minres, operator_condensed, pressure_mean_projector, solve_condensed
from divhdg.linalg import NotSPD
from divhdg.mesh import TAG_WALL, build_mesh
from divhdg.precond import aux_space, build_asp, build_schur
from divhdg.prng import XorShift
from divhdg.spaces import build_spaces, interpolate_essential

from conftest import pipeline


def _former_minres(apply_k, apply_pinv, b, *, tol=1e-8, maxit=1000, seed=0, project=None):
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    x = XorShift(seed).uniform(n)
    if project is not None:
        x = project(x)

    r = b - apply_k(x)
    if project is not None:
        r = project(r)

    v_old = np.zeros(n)
    v = r
    z = apply_pinv(v)
    inner = float(z @ v)
    if inner < 0.0:
        raise NotSPD("preconditioner produced a negative inner product")
    gamma = np.sqrt(inner)
    gamma0 = gamma
    if gamma0 == 0.0:
        return x, np.array([0.0])

    gamma_old = 1.0
    eta = gamma
    s_old = s = 0.0
    c_old = c = 1.0
    w = np.zeros(n)
    w_old = np.zeros(n)
    history = [1.0]

    for _ in range(maxit):
        z = z / gamma
        az = apply_k(z)
        delta = float(az @ z)
        v_new = az - (delta / gamma) * v - (gamma / gamma_old) * v_old
        if project is not None:
            v_new = project(v_new)
        z_new = apply_pinv(v_new)
        inner = float(z_new @ v_new)
        if inner < 0.0:
            scale = float(np.linalg.norm(z_new) * np.linalg.norm(v_new))
            if inner < -1e-12 * (scale + 1e-300):
                raise NotSPD("preconditioner produced a negative inner product")
            inner = 0.0
        gamma_new = np.sqrt(inner)

        alpha0 = c * delta - c_old * s * gamma
        alpha1 = np.sqrt(alpha0 * alpha0 + gamma_new * gamma_new)
        alpha2 = s * delta + c_old * c * gamma
        alpha3 = s_old * gamma
        if alpha1 == 0.0:
            break
        c_old, s_old = c, s
        c = alpha0 / alpha1
        s = gamma_new / alpha1
        w_new = (z - alpha3 * w_old - alpha2 * w) / alpha1
        x = x + (c * eta) * w_new
        eta = -s * eta

        history.append(abs(eta) / gamma0)
        if abs(eta) <= tol * gamma0:
            break
        if gamma_new == 0.0:
            break

        v_old, v = v, v_new
        w_old, w = w, w_new
        z = z_new
        gamma_old, gamma = gamma, gamma_new

    return x, np.asarray(history)


def _former_operator_condensed(cond):
    a_g = cond.A_g.csr
    b_g = cond.B_g
    c_g = cond.C_g.csr
    n_u = a_g.shape[0]

    def apply(xv):
        xu = xv[:n_u]
        xp = xv[n_u:]
        out = np.empty_like(xv)
        out[:n_u] = a_g @ xu + b_g.T @ xp
        out[n_u:] = b_g @ xu + c_g @ xp
        return out

    return apply


def _former_solve(factor, b):
    b = np.asarray(b, float)
    y = scipy.linalg.cho_solve_banded(
        (factor._chol_band, True), b[factor.perm], check_finite=False
    )
    return y[factor._inv_perm]


def _former_smooth(asp, r):
    if asp.smoother == "jacobi":
        return r / asp.jacobi_diag
    return asp.smooth(r)


def _former_schur_apply(schur, r):
    if schur.deflate:
        r = r - r.mean()
    z = schur.c1 * (r / schur.m_diag)
    if schur.inner is not None:
        z = z + schur.c2 * _former_solve(schur.inner, r)
    if schur.deflate:
        z = z - z.mean()
    return z


def _former_transfer(cond, asp):
    """The transfer as formerly stored: the same values, plus the exact zeros
    of axis-parallel edges on the full (edge unknown, free endpoint
    component) pattern."""
    mesh, k, ess = cond.spaces.mesh, cond.spaces.k, cond.block.essential
    split = cond.spaces.split
    vpos = aux_space(cond.spaces, cond.structure.a_g).vpos
    fe = np.flatnonzero(ess.free_mask[: split.n_bnd : k + 1])
    normal = fe[:, None] * (k + 1) + np.arange(k + 1)
    tangential = split.n_bnd + fe[:, None] * k + np.arange(k)
    edofs = ess.pos[np.concatenate([normal, tangential], axis=1)]
    vp = vpos[mesh.edges[fe]]
    cols = np.where(vp[:, :, None] >= 0, 2 * vp[:, :, None] + np.arange(2), -1)
    cols = cols.reshape(fe.size, 4)
    rows = np.broadcast_to(edofs[:, :, None], (fe.size, 2 * k + 1, 4))
    cols = np.broadcast_to(cols[:, None, :], rows.shape)
    keep = cols >= 0
    pattern = sp.csr_matrix(
        (np.ones(np.count_nonzero(keep)), (rows[keep], cols[keep])),
        shape=asp.transfer.shape,
    )
    pattern.sort_indices()
    coo = pattern.tocoo()
    data = np.asarray(asp.transfer[coo.row, coo.col]).ravel()
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def _former_solve_condensed(cond, asp, schur, *, tol, maxit, seed):
    n_u = cond.n_free
    transfer = _former_transfer(cond, asp)
    restrict = transfer.T.tocsr()

    def coarse(r):
        return transfer @ _former_solve(asp.aux_factor, (restrict @ r).reshape(-1, 2)).ravel()

    def pinv(r):
        ru = r[:n_u]
        zu = _former_smooth(asp, ru) + coarse(ru)
        return np.concatenate([zu, _former_schur_apply(schur, r[n_u:])])

    proj = pressure_mean_projector(n_u, cond.n_pbar) if schur.deflate else None
    rhs = np.concatenate([cond.F_g, cond.F_pbar])
    # the former CSR operator on a mesh with no element class, else the
    # library's own class apply
    classes = cond.class_blocks.shape[0]
    apply_k = operator_condensed(cond) if classes else _former_operator_condensed(cond)
    return _former_minres(
        apply_k, pinv, rhs, tol=tol, maxit=maxit, seed=seed, project=proj
    )


# (problem, 1/h, k, tau, 1/lambda, smoother, deflates)
CASES = [
    ("cavity", 4, 2, 0.0, 0.0, "patch-sgs", True),
    ("cavity", 4, 2, 1.0, 0.0, "patch-sgs", True),
    ("step", 2, 3, 1.0, 0.0, "patch-sgs", False),
    ("cavity", 4, 2, 1.0, 1.0, "jacobi", False),
    ("cavity", 4, 2, 1.0, 1e-4, "patch-sgs", False),  # the elasticity regime
    ("jittered", 4, 2, 1.0, 0.0, "patch-sgs", True),  # no element class
    ("jittered", 4, 2, 1.0, 1.0, "jacobi", False),
]


class TestIterateBitIdentical:
    @pytest.mark.parametrize(
        "problem,inv_h,k,tau,invl,smoother,deflates",
        CASES,
        ids=["cavity-tau0", "cavity-tau1", "step", "jacobi", "elast", "jittered",
             "jittered-jacobi"],
    )
    def test_equal_to_former_solve(self, problem, inv_h, k, tau, invl, smoother, deflates):
        *_, cond = pipeline(problem, inv_h, k, tau=tau, inv_lambda=invl)
        assert (cond.class_blocks.shape[0] == 0) == (problem == "jittered")
        asp = build_asp(cond, smoother=smoother)
        schur = build_schur(cond.spaces.mesh, cond.block.params)
        assert schur.deflate is deflates
        x, rep = solve_condensed(cond, asp, schur, tol=1e-8, maxit=1000, seed=3)
        x_ref, history_ref = _former_solve_condensed(
            cond, asp, schur, tol=1e-8, maxit=1000, seed=3
        )
        assert rep.converged and rep.iterations > 5
        assert np.array_equal(x, x_ref)
        assert np.array_equal(rep.history, history_ref)

    def test_former_transfer_held_exact_zeros(self):
        # the axis-parallel edges of the cavity mesh give the former transfer
        # stored zeros, so the case above compares against them
        *_, cond = pipeline("cavity", 4, 2, tau=1.0)
        asp = build_asp(cond)
        former = _former_transfer(cond, asp)
        assert former.nnz > asp.transfer.nnz
        assert np.count_nonzero(former.data) == asp.transfer.nnz


def _diag_op(d):
    return lambda v: d * v


class TestMinresAliasing:
    """Operators that hand back their input, or one buffer every call: the
    recurrence must not write into what ``apply_k`` or ``apply_pinv``
    returned, nor into ``b``."""

    N = 24

    def _system(self):
        rng = np.random.default_rng(5)
        d = np.repeat([1.0, -2.0, 3.0, 5.0, -7.0, 11.0], self.N // 6)
        return d, rng.standard_normal(self.N), 1.0 + rng.random(self.N)

    def _check(self, apply_k, apply_pinv, b, ref_k, ref_pinv):
        b_copy = b.copy()
        x, rep = minres(apply_k, apply_pinv, b, tol=1e-12, maxit=50, seed=2)
        x_ref, history_ref = _former_minres(ref_k, ref_pinv, b, tol=1e-12, maxit=50, seed=2)
        assert np.array_equal(b, b_copy)
        assert rep.iterations > 1
        assert np.array_equal(x, x_ref)
        assert np.array_equal(rep.history, history_ref)

    def test_apply_k_returns_input(self):
        _, b, p = self._system()
        self._check(lambda v: v, _diag_op(1.0 / p), b, lambda v: v, _diag_op(1.0 / p))

    def test_apply_pinv_returns_input(self):
        d, b, _ = self._system()
        self._check(_diag_op(d), lambda v: v, b, _diag_op(d), lambda v: v)

    def test_apply_k_reuses_one_buffer(self):
        d, b, p = self._system()
        out = np.empty(self.N)

        def apply_k(v):
            np.multiply(d, v, out=out)
            return out

        self._check(apply_k, _diag_op(1.0 / p), b, _diag_op(d), _diag_op(1.0 / p))

    def test_project_returns_input(self):
        d, b, p = self._system()

        def project(v):
            v[0] = 0.0
            return v

        def project_copy(v):
            v = v.copy()
            v[0] = 0.0
            return v

        b_copy = b.copy()
        x, rep = minres(_diag_op(d), _diag_op(1.0 / p), b, maxit=50, seed=2, project=project)
        x_ref, history_ref = _former_minres(
            _diag_op(d), _diag_op(1.0 / p), b, maxit=50, seed=2, project=project_copy
        )
        assert np.array_equal(b, b_copy)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(rep.history, history_ref)


def _wall_triangle_structure():
    """One triangle with every edge a wall: no free edge, no free vertex."""
    mesh = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
        tag_fn=lambda mids: np.full(mids.shape[0], TAG_WALL),
    )
    spaces = build_spaces(mesh, 2)
    ess = interpolate_essential(mesh, spaces, "cavity")
    params = ProblemParams(mu=1.0, tau=1.0, inv_lambda=0.0, alpha=8.0)
    return mesh, params, eliminate_local(assemble_saddle(mesh, spaces, params, ess))


class TestEdgeCases:
    @pytest.mark.parametrize("smoother", ["patch-sgs", "jacobi"])
    def test_no_free_edge(self, smoother):
        mesh, params, cond = _wall_triangle_structure()
        assert cond.n_free == 0
        asp = build_asp(cond, smoother=smoother)
        assert asp.transfer.shape == (0, 0)
        if smoother == "patch-sgs":
            assert asp.sweep == []
        z = asp.smooth(np.zeros(0))
        assert z.shape == (0,)
        assert asp.apply(np.zeros(0)).shape == (0,)
        x, rep = solve_condensed(
            cond, asp, build_schur(mesh, params), tol=1e-8, maxit=10, seed=0
        )
        assert rep.converged and x.shape == (cond.n_pbar,)
