"""Uniform block-diagonal preconditioner for the condensed saddle system.

Velocity block (auxiliary-space): additive combination of a vertex-patch
symmetric block Gauss-Seidel smoother on the condensed trace unknowns and a
coarse correction through the continuous piecewise-linear vector space,
    Az^{-1} = R + Pi A0^{-1} Pi^T.
The smoother R visits the patches in multicolour order: the patches are
coloured so that no two of one colour share or couple unknowns, and a sweep
is one forward pass over the colours and one backward pass, each colour
solved for all its patches at once.  Pi injects a piecewise-linear field by
projecting its normal trace onto the facet-normal unknowns and its tangential
trace onto the Legendre tangential modes, edge by edge (closed two-mode
profiles; higher modes get nothing). A0 is the linear-element discretization of
2 mu (grad ., grad .) + tau (., .) on free vertices, solved exactly.

Pressure block: the elementwise-constant Schur approximation

    S~ = (1/lambda) M + M (tau M + 2 mu N)^{-1} N,

with M = diag(element areas) and N the unit-weight element-adjacency graph
Laplacian plus a unit diagonal boost per outflow facet. Its exact inverse is
applied in closed form (one diagonal scaling plus one SPD solve):

    S~^{-1} r = c1 M^{-1} r + c2 (c3 M + N)^{-1} r,
    c1 = 2 mu / d,  c2 = tau / d^2,  c3 = tau (1/lambda) / d,
    d = 2 mu (1/lambda) + 1.

With no outflow and 1/lambda = 0 the operators are consistently singular on
constants; the application then deflates the constant vector (projection on
input and output, minimum-norm inner solves).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import ProblemParams, assemble_aux
from .condense import CondensedSystem
from .linalg import DeflatedFactor, SparseSym, SpdFactor, factor_spd
from .mesh import TAG_OUTLET, Mesh

# no compiled smoother kernel exists; the name stays for benchmark scripts
# that record it in their environment line
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# pressure block


@dataclass
class SchurPrecond:
    m_diag: np.ndarray  # element areas
    n_mat: SparseSym
    mode: str
    params: ProblemParams
    deflate: bool
    c1: float
    c2: float
    c3: float
    inner: object = field(repr=False, default=None)  # SpdFactor or DeflatedFactor

    def project(self, r: np.ndarray) -> np.ndarray:
        return r - r.mean()

    def apply(self, r: np.ndarray) -> np.ndarray:
        if self.deflate:
            r = self.project(r)
        z = self.c1 * (r / self.m_diag)
        if self.inner is not None:
            z = z + self.c2 * self.inner.solve(r)
        if self.deflate:
            z = self.project(z)
        return z


def assemble_pressure_laplacian(mesh: Mesh) -> SparseSym:
    """Unit-weight graph Laplacian over element adjacency (interior facets)
    plus a unit diagonal boost per outflow facet."""
    nt = mesh.num_triangles
    rows, cols, vals = [], [], []
    for e in mesh.interior_edges():
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
    n = sp.coo_matrix((vals, (rows, cols)), shape=(nt, nt)).tocsr()
    n.sum_duplicates()
    n.sort_indices()
    return SparseSym(n)


def build_schur(mesh: Mesh, params: ProblemParams, mode: str = "exact") -> SchurPrecond:
    if mode not in ("exact", "approx"):
        raise ValueError(f"unknown Schur mode '{mode}'")
    n_mat = assemble_pressure_laplacian(mesh)
    areas = mesh.areas.copy()
    has_outlet = bool(np.any(mesh.edge_tags == TAG_OUTLET))
    deflate = (not has_outlet) and params.inv_lambda == 0.0

    d = 2.0 * params.mu * params.inv_lambda + 1.0
    c1 = 2.0 * params.mu / d
    if mode == "exact":
        c2 = params.tau / (d * d)
        c3 = params.tau * params.inv_lambda / d
    else:
        c2 = params.tau
        c3 = params.tau * params.inv_lambda

    inner = None
    if c2 != 0.0:
        mat = n_mat.csr + sp.diags(c3 * areas)
        mat = SparseSym(mat.tocsr())
        if deflate and c3 == 0.0:
            inner = DeflatedFactor(mat, np.ones(mesh.num_triangles))
        else:
            inner = factor_spd(mat)
    return SchurPrecond(
        m_diag=areas,
        n_mat=n_mat,
        mode=mode,
        params=params,
        deflate=deflate,
        c1=c1,
        c2=c2,
        c3=c3,
        inner=inner,
    )


def materialize_schur_dense(mesh: Mesh, params: ProblemParams) -> np.ndarray:
    """Dense S~ = (1/lambda) M + M (tau M + 2 mu N)^{-1} N, the operator whose
    exact inverse the cell-mean preconditioner applies.  Used by verification.

    For tau > 0 the inner matrix tau M + 2 mu N is positive definite and the
    expression is evaluated literally.  At tau = 0 the product
    (2 mu N)^{-1} N is taken as its tau -> 0 limit on the generic
    (nonsingular-N) set, i.e. I / (2 mu); this constant-free reading is the
    one the closed-form inverse corresponds to, and on an enclosed domain the
    quotient by constant pressures is handled by deflation in the solver, not
    by the materialized target.
    """
    m = np.diag(mesh.areas)
    if params.tau == 0.0:
        s = (params.inv_lambda + 0.5 / params.mu) * m
    else:
        n_mat = assemble_pressure_laplacian(mesh).toarray()
        x = params.tau * m + 2.0 * params.mu * n_mat
        s = params.inv_lambda * m + m @ np.linalg.solve(x, n_mat)
    return 0.5 * (s + s.T)


# ---------------------------------------------------------------------------
# velocity block


@dataclass
class _ColourBlock:
    """One colour of the patch smoother.  ``rows`` holds the unknowns of its
    patches, grouped by patch size: group ``(lo, hi, inv)`` covers
    ``rows[lo:hi]`` as a (P, m) block with patch inverses ``inv`` of shape
    (P, m, m).  ``a_rows`` is the matching row slice of A_g."""

    rows: np.ndarray
    a_rows: sp.csr_matrix
    groups: list

    def correct(self, r: np.ndarray, z: np.ndarray) -> None:
        """Exact block solves on every patch of the colour at once.  Patches
        of one colour share no unknown and no A_g coupling, so this equals
        visiting them one by one."""
        res = r[self.rows] - self.a_rows @ z
        for lo, hi, inv in self.groups:
            p, m, _ = inv.shape
            res[lo:hi] = (inv @ res[lo:hi].reshape(p, m, 1)).ravel()
        z[self.rows] += res


@dataclass
class AspPrecond:
    smoother: str
    transfer: sp.csr_matrix  # (n_free_cond, 2 * n_free_vertices)
    aux_factor: SpdFactor
    a_g: SparseSym
    patch_offsets: np.ndarray = field(repr=False, default=None)
    patch_dofs: np.ndarray = field(repr=False, default=None)
    patch_colour: np.ndarray = field(repr=False, default=None)
    colours: list = field(repr=False, default=None)  # of _ColourBlock
    jacobi_diag: np.ndarray = field(repr=False, default=None)
    exact_factor: SpdFactor = field(repr=False, default=None)

    def smooth(self, r: np.ndarray) -> np.ndarray:
        if self.smoother == "exact":
            return self.exact_factor.solve(r)
        if self.smoother == "jacobi":
            return r / self.jacobi_diag
        # forward over the colours, then back; the last colour is not
        # repeated, since its residual is already zero after the forward pass
        z = np.zeros_like(r)
        for blk in self.colours:
            blk.correct(r, z)
        for blk in reversed(self.colours[:-1]):
            blk.correct(r, z)
        return z

    def coarse(self, r: np.ndarray) -> np.ndarray:
        if self.aux_factor is None:
            return np.zeros_like(r)
        return self.transfer @ self.aux_factor.solve(self.transfer.T @ r)

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self.smooth(r) + self.coarse(r)


def _colour_patches(offsets, dofs, a: sp.csr_matrix) -> np.ndarray:
    """Greedy colouring of the patches, in their given order.  Two patches
    conflict if they share an unknown or A couples their unknowns: a nonzero
    of the pattern of P (|A| + I) P^T, with P the patch-to-unknown
    incidence."""
    n_p = offsets.size - 1
    n = a.shape[0]
    inc = sp.csr_matrix((np.ones(dofs.size), dofs, offsets), shape=(n_p, n))
    pattern = sp.csr_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
    conflict = (inc @ (pattern + sp.identity(n, format="csr")) @ inc.T).tocsr()
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


def _colour_blocks(offsets, dofs, colour, a: sp.csr_matrix) -> list:
    sizes = np.diff(offsets)
    blocks = []
    for c in range(colour.max(initial=-1) + 1):
        members = np.flatnonzero(colour == c)
        rows, groups, lo = [], [], 0
        for m in np.unique(sizes[members]):
            ps = members[sizes[members] == m]
            ids = dofs[offsets[ps, None] + np.arange(m)]  # (P, m)
            shape = (ps.size, m, m)
            sub = a[
                np.broadcast_to(ids[:, :, None], shape).ravel(),
                np.broadcast_to(ids[:, None, :], shape).ravel(),
            ]
            inv = np.linalg.inv(np.asarray(sub).reshape(shape))
            rows.append(ids.ravel())
            groups.append((lo, lo + ids.size, inv))
            lo += ids.size
        rows = np.concatenate(rows)
        blocks.append(_ColourBlock(rows=rows, a_rows=a[rows], groups=groups))
    return blocks


def build_asp(cond: CondensedSystem, smoother: str = "patch-sgs") -> AspPrecond:
    """Additive preconditioner for the condensed velocity block: a smoother on
    the fine space plus a transferred exact solve in the continuous piecewise-
    linear auxiliary space.  ``smoother`` selects vertex-patch symmetric block
    Gauss-Seidel (default), pointwise Jacobi, or ``"exact"`` -- a debug mode
    that replaces the whole operator with a direct factorization of the block
    and drops the auxiliary correction entirely.

    The vertex patches (all free unknowns on the free edges meeting a vertex)
    are coloured greedily in natural vertex order so that patches of one
    colour are uncoupled.  The Gauss-Seidel sweep visits the colours forward
    and then backward, solving all patches of a colour at once with inverses
    precomputed per colour and patch size; this is sequential block SGS with
    the patches taken in colour order.
    """
    if smoother not in ("patch-sgs", "jacobi", "exact"):
        raise ValueError(f"unknown smoother '{smoother}'")
    if smoother == "exact":
        return AspPrecond(
            smoother="exact",
            transfer=sp.csr_matrix((cond.free_cond.size, 0)),
            aux_factor=None,
            a_g=cond.A_g,
            exact_factor=factor_spd(cond.A_g),
        )
    spaces = cond.spaces
    mesh = spaces.mesh
    k = spaces.k
    split = spaces.split
    ess = cond.block.essential
    params = cond.block.params
    fb = spaces.ref.facet

    a0, free_v = assemble_aux(mesh, spaces, params, ess)
    aux_factor = factor_spd(a0)
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

    pre = AspPrecond(
        smoother=smoother,
        transfer=transfer,
        aux_factor=aux_factor,
        a_g=cond.A_g,
    )
    if smoother == "jacobi":
        pre.jacobi_diag = cond.A_g.diagonal().copy()
        if np.any(pre.jacobi_diag <= 0.0):
            raise ValueError("condensed diagonal not positive")
        return pre

    # vertex patches in natural vertex order, each listing the unknowns of its
    # free edges in ascending edge order
    ends = mesh.edges[fe].ravel()  # endpoint a, b of each free edge in turn
    order = np.argsort(ends, kind="stable")
    counts = np.unique(ends, return_counts=True)[1]
    pre.patch_dofs = edofs[order // 2].ravel()
    pre.patch_offsets = np.concatenate([[0], np.cumsum(counts * edofs.shape[1])])
    pre.patch_colour = _colour_patches(pre.patch_offsets, pre.patch_dofs, cond.A_g.csr)
    pre.colours = _colour_blocks(
        pre.patch_offsets, pre.patch_dofs, pre.patch_colour, cond.A_g.csr
    )
    return pre
