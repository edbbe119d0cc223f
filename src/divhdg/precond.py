"""Uniform block-diagonal preconditioner for the condensed saddle system.

Velocity block (auxiliary space, Xu, Computing 56, 1996): a vertex-patch
symmetric block Gauss-Seidel smoother on the condensed trace unknowns plus a
coarse correction through the continuous piecewise-linear vector space,
    Az^{-1} = R + Pi (A0 kron I2)^{-1} Pi^T.
The smoother R visits the patches in multicolour order: the patches are
coloured so that no two of one colour share or couple unknowns, and a sweep
is one forward pass over the colours and one backward pass, each colour
solved for all its patches at once.  In the forward pass the iterate is still
exactly zero outside the unknowns of the colours already visited, so each
colour forms its residual from ``a_fwd``, its row slice of A_g restricted to
those columns: empty for the first colour and the whole slice for the last
(every unknown lies in two patches of different colours).  The dropped terms
are products with +0.0, so the sums are unchanged.  The backward pass uses
the whole slices.  Pointwise Jacobi is the one alternative smoother.

Pi injects a piecewise-linear field through the edge-trace projections of
``refbasis.FacetBasis``, the same ones that define the essential boundary
data: the normal trace goes to the facet-normal unknowns (Legendre moments,
then the theta solve), the tangential trace to the Legendre tangential modes.
A linear trace is a sum of the two endpoint hat profiles, so the projections
act on those two profiles once and each edge scales them by its length,
normal and tangent.  Pi stores no exact zero: the entries that vanish through
a zero normal or tangent component (axis-parallel edges) are dropped after
the scatter.  The modes above degree 1 get only roundoff (about 1e-17), which
is kept as computed.  A0 is the scalar linear-element discretization of
2 mu (grad ., grad .) + tau (., .) on the free vertices; the vector operator
acts on each component alone, so it is A0 kron I2.  Pi's columns are the
(free vertex, component) pairs 2 vpos + c, so the coarse solve reshapes
Pi^T r to (n, 2): both components are two right sides of A0's one factor.

Pressure block: the elementwise-constant Schur approximation

    S~ = (1/lambda) M + M (tau M + 2 mu N)^{-1} N,

with M = diag(element areas) and N the element-adjacency graph Laplacian:
a sum of 2x2 facet blocks [[1, -1], [-1, 1]] over the two elements of each
interior facet, and over each outflow facet the same block with the missing
neighbour dropped, which leaves a unit diagonal boost. Its exact inverse is
applied in closed form by the Woodbury identity (one diagonal scaling plus
one SPD solve):

    S~^{-1} r = c1 M^{-1} r + c2 (c3 M + N)^{-1} r,
    c1 = 2 mu / d,  c2 = tau / d^2,  c3 = tau (1/lambda) / d,
    d = 2 mu (1/lambda) + 1.

With no outflow and 1/lambda = 0 the operators are consistently singular on
constants (c3 = 0, and N is the Laplacian of the connected element-adjacency
graph). The application then deflates the constant vector: it projects its
input and its output onto mean-zero vectors, and the inner factor is of
N + e0 e0^T, SPD on N's own pattern. For mean-zero r, summing the rows of
(N + e0 e0^T) y = r gives y[0] = 0, so y is the solution grounded at element
0. The output projection turns it into the minimum-norm one.

Set-up is split by lifetime. ``asp_structure`` and ``schur_structure`` build
what depends only on the mesh, the degree and the essential data, once per
sweep: Pi and its transpose, the scalar auxiliary space's pattern, the
patches' colours with each colour's positions into A_g's data, N, and the RCM
orders of both banded factors. ``build_asp`` and ``build_schur`` then do one
row's work: the scalar auxiliary operator and its factor, the patch blocks
and row slices gathered from A_g's data with the blocks inverted, and the
Schur inner factor; the library calls them from ``bench.Structure.row``. Called
without a structure (the traced benchmark, tests), they build it first.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import AuxSpace, ProblemParams, aux_space, position_map, scatter_stack
from .condense import CondensedSystem
from .linalg import SparseSym, SpdFactor, factor_spd, rcm_order
from .mesh import TAG_OUTLET, Mesh
from .spaces import EssentialData, Spaces, free_edge_rank

# no compiled smoother kernel exists; the name stays for benchmark scripts
# that record it in their environment line
HAVE_NUMBA = False

# the velocity smoothers, the default first
SMOOTHERS = ("patch-sgs", "jacobi")


# ---------------------------------------------------------------------------
# pressure block


@dataclass
class SchurPrecond:
    m_diag: np.ndarray  # element areas
    deflate: bool
    c1: float
    c2: float
    inner: SpdFactor = field(repr=False, default=None)  # None when c2 == 0

    def apply(self, r: np.ndarray) -> np.ndarray:
        if self.deflate:
            r = r - r.mean()
        z = self.c1 * (r / self.m_diag)
        if self.inner is not None:
            z = z + self.c2 * self.inner.solve(r)
        if self.deflate:
            z = z - z.mean()
        return z


def assemble_pressure_laplacian(mesh: Mesh) -> SparseSym:
    """Unit-weight graph Laplacian over element adjacency (interior facets)
    plus a unit diagonal boost per outflow facet: one 2x2 block per facet at
    its two elements, the outflow facet's missing neighbour (-1 in
    ``edge_elems``) dropped by the scatter."""
    facets = (mesh.edge_elems[:, 1] >= 0) | (mesh.edge_tags == TAG_OUTLET)
    blocks = np.broadcast_to([[1.0, -1.0], [-1.0, 1.0]], (np.count_nonzero(facets), 2, 2))
    return SparseSym(scatter_stack(blocks, mesh.edge_elems[facets], mesh.num_triangles))


@dataclass(frozen=True)
class SchurStructure:
    """The parameter-independent part of the Schur block on one mesh, shared
    by every row of a sweep: N, the element areas, whether the mesh has an
    outflow facet, and N's RCM order. c3 M + N, and N + e0 e0^T when
    deflating, take N's order: a diagonal term widens no band."""

    n_mat: SparseSym
    areas: np.ndarray
    has_outlet: bool
    perm: np.ndarray


def schur_structure(mesh: Mesh) -> SchurStructure:
    n_mat = assemble_pressure_laplacian(mesh)
    return SchurStructure(
        n_mat=n_mat,
        areas=mesh.areas.copy(),
        has_outlet=bool(np.any(mesh.edge_tags == TAG_OUTLET)),
        perm=rcm_order(n_mat.csr),
    )


def build_schur(
    mesh: Mesh, params: ProblemParams, mode: str = "exact", structure: SchurStructure = None
) -> SchurPrecond:
    """One row's exact S~^{-1} (c1, c2, c3 above); without ``structure`` (the
    traced benchmark, tests), its parameter-independent part is built here.
    ``mode`` is only "exact": ``perfbench/traced.py`` passes it, until the
    benchmark change of ROADMAP item 2 deletes it."""
    if mode != "exact":
        raise ValueError(f"unknown Schur mode '{mode}'")
    if structure is None:
        structure = schur_structure(mesh)
    areas = structure.areas
    deflate = (not structure.has_outlet) and params.inv_lambda == 0.0

    d = 2.0 * params.mu * params.inv_lambda + 1.0
    c1 = 2.0 * params.mu / d
    c2 = params.tau / (d * d)
    c3 = params.tau * params.inv_lambda / d

    inner = None
    if c2 != 0.0:
        shift = c3 * areas
        if deflate:  # c3 == 0: ground N's constant mode at element 0
            shift[0] += 1.0
        mat = (structure.n_mat.csr + sp.diags(shift)).tocsr()
        inner = factor_spd(SparseSym(mat), structure.perm)
    return SchurPrecond(m_diag=areas, deflate=deflate, c1=c1, c2=c2, inner=inner)


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


@dataclass(frozen=True)
class _Colour:
    """One colour of the patch smoother.  ``rows`` holds the unknowns of its
    patches, grouped by patch size: group ``(lo, hi, blocks)`` covers
    ``rows[lo:hi]`` as P patches of m unknowns, with blocks (P, m, m).
    ``a_rows`` is its row slice of A_g, and ``a_fwd`` those rows on the
    columns of the earlier colours, the only ones where the forward pass's
    iterate can be nonzero.  A structure's colour holds positions into A_g's
    data (1-based, 0 outside its pattern) as blocks and CSR data; ``fill``
    gives one row's colour, with A_g's values and the blocks inverted."""

    rows: np.ndarray
    groups: list
    a_rows: sp.csr_matrix
    a_fwd: sp.csr_matrix

    def fill(self, padded: np.ndarray) -> "_Colour":
        """This colour's values from ``padded``, A_g's data after a 0."""

        def values(p: sp.csr_matrix) -> sp.csr_matrix:
            return sp.csr_matrix((padded.take(p.data), p.indices, p.indptr), shape=p.shape)

        a_rows = values(self.a_rows)
        return _Colour(
            rows=self.rows,
            groups=[(lo, hi, np.linalg.inv(padded.take(p))) for lo, hi, p in self.groups],
            a_rows=a_rows,
            a_fwd=a_rows if self.a_fwd is self.a_rows else values(self.a_fwd),
        )

    def correct(self, r: np.ndarray, z: np.ndarray, a: sp.csr_matrix) -> None:
        """Exact block solves on every patch of the colour at once, with the
        residual rows ``r[rows] - a @ z``.  Patches of one colour share no
        unknown and no A_g coupling, so this equals visiting them one by
        one."""
        res = r[self.rows]
        if a.nnz:
            res -= a @ z
        for lo, hi, inv in self.groups:
            p, m, _ = inv.shape
            res[lo:hi] = (inv @ res[lo:hi].reshape(p, m, 1)).ravel()
        z[self.rows] += res


@dataclass
class AspPrecond:
    smoother: str
    transfer: sp.csr_matrix  # (n_free_cond, 2 * n_free_vertices)
    restrict: sp.csr_matrix  # transfer.T, stored as CSR once
    aux_factor: SpdFactor  # of the scalar A0; 0x0 when the auxiliary space is empty
    colours: list = field(repr=False, default=None)  # of filled _Colour
    jacobi_diag: np.ndarray = field(repr=False, default=None)

    def smooth(self, r: np.ndarray) -> np.ndarray:
        """R r: pointwise Jacobi, or one multicolour SGS sweep whose forward
        pass reads ``a_fwd`` and whose backward pass reads ``a_rows``."""
        if self.smoother == "jacobi":
            return r / self.jacobi_diag
        # forward over the colours, then back; the last colour is not
        # repeated, since its residual is already zero after the forward pass
        z = np.zeros_like(r)
        for blk in self.colours:
            blk.correct(r, z, blk.a_fwd)
        for blk in reversed(self.colours[:-1]):
            blk.correct(r, z, blk.a_rows)
        return z

    def coarse(self, r: np.ndarray) -> np.ndarray:
        return self.transfer @ self.aux_factor.solve((self.restrict @ r).reshape(-1, 2)).ravel()

    def apply(self, r: np.ndarray) -> np.ndarray:
        z = self.smooth(r)
        z += self.coarse(r)
        return z


def _colour_patches(offsets, dofs, a: sp.csr_matrix) -> np.ndarray:
    """Greedy colouring of the patches, in their given order.  Two patches
    conflict if they share an unknown or A couples their unknowns: a nonzero
    of the pattern of P (|A| + I) P^T, with P the patch-to-unknown
    incidence, formed in bool."""
    n_p = offsets.size - 1
    n = a.shape[0]
    inc = sp.csr_matrix((np.ones(dofs.size, bool), dofs, offsets), shape=(n_p, n))
    pattern = sp.csr_matrix((np.ones(a.nnz, bool), a.indices, a.indptr), shape=a.shape)
    conflict = (inc @ (pattern + sp.identity(n, dtype=bool, format="csr")) @ inc.T).tocsr()
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


def _colour_patterns(offsets, dofs, colour, pos: sp.csr_matrix) -> list:
    """The colours' unknowns, patch blocks and row slices as positions, read
    from the position map ``pos`` of A_g (its pattern with data 1..nnz)."""
    sizes = np.diff(offsets)
    patterns = []
    done = np.zeros(pos.shape[0], bool)  # unknowns of the colours so far
    for c in range(colour.max(initial=-1) + 1):
        members = np.flatnonzero(colour == c)
        rows, groups, lo = [], [], 0
        for m in np.unique(sizes[members]):
            ps = members[sizes[members] == m]
            ids = dofs[offsets[ps, None] + np.arange(m)]  # (P, m)
            shape = (ps.size, m, m)
            sub = pos[
                np.broadcast_to(ids[:, :, None], shape).ravel(),
                np.broadcast_to(ids[:, None, :], shape).ravel(),
            ]
            rows.append(ids.ravel())
            groups.append((lo, lo + ids.size, np.asarray(sub).reshape(shape)))
            lo += ids.size
        rows = np.concatenate(rows)
        a_rows = pos[rows]
        if done.all():  # the last colour: every column is corrected
            a_fwd = a_rows
        else:
            sel = np.flatnonzero(done.take(a_rows.indices))
            ptr = np.searchsorted(sel, a_rows.indptr).astype(a_rows.indptr.dtype)
            a_fwd = sp.csr_matrix(
                (a_rows.data.take(sel), a_rows.indices.take(sel), ptr), shape=a_rows.shape
            )
        done[rows] = True
        patterns.append(_Colour(rows=rows, groups=groups, a_rows=a_rows, a_fwd=a_fwd))
    return patterns


@dataclass(frozen=True)
class AspStructure:
    """The parameter-independent part of the ASP preconditioner on one (mesh,
    k, essential data), shared by every row of a sweep: the transfer Pi and
    its transpose, the scalar auxiliary space with the RCM order of its
    banded factor (with no free vertex, both are empty and the factor is
    0x0), and for the patch smoother each colour's ``_Colour`` of positions.
    A Jacobi structure holds no patches."""

    smoother: str
    transfer: sp.csr_matrix  # (n_free_cond, 2 * n_free_vertices)
    restrict: sp.csr_matrix  # transfer.T, stored as CSR once
    aux: AuxSpace
    aux_perm: np.ndarray
    colours: list = field(repr=False, default=None)  # of _Colour of positions


def asp_structure(
    spaces: Spaces, ess: EssentialData, a_g, smoother: str = "patch-sgs"
) -> AspStructure:
    """The parameter-independent part of ``build_asp``; ``a_g`` is the
    pattern of the condensed velocity block A_g, as its CSR matrix or its
    ``TracePattern``. Its ``position_map`` lives only while the patches
    look their positions up. The vertex patches (the free unknowns on the
    free edges at a vertex) are coloured greedily in natural vertex order."""
    if smoother not in SMOOTHERS:
        raise ValueError(f"unknown smoother '{smoother}'")
    mesh = spaces.mesh
    k = spaces.k
    fb = spaces.ref.facet

    aux = aux_space(mesh, spaces, ess)

    # the edge-trace projections of the two endpoint hat profiles, scaled
    # per edge below
    s = fb.rule.points[:, 0]
    hats = np.stack([1.0 - s, s])  # (2, Qe): endpoint a, endpoint b
    hat_n = hats @ fb.normal_projection.T  # (2, k+1)
    hat_t = hats @ fb.tangential_projection.T  # (2, k)

    # free edges in rank order and the free positions of their 2k+1
    # condensed unknowns (``free_edge_rank``): normal modes, then tangential;
    # (E, 2k+1), as intp: the smoother indexes vectors with these every apply
    fe = np.flatnonzero(free_edge_rank(spaces.split, ess) >= 0)
    r = np.arange(fe.size, dtype=np.intp)[:, None]
    edofs = np.concatenate(
        [r * (k + 1) + np.arange(k + 1), fe.size * (k + 1) + r * k + np.arange(k)], axis=1
    )

    # one (2k+1, 4) block per free edge: its unknowns by the (endpoint,
    # component) columns 2 vpos + c of the vector auxiliary space, -1 at an
    # essential endpoint
    t = mesh.tangents[fe]
    nrm = np.stack([t[:, 1], -t[:, 0]], axis=1)
    le = mesh.edge_lengths[fe]
    vals = np.concatenate(
        [
            le[:, None, None, None] * nrm[:, None, :, None] * hat_n[None, :, None, :],
            t[:, None, :, None] * hat_t[None, :, None, :],
        ],
        axis=3,
    )  # (E, endpoint, component, mode)
    vp = aux.vpos[mesh.edges[fe]]  # (E, 2)
    cols = np.where(vp[:, :, None] >= 0, 2 * vp[:, :, None] + np.arange(2), -1)
    transfer = scatter_stack(
        vals.reshape(fe.size, 4, 2 * k + 1).transpose(0, 2, 1),
        edofs,
        a_g.shape[0],
        cols.reshape(fe.size, 4),
        2 * aux.pattern.shape[0],
    )
    transfer.eliminate_zeros()
    transfer = transfer.copy()  # compact: eliminate_zeros keeps views of the larger buffers

    colours = None
    if smoother == "patch-sgs":
        # vertex patches in natural vertex order, each listing the unknowns of
        # its free edges in ascending edge order
        ends = mesh.edges[fe].ravel()  # endpoint a, b of each free edge in turn
        order = np.argsort(ends, kind="stable")
        counts = np.unique(ends, return_counts=True)[1]
        dofs = edofs[order // 2].ravel()
        offsets = np.concatenate([[0], np.cumsum(counts * edofs.shape[1])])
        pos = position_map(a_g)
        colours = _colour_patterns(offsets, dofs, _colour_patches(offsets, dofs, pos), pos)
    return AspStructure(
        smoother=smoother,
        transfer=transfer,
        restrict=transfer.T.tocsr(),
        aux=aux,
        aux_perm=rcm_order(position_map(aux.pattern)),
        colours=colours,
    )


def build_asp(
    cond: CondensedSystem, smoother: str = None, structure: AspStructure = None
) -> AspPrecond:
    """Additive preconditioner for the condensed velocity block: a smoother on
    the fine space plus a transferred exact solve in the continuous piecewise-
    linear auxiliary space.  ``smoother`` selects vertex-patch symmetric block
    Gauss-Seidel or pointwise Jacobi; None means the structure's smoother, or
    without a structure the patch smoother.  A smoother other than the
    structure's raises ValueError.

    ``structure`` (``asp_structure``) holds the part that lives for the whole
    sweep; without it (the traced benchmark and the tests), that part is
    built here for ``smoother``.  A row then only assembles and factors the
    auxiliary operator and, for the patch smoother, gathers its patch blocks
    and row slices from A_g's data and inverts the blocks.
    """
    if structure is None:
        smoother = SMOOTHERS[0] if smoother is None else smoother
        structure = asp_structure(cond.spaces, cond.block.essential, cond.A_g.csr, smoother)
    elif smoother not in (None, structure.smoother):
        raise ValueError(f"smoother {smoother!r}, structure built for {structure.smoother!r}")
    pre = AspPrecond(
        smoother=structure.smoother,
        transfer=structure.transfer,
        restrict=structure.restrict,
        aux_factor=factor_spd(structure.aux.operator(cond.block.params), structure.aux_perm),
    )
    if pre.smoother == "jacobi":
        pre.jacobi_diag = cond.A_g.diagonal().copy()
        if np.any(pre.jacobi_diag <= 0.0):
            raise ValueError("condensed diagonal not positive")
        return pre
    padded = np.concatenate([[0.0], cond.A_g.csr.data])  # position 0: outside A_g's pattern
    pre.colours = [c.fill(padded) for c in structure.colours]
    return pre
