"""Uniform block-diagonal preconditioner for the condensed saddle system.

Velocity block (auxiliary space, Xu, Computing 56, 1996): a vertex-patch
symmetric block Gauss-Seidel smoother on the condensed trace unknowns plus a
coarse correction through the continuous piecewise-linear vector space,
    Az^{-1} = R + Pi (A0 kron I2)^{-1} Pi^T.
The smoother R visits the patches in multicolour order: the patches are
coloured so that no two of one colour share or couple unknowns, and a sweep
is one forward pass over the colours and one backward pass without the last
colour, each colour solved for all its patches at once.  A patch's rows of
A_g split as (A z)_p = D z_p + A_ring z_ring, the ring being the columns of
those rows outside the patch, so the block Gauss-Seidel correction
z_p += D^-1 (r - A z)_p is the assignment

    z_p = M [r_p | z_ring],   M = [D^-1 | -D^-1 A_ring]  (m, m + w),

one product per patch with a gather from the stacked [r | z] (the first
colour sees z = 0 and reads only D^-1 r_p).  The patches with the same
numbers of free edges and ring edges form a group, and those of one group
whose blocks [D | A_ring] are equal bit for bit a class: a mesh of
translated copies of two triangles has few (19 among 287 patches on the
unit square at 1/h=16 and k=2).  The patches of one colour in a class of at
least ``_CLASS_MIN`` are solved with one GEMM against their one M, the
others of each group, each with its own M, by one batched matrix-vector
product.
Pointwise Jacobi is the one alternative smoother.

The auxiliary space is one ``AuxSpace``, built from the condensed structure's
free edges alone: its free vertices (those on no essential edge, outlet
vertices included), A0's pattern and RCM order, and Pi. Pi injects a
piecewise-linear field through the edge-trace projections of
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
sweep: the ``AuxSpace``, the patches by group as free edges (each patch's
unknowns and ring unknowns, its colour, and per pair of a spoke and a spoke
or ring edge the rank of one among the other's neighbours), and N with its
RCM order. ``build_asp`` and ``build_schur`` then do one row's work: the
scalar auxiliary operator and its factor; each group's classes, found
batch by batch from the patches' rows of A_g and then merged on their
blocks (``_patch_matrices``), each class's M formed once and the colours'
patches ordered by class; and the Schur inner factor.  The library calls
them from ``bench.Structure.row``. Called without a structure (the traced
benchmark, tests), they build it first.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import (
    ProblemParams,
    ScatterPattern,
    inverse_jacobians,
    position_map,
    scatter_pattern,
    scatter_stack,
)
from .condense import CondensedSystem, TraceLayout, TracePattern
from .condense import block_positions, edge_ranks, trace_layout
from .linalg import _CLASS_MIN, SparseSym, SpdFactor, distinct_rows, factor_spd, rcm_order
from .mesh import TAG_OUTLET, Mesh
from .spaces import Spaces, free_edge_unknowns

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


# entries of A_g's rows per batch of patches that a row classes at once:
# 2 MB of float64
_BATCH = 1 << 18


@dataclass(frozen=True)
class _Colour:
    """One row's colour of the patch smoother.  ``rows`` holds the m
    unknowns of each of its patches, part by part, and ``take`` the m + w
    positions of each patch's gather from the stacked [r | z], the patch's
    unknowns and then its ring's, offset by n (``_PatchGroup``).  A part
    ``(p, mat)`` is p patches of one group, either a class of at least
    ``_CLASS_MIN`` patches with equal blocks [D | A_ring], ``mat`` (m, m + w)
    their one M = [D^-1 | -D^-1 A_ring], or a tail, ``mat`` (p, m, m + w)
    each patch's own M."""

    rows: np.ndarray
    take: np.ndarray
    parts: list

    def correct(self, rz: np.ndarray, z: np.ndarray, first: bool) -> None:
        """Exact block solves z_p = M [r_p | z_ring] on every patch of the
        colour at once, ``z`` the second half of ``rz``: one GEMM per class,
        one batched matrix-vector product per tail.  Patches of one colour
        share no unknown and no A_g coupling, so no ring holds another
        patch's unknowns, and this equals visiting them one by one.  The
        ``first`` colour of a sweep sees z = 0 and reads only r_p and D^-1."""
        out = np.empty(self.rows.size)
        v = rz.take(self.rows if first else self.take)
        lo = vlo = 0
        for p, mat in self.parts:
            m = mat.shape[-2]
            w = m if first else mat.shape[-1]
            mat = mat[..., :w]
            x = v[vlo : vlo + p * w].reshape(p, w)
            y = out[lo : lo + p * m]
            if mat.ndim == 2:
                np.matmul(x, mat.T, out=y.reshape(p, m))
            else:
                np.matmul(mat, x.reshape(p, w, 1), out=y.reshape(p, m, 1))
            lo += p * m
            vlo += p * w
        z[self.rows] = out


@dataclass(frozen=True)
class _PatchGroup:
    """The patches of the patch smoother with d free edges (spokes) and e
    ring edges (the free edges, not spokes, that share an element with a
    spoke).  ``take`` (P, m + w), m = d (2k+1) and w = e (2k+1), holds each
    patch's unknowns, each spoke's in turn, then its ring's in ascending
    order, as positions in the stacked [r | z] (the ring's offset by n);
    ``rank`` (P, d, d + e) int8 the ``condense.edge_ranks`` of the spokes
    among the spokes and the ring.  The patches of colour c are
    ``ends[c]:ends[c + 1]``, in natural vertex order."""

    take: np.ndarray
    rank: np.ndarray
    ends: np.ndarray


def _fill_colours(a: sp.csr_matrix, groups: list) -> list:
    """The ``_Colour``s of the row whose A_g is ``a``.  Per group and colour,
    the patches of each class of at least ``_CLASS_MIN`` patches become one
    part, in the order of the classes' first patches, and the other patches
    follow as the tail in their given order."""
    n_colours = groups[0].ends.size - 1 if groups else 0
    rows, take, parts = ([[] for _ in range(n_colours)] for _ in range(3))
    for g in groups:
        m = g.take.shape[1] // g.rank.shape[2] * g.rank.shape[1]
        cls, mats = _patch_matrices(a, g.take, g.rank)
        for c, (lo, hi) in enumerate(zip(g.ends[:-1], g.ends[1:])):
            cc = cls[lo:hi]
            size = np.bincount(cc)
            big = np.flatnonzero(size >= _CLASS_MIN)
            order = np.argsort(np.where(size[cc] >= _CLASS_MIN, cc, size.size), kind="stable")
            parts[c] += [(int(size[j]), mats[j].copy()) for j in big]
            tail = order[int(size[big].sum()) :]
            if tail.size:
                parts[c].append((tail.size, mats[cc[tail]]))
            t = g.take[lo:hi][order]
            rows[c].append(t[:, :m].ravel())
            take[c].append(t.ravel())
    return [
        _Colour(rows=np.concatenate(r), take=np.concatenate(t), parts=p)
        for r, t, p in zip(rows, take, parts)
    ]


def _patch_matrices(a: sp.csr_matrix, take: np.ndarray, rank: np.ndarray) -> tuple:
    """The sweep matrices of the P patches of one ``_PatchGroup`` in the row
    whose A_g is ``a``, as exact classes of their blocks [D | A_ring] (m, m +
    w): the class of each patch (P,), numbered by first patch, and each
    class's M = [D^-1 | -D^-1 A_ring] (C, m, m + w), formed once.

    A patch's rows of A_g hold every entry of its block and its ranks say
    where each goes, so equal ranks and rows give equal blocks.  Per batch of
    patches, ``distinct_rows`` classes the rows (zero-padded to one width,
    about half the block's entries) with the ranks, and only each class's
    first block is gathered, at positions that follow from ``a``'s row
    starts (0 outside its pattern).  ``distinct_rows`` of those blocks then
    merges the classes with equal blocks, across batches and ranks."""
    p, d, dc = rank.shape
    m = take.shape[1] // dc * d
    k = (m // d - 1) // 2
    layout, cols = trace_layout(k, d, by_edge=True), _block_columns(k, d, dc - d)
    start = a.indptr.take(take[:, :m])
    length = a.indptr.take(take[:, :m] + 1) - start
    width = np.arange(length.max())
    cls = np.empty(p, np.intp)
    reps = []
    step = max(1, _BATCH // (m * width.size))
    for lo in range(0, p, step):
        batch = slice(lo, lo + step)
        rows = a.data.take(start[batch, :, None] + width, mode="clip")
        rows[width >= length[batch, :, None]] = 0.0
        first, inverse = distinct_rows(rank[batch], rows)
        cls[batch] = inverse + sum(r.shape[0] for r in reps)
        first += lo
        pos = block_positions(start[first], rank[first], layout, a.nnz, cols)
        reps.append(a.data.take(pos, mode="clip"))
        reps[-1][pos == a.nnz] = 0.0
    reps = np.concatenate(reps)
    first, inverse = distinct_rows(reps)
    blocks = reps[first]
    dinv = np.linalg.inv(blocks[:, :, :m])
    return inverse[cls], np.concatenate([dinv, -(dinv @ blocks[:, :, m:])], axis=2)


@functools.cache
def _block_columns(k: int, d: int, e: int) -> TraceLayout:
    """The columns of the block [D | A_ring] of a patch of d spokes and e ring
    edges: the spokes' unknowns by edge, as its rows, then the ring's in
    A_g's column order, the ring edges' normal modes, then their tangential
    modes."""
    spokes, ring = trace_layout(k, d, by_edge=True), trace_layout(k, e)
    ring = ring._replace(edge=ring.edge + d, first=ring.first + spokes.edge.size)
    layout = TraceLayout(*(np.concatenate(pair) for pair in zip(spokes, ring)))
    for a in layout:  # cached: every caller gets these arrays
        a.setflags(write=False)
    return layout


@dataclass
class AspPrecond:
    smoother: str
    transfer: sp.csr_matrix  # (n_free_cond, 2 * n_free_vertices)
    restrict: sp.csr_matrix  # transfer.T, stored as CSR once
    aux_factor: SpdFactor  # of the scalar A0; 0x0 when the auxiliary space is empty
    colours: list = field(repr=False, default=None)  # of filled _Colour
    jacobi_diag: np.ndarray = field(repr=False, default=None)

    def smooth(self, r: np.ndarray) -> np.ndarray:
        """R r: pointwise Jacobi, or one multicolour SGS sweep, each colour
        one ``_Colour.correct`` on the stacked [r | z]."""
        if self.smoother == "jacobi":
            return r / self.jacobi_diag
        rz = np.concatenate([r, np.zeros_like(r)])
        z = rz[r.size :]
        # forward over the colours, then back; the last colour is not
        # repeated, since its residual is already zero after the forward pass
        for c, blk in enumerate(self.colours):
            blk.correct(rz, z, c == 0)
        for blk in reversed(self.colours[:-1]):
            blk.correct(rz, z, False)
        return z

    def coarse(self, r: np.ndarray) -> np.ndarray:
        return self.transfer @ self.aux_factor.solve((self.restrict @ r).reshape(-1, 2)).ravel()

    def apply(self, r: np.ndarray) -> np.ndarray:
        z = self.smooth(r)
        z += self.coarse(r)
        return z


def _colour_patches(conflict: sp.csr_matrix) -> np.ndarray:
    """Greedy colouring of the patches, in their given order, on the
    symmetric ``conflict`` pattern: each patch takes the least colour that
    no earlier conflicting patch took, read from a bitmask per patch of the
    colours its earlier neighbours took."""
    later = sp.triu(conflict, k=1, format="csr")
    ptr = later.indptr.tolist()
    nbr = later.indices.tolist()
    taken = [0] * later.shape[0]
    colour = []
    for p, t in enumerate(taken):  # only earlier patches set p's bits
        c = (~t & (t + 1)).bit_length() - 1  # the lowest clear bit
        colour.append(c)
        bit = 1 << c
        for q in nbr[ptr[p] : ptr[p + 1]]:
            taken[q] |= bit
    return np.array(colour, np.int64)


@dataclass(frozen=True)
class AuxSpace:
    """The continuous piecewise-linear auxiliary space on the vertices off
    the essential boundary, kept for the whole sweep: ``vpos``, each
    vertex's position among the free ones (-1 on an essential edge); the P1
    element ``stiff``-ness and consistent ``mass`` (nt, 3, 3) of the scalar
    A0, which ``pattern`` scatters and ``operator`` sums per row; ``perm``,
    the RCM order of A0's factor; and Pi (n_free_cond, 2 n_free_vertices)
    as ``transfer`` and, as CSR, ``restrict``. With no free vertex each is
    empty and A0's factor 0x0."""

    vpos: np.ndarray
    stiff: np.ndarray
    mass: np.ndarray
    pattern: ScatterPattern
    perm: np.ndarray
    transfer: sp.csr_matrix
    restrict: sp.csr_matrix

    def operator(self, params: ProblemParams) -> SparseSym:
        """The scalar 2 mu * stiffness + tau * mass over the free vertices."""
        return SparseSym(self.pattern.fill(2.0 * params.mu * self.stiff + params.tau * self.mass))


def aux_space(spaces: Spaces, a_g: TracePattern) -> AuxSpace:
    """The ``AuxSpace`` of the condensed velocity block whose pattern is
    ``a_g``: a mesh edge not among its ``free_edges`` is essential, and so
    are its two vertices. An outlet vertex stays free unless it lies on an
    essential edge."""
    mesh, k = spaces.mesh, spaces.k
    fb = spaces.ref.facet
    det = mesh.det_j

    # P1 gradients, constant per element: grad lam_1, grad lam_2 are the rows
    # of J^-1
    jinv = inverse_jacobians(mesh.jacobians, det)
    g = np.concatenate([-(jinv[:, :1] + jinv[:, 1:]), jinv], axis=1)
    stiff = g[:, :, None, 0] * g[:, None, :, 0] + g[:, :, None, 1] * g[:, None, :, 1]
    stiff *= (0.5 * det)[:, None, None]
    mloc = (np.ones((3, 3)) + np.eye(3)) / 24.0

    fe = a_g.free_edges
    vpos = np.zeros(mesh.num_vertices, np.int32)
    vpos[np.delete(mesh.edges, fe, axis=0)] = -1  # the vertices of the essential edges
    free = vpos == 0
    n_free = np.count_nonzero(free)
    vpos[free] = np.arange(n_free, dtype=np.int32)
    pattern = scatter_pattern(vpos[mesh.triangles], n_free)

    # the edge-trace projections of the two endpoint hat profiles, scaled
    # per edge below
    s = fb.rule.points[:, 0]
    hats = np.stack([1.0 - s, s])  # (2, Qe): endpoint a, endpoint b
    hat_n = hats @ fb.normal_projection.T  # (2, k+1)
    hat_t = hats @ fb.tangential_projection.T  # (2, k)

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
    vp = vpos[mesh.edges[fe]]  # (E, 2)
    cols = np.where(vp[:, :, None] >= 0, 2 * vp[:, :, None] + np.arange(2), -1)
    transfer = scatter_stack(
        vals.reshape(fe.size, 4, 2 * k + 1).transpose(0, 2, 1),
        free_edge_unknowns(np.arange(fe.size, dtype=np.intp), fe.size, k),
        a_g.shape[0],
        cols.reshape(fe.size, 4),
        2 * n_free,
    )
    transfer.eliminate_zeros()
    transfer = transfer.copy()  # compact: eliminate_zeros keeps views of the larger buffers
    return AuxSpace(
        vpos=vpos,
        stiff=stiff,
        mass=mloc[None, :, :] * det[:, None, None],
        pattern=pattern,
        perm=rcm_order(position_map(pattern)),
        transfer=transfer,
        restrict=transfer.T.tocsr(),
    )


@dataclass(frozen=True)
class AspStructure:
    """The parameter-independent part of the ASP preconditioner on one (mesh,
    k, essential data), shared by every row of a sweep: the auxiliary space
    with its transfer, and for the patch smoother the patches as
    ``_PatchGroup``s.  It keeps no position in A_g's data: a row computes
    them per batch of patches from A_g's row starts.  A Jacobi structure
    holds no patches."""

    smoother: str
    aux: AuxSpace
    groups: list = field(repr=False, default=None)  # of _PatchGroup


def asp_structure(spaces: Spaces, a_g: TracePattern, smoother: str = "patch-sgs") -> AspStructure:
    """The parameter-independent part of ``build_asp``; ``a_g`` is the
    ``TracePattern`` of the condensed velocity block A_g, whose free edges
    and free-edge graph it reads. The vertex patches (the free unknowns on
    the free edges at a vertex) are coloured greedily in natural vertex
    order. Two patches conflict if they share a free edge or A_g couples
    their unknowns: a nonzero of P G P^T, with P the patch-to-edge incidence
    and G the free-edge graph, formed in bool, since each free edge's
    unknowns lie in the patches of the edge and A_g couples two edges'
    unknowns where G holds the pair. The pattern of P G holds each patch's
    spokes and ring."""
    if smoother not in SMOOTHERS:
        raise ValueError(f"unknown smoother '{smoother}'")
    groups = None
    if smoother == "patch-sgs":
        # free edges in rank order and the free positions of their 2k+1
        # condensed unknowns, (E, 2k+1) as intp: the smoother indexes
        # vectors with these every apply
        fe = a_g.free_edges
        edofs = free_edge_unknowns(np.arange(fe.size, dtype=np.intp), fe.size, spaces.k)
        # vertex patches in natural vertex order, each listing its free edges
        # (spokes) in ascending rank, and so their unknowns in ascending order
        ends = spaces.mesh.edges[fe].ravel()  # endpoint a, b of each free edge in turn
        spokes = np.argsort(ends, kind="stable") // 2
        counts = np.unique(ends, return_counts=True)[1]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        inc = sp.csr_matrix(
            (np.ones(spokes.size, bool), spokes, offsets), shape=(offsets.size - 1, fe.size)
        )
        reach = (inc @ a_g.graph).tocsr()
        colour = _colour_patches((reach @ inc.T).tocsr())
        ring = (reach.astype(np.int8) - inc.astype(np.int8)).tocsr()
        ring.eliminate_zeros()  # each spoke is its own neighbour
        ring.sort_indices()
        sizes, widths = np.diff(offsets), np.diff(ring.indptr)
        groups = []
        for d, e in np.unique(np.stack([sizes, widths], axis=1), axis=0):
            ps = np.flatnonzero((sizes == d) & (widths == e))
            ps = ps[np.argsort(colour[ps], kind="stable")]
            own = spokes[offsets[ps, None] + np.arange(d)]
            rim = ring.indices[ring.indptr[ps, None] + np.arange(e)]
            # the ring's unknowns in ascending order, A_g's column order
            rim_unknowns = np.sort(edofs[rim].reshape(ps.size, -1), axis=1) + edofs.size
            take = np.concatenate([edofs[own].reshape(ps.size, -1), rim_unknowns], axis=1)
            rank = edge_ranks(a_g.graph, own, np.concatenate([own, rim], axis=1))
            ends = np.searchsorted(colour[ps], np.arange(colour.max() + 2))
            groups.append(_PatchGroup(take, rank, ends))
    return AspStructure(smoother, aux_space(spaces, a_g), groups)


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
    auxiliary operator and, for the patch smoother, classes its patches and
    forms each class's sweep matrix (``_patch_matrices``) from the rows of
    A_g, which it assembles (``CondensedSystem.A_g``).  Jacobi reads only
    A_g's diagonal (``CondensedSystem.a_g_diagonal``).
    """
    if structure is None:
        smoother = SMOOTHERS[0] if smoother is None else smoother
        structure = asp_structure(cond.spaces, cond.structure.a_g, smoother)
    elif smoother not in (None, structure.smoother):
        raise ValueError(f"smoother {smoother!r}, structure built for {structure.smoother!r}")
    aux = structure.aux
    pre = AspPrecond(
        smoother=structure.smoother,
        transfer=aux.transfer,
        restrict=aux.restrict,
        aux_factor=factor_spd(aux.operator(cond.block.params), aux.perm),
    )
    if pre.smoother == "jacobi":
        pre.jacobi_diag = cond.a_g_diagonal()
        if np.any(pre.jacobi_diag <= 0.0):
            raise ValueError("condensed diagonal not positive")
        return pre
    pre.colours = _fill_colours(cond.A_g.csr, structure.groups)
    return pre
