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
the whole slices.  The patches of one colour and size whose blocks of A_g
are equal bit for bit form a class, and a mesh of translated copies of two
triangles has few (14 among 287 patches on the unit square at 1/h=16 and
k=2).  A class of at least ``_CLASS_MIN`` patches is one slice of the
colour's rows, solved with one GEMM against its one inverse.  The other
patches of each size form a tail, each patch with its own inverse, solved
by one batched matrix-vector product.  A GEMM rounds otherwise than that
product, so classes move the iterates by rounding; on a mesh with no
repeated patch every patch is in a tail and the sweep keeps its bits.
Pointwise Jacobi is the one alternative smoother.

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
patches' colours as free edges (each colour's unknowns, and per pair of a
patch's edges the rank of one among the other's neighbours), N, and the RCM
orders of both banded factors. ``build_asp`` and ``build_schur`` then do one
row's work: the scalar auxiliary operator and its factor; the patch blocks,
gathered from A_g's data at positions computed from its row starts batch by
batch and classed exactly (``linalg.distinct_rows`` within each batch, then
across the batches' first blocks), each class's block inverted once and the
colours' rows ordered by class; each colour's row slice of A_g; and the
Schur inner factor.  The library calls them from ``bench.Structure.row``.
Called without a structure (the traced benchmark, tests), they build it
first.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import AuxSpace, ProblemParams, aux_space, position_map, scatter_stack
from .condense import CondensedSystem, TracePattern, block_positions, edge_ranks, trace_layout
from .linalg import SparseSym, SpdFactor, distinct_rows, factor_spd, rcm_order
from .mesh import TAG_OUTLET, Mesh
from .spaces import EssentialData, Spaces, free_edge_unknowns

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


# block entries per batch of patches whose positions and values a row
# computes at once: 2 MB of float64
_BATCH = 1 << 18

# the fewest patches of one colour and size with equal blocks that the sweep
# solves as one class, with one GEMM against their one inverse; a smaller
# class joins the tail, whose patches each keep their own inverse
_CLASS_MIN = 8


@dataclass(frozen=True)
class _Colour:
    """One row's colour of the patch smoother.  ``rows`` holds the unknowns
    of its patches, per patch size first the classes, then the tail
    (``_ColourPattern.fill``).  Class ``(lo, hi, inv)`` covers ``rows[lo:hi]``
    as at least ``_CLASS_MIN`` patches of m unknowns with equal blocks of
    A_g, and ``inv`` (m, m) is the inverse of that block.  Tail ``(lo, hi,
    inv)`` covers ``rows[lo:hi]`` as P patches, with ``inv`` (P, m, m) the
    inverses of their blocks.  ``a_rows`` is its row slice of A_g, and
    ``a_fwd`` those rows on the columns of the earlier colours, the only
    ones where the forward pass's iterate can be nonzero."""

    rows: np.ndarray
    classes: list
    tails: list
    a_rows: sp.csr_matrix
    a_fwd: sp.csr_matrix

    def correct(self, r: np.ndarray, z: np.ndarray, a: sp.csr_matrix) -> None:
        """Exact block solves on every patch of the colour at once, with the
        residual rows ``r[rows] - a @ z``: one GEMM per class, one batched
        matrix-vector product per tail.  Patches of one colour share no
        unknown and no A_g coupling, so this equals visiting them one by
        one."""
        res = r[self.rows]
        if a.nnz:
            res -= a @ z
        for lo, hi, inv in self.classes:
            res[lo:hi] = (res[lo:hi].reshape(-1, inv.shape[0]) @ inv.T).ravel()
        for lo, hi, inv in self.tails:
            p, m, _ = inv.shape
            res[lo:hi] = (inv @ res[lo:hi].reshape(p, m, 1)).ravel()
        z[self.rows] += res


@dataclass(frozen=True)
class _ColourPattern:
    """One colour of the patch smoother in an ``AspStructure``: ``rows``
    holds the unknowns of its patches as in ``_Colour``, grouped by the
    patches' number d of free edges.  Group ``(lo, hi, rank)`` covers
    ``rows[lo:hi]`` as P patches of d (2k+1) unknowns, each free edge's in
    turn, and ``rank`` (P, d, d) int8 holds their ``condense.edge_ranks``.
    ``fill`` gives one row's ``_Colour``."""

    rows: np.ndarray
    groups: list

    def fill(self, a: sp.csr_matrix, first: np.ndarray, c: int) -> _Colour:
        """Colour ``c`` of the row whose A_g is ``a``; ``first`` holds the
        first colour of each unknown.  Per group, the patches of each class
        of at least ``_CLASS_MIN`` patches become one slice of the rows, in
        the order of the classes' first patches, and the other patches
        follow in their given order."""
        rows, classes, tails, lo = [], [], [], 0
        for glo, ghi, rank in self.groups:
            ids = self.rows[glo:ghi].reshape(rank.shape[0], -1)
            m = ids.shape[1]
            cls, inv = _block_inverses(a, ids, rank)
            size = np.bincount(cls)
            big = np.flatnonzero(size >= _CLASS_MIN)
            order = np.argsort(np.where(size[cls] >= _CLASS_MIN, cls, size.size), kind="stable")
            for j in big:
                hi = lo + m * int(size[j])
                classes.append((lo, hi, inv[j].copy()))
                lo = hi
            tail = order[int(size[big].sum()) :]
            if tail.size:
                hi = lo + m * tail.size
                tails.append((lo, hi, inv[cls[tail]]))
                lo = hi
            rows.append(ids[order].ravel())
        rows = np.concatenate(rows)
        a_rows = a[rows]
        a_fwd = _earlier_columns(a_rows, first, c)
        return _Colour(rows=rows, classes=classes, tails=tails, a_rows=a_rows, a_fwd=a_fwd)


def _earlier_columns(m: sp.csr_matrix, first: np.ndarray, c: int) -> sp.csr_matrix:
    """The entries of the canonical CSR matrix ``m`` in the columns whose
    first colour is before ``c``; ``m`` itself when that is every entry."""
    kept = first.take(m.indices) < c
    if kept.all():
        return m
    sel = np.flatnonzero(kept)
    ptr = np.searchsorted(sel, m.indptr).astype(m.indptr.dtype)
    return sp.csr_matrix((m.data.take(sel), m.indices.take(sel), ptr), shape=m.shape)


def _block_inverses(a: sp.csr_matrix, rows: np.ndarray, rank: np.ndarray) -> tuple:
    """The blocks of ``a`` on P patches of d free edges, with unknowns
    ``rows`` (P, m) and edge ranks ``rank`` (P, d, d), as their exact
    classes: the class of each patch (P,), numbered by first patch, and
    each class's inverse (C, m, m).  The blocks are gathered in batches of
    patches: their positions follow from ``a``'s row starts, and an entry
    outside its pattern is 0.  ``distinct_rows`` classes each batch's
    blocks, and once more the first blocks of the batches' classes, so
    equal blocks share a class wherever they lie; each class's block is
    inverted once."""
    p, d, _ = rank.shape
    m = rows.shape[1]  # d (2k+1)
    layout = trace_layout(m // d // 2, d, by_edge=True)
    cls = np.empty(p, np.intp)
    reps = []
    step = max(1, _BATCH // (m * m))
    for lo in range(0, p, step):
        batch = slice(lo, lo + step)
        pos = block_positions(a.indptr.take(rows[batch]), rank[batch], layout, a.nnz)
        blocks = a.data.take(pos, mode="clip")
        blocks[pos == a.nnz] = 0.0
        first, inverse = distinct_rows(blocks)
        cls[batch] = inverse + sum(r.shape[0] for r in reps)
        reps.append(blocks[first])
    reps = np.concatenate(reps)
    first, inverse = distinct_rows(reps)
    return inverse[cls], np.linalg.inv(reps[first])


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


def _colour_patches(offsets, spokes, graph: sp.csr_matrix) -> np.ndarray:
    """Greedy colouring of the patches, in their given order.  Two patches
    conflict if they share a free edge or A_g couples their unknowns: a
    nonzero of P G P^T, with P the patch-to-edge incidence and G the
    free-edge graph, formed in bool.  Each free edge's unknowns lie in the
    patches of the edge, and A_g couples two edges' unknowns where G holds
    the pair, so it is the pattern of P_u (|A_g| + I) P_u^T, P_u the
    patch-to-unknown incidence."""
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


def _colour_patterns(offsets, spokes, colour, edofs, graph) -> tuple:
    """The colours' ``_ColourPattern``s and, per free unknown, the first
    colour that holds it (one byte for fewer than 256 colours)."""
    sizes = np.diff(offsets)
    patterns = []
    for c in range(colour.max(initial=-1) + 1):
        members = np.flatnonzero(colour == c)
        rows, groups, lo = [], [], 0
        for d in np.unique(sizes[members]):
            ps = members[sizes[members] == d]
            edges = spokes[offsets[ps, None] + np.arange(d)]  # (P, d)
            rows.append(edofs[edges].ravel())
            groups.append((lo, lo + rows[-1].size, edge_ranks(graph, edges)))
            lo += rows[-1].size
        patterns.append(_ColourPattern(rows=np.concatenate(rows), groups=groups))
    first = np.empty(edofs.size, np.min_scalar_type(len(patterns)))
    for c in reversed(range(len(patterns))):
        first[patterns[c].rows] = c
    return patterns, first


@dataclass(frozen=True)
class AspStructure:
    """The parameter-independent part of the ASP preconditioner on one (mesh,
    k, essential data), shared by every row of a sweep: the transfer Pi and
    its transpose, the scalar auxiliary space with the RCM order of its
    banded factor (with no free vertex, both are empty and the factor is
    0x0), and for the patch smoother each colour's ``_ColourPattern`` and
    the first colour of each unknown.  It keeps no position in A_g's data:
    a row computes them per batch of patches from A_g's row starts.  A
    Jacobi structure holds no patches."""

    smoother: str
    transfer: sp.csr_matrix  # (n_free_cond, 2 * n_free_vertices)
    restrict: sp.csr_matrix  # transfer.T, stored as CSR once
    aux: AuxSpace
    aux_perm: np.ndarray
    colours: list = field(repr=False, default=None)  # of _ColourPattern
    first: np.ndarray = field(repr=False, default=None)  # per free unknown, its first colour


def asp_structure(
    spaces: Spaces, ess: EssentialData, a_g: TracePattern, smoother: str = "patch-sgs"
) -> AspStructure:
    """The parameter-independent part of ``build_asp``; ``a_g`` is the
    ``TracePattern`` of the condensed velocity block A_g, whose free edges
    and free-edge graph it reads. The vertex patches (the free unknowns on
    the free edges at a vertex) are coloured greedily in natural vertex
    order, on that graph."""
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
    # condensed unknowns, (E, 2k+1) as intp: the smoother indexes vectors
    # with these every apply
    fe = a_g.free_edges
    edofs = free_edge_unknowns(np.arange(fe.size, dtype=np.intp), fe.size, k)

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

    colours = first = None
    if smoother == "patch-sgs":
        # vertex patches in natural vertex order, each listing its free edges
        # (spokes) in ascending rank, and so their unknowns in ascending order
        ends = mesh.edges[fe].ravel()  # endpoint a, b of each free edge in turn
        spokes = np.argsort(ends, kind="stable") // 2
        counts = np.unique(ends, return_counts=True)[1]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        colour = _colour_patches(offsets, spokes, a_g.graph)
        colours, first = _colour_patterns(offsets, spokes, colour, edofs, a_g.graph)
    return AspStructure(
        smoother=smoother,
        transfer=transfer,
        restrict=transfer.T.tocsr(),
        aux=aux,
        aux_perm=rcm_order(position_map(aux.pattern)),
        colours=colours,
        first=first,
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
    (at positions computed from A_g's row starts) and row slices from A_g
    and inverts the blocks.
    """
    if structure is None:
        smoother = SMOOTHERS[0] if smoother is None else smoother
        structure = asp_structure(cond.spaces, cond.block.essential, cond.structure.a_g, smoother)
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
    a = cond.A_g.csr
    pre.colours = [p.fill(a, structure.first, c) for c, p in enumerate(structure.colours)]
    return pre
