"""Static condensation of element-interior velocity and mean-zero pressure.

Per element the interior velocity block and the mean-zero pressure block form
a local saddle system

    K_LL = [[A_II, B_I^T], [B_I, -(1/lambda) det(J) I]],   B_I = -[0 | I],

coupled to the element's trace unknowns G = (facet-normal, tangential) only
through A (the constant-pressure unknown couples to no interior unknown, so
its rows survive condensation unchanged). Eliminating L element-by-element
yields the condensed SPD block A_g over trace unknowns plus the unchanged
constant-pressure coupling B_g and mass C_g. The elimination stays well posed
in the incompressibility limit 1/lambda = 0 because B_I has full row rank.

For finite lambda the same elimination equals adding lambda-weighted
divergence penalization to the interior block before inverting.

``CondensedStructure`` holds what depends only on the mesh, the degree and the
essential data, built once per sweep: the trace slots, A_g's pattern
(``TracePattern``), B_g with its right side, and the tables by which MINRES
applies A_g element class by element class (``krylov.operator_condensed``):
the elements of each class of at least ``_CLASS_MIN`` (``LocalStacks
.element_class``) in class order, the gather of their free trace unknowns,
the fold that sums each free unknown's one or two element outputs, and the
pattern of the other elements' summed blocks. A_g's pattern follows from the
graph of the free edges, the pattern of E^T E with E the element-to-free-edge
incidence, since each edge's 2k+1 trace unknowns are all free or all
essential: ``trace_pattern`` expands each free edge to its unknowns, and keeps
the graph and the free edges, and per element only where its rows start and
the ``edge_ranks`` of its edges, read from the graph as the vertex patches' of
``precond.asp_structure`` are. ``trace_pattern`` is the one place that decides
which edges are free (``spaces.free_edge_rank``): ``precond.aux_space`` reads
the auxiliary space's free vertices from those free edges.
``eliminate_local`` then does one row's work. Condensation is element-local,
so it streams the elements in chunks (``assembly.element_chunks``). Elements
whose local problems are equal bit for bit share an element class
(``LocalStacks.element_class``), and a chunk does the local work once per
distinct pair of class and element load: it forms those element matrices
(``LocalStacks.class_matrices``, which also checks their coercivity), solves
their local systems and condenses them. A mesh of translated copies of two
triangles, such as ``unit_square`` at any 1/h, has two pairs per chunk without
a body force, and a mesh with no two elements alike one pair per element. The
row keeps one condensed block per large class, and adds
the other elements' blocks to their CSR's data (``CsrPattern.add``). A_g
itself is assembled only when read (``CondensedSystem.A_g``: the patch
smoother's set-up and the checks), from the class blocks chunk by chunk and
the other elements' sums, bit for bit the sum of every element's own block;
the Jacobi smoother reads only its diagonal, folded from the class blocks'
diagonals and the other elements' CSR. The essential data g
leaves the trace unknowns element by element: F_g is the sum of the element
right sides minus the sum of each condensed block times its element's g, which
is 0 at a free unknown, so only the elements with nonzero g are multiplied.
Only the trace right sides and the lifts, (nt, n_G) each, span the whole mesh,
and only until F_g is summed; no whole-mesh element stack is formed, and the
condensed system keeps no local solutions. ``back_substitute`` solves the
local systems again, chunk by chunk with the same ``_local_solve``. Every
result is bit-identical to one chunk, and to solving every element's local
system on its own.
"""

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .assembly import (
    BlockSystem,
    CsrPattern,
    assemble_pressure_ops,
    element_chunks,
    free_rhs,
    position_map,
    pressure_c_diagonal,
    scatter_pattern,
)
from .linalg import _CLASS_MIN, SparseSym, distinct_rows
from .spaces import EssentialData, Spaces, free_edge_rank, free_edge_unknowns


@dataclass(frozen=True)
class TracePattern(CsrPattern):
    """A_g's CSR pattern, and where each element's (n_G, n_G) condensed block
    goes in it, computed per chunk by ``slots`` from two small tables:
    ``row_start`` (nt, n_G), the position in A_g's data where the row of each
    element trace unknown starts (nnz for an essential one), and
    ``edge_rank`` (nt, 3, 3) int8, the ``edge_ranks`` of its three edges.
    The ``graph`` (n_fe, n_fe) bool of the ``free_edges`` (the mesh edge of
    each rank) pairs each with its neighbour edges, itself included: the
    free edges that share an element with it. A row of A_g holds the
    unknowns of its edge's neighbours (``free_edge_unknowns`` of their ranks)."""

    row_start: np.ndarray
    edge_rank: np.ndarray
    free_edges: np.ndarray
    graph: sp.csr_matrix

    def slots(self, sel=slice(None)) -> np.ndarray:
        """(E, n_G^2) positions in A_g's data of the condensed blocks of the
        elements ``sel``, row-major, and nnz for an entry that an essential
        unknown drops."""
        start = self.row_start[sel]
        e, n_g = start.shape
        k = (n_g // 3 - 1) // 2
        out = block_positions(start, self.edge_rank[sel], trace_layout(k), self.nnz)
        return out.reshape(e, n_g * n_g)


class TraceLayout(NamedTuple):
    """Per trace unknown of a list of edges: its ``edge``, its block ``width``
    in a row (k+1 normal, k tangential), its ``mode`` and whether it is
    ``tangential``; and per edge, ``first``, the place of its normal mode 0,
    which its normal mode 1 follows."""

    edge: np.ndarray
    width: np.ndarray
    mode: np.ndarray
    tangential: np.ndarray
    first: np.ndarray


@functools.cache
def trace_layout(k: int, n_e: int = 3, by_edge: bool = False) -> TraceLayout:
    """The trace unknowns of n_e edges in one of two orders: by default the
    normal modes of every edge, then their tangential modes (an element's, in
    ``g_slot_idx`` order); with ``by_edge`` each edge's normal then
    tangential modes in turn (a vertex patch's)."""
    tangential = np.tile(np.r_[np.zeros(k + 1, bool), np.ones(k, bool)], n_e)
    mode = np.tile(np.r_[np.arange(k + 1), np.arange(k)], n_e).astype(np.int32)
    edge = np.repeat(np.arange(n_e), 2 * k + 1)
    # stable: the edges and modes keep their order within each kind
    order = np.arange(edge.size) if by_edge else np.argsort(tangential, kind="stable")
    edge, mode, tangential = edge[order], mode[order], tangential[order]
    layout = TraceLayout(
        edge=edge,
        width=np.where(tangential, k, k + 1).astype(np.int32),
        mode=mode,
        tangential=tangential,
        first=np.flatnonzero(~tangential & (mode == 0)),
    )
    for a in layout:  # cached: every caller gets these arrays
        a.setflags(write=False)
    return layout


def block_positions(
    start: np.ndarray, rank: np.ndarray, layout: TraceLayout, nnz: int, cols: TraceLayout = None
) -> np.ndarray:
    """(B, n, n_c) positions in A_g's data of the blocks of A_g on B lists of
    edges' trace unknowns, rows in ``layout``'s order and columns in that of
    ``cols`` (by default ``layout``), and nnz for an entry outside A_g's
    pattern. ``start`` (B, n) is where the row of each unknown starts in the
    data (nnz for an essential one), and ``rank`` (B, n_e, n_ce) int8 the
    ``edge_ranks`` of the row edges among the column edges.

    A row of a free edge with d neighbour edges holds their unknowns at the
    ``free_edge_unknowns`` of their ranks among the d, here per place in
    ``cols``. An edge's normal rows are consecutive, so the step between
    the starts of its first two is that row's length, d (2k+1); 0 for an
    essential edge, whose rows start at nnz."""
    cols = layout if cols is None else cols
    edge, width, mode, tangential, _ = cols
    k = int(width[0]) - 1
    dt = np.int32 if 8 * nnz < 2**31 else np.int64
    step = start[:, layout.first + 1] - start[:, layout.first]
    # a column outside the pattern lands at nnz or beyond, as a dropped row does
    rank = np.where(rank < 0, dt(nnz), rank.astype(dt))
    col = rank[:, :, edge] * width + mode  # (B, n_e, n_c): its place in a row of edge r
    col[:, :, tangential] += (step // (2 * k + 1) * (k + 1))[:, :, None]
    out = np.take(col, layout.edge, axis=1)
    out += start[:, :, None]
    return np.minimum(out, nnz, out=out)


def edge_ranks(graph: sp.csr_matrix, edges: np.ndarray, cols: np.ndarray = None) -> np.ndarray:
    """(B, d, d_c) int8: for B lists of d free-edge ranks ``edges`` (-1 for an
    essential edge) and B lists of d_c ``cols`` (by default ``edges``), the
    rank of edge c among the neighbour edges of edge r in the free-edge
    ``graph``, -1 when either is essential or the two share no element: the
    pair's position in the graph, from its ``position_map``, less where row r
    starts."""
    cols = edges if cols is None else cols
    r, c = np.broadcast_arrays(edges[:, :, None], cols[:, None, :])
    free = (r >= 0) & (c >= 0)
    if not free.any():  # every edge essential, as on a mesh with no free edge
        return np.full(r.shape, -1, np.int8)
    pos = position_map(graph)[np.maximum(r, 0).ravel(), np.maximum(c, 0).ravel()]
    pos = np.asarray(pos).reshape(r.shape) - 1  # -1 outside the graph
    return np.where(free & (pos >= 0), pos - graph.indptr[r], -1).astype(np.int8)


def trace_pattern(spaces: Spaces, essential: EssentialData, g_pos: np.ndarray) -> TracePattern:
    """A_g's pattern from the free-edge graph, for the element trace unknowns
    at the free positions ``g_pos`` (nt, n_G). The graph is the pattern of
    E^T E, E the (nt, n_fe) incidence of the elements and their free edges;
    each free edge then expands to its 2k+1 unknowns at the free positions that
    ``free_edge_unknowns`` gives them (``free_edge_rank`` raises ValueError
    unless each edge's unknowns are all free or all essential)."""
    mesh, k = spaces.mesh, spaces.k
    n = 2 * k + 1
    erank = free_edge_rank(spaces.split, essential)
    free_edges = np.flatnonzero(erank >= 0)
    n_fe = free_edges.size
    tri_rank = erank[mesh.tri_edges]
    held = tri_rank >= 0
    ptr = np.zeros(mesh.num_triangles + 1, np.int32)
    np.cumsum(held.sum(axis=1), out=ptr[1:])
    inc = sp.csr_matrix((np.ones(ptr[-1], bool), tri_rank[held], ptr), shape=(ptr.size - 1, n_fe))
    graph = (inc.T @ inc).tocsr()
    graph.sort_indices()
    deg = np.diff(graph.indptr)
    nnz = n * n * graph.nnz  # each neighbour pair: 2k+1 rows by 2k+1 columns
    idx = np.int32 if nnz < 2**31 else np.int64

    # each free edge's columns, one row padded with -1 to the largest degree:
    # its d neighbour edges' unknowns, laid out by their ranks among the d
    row = np.repeat(np.arange(n_fe), deg)  # the edge of each neighbour
    rank = np.arange(graph.nnz) - graph.indptr[row]
    width = n * deg.max(initial=0)
    cols = np.full((n_fe, width), -1, idx)
    nb = free_edge_unknowns(graph.indices, n_fe, k)  # (nnz, 2k+1): each neighbour's unknowns
    cols.ravel()[free_edge_unknowns(rank, deg[row], k) + (width * row)[:, None]] = nb

    # the rows of A_g: each free edge's k+1 normal rows, then each one's k
    # tangential rows, every row its edge's columns
    indptr = np.zeros(n * n_fe + 1, idx)
    np.cumsum(np.r_[np.repeat(n * deg, k + 1), np.repeat(n * deg, k)], out=indptr[1:])
    indices = np.empty(nnz, idx)
    lo = 0
    for copies in (k + 1, k):
        rows = np.repeat(cols, copies, axis=0)
        hi = lo + copies * n * graph.nnz
        indices[lo:hi] = rows[rows >= 0]
        del rows  # before the next copies are made
        lo = hi

    return TracePattern(
        indptr=indptr,
        indices=indices,
        shape=(n * n_fe, n * n_fe),
        # an essential unknown's position -1 reads indptr[-1] = nnz
        row_start=indptr[g_pos],
        edge_rank=edge_ranks(graph, tri_rank),
        free_edges=free_edges,
        graph=graph,
    )


@dataclass(frozen=True)
class CondensedStructure:
    """The parameter-independent part of the condensed system on one (mesh,
    k, essential data), shared by every row of a sweep.

    The tables of A_g's apply by element class (``krylov.operator_condensed``):
    ``part`` (nt,) gives each element its part, the rank of its class among
    those of at least ``_CLASS_MIN`` elements, or -1; ``gather`` (n_in, n_G)
    the free positions of those n_in elements' trace unknowns, part by part
    and in element order within one, n_free at an essential unknown, with
    part c in rows ``ends[c]:ends[c + 1]``; and ``fold`` (2, n_free) the
    places in ``gather.ravel()`` of each free unknown, in one element or two,
    ``gather.size`` where there is none. The other elements, the rest, sum
    their blocks into one CSR on the pattern ``rest``: ``a_g`` itself when
    no class is large, ``scatter_pattern`` of their free positions when some
    are, and None when none is left."""

    g_slot_idx: np.ndarray  # local slots of the trace unknowns
    g_slots: np.ndarray  # (nt, n_G) their global ids
    free_cond: np.ndarray  # free condensed unknown ids (global velocity ids)
    a_g: TracePattern  # A_g's pattern and where each element block goes in it
    B_g: sp.csr_matrix  # constant-pressure coupling, free columns
    F_pbar: np.ndarray
    part: np.ndarray
    ends: np.ndarray
    gather: np.ndarray
    fold: np.ndarray
    rest: CsrPattern


def condensed_structure(
    spaces: Spaces, essential: EssentialData, element_class: np.ndarray
) -> CondensedStructure:
    """The ``CondensedStructure`` of ``spaces`` and ``essential``, its class
    tables from ``element_class`` (``LocalStacks.element_class``)."""
    dm = spaces.dofmap
    nt = spaces.mesh.num_triangles
    g_slot_idx = np.r_[0 : dm.n_loc_facet, dm.n_loc_facet + dm.n_loc_int : dm.n_loc]
    g_slots = dm.vel_loc[:, g_slot_idx]
    g_pos = essential.pos[g_slots]
    # the free condensed unknowns hold the first free positions
    free_cond = np.flatnonzero(essential.free_mask[: spaces.split.n_cond])
    n_free = free_cond.size
    b_pbar = assemble_pressure_ops(spaces.mesh, spaces)[:nt]  # the constant-pressure rows
    a_g = trace_pattern(spaces, essential, g_pos)

    size = np.bincount(element_class)
    big = np.flatnonzero(size >= _CLASS_MIN)
    rank = np.full(size.size, -1, np.int32)
    rank[big] = np.arange(big.size, dtype=np.int32)
    part = rank[element_class]
    inside = np.flatnonzero(part >= 0)
    inside = inside[np.argsort(part[inside], kind="stable")]
    gather = np.where(g_pos[inside] >= 0, g_pos[inside], n_free)
    # each free unknown lies in one element or two: its first place, then
    # its second
    flat = gather.ravel()
    places = np.flatnonzero(flat < n_free)
    places = places[np.argsort(flat[places], kind="stable")]
    unknown = flat[places]
    second = np.zeros(unknown.size, bool)
    second[1:] = unknown[1:] == unknown[:-1]
    fold = np.full((2, n_free), flat.size, np.intp)
    fold[0, unknown[~second]] = places[~second]
    fold[1, unknown[second]] = places[second]

    rest = np.flatnonzero(part < 0)
    if rest.size == nt:
        rest_pattern = a_g
    elif rest.size:
        rest_pattern = scatter_pattern(g_pos[rest], n_free)
    else:
        rest_pattern = None
    return CondensedStructure(
        g_slot_idx=g_slot_idx,
        g_slots=g_slots,
        free_cond=free_cond,
        a_g=a_g,
        B_g=b_pbar[:, free_cond],
        F_pbar=-(b_pbar @ essential.full_vector()),
        part=part,
        ends=np.r_[0, np.cumsum(size[big])],
        # intp, as ``take`` reads indices: int32 would be converted on every
        # apply (0.22 against 0.13 ms per gather at cavity k=2 1/h=64)
        gather=gather.astype(np.intp),
        fold=fold,
        rest=rest_pattern,
    )


@dataclass
class CondensedSystem:
    """Trace-unknown saddle system; its saddle system ``block`` and its
    ``structure`` recover the interiors.

    The condensed velocity block A_g is kept as the structure splits it:
    ``class_blocks`` (C, n_G, n_G), the one condensed block of each part's
    elements, and ``rest``, the sum of the other elements' blocks on the
    structure's ``rest`` pattern (None without such elements). A_g itself is
    assembled only on first access."""

    B_g: sp.csr_matrix  # constant-pressure coupling, free columns
    C_g: SparseSym  # constant-pressure mass, -(1/lambda) diag(areas)
    F_g: np.ndarray
    F_pbar: np.ndarray
    free_cond: np.ndarray  # free condensed unknown ids (global velocity ids)
    structure: CondensedStructure = field(repr=False)
    class_blocks: np.ndarray = field(repr=False)
    rest: SparseSym = field(repr=False)
    spaces: Spaces = field(repr=False, default=None)
    block: BlockSystem = field(repr=False, default=None)

    @property
    def n_free(self) -> int:
        return self.structure.a_g.shape[0]

    @property
    def n_pbar(self) -> int:
        return self.C_g.n

    @functools.cached_property
    def A_g(self) -> SparseSym:
        """The free condensed velocity block, summed on the structure's
        ``a_g`` pattern chunk by chunk with ``TracePattern.add``: each class
        element's block, then the rest's sums. Every entry sums the blocks of
        at most two elements, and two floats add alike in either order, so it
        equals summing every element's own block in element order bit for
        bit. With no class it is ``rest``."""
        s = self.structure
        if not self.class_blocks.shape[0]:
            return self.rest
        data = s.a_g.zeros()
        for sel in element_chunks(s.part.size):
            e = sel.start + np.flatnonzero(s.part[sel] >= 0)
            s.a_g.add(data, self.class_blocks[s.part[e]], e)
        if self.rest is not None:
            rest = self.rest.csr
            rows = np.repeat(np.arange(rest.shape[0]), np.diff(rest.indptr))
            pos = np.asarray(position_map(s.a_g)[rows, rest.indices]).ravel() - 1
            data[pos] += rest.data
        return SparseSym(s.a_g.matrix(data))

    def a_g_diagonal(self) -> np.ndarray:
        """A_g's diagonal, without assembling A_g: the fold of the class
        blocks' diagonals plus the rest's. Bit for bit ``A_g.diagonal()``,
        since each entry sums at most two positive terms."""
        s = self.structure
        diag = np.zeros(s.gather.size + 1)
        blocks = np.diagonal(self.class_blocks, axis1=1, axis2=2)
        diag[:-1] = np.repeat(blocks, np.diff(s.ends), axis=0).ravel()
        out = diag.take(s.fold[0]) + diag.take(s.fold[1])
        if self.rest is not None:
            out += self.rest.diagonal()
        return out


def _local_solve(block: BlockSystem, g: np.ndarray, sel: slice):
    """The local systems of the elements ``sel``, solved once per distinct
    pair of element class and element load (``distinct_rows``; without a
    body force every element's load is the one broadcast zero, and the
    pairs are the classes). Per pair: its element matrix ``flat`` (P,
    n_loc^2) from ``LocalStacks.class_matrices``, ``rhs`` = [K_LG | F_L]
    (P, n_L, n_G + 1) and ``sol`` = K_LL^-1 rhs, with ``g`` the local trace
    slots; and ``pair`` (E,), the pair of each element. The one local solve
    of condensation and back substitution."""
    spaces = block.spaces
    dm = spaces.dofmap
    n_int = dm.n_loc_int
    n_d = spaces.ref.n_int_d
    n_c = spaces.ref.n_int_c
    n_L = n_int + n_d
    ii = dm.interior_slots
    n_G = g.size
    # flat positions in an element matrix of its (interior, trace) block
    lg = (np.arange(dm.n_loc)[ii, None] * dm.n_loc + g).ravel()

    stacks = block.stacks
    cls = stacks.element_class[sel]
    floc = block.floc[sel]
    # rows that share their memory (the broadcast zero) are one load
    first, pair = distinct_rows(cls, *(() if floc.strides[0] == 0 else (floc,)))
    det = block.mesh.det_j[sel][first]

    aloc = stacks.class_matrices(block.params, spaces.k, cls[first], cls.size)
    m = aloc.shape[0]
    k_ll = np.zeros((m, n_L, n_L))
    k_ll[:, :n_int, :n_int] = aloc[:, ii, ii]
    for r in range(n_d):
        k_ll[:, n_int + r, n_c + r] = -1.0
        k_ll[:, n_c + r, n_int + r] = -1.0
        k_ll[:, n_int + r, n_int + r] = -block.params.inv_lambda * det
    rhs = np.zeros((m, n_L, n_G + 1))  # [K_LG | F_L]
    flat = aloc.reshape(m, -1)
    rhs[:, :n_int, :n_G] = flat[:, lg].reshape(m, n_int, n_G)
    rhs[:, :n_int, n_G] = floc[first][:, ii]
    return flat, rhs, np.linalg.solve(k_ll, rhs), pair


def _lifts(a_cond: np.ndarray, pair: np.ndarray, g_loc: np.ndarray) -> np.ndarray:
    """The lifts (L, n_G) of L elements: the condensed blocks ``a_cond[pair]``
    (rows of n_G^2 entries) times the elements' trace data ``g_loc``. The
    products run in numpy's own matmul loop, not in BLAS, which rounds them
    differently: the blocks are laid out element-fastest, with a spare
    column, so that no block is contiguous, not even the only one. An
    element whose data is 0 lifts +0.0, which adds nothing to F_g, so
    ``eliminate_local`` multiplies only the others."""
    n_el, n_G = g_loc.shape
    buf = np.empty((n_G * n_G, n_el + 1))
    buf[:, :n_el] = a_cond.T.take(pair, axis=1)
    blocks = buf[:, :n_el].T.reshape(n_el, n_G, n_G)
    return (blocks @ g_loc[:, :, None])[:, :, 0]


def eliminate_local(
    block: BlockSystem, structure: CondensedStructure = None
) -> CondensedSystem:
    """Condense one row's saddle system; without ``structure`` (the traced
    benchmark, tests), its parameter-independent part is built here.

    The elements run in chunks of ``element_chunks``. Each chunk forms the
    element matrices of its distinct (class, load) pairs and solves their
    local systems (``_local_solve``, whose ``class_matrices`` checks the
    matrices), and condenses each pair once. Each of the structure's parts
    keeps the condensed block of its pairs as its class block; the rest's
    blocks are added to the rest's data. Each element's condensed block also
    lifts the essential data: the block times its trace data, which is 0 at
    a free unknown. F_g sums the element right sides first and subtracts the
    summed lifts after."""
    spaces = block.spaces
    if structure is None:
        structure = condensed_structure(spaces, block.essential, block.stacks.element_class)
    dm = spaces.dofmap
    mesh = block.mesh
    nt = mesh.num_triangles
    g = structure.g_slot_idx
    n_G = g.size
    # flat positions in an element matrix of its (trace, trace) block
    gg = (g[:, None] * dm.n_loc + g).ravel()
    ess = block.essential
    g_ess = ess.full_vector()  # 0 at a free unknown

    part = structure.part
    rest_el = np.flatnonzero(part < 0)
    class_blocks = np.empty((structure.ends.size - 1, n_G * n_G))
    rest_data = None if structure.rest is None else structure.rest.zeros()
    f_g_loc = np.empty((nt, n_G))
    lift_loc = np.zeros((nt, n_G))  # per element A_cond g
    for sel in element_chunks(nt):
        flat, rhs, sol, pair = _local_solve(block, g, sel)
        m = flat.shape[0]
        k_gl = np.swapaxes(rhs[:, :, :n_G], 1, 2)
        a_cond = flat[:, gg].reshape(m, n_G * n_G)
        del flat  # each temporary goes before the next one is made
        a_cond -= (k_gl @ sol[:, :, :n_G]).reshape(m, -1)
        f_g_loc[sel] = block.floc[sel][:, g] - (k_gl @ sol[:, :, n_G, None])[pair, :, 0]
        del rhs, sol
        g_loc = g_ess[structure.g_slots[sel]]
        lifted = np.flatnonzero(g_loc.any(axis=1))
        if lifted.size:
            lift_loc[sel][lifted] = _lifts(a_cond, pair[lifted], g_loc[lifted])
        # the part of each pair, whose elements are all of one class; every
        # pair of a part has its block, bit for bit
        pair_part = np.empty(m, np.int32)
        pair_part[pair] = part[sel]
        held = np.flatnonzero(pair_part >= 0)
        class_blocks[pair_part[held]] = a_cond[held]
        if rest_data is not None:
            lo, hi = np.searchsorted(rest_el, [sel.start, sel.stop])
            structure.rest.add(rest_data, a_cond[pair[rest_el[lo:hi] - sel.start]], slice(lo, hi))

    g_pos = ess.pos[structure.g_slots]
    n_g = structure.free_cond.size
    return CondensedSystem(
        B_g=structure.B_g,
        C_g=SparseSym(sp.diags(pressure_c_diagonal(mesh, spaces, block.params)[:nt]).tocsr()),
        F_g=free_rhs(g_pos, f_g_loc, n_g) - free_rhs(g_pos, lift_loc, n_g),
        F_pbar=structure.F_pbar,
        free_cond=structure.free_cond,
        structure=structure,
        class_blocks=class_blocks.reshape(-1, n_G, n_G),
        rest=None if rest_data is None else SparseSym(structure.rest.matrix(rest_data)),
        spaces=spaces,
        block=block,
    )


def back_substitute(
    cond: CondensedSystem, trace_sol: np.ndarray, pbar_sol: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Recover all velocity and pressure coefficients from the condensed
    solution (free trace unknowns) and the elementwise-constant pressure.
    The local solutions are solved again chunk by chunk, with the solve of
    ``eliminate_local``, so they are its bits."""
    spaces = cond.spaces
    split = spaces.split
    dm = spaces.dofmap
    nt = spaces.mesh.num_triangles
    n_int = dm.n_loc_int
    g = cond.structure.g_slot_idx
    n_G = g.size

    g_full = cond.block.essential.full_vector()[: split.n_cond]
    g_full[cond.free_cond] = trace_sol
    g_loc = g_full[cond.structure.g_slots]
    u_l = np.empty((nt, n_int + spaces.ref.n_int_d))
    for sel in element_chunks(nt):
        _, _, sol, pair = _local_solve(cond.block, g, sel)
        sol = sol[pair]
        u_l[sel] = sol[:, :, n_G] - np.einsum("tlg,tg->tl", sol[:, :, :n_G], g_loc[sel])

    vel = np.zeros(split.n_vel)
    vel[: split.n_cond] = g_full
    int_ids = dm.vel_loc[:, dm.interior_slots]
    vel[int_ids.ravel()] = u_l[:, :n_int].ravel()

    pressure = np.zeros(split.n_pressure)
    pressure[:nt] = pbar_sol
    pressure[nt:] = u_l[:, n_int:].ravel()
    return vel, pressure


def build_monolithic(block: BlockSystem):
    """Full saddle matrix over (free velocity, pressure) and its right side."""
    k = sp.bmat(
        [[block.A.csr, block.B.T], [block.B, block.C.csr]], format="csr"
    )
    rhs = np.concatenate([block.F_u, block.F_p])
    return k, rhs


def build_condensed_monolithic(cond: CondensedSystem):
    """Condensed saddle matrix over (free trace unknowns, constant pressure)."""
    k = sp.bmat(
        [[cond.A_g.csr, cond.B_g.T], [cond.B_g, cond.C_g.csr]], format="csr"
    )
    rhs = np.concatenate([cond.F_g, cond.F_pbar])
    return k, rhs
