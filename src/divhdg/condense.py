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
(``TracePattern``) and B_g with its right side. A_g's pattern follows from the
graph of the free edges, since each edge's 2k+1 trace unknowns are all free or
all essential: ``trace_pattern`` expands each free edge to its unknowns, and
keeps the graph, and per element only where its rows start and the
``edge_ranks`` of its edges, read from the graph as the vertex patches' of
``precond.asp_structure`` are. ``eliminate_local`` then does one row's work.
Condensation is element-local, so it streams the elements in chunks
(``assembly.element_chunks``). Elements whose local problems are equal bit
for bit share an element class (``LocalStacks.element_class``), and a chunk
does the local work once per distinct pair of class and element load: it
forms those element matrices (``LocalStacks.class_matrices``, which also
checks their coercivity), solves their local systems and condenses them.
A mesh of translated copies of two triangles, such as ``unit_square`` at any
1/h, has two pairs per chunk without a body force, and a mesh with no two
elements alike one pair per element. Per element the chunk then gathers the
condensed blocks, computes where they go (``TracePattern.slots``) and adds
them to A_g's data. The essential data g leaves the trace unknowns element by
element: F_g is the sum of the element right sides minus the sum of each
condensed block times its element's g, which is 0 at a free unknown, so only
the elements with nonzero g are multiplied. Only the trace right sides and
the lifts, (nt, n_G) each, span the whole mesh, and only until F_g is summed;
no whole-mesh element stack is formed, and the condensed system keeps no
local solutions. ``back_substitute`` solves the local systems again, chunk by
chunk with the same ``_local_solve``. Every result is bit-identical to one
chunk, and to solving every element's local system on its own.
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
from .linalg import SparseSym, distinct_rows
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
    start: np.ndarray, rank: np.ndarray, layout: TraceLayout, nnz: int
) -> np.ndarray:
    """(B, n, n) positions in A_g's data of the blocks of A_g on B lists of
    edges' trace unknowns, rows and columns in ``layout``'s order, and nnz
    for an entry outside A_g's pattern. ``start`` (B, n) is where the row of
    each unknown starts in the data (nnz for an essential one), and ``rank``
    (B, n_e, n_e) int8 the lists' ``edge_ranks``.

    A row of a free edge with d neighbour edges holds their unknowns at the
    ``free_edge_unknowns`` of their ranks among the d, here per place in
    ``layout``. An edge's normal rows are consecutive, so the step between
    the starts of its first two is that row's length, d (2k+1); 0 for an
    essential edge, whose rows start at nnz."""
    edge, width, mode, tangential, first = layout
    k = int(width[0]) - 1
    dt = np.int32 if 8 * nnz < 2**31 else np.int64
    step = start[:, first + 1] - start[:, first]
    # a column outside the pattern lands at nnz or beyond, as a dropped row does
    rank = np.where(rank < 0, dt(nnz), rank.astype(dt))
    col = rank[:, :, edge] * width + mode  # (B, n_e, n): its place in a row of edge r
    col[:, :, tangential] += (step // (2 * k + 1) * (k + 1))[:, :, None]
    out = np.take(col, edge, axis=1)
    out += start[:, :, None]
    return np.minimum(out, nnz, out=out)


def edge_ranks(graph: sp.csr_matrix, edges: np.ndarray) -> np.ndarray:
    """(B, d, d) int8: for B lists of d free-edge ranks ``edges`` (-1 for an
    essential edge), the rank of edge c among the neighbour edges of edge r
    in the free-edge ``graph``, -1 when either is essential or the two share
    no element: the pair's position in the graph, from its ``position_map``,
    less where row r starts."""
    r, c = np.broadcast_arrays(edges[:, :, None], edges[:, None, :])
    free = (r >= 0) & (c >= 0)
    if not free.any():  # every edge essential, as on a mesh with no free edge
        return np.full(r.shape, -1, np.int8)
    pos = position_map(graph)[np.maximum(r, 0).ravel(), np.maximum(c, 0).ravel()]
    pos = np.asarray(pos).reshape(r.shape) - 1  # -1 outside the graph
    return np.where(free & (pos >= 0), pos - graph.indptr[r], -1).astype(np.int8)


def trace_pattern(spaces: Spaces, essential: EssentialData, g_pos: np.ndarray) -> TracePattern:
    """A_g's pattern from the free-edge graph, for the element trace unknowns
    at the free positions ``g_pos`` (nt, n_G). The graph is the pattern of
    one ``scatter_pattern`` of the (nt, 3) free-edge ranks; each free edge
    then expands to its 2k+1 unknowns at the free positions that
    ``free_edge_unknowns`` gives them (``free_edge_rank`` raises ValueError
    unless each edge's unknowns are all free or all essential)."""
    mesh, k = spaces.mesh, spaces.k
    n = 2 * k + 1
    erank = free_edge_rank(spaces.split, essential)
    free_edges = np.flatnonzero(erank >= 0)
    n_fe = free_edges.size
    tri_rank = erank[mesh.tri_edges]
    graph = position_map(scatter_pattern(tri_rank, n_fe)).astype(bool)
    deg = np.diff(graph.indptr)
    nnz = n * n * graph.nnz  # each neighbour pair: 2k+1 rows by 2k+1 columns
    idx = np.int32 if nnz < 2**31 else np.int64

    # each free edge's columns, one row padded with -1 to the largest degree:
    # its d neighbour edges' unknowns, laid out by their ranks among the d
    row = np.repeat(np.arange(n_fe), deg)  # the edge of each neighbour
    rank = np.arange(graph.nnz) - graph.indptr[row]
    cols = np.full((n_fe, n * deg.max(initial=0)), -1, idx)
    nb = free_edge_unknowns(graph.indices, n_fe, k)  # (nnz, 2k+1): each neighbour's unknowns
    cols[row[:, None], free_edge_unknowns(rank, deg[row], k)] = nb

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
    k, essential data), shared by every row of a sweep."""

    g_slot_idx: np.ndarray  # local slots of the trace unknowns
    g_slots: np.ndarray  # (nt, n_G) their global ids
    free_cond: np.ndarray  # free condensed unknown ids (global velocity ids)
    a_g: TracePattern  # A_g's pattern and where each element block goes in it
    B_g: sp.csr_matrix  # constant-pressure coupling, free columns
    F_pbar: np.ndarray


def condensed_structure(spaces: Spaces, essential: EssentialData) -> CondensedStructure:
    dm = spaces.dofmap
    nt = spaces.mesh.num_triangles
    g_slot_idx = np.r_[0 : dm.n_loc_facet, dm.n_loc_facet + dm.n_loc_int : dm.n_loc]
    g_slots = dm.vel_loc[:, g_slot_idx]
    # the free condensed unknowns hold the first n_g free positions
    free_cond = np.flatnonzero(essential.free_mask[: spaces.split.n_cond])
    n_g = free_cond.size
    b_full = assemble_pressure_ops(spaces.mesh, spaces)
    return CondensedStructure(
        g_slot_idx=g_slot_idx,
        g_slots=g_slots,
        free_cond=free_cond,
        a_g=trace_pattern(spaces, essential, essential.pos[g_slots]),
        B_g=b_full[:, essential.free_ids][:nt, :n_g],
        F_pbar=-(b_full @ essential.full_vector())[:nt],
    )


@dataclass
class CondensedSystem:
    """Trace-unknown saddle system; its saddle system ``block`` and its
    ``structure`` recover the interiors."""

    A_g: SparseSym  # free condensed velocity block
    B_g: sp.csr_matrix  # constant-pressure coupling, free columns
    C_g: SparseSym  # constant-pressure mass, -(1/lambda) diag(areas)
    F_g: np.ndarray
    F_pbar: np.ndarray
    free_cond: np.ndarray  # free condensed unknown ids (global velocity ids)
    structure: CondensedStructure = field(repr=False)
    spaces: Spaces = field(repr=False, default=None)
    block: BlockSystem = field(repr=False, default=None)

    @property
    def n_free(self) -> int:
        return self.A_g.n

    @property
    def n_pbar(self) -> int:
        return self.C_g.n


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
    matrices), and condenses each pair once. Per element it then gathers
    the condensed blocks, adds them to A_g's data and lifts the essential
    data through them: each element's condensed block times its trace data,
    which is 0 at a free unknown. F_g sums the element right sides first and
    subtracts the summed lifts after."""
    spaces = block.spaces
    if structure is None:
        structure = condensed_structure(spaces, block.essential)
    dm = spaces.dofmap
    mesh = block.mesh
    nt = mesh.num_triangles
    g = structure.g_slot_idx
    n_G = g.size
    # flat positions in an element matrix of its (trace, trace) block
    gg = (g[:, None] * dm.n_loc + g).ravel()
    ess = block.essential
    g_ess = ess.full_vector()  # 0 at a free unknown

    f_g_loc = np.empty((nt, n_G))
    lift_loc = np.zeros((nt, n_G))  # per element A_cond g
    a_data = structure.a_g.zeros()
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
        structure.a_g.add(a_data, a_cond[pair], sel)

    g_pos = ess.pos[structure.g_slots]
    n_g = structure.free_cond.size
    return CondensedSystem(
        A_g=SparseSym(structure.a_g.matrix(a_data)),
        B_g=structure.B_g,
        C_g=SparseSym(sp.diags(pressure_c_diagonal(mesh, spaces, block.params)[:nt]).tocsr()),
        F_g=free_rhs(g_pos, f_g_loc, n_g) - free_rhs(g_pos, lift_loc, n_g),
        F_pbar=structure.F_pbar,
        free_cond=structure.free_cond,
        structure=structure,
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
