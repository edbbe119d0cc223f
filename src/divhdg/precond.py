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
whose elements have the same element classes at the same places a class:
their blocks [D | A_ring] are equal bit for bit at every parameter. A mesh
of translated copies of two triangles has few (19 among 287 patches on the
unit square at 1/h=16 and k=2).  Every part of a colour is a stack of C
classes of p patches each, solved by one ``np.matmul`` of the gathered
(C, p, w) against the C transposed M's (C, w, m): one GEMM per class
against its M.  Per group and colour, the classes with the same count
p >= 2 of the colour's patches form a stack when their C p patches reach
``_CLASS_MIN``; a lone class of at least ``_CLASS_MIN`` is a stack of
C = 1.  A wall's class is split across two colours and falls below
``_CLASS_MIN`` in each, but joins its equal siblings: at cavity 1/h=16
colour 0 solves the four walls' classes of 7 patches as one stack of 28.
The other patches of each group are the tail, a stack of single patches
(p = 1), each against its own M.  A row plans its sweep once
(``_sweep_plan``): it takes each colour's part M's once, and lays out the
colour steps in sweep order, each with its gather indices, the rows it
writes and per part the operands of its product as views into those M's,
which a colour's forward and backward steps share, and into two buffers
that all the steps share, so an apply allocates only the stacked [r | z].
The steps gather with ``take(..., mode="clip")``, since numpy copies a
``take`` into ``out`` through a buffer under the default ``mode="raise"``;
the plan therefore checks once that every gather index lies in [0, 2n).
Pointwise Jacobi is the one alternative smoother.

The auxiliary space is one ``AuxSpace``, built from the condensed structure's
free edges alone: its free vertices (those on no essential edge, outlet
vertices included), A0's pattern and band layout, and Pi. Pi injects a
piecewise-linear field through the edge-trace projections of
``refbasis.FacetBasis``, the same ones that define the essential boundary
data: the normal trace goes to the facet-normal unknowns (Legendre moments,
then the theta solve), the tangential trace to the Legendre tangential modes.
A linear trace is a sum of the two endpoint hat profiles, so the projections
act on those two profiles once and each edge scales them by its length,
normal and tangent.  Pi is written row by row as a CSR: a row is one free
edge's unknown and holds at most four entries, one per (endpoint, component)
column, each a single product, none a sum.  Pi stores no exact zero: the
columns of an essential endpoint and the entries that vanish through a zero
normal or tangent component (axis-parallel edges) are dropped by one mask.
The modes above degree 1 get only roundoff (about 1e-17), which is kept as
computed.  A0 is the scalar linear-element discretization of
2 mu (grad ., grad .) + tau (., .) on the free vertices; the vector operator
acts on each component alone, so it is A0 kron I2.  Pi's columns are the
(free vertex, component) pairs 2 vpos + c, so the coarse solve reshapes
Pi^T r to (n, 2): both components are two right sides of A0's one factor.

Pressure block: the elementwise-constant Schur approximation

    S~ = (1/lambda) M + M (tau M + 2 mu N)^{-1} N,

with M = diag(element areas) and N the element-adjacency graph Laplacian,
built in closed form: -1 at the two elements of each interior facet, in both
orders, and on the diagonal each element's count of interior facets plus
outflow facets (a unit diagonal boost per outflow facet). Its exact inverse
is applied in closed form by the Woodbury identity (one diagonal scaling plus
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
sweep: the ``AuxSpace``, with the band layout of A0's factor; the patches
by group as free edges (each patch's unknowns and ring unknowns, and its
colour), classed from the element classes by integer keys
(``_patch_classes``), with the tables that sum each class's block from the
element blocks of its first patch, planned in batches, and the colours'
patches ordered by class (``_colour_plan``); and N with the band layout of
its pattern, every diagonal entry stored, under its RCM order. A band layout
(``linalg._BandLayout``) places each value of a pattern in the band of its
factor, so a row only writes its values there and factors. ``build_asp`` and
``build_schur`` then do one row's work: the scalar auxiliary operator and
its factor on A0's layout; each class's block, summed from the row's element
blocks ``CondensedSystem.blocks`` (the class blocks, then each element
outside the large classes as a class of one), and its M, formed once
(``_class_matrices``), and the sweep plan over them; and the Schur inner
factor, of N's values plus the row's diagonal shift, on N's layout. A patch
row reads no value of A_g and does not assemble it, on every mesh.  The
library calls them from ``bench.Structure.row``. Called without a structure
(the traced benchmark, tests), they build it first.
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
)
from .condense import CondensedStructure, CondensedSystem, TraceLayout, TracePattern
from .condense import trace_layout
from .linalg import _CLASS_MIN, SparseSym, SpdFactor, distinct_rows, rcm_order
from .linalg import _band_layout, _BandLayout
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


def _pressure_laplacian(mesh: Mesh) -> sp.csr_matrix:
    """N in closed form, as a canonical CSR with int32 indices: row i holds
    -1 at each element that shares an interior facet with element i, and at
    i the count of its interior and outflow facets, an exact integer. Every
    diagonal entry is stored, a zero one (an element with neither) too."""
    nt = mesh.num_triangles
    a, b = mesh.edge_elems[mesh.tri_edges].transpose(2, 0, 1)  # (nt, 3): each facet's elements
    interior = b >= 0
    own = np.arange(nt)[:, None]
    # each row's columns, ascending: the elements across its interior facets
    # (nt, past the end, at its other facets) and itself
    cols = np.sort(np.concatenate([np.where(interior, a + b - own, nt), own], axis=1), axis=1)
    count = np.count_nonzero(interior | (mesh.edge_tags[mesh.tri_edges] == TAG_OUTLET), axis=1)
    vals = np.where(cols == own, count[:, None].astype(float), -1.0)
    keep = cols < nt
    indptr = np.zeros(nt + 1, np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), dtype=np.int32, out=indptr[1:])
    return sp.csr_matrix((vals[keep], cols[keep].astype(np.int32), indptr), shape=(nt, nt))


def assemble_pressure_laplacian(mesh: Mesh) -> SparseSym:
    """Unit-weight graph Laplacian over element adjacency (interior facets)
    plus a unit diagonal boost per outflow facet, in closed form: N with
    each stored diagonal entry nonzero, the sum of 2x2 blocks [[1, -1], [-1,
    1]] over the interior facets and [1] over the outflow facets."""
    n_mat = _pressure_laplacian(mesh)
    n_mat.eliminate_zeros()  # the diagonal of an element with no such facet
    return SparseSym(n_mat)


@dataclass(frozen=True)
class SchurStructure:
    """The parameter-independent part of the Schur block on one mesh, shared
    by every row of a sweep: the element areas, whether the mesh has an
    outflow facet, and the values ``n_data`` of N on its pattern with every
    diagonal entry stored, with the ``layout`` of that pattern's band under
    N's RCM order. N's values are small integers, kept exactly as int8. c3 M
    + N, and N + e0 e0^T when deflating, add a diagonal to N, which widens
    no band, so a row adds it to N's values at the layout's diagonal
    positions and factors on the layout."""

    n_data: np.ndarray
    areas: np.ndarray
    has_outlet: bool
    layout: _BandLayout


def schur_structure(mesh: Mesh) -> SchurStructure:
    full = _pressure_laplacian(mesh)
    return SchurStructure(
        n_data=full.data.astype(np.int8),
        areas=mesh.areas.copy(),
        has_outlet=bool(np.any(mesh.edge_tags == TAG_OUTLET)),
        layout=_band_layout(full, rcm_order(full)),
    )


def build_schur(
    mesh: Mesh, params: ProblemParams, mode: str = "exact", structure: SchurStructure = None
) -> SchurPrecond:
    """One row's exact S~^{-1} (c1, c2, c3 above); without ``structure`` (the
    traced benchmark, tests), its parameter-independent part is built here.
    ``mode`` is only "exact": ``perfbench/traced.py`` passes it, until the
    benchmark change of ROADMAP item 7 deletes it."""
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
        data = structure.n_data.astype(float)
        data[structure.layout.diag] += shift
        inner = structure.layout.factor(data)
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


# padded-block entries per bincount batch of a row's patch blocks
# (``_class_matrices``), one class at least: 2 MB of float64
_BATCH = 1 << 18


@dataclass(frozen=True)
class _Colour:
    """One colour of the patch smoother.  ``rows`` holds the m unknowns of
    each of its patches, part by part, and ``take`` the m + w positions of
    each patch's gather from the stacked [r | z], the patch's unknowns and
    then its ring's, offset by n (``_PatchGroup``).  A part ``(p, group,
    sel)`` is C p patches of ``groups[group]``, p in turn for each of the C
    classes ``sel`` (C,): a stack of classes of p >= 2 patches each, whose
    C p reach ``_CLASS_MIN``, or with p = 1 the tail, one entry of ``sel``
    per patch.  ``step`` plans the colour's ``_Step`` of a row's sweep over the
    parts' M's."""

    rows: np.ndarray
    take: np.ndarray
    parts: list

    def step(self, mats: list, first: bool, gathered: np.ndarray, out: np.ndarray) -> "_Step":
        """The colour's ``_Step`` against ``mats``, per part its C M's (C, m,
        m + w), its gather into ``gathered`` and its new z_p into ``out``,
        buffers at least as long as ``take`` and ``rows``.  The ``first``
        colour of a sweep sees z = 0 and gathers only r_p, against D^-1,
        the first m columns of each M."""
        idx = self.rows if first else self.take
        v, y = gathered[: idx.size], out[: self.rows.size]
        products = []
        lo = vlo = 0
        for (p, _, _), mat in zip(self.parts, mats):
            c, m, mw = mat.shape
            w = m if first else mw
            x = v[vlo : vlo + c * p * w].reshape(c, p, w)
            o = y[lo : lo + c * p * m].reshape(c, p, m)
            products.append((x, mat[:, :, :w].transpose(0, 2, 1), o))
            lo += c * p * m
            vlo += c * p * w
        return _Step(take=idx, rows=self.rows, gathered=v, out=y, products=products)


@dataclass(frozen=True)
class _Step:
    """One colour step of a row's sweep: exact block solves z_p = M [r_p |
    z_ring] on every patch of the colour at once.  ``run`` gathers ``take``
    from the stacked [r | z] into ``gathered``, forms each part's product
    ``(x, M^T, y)`` into ``out`` with ``np.matmul``, x (C, p, w) against the
    C transposed M's (C, w, m) into y (C, p, m), one GEMM per class (p = 1
    in the tail), and writes ``out`` to the ``rows`` of z.  The operands are
    views fixed when the plan is built (``_sweep_plan``), so a step
    allocates nothing.  Patches of one colour share no unknown and no A_g
    coupling, so no ring holds another patch's unknowns, and this equals
    visiting them one by one."""

    take: np.ndarray
    rows: np.ndarray
    gathered: np.ndarray
    out: np.ndarray
    products: list

    def run(self, rz: np.ndarray, z: np.ndarray) -> None:
        """The step on ``rz``, whose second half is ``z``.  ``mode="clip"``:
        numpy buffers a ``take`` into ``out`` under the default
        ``mode="raise"``; ``_sweep_plan`` checked every index instead."""
        rz.take(self.take, out=self.gathered, mode="clip")
        for x, mt, y in self.products:
            np.matmul(x, mt, out=y)
        z[self.rows] = self.out


def _sweep_plan(colours: list, mats: list, n: int) -> list:
    """The ``_Step``s of one sweep of the structure's ``colours`` on n free
    unknowns, with ``mats`` the row's M's per group (``_class_matrices``),
    in sweep order: forward over the colours, the first reading only r_p,
    then back without the last colour, whose residual is already zero after
    the forward pass.  Each part's M's are taken once, into an array of
    their own, and a colour's forward and backward steps share them.  The
    steps share one gather buffer as long as the largest ``take`` and one
    output buffer as long as the largest ``rows``.  Raises ValueError unless
    every gather index lies in [0, 2n): a step gathers with ``mode="clip"``,
    which would read a wrong index silently."""
    colour_mats = [[mats[g].take(sel, axis=0) for _, g, sel in c.parts] for c in colours]
    gathered = np.empty(max((c.take.size for c in colours), default=0))
    out = np.empty(max((c.rows.size for c in colours), default=0))
    forward = range(len(colours))
    order = [*forward, *forward[-2::-1]]
    steps = [colours[i].step(colour_mats[i], j == 0, gathered, out) for j, i in enumerate(order)]
    for s in steps:
        if s.take.size and (s.take.min() < 0 or s.take.max() >= 2 * n):
            raise ValueError(f"patch gather index outside [0, {2 * n})")
    return steps


@dataclass(frozen=True)
class _PatchGroup:
    """The patches of the patch smoother with ``d`` free edges (spokes) and
    ``e`` ring edges (the free edges, not spokes, that share an element with
    a spoke).  ``take`` (P, m + w), m = d (2k+1) and w = e (2k+1), holds each
    patch's unknowns, each spoke's in turn, then its ring's in ascending
    order, as positions in the stacked [r | z] (the ring's offset by n).
    The patches of colour c are ``ends[c]:ends[c + 1]``, in natural vertex
    order.

    ``cls`` (P,) is each patch's class (``_patch_classes``), numbered by
    ``first`` (C,), its first patch; the patches of one class have equal
    blocks [D | A_ring] at every parameter.  A row sums each class's block
    from its first patch's elements (``_class_matrices``), class by class:
    per element, a term, ``term_block`` (N,) the row of its block in
    ``CondensedSystem.blocks``, and per trace unknown of it ``term_row``
    (N, n_G) and ``term_col`` the offset of its row and its column in its
    batch's blocks padded to (C_b, m + 1, m + w + 1), a place in the padding
    where the unknown is no spoke's or none of the patch's.  ``batches``
    holds per batch its classes and its terms, as two slices: whole classes
    of at most ``_BATCH`` padded entries together, or one class."""

    take: np.ndarray
    d: int
    e: int
    ends: np.ndarray
    cls: np.ndarray
    first: np.ndarray
    term_block: np.ndarray
    term_row: np.ndarray
    term_col: np.ndarray
    batches: list

    @property
    def m(self) -> int:
        """The unknowns of each patch, d (2k+1)."""
        return self.take.shape[1] // (self.d + self.e) * self.d


def _patch_classes(
    spaces: Spaces,
    condensed: CondensedStructure,
    tri_rank: np.ndarray,
    own: np.ndarray,
    rim: np.ndarray,
) -> tuple:
    """The classes of the P vertex patches with spokes ``own`` (P, d) and
    ring ``rim`` (P, e), free-edge ranks, and the tables from which a row
    sums each class's block: the ``_PatchGroup`` fields from ``cls`` on.
    ``tri_rank`` (nt, 3) holds each element's free-edge ranks, -1 at an
    essential edge.

    A patch's elements are those on its spokes. Each of them holds only
    edges of the patch (spokes and ring) and essential edges, and its
    condensed block follows from its element class. An entry of the block
    [D | A_ring] sums the terms of the one or two elements that hold both of
    its edges (only a spoke lies in two), and two floats add alike in either
    order. So the patch's block follows from the set of its elements'
    (element class, patch edge of each local edge) rows. Its key is that
    set, each row one integer, sorted, and ``distinct_rows`` of the keys
    gives the classes: equal keys give equal blocks at every parameter,
    without reading a value."""
    mesh, k = spaces.mesh, spaces.k
    p, d = own.shape
    e = rim.shape[1]
    m, mw = d * (2 * k + 1), (d + e) * (2 * k + 1)
    edges = np.concatenate([own, rim], axis=1).astype(tri_rank.dtype)  # spokes first
    els = np.sort(mesh.edge_elems[condensed.a_g.free_edges[own]].reshape(p, 2 * d), axis=1)
    els[:, 1:][els[:, 1:] == els[:, :-1]] = -1  # once each: an element holds two spokes at most
    at = np.maximum(els, 0)
    # (P, 2d, 3): the patch edge of each local edge, the one it equals, or -1
    hit = (tri_rank[at][:, :, :, None] == edges[:, None, None, :]).view(np.uint8)
    pe = (hit @ np.arange(1, d + e + 1, dtype=np.min_scalar_type(d + e))).astype(np.intp) - 1
    key = condensed.element_class[at].astype(np.int64)
    for loc in range(3):
        key = key * (d + e + 1) + pe[:, :, loc] + 1
    key[els < 0] = -1
    first, cls = distinct_rows(np.sort(key, axis=1))

    # the terms: each element on a class's first patch, class by class, with
    # the place of each of its trace unknowns in the block's columns (the
    # last row of ``place`` is the padding, for an edge off the patch)
    els = els[first]
    held = els >= 0
    cols = _block_columns(k, d, e)
    place = np.full((d + e + 1, 2 * k + 1), mw, np.intp)
    place[cols.edge, np.where(cols.tangential, k + 1, 0) + cols.mode] = np.arange(mw)
    lay = trace_layout(k)
    col = place[pe[first][held][:, lay.edge], np.where(lay.tangential, k + 1, 0) + lay.mode]
    cix = np.nonzero(held)[0]  # the class of each term, ascending

    # the batches: runs of ``per`` classes, and each term's row offset in
    # its batch's padded blocks (the spokes' unknowns are the rows)
    per = max(1, _BATCH // ((m + 1) * (mw + 1)))
    row = ((cix % per)[:, None] * (m + 1) + np.minimum(col, m)) * (mw + 1)
    ends = np.r_[0 : first.size : per, first.size]
    c, t = ends.tolist(), np.searchsorted(cix, ends).tolist()
    batches = [(slice(*c[i : i + 2]), slice(*t[i : i + 2])) for i in range(len(c) - 1)]
    return cls, first, condensed.block_row[els[held]], row, col, batches


def _colour_plan(groups: list) -> list:
    """The ``_Colour``s of the structure. Per group and colour, the classes
    with the same count p >= 2 of the colour's patches become one stack
    when their patches reach ``_CLASS_MIN`` together, their patches class by
    class, the stacks in the order of their first classes and the classes
    of a stack in their order (that of their first patches). The other
    patches follow as the tail in their given order: a class of one patch
    has an M of its own."""
    n_colours = groups[0].ends.size - 1 if groups else 0
    rows, take, parts = ([[] for _ in range(n_colours)] for _ in range(3))
    for i, g in enumerate(groups):
        for c, (lo, hi) in enumerate(zip(g.ends[:-1], g.ends[1:])):
            cc = g.cls[lo:hi]
            size = np.bincount(cc)
            # per class, the patches of all the classes of its count
            together = np.bincount(size, weights=size)[size]
            big = np.flatnonzero((size > 1) & (together >= _CLASS_MIN))
            stacks = {}  # by count, in the order of their first classes
            for j in big.tolist():
                stacks.setdefault(int(size[j]), []).append(j)
            parts[c] += [(p, i, np.array(sel)) for p, sel in stacks.items()]
            # each class's place in the stacks, past them for the tail's
            rank = np.full(size.size, big.size)
            rank[[j for sel in stacks.values() for j in sel]] = np.arange(big.size)
            order = np.argsort(rank[cc], kind="stable")
            tail = order[int(size[big].sum()) :]
            if tail.size:
                parts[c].append((1, i, cc[tail]))
            t = g.take[lo:hi][order]
            rows[c].append(t[:, : g.m].ravel())
            take[c].append(t.ravel())
    return [
        _Colour(rows=np.concatenate(r), take=np.concatenate(t), parts=p)
        for r, t, p in zip(rows, take, parts)
    ]


def _class_matrices(cond: CondensedSystem, g: _PatchGroup) -> np.ndarray:
    """The sweep matrices M = [D^-1 | -D^-1 A_ring] (C, m, m + w) of the
    classes of the group ``g`` in the row ``cond``, each formed once from its
    block [D | A_ring]. The block sums the element blocks
    (``CondensedSystem.blocks``) of its first patch's elements into zeros,
    in one ``np.bincount`` over the padded blocks per batch of classes.
    Every entry sums at most two element terms, as A_g's does, and two
    floats add alike in either order, so it is the entry of A_g bit for
    bit."""
    m, mw = g.m, g.take.shape[1]
    blocks = np.empty((g.first.size, m, mw))
    for cls, terms in g.batches:
        padded = np.bincount(
            (g.term_row[terms, :, None] + g.term_col[terms, None, :]).ravel(),
            weights=cond.blocks[g.term_block[terms]].ravel(),
            minlength=(cls.stop - cls.start) * (m + 1) * (mw + 1),
        )
        blocks[cls] = padded.reshape(-1, m + 1, mw + 1)[:, :m, :mw]
    dinv = np.linalg.inv(blocks[:, :, :m])
    return np.concatenate([dinv, -(dinv @ blocks[:, :, m:])], axis=2)


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
    sweep: list = field(repr=False, default=None)  # of _Step
    jacobi_diag: np.ndarray = field(repr=False, default=None)

    def smooth(self, r: np.ndarray) -> np.ndarray:
        """R r: pointwise Jacobi, or one multicolour SGS sweep, the row's
        planned ``sweep`` of 2C - 1 colour steps (``_sweep_plan``) on the
        stacked [r | z], a new array per call.  The steps gather and solve
        into buffers of the plan, so one ``AspPrecond`` runs one sweep at a
        time."""
        if self.smoother == "jacobi":
            return r / self.jacobi_diag
        rz = np.concatenate([r, np.zeros_like(r)])
        z = rz[r.size :]
        for step in self.sweep:
            step.run(rz, z)
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
    A0, which ``pattern`` scatters and ``operator`` sums per row; ``layout``,
    the band layout of A0's pattern under its RCM order, on which a row
    factors A0; and Pi (n_free_cond, 2 n_free_vertices) as ``transfer`` and
    Pi^T, as a CSR of its own, as ``restrict``. ``transfer.T`` (a CSC view)
    gives the same Pi^T r bit for bit, but the CSC product scatters into the
    output and runs about 1.5x as long per coarse step: 8.3 against 11.1 us
    at cavity k=2 1/h=16 and 97 against 150 us at 1/h=64 (one BLAS thread,
    2-vCPU VM), about 9 ms over the 172 iterations of the 1/h=64 Jacobi row,
    for 1.8 MB kept. With no free vertex each is empty and A0's factor
    0x0."""

    vpos: np.ndarray
    stiff: np.ndarray
    mass: np.ndarray
    pattern: ScatterPattern
    layout: _BandLayout
    transfer: sp.csr_matrix
    restrict: sp.csr_matrix

    def operator(self, params: ProblemParams) -> SparseSym:
        """The scalar 2 mu * stiffness + tau * mass over the free vertices."""
        return SparseSym(self.pattern.fill(2.0 * params.mu * self.stiff + params.tau * self.mass))


def aux_space(spaces: Spaces, a_g: TracePattern) -> AuxSpace:
    """The ``AuxSpace`` of the condensed velocity block whose pattern is
    ``a_g``: a mesh edge not in its ``free_edges`` is essential, and so
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

    # Pi row by row: its rows are the free edges' unknowns in the order of
    # ``free_edge_unknowns`` (the k+1 normal modes, edge by edge, then the k
    # tangential modes), and a row holds one product per (endpoint,
    # component) column 2 vpos + c of its edge, none of them a sum. Each
    # edge takes its endpoints in ascending vpos, so its four columns ascend.
    # An essential endpoint's hat is set to 0, so that its columns and the
    # products with a zero normal or tangent component (axis-parallel edges)
    # are the exact zeros that one mask drops. The products are formed with
    # the edges innermost, then laid out by row
    vp = vpos[mesh.edges[fe]].T  # (2, E)
    swap = vp[1] < vp[0]
    ends = np.stack([np.minimum(vp[0], vp[1]), np.maximum(vp[0], vp[1])])
    t = mesh.tangents[fe].T
    nrm = np.stack([t[1], -t[0]])
    vals = np.empty((fe.size * (2 * k + 1), 4))
    at = 0
    for c, hat in ((mesh.edge_lengths[fe] * nrm, hat_n), (t, hat_t)):
        h = np.where(swap, hat.T[:, ::-1, None], hat.T[:, :, None])  # (mode, endpoint, E)
        h[:, ends < 0] = 0.0
        rows = fe.size * hat.shape[1]
        out = vals[at : at + rows].reshape(fe.size, hat.shape[1], 2, 2)
        out[...] = (c * h[:, :, None, :]).transpose(3, 0, 1, 2)
        at += rows
    nonzero = vals != 0.0
    indptr = np.zeros(vals.shape[0] + 1, np.int32)
    # per row; count_nonzero(axis=1) is several times slower on rows of 4
    np.cumsum(nonzero.view(np.uint8) @ np.ones(4, np.uint8), dtype=np.int32, out=indptr[1:])
    kept = np.flatnonzero(nonzero)  # then take: a boolean index is several times slower
    cols = (2 * ends.T[:, :, None] + np.arange(2, dtype=np.int32)).reshape(fe.size, 4)
    cols = np.concatenate([np.repeat(cols, k + 1, axis=0), np.repeat(cols, k, axis=0)])
    transfer = sp.csr_matrix(
        (vals.reshape(-1).take(kept), cols.reshape(-1).take(kept), indptr),
        shape=(a_g.shape[0], 2 * n_free),
    )
    return AuxSpace(
        vpos=vpos,
        stiff=stiff,
        mass=mloc[None, :, :] * det[:, None, None],
        pattern=pattern,
        layout=_band_layout(pattern, rcm_order(position_map(pattern))),
        transfer=transfer,
        restrict=transfer.T.tocsr(),
    )


@dataclass(frozen=True)
class AspStructure:
    """The parameter-independent part of the ASP preconditioner on one (mesh,
    k, essential data), shared by every row of a sweep: the auxiliary space
    with its transfer, and for the patch smoother the patches, classed, as
    ``_PatchGroup``s, and the ``colours`` with their parts, over whose M's a
    row plans its sweep.  It keeps no position in A_g's data: a row sums
    each class's block from the element blocks, in the batches each group
    plans.  A Jacobi structure holds no patches."""

    smoother: str
    aux: AuxSpace
    groups: list = field(repr=False, default=None)  # of _PatchGroup
    colours: list = field(repr=False, default=None)  # of _Colour


def asp_structure(
    spaces: Spaces, condensed: CondensedStructure, smoother: str = "patch-sgs"
) -> AspStructure:
    """The parameter-independent part of ``build_asp`` on the condensed
    structure ``condensed``, whose free edges, free-edge graph and element
    classes it reads. The vertex patches (the free unknowns on
    the free edges at a vertex) are coloured greedily in natural vertex
    order. Two patches conflict if they share a free edge or A_g couples
    their unknowns: a nonzero of P G P^T, with P the patch-to-edge incidence
    and G the free-edge graph, formed in bool, since each free edge's
    unknowns lie in the patches of the edge and A_g couples two edges'
    unknowns where G holds the pair. The pattern of P G holds each patch's
    spokes and ring. The patches of each group are classed by their
    elements (``_patch_classes``), and each colour's parts follow
    (``_colour_plan``)."""
    if smoother not in SMOOTHERS:
        raise ValueError(f"unknown smoother '{smoother}'")
    a_g = condensed.a_g
    groups = colours = None
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
        erank = np.full(spaces.mesh.num_edges, -1, np.int32)
        erank[fe] = np.arange(fe.size, dtype=np.int32)
        tri_rank = erank[spaces.mesh.tri_edges]
        groups = []
        for d, e in np.unique(np.stack([sizes, widths], axis=1), axis=0):
            ps = np.flatnonzero((sizes == d) & (widths == e))
            ps = ps[np.argsort(colour[ps], kind="stable")]
            own = spokes[offsets[ps, None] + np.arange(d)]
            rim = ring.indices[ring.indptr[ps, None] + np.arange(e)]
            # the ring's unknowns in ascending order, A_g's column order
            rim_unknowns = np.sort(edofs[rim].reshape(ps.size, -1), axis=1) + edofs.size
            take = np.concatenate([edofs[own].reshape(ps.size, -1), rim_unknowns], axis=1)
            ends = np.searchsorted(colour[ps], np.arange(colour.max() + 2))
            classes = _patch_classes(spaces, condensed, tri_rank, own, rim)
            groups.append(_PatchGroup(take, int(d), int(e), ends, *classes))
        colours = _colour_plan(groups)
    return AspStructure(smoother, aux_space(spaces, a_g), groups, colours)


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
    auxiliary operator and, for the patch smoother, sums each patch class's
    block from the element blocks ``CondensedSystem.blocks`` and forms its
    sweep matrix once (``_class_matrices``), over which ``_sweep_plan`` lays
    out the row's sweep on the structure's colours, the row's one sweep
    object.  It does not assemble A_g.  Jacobi reads only A_g's diagonal
    (``CondensedSystem.a_g_diagonal``).
    """
    if structure is None:
        smoother = SMOOTHERS[0] if smoother is None else smoother
        structure = asp_structure(cond.spaces, cond.structure, smoother)
    elif smoother not in (None, structure.smoother):
        raise ValueError(f"smoother {smoother!r}, structure built for {structure.smoother!r}")
    aux = structure.aux
    pre = AspPrecond(
        smoother=structure.smoother,
        transfer=aux.transfer,
        restrict=aux.restrict,
        aux_factor=aux.layout.factor(aux.operator(cond.block.params).csr.data),
    )
    if pre.smoother == "jacobi":
        pre.jacobi_diag = cond.a_g_diagonal()
        if np.any(pre.jacobi_diag <= 0.0):
            raise ValueError("condensed diagonal not positive")
        return pre
    mats = [_class_matrices(cond, g) for g in structure.groups]
    pre.sweep = _sweep_plan(structure.colours, mats, cond.n_free)
    return pre
