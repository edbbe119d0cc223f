"""Batched assembly of the parameter-dependent saddle-point system.

Velocity form (per element K, with D = symmetric gradient, jumps measured
against the tangential trace unknowns, P the L2 projection onto the
degree-(k-1) tangential facet space, h_F the facet length):

    a(u, v) = tau (u, v)_K + 2 mu [ (D u, D v)_K
              - <D(u) n, tang(v - vhat)>_dK - <D(v) n, tang(u - uhat)>_dK
              + (alpha k^2 / h_F) <P tang(u - uhat), P tang(v - vhat)>_dK ]
    b(p, v) = -(p, div v)_K,      c(p, q) = -(1/lambda) (p, q)_K

The contravariant velocity map makes b exactly integer-structured: the
constant-pressure row couples only to the lowest-order flux unknowns (+-1
entries) and the mean-zero pressure rows only to the matching divergence
carriers (-identity). The assembled element blocks split into

    A_loc = tau * MASS + 2 mu * (VISC + alpha k^2 * PEN)

with parameter-independent MASS, VISC and PEN. Set-up data is split by
lifetime. What depends only on the mesh, the degree and the essential data is
built once and lives for a whole parameter sweep: ``LocalStacks`` keeps the
three forms as geometry coefficients, 129 columns per element class (the
elements whose geometric inputs, J, det J, their edges' tangents, lengths
and orientation flips, and orientation signs, are equal bit for bit, so
that their coefficients are; ``unit_square`` and ``step_domain`` have two
at any 1/h), formed only for each class's first element, and
``CsrPattern`` the CSR pattern of an assembled matrix. Where a pattern puts
each element entry is its ``slots``: ``ScatterPattern``, the generic one,
keeps them as a table, and the condensed block's pattern
(``condense.TracePattern``) computes them per chunk from a few numbers per
element. What depends on (mu, tau, 1/lambda) is built per row and lives only
while the row runs: ``LocalStacks.class_matrices`` forms the element
matrices of the distinct classes of a chunk of elements (``element_chunks``),
and ``CsrPattern.add`` sums per-element matrices into a matrix's data with
``np.add.at``.
Essential trace data is eliminated by position: ``scatter_stack`` drops the
rows and columns at -1 in ``EssentialData.pos``, and ``free_rhs`` the entries
of the element right sides there. The eliminated columns move to the
right-hand side as a product with the essential data g, which is 0 at a free
unknown: static condensation subtracts each element's condensed block times
its g, and ``BlockSystem.F_u`` one scatter of the whole stack over the free
rows and every column times g. The solver path never forms a whole-mesh
element stack: static condensation streams the chunks. The whole-mesh stack,
the reduced velocity block, the pressure coupling and the compressibility
block are built only on first access, for verification.

The element kernel is the tensor representation of Kirby and Logg (A compiler
for variational forms, ACM TOMS 32, 2006). Every element is an affine
triangle, so each stack is linear in a few geometry numbers per element times
reference tensors that depend only on the degree. ``build_reference_bdm``
computes those once per degree: the mass and flattened-gradient moments on the
volume rule and, per (local edge, orientation), the stress-trace, stress-mode,
trace-mode and trace-trace moments on the edge rule. The geometry coefficients
are J^T J / det J for the mass, det J O^T O for the viscous volume term
(``viscous_volume_coefficients``), and per local edge c1 = O^T vec(t n^T) |F|
and c2 = J^T t / det J (``edge_coefficients``), zero on the elements of the
other orientation. O is the 4x4 symmetric-gradient map of the Piola
transform; ``sym_grad_maps`` is the only place it is built (J^-1 comes from
``inverse_jacobians``). ``TensorStack`` multiplies the coefficients (nt, C)
by the reference tensors (C, n_loc, n_loc) as one GEMM per stack, and the
verification norm stacks are built from the same pieces. Quadrature on
physical elements remains only where the integrand is not a basis
polynomial: ``refbasis.map_piola`` for the body force and ``sym_gradients``
for error norms. ``scatter_stack`` is the one element-to-global assembly,
also of the pressure coupling, the auxiliary-space transfer and the pressure
graph Laplacian.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import NotSPD, SparseSym, distinct_rows
from .mesh import Mesh
from .refbasis import ReferenceBasis, map_piola
from .spaces import EssentialData, Spaces

_CHUNK = 512  # elements per chunk of a row's element work, at most
_GEMM_ROWS = 32  # rows of a chunk's coefficient GEMM, at least (element_chunks)


def is_real(x) -> bool:  # a Python or numpy real number, not a bool
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class ProblemParams:
    mu: float = 1.0
    tau: float = 0.0
    inv_lambda: float = 0.0  # reciprocal of the compressibility parameter; 0 = limit
    alpha: float = 8.0

    def __post_init__(self):
        for name in ("mu", "tau", "inv_lambda", "alpha"):
            value = getattr(self, name)
            if not is_real(value):
                raise ValueError(f"{name} must be a real number, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        if self.tau < 0.0 or self.inv_lambda < 0.0 or self.alpha <= 0.0:
            raise ValueError("tau, inv_lambda must be >= 0 and alpha > 0")


def element_chunks(n: int):
    """Consecutive slices covering range(n) in the fewest chunks of at most
    ``_CHUNK`` elements, equal up to one: a row's element work runs chunk by
    chunk, so no per-row temporary holds more than ``_CHUNK`` elements.

    Per-element results do not depend on the chunk as long as no chunk is
    tiny: OpenBLAS 0.3.31 on an AVX-512 Xeon computes a GEMM with a small
    output (below about 1200 entries, so fewer than 27 elements at k = 1) in
    a kernel that rounds differently. Equal chunks hold at least (``_CHUNK``
    + 1) / 2 elements, 256 at the default, so none is that small unless the
    whole mesh is. At k = 2 the element matrices of 512 elements take 1.3
    MB, within a 2 MB L2 cache.

    A chunk forms the matrices of its distinct element classes only, often
    two. Their coefficient GEMM is kept at least min(E, ``_GEMM_ROWS``) rows
    tall, E the chunk's elements, by repeating the class rows: 32 rows give
    at least 1440 output entries at k = 1, so the GEMM takes the kernel of a
    whole chunk, and a chunk of a mesh with fewer than 32 elements the
    kernel of the whole mesh. A 2-row GEMM would take the small kernel,
    which moves viscous entries of size 1e3 by up to 5e-13 at 1/h = 16."""
    count = -(-n // _CHUNK)
    for i in range(count):
        yield slice(i * n // count, (i + 1) * n // count)


@dataclass(frozen=True)
class LocalStacks:
    """The three parameter-independent forms of the velocity block, kept for
    the whole sweep as the geometry coefficients that ``TensorStack``
    multiplies, one row per element class: ``mass``, ``visc`` and ``pen``
    are (n_class, C) with C = 4, 88 and 37, and ``signs`` (n_class, n_loc)
    the orientation signs of ``spaces.dofmap``. ``element_class`` (nt,)
    int32 gives each element its class, numbered by first element. Two
    elements share a class when the geometric inputs of their coefficients
    are equal bit for bit: J, det J, the tangents, lengths and orientation
    flips of their edges, and the signs (``assemble_local_stacks``). Then
    everything that enters their local problems is: the 129 coefficients,
    the signs and det J. ``tensors`` holds per form the upper
    triangles (C, n_loc (n_loc + 1) / 2) of its reference tensors, which
    depend only on the degree. The element matrices themselves exist only
    per row and per chunk of elements: per element in ``combine``, per class
    in ``class_matrices``."""

    mass: np.ndarray  # (n_class, 4)
    visc: np.ndarray  # gradient + consistency terms
    pen: np.ndarray  # jump penalty with 1/h_F included, alpha k^2 excluded
    tensors: dict = field(repr=False)
    signs: np.ndarray = field(repr=False)
    element_class: np.ndarray = field(repr=False)

    def stack(self, form: str) -> np.ndarray:
        """The signed element matrices (nt, n_loc, n_loc) of one form: one
        GEMM."""
        upper = getattr(self, form)[self.element_class] @ self.tensors[form]
        return signed_stack(upper, self.signs[self.element_class])

    def combine(self, p: ProblemParams, k: int, sel=slice(None)) -> np.ndarray:
        """The element matrices tau * mass + 2 mu * (visc + alpha k^2 * pen)
        (E, n_loc, n_loc) of the elements ``sel``, by default all of them:
        ``BlockSystem.aloc`` forms the whole mesh's with it, for
        verification. Raises NotSPD as ``class_matrices`` does."""
        return self._checked(p, k, self._combined(p, k, sel))

    def class_matrices(
        self, p: ProblemParams, k: int, classes: np.ndarray, elements: int
    ) -> np.ndarray:
        """The element matrices (C, n_loc, n_loc) of the classes ``classes``
        of a chunk of ``elements`` elements, each form's GEMM at least
        min(``elements``, ``_GEMM_ROWS``) rows tall, the classes repeated
        (``element_chunks`` says why). Static condensation forms a row's
        element matrices with it, per chunk of ``element_chunks``, for the
        chunk's distinct classes.

        One GEMM per form, combined on the upper triangles, then signed and
        mirrored; a sign flip is exact, so this equals combining the signed
        stacks bit for bit. Raises NotSPD from ``_element_coercivity_check``;
        its text names the worst element over the whole mesh, whatever
        ``classes`` are."""
        return self._checked(p, k, self._of_classes(p, k, classes, min(elements, _GEMM_ROWS)))

    def _checked(self, p: ProblemParams, k: int, a: np.ndarray) -> np.ndarray:
        nt = self.element_class.size

        def chunks():  # every class's matrix, as static condensation forms it
            for c in element_chunks(nt):
                cls = np.unique(self.element_class[c])
                yield self._of_classes(p, k, cls, min(c.stop - c.start, _GEMM_ROWS))

        _element_coercivity_check(a, chunks)
        return a

    def _combined(self, p: ProblemParams, k: int, sel) -> np.ndarray:
        return self._of_classes(p, k, self.element_class[sel], 0)

    def _of_classes(self, p: ProblemParams, k: int, cls: np.ndarray, rows: int) -> np.ndarray:
        n = cls.size
        take = np.resize(cls, rows) if rows > n else cls

        def upper(form):
            return (getattr(self, form)[take] @ self.tensors[form])[:n]

        a = upper("pen")
        a *= p.alpha * k * k
        a += upper("visc")
        a *= 2.0 * p.mu
        m = upper("mass")
        m *= p.tau
        a += m
        return signed_stack(a, self.signs[cls])


# ---------------------------------------------------------------------------
# element kernel


def inverse_jacobians(j: np.ndarray, det: np.ndarray) -> np.ndarray:
    """J^-1 of each (2, 2) Jacobian in the batch, from its adjugate."""
    jinv = np.empty_like(j)
    jinv[:, 0, 0] = j[:, 1, 1]
    jinv[:, 0, 1] = -j[:, 0, 1]
    jinv[:, 1, 0] = -j[:, 1, 0]
    jinv[:, 1, 1] = j[:, 0, 0]
    jinv /= det[:, None, None]
    return jinv


def sym_grad_maps(j: np.ndarray, det: np.ndarray) -> np.ndarray:
    """The symmetric-gradient map O (E, 4, 4) of the Piola transform on a batch
    of elements: the symmetric gradient of J phi / det J, flattened row-major,
    is O times the flattened reference gradient of phi.

    The physical gradient is J grad(phi) J^-1 / det J. J and J^-1 / det J form
    one 4x4 map per element, symmetrized over its output index pair. This is
    the only place the map is built."""
    jinv = inverse_jacobians(j, det) / det[:, None, None]
    op = np.einsum("eab,ecd->eadbc", j, jinv)
    op = 0.5 * (op + op.transpose(0, 2, 1, 3, 4))
    return op.reshape(-1, 4, 4)


def sym_gradients(j: np.ndarray, det: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Symmetric gradients (E, n, Q, 2, 2) of the Piola-mapped basis on a batch
    of elements, from reference gradients ``grads`` (n, Q, 2, 2)."""
    out = grads.reshape(-1, 4) @ sym_grad_maps(j, det).transpose(0, 2, 1)
    return out.reshape(j.shape[:1] + grads.shape)


class TensorStack:
    """Element matrices (nt, n_loc, n_loc) of one bilinear form as a single
    GEMM: per-element geometry coefficients G (nt, C) times reference tensors
    R (C, n_loc, n_loc) that depend only on the degree. ``add`` appends
    coefficient columns with their reference blocks; ``coefficients`` and
    ``reference`` return G and the upper triangles of R, and ``build``
    multiplies them and applies the orientation signs of ``spaces.dofmap``."""

    def __init__(self, spaces: Spaces):
        self.n_u, self.signs = spaces.ref.n_u, spaces.dofmap.signs
        self.n_loc = self.signs.shape[1]
        self.coef, self.tensors = [], []

    def add(self, coef, uu=None, uh=None, hh=None, hat=None) -> None:
        """Coefficients ``coef`` (nt, ...) times reference blocks (..., rows,
        cols): ``uu`` on the velocity slots, ``uh`` and its transpose between
        the velocity slots and the trace slots ``hat``, ``hh`` on ``hat``."""
        c = coef.reshape(coef.shape[0], -1)
        r = np.zeros((c.shape[1], self.n_loc, self.n_loc))
        u = slice(0, self.n_u)  # velocity slots come first
        if uu is not None:
            r[:, u, u] = uu.reshape(-1, self.n_u, self.n_u)
        if uh is not None:
            uh = uh.reshape(c.shape[1], self.n_u, -1)
            r[:, u, hat] = uh
            r[:, hat, u] = np.swapaxes(uh, 1, 2)
        if hh is not None:
            r[:, hat, hat] = hh
        self.coef.append(c)
        self.tensors.append(r)

    def coefficients(self) -> np.ndarray:
        """The geometry coefficients (nt, C)."""
        return np.concatenate(self.coef, axis=1)

    def reference(self) -> np.ndarray:
        """The upper triangles (C, n_loc (n_loc + 1) / 2) of the reference
        tensors."""
        iu, ju = np.triu_indices(self.n_loc)
        return np.concatenate(self.tensors)[:, iu, ju]

    def build(self) -> np.ndarray:
        """The signed stack (nt, n_loc, n_loc)."""
        return signed_stack(self.coefficients() @ self.reference(), self.signs)


def signed_stack(upper: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Element matrices (nt, n, n) from their upper triangles (nt, n (n + 1)
    / 2), which fill both triangles, so every matrix is exactly symmetric,
    times the orientation signs (nt, n) on both sides."""
    n = signs.shape[1]
    iu, ju = np.triu_indices(n)
    packed = np.empty((n, n), np.int64)
    packed[iu, ju] = packed[ju, iu] = np.arange(iu.size)
    s = np.take(upper, packed.ravel(), axis=1).reshape(-1, n, n)
    signs = signs.astype(s.dtype)  # int8 signs would make each product cast
    s *= signs[:, :, None]
    s *= signs[:, None, :]
    return s


def viscous_volume_coefficients(o: np.ndarray, det: np.ndarray) -> np.ndarray:
    """det J * O^T O (E, 4, 4): (D phi_i, D phi_j)_K is its contraction with
    ``ReferenceBasis.grad_moments``."""
    return (np.swapaxes(o, 1, 2) @ o) * det[:, None, None]


def edge_coefficients(mesh: Mesh, ref: ReferenceBasis, o: np.ndarray, sel=slice(None)):
    """Yield (key, hat, c1, c2) per local edge l and orientation flip, with
    key = (l, flip) into ``ref.edge_moments`` and ``hat`` the local slots of
    the edge's trace unknowns, on the elements ``sel`` (by default all of
    them) whose symmetric-gradient maps are ``o``. With t the global edge
    tangent and n the outward normal, c1 = O^T vec(t n^T) |F| (E, 4) and c2
    = J^T t / det J (E, 2), so |F| t.D(phi)n = c1 . grad(phi_ref) and t.phi
    = c2 . phi_ref on the edge. Both are zero on the elements traversing the
    edge in the other orientation, which is how a stack picks the matching
    moments."""
    k = ref.k
    j, det = mesh.jacobians[sel], mesh.det_j[sel]
    for l in range(3):
        e = mesh.tri_edges[sel, l]
        flip = mesh.tri_edge_flip[sel, l]
        t = mesh.tangents[e]
        nout = np.column_stack([t[:, 1], -t[:, 0]])
        nrm = np.where(flip[:, None], -nout, nout)
        tn = (t[:, :, None] * nrm[:, None, :]).reshape(-1, 1, 4)
        c1 = (tn @ o)[:, 0] * mesh.edge_lengths[e][:, None]
        c2 = (t[:, None, :] @ j)[:, 0] / det[:, None]
        hat = slice(ref.n_u + l * k, ref.n_u + (l + 1) * k)
        for f in (0, 1):
            mask = (flip == bool(f))[:, None]
            yield (l, f), hat, c1 * mask, c2 * mask


class CsrPattern:
    """The CSR pattern ``indptr``, ``indices``, ``shape`` of a sum of element
    matrices, built once because it depends only on where the elements'
    entries go. A sum starts from ``zeros``, takes the element matrices with
    ``add``, in one call or per chunk of elements, and becomes a matrix with
    ``matrix``. A subclass holds the three and says where the entries go
    with ``slots``. A lookup of positions in the pattern builds its
    ``position_map`` for as long as it needs one."""

    indptr: np.ndarray
    indices: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def slots(self, sel=slice(None)) -> np.ndarray:
        """Per element of ``sel`` and entry in row-major order, its position
        in the data, and nnz for an entry that a -1 slot drops."""
        raise NotImplementedError

    def zeros(self) -> np.ndarray:
        """The data of an empty sum, one entry past nnz for the dropped
        entries."""
        return np.zeros(self.nnz + 1)

    def add(self, data: np.ndarray, stack: np.ndarray, sel=slice(None)) -> None:
        """Add the element matrices ``stack`` of the elements ``sel`` to
        ``data``, in element-major order. Summing chunk by chunk in element
        order adds every entry's terms in the order of one call."""
        np.add.at(data, self.slots(sel).ravel(), stack.ravel())

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The summed matrix of ``data``. It shares the pattern's index
        arrays and owns exactly nnz values."""
        data.resize(self.nnz, refcheck=False)  # drop the dropped entries' bin
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def fill(self, stack: np.ndarray) -> sp.csr_matrix:
        """The summed matrix of the whole ``stack``."""
        data = self.zeros()
        self.add(data, stack)
        return self.matrix(data)


@dataclass(frozen=True)
class ScatterPattern(CsrPattern):
    """Where ``scatter_stack`` puts each entry of an element stack with given
    row and column slots: ``slot`` (E, r c) holds every entry's position."""

    indptr: np.ndarray
    indices: np.ndarray
    shape: tuple
    slot: np.ndarray

    def slots(self, sel=slice(None)) -> np.ndarray:
        return self.slot[sel]


def scatter_pattern(
    rows: np.ndarray, n: int, cols: np.ndarray = None, m: int = None
) -> ScatterPattern:
    """The pattern of an (n, m) sum of element matrices at the rows
    ``rows[e]`` and the columns ``cols[e]`` (default: the rows, and m = n).
    A slot of -1 drops its row or column; that is how eliminated unknowns
    leave a matrix."""
    if cols is None:
        cols = rows
    shape = (rows.shape[0], rows.shape[1], cols.shape[1])
    keep = (rows >= 0)[:, :, None] & (cols >= 0)[:, None, :]
    r = np.broadcast_to(rows[:, :, None], shape)[keep]
    c = np.broadcast_to(cols[:, None, :], shape)[keep]
    size = (n, n if m is None else m)
    csr = sp.coo_matrix((np.ones(r.size, bool), (r, c)), shape=size).tocsr()
    slot = np.full(shape, csr.nnz, csr.indices.dtype)
    pattern = ScatterPattern(
        indptr=csr.indptr,
        # compact: COO->CSR may leave the indices in a larger buffer
        indices=csr.indices[: csr.nnz].copy(),
        shape=size,
        slot=slot.reshape(shape[0], shape[1] * shape[2]),  # filled below
    )
    del csr
    if r.size:
        slot[keep] = np.asarray(position_map(pattern)[r, c]).ravel() - 1
    return pattern


def position_map(m) -> sp.csr_matrix:
    """The pattern of the canonical CSR matrix or ``CsrPattern`` ``m``
    with data 1..nnz, sharing its index arrays: fancy-indexing it gives 1 +
    the position in the data of any entry, and 0 for an entry outside the
    pattern."""
    nnz = int(m.indptr[-1])
    return sp.csr_matrix(
        (np.arange(1, nnz + 1, dtype=m.indices.dtype), m.indices[:nnz], m.indptr),
        shape=m.shape,
    )


def scatter_stack(
    stack: np.ndarray, rows: np.ndarray, n: int, cols: np.ndarray = None, m: int = None
) -> sp.csr_matrix:
    """Sum the element matrices ``stack[e]`` (E, r, c) into an (n, m) matrix
    at the rows ``rows[e]`` and the columns ``cols[e]``, as
    ``scatter_pattern`` places them. A matrix summed again for every
    parameter row keeps its ``ScatterPattern`` instead."""
    return scatter_pattern(rows, n, cols, m).fill(stack)


def free_rhs(pos: np.ndarray, stack: np.ndarray, n: int) -> np.ndarray:
    """Sum the element vectors ``stack`` (E, s) into a vector over the n free
    unknowns at their free positions ``pos`` (E, s); a slot at -1, an
    essential unknown, is dropped."""
    kept = pos >= 0
    return np.bincount(pos[kept], weights=stack[kept], minlength=n)


def local_forms(mesh: Mesh, spaces: Spaces, sel) -> dict:
    """The ``TensorStack`` of each of the three forms, "mass", "visc" and
    "pen", with the 129 geometry coefficients of the elements ``sel``. Each
    element's coefficients are computed from its own geometry alone, so they
    do not depend on which other elements ``sel`` holds."""
    ref, dm, k = spaces.ref, spaces.dofmap, spaces.k
    j, det = mesh.jacobians[sel], mesh.det_j[sel]
    o = sym_grad_maps(j, det)
    mass, visc, pen = (TensorStack(spaces) for _ in range(3))
    mass.add((np.swapaxes(j, 1, 2) @ j) / det[:, None, None], uu=ref.mass_moments)
    visc.add(viscous_volume_coefficients(o, det), uu=ref.grad_moments)
    for key, hat, c1, c2 in edge_coefficients(mesh, ref, o, sel):
        em = ref.edge_moments[key]
        st = em.stress_trace
        # -<D(u) n, tang(v)> - <D(v) n, tang(u)> and <D(u) n, vhat>
        visc.add(c1[:, :, None] * c2[:, None, :], uu=-(st + np.swapaxes(st, 2, 3)))
        visc.add(c1, uh=em.stress_mode, hat=hat)
        # facet moments m = tang(u) projected onto the modes: <m - uhat, m - vhat>
        tm = em.trace_mode
        pen.add(c2[:, :, None] * c2[:, None, :], uu=np.einsum("aim,bjm->abij", tm, tm))
        pen.add(c2, uh=-tm, hat=hat)
    pen.add(np.ones((det.size, 1)), hh=np.eye(3 * k), hat=dm.hat_slots)
    return dict(mass=mass, visc=visc, pen=pen)


def assemble_local_stacks(mesh: Mesh, spaces: Spaces) -> LocalStacks:
    """The sweep's ``LocalStacks``. The elements are classed by
    ``distinct_rows`` of the geometric inputs of their coefficients: J, det
    J, the tangents, lengths and orientation flips of their three edges, and
    the orientation signs. Equal inputs give equal coefficients bit for bit,
    so the 129 geometry coefficients (``local_forms``) are formed only for
    each class's first element. A mesh of translated copies of a few
    triangles, such as ``unit_square`` or ``step_domain`` at any 1/h, has
    two classes."""
    dm = spaces.dofmap
    e = mesh.tri_edges
    first, element_class = distinct_rows(
        mesh.jacobians,
        mesh.det_j,
        mesh.tangents[e],
        mesh.edge_lengths[e],
        mesh.tri_edge_flip,
        dm.signs,
    )
    forms = local_forms(mesh, spaces, first)
    return LocalStacks(
        **{name: f.coefficients() for name, f in forms.items()},
        tensors={name: f.reference() for name, f in forms.items()},
        signs=dm.signs[first],
        element_class=element_class.astype(np.int32),
    )


def assemble_pressure_ops(
    mesh: Mesh, spaces: Spaces, constant_only: bool = False
) -> sp.csr_matrix:
    """The divergence-coupling matrix over all pressure x all velocity
    unknowns, parameter independent: per element a (1 + n_d, 3 + n_d) block,
    -sign at the lowest-order flux unknowns in the constant-pressure row and
    -I from the mean-zero pressures to the divergence carriers. With
    ``constant_only``, its first nt rows alone, the constant-pressure ones:
    each holds one element's entries, so they are the whole matrix's rows
    bit for bit."""
    dm, ref, split = spaces.dofmap, spaces.ref, spaces.split
    nt, n_d = mesh.num_triangles, 0 if constant_only else ref.n_int_d
    # the three lowest-order flux unknowns, then the divergence carriers
    cols = np.r_[np.arange(3) * (spaces.k + 1), ref.n_facet + ref.n_int_c + np.arange(n_d)]
    stack = np.zeros((nt, 1 + n_d, 3 + n_d))
    stack[:, 0, :3] = -dm.signs[:, cols[:3]]
    stack[:, 1:, 3:] = -np.eye(n_d)
    t = np.arange(nt)[:, None]
    rows = np.concatenate([t, nt + t * n_d + np.arange(n_d)], axis=1)
    n_rows = nt if constant_only else split.n_pressure
    b = scatter_stack(stack, rows, n_rows, dm.vel_loc[:, cols], split.n_vel)
    b.eliminate_zeros()
    return b


def pressure_c_diagonal(mesh: Mesh, spaces: Spaces, params: ProblemParams) -> np.ndarray:
    n_d = spaces.ref.n_int_d
    return -params.inv_lambda * np.concatenate(
        [mesh.areas, np.repeat(mesh.det_j, n_d)]
    )


@dataclass
class BlockSystem:
    """Saddle-point system of one parameter row, essential data eliminated.

    floc holds the signed element right sides (without a body force, a
    read-only broadcast zero that takes no memory), and ``stacks`` the sweep's
    element forms, from which static condensation forms the matrices of each
    chunk's element classes (``LocalStacks.class_matrices``). The whole-mesh
    element stack ``aloc``, the reduced velocity block A (over free velocity
    unknowns, at their ``essential.pos`` positions), its right side F_u, the
    reduced pressure coupling B, its right side F_p and the compressibility
    block C are built on first access, for verification: the condensed solve
    never forms them.
    """

    floc: np.ndarray = field(repr=False)
    stacks: LocalStacks = field(repr=False)
    spaces: Spaces = field(repr=False)
    params: ProblemParams
    essential: EssentialData = field(repr=False)

    @cached_property
    def aloc(self) -> np.ndarray:
        """The signed element matrices (nt, n_loc, n_loc) of the velocity
        block."""
        return self.stacks.combine(self.params, self.spaces.k)

    @cached_property
    def A(self) -> SparseSym:
        slots = self.essential.pos[self.spaces.dofmap.vel_loc]
        return SparseSym(scatter_stack(self.aloc, slots, self.n_free))

    @cached_property
    def F_u(self) -> np.ndarray:
        """floc - A[free, essential] g, the lift by one rectangular scatter of
        the whole stack over the free rows and every velocity column (the
        essential data g is 0 at a free unknown)."""
        ess, vel_loc, n = self.essential, self.spaces.dofmap.vel_loc, self.n_free
        pos = ess.pos[vel_loc]
        a_fg = scatter_stack(self.aloc, pos, n, vel_loc, ess.free_mask.size)
        return free_rhs(pos, self.floc, n) - a_fg @ ess.full_vector()

    @cached_property
    def _b_full(self) -> sp.csr_matrix:
        return assemble_pressure_ops(self.mesh, self.spaces)

    @cached_property
    def B(self) -> sp.csr_matrix:
        return self._b_full[:, self.essential.free_ids]

    @cached_property
    def F_p(self) -> np.ndarray:
        return -(self._b_full @ self.essential.full_vector())

    @cached_property
    def C(self) -> SparseSym:
        return SparseSym(
            sp.diags(pressure_c_diagonal(self.mesh, self.spaces, self.params)).tocsr()
        )

    @property
    def mesh(self) -> Mesh:
        return self.spaces.mesh

    @property
    def n_free(self) -> int:
        return int(np.count_nonzero(self.essential.free_mask))

    @property
    def n_pressure(self) -> int:
        return self.spaces.split.n_pressure


def _element_coercivity_check(aloc: np.ndarray, chunks=None):
    """Raise NotSPD unless every element block has lambda_min >= -1e-9 scale,
    scale being the block's largest entry. A Cholesky factorization of every
    block shifted by 1e-9 scale certifies the bound in one batched pass (up
    to rounding far below it); only when it fails do the eigenvalues decide.
    When ``aloc`` is one chunk of a stack, ``chunks()`` yields every chunk of
    that stack, and the eigenvalues are those of all of them: the check then
    fails exactly when the check of the whole stack would, with its text."""
    scale = _block_scale(aloc)
    shifted = aloc.copy()
    diag = np.arange(aloc.shape[1])
    shifted[:, diag, diag] += (1e-9 * scale)[:, None]
    try:
        np.linalg.cholesky(shifted)
        return
    except np.linalg.LinAlgError:
        pass
    worst = min(
        np.min(np.linalg.eigvalsh(a)[:, 0] / _block_scale(a))
        for a in (chunks() if chunks else (aloc,))
    )
    if worst < -1e-9:
        raise NotSPD(
            "element velocity block has a negative eigenvalue "
            f"(relative {worst:.3e}); increase the penalty parameter alpha"
        )


def _block_scale(aloc: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(aloc).max(axis=(1, 2)), 1e-300)


def assemble_saddle(
    mesh: Mesh,
    spaces: Spaces,
    params: ProblemParams,
    essential: EssentialData,
    body_force=None,
    volume_quad_degree: int = None,
    stacks: LocalStacks = None,
) -> BlockSystem:
    if stacks is None:
        stacks = assemble_local_stacks(mesh, spaces)
    dm = spaces.dofmap
    shape = (mesh.num_triangles, dm.n_loc)
    if body_force is None:  # read-only zeros that take no memory
        floc = np.broadcast_to(0.0, shape)
    else:
        floc = np.zeros(shape)
        deg = volume_quad_degree or spaces.ref.vol_rule.degree
        rule, vals, _, _, _ = spaces.ref.volume_tables(deg)
        a0 = mesh.vertices[mesh.triangles[:, 0]]
        nt = mesh.num_triangles
        for sel in element_chunks(nt):
            pts = a0[sel, None, :] + np.einsum(
                "edc,qc->eqd", mesh.jacobians[sel], rule.points
            )
            fv = body_force(pts.reshape(-1, 2)).reshape(pts.shape)
            det = mesh.det_j[sel]
            pv = map_piola(mesh.jacobians[sel], det, vals)
            floc[sel, : spaces.ref.n_u] = np.einsum(
                "eiqd,eqd,q->ei", pv, fv, rule.weights
            ) * det[:, None]
        floc *= dm.signs

    return BlockSystem(
        floc=floc,
        stacks=stacks,
        spaces=spaces,
        params=params,
        essential=essential,
    )
