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

with parameter-independent stacks, so parameter sweeps reuse one assembly
pass. Essential trace data is eliminated by position: ``scatter_stack``
drops the rows and columns at -1 in ``EssentialData.pos``, and
``lift_essential`` moves the eliminated columns to the right-hand side. The
solver path keeps the system as element stacks, which static condensation
reads directly; the reduced velocity block is scattered only on first access,
for verification.

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
also of the auxiliary-space transfer and the pressure graph Laplacian.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import NotSPD, SparseSym
from .mesh import Mesh
from .refbasis import ReferenceBasis, map_piola
from .spaces import EssentialData, Spaces

_CHUNK = 2048


@dataclass(frozen=True)
class ProblemParams:
    mu: float = 1.0
    tau: float = 0.0
    inv_lambda: float = 0.0  # reciprocal of the compressibility parameter; 0 = limit
    alpha: float = 8.0

    def __post_init__(self):
        for name in ("mu", "tau", "inv_lambda", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        if self.tau < 0.0 or self.inv_lambda < 0.0 or self.alpha <= 0.0:
            raise ValueError("tau, inv_lambda must be >= 0 and alpha > 0")


@dataclass(frozen=True)
class LocalStacks:
    """Parameter-independent element matrices (signed, local slot order)."""

    mass: np.ndarray  # (nt, n_loc, n_loc)
    visc: np.ndarray  # gradient + consistency terms
    pen: np.ndarray  # jump penalty with 1/h_F included, alpha k^2 excluded

    def combine(self, p: ProblemParams, k: int) -> np.ndarray:
        """tau * mass + 2 mu * (visc + alpha k^2 * pen), in one buffer."""
        a = (p.alpha * k * k) * self.pen
        a += self.visc
        a *= 2.0 * p.mu
        a += p.tau * self.mass
        return a


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
    coefficient columns with their reference blocks; ``build`` multiplies
    and applies the orientation signs of ``spaces.dofmap``."""

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

    def build(self) -> np.ndarray:
        """The signed stack. The GEMM forms the upper triangle only, which
        then fills both triangles, so the stack is exactly symmetric."""
        n = self.n_loc
        iu, ju = np.triu_indices(n)
        packed = np.empty((n, n), np.int64)
        packed[iu, ju] = packed[ju, iu] = np.arange(iu.size)
        g = np.concatenate(self.coef, axis=1)
        upper = g @ np.concatenate(self.tensors)[:, iu, ju]
        s = np.take(upper, packed.ravel(), axis=1).reshape(-1, n, n)
        s *= self.signs[:, :, None]
        s *= self.signs[:, None, :]
        return s


def viscous_volume_coefficients(o: np.ndarray, det: np.ndarray) -> np.ndarray:
    """det J * O^T O (E, 4, 4): (D phi_i, D phi_j)_K is its contraction with
    ``ReferenceBasis.grad_moments``."""
    return (np.swapaxes(o, 1, 2) @ o) * det[:, None, None]


def edge_coefficients(mesh: Mesh, ref: ReferenceBasis, o: np.ndarray):
    """Yield (key, hat, c1, c2) per local edge l and orientation flip, with
    key = (l, flip) into ``ref.edge_moments`` and ``hat`` the local slots of
    the edge's trace unknowns. With t the global edge tangent and n the
    outward normal, c1 = O^T vec(t n^T) |F| (nt, 4) and c2 = J^T t / det J
    (nt, 2), so |F| t.D(phi)n = c1 . grad(phi_ref) and t.phi = c2 . phi_ref
    on the edge. Both are zero on the elements traversing the edge in the
    other orientation, which is how a stack picks the matching moments."""
    k = ref.k
    j, det = mesh.jacobians, mesh.det_j
    for l in range(3):
        e = mesh.tri_edges[:, l]
        flip = mesh.tri_edge_flip[:, l]
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


def scatter_stack(
    stack: np.ndarray, rows: np.ndarray, n: int, cols: np.ndarray = None, m: int = None
) -> sp.csr_matrix:
    """Sum the element matrices ``stack[e]`` (E, r, c) into an (n, m) matrix
    at the rows ``rows[e]`` and the columns ``cols[e]`` (default: the rows,
    and m = n). A slot of -1 drops its row or column; that is how eliminated
    unknowns leave a matrix. The kept entries stay in element-major order, and
    ``tocsr`` sums the duplicates into the canonical format."""
    if cols is None:
        cols = rows
    r = np.broadcast_to(rows[:, :, None], stack.shape)
    c = np.broadcast_to(cols[:, None, :], stack.shape)
    keep = (r >= 0) & (c >= 0)
    shape = (n, n if m is None else m)
    return sp.coo_matrix((stack[keep], (r[keep], c[keep])), shape=shape).tocsr()


def lift_essential(stack, fstack, slots, ess: EssentialData, n: int) -> np.ndarray:
    """f_free - A[free, essential] g: the right side over the n free unknowns
    among the global velocity ids ``slots`` of element matrices ``stack`` and
    element right sides ``fstack``. The lift is a rectangular scatter of only
    the elements that touch an essential unknown."""
    pos = ess.pos[slots]
    kept = pos >= 0
    f = np.bincount(pos[kept], weights=fstack[kept], minlength=n)
    touch = ~kept.all(axis=1)
    ess_cols = np.where(kept[touch], -1, slots[touch])
    lift = scatter_stack(stack[touch], pos[touch], n, ess_cols, ess.free_mask.size)
    return f - lift @ ess.full_vector()


def assemble_local_stacks(mesh: Mesh, spaces: Spaces) -> LocalStacks:
    ref, dm, k = spaces.ref, spaces.dofmap, spaces.k
    j, det = mesh.jacobians, mesh.det_j
    o = sym_grad_maps(j, det)
    mass, visc, pen = (TensorStack(spaces) for _ in range(3))
    mass.add((np.swapaxes(j, 1, 2) @ j) / det[:, None, None], uu=ref.mass_moments)
    visc.add(viscous_volume_coefficients(o, det), uu=ref.grad_moments)
    for key, hat, c1, c2 in edge_coefficients(mesh, ref, o):
        em = ref.edge_moments[key]
        st = em.stress_trace
        # -<D(u) n, tang(v)> - <D(v) n, tang(u)> and <D(u) n, vhat>
        visc.add(c1[:, :, None] * c2[:, None, :], uu=-(st + np.swapaxes(st, 2, 3)))
        visc.add(c1, uh=em.stress_mode, hat=hat)
        # facet moments m = tang(u) projected onto the modes: <m - uhat, m - vhat>
        tm = em.trace_mode
        pen.add(c2[:, :, None] * c2[:, None, :], uu=np.einsum("aim,bjm->abij", tm, tm))
        pen.add(c2, uh=-tm, hat=hat)
    pen.add(np.ones((mesh.num_triangles, 1)), hh=np.eye(3 * k), hat=dm.hat_slots)
    return LocalStacks(mass=mass.build(), visc=visc.build(), pen=pen.build())


def assemble_pressure_ops(mesh: Mesh, spaces: Spaces) -> sp.csr_matrix:
    """The divergence-coupling matrix over all pressure x all velocity
    unknowns. Exactly integer-structured; parameter independent."""
    dm = spaces.dofmap
    ref = spaces.ref
    split = spaces.split
    k = spaces.k
    nt = mesh.num_triangles
    rows, cols, vals = [], [], []
    for l in range(3):
        base = l * (k + 1)
        rows.append(np.arange(nt))
        cols.append(dm.vel_loc[:, base])
        vals.append(-dm.signs[:, base])
    n_d = ref.n_int_d
    for r in range(n_d):
        rows.append(nt + np.arange(nt) * n_d + r)
        cols.append(dm.vel_loc[:, ref.n_facet + ref.n_int_c + r])
        vals.append(-np.ones(nt))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(split.n_pressure, split.n_vel),
    ).tocsr()


def pressure_c_diagonal(mesh: Mesh, spaces: Spaces, params: ProblemParams) -> np.ndarray:
    n_d = spaces.ref.n_int_d
    return -params.inv_lambda * np.concatenate(
        [mesh.areas, np.repeat(mesh.det_j, n_d)]
    )


@dataclass
class BlockSystem:
    """Assembled saddle-point system with essential data eliminated.

    B, C, F_p are the reduced pressure blocks and right side and aloc, floc
    are the signed element stacks, which is all static condensation reads.
    The reduced velocity block A (over free velocity unknowns, at their
    ``essential.pos`` positions) and its right side F_u are scattered from the
    element stacks on first access, for verification: the condensed solve
    never forms them.
    """

    B: sp.csr_matrix
    C: SparseSym
    F_p: np.ndarray
    aloc: np.ndarray = field(repr=False)
    floc: np.ndarray = field(repr=False)
    spaces: Spaces = field(repr=False)
    params: ProblemParams
    essential: EssentialData = field(repr=False)

    @cached_property
    def A(self) -> SparseSym:
        slots = self.essential.pos[self.spaces.dofmap.vel_loc]
        return SparseSym(scatter_stack(self.aloc, slots, self.n_free))

    @cached_property
    def F_u(self) -> np.ndarray:
        vel_loc = self.spaces.dofmap.vel_loc
        return lift_essential(self.aloc, self.floc, vel_loc, self.essential, self.n_free)

    @property
    def mesh(self) -> Mesh:
        return self.spaces.mesh

    @property
    def n_free(self) -> int:
        return int(np.count_nonzero(self.essential.free_mask))

    @property
    def n_pressure(self) -> int:
        return self.C.n


def _element_coercivity_check(aloc: np.ndarray):
    """Raise NotSPD unless every element block has lambda_min >= -1e-9 scale,
    scale being the block's largest entry. A Cholesky factorization of every
    block shifted by 1e-9 scale certifies the bound in one batched pass (up
    to rounding far below it); only when it fails do the eigenvalues decide."""
    scale = np.maximum(np.abs(aloc).max(axis=(1, 2)), 1e-300)
    shifted = aloc.copy()
    diag = np.arange(aloc.shape[1])
    shifted[:, diag, diag] += (1e-9 * scale)[:, None]
    try:
        np.linalg.cholesky(shifted)
        return
    except np.linalg.LinAlgError:
        pass
    evs = np.linalg.eigvalsh(aloc)
    worst = np.min(evs[:, 0] / scale)
    if worst < -1e-9:
        raise NotSPD(
            "element velocity block has a negative eigenvalue "
            f"(relative {worst:.3e}); increase the penalty parameter alpha"
        )


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
    aloc = stacks.combine(params, spaces.k)
    _element_coercivity_check(aloc)

    floc = np.zeros((mesh.num_triangles, dm.n_loc))
    if body_force is not None:
        deg = volume_quad_degree or spaces.ref.vol_rule.degree
        rule, vals, _, _, _ = spaces.ref.volume_tables(deg)
        a0 = mesh.vertices[mesh.triangles[:, 0]]
        nt = mesh.num_triangles
        for start in range(0, nt, _CHUNK):
            sel = slice(start, min(start + _CHUNK, nt))
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

    b_full = assemble_pressure_ops(mesh, spaces)
    return BlockSystem(
        B=b_full[:, essential.free_ids],
        C=SparseSym(sp.diags(pressure_c_diagonal(mesh, spaces, params)).tocsr()),
        F_p=-(b_full @ essential.full_vector()),
        aloc=aloc,
        floc=floc,
        spaces=spaces,
        params=params,
        essential=essential,
    )


def assemble_aux(
    mesh: Mesh, spaces: Spaces, params: ProblemParams, essential: EssentialData
):
    """Continuous piecewise-linear vector auxiliary operator on free vertices.

    Returns (matrix, vpos): kron of the scalar stiffness/mass combination
    2 mu * stiffness + tau * consistent mass with the 2x2 identity, over the
    vertices not on the essentially imposed boundary; vpos gives each vertex
    its position among those, -1 for a vertex of an essential edge.
    """
    nv = mesh.num_vertices
    det = mesh.det_j

    # P1 gradients, constant per element: grad lam_1, grad lam_2 are the rows
    # of J^-1
    jinv = inverse_jacobians(mesh.jacobians, det)
    grads = np.concatenate([-(jinv[:, :1] + jinv[:, 1:]), jinv], axis=1)

    stiff = np.einsum("tid,tjd->tij", grads, grads) * (0.5 * det)[:, None, None]
    mloc = (np.ones((3, 3)) + np.eye(3)) / 24.0
    massl = mloc[None, :, :] * det[:, None, None]
    loc = 2.0 * params.mu * stiff + params.tau * massl

    # an edge is essential when its first normal unknown is; outlet vertices
    # stay free unless shared with an essential edge
    free_edge = essential.free_mask[: spaces.split.n_bnd : spaces.k + 1]
    vpos = np.zeros(nv, np.int32)
    vpos[mesh.edges[~free_edge]] = -1
    free = vpos == 0
    vpos[free] = np.arange(np.count_nonzero(free), dtype=np.int32)

    scal = scatter_stack(loc, vpos[mesh.triangles], np.count_nonzero(free))
    return SparseSym(sp.kron(scal, sp.eye(2), format="csr")), vpos
