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

with parameter-independent stacks, so parameter sweeps reuse one integration
pass. Essential trace data is eliminated by slicing; the eliminated columns
move to the right-hand side.

The element kernel is shared with static condensation, the auxiliary space
and the verification suite: ``refbasis.map_piola`` maps basis values,
``sym_gradients`` forms the symmetric gradients (the only place J^-1 is built,
through ``inverse_jacobians``), ``facet_groups`` runs the per-(edge,
orientation) facet loop, and ``scatter_stack`` sums element matrices into a
global CSR matrix.
"""

from dataclasses import dataclass, field

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
        return p.tau * self.mass + (2.0 * p.mu) * (
            self.visc + (p.alpha * k * k) * self.pen
        )


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


def sym_gradients(j: np.ndarray, det: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Symmetric gradients (E, n, Q, 2, 2) of the Piola-mapped basis on a batch
    of elements, from reference gradients ``grads`` (n, Q, 2, 2).

    The physical gradient is J grad(phi) J^-1 / det J. The product is taken
    pairwise: J and J^-1 / det J form one symmetrized 4x4 map per element,
    which then acts on the flattened reference gradients."""
    jinv = inverse_jacobians(j, det) / det[:, None, None]
    op = np.einsum("eab,ecd->eadbc", j, jinv)
    op = 0.5 * (op + op.transpose(0, 2, 1, 3, 4))
    out = grads.reshape(-1, 4) @ op.reshape(-1, 4, 4).transpose(0, 2, 1)
    return out.reshape(j.shape[:1] + grads.shape)


@dataclass(frozen=True)
class FacetGroup:
    """The elements whose local edge ``l`` has one orientation, with the
    reference tables and geometry the facet terms need."""

    elems: np.ndarray  # (G,) element ids
    hat: slice  # local slots of the edge's tangential trace unknowns
    vals: np.ndarray  # (n_u, Qe, 2) reference values on the edge rule
    grads: np.ndarray  # (n_u, Qe, 2, 2) reference gradients on the edge rule
    jac: np.ndarray  # (G, 2, 2)
    det: np.ndarray  # (G,)
    tangent: np.ndarray  # (G, 2) global edge tangent
    normal: np.ndarray  # (G, 2) outward unit normal
    length: np.ndarray  # (G,)

    def tangential_traces(self) -> np.ndarray:
        """Tangential traces (G, n_u, Qe) of the Piola-mapped basis."""
        pv = map_piola(self.jac, self.det, self.vals)
        return np.einsum("giqd,gd->giq", pv, self.tangent)

    def add(self, stack, uu, uh, hh=None) -> None:
        """Add a symmetric facet block to the element stack: ``uu`` on the
        velocity slots, ``uh`` and its transpose between velocity and trace
        slots, ``hh`` on the trace slots."""
        u = slice(0, self.vals.shape[0])  # velocity slots come first
        stack[self.elems, u, u] += uu
        stack[self.elems, u, self.hat] += uh
        stack[self.elems, self.hat, u] += np.swapaxes(uh, 1, 2)
        if hh is not None:
            stack[self.elems, self.hat, self.hat] += hh


def facet_groups(mesh: Mesh, ref: ReferenceBasis):
    """Yield one FacetGroup per (local edge, orientation) that occurs."""
    k = ref.k
    for l in range(3):
        edges = mesh.tri_edges[:, l]
        hat = slice(ref.n_u + l * k, ref.n_u + (l + 1) * k)
        for flip in (0, 1):
            elems = np.flatnonzero(mesh.tri_edge_flip[:, l] == bool(flip))
            if elems.size == 0:
                continue
            e = edges[elems]
            t = mesh.tangents[e]
            nout = np.column_stack([t[:, 1], -t[:, 0]])
            yield FacetGroup(
                elems=elems,
                hat=hat,
                vals=ref.edge_vals[(l, flip)],
                grads=ref.edge_grads[(l, flip)],
                jac=mesh.jacobians[elems],
                det=mesh.det_j[elems],
                tangent=t,
                normal=-nout if flip else nout,
                length=mesh.edge_lengths[e],
            )


def scatter_stack(stack: np.ndarray, slots: np.ndarray, n: int) -> sp.csr_matrix:
    """Sum the element matrices ``stack[e]`` into an (n, n) matrix at the rows
    and columns ``slots[e]``; summed and sorted CSR."""
    r = np.broadcast_to(slots[:, :, None], stack.shape)
    c = np.broadcast_to(slots[:, None, :], stack.shape)
    m = sp.coo_matrix((stack.ravel(), (r.ravel(), c.ravel())), shape=(n, n)).tocsr()
    m.sum_duplicates()
    m.sort_indices()
    return m


def assemble_local_stacks(mesh: Mesh, spaces: Spaces) -> LocalStacks:
    ref = spaces.ref
    dm = spaces.dofmap
    k = spaces.k
    nt = mesh.num_triangles
    n_u = ref.n_u
    shape = (nt, dm.n_loc, dm.n_loc)
    mass, visc, pen = np.zeros(shape), np.zeros(shape), np.zeros(shape)

    w = ref.vol_rule.weights
    for start in range(0, nt, _CHUNK):
        sel = slice(start, min(start + _CHUNK, nt))
        j, det = mesh.jacobians[sel], mesh.det_j[sel]
        pv = map_piola(j, det, ref.vol_vals)
        mass[sel, :n_u, :n_u] = np.einsum(
            "eiqd,ejqd,q->eij", pv, pv, w
        ) * det[:, None, None]
        dsym = sym_gradients(j, det, ref.vol_grads)
        visc[sel, :n_u, :n_u] = np.einsum(
            "eiqad,ejqad,q->eij", dsym, dsym, w
        ) * det[:, None, None]

    we = ref.facet.rule.weights
    lh = ref.facet.lhat_vals  # (k, Qe)
    for f in facet_groups(mesh, ref):
        tt = f.tangential_traces()
        dsym = sym_gradients(f.jac, f.det, f.grads)
        dn = np.einsum("giqad,gd,ga->giq", dsym, f.normal, f.tangent)
        le = f.length[:, None, None]
        e_uu = np.einsum("giq,gjq,q->gij", dn, tt, we) * le
        e_uh = -np.einsum("giq,mq,q->gim", dn, lh, we) * le
        f.add(visc, -(e_uu + np.swapaxes(e_uu, 1, 2)), -e_uh)
        bmom = np.einsum("giq,jq,q->gij", tt, lh, we)
        f.add(pen, np.einsum("gij,gmj->gim", bmom, bmom), -bmom, np.eye(k))

    souter = dm.signs[:, :, None] * dm.signs[:, None, :]
    for stack in (mass, visc, pen):
        stack *= souter
    return LocalStacks(mass=mass, visc=visc, pen=pen)


def facet_projection(facet) -> np.ndarray:
    """Matrix applying the facet-space L2 projection to point values at the
    facet quadrature rule: projected values = P @ values. Idempotent, and
    reproduces any trace already spanned by the facet modes exactly."""
    lh = facet.lhat_vals
    return lh.T @ (lh * facet.rule.weights)


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
    b = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(split.n_pressure, split.n_vel),
    ).tocsr()
    b.sum_duplicates()
    b.sort_indices()
    return b


def pressure_c_diagonal(mesh: Mesh, spaces: Spaces, params: ProblemParams) -> np.ndarray:
    n_d = spaces.ref.n_int_d
    return -params.inv_lambda * np.concatenate(
        [mesh.areas, np.repeat(mesh.det_j, n_d)]
    )


@dataclass
class BlockSystem:
    """Assembled saddle-point system with essential data eliminated.

    A, B, C, F_u, F_p are the reduced blocks (A over free velocity unknowns).
    The unreduced matrices and the signed element stacks are retained for
    static condensation and verification.
    """

    A: SparseSym
    B: sp.csr_matrix
    C: SparseSym
    F_u: np.ndarray
    F_p: np.ndarray
    a_full: sp.csr_matrix = field(repr=False)
    b_full: sp.csr_matrix = field(repr=False)
    aloc: np.ndarray = field(repr=False)
    floc: np.ndarray = field(repr=False)
    spaces: Spaces = field(repr=False)
    params: ProblemParams = None
    essential: EssentialData = field(repr=False, default=None)

    @property
    def mesh(self) -> Mesh:
        return self.spaces.mesh

    @property
    def n_free(self) -> int:
        return self.A.n

    @property
    def n_pressure(self) -> int:
        return self.C.n


def _element_coercivity_check(aloc: np.ndarray):
    scale = np.maximum(np.abs(aloc).max(axis=(1, 2)), 1e-300)
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
    split = spaces.split
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

    n_vel = split.n_vel
    a_full = scatter_stack(aloc, dm.vel_loc, n_vel)

    f_full = np.zeros(n_vel)
    np.add.at(f_full, dm.vel_loc.ravel(), floc.ravel())

    b_full = assemble_pressure_ops(mesh, spaces)
    cdiag = pressure_c_diagonal(mesh, spaces, params)

    free = essential.free_ids
    g = essential.full_vector(n_vel)
    a_red = a_full[free][:, free]
    f_u = f_full[free] - a_full[free] @ g
    b_red = b_full[:, free]
    f_p = -(b_full @ g)

    return BlockSystem(
        A=SparseSym(a_red),
        B=b_red,
        C=SparseSym(sp.diags(cdiag).tocsr()),
        F_u=f_u,
        F_p=f_p,
        a_full=a_full,
        b_full=b_full,
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

    Returns (matrix, free_vertices): kron of the scalar stiffness/mass
    combination 2 mu * stiffness + tau * consistent mass with the 2x2
    identity, restricted to vertices not on the essentially imposed boundary.
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

    ess_verts = np.zeros(nv, bool)
    for e in mesh.boundary_edges():
        if essential.free_mask[e * (spaces.k + 1)]:
            continue  # outlet edge: vertices stay free unless shared with walls
        ess_verts[mesh.edges[e]] = True
    free_v = np.flatnonzero(~ess_verts)

    scal = scatter_stack(loc, mesh.triangles, nv)[free_v][:, free_v]
    return SparseSym(sp.kron(scal, sp.eye(2), format="csr")), free_v
