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
move to the right-hand side. The solver path keeps the system as element
stacks, which static condensation reads directly; the unreduced velocity
matrix and the reduced velocity block are scattered only on first access,
for verification.

The element kernel is shared with static condensation, the auxiliary space
and the verification suite: ``refbasis.map_piola`` maps basis values,
``sym_gradients`` forms the symmetric gradients (the only place J^-1 is built,
through ``inverse_jacobians``), ``gram`` forms the weighted products of
basis functions as batched matmuls, ``facet_groups`` runs the per-local-edge
facet loop (both orientations at once), and ``scatter_stack`` sums element
matrices into a global CSR matrix.
"""

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


def gram(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted Gram matrices (E, n, n) of a batch ``x`` (E, n, Q, ...):
    sum over q and the trailing axes of w_q x[e, i, q, ...] x[e, j, q, ...].
    One batched matmul of (x sqrt(w)) with its transpose, so the weights must
    be positive; the result is symmetrized, hence exactly symmetric."""
    sw = np.sqrt(w).reshape((-1,) + (1,) * (x.ndim - 3))
    y = (x * sw).reshape(x.shape[0], x.shape[1], -1)
    g = y @ np.swapaxes(y, 1, 2)
    return 0.5 * (g + np.swapaxes(g, 1, 2))


@dataclass(frozen=True)
class FacetGroup:
    """Every element's local edge ``l``, with the reference tables of both
    orientations and the geometry the facet terms need. The two orientations
    partition the elements; per-element results come back in element order,
    so the facet blocks are added to the stacks with basic slices."""

    hat: slice  # local slots of the edge's tangential trace unknowns
    orient: tuple  # element ids traversing the edge along / against its tangent
    vals: tuple  # per orientation: (n_u, Qe, 2) reference values on the edge rule
    grads: tuple  # per orientation: (n_u, Qe, 2, 2) reference gradients
    jac: np.ndarray  # (nt, 2, 2)
    det: np.ndarray  # (nt,)
    tangent: np.ndarray  # (nt, 2) global edge tangent
    normal: np.ndarray  # (nt, 2) outward unit normal
    length: np.ndarray  # (nt,)

    def _by_orientation(self, fn, tables) -> np.ndarray:
        """fn(elems, table) on the elements of each orientation with that
        orientation's reference table, merged in element order."""
        out = None
        for elems, table in zip(self.orient, tables):
            if elems.size == 0:
                continue
            part = fn(elems, table)
            if out is None:
                out = np.empty(self.det.shape + part.shape[1:])
            out[elems] = part
        return out

    def tangential_traces(self) -> np.ndarray:
        """Tangential traces (nt, n_u, Qe) of the Piola-mapped basis."""

        def traces(elems, vals):
            pv = map_piola(self.jac[elems], self.det[elems], vals)
            return (pv.reshape(elems.size, -1, 2) @ self.tangent[elems, :, None]).reshape(
                pv.shape[:-1]
            )

        return self._by_orientation(traces, self.vals)

    def normal_tangential_stress(self) -> np.ndarray:
        """t . D(phi) n (nt, n_u, Qe) of the Piola-mapped basis."""

        def dn(elems, grads):
            dsym = sym_gradients(self.jac[elems], self.det[elems], grads)
            tn = self.tangent[elems, :, None] * self.normal[elems, None, :]
            out = dsym.reshape(elems.size, -1, 4) @ tn.reshape(-1, 4, 1)
            return out.reshape(dsym.shape[:-2])

        return self._by_orientation(dn, self.grads)

    def add(self, stack, uu, uh, hh=None) -> None:
        """Add a symmetric facet block to the element stack: ``uu`` on the
        velocity slots, ``uh`` and its transpose between velocity and trace
        slots, ``hh`` on the trace slots."""
        u = slice(0, self.vals[0].shape[0])  # velocity slots come first
        stack[:, u, u] += uu
        stack[:, u, self.hat] += uh
        stack[:, self.hat, u] += np.swapaxes(uh, 1, 2)
        if hh is not None:
            stack[:, self.hat, self.hat] += hh


def facet_groups(mesh: Mesh, ref: ReferenceBasis):
    """Yield one FacetGroup per local edge."""
    k = ref.k
    for l in range(3):
        e = mesh.tri_edges[:, l]
        flip = mesh.tri_edge_flip[:, l]
        t = mesh.tangents[e]
        nout = np.column_stack([t[:, 1], -t[:, 0]])
        yield FacetGroup(
            hat=slice(ref.n_u + l * k, ref.n_u + (l + 1) * k),
            orient=(np.flatnonzero(~flip), np.flatnonzero(flip)),
            vals=(ref.edge_vals[(l, 0)], ref.edge_vals[(l, 1)]),
            grads=(ref.edge_grads[(l, 0)], ref.edge_grads[(l, 1)]),
            jac=mesh.jacobians,
            det=mesh.det_j,
            tangent=t,
            normal=np.where(flip[:, None], -nout, nout),
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
        mass[sel, :n_u, :n_u] = gram(map_piola(j, det, ref.vol_vals), w) * det[:, None, None]
        visc[sel, :n_u, :n_u] = gram(sym_gradients(j, det, ref.vol_grads), w) * det[
            :, None, None
        ]

    we = ref.facet.rule.weights
    lh = ref.facet.lhat_vals  # (k, Qe)
    lhw = (lh * we).T
    for f in facet_groups(mesh, ref):
        tt = f.tangential_traces()
        dnw = f.normal_tangential_stress() * (we * f.length[:, None])[:, None, :]
        e_uu = dnw @ np.swapaxes(tt, 1, 2)
        f.add(visc, -(e_uu + np.swapaxes(e_uu, 1, 2)), dnw @ lh.T)
        bmom = tt @ lhw  # facet moments of the traces
        f.add(pen, gram(bmom, np.ones(k)), -bmom, np.eye(k))

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

    B, C, F_p are the reduced pressure blocks and right side; b_full is the
    unreduced divergence block and aloc, floc are the signed element stacks,
    which is all static condensation reads. The reduced velocity block A (over
    free velocity unknowns), its right side F_u and the unreduced velocity
    matrix a_full are built from the element stacks on first access, for
    verification: the condensed solve never forms them.
    """

    B: sp.csr_matrix
    C: SparseSym
    F_p: np.ndarray
    b_full: sp.csr_matrix = field(repr=False)
    aloc: np.ndarray = field(repr=False)
    floc: np.ndarray = field(repr=False)
    spaces: Spaces = field(repr=False)
    params: ProblemParams
    essential: EssentialData = field(repr=False)

    @cached_property
    def a_full(self) -> sp.csr_matrix:
        return scatter_stack(self.aloc, self.spaces.dofmap.vel_loc, self.spaces.split.n_vel)

    @cached_property
    def A(self) -> SparseSym:
        free = self.essential.free_ids
        return SparseSym(self.a_full[free][:, free])

    @cached_property
    def F_u(self) -> np.ndarray:
        n_vel = self.spaces.split.n_vel
        f_full = np.zeros(n_vel)
        np.add.at(f_full, self.spaces.dofmap.vel_loc.ravel(), self.floc.ravel())
        free = self.essential.free_ids
        return f_full[free] - self.a_full[free] @ self.essential.full_vector(n_vel)

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
    g = essential.full_vector(spaces.split.n_vel)
    return BlockSystem(
        B=b_full[:, essential.free_ids],
        C=SparseSym(sp.diags(pressure_c_diagonal(mesh, spaces, params)).tocsr()),
        F_p=-(b_full @ g),
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
