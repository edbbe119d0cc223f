"""Global degree-of-freedom management for the hybrid velocity/pressure pair.

Velocity unknowns, in global numbering order:
  * facet-normal block ("condensed" part 1): per edge, k+1 coefficients of the
    normal-trace functions (lowest-order flux first, then k flux bubbles),
    id = e*(k+1) + m;
  * tangential trace block ("condensed" part 2): per edge, k coefficients of
    the orthonormal Legendre tangential modes in the global a -> b edge
    parameterization, id = n_bnd + e*k + j;
  * element-interior block (eliminated): per triangle, k^2 - 1 coefficients
    (divergence-free group first, then divergence carriers).

Pressure unknowns: elementwise-constant part first (one per triangle,
basis = indicator), then per triangle the mean-zero orthonormal modes.

Element-local velocity slot order is [3(k+1) facet | k^2-1 interior | 3k
tangential]; the sign table converts locally oriented facet functions to the
globally oriented basis.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import TAG_INLET, TAG_LID, TAG_OUTLET, TAG_WALL, Mesh
from .refbasis import ReferenceBasis, build_reference_bdm


@dataclass(frozen=True)
class SpaceSplit:
    k: int
    n_edges: int
    n_tris: int

    @property
    def n_bnd(self) -> int:  # facet-normal velocity unknowns
        return (self.k + 1) * self.n_edges

    @property
    def n_hat(self) -> int:  # tangential trace unknowns
        return self.k * self.n_edges

    @property
    def n_int(self) -> int:  # interior velocity unknowns
        return (self.k * self.k - 1) * self.n_tris

    @property
    def n_cond(self) -> int:  # condensed (facet-normal + tangential) unknowns
        return self.n_bnd + self.n_hat

    @property
    def n_vel(self) -> int:
        return self.n_bnd + self.n_hat + self.n_int

    @property
    def n_pbar(self) -> int:
        return self.n_tris

    @property
    def n_pint(self) -> int:
        return (self.k * (self.k + 1) // 2 - 1) * self.n_tris

    @property
    def n_pressure(self) -> int:
        return self.n_pbar + self.n_pint


@dataclass(frozen=True)
class DofMap:
    vel_loc: np.ndarray  # (nt, n_loc) int32 global velocity id per local slot
    signs: np.ndarray  # (nt, n_loc) int8 +-1 local -> global orientation factors
    n_loc: int
    n_loc_facet: int  # 3(k+1)
    n_loc_int: int  # k^2-1

    @property
    def interior_slots(self) -> slice:
        return slice(self.n_loc_facet, self.n_loc_facet + self.n_loc_int)

    @property
    def hat_slots(self) -> slice:
        return slice(self.n_loc_facet + self.n_loc_int, self.n_loc)


@dataclass(frozen=True)
class Spaces:
    mesh: Mesh
    k: int
    ref: ReferenceBasis
    split: SpaceSplit
    dofmap: DofMap


def build_spaces(mesh: Mesh, k: int) -> Spaces:
    ref = build_reference_bdm(k)
    split = SpaceSplit(k=k, n_edges=mesh.num_edges, n_tris=mesh.num_triangles)
    nt = mesh.num_triangles
    n_loc = ref.n_u + 3 * k

    vel_loc = np.empty((nt, n_loc), np.int32)
    signs = np.ones((nt, n_loc), np.int8)  # +-1 is exact in every product
    exps = ref.facet_sign_exponents()
    for l in range(3):
        e = mesh.tri_edges[:, l]
        flip = mesh.tri_edge_flip[:, l].astype(np.int64)
        base = l * (k + 1)
        for m in range(k + 1):
            vel_loc[:, base + m] = e * (k + 1) + m
            signs[:, base + m] = np.where((exps[base + m] * flip) % 2, -1, 1)
        for j in range(k):
            vel_loc[:, ref.n_u + l * k + j] = split.n_bnd + e * k + j
    n_int = k * k - 1
    for i in range(n_int):
        vel_loc[:, ref.n_facet + i] = split.n_bnd + split.n_hat + np.arange(nt) * n_int + i

    dofmap = DofMap(
        vel_loc=vel_loc,
        signs=signs,
        n_loc=n_loc,
        n_loc_facet=ref.n_facet,
        n_loc_int=n_int,
    )
    return Spaces(mesh=mesh, k=k, ref=ref, split=split, dofmap=dofmap)


@dataclass(frozen=True)
class EssentialData:
    """Prescribed velocity unknowns: sorted ids, matching values, and the
    complementary free mask over all velocity unknowns."""

    ids: np.ndarray
    values: np.ndarray
    free_mask: np.ndarray

    @property
    def free_ids(self) -> np.ndarray:
        return np.flatnonzero(self.free_mask)

    @cached_property
    def pos(self) -> np.ndarray:
        """Position of each velocity unknown among the free ones, -1 (dropped
        by ``scatter_stack``) for an essential one. Condensed ids come first,
        so the free condensed unknowns take the first positions."""
        pos = np.full(self.free_mask.size, -1, np.int32)
        pos[self.free_mask] = np.arange(np.count_nonzero(self.free_mask), dtype=np.int32)
        return pos

    def full_vector(self) -> np.ndarray:
        g = np.zeros(self.free_mask.size)
        g[self.ids] = self.values
        return g


def free_edge_rank(split: SpaceSplit, essential: EssentialData) -> np.ndarray:
    """Each edge's rank r among the n_fe free edges, -1 for an essential
    edge. A free edge's unknowns take the free positions r (k+1) + m (normal
    mode m) and n_fe (k+1) + r k + j (tangential mode j); raises ValueError
    unless each edge's unknowns are all free or all essential."""
    k = split.k
    free = essential.free_mask
    free_edge = free[: split.n_bnd : k + 1]
    per_edge = np.concatenate(
        [free[: split.n_bnd].reshape(-1, k + 1), free[split.n_bnd : split.n_cond].reshape(-1, k)],
        axis=1,
    )
    if not np.all(per_edge == free_edge[:, None]):
        raise ValueError("an edge's trace unknowns must be all free or all essential")
    rank = np.full(split.n_edges, -1, np.int32)
    rank[free_edge] = np.arange(np.count_nonzero(free_edge), dtype=np.int32)
    return rank


def _boundary_velocity(problem: str):
    """Map edge tag -> callable(points (Q,2)) -> velocity (Q,2) for the
    essentially imposed parts of the boundary."""

    def zero(x):
        return np.zeros_like(x)

    def lid(x):
        return np.column_stack([4.0 * x[:, 0] * (1.0 - x[:, 0]), np.zeros(len(x))])

    def inlet(x):
        y = x[:, 1]
        return np.column_stack([16.0 * (1.0 - y) * (y - 0.5), np.zeros(len(x))])

    if problem == "cavity":
        return {TAG_LID: lid, TAG_WALL: zero}
    if problem == "step":
        return {TAG_INLET: inlet, TAG_WALL: zero}
    raise ValueError(f"unknown problem '{problem}'")


def interpolate_essential(mesh: Mesh, spaces: Spaces, problem: str) -> EssentialData:
    """Project boundary velocity data onto the trace unknowns of tagged edges.

    The data of each tag is sampled once at the edge rule of all its edges;
    the two edge-trace projections of ``FacetBasis`` then act on every edge
    at once. Normal part: the k+1 facet-normal coefficients match <v . n, l_j>
    on the edge for the full degree-k Legendre stack (exact whenever the
    data's normal trace has degree <= k). Tangential part: Legendre
    coefficients of v . t. Outlet edges stay free.
    """
    k = spaces.k
    fb = spaces.ref.facet
    data = _boundary_velocity(problem)
    s = fb.rule.points[:, 0][None, :, None]

    bnd = mesh.boundary_edges()
    edges = bnd[mesh.edge_tags[bnd] != TAG_OUTLET]
    a, b = mesh.vertices[mesh.edges[edges].T]
    pts = a[:, None, :] * (1.0 - s) + b[:, None, :] * s  # (E, Qe, 2)
    gv = np.empty_like(pts)
    tags = mesh.edge_tags[edges]
    for tag in np.unique(tags):
        sel = tags == tag
        gv[sel] = data[int(tag)](pts[sel].reshape(-1, 2)).reshape(-1, s.size, 2)
    t = mesh.tangents[edges]
    n = np.stack([t[:, 1], -t[:, 0]], axis=1)  # vertex-ordered (rot -90 of tangent)
    le = mesh.edge_lengths[edges][:, None]
    normal = le * (np.einsum("eqc,ec->eq", gv, n) @ fb.normal_projection.T)
    tangential = np.einsum("eqc,ec->eq", gv, t) @ fb.tangential_projection.T

    # normal ids all precede the tangential ones, and both rise with the edge
    ids = np.concatenate(
        [
            (edges[:, None] * (k + 1) + np.arange(k + 1)).ravel(),
            (spaces.split.n_bnd + edges[:, None] * k + np.arange(k)).ravel(),
        ]
    )
    values = np.concatenate([normal.ravel(), tangential.ravel()])
    free = np.ones(spaces.split.n_vel, bool)
    free[ids] = False
    return EssentialData(ids=ids, values=values, free_mask=free)
