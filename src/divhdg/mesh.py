"""Conforming triangle meshes with oriented edge connectivity and boundary tags.

Conventions (relied on throughout the library):
  * triangle vertices are counter-clockwise; local edge l sits opposite local
    vertex l and joins local vertices (l+1)%3 -> (l+2)%3;
  * a global edge is the sorted vertex pair (a, b) with a < b; its unit tangent
    points a -> b and its stored unit normal points out of the lower-indexed
    adjacent element (for boundary edges, out of the domain);
  * tri_edge_flip[t, l] is True when triangle t traverses the edge b -> a,
    i.e. against the global orientation.
"""

from dataclasses import dataclass

import numpy as np

TAG_INTERIOR = 0
TAG_LID = 1
TAG_WALL = 2
TAG_INLET = 3
TAG_OUTLET = 4


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray  # (nv, 2)
    triangles: np.ndarray  # (nt, 3) CCW vertex indices
    edges: np.ndarray  # (ne, 2) sorted pairs a < b, lexicographic order
    edge_elems: np.ndarray  # (ne, 2) adjacent elements, lower first; -1 = none
    edge_tags: np.ndarray  # (ne,) TAG_* values
    tri_edges: np.ndarray  # (nt, 3) global edge index of local edge l
    tri_edge_flip: np.ndarray  # (nt, 3) bool, local traversal runs b -> a
    normals: np.ndarray  # (ne, 2) unit, out of edge_elems[:, 0]
    tangents: np.ndarray  # (ne, 2) unit, a -> b
    edge_lengths: np.ndarray  # (ne,)
    areas: np.ndarray  # (nt,)
    jacobians: np.ndarray  # (nt, 2, 2) affine map columns (v1-v0 | v2-v0)
    det_j: np.ndarray  # (nt,)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def boundary_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_elems[:, 1] < 0)

    def validate(self, require_tags: bool = True):
        if np.any(self.det_j <= 0.0):
            raise ValueError("triangle with nonpositive orientation")
        nv, ne, nt = self.num_vertices, self.num_edges, self.num_triangles
        counts = np.bincount(self.tri_edges.ravel(), minlength=ne)
        boundary = self.edge_elems[:, 1] < 0
        if not (np.all(counts[boundary] == 1) and np.all(counts[~boundary] == 2)):
            raise ValueError("non-conforming edge incidence")
        if nv - ne + nt != 1:
            raise ValueError("unexpected Euler characteristic (holes?)")
        if require_tags and np.any((self.edge_tags == TAG_INTERIOR) & boundary):
            raise ValueError("untagged boundary edge")
        if np.any((self.edge_tags != TAG_INTERIOR) & ~boundary):
            raise ValueError("tagged interior edge")


def build_mesh(vertices: np.ndarray, triangles: np.ndarray, tag_fn=None) -> Mesh:
    """Derive all connectivity from vertices + CCW triangles.

    tag_fn(midpoints) maps boundary-edge midpoints (m, 2) to tag values.
    """
    vertices = np.asarray(vertices, float)
    triangles = np.asarray(triangles, np.int64)
    nt = triangles.shape[0]

    locals_pq = triangles[:, [[1, 2], [2, 0], [0, 1]]]  # (nt, 3, 2) p -> q
    flat = np.sort(locals_pq.reshape(-1, 2), axis=1)
    nv = vertices.shape[0]
    keys, inverse = np.unique(flat[:, 0] * nv + flat[:, 1], return_inverse=True)
    edges = np.column_stack([keys // nv, keys % nv])
    tri_edges = inverse.reshape(nt, 3)
    tri_edge_flip = locals_pq[:, :, 0] != edges[tri_edges, 0]

    ne = edges.shape[0]
    edge_elems = np.full((ne, 2), -1, np.int64)
    # a stable sort by edge keeps each edge's elements in ascending order
    order = np.argsort(tri_edges.ravel(), kind="stable")
    elem_of = np.repeat(np.arange(nt), 3)[order]
    first = np.searchsorted(tri_edges.ravel()[order], np.arange(ne))
    edge_elems[:, 0] = elem_of[first]
    shared = np.flatnonzero(np.diff(np.append(first, 3 * nt)) > 1)
    edge_elems[shared, 1] = elem_of[first[shared] + 1]

    vec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    lengths = np.linalg.norm(vec, axis=1)
    tangents = vec / lengths[:, None]
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])
    mids = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])
    centroids = vertices[triangles].mean(axis=1)
    flip_n = np.einsum("ed,ed->e", normals, mids - centroids[edge_elems[:, 0]]) < 0.0
    normals[flip_n] *= -1.0

    a0 = vertices[triangles[:, 0]]
    jac = np.stack(
        [vertices[triangles[:, 1]] - a0, vertices[triangles[:, 2]] - a0], axis=2
    )
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]

    tags = np.zeros(ne, np.int64)
    boundary = edge_elems[:, 1] < 0
    if tag_fn is not None and np.any(boundary):
        tags[boundary] = tag_fn(mids[boundary])

    mesh = Mesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_elems=edge_elems,
        edge_tags=tags,
        tri_edges=tri_edges,
        tri_edge_flip=tri_edge_flip,
        normals=normals,
        tangents=tangents,
        edge_lengths=lengths,
        areas=0.5 * det,
        jacobians=jac,
        det_j=det,
    )
    mesh.validate(require_tags=tag_fn is not None)
    return mesh


def _grid_mesh(nx: int, ny: int, keep_cell, origin=(0.0, 0.0), spacing=1.0):
    """Structured right-triangle mesh over kept cells of an nx x ny grid;
    keep_cell(ix, iy) takes integer arrays and returns a boolean mask."""
    iy, ix = np.nonzero(keep_cell(*np.meshgrid(np.arange(nx), np.arange(ny))))
    used = np.zeros((ny + 1, nx + 1), bool)
    for dy in (0, 1):
        for dx in (0, 1):
            used[iy + dy, ix + dx] = True
    vid = np.full((ny + 1, nx + 1), -1, np.int64)
    ys, xs = np.nonzero(used)
    vid[ys, xs] = np.arange(ys.size)
    vertices = np.column_stack(
        [origin[0] + xs * spacing, origin[1] + ys * spacing]
    ).astype(float)
    ll, lr = vid[iy, ix], vid[iy, ix + 1]
    ul, ur = vid[iy + 1, ix], vid[iy + 1, ix + 1]
    # per cell: diagonal lower-left -> upper-right, lower triangle first
    tris = np.stack([ll, lr, ur, ll, ur, ul], axis=1).reshape(-1, 3)
    return vertices, tris


def unit_square(n: int) -> Mesh:
    """Uniform n x n right-triangle mesh of [0,1]^2; top side tagged lid."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vertices, tris = _grid_mesh(
        n, n, lambda ix, iy: np.ones(ix.shape, bool), spacing=1.0 / n
    )

    def tag_fn(mids):
        return np.where(mids[:, 1] > 1.0 - 0.25 / n, TAG_LID, TAG_WALL)

    return build_mesh(vertices, tris, tag_fn)


def step_domain(n: int) -> Mesh:
    """Backward-facing step: ([0.5,4] x [0,0.5]) union ([0,4] x [0.5,1]).

    n is the number of subdivisions per unit length and must be even so the
    re-entrant corner (0.5, 0.5) is a grid vertex. Inflow boundary (x=0) is
    tagged inlet, outflow (x=4) outlet, everything else wall.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    half = n // 2

    def keep(ix, iy):
        return (iy >= half) | (ix >= half)

    vertices, tris = _grid_mesh(4 * n, n, keep, spacing=1.0 / n)
    eps = 0.25 / n

    def tag_fn(mids):
        tags = np.full(mids.shape[0], TAG_WALL, np.int64)
        tags[mids[:, 0] < eps] = TAG_INLET
        tags[mids[:, 0] > 4.0 - eps] = TAG_OUTLET
        return tags

    return build_mesh(vertices, tris, tag_fn)


def uniform_refine(mesh: Mesh) -> Mesh:
    """Split every triangle into four congruent children via edge midpoints.

    Parent vertices keep their indices; the midpoint of global edge e becomes
    vertex nv + e. Boundary children inherit the parent edge's tag.
    """
    nv = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])

    t = mesh.triangles
    m = nv + mesh.tri_edges  # (nt, 3): midpoint vertex of local edge l
    children = np.concatenate(
        [
            np.stack([t[:, 0], m[:, 2], m[:, 1]], axis=1),
            np.stack([m[:, 2], t[:, 1], m[:, 0]], axis=1),
            np.stack([m[:, 1], m[:, 0], t[:, 2]], axis=1),
            np.stack([m[:, 0], m[:, 1], m[:, 2]], axis=1),
        ]
    )

    tag_of = {}
    for e in mesh.boundary_edges():
        a, b = mesh.edges[e]
        mid = nv + e
        tag_of[(min(a, mid), max(a, mid))] = mesh.edge_tags[e]
        tag_of[(min(b, mid), max(b, mid))] = mesh.edge_tags[e]

    refined = build_mesh(vertices, children)
    tags = refined.edge_tags.copy()
    for e in refined.boundary_edges():
        key = (int(refined.edges[e, 0]), int(refined.edges[e, 1]))
        if key not in tag_of:
            raise ValueError("refined boundary edge has no parent tag")
        tags[e] = tag_of[key]
    refined = Mesh(
        **{
            **{f: getattr(refined, f) for f in refined.__dataclass_fields__},
            "edge_tags": tags,
        }
    )
    refined.validate()
    return refined
