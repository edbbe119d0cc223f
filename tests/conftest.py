"""Shared fixtures: cached solver pipelines so expensive assemblies are built
once per session."""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from divhdg import (
    ProblemParams,
    assemble_saddle,
    build_spaces,
    eliminate_local,
    interpolate_essential,
    precond,
    step_domain,
    unit_square,
)
from divhdg.condense import edge_ranks
from divhdg.mesh import TAG_WALL, build_mesh

_CACHE = {}


def jittered_square(n):
    """unit_square(n) with each vertex moved by a fixed pseudo-random offset of
    at most h/5 per coordinate, boundary vertices only along the boundary, so
    that no two elements are congruent. Every triangle stays
    counter-clockwise, and every edge keeps its unit_square tag."""
    base = unit_square(n)
    v = base.vertices.copy()
    step = np.random.default_rng(n).uniform(-0.2 / n, 0.2 / n, v.shape)
    step[(v == 0.0) | (v == 1.0)] = 0.0
    mesh = replace(build_mesh(v + step, base.triangles), edge_tags=base.edge_tags)
    assert np.unique(np.round(mesh.det_j, 12)).size == mesh.num_triangles
    return mesh


def wall_triangle():
    """One triangle with every edge a wall: no free edge."""
    return build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
        tag_fn=lambda mids: np.full(mids.shape[0], TAG_WALL),
    )


def pipeline(problem, n, k, mu=1.0, tau=0.0, inv_lambda=0.0, alpha=8.0):
    """(mesh, spaces, essential, block, condensed) for one configuration,
    cached for the whole test session; the problem "jittered" is the cavity
    on ``jittered_square(n)``."""
    key = (problem, n, k, mu, tau, inv_lambda, alpha)
    if key not in _CACHE:
        make_mesh = {"step": step_domain, "jittered": jittered_square}.get(problem, unit_square)
        mesh = make_mesh(n)
        spaces = build_spaces(mesh, k)
        ess = interpolate_essential(mesh, spaces, "cavity" if problem == "jittered" else problem)
        params = ProblemParams(mu=mu, tau=tau, inv_lambda=inv_lambda, alpha=alpha)
        block = assemble_saddle(mesh, spaces, params, ess)
        cond = eliminate_local(block)
        _CACHE[key] = (mesh, spaces, ess, block, cond)
    return _CACHE[key]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture(scope="session")
def cavity22():
    """unit_square(2), k=2, tau=1, 1/lambda=1: fully nonsingular reference."""
    return pipeline("cavity", 2, 2, tau=1.0, inv_lambda=1.0)


@pytest.fixture(scope="session")
def cavity22_stokes():
    """unit_square(2), k=2, tau=1, 1/lambda=0: enclosed incompressible."""
    return pipeline("cavity", 2, 2, tau=1.0, inv_lambda=0.0)


def colour_patches(structure):
    """Per colour of a patch-smoother ``AspStructure``, its patches group by
    group, each as (unknowns (m,), ring unknowns (w,)), from the groups'
    gathers from the stacked [r | z] (the ring's offset by n)."""
    groups = structure.groups
    n = structure.aux.transfer.shape[0]
    out = [[] for _ in range(groups[0].ends.size - 1 if groups else 0)]
    for g in groups:
        for c, (lo, hi) in enumerate(zip(g.ends[:-1], g.ends[1:])):
            out[c] += [(t[: g.m], t[g.m :] - n) for t in g.take[lo:hi]]
    return out


def patch_ranks(a_g, g):
    """The ranks (P, d, d + e) int8 of each patch's spokes among its spokes
    and its ring in the free-edge graph of ``a_g`` (``condense.TracePattern``),
    by ``condense.edge_ranks``, for a ``precond._PatchGroup`` ``g``. The
    spokes' and ring edges' free-edge ranks are read back from the normal
    mode 0 of each in ``g.take``: a spoke's 2k+1 unknowns are in turn, and
    the ring's normal modes come first, in ascending edge rank."""
    n = a_g.shape[0]
    k = (g.take.shape[1] // (g.d + g.e) - 1) // 2
    own = g.take[:, : g.m : 2 * k + 1] // (k + 1)
    rim = (g.take[:, g.m : g.m + g.e * (k + 1) : k + 1] - n) // (k + 1)
    return edge_ranks(a_g.graph, own, np.concatenate([own, rim], axis=1))


class Filled(NamedTuple):
    """One colour with its M's: ``rows`` and ``take`` as in
    ``precond._Colour``, and per part ``(p, mat)``, ``mat`` (C, m, m + w)
    giving each of its C M's to p patches in turn (a stack's class, or with
    p = 1 a tail patch)."""

    rows: np.ndarray
    take: np.ndarray
    parts: list


def filled_colours(structure, cond):
    """The colours of a patch-smoother ``AspStructure`` with the M's of the
    row ``cond``, formed by ``precond._class_matrices`` and taken per part,
    as reference."""
    mats = [precond._class_matrices(cond, g) for g in structure.groups]
    return [
        Filled(c.rows, c.take, [(p, mats[g][sel]) for p, g, sel in c.parts])
        for c in structure.colours
    ]


def swept_colours(asp):
    """The colours of a patch ``AspPrecond`` with the M's its sweep's steps
    multiply: each step's (C, w, m) operand of a part of p patches per
    class, transposed back. A colour's step that gathers its ring is the
    forward one, colour 0's the last of the sweep (a sweep has no colour or
    at least two: each free edge lies in the patches of both its ends)."""
    c = (len(asp.sweep) + 1) // 2
    out = []
    for i in range(c):
        step = asp.sweep[i if i else -1]
        parts = [(x.shape[1], mt.transpose(0, 2, 1)) for x, mt, _ in step.products]
        out.append(Filled(step.rows, step.take, parts))
    return out


def patch_matrices(colour, n):
    """Per patch of a ``Filled`` colour, in its order: (unknowns (m,), ring
    unknowns (w,), M (m, m + w)); ``n`` is the number of free unknowns."""
    out, lo = [], 0
    for p, mat in colour.parts:
        c, m, mw = mat.shape
        take = colour.take[lo : lo + c * p * mw].reshape(c * p, mw)
        out += [(t[:m], t[m:] - n, mat[i // p]) for i, t in enumerate(take)]
        lo += c * p * mw
    return out


def correct(colour, rz, z, first):
    """The former per-colour step of the patch sweep, kept as reference:
    the exact block solves z_p = M [r_p | z_ring] on every patch of a
    ``Filled`` colour at once, ``z`` the second half of ``rz``, one
    two-dimensional GEMM per class of a stack and one batched
    matrix-vector product per tail, gathering into and solving into arrays
    of its own. The ``first`` colour of a sweep sees z = 0 and reads only
    r_p and D^-1."""
    out = np.empty(colour.rows.size)
    v = rz.take(colour.rows if first else colour.take)
    lo = vlo = 0
    for p, mat in colour.parts:
        c, m, mw = mat.shape
        w = m if first else mw
        mat = mat[:, :, :w]
        x = v[vlo : vlo + c * p * w]
        y = out[lo : lo + c * p * m]
        if p > 1:
            for j in range(c):
                xj = x[j * p * w : (j + 1) * p * w].reshape(p, w)
                np.matmul(xj, mat[j].T, out=y[j * p * m : (j + 1) * p * m].reshape(p, m))
        else:
            np.matmul(mat, x.reshape(c, w, 1), out=y.reshape(c, m, 1))
        lo += c * p * m
        vlo += c * p * w
    z[colour.rows] = out


def colour_sweep(colours, r):
    """The former SGS sweep over a row's ``Filled`` colours, ``correct``
    per colour: forward over the colours, then back without the last."""
    rz = np.concatenate([r, np.zeros_like(r)])
    z = rz[r.size :]
    for c, blk in enumerate(colours):
        correct(blk, rz, z, c == 0)
    for blk in reversed(colours[:-1]):
        correct(blk, rz, z, False)
    return z
