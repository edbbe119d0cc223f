"""Set-up by element class. ``linalg.distinct_rows`` classes rows exactly;
static condensation solves one local problem per distinct (element class,
element load) pair of a chunk, and the patch smoother forms the sweep
matrix of each distinct block of a group of patches once. Every result
keeps the bits of the former per-element work, kept verbatim below as
reference, and of per-patch work."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from divhdg import assembly, linalg, precond
from divhdg.assembly import (
    ProblemParams,
    assemble_local_stacks,
    assemble_saddle,
    element_chunks,
    free_rhs,
    position_map,
    pressure_c_diagonal,
)
from divhdg.bench import Structure, build_structure
from divhdg.condense import back_substitute, condensed_structure, eliminate_local
from divhdg.linalg import NotSPD, SparseSym, distinct_rows
from divhdg.mesh import step_domain, unit_square
from divhdg.precond import asp_structure, build_asp, schur_structure
from divhdg.spaces import build_spaces, interpolate_essential

from conftest import jittered_square, patch_matrices, swept_colours


# ---------------------------------------------------------------------------
# the former per-element and per-patch work, kept verbatim as reference


def _former_local_solve(block, g, sel):
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

    aloc = block.stacks.combine(block.params, spaces.k, sel)
    m = aloc.shape[0]
    k_ll = np.zeros((m, n_L, n_L))
    k_ll[:, :n_int, :n_int] = aloc[:, ii, ii]
    for r in range(n_d):
        k_ll[:, n_int + r, n_c + r] = -1.0
        k_ll[:, n_c + r, n_int + r] = -1.0
        k_ll[:, n_int + r, n_int + r] = -block.params.inv_lambda * block.mesh.det_j[sel]
    rhs = np.zeros((m, n_L, n_G + 1))  # [K_LG | F_L]
    flat = aloc.reshape(m, -1)
    rhs[:, :n_int, :n_G] = flat[:, lg].reshape(m, n_int, n_G)
    rhs[:, :n_int, n_G] = block.floc[sel, ii]
    return flat, rhs, np.linalg.solve(k_ll, rhs)


def _former_eliminate_local(block, structure):
    spaces = block.spaces
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
    lift_loc = np.empty((nt, n_G))  # per element A_cond g
    blocks = np.empty((nt, n_G, n_G))  # kept for the class blocks' check
    a_data = structure.a_g.zeros()
    for sel in element_chunks(nt):
        flat, rhs, sol = _former_local_solve(block, g, sel)
        m = flat.shape[0]
        k_gl = np.swapaxes(rhs[:, :, :n_G], 1, 2)
        a_cond = flat[:, gg].reshape(m, n_G, n_G)
        del flat  # each temporary goes before the next one is made
        a_cond -= k_gl @ sol[:, :, :n_G]
        f_g_loc[sel] = block.floc[sel][:, g] - (k_gl @ sol[:, :, n_G, None])[:, :, 0]
        lift_loc[sel] = (a_cond @ g_ess[structure.g_slots[sel], None])[:, :, 0]
        structure.a_g.add(a_data, a_cond, sel)
        blocks[sel] = a_cond

    g_pos = ess.pos[structure.g_slots]
    n_g = structure.free_cond.size
    return SimpleNamespace(
        A_g=SparseSym(structure.a_g.matrix(a_data)),
        B_g=structure.B_g,
        C_g=SparseSym(sp.diags(pressure_c_diagonal(mesh, spaces, block.params)[:nt]).tocsr()),
        F_g=free_rhs(g_pos, f_g_loc, n_g) - free_rhs(g_pos, lift_loc, n_g),
        F_pbar=structure.F_pbar,
        free_cond=structure.free_cond,
        structure=structure,
        spaces=spaces,
        block=block,
        blocks=blocks,
    )


def _former_back_substitute(cond, trace_sol, pbar_sol):
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
        sol = _former_local_solve(cond.block, g, sel)[2]
        u_l[sel] = sol[:, :, n_G] - np.einsum("tlg,tg->tl", sol[:, :, :n_G], g_loc[sel])

    vel = np.zeros(split.n_vel)
    vel[: split.n_cond] = g_full
    int_ids = dm.vel_loc[:, dm.interior_slots]
    vel[int_ids.ravel()] = u_l[:, :n_int].ravel()

    pressure = np.zeros(split.n_pressure)
    pressure[:nt] = pbar_sol
    pressure[nt:] = u_l[:, n_int:].ravel()
    return vel, pressure


def _per_patch_blocks(a, g):
    """Each patch's own block [D | A_ring] (P, m, m + w) of one
    ``precond._PatchGroup`` ``g``, read from A_g's CSR ``a`` by lookups of
    its ``position_map``: rows the patch's unknowns, columns the patch's and
    then the ring's, 0 outside A_g's pattern."""
    m, n = g.m, a.shape[0]
    rows, cols = g.take[:, :m], np.concatenate([g.take[:, :m], g.take[:, m:] - n], axis=1)
    shape = (rows.shape[0], m, cols.shape[1])
    pos = position_map(a)[
        np.broadcast_to(rows[:, :, None], shape).ravel(),
        np.broadcast_to(cols[:, None, :], shape).ravel(),
    ]
    pos = np.asarray(pos).reshape(shape) - 1  # -1 outside the pattern
    return np.where(pos >= 0, a.data[pos], 0.0)


def _per_patch_matrices(a, g):
    """Each patch's own M = [D^-1 | -D^-1 A_ring] (P, m, m + w) of one
    ``precond._PatchGroup`` ``g``, from its block in A_g's CSR ``a``."""
    blocks = _per_patch_blocks(a, g)
    dinv = np.linalg.inv(blocks[:, :, : g.m])
    return np.concatenate([dinv, -(dinv @ blocks[:, :, g.m :])], axis=2)


# ---------------------------------------------------------------------------
# helpers


def _bit_classes(rows) -> list:
    """The class of each row by its bytes, numbered by first row."""
    seen = {}
    return [seen.setdefault(r.tobytes(), len(seen)) for r in rows]


def _assert_exact(rows, first, inverse, merged=True):
    """No class holds two rows with different bits, each class's ``first``
    is its first row, and with ``merged`` equal rows share a class."""
    rows = np.ascontiguousarray(rows).reshape(len(rows), -1)
    assert first.size == inverse.max(initial=-1) + 1
    assert np.all(np.diff(first) > 0)
    for c, f in enumerate(first):
        members = np.flatnonzero(inverse == c)
        assert members[0] == f
        assert all(rows[i].tobytes() == rows[f].tobytes() for i in members)
    if merged:
        assert list(inverse) == _bit_classes(rows)


MESHES = {
    "cavity": (lambda: unit_square(8), "cavity"),  # 128 elements, one chunk
    "step": (lambda: step_domain(4), "step"),  # 120 elements
    "jittered": (lambda: jittered_square(8), "cavity"),  # no two elements alike
    "two": (lambda: unit_square(1), "cavity"),  # two elements, one free edge
    # 98 elements: 64 in 6 classes of at least _CLASS_MIN, 34 outside them
    "mixed": (lambda: unit_square(7), "cavity"),
}


def _structure(mesh, problem, k, smoother="patch-sgs") -> Structure:
    spaces = build_spaces(mesh, k)
    ess = interpolate_essential(mesh, spaces, problem)
    stacks = assemble_local_stacks(mesh, spaces)
    condensed = condensed_structure(spaces, ess, stacks.element_class)
    return Structure(
        mesh=mesh,
        spaces=spaces,
        essential=ess,
        stacks=stacks,
        condensed=condensed,
        asp=asp_structure(spaces, condensed, smoother),
        schur=schur_structure(mesh),
    )


def _force(x):
    return np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] * x[:, 1]])


# ---------------------------------------------------------------------------


class TestDistinctRows:
    def test_exact_on_planted_duplicates(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((300, 7))
        for dst, src in zip(rng.integers(0, 300, 120), rng.integers(0, 300, 120)):
            rows[dst] = rows[src]
        first, inverse = distinct_rows(rows)
        _assert_exact(rows, first, inverse)
        assert first.size < 300 - 60

    def test_signed_zero_and_nan_are_bits(self):
        nan2 = np.uint64(0x7FF8000000000001).view(np.float64)
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [np.nan, 1.0], [nan2, 1.0], [0.0, 1.0]])
        first, inverse = distinct_rows(rows)
        # 0.0 and -0.0 differ, the two NaN payloads differ, and only the
        # bit-equal rows 0 and 4 share a class
        assert list(inverse) == [0, 1, 2, 3, 0]
        assert list(first) == [0, 1, 2, 3]
        first, inverse = distinct_rows(np.array([[np.nan], [np.nan]]))
        assert list(inverse) == [0, 0]  # the same bits: the same input

    def test_constant_hash_still_exact(self, monkeypatch):
        """Every row collides: each row that differs from the first becomes
        its own class, and no class holds two different rows."""
        monkeypatch.setattr(linalg, "_hash_rows", lambda arrays: np.zeros(arrays[0].shape[0], np.uint64))
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 3, (200, 2)).astype(float)
        rows[5] = -0.0 * rows[0]
        first, inverse = distinct_rows(rows)
        _assert_exact(rows, first, inverse, merged=False)
        assert inverse[5] != inverse[0] or rows[0].tobytes() == rows[5].tobytes()

    def test_several_arrays_are_their_concatenated_rows(self, monkeypatch):
        rng = np.random.default_rng(5)
        cls = rng.integers(0, 3, 400).astype(np.int32)
        signs = rng.choice(np.array([-1, 1], np.int8), (400, 5))
        vals = rng.integers(0, 2, (400, 2, 2)).astype(float)
        whole = np.column_stack([cls, signs, vals.reshape(400, -1)]).astype(float)
        want = distinct_rows(whole)
        _assert_exact(whole, *want)
        for words in (linalg._HASH_WORDS, 7):  # many blocks of rows
            monkeypatch.setattr(linalg, "_HASH_WORDS", words)
            got = distinct_rows(cls, signs, vals)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_empty(self):
        first, inverse = distinct_rows(np.zeros((0, 3)))
        assert first.size == 0 and inverse.size == 0


class TestElementClasses:
    @pytest.mark.parametrize(
        "mesh", [unit_square(4), unit_square(8), unit_square(16), step_domain(4), step_domain(8)]
    )
    def test_translated_meshes_have_two_classes(self, mesh):
        stacks = assemble_local_stacks(mesh, build_spaces(mesh, 2))
        assert stacks.element_class.dtype == np.int32
        assert stacks.element_class.shape == (mesh.num_triangles,)
        assert stacks.mass.shape[0] == stacks.visc.shape[0] == stacks.pen.shape[0] == 2
        assert stacks.signs.shape == (2, build_spaces(mesh, 2).dofmap.n_loc)

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize(
        "make_mesh",
        [
            lambda: unit_square(16),
            lambda: step_domain(6),
            lambda: unit_square(7),
            lambda: jittered_square(4),
        ],
        ids=["cavity16", "step6", "mixed", "jittered"],
    )
    def test_geometric_classes_are_the_coefficient_classes(self, make_mesh, k):
        """The elements are classed by the geometric inputs of their
        coefficients, which are then formed per class: every element's own
        coefficients, formed on the whole mesh, equal its class row bit for
        bit, and the partition equals that of the coefficients, signs and
        det J."""
        mesh = make_mesh()
        spaces = build_spaces(mesh, k)
        stacks = assemble_local_stacks(mesh, spaces)
        forms = assembly.local_forms(mesh, spaces, slice(None))
        coef = [forms[name].coefficients() for name in ("mass", "visc", "pen")]
        assert sum(c.shape[1] for c in coef) == 129
        for name, c in zip(("mass", "visc", "pen"), coef):
            rows = getattr(stacks, name)[stacks.element_class]
            assert np.array_equal(rows.view(np.uint64), c.view(np.uint64)), name
        first, inverse = distinct_rows(*coef, spaces.dofmap.signs, mesh.det_j)
        assert np.array_equal(inverse, stacks.element_class)
        assert np.array_equal(spaces.dofmap.signs[first], stacks.signs)

    def test_jittered_mesh_has_a_class_per_element(self):
        mesh = jittered_square(8)
        stacks = assemble_local_stacks(mesh, build_spaces(mesh, 2))
        assert stacks.mass.shape[0] == mesh.num_triangles
        assert np.array_equal(stacks.element_class, np.arange(mesh.num_triangles))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(MESHES))
class TestBitIdentity:
    @pytest.mark.parametrize("force", [False, True])
    def test_condensed_system_and_substitution(self, name, k, force):
        make_mesh, problem = MESHES[name]
        s = _structure(make_mesh(), problem, k)
        if force:
            params = ProblemParams(tau=1.0, inv_lambda=1.0)
            block = assemble_saddle(
                s.mesh, s.spaces, params, s.essential, body_force=_force, stacks=s.stacks
            )
        else:
            params = ProblemParams(mu=0.7, tau=3.0, inv_lambda=1e-2)
            block = assemble_saddle(s.mesh, s.spaces, params, s.essential, stacks=s.stacks)
        got = eliminate_local(block, s.condensed)
        want = _former_eliminate_local(block, s.condensed)
        # each class block is every member's own block, and the folded
        # diagonal and the lazy A_g are the former sums
        part = s.condensed.part
        members = np.flatnonzero(part >= 0)
        assert (members.size > 0) == (name in ("cavity", "step", "mixed"))
        assert np.array_equal(got.class_blocks[part[members]], want.blocks[members])
        assert np.array_equal(got.a_g_diagonal(), want.A_g.diagonal())
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got.A_g.csr, attr), getattr(want.A_g.csr, attr))
        assert np.array_equal(got.F_g, want.F_g)
        assert np.abs(got.F_g).max() > 0
        rng = np.random.default_rng(7)
        x, p = rng.standard_normal(got.n_free), rng.standard_normal(got.n_pbar)
        for g, w in zip(back_substitute(got, x, p), _former_back_substitute(want, x, p)):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("batch", [1, precond._BATCH])
    def test_patch_matrices(self, monkeypatch, name, k, batch):
        monkeypatch.setattr(precond, "_BATCH", batch)
        make_mesh, problem = MESHES[name]
        s = _structure(make_mesh(), problem, k)
        cond, asp, _ = s.row(ProblemParams(mu=0.7, tau=3.0, inv_lambda=1e-2))
        _assert_per_patch_matrices(s, cond, asp)


def _assert_per_patch_matrices(s, cond, asp):
    """Every patch's M that the row's sweep multiplies, the steps' (C, w, m)
    operand transposed back, is its ``_per_patch_matrices`` reference bit
    for bit, each patch once."""
    a, n = cond.A_g.csr, cond.n_free
    # by unknowns: the two patches of the mesh with one free edge hold the
    # same unknowns in two colours
    got = {}
    for colour in swept_colours(asp):
        for ids, _, mat in patch_matrices(colour, n):
            got.setdefault(tuple(ids), []).append(mat)
    for g in s.asp.groups:
        want = _per_patch_matrices(a, g)
        for t, mat in zip(g.take, want):
            assert np.array_equal(got[tuple(t[: g.m])].pop(), mat)
    assert not any(got.values())


PATCH_MESHES = {
    "cavity-4": (lambda: unit_square(4), "cavity", 2),
    "cavity-16": (lambda: unit_square(16), "cavity", 2),
    "step-8": (lambda: step_domain(8), "step", 3),
    "mixed": (lambda: unit_square(7), "cavity", 2),
    # mixed, and a group whose classes' first patches hold no part element
    "step-mixed": (lambda: step_domain(6), "step", 3),
    "jittered": (lambda: jittered_square(4), "cavity", 2),  # no class
}


@pytest.fixture(scope="module", params=list(PATCH_MESHES))
def patch_structure(request):
    make_mesh, problem, k = PATCH_MESHES[request.param]
    return request.param, _structure(make_mesh(), problem, k)


def _assert_batches_tile(s, groups):
    """Each group's batches tile its classes and its terms in order: each
    batch holds ``max(1, _BATCH // padded block entries)`` classes (the last
    fewer), its terms are the elements of its classes' first patches once
    each, class by class, and their rows and columns address its padded
    blocks."""
    k = s.spaces.k
    edge_elems = s.mesh.edge_elems[s.condensed.a_g.free_edges]
    for g in groups:
        m, mw = g.m, g.take.shape[1]
        size = (m + 1) * (mw + 1)
        per = max(1, precond._BATCH // size)
        assert g.term_block.shape == g.term_row.shape[:1] == g.term_col.shape[:1]
        lo = tlo = 0
        for cls, terms in g.batches:
            assert (cls.start, terms.start) == (lo, tlo)
            assert cls.stop - lo == min(per, g.first.size - lo)
            at = g.term_row[terms, :, None] + g.term_col[terms, None, :]
            assert at.min() >= 0 and at.max() < (cls.stop - cls.start) * size
            # each term's class, from its row in the batch
            of = cls.start + g.term_row[terms].min(axis=1) // size
            assert np.all(g.term_row[terms].max(axis=1) // size == of - cls.start)
            for c in range(cls.start, cls.stop):
                spokes = g.take[g.first[c], : m : 2 * k + 1] // (k + 1)
                els = np.unique(edge_elems[spokes])
                els = els[els >= 0]
                assert np.array_equal(g.term_block[terms][of == c], s.condensed.block_row[els])
            lo, tlo = cls.stop, terms.stop
        assert (lo, tlo) == (g.first.size, g.term_block.size)


def test_ranks_kept_only_where_read(patch_structure):
    """No patch group keeps its spokes' edge ranks, as a row sums its patch
    blocks from the element blocks on every mesh. The ranks kept are each
    element's among its own edges, which ``TracePattern.slots`` reads to
    place its block in A_g: edge c's place among the sorted neighbour edges
    of edge r in the free-edge graph, -1 where either is essential."""
    _, s = patch_structure
    a_g = s.condensed.a_g
    assert s.asp.groups and not any(hasattr(g, "rank") for g in s.asp.groups)
    erank = np.full(s.mesh.num_edges, -1)
    erank[a_g.free_edges] = np.arange(a_g.free_edges.size)
    graph = a_g.graph
    want = np.full((s.mesh.num_triangles, 3, 3), -1)
    for t, tri in enumerate(erank[s.mesh.tri_edges].tolist()):
        for i, r in enumerate(tri):
            nbrs = graph.indices[graph.indptr[r] : graph.indptr[r + 1]].tolist() if r >= 0 else []
            for j, c in enumerate(tri):
                if c >= 0 and c in nbrs:
                    want[t, i, j] = nbrs.index(c)
    assert a_g.edge_rank.dtype == np.int8 and np.array_equal(a_g.edge_rank, want)


def test_element_blocks_and_batches(monkeypatch, patch_structure):
    """A row's element blocks ``cond.blocks`` are the class blocks, then
    each rest element's own block in element order, bit for bit the former
    per-element condensation's, each element's at its ``block_row``; and the
    planned batches tile each group's classes and terms, at the default
    ``_BATCH`` and at one class per batch."""
    name, s = patch_structure
    params = ProblemParams(tau=1.0, inv_lambda=1.0)
    block = assemble_saddle(s.mesh, s.spaces, params, s.essential, stacks=s.stacks)
    got = eliminate_local(block, s.condensed)
    want = _former_eliminate_local(block, s.condensed).blocks
    part = s.condensed.part
    members, rest = np.flatnonzero(part >= 0), np.flatnonzero(part < 0)
    n_class = s.condensed.ends.size - 1
    assert (rest.size == part.size) == (name == "jittered")
    assert got.blocks.shape == (n_class + rest.size, *want.shape[1:])
    assert got.class_blocks.shape[0] == n_class
    assert n_class == 0 or np.shares_memory(got.class_blocks, got.blocks)
    assert np.array_equal(got.blocks[part[members]], want[members])
    assert np.array_equal(got.blocks[n_class:], want[rest])
    assert np.array_equal(got.blocks[s.condensed.block_row], want)
    _assert_batches_tile(s, s.asp.groups)
    monkeypatch.setattr(precond, "_BATCH", 1)
    one = asp_structure(s.spaces, s.condensed).groups
    assert all(len(g.batches) == g.first.size for g in one)
    _assert_batches_tile(s, one)


@pytest.mark.parametrize("tau,inv_lambda", [(1.0, 1.0), (0.0, 0.0), (100.0, 0.0)])
class TestPatchClasses:
    """The structure classes the patches by their elements' classes and
    places alone; a row sums each class's block from the element blocks,
    without assembling A_g."""

    def test_classes_are_the_bit_equal_blocks(self, patch_structure, tau, inv_lambda):
        """Two patches of a group share a class exactly when their blocks
        [D | A_ring], read from the row's A_g, are equal bit for bit."""
        name, s = patch_structure
        cond = s.row(ProblemParams(tau=tau, inv_lambda=inv_lambda))[0]
        assert "A_g" not in vars(cond)
        a = cond.A_g.csr
        for g in s.asp.groups:
            blocks = _per_patch_blocks(a, g)
            assert list(g.cls) == _bit_classes(blocks)
            assert np.array_equal(g.first, np.unique(g.cls, return_index=True)[1])
        n_classes = sum(g.first.size for g in s.asp.groups)
        n_patches = sum(g.cls.size for g in s.asp.groups)
        assert (n_classes < n_patches) == (name != "jittered")

    def test_matrices_equal_per_patch_reference(self, patch_structure, tau, inv_lambda):
        _, s = patch_structure
        cond, asp, _ = s.row(ProblemParams(tau=tau, inv_lambda=inv_lambda))
        assert "A_g" not in vars(cond)
        _assert_per_patch_matrices(s, cond, asp)


# the texts the per-element check gave at alpha = 0.01
COERCIVITY = {
    ("cavity", 1): -2.189, ("cavity", 2): -3.089, ("cavity", 3): -2.951, ("cavity", 4): -3.867,
    ("step", 1): -2.214, ("step", 2): -3.110, ("step", 3): -2.972, ("step", 4): -3.891,
    ("jittered", 1): -2.228, ("jittered", 2): -3.336, ("jittered", 3): -3.105,
    ("jittered", 4): -4.201,
    ("two", 1): -2.632, ("two", 2): -3.475, ("two", 3): -3.341, ("two", 4): -4.336,
}


@pytest.mark.parametrize("name,k", list(COERCIVITY))
def test_coercivity_message_unchanged(monkeypatch, name, k):
    make_mesh, problem = MESHES[name]
    s = _structure(make_mesh(), problem, k)
    params = ProblemParams(alpha=0.01)
    block = assemble_saddle(s.mesh, s.spaces, params, s.essential, stacks=s.stacks)
    want = (
        f"element velocity block has a negative eigenvalue (relative {COERCIVITY[name, k]:.3e}); "
        "increase the penalty parameter alpha"
    )
    for chunk in (assembly._CHUNK, 63):
        monkeypatch.setattr(assembly, "_CHUNK", chunk)
        for condense in (eliminate_local, _former_eliminate_local):
            with pytest.raises(NotSPD) as exc:
                condense(block, s.condensed)
            assert str(exc.value) == want


class _Spy:
    """Records the batch size of every call of a numpy.linalg function."""

    def __init__(self, monkeypatch, name):
        self.sizes = []
        self.fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, self)

    def __call__(self, a, *args):
        self.sizes.append(a.shape[0])
        return self.fn(a, *args)


def _distinct_blocks(a, g):
    """The number of distinct blocks [D | A_ring] of the group of patches
    ``g``, whose M ``precond._class_matrices`` forms once each."""
    m = g.m
    cols = np.concatenate([g.take[:, :m], g.take[:, m:] - a.shape[0]], axis=1)
    blocks = np.stack([a[t[:m]][:, t].toarray() for t in cols])
    return len(np.unique(blocks.reshape(len(cols), -1).view(np.uint64), axis=0))


class TestWorkCounts:
    @pytest.mark.parametrize(
        "make_mesh,chunks",
        [(lambda: unit_square(16), [2]), (lambda: jittered_square(8), [128])],
    )
    def test_local_problems_per_row(self, monkeypatch, make_mesh, chunks):
        s = _structure(make_mesh(), "cavity", 2, "jacobi")
        block = assemble_saddle(s.mesh, s.spaces, ProblemParams(tau=1.0), s.essential, stacks=s.stacks)
        spy = _Spy(monkeypatch, "solve")
        eliminate_local(block, s.condensed)
        assert spy.sizes == chunks

    def test_local_problems_per_chunk_at_1_over_64(self, monkeypatch):
        s = build_structure("cavity", 64, 2, "jacobi")
        block = assemble_saddle(s.mesh, s.spaces, ProblemParams(tau=1.0), s.essential, stacks=s.stacks)
        spy = _Spy(monkeypatch, "solve")
        eliminate_local(block, s.condensed)
        assert spy.sizes == [2] * 16  # 8192 elements in 16 chunks

    def test_local_problems_with_a_body_force(self, monkeypatch):
        """Distinct loads refine the classes: on the unit square every
        element's load differs."""
        s = _structure(unit_square(8), "cavity", 2, "jacobi")
        params = ProblemParams(tau=1.0)
        block = assemble_saddle(
            s.mesh, s.spaces, params, s.essential, body_force=_force, stacks=s.stacks
        )
        spy = _Spy(monkeypatch, "solve")
        eliminate_local(block, s.condensed)
        assert spy.sizes == [128]

    @pytest.mark.parametrize("problem,n,k,total", [("cavity", 16, 2, 19), ("step", 8, 3, 17)])
    def test_patch_matrices_per_row(self, monkeypatch, problem, n, k, total):
        s = build_structure(problem, n, k)
        cond = s.row(ProblemParams(tau=1.0, inv_lambda=1.0))[0]
        spy = _Spy(monkeypatch, "inv")
        build_asp(cond, structure=s.asp)
        want = [_distinct_blocks(cond.A_g.csr, g) for g in s.asp.groups]
        assert spy.sizes == want
        assert sum(spy.sizes) == total
