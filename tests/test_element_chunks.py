"""A row's element work streamed in chunks of elements: the same bits as one
chunk, the same coercivity failure, a transient memory peak of a few chunks'
element stacks, and no per-element local solutions kept by the row."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from divhdg import assembly
from divhdg.assembly import (
    ProblemParams,
    _element_coercivity_check,
    assemble_local_stacks,
    assemble_saddle,
    element_chunks,
)
from divhdg.bench import ExperimentGrid, Structure, build_structure, run_grid
from divhdg.condense import back_substitute, condensed_structure, eliminate_local
from divhdg.linalg import NotSPD
from divhdg.mesh import step_domain, unit_square
from divhdg.precond import asp_structure, schur_structure
from divhdg.spaces import build_spaces, interpolate_essential

from conftest import jittered_square

# OpenBLAS can compute a GEMM with a small output (below about 1200 entries)
# in a kernel that rounds differently (see ``element_chunks``). Every chunk of
# at most 63 elements on these meshes holds at least 32, so even the k = 1
# coefficient GEMM (45 columns) stays out of it; odd, so chunks are uneven.
SMALL_CHUNK = 63
ONE_CHUNK = 10**9

MESHES = {
    "cavity": (lambda: unit_square(8), "cavity"),  # 128 elements, 3 chunks
    "step": (lambda: step_domain(4), "step"),  # 120 elements, 2 chunks
    "jittered": (lambda: jittered_square(8), "cavity"),  # 128 elements, 3 chunks
}


def _structure(name, k) -> Structure:
    """The ``build_structure`` of one of ``MESHES``, the jittered mesh
    included."""
    make_mesh, problem = MESHES[name]
    mesh = make_mesh()
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
        asp=asp_structure(spaces, condensed, "patch-sgs"),
        schur=schur_structure(mesh),
    )


def _substituted(cond):
    """``back_substitute`` of a fixed random condensed solution: the local
    solutions, read through the recovered interiors."""
    rng = np.random.default_rng(5)
    return back_substitute(
        cond, rng.standard_normal(cond.n_free), rng.standard_normal(cond.n_pbar)
    )


def _assert_same_condensed(got, want):
    """``got`` and ``want`` are (cond, ``_substituted(cond)``), each taken
    under its own chunk size."""
    (got, got_sub), (want, want_sub) = got, want
    assert np.array_equal(got.A_g.csr.indptr, want.A_g.csr.indptr)
    assert np.array_equal(got.A_g.csr.indices, want.A_g.csr.indices)
    assert np.array_equal(got.A_g.csr.data, want.A_g.csr.data)
    assert np.array_equal(got.F_g, want.F_g)
    for g, w in zip(got_sub, want_sub):
        assert np.array_equal(g, w)
    assert np.array_equal(got.block.aloc, want.block.aloc)


class TestChunkBoundaries:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["cavity", "step", "jittered"])
    def test_row_bit_identical_to_one_chunk(self, monkeypatch, name, k):
        s = _structure(name, k)
        params = ProblemParams(mu=0.7, tau=3.0, inv_lambda=1e-2)
        conds = {}
        for chunk in (ONE_CHUNK, SMALL_CHUNK):
            monkeypatch.setattr(assembly, "_CHUNK", chunk)
            cond = s.row(params)[0]
            conds[chunk] = cond, _substituted(cond)
        chunks = list(element_chunks(s.mesh.num_triangles))
        assert len(chunks) > 1 and min(c.stop - c.start for c in chunks) >= 32
        _assert_same_condensed(conds[SMALL_CHUNK], conds[ONE_CHUNK])
        # the chunks of ``combine`` put together are the whole-mesh stack
        whole = np.concatenate([s.stacks.combine(params, k, c) for c in chunks])
        assert np.array_equal(whole, conds[SMALL_CHUNK][0].block.aloc)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["cavity", "step", "jittered"])
    def test_back_substitute_bit_identical_to_one_chunk(self, monkeypatch, name, k):
        s = _structure(name, k)
        cond = s.row(ProblemParams(mu=0.7, tau=3.0, inv_lambda=1e-2))[0]
        subs = {}
        for chunk in (ONE_CHUNK, SMALL_CHUNK):
            monkeypatch.setattr(assembly, "_CHUNK", chunk)
            subs[chunk] = _substituted(cond)
        for got, want in zip(subs[SMALL_CHUNK], subs[ONE_CHUNK]):
            assert np.array_equal(got, want)
        # the interior unknowns are recovered, not left at 0
        assert np.all(subs[ONE_CHUNK][1][s.mesh.num_triangles :] != 0.0)

    @pytest.mark.parametrize("name,k", [("cavity", 2), ("step", 3), ("jittered", 4)])
    def test_body_force_bit_identical_to_one_chunk(self, monkeypatch, name, k):
        s = _structure(name, k)
        params = ProblemParams(tau=1.0, inv_lambda=1.0)

        def force(x):
            return np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] * x[:, 1]])

        conds = {}
        for chunk in (ONE_CHUNK, SMALL_CHUNK):
            monkeypatch.setattr(assembly, "_CHUNK", chunk)
            block = assemble_saddle(
                s.mesh, s.spaces, params, s.essential, body_force=force, stacks=s.stacks
            )
            cond = eliminate_local(block, s.condensed)
            conds[chunk] = cond, _substituted(cond)
        assert np.array_equal(conds[SMALL_CHUNK][0].block.floc, conds[ONE_CHUNK][0].block.floc)
        assert np.abs(conds[ONE_CHUNK][0].F_g).max() > 0
        _assert_same_condensed(conds[SMALL_CHUNK], conds[ONE_CHUNK])


class TestCoercivityAcrossChunks:
    def test_every_chunk_names_the_worst_element_of_the_mesh(self, monkeypatch):
        s = _structure("jittered", 2)
        params = ProblemParams(alpha=0.01)
        texts = {}
        for chunk in (ONE_CHUNK, SMALL_CHUNK):
            monkeypatch.setattr(assembly, "_CHUNK", chunk)
            with pytest.raises(NotSPD) as exc:
                s.row(params)
            texts[chunk] = str(exc.value)
        assert texts[SMALL_CHUNK] == texts[ONE_CHUNK]
        assert "relative" in texts[ONE_CHUNK]

        own = []
        for c in element_chunks(s.mesh.num_triangles):
            with pytest.raises(NotSPD) as exc:
                s.stacks.combine(params, 2, c)
            assert str(exc.value) == texts[ONE_CHUNK]
            # the check of this chunk's elements alone
            with pytest.raises(NotSPD) as exc:
                _element_coercivity_check(s.stacks._combined(params, 2, c))
            own.append(str(exc.value))
        # on the jittered mesh some chunk's own worst is not the mesh's, so
        # the equality above is not the first chunk's text by chance
        assert any(t != texts[ONE_CHUNK] for t in own)

    def test_run_grid_returns_the_failed_row(self, monkeypatch):
        grid = ExperimentGrid(problem="cavity", ks=[2], inv_hs=[8], alpha=0.01)
        errors = {}
        for chunk in (ONE_CHUNK, SMALL_CHUNK):
            monkeypatch.setattr(assembly, "_CHUNK", chunk)
            rows = run_grid(grid)
            assert len(rows) == 1 and not rows[0].converged
            errors[chunk] = rows[0].error
        assert errors[SMALL_CHUNK] == errors[ONE_CHUNK]
        assert errors[ONE_CHUNK].startswith(
            "NotSPD: element velocity block has a negative eigenvalue (relative "
        )


def _arrays(obj, seen):
    """Every numpy array reachable from ``obj`` through the attributes of
    this library's objects and of sparse matrices, and through containers."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item, seen)
    elif sp.issparse(obj) or type(obj).__module__.startswith("divhdg."):
        for item in vars(obj).values():
            yield from _arrays(item, seen)


class TestRowMemory:
    @pytest.mark.parametrize("name,k", [("cavity", 2), ("step", 3)])
    def test_row_keeps_no_local_solutions(self, name, k):
        """Nothing the row returns holds a per-element (nt, n_L, .) array,
        such as the local solutions K_LL^-1 [K_LG | F_L]: only
        ``back_substitute`` reads them, and it solves them again."""
        s = _structure(name, k)
        row = s.row(ProblemParams(tau=1.0, inv_lambda=1.0))
        n_L = s.spaces.dofmap.n_loc_int + s.spaces.ref.n_int_d
        shapes = [a.shape for a in _arrays(row, set())]
        assert (s.mesh.num_triangles, s.spaces.dofmap.n_loc) in shapes  # the walk reached floc
        assert not [sh for sh in shapes if sh[:2] == (s.mesh.num_triangles, n_L)]

    @pytest.mark.parametrize("name,k", [("cavity", 2), ("step", 3), ("jittered", 4)])
    def test_structure_keeps_no_per_entry_map(self, name, k):
        """The condensed structure keeps no array with an entry per element
        matrix entry, nt n_G^2, such as a table of A_g's data position of
        every condensed block entry: ``TracePattern.slots`` computes them per
        chunk from its (nt, n_G) row starts."""
        s = _structure(name, k)
        nt = s.mesh.num_triangles
        n_G = s.condensed.g_slot_idx.size
        arrays = list(_arrays(s.condensed, set()))
        assert any(a is s.condensed.a_g.row_start for a in arrays)  # the walk reached them
        assert not [a.shape for a in arrays if a.size >= nt * n_G * n_G]

    @pytest.mark.parametrize("name,k", [("cavity", 2), ("step", 3), ("jittered", 4)])
    def test_asp_structure_keeps_no_positions(self, name, k):
        """The patch smoother's structure keeps free-edge data only: no array
        with an entry per patch block entry, Σ P m (m + w), nor per entry of
        A_g, such as positions of the patch blocks in A_g's data. A row
        computes those from A_g's row starts. The groups' arrays together
        hold fewer entries than A_g."""
        s = _structure(name, k)
        nnz = s.condensed.a_g.nnz
        blocks = sum(g.take.size * g.m for g in s.asp.groups)
        arrays = list(_arrays(s.asp, set()))
        assert any(a is s.asp.groups[0].take for a in arrays)  # the walk reached the groups
        assert not [a.shape for a in arrays if a.size >= min(nnz, blocks)]
        patch_data = list(_arrays(s.asp.groups, set()))
        assert sum(a.size for a in patch_data) < nnz

    def test_narrow_index_tables(self):
        """The per-element index tables that live for the sweep are int32,
        the orientation signs int8, and a right side without a body force is
        a read-only zero that takes no memory."""
        s = _structure("cavity", 2)
        dm = s.spaces.dofmap
        assert dm.vel_loc.dtype == np.int32 and s.condensed.g_slots.dtype == np.int32
        assert dm.signs.dtype == np.int8 and set(np.unique(dm.signs)) == {-1, 1}
        floc = s.row(ProblemParams(tau=1.0))[0].block.floc
        assert floc.strides == (0, 0) and not floc.flags.writeable
        assert floc.shape == (s.mesh.num_triangles, dm.n_loc) and not floc.any()

    def test_transient_peak_below_one_element_stack(self, monkeypatch):
        """Bound: what ``Structure.row`` returns (the condensed system, with
        A_g's values, and the preconditioners) is still allocated after the
        call, so the growth of the traced memory at its end, ``kept``, counts
        it. Everything above ``kept`` during the call is transient. Streamed
        in chunks of 255 elements (9 chunks of nt = 2048, at most 228
        elements each), the transient peak is 3.1 element stacks of one
        chunk: the chunk's element matrices, the coercivity check's shifted
        copy and its Cholesky factor, and the (nt, n_G) trace right sides and
        lifts (measured 1.81 MB against 0.59 MB for one chunk's stack). The
        whole-mesh code held one (nt, n_loc, n_loc) stack with at least two
        more of its size: 13.7 MB, 23 chunk stacks. The Jacobi smoother keeps
        the patch inverses out of the row."""
        monkeypatch.setattr(assembly, "_CHUNK", 255)
        s = build_structure("cavity", 32, 2, "jacobi")
        params = ProblemParams(tau=1.0, inv_lambda=1.0)
        s.row(params)  # per-degree caches are filled before tracing
        n_loc = s.spaces.dofmap.n_loc
        nt = s.mesh.num_triangles
        largest = max(c.stop - c.start for c in element_chunks(nt))
        chunk_stack_bytes = largest * n_loc * n_loc * 8
        tracemalloc.start()
        try:
            row = s.row(params)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row[0].n_free > 0
        assert peak - kept < 4 * chunk_stack_bytes
