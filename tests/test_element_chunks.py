"""A row's element work streamed in chunks of elements: the same bits as one
chunk, the same coercivity failure, and a transient memory peak below one
whole-mesh element stack."""

import tracemalloc

import numpy as np
import pytest

from divhdg import assembly
from divhdg.assembly import (
    ProblemParams,
    _element_coercivity_check,
    assemble_local_stacks,
    assemble_saddle,
    element_chunks,
)
from divhdg.bench import ExperimentGrid, Structure, build_structure, run_grid
from divhdg.condense import condensed_structure, eliminate_local
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
    condensed = condensed_structure(spaces, ess)
    return Structure(
        mesh=mesh,
        spaces=spaces,
        essential=ess,
        stacks=assemble_local_stacks(mesh, spaces),
        condensed=condensed,
        asp=asp_structure(spaces, ess, condensed.a_g.positions, "patch-sgs"),
        schur=schur_structure(mesh),
    )


def _assert_same_condensed(got, want):
    assert np.array_equal(got.A_g.csr.indptr, want.A_g.csr.indptr)
    assert np.array_equal(got.A_g.csr.indices, want.A_g.csr.indices)
    assert np.array_equal(got.A_g.csr.data, want.A_g.csr.data)
    assert np.array_equal(got.F_g, want.F_g)
    assert np.array_equal(got.back_x, want.back_x)
    assert np.array_equal(got.back_y, want.back_y)
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
            conds[chunk] = s.row(params)[0]
        chunks = list(element_chunks(s.mesh.num_triangles))
        assert len(chunks) > 1 and min(c.stop - c.start for c in chunks) >= 32
        _assert_same_condensed(conds[SMALL_CHUNK], conds[ONE_CHUNK])
        # the chunks of ``combine`` put together are the whole-mesh stack
        whole = np.concatenate([s.stacks.combine(params, k, c) for c in chunks])
        assert np.array_equal(whole, conds[SMALL_CHUNK].block.aloc)

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
            conds[chunk] = eliminate_local(block, s.condensed)
        assert np.array_equal(conds[SMALL_CHUNK].block.floc, conds[ONE_CHUNK].block.floc)
        assert np.abs(conds[ONE_CHUNK].F_g).max() > 0
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


class TestRowMemory:
    def test_transient_peak_below_one_element_stack(self, monkeypatch):
        """Bound: what ``Structure.row`` returns (the condensed system, with
        A_g's values, back_x and back_y, and the preconditioners) is still
        allocated after the call, so the growth of the traced memory at its
        end, ``kept``, counts it. Everything above ``kept`` during the call
        is transient. The whole-mesh code held the (nt, n_loc, n_loc)
        float64 element stack together with at least two more arrays of its
        size (the coercivity check's shifted copy and Cholesky factor, or
        the condensed blocks and their correction), so its transient peak
        exceeds one stack: 13.7 MB against 5.3 MB for one stack here.
        Streamed in chunks of 255 elements (9 chunks of nt = 2048), each
        per-chunk temporary is about a ninth of a stack: 1.5 MB measured.
        The Jacobi smoother keeps the patch inverses out of the row."""
        monkeypatch.setattr(assembly, "_CHUNK", 255)
        s = build_structure("cavity", 32, 2, "jacobi")
        params = ProblemParams(tau=1.0, inv_lambda=1.0)
        s.row(params)  # per-degree caches are filled before tracing
        n_loc = s.spaces.dofmap.n_loc
        stack_bytes = s.mesh.num_triangles * n_loc * n_loc * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            row = s.row(params)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row[0].n_free > 0
        assert peak - base < stack_bytes + (kept - base)
