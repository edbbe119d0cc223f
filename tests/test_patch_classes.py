"""The patch smoother as one gathered product per patch: since (A z)_p =
D z_p + A_ring z_ring, a patch's block Gauss-Seidel correction is the
assignment z_p = M [r_p | z_ring], M = [D^-1 | -D^-1 A_ring]. The patches of
one group whose blocks [D | A_ring] are equal bit for bit share one M, and
the classes of one colour with an equal count of patches that reach
``precond._CLASS_MIN`` together are solved as one stack, one GEMM per class.
The sweep is checked against a dense multiplicative Schwarz sweep."""

import numpy as np
import pytest

from divhdg import precond
from divhdg.assembly import ProblemParams
from divhdg.bench import build_structure
from divhdg.mesh import unit_square

from conftest import (
    colour_patches,
    colour_sweep,
    filled_colours,
    jittered_square,
    patch_matrices,
    swept_colours,
)
from test_element_classes import _structure

PARAMS = ProblemParams(tau=1.0, inv_lambda=1.0)
U = np.finfo(float).eps / 2  # unit roundoff


def _gamma(n):
    return n * U / (1 - n * U)


@pytest.fixture(scope="module", params=[("cavity", 16, 2), ("step", 8, 3)], ids=str)
def row(request):
    """(problem, structure, condensed system, ASP) of one row on a mesh
    whose colours hold classes."""
    s = build_structure(*request.param)
    cond, asp, _ = s.row(PARAMS)
    return request.param[0], s, cond, asp


def _own_matrix(a, ids, ring):
    """M = [D^-1 | -D^-1 A_ring] of one patch, from its block [D | A_ring]
    gathered by scipy's own indexing."""
    m = ids.size
    block = a[ids][:, np.r_[ids, ring]].toarray()[None]
    dinv = np.linalg.inv(block[:, :, :m])
    return np.concatenate([dinv, -(dinv @ block[:, :, m:])], axis=2)[0]


def _dense_sweep(a, colours, r):
    """One multiplicative Schwarz sweep on dense A_g, kept as reference:
    the patches in colour order, each solved exactly with np.linalg.solve
    against its residual r - A z, forward over the colours, then backward
    without the last."""
    z = np.zeros_like(r)
    for colour in colours + colours[-2::-1]:
        for ids in colour:
            z[ids] += np.linalg.solve(a[np.ix_(ids, ids)], r[ids] - a[ids] @ z)
    return z


class TestSweepMatrices:
    # the stacks (one np.matmul each) of the row's colours: at cavity 1/h=16
    # the interior class of each colour, and the walls' classes of 7 and 6
    # patches in 6 stacks; on the step only lone classes of 12 to 41
    STACKS = {"cavity": 10, "step": 12}

    def test_class_matrix_is_every_members_own(self, row):
        problem, _, cond, asp = row
        a = cond.A_g.csr
        n_stacks = 0
        for blk in swept_colours(asp):
            for ids, ring, mat in patch_matrices(blk, cond.n_free):
                assert np.array_equal(mat, _own_matrix(a, ids, ring))
            n_stacks += sum(p > 1 for p, _ in blk.parts)
        assert n_stacks == self.STACKS[problem]

    def test_ring_is_the_columns_outside_the_patch(self, row):
        """A patch's ring unknowns are exactly the columns of its rows of A_g
        outside the patch, each once, and they cover the stored entries of
        those rows with the patch's own."""
        _, s, cond, _ = row
        a = cond.A_g.csr
        for colour in colour_patches(s.asp):
            for ids, ring in colour:
                cols = np.unique(a[ids].indices)
                assert np.array_equal(np.sort(ring), np.setdiff1d(cols, ids))
                assert np.unique(ring).size == ring.size
                assert a[ids][:, np.r_[ids, ring]].nnz == a[ids].nnz

    def test_parts_tile_the_colours(self, row):
        """Each colour's parts tile its rows and gathers and hold each of the
        structure's patches whole, in exactly one part. A stack ``(p, group,
        sel)`` holds the C classes ``sel`` of one group that have p >= 2 of
        the colour's patches each, C p >= ``_CLASS_MIN`` together. A tail
        holds no count >= 2 whose classes reach ``_CLASS_MIN`` together, and
        its patches keep the structure's order."""
        _, s, cond, asp = row
        n = cond.n_free
        for c, (given, planned, blk) in enumerate(
            zip(colour_patches(s.asp), s.asp.colours, swept_colours(asp))
        ):
            got = patch_matrices(blk, n)
            assert blk.rows.size == sum(ids.size for ids, _, _ in got)
            assert np.array_equal(blk.rows, np.concatenate([ids for ids, _, _ in got]))
            assert sorted(ids.tolist() for ids, _, _ in got) == sorted(
                ids.tolist() for ids, _ in given
            )
            lo = 0
            tail = []
            for (p, gi, sel), (q, mat) in zip(planned.parts, blk.parts):
                g = s.asp.groups[gi]
                size = np.bincount(g.cls[g.ends[c] : g.ends[c + 1]])
                assert q == p and mat.shape[0] == sel.size
                if p > 1:
                    assert np.all(size[sel] == p) and sel.size * p >= precond._CLASS_MIN
                else:
                    counts = size[sel]
                    for count in np.unique(counts[counts > 1]):
                        assert count * np.count_nonzero(size == count) < precond._CLASS_MIN
                    tail += [tuple(ids) for ids, _, _ in got[lo : lo + sel.size]]
                lo += sel.size * p
            in_tail = set(tail)
            assert tail == [tuple(ids) for ids, _ in given if tuple(ids) in in_tail]

    def test_product_within_the_dot_product_bound(self, row):
        """Each entry of a patch's new z_p is a dot product of m + w terms, a
        row of M with the gathered v = [r_p | z_ring]. Whatever the
        summation order (the GEMM's blocking, FMA, or the batched
        matrix-vector product), a computed n-term dot product differs from
        the exact one by at most gamma_n |M| |v|, gamma_n = n u / (1 - n u),
        u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
        2nd ed., eq. 3.5). Two such results differ by at most twice that;
        |M| |v| is itself computed with nonnegative terms, which the bound
        allows for by the factor 1 / (1 - gamma_n). Each colour's planned
        step (``_Colour.step``) is checked as the first of a sweep and as a
        later one, so a stack of several classes (cavity) is checked
        too."""
        problem, s, cond, _ = row
        stacked = any(p > 1 and sel.size > 1 for c in s.asp.colours for p, _, sel in c.parts)
        assert stacked == (problem == "cavity")
        n = cond.n_free
        rng = np.random.default_rng(21)
        for first in (True, False):
            for planned, blk in zip(s.asp.colours, filled_colours(s.asp, cond)):
                rz = np.concatenate([rng.standard_normal(n), rng.standard_normal(n)])
                z = rz[n:]
                want, bound = z.copy(), z.copy()
                for ids, ring, mat in patch_matrices(blk, n):
                    v = rz[np.r_[ids, n + ring]]
                    if first:
                        mat, v = mat[:, : ids.size], v[: ids.size]
                    want[ids] = [row_ @ v for row_ in mat]
                    g = _gamma(v.size)
                    bound[ids] = 2 * g / (1 - g) * (np.abs(mat) @ np.abs(v))
                mats = [mat for _, mat in blk.parts]
                step = planned.step(mats, first, np.empty(blk.take.size), np.empty(blk.rows.size))
                step.run(rz, z)
                assert np.all(np.abs(z[blk.rows] - want[blk.rows]) <= bound[blk.rows])

    def test_matrices_held_by_class(self, row):
        """A row's sweep holds (stacked classes + tail patches) m (m + w)
        floats, each part's C M's in an array of its own, which the steps
        multiply through views, instead of one M per patch: 7% of that at
        cavity 1/h=16, whose walls' classes are stacked, and 10% on the step
        at 1/h=8."""
        _, s, _, asp = row
        held = {}
        for step in asp.sweep:
            for _, mt, _ in step.products:
                assert mt.base.shape[0] == mt.shape[0]
                held[id(mt.base)] = mt.base.nbytes
        per_patch = sum(g.take.shape[0] * g.m * g.take.shape[1] * 8 for g in s.asp.groups)
        assert sum(held.values()) < per_patch / 8


@pytest.mark.parametrize(
    "case",
    [("cavity", 4, 2), ("step", 2, 3), ("jittered", 4, 2), ("cavity", 16, 2)],
    ids=str,
)
def test_sweep_equals_dense_multiplicative_schwarz(case):
    """The sweep against ``_dense_sweep`` on the structure's own patches and
    colours. Bound: each of the 2C - 1 colour steps computes, for each
    patch, the exact solution of a system with its block D up to the
    rounding of a factorization and of a product of at most m + w terms;
    to first order its relative error is at most gamma_{m+w} kappa(D)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sections 3.5 and 7.1). Block Gauss-Seidel contracts the error of the
    earlier steps in A_g's energy norm, so the steps' errors add, and the
    two computations differ by at most twice (2C - 1) gamma_{m+w}
    max kappa(D) relative to the largest entry of z."""
    problem, inv_h, k = case
    if problem == "jittered":
        s = _structure(jittered_square(inv_h), "cavity", k)
    else:
        s = build_structure(problem, inv_h, k)
    cond, asp, _ = s.row(PARAMS)
    a = cond.A_g.toarray()
    colours = [[ids for ids, _ in colour] for colour in colour_patches(s.asp)]
    kappa = max(np.linalg.cond(a[np.ix_(ids, ids)]) for colour in colours for ids in colour)
    width = max(g.take.shape[1] for g in s.asp.groups)
    bound = 2 * (2 * len(colours) - 1) * _gamma(width) * kappa
    if case == ("cavity", 16, 2):  # a stack of classes of fewer than _CLASS_MIN patches
        assert any(
            1 < p < precond._CLASS_MIN and sel.size > 1
            for c in s.asp.colours
            for p, _, sel in c.parts
        )
    rng = np.random.default_rng(8)
    for _ in range(3):
        r = rng.standard_normal(cond.n_free)
        want = _dense_sweep(a, colours, r)
        assert np.abs(asp.smooth(r) - want).max() <= bound * np.abs(want).max()


PLAN_CASES = {
    "cavity-4": lambda: build_structure("cavity", 4, 2),
    "cavity-16": lambda: build_structure("cavity", 16, 2),
    "step-2": lambda: build_structure("step", 2, 3),
    "step-8": lambda: build_structure("step", 8, 3),
    "mixed": lambda: _structure(unit_square(7), "cavity", 2),
    "jittered": lambda: _structure(jittered_square(4), "cavity", 2),  # no class
    "step-k1": lambda: build_structure("step", 4, 1),  # 3 unknowns per edge
    "step-k4": lambda: build_structure("step", 4, 4),  # 9 unknowns per edge
}


def _former_sweep(structure, cond, r):
    """The sweep before stacks, kept as reference: per group and colour one
    two-dimensional GEMM per class of at least ``_CLASS_MIN`` of the
    colour's patches, and the group's other patches, in their given order,
    one batched matrix-vector product, each against its own M."""
    n = cond.n_free
    colours = [[] for _ in range(len(structure.colours))]
    for g in structure.groups:
        mats = precond._class_matrices(cond, g)
        for c, (lo, hi) in enumerate(zip(g.ends[:-1], g.ends[1:])):
            cc, take = g.cls[lo:hi], g.take[lo:hi]
            size = np.bincount(cc)
            big = np.flatnonzero(size >= precond._CLASS_MIN)
            colours[c] += [(take[cc == j], mats[j]) for j in big]
            tail = size[cc] < precond._CLASS_MIN
            if tail.any():
                colours[c].append((take[tail], mats[cc[tail]]))
    rz = np.concatenate([r, np.zeros_like(r)])
    for i, colour in enumerate(colours + colours[-2::-1]):
        new = []
        for take, mat in colour:
            m = mat.shape[-2]
            w = m if i == 0 else mat.shape[-1]
            x = rz[take[:, :w]]
            if mat.ndim == 2:
                new.append((take[:, :m], x @ mat[:, :w].T))
            else:
                new.append((take[:, :m], np.matmul(mat[:, :, :w], x[:, :, None])[:, :, 0]))
        for rows, y in new:
            rz[n + rows] = y
    return rz[n:]


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_structure("cavity", 32, 2),  # stacks of 4 and 2 classes of 14 or 15
        lambda: build_structure("step", 8, 3),  # lone classes only
        lambda: _structure(jittered_square(4), "cavity", 2),  # no class of 2 patches
    ],
    ids=["cavity-32", "step-8", "jittered"],
)
def test_stacks_of_large_classes_equal_the_former_sweep(make):
    """Where every class of every stack holds at least ``_CLASS_MIN``
    patches, the stacks solve the classes that the former sweep solved by
    one GEMM each, with the same GEMM per class, and the tails hold the same
    patches: the sweep equals the former one bit for bit."""
    s = make()
    cond, asp, _ = s.row(PARAMS)
    assert all(p == 1 or p >= precond._CLASS_MIN for c in s.asp.colours for p, _, _ in c.parts)
    rng = np.random.default_rng(29)
    for _ in range(3):
        r = rng.standard_normal(cond.n_free)
        assert np.array_equal(asp.smooth(r), _former_sweep(s.asp, cond, r))


class TestSweepPlan:
    """A row's sweep is planned once (``precond._sweep_plan``): 2C - 1 colour
    steps whose gathers, products and writes go through views of two
    buffers fixed when the row is built."""

    def test_equal_count_classes_stacked(self):
        """At cavity 1/h=16 every wall's class is split across two colours,
        7 or 6 patches in each, fewer than ``_CLASS_MIN``; a colour's equal
        classes form one stack (``precond._colour_plan``), so no tail holds
        a class of more than one patch, and the sweep stays within rounding
        of the former one."""
        s = PLAN_CASES["cavity-16"]()
        stacks = [(p, sel.size) for c in s.asp.colours for p, _, sel in c.parts if p > 1]
        assert sorted(stacks) == [(6, 4), (7, 2), (7, 2), (7, 2), (7, 2), (7, 4)] + [
            (p, 1) for p in (36, 42, 42, 49)
        ]
        for c in s.asp.colours:
            for p, _, sel in c.parts:
                if p == 1:
                    assert np.unique(sel).size == sel.size
        cond, asp, _ = s.row(PARAMS)
        r = np.random.default_rng(30).standard_normal(cond.n_free)
        want = _former_sweep(s.asp, cond, r)
        # GEMM against batched matrix-vector rounding: 1.4e-16 relative here
        assert np.abs(asp.smooth(r) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize(
        "make,stacked",
        [
            (PLAN_CASES["cavity-16"], True),
            (lambda: _structure(unit_square(12), "cavity", 2), False),  # no class of 8
            (PLAN_CASES["jittered"], False),  # no class of two patches
        ],
        ids=["cavity-16", "tails-12", "jittered"],
    )
    def test_one_product_form_with_the_ms_taken_once(self, make, stacked):
        """Every part is a stack, x (C, p, w) @ M^T (C, w, m) -> y (C, p,
        m), the tail with p = 1, and each colour's forward and backward
        steps multiply the same M arrays, taken once per colour. Taking
        them once per step held every M twice and made the sweep slower
        where tails dominate: unit_square(12) went 153 -> 205 us and step 6
        k=3 236 -> 289 us per apply (minima of 300, one BLAS thread, 2-vCPU
        VM)."""
        s = make()
        cond, asp, _ = s.row(PARAMS)
        nc = len(s.asp.colours)
        assert len(asp.sweep) == 2 * nc - 1
        counts = set()
        for c in range(nc):
            fwd = asp.sweep[c]
            for x, mt, y in fwd.products:
                k, p, w = x.shape
                assert mt.shape[:2] == (k, w) and y.shape == (k, p, mt.shape[2])
                assert np.shares_memory(x, fwd.gathered) and np.shares_memory(y, fwd.out)
                counts.add(p)
            if c < nc - 1:
                bwd = asp.sweep[2 * nc - 2 - c]
                assert len(bwd.products) == len(fwd.products)
                for (_, a, _), (_, b, _) in zip(fwd.products, bwd.products):
                    assert np.shares_memory(a, b)
        assert min(counts) == 1
        assert (max(counts) > 1) == stacked

    @pytest.fixture(scope="class", params=list(PLAN_CASES))
    def planned(self, request):
        s = PLAN_CASES[request.param]()
        cond, asp, _ = s.row(PARAMS)
        return s, cond, asp

    def test_smooth_equals_the_colour_sequence(self, planned):
        """The planned sweep forms the same products on the same operands
        as the former per-colour steps (``conftest.correct``), so every
        iterate is equal bit for bit."""
        s, cond, asp = planned
        assert len(asp.sweep) == 2 * len(s.asp.colours) - 1
        colours = filled_colours(s.asp, cond)
        rng = np.random.default_rng(27)
        for _ in range(3):
            r = rng.standard_normal(cond.n_free)
            assert np.array_equal(asp.smooth(r), colour_sweep(colours, r))

    def test_consecutive_sweeps_are_independent(self, planned):
        """Each call returns an array of its own: the buffers the steps
        share are not the result, so a second call leaves the first
        result as it was."""
        s, cond, asp = planned
        rng = np.random.default_rng(28)
        r1, r2 = rng.standard_normal(cond.n_free), rng.standard_normal(cond.n_free)
        z1 = asp.smooth(r1)
        kept = z1.copy()
        z2 = asp.smooth(r2)
        assert np.array_equal(z1, kept)
        assert not np.shares_memory(z1, z2)
        assert np.array_equal(z2, colour_sweep(filled_colours(s.asp, cond), r2))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_gather_outside_the_stack_rejected(self, planned, bad):
        """A step gathers with ``mode="clip"``, so the plan checks every
        index against the stacked [r | z] of 2n entries when it is built."""
        s, cond, asp = planned
        n = cond.n_free
        colours = s.asp.colours
        mats = [precond._class_matrices(cond, g) for g in s.asp.groups]
        blk = colours[-1]
        take = blk.take.copy()
        take[-1] = -1 if bad < 0 else bad * n
        broken = precond._Colour(rows=blk.rows, take=take, parts=blk.parts)
        with pytest.raises(ValueError, match="gather index"):
            precond._sweep_plan(colours[:-1] + [broken], mats, n)
        assert len(precond._sweep_plan(colours, mats, n)) == len(asp.sweep)
