"""The patch smoother applied by class: the patches of one colour and size
whose blocks of A_g are equal share one inverse, and a class of at least
``precond._CLASS_MIN`` patches is solved with one GEMM. The other patches
keep their own inverses and the former batched matrix-vector product."""

import numpy as np
import pytest

from divhdg import precond
from divhdg.assembly import ProblemParams
from divhdg.bench import build_structure

from conftest import jittered_square, patch_groups
from test_element_classes import _structure
from test_solve_identity import _former_correct

PARAMS = ProblemParams(tau=1.0, inv_lambda=1.0)


@pytest.fixture(scope="module", params=[("cavity", 16, 2), ("step", 8, 3)], ids=str)
def row(request):
    """(structure, condensed system, ASP) of one row on a mesh whose
    colours hold classes."""
    s = build_structure(*request.param)
    cond, asp, _ = s.row(PARAMS)
    return s, cond, asp


def _blocks(a, ids):
    """(P, m, m): the blocks of the sparse ``a`` on the patches ``ids``
    (P, m), by scipy's own indexing."""
    return np.stack([a[p][:, p].toarray() for p in ids])


def _patches(rows, lo, hi, m):
    return rows[lo:hi].reshape(-1, m)


def _former_sweep(a, structure, r):
    """One patch-SGS sweep as before classes: the structure's patches in its
    order, each solved with np.linalg.inv of its block gathered by scipy,
    by the batched matrix-vector product, and the residual formed from the
    whole row slice in both passes (the forward pass's iterate is +0.0 on
    the columns it drops, which leaves the sums unchanged)."""
    colours = []
    for pattern in structure.colours:
        groups = []
        for lo, hi, rank in pattern.groups:
            ids = _patches(pattern.rows, lo, hi, (hi - lo) // rank.shape[0])
            groups.append((lo, hi, np.linalg.inv(_blocks(a, ids))))
        colours.append((pattern.rows, groups, a[pattern.rows]))
    z = np.zeros_like(r)
    for rows, groups, a_rows in colours + colours[-2::-1]:
        res = r[rows] - a_rows @ z
        for lo, hi, inv in groups:
            p, m, _ = inv.shape
            res[lo:hi] = (inv @ res[lo:hi].reshape(p, m, 1)).ravel()
        z[rows] += res
    return z


class TestClasses:
    def test_class_inverse_is_inv_of_every_member(self, row):
        _, cond, asp = row
        a = cond.A_g.csr
        n_classes = 0
        for blk in asp.colours:
            for lo, hi, inv in blk.classes:
                blocks = _blocks(a, _patches(blk.rows, lo, hi, inv.shape[0]))
                for block in blocks:
                    assert np.array_equal(inv, np.linalg.inv(block))
                n_classes += 1
            for lo, hi, inv in blk.tails:
                blocks = _blocks(a, _patches(blk.rows, lo, hi, inv.shape[1]))
                for want, block in zip(inv, blocks):
                    assert np.array_equal(want, np.linalg.inv(block))
        assert n_classes == 8

    def test_each_class_is_one_slice(self, row):
        s, _, asp = row
        for pattern, blk in zip(s.asp.colours, asp.colours):
            # classes, then the tail, per patch size: the slices tile the rows
            spans = sorted((lo, hi) for lo, hi, _ in blk.classes + blk.tails)
            assert spans[0][0] == 0 and spans[-1][1] == blk.rows.size
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            # every patch with a class's inverse lies in the class's slice, and
            # no tail holds _CLASS_MIN patches with one inverse
            where = {}
            for lo, hi, inv in patch_groups(blk):
                m = inv.shape[1]
                for i, b in enumerate(inv):
                    where.setdefault((m, b.tobytes()), []).append(lo + i * m)
            for lo, hi, inv in blk.classes:
                m = inv.shape[0]
                assert (hi - lo) // m >= precond._CLASS_MIN
                assert where[m, inv.tobytes()] == list(range(lo, hi, m))
            for lo, hi, inv in blk.tails:
                for b in inv:
                    starts = where[inv.shape[1], b.tobytes()]
                    assert len(starts) < precond._CLASS_MIN
                    assert all(lo <= t < hi for t in starts)
            # the tail patches keep the structure's order; a patch stays whole
            tail = [
                tuple(p)
                for lo, hi, inv in blk.tails
                for p in _patches(blk.rows, lo, hi, inv.shape[1])
            ]
            given = [
                tuple(p)
                for lo, hi, rank in pattern.groups
                for p in _patches(pattern.rows, lo, hi, (hi - lo) // rank.shape[0])
            ]
            in_tail = set(tail)
            assert tail == [p for p in given if p in in_tail]
            assert np.array_equal(np.sort(blk.rows), np.sort(pattern.rows))

    def test_correction_within_the_dot_product_bound(self, row):
        """Each entry of a patch's solve is a dot product of m terms, inv's
        row with the residual x. Whatever the summation order (the GEMM's
        blocking, FMA, or the batched matrix-vector product), a computed
        m-term dot product differs from the exact one by at most
        gamma_m |inv| |x|, gamma_m = m u / (1 - m u), u = 2^-53 (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 3.5).
        Two such results differ by at most twice that. With z = 0 the
        residual x = r[rows] - a @ 0 is exact in both, and z = 0 + y is y,
        so the corrections differ only by the two solves. |inv| |x| is
        itself computed with nonnegative terms, which the bound allows for
        by the factor 1 / (1 - gamma_m)."""
        _, cond, asp = row
        rng = np.random.default_rng(21)
        u = np.finfo(float).eps / 2
        for blk in asp.colours:
            r = rng.standard_normal(cond.n_free)
            got, want = np.zeros_like(r), np.zeros_like(r)
            blk.correct(r, got, blk.a_rows)
            _former_correct(blk, r, want)
            x = r[blk.rows]
            bound = np.empty_like(x)
            for lo, hi, inv in patch_groups(blk):
                p, m, _ = inv.shape
                gamma = m * u / (1 - m * u)
                scale = (np.abs(inv) @ np.abs(x[lo:hi]).reshape(p, m, 1)).ravel()
                bound[lo:hi] = 2 * gamma / (1 - gamma) * scale
            diff = np.abs(got[blk.rows] - want[blk.rows])
            assert np.all(diff <= bound)

    def test_inverses_held_by_class(self, row):
        """A row's colours hold (classes + tail patches) m^2 floats, each in
        an array of its own, instead of P m^2."""
        _, _, asp = row
        held = per_patch = 0
        for blk in asp.colours:
            for _, _, inv in blk.classes + blk.tails:
                assert inv.base is None
                held += inv.nbytes
            per_patch += sum(inv.nbytes for _, _, inv in patch_groups(blk))
        want = sum(
            8 * inv.shape[-1] ** 2 * (1 if inv.ndim == 2 else inv.shape[0])
            for blk in asp.colours
            for _, _, inv in blk.classes + blk.tails
        )
        assert held == want
        assert held < per_patch / 4


def test_singleton_classes_sweep_bit_identical():
    """On a jittered mesh no two patch blocks are equal, so every patch is
    in the tail, the rows keep the structure's order and the sweep gives
    the bits of the per-patch reference."""
    s = _structure(jittered_square(8), "cavity", 2)
    cond, asp, _ = s.row(PARAMS)
    rng = np.random.default_rng(8)
    for pattern, blk in zip(s.asp.colours, asp.colours):
        assert blk.classes == []
        assert np.array_equal(blk.rows, pattern.rows)
    for _ in range(3):
        r = rng.standard_normal(cond.n_free)
        assert np.array_equal(asp.smooth(r), _former_sweep(cond.A_g.csr, s.asp, r))
