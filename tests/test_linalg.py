import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from divhdg.linalg import (
    PIVOT_TOL,
    CapExceeded,
    NotSPD,
    VERIFY_CAP,
    SparseSym,
    _band_layout,
    factor_spd,
    gen_condition,
    rcm_order,
)


def _sym(n, seed, spd_shift=0.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    if spd_shift:
        a += spd_shift * np.eye(n)
    return a


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = rng.uniform(0.5, 5.0, n)
    return q @ np.diag(d) @ q.T


class TestSpmv:
    """Sparse matrix-vector products through ``SparseSym.csr``."""

    def test_identity(self):
        a = SparseSym(sp.eye(3, format="csr"))
        assert np.array_equal(a.csr @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_row_sums(self):
        a = SparseSym(sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]])))
        assert np.array_equal(a.csr @ np.ones(2), [1.0, 1.0])

    def test_random_spd_matches_dense(self):
        d = _spd(50, 3)
        a = SparseSym(sp.csr_matrix(d))
        x = np.random.default_rng(4).standard_normal(50)
        assert np.max(np.abs(a.csr @ x - d @ x)) <= 1e-13 * np.abs(d @ x).max()

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 10**6))
    def test_sparse_dense_consistency(self, n, seed):
        d = _sym(n, seed)
        d[np.abs(d) < 0.5] = 0.0  # realistic sparsity
        d = 0.5 * (d + d.T)
        a = SparseSym(sp.csr_matrix(d))
        x = np.random.default_rng(seed + 1).standard_normal(n)
        ref = d @ x
        scale = max(np.abs(ref).max(), 1.0)
        assert np.max(np.abs(a.csr @ x - ref)) <= 1e-13 * scale


class TestFactorSpd:
    def test_diagonal(self):
        f = factor_spd(SparseSym(sp.diags([4.0, 9.0]).tocsr()))
        assert np.allclose(f.solve(np.array([4.0, 9.0])), [1.0, 1.0], atol=1e-14)

    def test_laplacian_matches_dense(self):
        d = 2.0 * np.eye(10) - np.eye(10, k=1) - np.eye(10, k=-1)
        f = factor_spd(SparseSym(sp.csr_matrix(d)))
        b = np.ones(10)
        assert np.allclose(f.solve(b), np.linalg.solve(d, b), atol=1e-12)

    def test_singular_graph_laplacian_rejected(self):
        d = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(NotSPD):
            factor_spd(SparseSym(sp.csr_matrix(d)))

    def test_empty_matrix_solves_empty_vector(self):
        f = factor_spd(SparseSym(sp.csr_matrix((0, 0))))
        assert f.n == 0
        x = f.solve(np.zeros(0))
        assert x.shape == (0,)
        with pytest.raises(ValueError, match="length mismatch"):
            f.solve(np.ones(1))

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_several_right_sides_equal_column_solves(self, n):
        # one LAPACK call on (n, 2), bit for bit the two column solves; an
        # empty factor returns the empty (0, 2), which LAPACK would reject
        d = 2.5 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        shuffle = np.random.default_rng(n).permutation(n)
        f = factor_spd(SparseSym(sp.csr_matrix(d[shuffle][:, shuffle])))
        b = np.random.default_rng(n + 1).standard_normal((n, 2))
        x = f.solve(b)
        assert x.shape == (n, 2)
        for j in range(2):
            assert np.array_equal(x[:, j], f.solve(b[:, j]))

    def test_wrong_length_rhs_rejected(self):
        f = factor_spd(SparseSym(sp.diags([4.0, 9.0]).tocsr()))
        with pytest.raises(ValueError, match="length mismatch"):
            f.solve(np.ones(3))

    def test_solve_leaves_rhs_untouched(self):
        # the LAPACK solve overwrites its input, which must be a copy of b
        d = 2.0 * np.eye(6) - np.eye(6, k=1) - np.eye(6, k=-1)
        f = factor_spd(SparseSym(sp.csr_matrix(d)))
        b = np.arange(1.0, 7.0)
        x = f.solve(b)
        assert np.array_equal(b, np.arange(1.0, 7.0))
        assert np.allclose(x, np.linalg.solve(d, b), rtol=0.0, atol=1e-12)

    def test_factors_the_band_in_place(self, monkeypatch):
        """The factor is the band's own memory, and bit for bit the factor
        of the C-ordered band that LAPACK would copy first."""
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(12, 12))
        eye = sp.identity(12)
        m = (sp.kron(lap, eye) + sp.kron(eye, lap) + 0.1 * sp.identity(144)).tocsr()
        shuffle = np.random.default_rng(3).permutation(144)
        a = SparseSym(m[shuffle][:, shuffle])
        bands = []

        def spy(ab, **kwargs):
            bands.append(ab)
            return cholesky_banded(ab, **kwargs)

        cholesky_banded = scipy.linalg.cholesky_banded
        monkeypatch.setattr(scipy.linalg, "cholesky_banded", spy)
        f = factor_spd(a)
        assert len(bands) == 1 and np.shares_memory(f._chol_band, bands[0])

        perm = rcm_order(a.csr)
        dense = a.toarray()[perm][:, perm]
        bw = f._chol_band.shape[0] - 1
        assert 0 < bw < 143
        ab = np.zeros((bw + 1, 144))  # C order
        for i in range(bw + 1):
            ab[i, : 144 - i] = np.diagonal(dense, -i)
        want = cholesky_banded(ab, lower=True)
        assert np.array_equal(f._chol_band, want)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 10**6))
    def test_roundtrip_random_spd(self, n, seed):
        d = _spd(n, seed)
        f = factor_spd(SparseSym(sp.csr_matrix(d)))
        b = np.random.default_rng(seed + 7).standard_normal(n)
        x = f.solve(b)
        assert np.linalg.norm(d @ x - b) <= 1e-10 * np.linalg.norm(b)


def _grid_laplacian(cx: float, cy: float, shift: float) -> SparseSym:
    """cx (Laplacian in x) + cy (Laplacian in y) + shift I on a 12 x 12
    grid, its unknowns shuffled by one fixed permutation, so every choice of
    coefficients has the same pattern."""
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(12, 12))
    eye = sp.identity(12)
    m = (cx * sp.kron(lap, eye) + cy * sp.kron(eye, lap) + shift * sp.identity(144)).tocsr()
    shuffle = np.random.default_rng(3).permutation(144)
    return SparseSym(m[shuffle][:, shuffle])


def _reference_band(a: SparseSym, perm: np.ndarray, bw: int) -> np.ndarray:
    """The lower band (bw + 1, n) of A[perm][:, perm], read off the dense
    matrix, and its banded Cholesky factor."""
    dense = a.toarray()[perm][:, perm]
    ab = np.zeros((bw + 1, a.n))
    for i in range(bw + 1):
        ab[i, : a.n - i] = np.diagonal(dense, -i)
    return scipy.linalg.cholesky_banded(ab, lower=True)


class TestBandLayout:
    """A band layout is planned from a pattern and an order alone; every
    matrix with that pattern factors on it."""

    def test_two_value_sets_on_one_layout(self):
        mats = [_grid_laplacian(1.0, 1.0, 0.1), _grid_laplacian(0.7, 1.3, 0.5)]
        assert all(np.array_equal(m.csr.indices, mats[0].csr.indices) for m in mats)
        perm = rcm_order(mats[0].csr)
        layout = _band_layout(mats[0].csr, perm)
        assert 0 < layout.bw < 143
        # twice each, so a factor leaves nothing behind in the layout
        for m in mats + mats:
            got = layout.factor(m.csr.data)
            fresh = factor_spd(m, perm)
            assert np.array_equal(got._chol_band.view(np.uint64), fresh._chol_band.view(np.uint64))
            want = _reference_band(m, perm, layout.bw)
            assert np.array_equal(got._chol_band, want)
            assert np.array_equal(got.perm, perm) and np.array_equal(got._inv_perm, fresh._inv_perm)

    def test_diagonal_positions(self):
        a = _grid_laplacian(1.0, 1.0, 0.1)
        layout = _band_layout(a.csr, rcm_order(a.csr))
        assert np.array_equal(a.csr.data[layout.diag], a.diagonal())

    def test_indefinite_matrix_rejected(self):
        a = _grid_laplacian(1.0, 1.0, 0.1)
        layout = _band_layout(a.csr, rcm_order(a.csr))
        with pytest.raises(NotSPD, match="banded Cholesky failed"):
            layout.factor(-a.csr.data)

    def test_pivot_below_tolerance_rejected(self):
        # the second pivot is 1 - (1 - 1e-14)^2, about 2e-14 < PIVOT_TOL
        a = SparseSym(sp.csr_matrix(np.array([[1.0, 1.0 - 1e-14], [1.0 - 1e-14, 1.0]])))
        layout = _band_layout(a.csr, np.arange(2))
        assert 0.0 < 1.0 - (1.0 - 1e-14) ** 2 < PIVOT_TOL
        with pytest.raises(NotSPD, match="below tolerance"):
            layout.factor(a.csr.data)
        with pytest.raises(NotSPD, match="below tolerance"):
            factor_spd(a, np.arange(2))


class TestGenCondition:
    def test_exact_preconditioner(self):
        d = _spd(12, 5)
        inv = np.linalg.inv(d)
        k = gen_condition(d, lambda r: inv @ r)
        assert abs(k - 1.0) <= 1e-8

    def test_scaling_invariance(self):
        d = _spd(12, 6)
        inv = np.linalg.inv(d)
        k = gen_condition(d, lambda r: 0.5 * (inv @ r))
        assert abs(k - 1.0) <= 1e-8

    def test_identity_preconditioner(self):
        d = np.diag([1.0, 100.0])
        k = gen_condition(d, lambda r: r.copy())
        assert abs(k - 100.0) <= 1e-8

    def test_indefinite_preconditioner_rejected(self):
        d = _spd(6, 7)
        with pytest.raises(NotSPD):
            gen_condition(d, lambda r: -r)

    def test_cap(self):
        def never(r):
            raise AssertionError("applied above the cap")

        big = np.broadcast_to(1.0, (VERIFY_CAP + 1, VERIFY_CAP + 1))  # no storage
        with pytest.raises(CapExceeded):
            gen_condition(big, never)
