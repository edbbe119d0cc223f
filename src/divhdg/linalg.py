"""Symmetric sparse matrix container, SPD factorizations and dense checks.

Provides the small, fixed vocabulary the rest of the library is written
against: CSR-backed symmetric matrices, a banded Cholesky factorization of SPD
matrices under a reverse Cuthill-McKee reordering, on a band layout planned
from the pattern and the order alone (``_band_layout``), so that every matrix
with one pattern factors on one layout, the exact classes of equal
rows (``distinct_rows``, one stable sort of their bytes, no hash), by which
local work is done once per distinct input, and the dense verification
helper: the generalized condition number of a preconditioned operator.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

VERIFY_CAP = 6000  # largest n the dense verification helpers accept
PIVOT_TOL = 1e-12  # factor_spd rejects pivots below this times the largest diagonal

# the banded triangular solves of SpdFactor.solve, called directly: the
# solve runs every preconditioner apply, and the cho_solve_banded wrapper
# re-validates and re-dispatches on each call
(_PBTRS,) = scipy.linalg.get_lapack_funcs(("pbtrs",), (np.zeros((1, 1)),))


class NotSPD(Exception):
    """Raised when a matrix required to be SPD (on the relevant subspace) is not."""


class CapExceeded(ValueError):
    """Raised when a dense verification helper is asked for a system above the cap."""


def _check_square_csr(m: sp.csr_matrix) -> sp.csr_matrix:
    m = sp.csr_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    m.sum_duplicates()
    m.sort_indices()
    return m


@dataclass(frozen=True)
class SparseSym:
    """Symmetric sparse matrix in CSR form (values stored on both triangles)."""

    csr: sp.csr_matrix

    def __post_init__(self):
        m = _check_square_csr(self.csr)
        object.__setattr__(self, "csr", m)

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def toarray(self) -> np.ndarray:
        return self.csr.toarray()

    def diagonal(self) -> np.ndarray:
        return self.csr.diagonal()


@dataclass
class SpdFactor:
    """Banded Cholesky factorization of an SPD matrix under an RCM reordering:
    the permutation and the lower factor L in banded layout
    (_chol_band[i, j] = L[j+i, j]), so A[perm][:, perm] = L L^T. The
    factors of one ``_BandLayout`` share its ``perm`` and ``_inv_perm``.
    """

    perm: np.ndarray
    n: int
    _chol_band: np.ndarray = field(repr=False, default=None)
    _inv_perm: np.ndarray = field(repr=False, default=None)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b for a right side (n,) or several as columns (n, m), all
        in one LAPACK call, which solves column by column."""
        b = np.asarray(b, float)
        if b.shape[0] != self.n:
            raise ValueError(f"length mismatch: n={self.n}, rhs {b.shape[0]}")
        if self.n == 0:  # LAPACK rejects an empty right side of several columns
            return np.zeros(b.shape)
        # take copies, so LAPACK may overwrite it; b[perm] is slow on rows
        y, info = _PBTRS(self._chol_band, b.take(self.perm, axis=0), lower=1, overwrite_b=1)
        if info != 0:
            raise ValueError(f"pbtrs rejected argument {-info}")
        return y.take(self._inv_perm, axis=0)


def rcm_order(m: sp.csr_matrix) -> np.ndarray:
    """The reverse Cuthill-McKee order of a symmetric CSR pattern; it reads
    only the pattern, so every matrix with that pattern shares it."""
    if m.shape[0] == 0:  # RCM rejects an empty graph
        return np.zeros(0, np.int64)
    return np.asarray(reverse_cuthill_mckee(m, symmetric_mode=True), dtype=np.int64)


def factor_spd(a: SparseSym, perm: np.ndarray = None) -> SpdFactor:
    """Factor an SPD SparseSym under the order ``perm`` (default: its
    ``rcm_order``): the band layout of its pattern (``_band_layout``), then
    its values on it (``_BandLayout.factor``); raises NotSPD on failure or
    tiny/negative pivots. The empty factor solves 0 -> 0."""
    if perm is None:
        perm = rcm_order(a.csr)
    return _band_layout(a.csr, perm).factor(a.csr.data)


@dataclass(frozen=True)
class _BandLayout:
    """Where the values of one canonical symmetric CSR pattern go in the
    band of its factor under the order ``perm``. It depends only on the
    pattern, so every matrix with that pattern shares it: ``bw`` is the
    bandwidth of the permuted pattern; ``src`` holds the data positions of
    its lower entries (permuted row i >= column j) and ``slot`` their places
    ab[i - j, j] in the (bw + 1, n) Fortran-ordered band, flat; ``diag``
    holds the data positions of the stored diagonal entries."""

    perm: np.ndarray
    inv_perm: np.ndarray
    bw: int
    src: np.ndarray
    slot: np.ndarray
    diag: np.ndarray

    def factor(self, data: np.ndarray) -> SpdFactor:
        """The banded Cholesky factor of the matrix with the values ``data``
        on this layout's pattern, the band factored in place; raises NotSPD
        on failure or on a pivot below ``PIVOT_TOL`` times the largest
        diagonal magnitude."""
        n = self.perm.size
        # the band's transpose in C order, so the band is in Fortran order
        # and LAPACK factors it in place, without a copy
        band = np.zeros((n, self.bw + 1))
        band.reshape(-1)[self.slot] = data[self.src]
        try:
            cb = scipy.linalg.cholesky_banded(
                band.T, overwrite_ab=True, lower=True, check_finite=False
            )
        except scipy.linalg.LinAlgError as exc:
            raise NotSPD(f"banded Cholesky failed: {exc}") from None
        d = cb[0] ** 2
        max_diag = float(np.max(np.abs(data[self.diag]))) if self.diag.size else 0.0
        if n and float(d.min()) <= PIVOT_TOL * max_diag:
            raise NotSPD(
                f"pivot {d.min():.3e} below tolerance {PIVOT_TOL:.0e} * {max_diag:.3e}"
            )
        return SpdFactor(perm=self.perm, n=n, _chol_band=cb, _inv_perm=self.inv_perm)


def _band_layout(pattern, perm: np.ndarray) -> _BandLayout:
    """The ``_BandLayout`` of the canonical square CSR matrix or
    ``assembly.CsrPattern`` ``pattern`` under the order ``perm``; it reads
    only ``indptr`` and ``indices``."""
    perm = np.asarray(perm)
    n = perm.size
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(n)
    nnz = int(pattern.indptr[-1])
    row = np.repeat(np.arange(n), np.diff(pattern.indptr))
    col = pattern.indices[:nnz]
    i, j = inv_perm[row], inv_perm[col]
    bw = int(np.max(np.abs(i - j))) if nnz else 0
    # int32 where the data and the band fit: a sweep keeps its layouts
    index = np.int32 if max(nnz, n * (bw + 1)) < 2**31 else np.intp
    src = np.flatnonzero(i >= j).astype(index)
    return _BandLayout(
        perm=perm,
        inv_perm=inv_perm,
        bw=bw,
        src=src,
        slot=(j[src] * (bw + 1) + (i[src] - j[src])).astype(index),
        diag=np.flatnonzero(row == col).astype(index),
    )


# the fewest members of exact classes (``distinct_rows``) that are applied
# as classes, with one GEMM per class against its one matrix: in A_g's
# apply the elements of one class of ``condense.CondensedStructure``; in the
# patch sweep the patches of one stack, the classes of one group and colour
# that hold the same count p >= 2 of its patches, C p together. Members of
# a smaller class or stack keep their own matrix: in the sweep they are the
# tail, a stack of single patches (p = 1), each with its own copy of its M
_CLASS_MIN = 8

def distinct_rows(*arrays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact classes of equal rows of ``arrays``, each (n, ...): row i
    is the tuple of the i-th rows of all of them, equal to another only when
    every bit is, so 0.0 and -0.0 differ and a NaN equals only the same NaN.
    Returns ``first`` (C,), the first row of each class in ascending order,
    and ``inverse`` (n,), the class of each row.

    Each row is its arrays' raw bytes side by side, one ``np.void`` of that
    width, and one stable sort of them (``np.unique``) gives the classes:
    equal bytes are equal rows, with no hash between them."""
    n = arrays[0].shape[0]
    if n == 0:
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    key = np.concatenate(
        [np.ascontiguousarray(a).reshape(n, -1).view(np.uint8) for a in arrays], axis=1
    )
    if key.shape[1] == 0:  # rows of no bytes are all one row
        return np.zeros(1, np.intp), np.zeros(n, np.intp)
    key = key.view(np.dtype((np.void, key.shape[1]))).reshape(n)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    # number the classes by their first row
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.reshape(n)]


def gen_condition(a: np.ndarray, apply_pinv) -> float:
    """Spectral condition number of P^{-1} A for dense SPD A and SPD
    preconditioner P.

    Materializes W = P^{-1} column by column, symmetrizes, Cholesky-factors
    W = L L^T, and returns the eigenvalue ratio of L^T A L (similar to W A).
    Raises NotSPD if W or the preconditioned spectrum is not positive, and
    CapExceeded above ``VERIFY_CAP`` before any work.
    """
    n = a.shape[0]
    if n > VERIFY_CAP:
        raise CapExceeded(f"dense verification limited to n <= {VERIFY_CAP}, got {n}")
    w = np.empty((n, n))
    e = np.zeros(n)
    for i in range(n):
        e[i] = 1.0
        w[:, i] = apply_pinv(e.copy())
        e[i] = 0.0
    w = 0.5 * (w + w.T)
    try:
        low = scipy.linalg.cholesky(w, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotSPD(f"preconditioner application is not SPD: {exc}") from None
    ev = scipy.linalg.eigvalsh(low.T @ (0.5 * (a + a.T)) @ low)
    if ev[0] <= 0.0:
        raise NotSPD(f"preconditioned operator has nonpositive eigenvalue {ev[0]:.3e}")
    return float(ev[-1] / ev[0])
