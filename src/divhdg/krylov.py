"""Preconditioned minimum-residual Krylov solver for the condensed system.

The condensed saddle problem is symmetric indefinite, so the right iteration
is MINRES with a symmetric positive definite block-diagonal preconditioner.
The recurrence below tracks the preconditioned residual norm exactly (it is
the quantity ``|eta|`` updated by the Givens rotations), which makes the
reported history monotone by construction and the stopping test free.

Every iteration applies the condensed operator once. Its velocity block A_g
is a sum of per-element condensed blocks, and on a mesh of translated copies
of a few triangles most elements share one of a few blocks, so
``operator_condensed`` applies A_g cell-wise (Kronbichler and Kormann,
Computers & Fluids 63, 2012): it reads those few blocks and the gather and
fold tables of ``condense.CondensedStructure``, not A_g's CSR. Only the
elements outside the large classes keep a CSR of their summed blocks; with
no large class that CSR is A_g, applied as one sparse product.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import NotSPD
from .prng import XorShift

Apply = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one preconditioned MINRES run.

    ``history`` holds the preconditioned residual norm relative to its initial
    value, entry 0 being exactly 1.
    """

    iterations: int
    history: np.ndarray
    converged: bool
    solve_ms: float = 0.0

    @property
    def final_relres(self) -> float:
        return float(self.history[-1])


def minres(
    apply_k: Apply,
    apply_pinv: Apply,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    maxit: int = 1000,
    seed: int = 0,
    project: Optional[Apply] = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve ``K x = b`` with symmetric ``K`` and SPD preconditioner.

    The initial guess is drawn uniformly from (-1, 1) with the given seed,
    so a run is reproducible bit for bit.  The iteration stops once the
    preconditioned residual norm has dropped below ``tol`` times its initial
    value.  ``project``, when given, restricts the
    iteration to a subspace (it must commute with ``K`` up to the discarded
    component); it is applied to the initial guess, the initial residual, and
    every new Lanczos vector so a singular-but-consistent system stays on the
    solvable quotient.

    The loop works in buffers it owns and rotates, in the operation order of
    the textbook recurrence, so the iterates do not depend on them.  It never
    writes into ``b`` or into an array that ``apply_k``, ``apply_pinv`` or
    ``project`` returned, so each of them may return its input or one buffer
    it reuses.  Inside the loop ``apply_k`` is always handed the same owned
    buffer, which the next iteration overwrites.

    Raises :class:`NotSPD` if the preconditioner produces a negative inner
    product, which is the MINRES-side symptom of an indefinite preconditioner.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    x = XorShift(seed).uniform(n)
    if project is not None:
        x = project(x)

    t0 = time.perf_counter()
    r = b - apply_k(x)
    if project is not None:
        r = project(r)

    v = r
    z = apply_pinv(v)
    inner = float(z @ v)
    if inner < 0.0:
        raise NotSPD("preconditioner produced a negative inner product")
    gamma = np.sqrt(inner)
    gamma0 = gamma
    if gamma0 == 0.0:
        report = SolveReport(
            iterations=0,
            history=np.array([0.0]),
            converged=True,
            solve_ms=(time.perf_counter() - t0) * 1e3,
        )
        return x, report

    # owned buffers, rotated below; x is copied once since ``project`` may
    # have returned an array it keeps
    x = np.array(x)
    zs = np.empty(n)  # the scaled z, the one vector apply_k sees
    tmp = np.empty(n)
    vbufs = [np.zeros(n), np.empty(n), np.empty(n)]
    v_old = vbufs[0]
    w_old, w = np.zeros(n), np.zeros(n)
    tol_abs = tol * gamma0

    gamma_old = 1.0
    eta = gamma
    s_old = s = 0.0
    c_old = c = 1.0
    history = [1.0]
    converged = False
    iterations = 0

    for _ in range(maxit):
        np.divide(z, gamma, out=zs)
        az = apply_k(zs)
        delta = float(az @ zs)
        # v and v_old hold at most two of the three buffers; az is zs or fresh
        v_new = next(buf for buf in vbufs if buf is not v and buf is not v_old)
        np.multiply(v, delta / gamma, out=tmp)
        np.subtract(az, tmp, out=v_new)
        np.multiply(v_old, gamma / gamma_old, out=tmp)
        np.subtract(v_new, tmp, out=v_new)
        if project is not None:
            v_new = project(v_new)
        z_new = apply_pinv(v_new)
        inner = float(z_new @ v_new)
        if inner < 0.0:
            scale = float(np.linalg.norm(z_new) * np.linalg.norm(v_new))
            if inner < -1e-12 * (scale + 1e-300):
                raise NotSPD("preconditioner produced a negative inner product")
            inner = 0.0
        gamma_new = np.sqrt(inner)

        alpha0 = c * delta - c_old * s * gamma
        alpha1 = np.sqrt(alpha0 * alpha0 + gamma_new * gamma_new)
        alpha2 = s * delta + c_old * c * gamma
        alpha3 = s_old * gamma
        if alpha1 == 0.0:
            # Lanczos space exhausted against a singular tridiagonal block:
            # nothing further can reduce the residual.
            break
        c_old, s_old = c, s
        c = alpha0 / alpha1
        s = gamma_new / alpha1
        # w_new = (zs - alpha3 w_old - alpha2 w) / alpha1, in w_old's buffer
        w_new = w_old
        np.multiply(w_old, alpha3, out=w_new)
        np.subtract(zs, w_new, out=w_new)
        np.multiply(w, alpha2, out=tmp)
        np.subtract(w_new, tmp, out=w_new)
        np.divide(w_new, alpha1, out=w_new)
        np.multiply(w_new, c * eta, out=tmp)
        np.add(x, tmp, out=x)
        eta = -s * eta

        iterations += 1
        history.append(abs(eta) / gamma0)
        if abs(eta) <= tol_abs:
            converged = True
            break
        if gamma_new == 0.0:
            # exhausted above the tolerance: the minimum is reached, unconverged
            break

        v_old, v = v, v_new
        w_old, w = w, w_new
        z = z_new
        gamma_old, gamma = gamma, gamma_new

    report = SolveReport(
        iterations=iterations,
        history=np.asarray(history),
        converged=converged,
        solve_ms=(time.perf_counter() - t0) * 1e3,
    )
    return x, report


def operator_condensed(cond) -> Apply:
    """Matrix-vector action of the condensed block system
    ``[[A_g, B_g^T], [B_g, C_g]]`` on stacked (velocity, cell-mean pressure)
    vectors.  A_g acts element class by element class, as the sum over the
    elements T of E_T^T S_T E_T, E_T gathering T's trace unknowns and S_T
    its condensed block, with the tables of ``cond.structure``: one gather of
    the class elements' unknowns from [x_u | 0], one GEMM per class against
    its one block's transpose, and one fold, two gathers from the elements'
    outputs (a pad 0 where an unknown lies in one element) and one add.  The
    other elements' summed blocks ``cond.rest`` add one CSR product; with no
    class that CSR is A_g, and no gather is made.  ``B_g^T`` is formed once
    here, and the diagonal C_g acts as its diagonal times the pressure block
    (skipped when it is zero, at 1/lambda = 0).  Each call returns a fresh
    array."""
    s = cond.structure
    rest = None if cond.rest is None else cond.rest.csr
    parts = [
        (slice(lo, hi), blk.T) for lo, hi, blk in zip(s.ends[:-1], s.ends[1:], cond.class_blocks)
    ]
    gather, (first, second) = s.gather, s.fold
    b_g = cond.B_g
    b_gt = b_g.T
    c_diag = cond.C_g.diagonal()
    has_c = bool(np.any(c_diag))
    n_u = cond.n_free
    xz = np.zeros(n_u + 1)  # [x_u | 0]
    ye = np.zeros(gather.size + 1)  # the class elements' outputs, then 0
    ys = ye[:-1].reshape(gather.shape)

    def apply_a(xu: np.ndarray) -> np.ndarray:
        if not parts:
            return rest @ xu
        xz[:n_u] = xu
        xe = xz.take(gather)
        for rows, s_t in parts:
            np.matmul(xe[rows], s_t, out=ys[rows])
        au = ye.take(first)
        au += ye.take(second)
        if rest is not None:
            au += rest @ xu
        return au

    def apply(xv: np.ndarray) -> np.ndarray:
        xu = xv[:n_u]
        xp = xv[n_u:]
        out = np.empty_like(xv)
        np.add(apply_a(xu), b_gt @ xp, out=out[:n_u])
        if has_c:
            np.add(b_g @ xu, c_diag * xp, out=out[n_u:])
        else:
            out[n_u:] = b_g @ xu
        return out

    return apply


def pressure_mean_projector(n_u: int, n_p: int) -> Apply:
    """Projector removing the constant component of the cell-mean pressure
    block of a stacked vector; the identity on the velocity block.  This is
    the deflation used on fully enclosed domains at 1/lambda = 0, where the
    condensed system is singular with exactly that constant direction."""

    def project(xv: np.ndarray) -> np.ndarray:
        out = xv.copy()
        out[n_u:] -= out[n_u:].mean()
        return out

    return project


def solve_condensed(
    cond, asp, schur, *, tol: float, maxit: int, seed: int
) -> tuple[np.ndarray, SolveReport]:
    """MINRES on the condensed system under the block-diagonal preconditioner
    ``diag(asp, schur)``.  When ``schur.deflate`` (enclosed domain at
    1/lambda = 0) the iteration runs on the mean-zero pressure quotient."""
    n_u = cond.n_free

    def pinv(r: np.ndarray) -> np.ndarray:
        return np.concatenate([asp.apply(r[:n_u]), schur.apply(r[n_u:])])

    proj = pressure_mean_projector(n_u, cond.n_pbar) if schur.deflate else None
    rhs = np.concatenate([cond.F_g, cond.F_pbar])
    return minres(
        operator_condensed(cond), pinv, rhs, tol=tol, maxit=maxit, seed=seed, project=proj
    )
