"""Preconditioned minimum-residual Krylov solver for the condensed system.

The condensed saddle problem is symmetric indefinite, so the right iteration
is MINRES with a symmetric positive definite block-diagonal preconditioner.
The recurrence below tracks the preconditioned residual norm exactly (it is
the quantity ``|eta|`` updated by the Givens rotations), which makes the
reported history monotone by construction and the stopping test free.
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

    v_old = np.zeros(n)
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

    gamma_old = 1.0
    eta = gamma
    s_old = s = 0.0
    c_old = c = 1.0
    w = np.zeros(n)
    w_old = np.zeros(n)
    history = [1.0]
    converged = False
    iterations = 0

    for _ in range(maxit):
        z = z / gamma
        az = apply_k(z)
        delta = float(az @ z)
        v_new = az - (delta / gamma) * v - (gamma / gamma_old) * v_old
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
        w_new = (z - alpha3 * w_old - alpha2 * w) / alpha1
        x = x + (c * eta) * w_new
        eta = -s * eta

        iterations += 1
        history.append(abs(eta) / gamma0)
        if abs(eta) <= tol * gamma0:
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
    vectors."""
    a_g = cond.A_g.csr
    b_g = cond.B_g
    c_g = cond.C_g.csr
    n_u = a_g.shape[0]

    def apply(xv: np.ndarray) -> np.ndarray:
        xu = xv[:n_u]
        xp = xv[n_u:]
        out = np.empty_like(xv)
        out[:n_u] = a_g @ xu + b_g.T @ xp
        out[n_u:] = b_g @ xu + c_g @ xp
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
