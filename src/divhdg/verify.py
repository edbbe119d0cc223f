"""Dense numeric certification of the solver's structural claims.

Every check materializes small operators exactly (dense eigensolves, direct
residuals) and compares a measured constant against its bound, so a failed
check localizes the defect: condensation algebra, Schur-complement identity,
closed-form inverse, spectral equivalence of either preconditioner block,
norm equivalence of the velocity form, discrete inf-sup stability, or the
convergence order of the discretization itself.

``run_verification`` executes the suite and prints one line per measurement;
it returns a nonzero exit code when any check fails. The ``small`` level
finishes in seconds on coarse meshes; ``full`` adds the refinement studies,
both polynomial degrees, and the complete parameter grids.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    ProblemParams,
    TensorStack,
    assemble_saddle,
    edge_coefficients,
    scatter_stack,
    sym_grad_maps,
    sym_gradients,
    viscous_volume_coefficients,
)
from .condense import (
    back_substitute,
    build_condensed_monolithic,
    build_monolithic,
    condensed_structure,
    eliminate_local,
)
from .bench import build_structure
from .krylov import minres, solve_condensed
from .linalg import factor_spd, gen_condition
from .mesh import Mesh, unit_square
from .precond import (
    assemble_pressure_laplacian,
    build_schur,
    materialize_schur_dense,
    schur_structure,
)
from .prng import XorShift
from .spaces import Spaces


@dataclass
class CheckResult:
    name: str
    passed: bool
    lines: list = field(default_factory=list)

    def add(self, text: str):
        self.lines.append(text)

    def gate(self, ok: bool):
        self.passed = self.passed and bool(ok)


def _setup(n: int, k: int, params: ProblemParams):
    """``(s, cond, asp, schur)``: the cavity structure on unit_square(n) and
    its row."""
    s = build_structure("cavity", n, k)
    return (s, *s.row(params))


# ---------------------------------------------------------------------------
# norm matrices for the velocity space: the symmetric-gradient volume part and
# the unprojected tangential-difference facet part (1/h_F weighted), assembled
# as signed element stacks in the local slot order.
# ---------------------------------------------------------------------------


def norm_stacks(mesh: Mesh, spaces: Spaces):
    """(dstack, jstack): the volume viscous term (D u, D v)_K, and the
    unprojected tangential difference <tang(u) - uhat, tang(v) - vhat>_dK with
    the 1/h_F weight, which cancels the edge-length integration factor.

    Built like ``assemble_local_stacks``: the geometry coefficients of
    ``viscous_volume_coefficients`` and ``edge_coefficients`` times the
    reference tensors, as one GEMM per stack. dstack is the volume part of
    the viscous stack; jstack differs from the penalty stack only in its
    velocity block, the trace-trace moments instead of the products of the
    projected trace-mode moments."""
    ref, dm = spaces.ref, spaces.dofmap
    o = sym_grad_maps(mesh.jacobians, mesh.det_j)
    dstack, jstack = TensorStack(spaces), TensorStack(spaces)
    dstack.add(viscous_volume_coefficients(o, mesh.det_j), uu=ref.grad_moments)
    for key, hat, _, c2 in edge_coefficients(mesh, ref, o):
        em = ref.edge_moments[key]
        jstack.add(c2[:, :, None] * c2[:, None, :], uu=em.trace_trace)
        jstack.add(c2, uh=-em.trace_mode, hat=hat)
    jstack.add(np.ones((mesh.num_triangles, 1)), hh=np.eye(3 * spaces.k), hat=dm.hat_slots)
    return dstack.build(), jstack.build()


# ---------------------------------------------------------------------------
# dense Schur complements
# ---------------------------------------------------------------------------


def dense_schur_full(block) -> np.ndarray:
    """Constant-pressure Schur complement from the uncondensed system: only
    the mean-zero pressure block is folded into the pivot."""
    nt = block.mesh.num_triangles
    a = block.A.csr.toarray()
    b = block.B.toarray()
    c = block.C.csr.toarray()
    bbar, bo = b[:nt], b[nt:]
    npo = bo.shape[0]
    r = np.block([[a, bo.T], [bo, c[nt:, nt:]]])
    t = np.hstack([bbar, np.zeros((nt, npo))])
    s = -c[:nt, :nt] + t @ np.linalg.solve(r, t.T)
    return 0.5 * (s + s.T)


def dense_schur_condensed(cond) -> np.ndarray:
    """Constant-pressure Schur complement of the fully condensed system."""
    lu = spla.splu(cond.A_g.csr.tocsc())
    bg = sp.csr_matrix(cond.B_g)
    s = -cond.C_g.csr.toarray() + bg @ lu.solve(bg.toarray().T)
    return 0.5 * (s + s.T)


def _meanzero_basis(nt: int) -> np.ndarray:
    return sla.null_space(np.ones((1, nt)) / np.sqrt(nt))


def restricted_condition(s_dense: np.ndarray, apply_pinv, z: np.ndarray):
    """Generalized eigenvalue extremes of the (operator, inverse-of-apply)
    pencil restricted to the subspace spanned by the columns of z."""
    w = np.column_stack([apply_pinv(z[:, i].copy()) for i in range(z.shape[1])])
    wz = z.T @ w
    wz = 0.5 * (wz + wz.T)
    ev = sla.eigh(z.T @ s_dense @ z, np.linalg.inv(wz), eigvals_only=True)
    return float(ev[0]), float(ev[-1])


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _pin(kmat, rhs, idx: int):
    """Constrain one degree of freedom to zero (row/column clear, unit pivot)."""
    kl = kmat.tolil()
    kl[idx, :] = 0.0
    kl[:, idx] = 0.0
    kl[idx, idx] = 1.0
    r = rhs.copy()
    r[idx] = 0.0
    return kl.tocsr(), r


def check_condensation(level: str) -> CheckResult:
    res = CheckResult("condensation equivalence", True)
    ks = (2, 3) if level == "full" else (2,)
    grid = (
        [(t, l) for t in (0.0, 1.0) for l in (0.0, 1.0)]
        if level == "full"
        else [(1.0, 1.0), (0.0, 0.0)]
    )
    worst = 0.0
    for k in ks:
        for tau, invl in grid:
            params = ProblemParams(mu=1.0, tau=tau, inv_lambda=invl)
            _, cond, _, _ = _setup(2, k, params)
            block = cond.block
            kmat, rhs = build_monolithic(block)
            nf = block.n_free
            kc, rc = build_condensed_monolithic(cond)
            if invl == 0.0:
                # enclosed domain: remove the constant-pressure mode the same
                # way in both routes so the solutions agree member-for-member
                kmat, rhs = _pin(kmat, rhs, nf)
                kc, rc = _pin(kc, rc, cond.n_free)
            mono = spla.spsolve(kmat.tocsc(), rhs)
            xc = spla.spsolve(kc.tocsc(), rc)
            vel, pre = back_substitute(cond, xc[: cond.n_free], xc[cond.n_free :])
            ref_vel = np.zeros_like(vel)
            ref_vel[block.essential.free_ids] = mono[:nf]
            ref_vel[block.essential.ids] = block.essential.values
            ref_pre = mono[nf:]
            scale = max(np.abs(mono).max(), 1.0)
            err = max(
                np.abs(vel - ref_vel).max(), np.abs(pre - ref_pre).max()
            ) / scale
            worst = max(worst, err)
    res.add(f"condensed+back-substituted vs monolithic: {worst:.3e} (bound 1e-9)")
    res.gate(worst <= 1e-9)
    return res


def check_schur_invariance(level: str) -> CheckResult:
    res = CheckResult("Schur complement invariance", True)
    for k in (2, 3) if level == "full" else (2,):
        params = ProblemParams(mu=1.0, tau=1.0, inv_lambda=1.0)
        _, cond, _, _ = _setup(2, k, params)
        s_full = dense_schur_full(cond.block)
        s_cond = dense_schur_condensed(cond)
        rel = np.linalg.norm(s_full - s_cond) / np.linalg.norm(s_full)
        res.add(f"k={k}: ||S' - S_g||_F / ||S'||_F = {rel:.3e} (bound 1e-10)")
        res.gate(rel <= 1e-10)
    return res


def check_woodbury(level: str) -> CheckResult:
    res = CheckResult("closed-form Schur inverse roundtrip", True)
    n = 4 if level == "full" else 2
    nvec = 100 if level == "full" else 20
    mesh = unit_square(n)
    structure = schur_structure(mesh)
    rng = XorShift(7)
    worst = 0.0
    for tau in (0.0, 1.0, 1e4):
        for invl in (0.0, 1e-4, 1.0):
            params = ProblemParams(mu=1.0, tau=tau, inv_lambda=invl)
            schur = build_schur(mesh, params, structure=structure)
            s_dense = materialize_schur_dense(mesh, params)
            for _ in range(nvec):
                r = rng.uniform(mesh.num_triangles, -1.0, 1.0)
                if schur.deflate:
                    r -= r.mean()
                err = np.linalg.norm(s_dense @ schur.apply(r.copy()) - r)
                worst = max(worst, err / np.linalg.norm(r))
    res.add(
        f"max roundtrip over 3x3 parameter grid, {nvec} vectors each: "
        f"{worst:.3e} (bound 1e-10)"
    )
    res.gate(worst <= 1e-10)
    return res


def check_spd_and_deflation(level: str) -> CheckResult:
    res = CheckResult("preconditioner symmetry, positivity, deflation", True)
    params = ProblemParams(mu=1.0, tau=1.0, inv_lambda=0.0)
    _, cond, asp, schur = _setup(2, 2, params)
    rng = XorShift(11)

    sym_a = sym_s = 0.0
    pos_a = pos_s = np.inf
    mean_drift = 0.0
    for _ in range(100):
        r1 = rng.uniform(cond.n_free, -1.0, 1.0)
        r2 = rng.uniform(cond.n_free, -1.0, 1.0)
        z1, z2 = asp.apply(r1.copy()), asp.apply(r2.copy())
        sym_a = max(sym_a, abs(z1 @ r2 - z2 @ r1) / (np.linalg.norm(r1) * np.linalg.norm(r2)))
        pos_a = min(pos_a, (z1 @ r1) / (r1 @ r1))
        p1 = rng.uniform(cond.n_pbar, -1.0, 1.0)
        p2 = rng.uniform(cond.n_pbar, -1.0, 1.0)
        p1 -= p1.mean()
        p2 -= p2.mean()
        y1, y2 = schur.apply(p1.copy()), schur.apply(p2.copy())
        sym_s = max(sym_s, abs(y1 @ p2 - y2 @ p1) / (np.linalg.norm(p1) * np.linalg.norm(p2)))
        pos_s = min(pos_s, (y1 @ p1) / (p1 @ p1))
        mean_drift = max(mean_drift, abs(y1.mean()) / np.linalg.norm(p1))
    res.add(f"velocity-block preconditioner: symmetry defect {sym_a:.3e} (bound 1e-12), "
            f"min Rayleigh {pos_a:.3e} (> 0)")
    res.gate(sym_a <= 1e-12 and pos_a > 0.0)
    res.add(f"pressure-block preconditioner: symmetry defect {sym_s:.3e} (bound 1e-12), "
            f"min Rayleigh {pos_s:.3e} (> 0)")
    res.gate(sym_s <= 1e-12 and pos_s > 0.0)
    res.add(f"enclosed-domain deflation: output mean drift {mean_drift:.3e} (bound 1e-12)")
    res.gate(mean_drift <= 1e-12)
    return res


SCHUR_GRID_TAUS = (0.0, 1.0, 100.0)
SCHUR_GRID_INVLS = (0.0, 1e-4, 1.0)
SCHUR_GRID_NS = (2, 4, 8)
SCHUR_SPREAD_FROZEN = 4.0  # measured 3.616 on the recorded oracle run
KNOWN_TRANSIENT_POINTS = {(100.0, 0.0), (100.0, 1e-4)}


def schur_kappa_grid(ns=SCHUR_GRID_NS, k: int = 2):
    """kappa of the preconditioned constant-pressure Schur complement on the
    mean-zero subspace, for every (tau, 1/lambda) grid point and mesh."""
    out = {}
    for n in ns:
        s = build_structure("cavity", n, k)
        z = _meanzero_basis(s.mesh.num_triangles)
        for tau in SCHUR_GRID_TAUS:
            for invl in SCHUR_GRID_INVLS:
                cond, _, schur = s.row(ProblemParams(mu=1.0, tau=tau, inv_lambda=invl))
                lo, hi = restricted_condition(
                    dense_schur_condensed(cond), schur.apply, z
                )
                out.setdefault((tau, invl), []).append(hi / lo)
    return out


def check_schur_equivalence(level: str) -> CheckResult:
    res = CheckResult("Schur spectral equivalence", True)
    if level != "full":
        kappas = schur_kappa_grid(ns=(2, 4))
        worst = 0.0
        for ks in kappas.values():
            worst = max(worst, ks[1] / ks[0] - 1.0)
        res.add(
            f"kappa growth unit_square(2)->(4), all 9 parameter points: worst "
            f"{100 * worst:+.1f}% (bound +25%)"
        )
        res.gate(worst <= 0.25)
        return res

    kappas = schur_kappa_grid()
    allk = []
    for (tau, invl), ks in sorted(kappas.items()):
        allk += ks
        growth = max(ks[i + 1] / ks[i] for i in range(len(ks) - 1)) - 1.0
        ok = growth <= 0.25
        note = ""
        if not ok and (tau, invl) in KNOWN_TRANSIENT_POINTS:
            note = (
                "  [documented pre-asymptotic transient: the reaction-to-viscous "
                "crossover sits inside this mesh window]"
            )
        res.add(
            f"tau={tau:g} 1/lambda={invl:g}: kappa "
            + " -> ".join(f"{x:.3f}" for x in ks)
            + f" (worst step {100 * growth:+.1f}%, bound +25%)"
            + note
        )
        res.gate(ok)
    spread = max(allk) / min(allk)
    res.add(
        f"grid-wide kappa spread {spread:.3f} (frozen threshold "
        f"{SCHUR_SPREAD_FROZEN}, expectation <= 10)"
    )
    res.gate(spread <= SCHUR_SPREAD_FROZEN)
    return res


def check_asp_equivalence(level: str) -> CheckResult:
    res = CheckResult("velocity-block (auxiliary space) equivalence", True)
    grid = (
        [(t, l) for t in (0.0, 100.0) for l in (0.0, 1.0)]
        if level == "full"
        else [(0.0, 0.0)]
    )
    for tau, invl in grid:
        ks = []
        for n in (4, 8):
            params = ProblemParams(mu=1.0, tau=tau, inv_lambda=invl)
            _, cond, asp, _ = _setup(n, 2, params)
            ks.append(gen_condition(cond.A_g.csr.toarray(), asp.apply))
        growth = ks[1] / ks[0] - 1.0
        res.add(
            f"tau={tau:g} 1/lambda={invl:g}: kappa {ks[0]:.3f} -> {ks[1]:.3f} "
            f"({100 * growth:+.1f}%, bound +25%)"
        )
        res.gate(growth <= 0.25)
    return res


def check_exact_velocity_inverse(level: str) -> CheckResult:
    res = CheckResult("exact velocity-block inverse", True)
    params = ProblemParams(mu=1.0, tau=0.0, inv_lambda=0.0)
    _, cond, _, _ = _setup(2, 2, params)
    rng = XorShift(3)
    b = rng.uniform(cond.n_free, -1.0, 1.0)
    exact = factor_spd(cond.A_g).solve
    _, rep = minres(lambda x: cond.A_g.csr @ x, exact, b, tol=1e-8, maxit=50)
    res.add(f"velocity block alone with exact inverse: {rep.iterations} iteration(s) "
            f"(expected 1)")
    res.gate(rep.iterations == 1 and rep.converged)
    return res


def check_anorm_equivalence(level: str) -> CheckResult:
    res = CheckResult("velocity form norm equivalence", True)
    params = ProblemParams(mu=1.0, tau=1.0, inv_lambda=0.0)
    spreads = []
    rng = XorShift(5)
    for n in (2, 4):
        s, cond, _, _ = _setup(n, 2, params)
        n_free = cond.block.n_free
        dstack, jstack = norm_stacks(s.mesh, s.spaces)
        norm_loc = params.tau * s.stacks.stack("mass") + 2.0 * params.mu * (dstack + jstack)
        norm_mat = scatter_stack(norm_loc, s.essential.pos[s.spaces.dofmap.vel_loc], n_free)
        a_mat = cond.block.A.csr
        ev = sla.eigh(a_mat.toarray(), norm_mat.toarray(), eigvals_only=True)
        c1, c2 = float(ev[0]), float(ev[-1])
        inside = True
        for _ in range(120):
            x = rng.uniform(n_free, -1.0, 1.0)
            ratio = (x @ (a_mat @ x)) / (x @ (norm_mat @ x))
            inside = inside and (c1 - 1e-10 <= ratio <= c2 + 1e-10)
        spreads.append(c2 / c1)
        res.add(f"n={n}: a(u,u)/|||u|||^2 in [{c1:.3f}, {c2:.3f}] "
                f"(spread {c2 / c1:.3f}); 120 random ratios inside: {inside}")
        res.gate(c1 > 0.0 and inside)
    drift = abs(spreads[1] / spreads[0] - 1.0)
    res.add(f"equivalence-interval spread drift under refinement: {100 * drift:.1f}% "
            f"(bound 10%)")
    res.gate(drift <= 0.10)
    return res


def check_infsup(level: str) -> CheckResult:
    res = CheckResult("discrete inf-sup stability", True)
    beta1, beta2 = [], []
    for n in (4, 8):
        params = ProblemParams(mu=1.0, tau=0.0, inv_lambda=0.0)
        s, cond, _, _ = _setup(n, 2, params)
        mesh, spaces, ess, stacks, block = s.mesh, s.spaces, s.essential, s.stacks, cond.block
        nt = mesh.num_triangles
        z = _meanzero_basis(nt)
        slots, n_free = ess.pos[spaces.dofmap.vel_loc], block.n_free
        dstack, jstack = norm_stacks(mesh, spaces)

        # viscous-norm inf-sup with the incompressibility-limit constraint:
        # the pivot solves the constrained minimization over the free velocity
        x1_mat = scatter_stack(2.0 * (dstack + jstack), slots, n_free)
        b = block.B.toarray()
        bbar, bo = b[:nt], b[nt:]
        npo = bo.shape[0]
        r = np.block([[x1_mat.toarray(), bo.T], [bo, np.zeros((npo, npo))]])
        t = np.hstack([bbar, np.zeros((nt, npo))])
        l1 = t @ np.linalg.solve(r, t.T)
        m_half = np.diag(mesh.areas) / 2.0  # 1/(2 mu) mass with mu=1
        ev = sla.eigh(z.T @ (0.5 * (l1 + l1.T)) @ z, z.T @ m_half @ z,
                      eigvals_only=True)
        beta1.append(float(np.sqrt(ev[0])))

        # reaction-norm inf-sup against the facet-jump operator: the hybrid
        # trace unknowns carry no volume mass, so the sup runs over the
        # mass-carrying (normal-trace and interior) velocity components
        mass_mat = scatter_stack(stacks.stack("mass"), slots, n_free)
        vol = np.flatnonzero(mass_mat.diagonal() > 1e-14)
        mv = mass_mat[vol][:, vol].toarray()
        bv = bbar[:, vol]
        l2 = bv @ np.linalg.solve(mv, bv.T)
        nmat = assemble_pressure_laplacian(mesh).toarray()
        ev = sla.eigh(z.T @ (0.5 * (l2 + l2.T)) @ z, z.T @ nmat @ z,
                      eigvals_only=True)
        beta2.append(float(np.sqrt(ev[0])))
    d1 = 1.0 - beta1[1] / beta1[0]
    d2 = 1.0 - beta2[1] / beta2[0]
    res.add(f"viscous-norm inf-sup constant: {beta1[0]:.4f} -> {beta1[1]:.4f} "
            f"(decrease {100 * d1:.1f}%, bound 20%)")
    res.gate(d1 <= 0.20)
    res.add(f"reaction-norm inf-sup constant: {beta2[0]:.4f} -> {beta2[1]:.4f} "
            f"(decrease {100 * d2:.1f}%, bound 20%)")
    res.gate(d2 <= 0.20)
    return res


def _bubble_curl():
    """Divergence-free manufactured velocity: the curl of the biquartic bubble
    x^2 (1-x)^2 y^2 (1-y)^2, with forcing -mu lap(u) + tau u (pressure 0)."""

    def parts(s):
        f = s * s * (1.0 - s) ** 2
        d1 = 2.0 * s - 6.0 * s**2 + 4.0 * s**3
        d2 = 2.0 - 12.0 * s + 12.0 * s**2
        d3 = -12.0 + 24.0 * s
        return f, d1, d2, d3

    def velocity(pts):
        x, y = pts[:, 0], pts[:, 1]
        fx, dx, _, _ = parts(x)
        fy, dy, _, _ = parts(y)
        return np.column_stack([fx * dy, -dx * fy])

    def d_velocity(pts):
        x, y = pts[:, 0], pts[:, 1]
        fx, dx, d2x, _ = parts(x)
        fy, dy, d2y, _ = parts(y)
        g11 = dx * dy
        g12 = fx * d2y
        g21 = -d2x * fy
        g22 = -dx * dy
        d12 = 0.5 * (g12 + g21)
        return g11, d12, g22

    def forcing(mu, tau):
        def f(pts):
            x, y = pts[:, 0], pts[:, 1]
            fx, dx, d2x, d3x = parts(x)
            fy, dy, d2y, d3y = parts(y)
            lap1 = d2x * dy + fx * d3y
            lap2 = -(d3x * fy + dx * d2y)
            u = np.column_stack([fx * dy, -dx * fy])
            return -mu * np.column_stack([lap1, lap2]) + tau * u

        return f

    return velocity, d_velocity, forcing


def _energy_error(mesh: Mesh, spaces: Spaces, vel: np.ndarray, dvel, pen: np.ndarray):
    """Discrete energy seminorm of the error: exact symmetric-gradient
    mismatch at volume quadrature points plus the facet stabilization term.

    The facet term is the quadratic form of the penalty stack ``pen`` (see
    ``LocalStacks``): the tangential trace difference projected onto the facet
    unknown space -- the same reduced form the bilinear form assembles. The
    unprojected difference is structurally limited to one order lower for any
    method whose facet unknowns sit one degree below the volume space, so it
    cannot certify the volume convergence order."""
    ref = spaces.ref
    dm = spaces.dofmap
    vloc = vel[dm.vel_loc]
    uloc = dm.signs * vloc
    j_all = mesh.jacobians
    det_all = mesh.det_j

    # the exact solution is not polynomial of the basis degree, so integrate
    # the mismatch on a rule far beyond the assembly default
    rule, _, hi_grads, _, _ = ref.volume_tables(14)
    a0 = mesh.vertices[mesh.triangles[:, 0]]
    pts = a0[:, None, :] + np.einsum("edc,qc->eqd", j_all, rule.points)
    dsym = sym_gradients(j_all, det_all, hi_grads)
    dh = np.einsum("ei,eiqad->eqad", uloc[:, : ref.n_u], dsym)
    g11, g12, g22 = dvel(pts.reshape(-1, 2))
    shape = pts.shape[:2]
    ex = np.zeros_like(dh)
    ex[:, :, 0, 0] = g11.reshape(shape)
    ex[:, :, 0, 1] = ex[:, :, 1, 0] = g12.reshape(shape)
    ex[:, :, 1, 1] = g22.reshape(shape)
    diff = dh - ex
    err2 = np.einsum("eqad,eqad,q->e", diff, diff, rule.weights) @ det_all
    err2 += np.einsum("ei,eij,ej->", vloc, pen, vloc)
    return float(np.sqrt(err2))


def check_galerkin(level: str) -> CheckResult:
    res = CheckResult("discretization convergence order", True)
    velocity, d_velocity, forcing = _bubble_curl()
    ks = (2, 3) if level == "full" else (2,)
    for k in ks:
        ns = (4, 8, 16)
        errs = []
        for n in ns:
            params = ProblemParams(mu=1.0, tau=1.0, inv_lambda=0.0)
            s = build_structure("cavity", n, k)
            mesh, spaces, stacks = s.mesh, s.spaces, s.stacks
            # zero essential values: the structure's condensed part holds the
            # lift and F_pbar of the nonzero ones, so condense on its own
            ess = replace(s.essential, values=np.zeros_like(s.essential.values))
            block = assemble_saddle(
                mesh,
                spaces,
                params,
                ess,
                body_force=forcing(1.0, 1.0),
                volume_quad_degree=14,
                stacks=stacks,
            )
            cond = eliminate_local(block, condensed_structure(spaces, ess))
            kc, rc = build_condensed_monolithic(cond)
            nf = cond.n_free
            kc, rc = _pin(kc, rc, nf)
            xc = spla.spsolve(kc.tocsc(), rc)
            pbar = xc[nf:]
            pbar -= (mesh.areas * pbar).sum() / mesh.areas.sum()
            vel, _ = back_substitute(cond, xc[:nf], pbar)
            errs.append(_energy_error(mesh, spaces, vel, d_velocity, stacks.stack("pen")))
        rates = [
            np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)
        ]
        res.add(
            f"k={k}: energy errors " + " -> ".join(f"{e:.3e}" for e in errs)
            + ", rates " + ", ".join(f"{r:.2f}" for r in rates)
            + f" (bound >= {k - 0.2:.1f})"
        )
        res.gate(min(rates) >= k - 0.2)
    return res


def check_minres_determinism(level: str) -> CheckResult:
    res = CheckResult("iterative solver determinism and monotonicity", True)
    params = ProblemParams(mu=1.0, tau=1.0, inv_lambda=0.0)
    _, cond, asp, schur = _setup(4, 2, params)
    x1, rep1 = solve_condensed(cond, asp, schur, tol=1e-8, maxit=500, seed=0)
    x2, rep2 = solve_condensed(cond, asp, schur, tol=1e-8, maxit=500, seed=0)
    identical = np.array_equal(x1, x2) and np.array_equal(rep1.history, rep2.history)
    mono = bool(np.all(np.diff(rep1.history) <= 1e-15))
    res.add(f"repeat with fixed seed bit-identical: {identical}; history monotone: "
            f"{mono}; converged in {rep1.iterations} iterations")
    res.gate(identical and mono and rep1.converged)
    return res


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

ALL_CHECKS = [
    check_condensation,
    check_schur_invariance,
    check_woodbury,
    check_spd_and_deflation,
    check_schur_equivalence,
    check_asp_equivalence,
    check_exact_velocity_inverse,
    check_anorm_equivalence,
    check_infsup,
    check_galerkin,
    check_minres_determinism,
]

SMALL_SKIP = {check_infsup}


def run_verification(level: str = "small", out=print) -> int:
    if level not in ("small", "full"):
        raise ValueError("level must be 'small' or 'full'")
    t0 = time.time()
    failures = 0
    for fn in ALL_CHECKS:
        if level == "small" and fn in SMALL_SKIP:
            continue
        t1 = time.time()
        res = fn(level)
        status = "PASS" if res.passed else "FAIL"
        out(f"[{status}] {res.name}  ({time.time() - t1:.1f}s)")
        for line in res.lines:
            out(f"       {line}")
        failures += 0 if res.passed else 1
    out(f"verification level={level}: {failures} failing check(s), "
        f"{time.time() - t0:.1f}s total")
    return 1 if failures else 0
