"""One traced sweep in this process: the layers of `bench.solve_one`, timed
from outside.

Calls each layer's public functions in the order `bench.solve_one` does,
sharing mesh, spaces, essential data and local stacks per (1/h, k) as
`bench.run_grid` does, and times every call. Inside MINRES the K apply and
the preconditioner applies are timed per call; the velocity block is applied
as `asp.smooth(r) + asp.coarse(r)`, exactly as `AspPrecond.apply` sums them.

After each row, outside every timed region and outside the traced wall time,
it checks the true relative residual ||b - K x|| / ||b|| against
`condense.build_condensed_monolithic` and computes operation counts (flops
derived from nnz and patch sizes, not measured).

Prints one JSON line with the per-row records and the traced wall time.

    PYTHONPATH=src:perfbench python3 perfbench/traced.py --workload step-k3 --seed 0
"""

import argparse
import json
import time
from collections import defaultdict

import numpy as np

from divhdg.assembly import ProblemParams, assemble_local_stacks, assemble_saddle
from divhdg.condense import build_condensed_monolithic, eliminate_local
from divhdg.krylov import minres, operator_condensed, pressure_mean_projector
from divhdg.mesh import step_domain, unit_square
from divhdg.precond import build_asp, build_schur
from divhdg.spaces import build_spaces, interpolate_essential
from workloads import make_grid


class Spans:
    """Accumulated milliseconds and call counts per span name."""

    def __init__(self):
        self.ms = defaultdict(float)
        self.calls = defaultdict(int)

    def timed(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.ms[name] += (time.perf_counter() - t0) * 1e3
        self.calls[name] += 1
        return out

    def record(self) -> dict:
        return {n: dict(ms=self.ms[n], calls=self.calls[n]) for n in self.ms}


def patch_sizes(mesh, spaces, ess) -> np.ndarray:
    """DOF count of each vertex patch of the patch smoother, from the mesh,
    the spaces and the essential data: every free edge contributes its k+1
    normal and k tangential unknowns to the patch of each endpoint."""
    k = spaces.k
    free_edge = ess.free_mask[np.arange(mesh.num_edges) * (k + 1)]
    degree = np.bincount(mesh.edges[free_edge].ravel(), minlength=mesh.num_vertices)
    return (2 * k + 1) * degree[degree > 0]


def smooth_flop(smoother: str, a_g_nnz: int, n_free: int, sizes: np.ndarray) -> float:
    """Computed flops of one smoother application.

    Symmetric block Gauss-Seidel runs a forward and a backward sweep. Per
    patch of m unknowns a sweep forms the m residual rows (2 flops per stored
    entry of A_g in them), applies the m x m inverse (2 m^2) and adds the
    correction. Every free unknown lies in exactly two patches, so the rows
    of all patches hold 2 nnz(A_g) entries: per application
    2 * (4 nnz(A_g) + 2 sum m^2)."""
    if smoother == "jacobi":
        return float(n_free)
    return 2.0 * (4.0 * a_g_nnz + 2.0 * float(np.sum(sizes.astype(float) ** 2)))


def traced_row(grid, structure, tup, check_s: list) -> dict:
    _, _, mu, tau, invl = tup
    mesh, spaces, ess, stacks = structure
    spans = Spans()
    rec = dict(tau=tau, inv_lambda=invl, error="")
    try:
        params = ProblemParams(mu=mu, tau=tau, inv_lambda=invl, alpha=grid.alpha)
        block = spans.timed(
            "assembly.saddle", assemble_saddle, mesh, spaces, params, ess, stacks=stacks
        )
        cond = spans.timed("condense.eliminate", eliminate_local, block)
        asp = spans.timed("precond.asp_setup", build_asp, cond, smoother=grid.smoother)
        schur = spans.timed("precond.schur_setup", build_schur, mesh, params, grid.schur_mode)
        n_u = cond.n_free

        def pinv(r):
            ru = r[:n_u]
            zu = spans.timed("precond.smooth", asp.smooth, ru) + spans.timed(
                "precond.coarse", asp.coarse, ru
            )
            return np.concatenate([zu, spans.timed("precond.schur_apply", schur.apply, r[n_u:])])

        proj = pressure_mean_projector(n_u, cond.n_pbar) if schur.deflate else None
        rhs = np.concatenate([cond.F_g, cond.F_pbar])
        apply_k = operator_condensed(cond)
        x, rep = spans.timed(
            "krylov.minres",
            minres,
            lambda v: spans.timed("krylov.k_apply", apply_k, v),
            lambda v: spans.timed("precond.apply", pinv, v),
            rhs,
            tol=grid.tol,
            maxit=grid.maxit,
            seed=grid.seed,
            project=proj,
        )
        rec.update(
            iters=rep.iterations, converged=bool(rep.converged), final_relres=rep.final_relres
        )

        t0 = time.perf_counter()
        kmat, b = build_condensed_monolithic(cond)
        nb = float(np.linalg.norm(b))
        rec["true_relres"] = float(np.linalg.norm(b - kmat @ x)) / (nb if nb else 1.0)
        a_g_nnz = int(cond.A_g.csr.nnz)
        sizes = patch_sizes(mesh, spaces, ess) if grid.smoother == "patch-sgs" else np.zeros(0)
        rec.update(
            n_free=int(n_u),
            a_g_nnz=a_g_nnz,
            n_patches=int(sizes.size),
            smooth_flop=smooth_flop(grid.smoother, a_g_nnz, n_u, sizes),
            k_apply_flop=2.0 * kmat.nnz,
        )
        check_s.append(time.perf_counter() - t0)
    except Exception as exc:  # a failed row is recorded, the sweep continues
        rec.update(iters=0, converged=False, final_relres=float("inf"))
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["spans"] = spans.record()
    return rec


def run_traced(grid) -> dict:
    tuples = list(grid.tuples())
    check_s = []
    t0 = time.perf_counter()
    shared = Spans()
    meshes, structures, stack_bytes = {}, {}, 0
    for k, inv_h, _, _, _ in tuples:
        if inv_h not in meshes:
            domain = step_domain if grid.problem == "step" else unit_square
            meshes[inv_h] = shared.timed("mesh.build", domain, inv_h)
        if (inv_h, k) not in structures:
            mesh = meshes[inv_h]
            spaces = shared.timed("spaces.build", build_spaces, mesh, k)
            ess = shared.timed(
                "spaces.essential", interpolate_essential, mesh, spaces, grid.problem
            )
            stacks = shared.timed("assembly.local_stacks", assemble_local_stacks, mesh, spaces)
            stack_bytes += stacks.mass.nbytes + stacks.visc.nbytes + stacks.pen.nbytes
            structures[(inv_h, k)] = (mesh, spaces, ess, stacks)
    rows = [traced_row(grid, structures[(t[1], t[0])], t, check_s) for t in tuples]
    wall_s = time.perf_counter() - t0 - sum(check_s)
    return dict(
        rows=rows,
        shared=shared.record(),
        local_stacks_bytes=stack_bytes,
        wall_s=wall_s,
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    print(json.dumps(run_traced(make_grid(args.workload, args.seed))))


if __name__ == "__main__":
    main()
