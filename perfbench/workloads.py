"""Workload definitions and the row-level correctness gate.

Each workload is one `ExperimentGrid`. The benchmark seed becomes the grid's
MINRES start-vector seed, so the program receives only the generated grid.
This module imports nothing from `divhdg` at import time, so the parent
process of `run.py` can read the workload table without the package.
"""

TOL = 1e-8  # ExperimentGrid default: relative preconditioned residual
MAXIT = 1000

# pinned to 1 in every measured process: rows run one after another
# (HDG_THREADS), and BLAS/OpenMP use one thread each
THREAD_VARS = ("HDG_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "cavity-sweep": dict(
        grid=dict(
            problem="cavity",
            ks=[2],
            inv_hs=[16],
            mus=[1.0],
            taus=[0.0, 100.0, 1.0],
            inv_lambdas=[0.0, 1.0],
        ),
        # the sweep is (tau, 1/lambda) in {(0,0), (100,0), (1,1)}, not the
        # full product the grid axes would give
        points=[(0.0, 0.0), (100.0, 0.0), (1.0, 1.0)],
    ),
    "fine-jacobi": dict(
        grid=dict(
            problem="cavity",
            ks=[2],
            inv_hs=[64],
            mus=[1.0],
            taus=[1.0],
            inv_lambdas=[1.0],
            smoother="jacobi",
        ),
    ),
    "step-k3": dict(
        grid=dict(
            problem="step",
            ks=[3],
            inv_hs=[8],
            mus=[1.0],
            taus=[0.0],
            inv_lambdas=[0.0],
        ),
    ),
}


def make_grid(name: str, seed: int):
    """The workload's grid with the MINRES start-vector seed set to `seed`."""
    from divhdg.bench import ExperimentGrid

    spec = WORKLOADS[name]
    kwargs = dict(spec["grid"], tol=TOL, maxit=MAXIT, seed=seed)
    points = spec.get("points")
    if points is None:
        return ExperimentGrid(**kwargs)

    class PointGrid(ExperimentGrid):
        """The grid restricted to the listed (tau, 1/lambda) points, in order;
        the axes still hold every value so the grid validates them."""

        def tuples(self):
            for k in self.ks:
                for ih in self.inv_hs:
                    for mu in self.mus:
                        for tau, invl in points:
                            yield (k, ih, mu, tau, invl)

    return PointGrid(**kwargs)


def row_failure(row: dict) -> str:
    """Why a sweep row failed, or "" if it passed: it raised, did not
    converge, or stopped above the tolerance."""
    if row["error"]:
        return row["error"]
    if not row["converged"]:
        return f"not converged after {row['iters']} iterations"
    if not row["final_relres"] <= TOL:
        return f"final_relres {row['final_relres']:.3e} > tol {TOL:g}"
    return ""
