"""One untraced sweep in this process: `run_grid` on a workload's grid.

Prints one JSON line: the rows (with their `error` field), the wall time of
`run_grid` and the peak resident memory of this process. With `--setup-only`
the grid's `maxit` is 0, so each row sets up and stops after MINRES's first
preconditioner apply: a cheap extra sample of the set-up time. With
`--selfcheck` it instead runs a grid whose penalty is too small (alpha=0.01)
and prints its rows, so the caller can check that the failed row is returned
and counted.

    PYTHONPATH=src python3 perfbench/sweep.py --workload fine-jacobi --seed 0
"""

import argparse
import json
import os
import resource
import time

import numpy
import scipy

from divhdg import precond
from divhdg.bench import ExperimentGrid, run_grid
from workloads import THREAD_VARS, make_grid


def program_env() -> dict:
    """What this process runs with: library versions, thread settings, and
    whether the numba smoother kernel is active (about 60x faster, so a run
    with it measures a different program)."""
    return dict(
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        have_numba=bool(precond.HAVE_NUMBA),
        threads={v: os.environ.get(v, "") for v in THREAD_VARS},
    )


def row_record(r) -> dict:
    """The fields of a `BenchRow` the gate and the metrics read, `error`
    included (the CSV drops it)."""
    return dict(
        tau=r.tau,
        inv_lambda=r.inv_lambda,
        iters=r.iters,
        converged=bool(r.converged),
        final_relres=float(r.final_relres),
        setup_ms=float(r.setup_ms),
        solve_ms=float(r.solve_ms),
        error=r.error,
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()

    if args.selfcheck:
        grid = ExperimentGrid(problem="cavity", ks=[2], inv_hs=[2], alpha=0.01)
    else:
        grid = make_grid(args.workload, args.seed)
        if args.setup_only:
            grid.maxit = 0
    t0 = time.perf_counter()
    table = run_grid(grid)
    wall_s = time.perf_counter() - t0
    out = dict(
        rows=[row_record(r) for r in table],
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=program_env(),
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
