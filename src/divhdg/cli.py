"""Command-line entry point: benchmark sweeps and the verification suite.

The pressure block is always the exact Woodbury inverse (``build_schur``).

Examples::

    divhdg-bench --problem cavity --k 2 --inv-h 8 --inv-h 16 \\
        --tau 0 --tau 1 --tau 100 --format md
    divhdg-bench --problem cavity --inv-lambda 1e-4 --lambda inf
    divhdg-bench --verify small
    divhdg-bench --verify iterations --out tests/data/iterations.csv
"""

import argparse
import contextlib
import sys

from .bench import MAX_INV_H, PROBLEMS, ExperimentGrid, emit, run_grid, table_grids
from .precond import SMOOTHERS
from .verify import run_verification


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="divhdg-bench",
        description="Iteration-count sweeps and dense verification for the "
        "divergence-conforming HDG saddle point solver.",
    )
    p.add_argument("--problem", choices=PROBLEMS, default="cavity")
    p.add_argument("--k", type=int, default=2, help="polynomial degree")
    p.add_argument(
        "--inv-h",
        type=int,
        action="append",
        default=None,
        help="mesh refinement 1/h (repeatable)",
    )
    p.add_argument("--mu", type=float, default=1.0, help="viscosity")
    p.add_argument(
        "--tau",
        type=float,
        action="append",
        default=None,
        help="reaction coefficient (repeatable)",
    )
    p.add_argument(
        "--inv-lambda",
        type=float,
        action="append",
        default=None,
        help="inverse compressibility 1/lambda (repeatable)",
    )
    p.add_argument(
        "--lambda",
        dest="lam",
        action="append",
        default=None,
        metavar="LAMBDA",
        help="compressibility lambda; 'inf' selects the incompressible "
        "limit (same as --inv-lambda 0); repeatable",
    )
    p.add_argument("--alpha", type=float, default=8.0, help="penalty scale")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--maxit", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "md"], default="csv")
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument(
        "--verify",
        choices=["small", "full", "iterations"],
        default=None,
        help="run the dense verification suite (small, full), or the committed "
        "iteration table's grid on --inv-h (default 2, 4, 8), instead of a sweep",
    )
    p.add_argument("--smoother", choices=SMOOTHERS, default="patch-sgs")
    p.add_argument(
        "--allow-large",
        action="store_true",
        help="permit mesh sizes past the desk-scale caps",
    )
    return p


def _inv_lambdas(args) -> list:
    vals = list(args.inv_lambda or [])
    for lam in args.lam or []:
        if str(lam).strip().lower() in ("inf", "infinity"):
            vals.append(0.0)
        else:
            x = float(lam)
            if not x > 0.0:  # NaN fails too
                raise ValueError("--lambda must be positive or 'inf'")
            vals.append(1.0 / x)
    return vals or [0.0]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.verify in ("small", "full"):
        return run_verification(args.verify)

    cap = MAX_INV_H.get(args.k, 0)  # an unsupported degree is rejected below
    inv_hs = args.inv_h or [n for n in (8, 16, 32, 64) if n <= cap]
    try:
        grids = table_grids(args.inv_h or (2, 4, 8)) if args.verify else [ExperimentGrid(
            problem=args.problem,
            ks=[args.k],
            inv_hs=inv_hs,
            mus=[args.mu],
            taus=list(args.tau or [0.0]),
            inv_lambdas=_inv_lambdas(args),
            alpha=args.alpha,
            tol=args.tol,
            maxit=args.maxit,
            seed=args.seed,
            smoother=args.smoother,
            allow_large=args.allow_large,
        )]
    except ValueError as exc:  # invalid values, CapExceeded included
        parser.error(str(exc))
    try:  # before the sweep, so an unwritable path costs no run
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        parser.error(f"cannot open --out: {exc}")
    with out as f:
        rows = [row for grid in grids for row in run_grid(grid)]
        f.write(emit(rows, "table" if args.verify else args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
