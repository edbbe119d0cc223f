"""Command-line entry point: benchmark sweeps and the verification suite.

The pressure block is always the exact Woodbury inverse (``build_schur``).
``--verify`` runs a fixed suite: the dense checks (small, full) or every row
of the committed iteration table (iterations, ``bench.table_grids``). It
takes ``--out`` and no sweep option. A table row that raises is named on
stderr with its exception, and the exit status is 1.

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
        "iteration table's grids (iterations), instead of a sweep; takes --out "
        "and no sweep option",
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

    if args.verify:
        # parsed again with every default None, a sweep option reads None
        # unless it is given
        parser.set_defaults(**dict.fromkeys(vars(args)))
        given = [
            "--" + ("lambda" if dest == "lam" else dest.replace("_", "-"))
            for dest, value in vars(parser.parse_args(argv)).items()
            if value is not None and dest not in ("verify", "out")
        ]
        if given:
            parser.error(f"--verify takes no sweep option, got {', '.join(given)}")
    else:
        cap = MAX_INV_H.get(args.k, 0)  # an unsupported degree is rejected below
        try:
            grid = ExperimentGrid(
                problem=args.problem,
                ks=[args.k],
                inv_hs=args.inv_h or [n for n in (8, 16, 32, 64) if n <= cap],
                mus=[args.mu],
                taus=list(args.tau or [0.0]),
                inv_lambdas=_inv_lambdas(args),
                alpha=args.alpha,
                tol=args.tol,
                maxit=args.maxit,
                seed=args.seed,
                smoother=args.smoother,
                allow_large=args.allow_large,
            )
        except ValueError as exc:  # invalid values, CapExceeded included
            parser.error(str(exc))
    try:  # before any run, so an unwritable path costs none
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        parser.error(f"cannot open --out: {exc}")
    with out as f:
        if args.verify in ("small", "full"):
            return run_verification(args.verify, out=lambda line: print(line, file=f))
        grids = table_grids() if args.verify else [grid]
        rows = [row for g in grids for row in run_grid(g)]
        f.write(emit(rows, "table" if args.verify else args.format))
    if not args.verify:
        return 0
    # the table has no error column: each raising row is named on stderr
    failed = [r for r in rows if r.error]
    for r in failed:
        error = " ".join(r.error.splitlines())
        print(
            f"{r.problem} k={r.k} 1/h={r.inv_h} mu={r.mu:g} tau={r.tau:g} "
            f"1/lambda={r.inv_lambda:g} {r.smoother} raised: {error}",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
