"""Benchmark grid driver: assembles, condenses, preconditions, and solves one
saddle point problem per parameter tuple, and renders the iteration-count
tables as CSV or markdown.

Rows always come back in grid order (degree, then mesh, then viscosity,
reaction, and compressibility parameters) no matter how many workers ran
them, and a failure inside one row is captured in that row rather than
aborting the sweep.
"""

import csv
import io
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .assembly import ProblemParams, assemble_local_stacks, assemble_saddle
from .condense import eliminate_local
from .krylov import minres, operator_condensed, pressure_mean_projector
from .linalg import CapExceeded
from .mesh import step_domain, unit_square
from .precond import build_asp, build_schur
from .spaces import build_spaces, interpolate_essential

PROBLEMS = ("cavity", "step", "elast-steady", "elast-unsteady")

CSV_HEADER = (
    "problem,k,inv_h,mu,tau,inv_lambda,alpha,seed,"
    "iters,converged,final_relres,setup_ms,solve_ms,error"
)

# per supported degree, the mesh size past which a run needs an explicit
# opt-in: beyond it runtimes leave desk scale
MAX_INV_H = {1: 64, 2: 64, 3: 32, 4: 32}


@dataclass
class ExperimentGrid:
    problem: str = "cavity"
    ks: list = field(default_factory=lambda: [2])
    inv_hs: list = field(default_factory=lambda: [8, 16, 32, 64])
    mus: list = field(default_factory=lambda: [1.0])
    taus: list = field(default_factory=lambda: [0.0])
    inv_lambdas: list = field(default_factory=lambda: [0.0])
    alpha: float = 8.0
    tol: float = 1e-8
    maxit: int = 1000
    seed: int = 0
    schur_mode: str = "exact"
    smoother: str = "patch-sgs"
    allow_large: bool = False

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.maxit < 0:
            raise ValueError(f"maxit must be >= 0, got {self.maxit}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not self.tol < 1.0:  # MINRES meets tol >= 1 at its first iteration
            raise ValueError(f"tol must be finite and below 1, got {self.tol}")
        for k in self.ks:
            if k not in MAX_INV_H:
                raise ValueError(f"polynomial degree must be in 1..4, got {k}")
            cap = MAX_INV_H[k]
            for ih in self.inv_hs:
                if ih > cap and not self.allow_large:
                    raise CapExceeded(
                        f"1/h={ih} exceeds the desk-scale cap {cap} for k={k}; "
                        "pass allow_large (--allow-large) to run it anyway"
                    )
        even = self.problem == "step"  # the re-entrant corner must be a vertex
        for ih in self.inv_hs:
            if ih < 1 or (even and ih % 2):
                kind = "a positive even" if even else "a positive"
                raise ValueError(f"1/h must be {kind} integer, got {ih}")
        for mu in self.mus:
            ProblemParams(mu=mu, alpha=self.alpha)  # validates mu, alpha
        for tau in self.taus:
            ProblemParams(tau=tau, alpha=self.alpha)
        for invl in self.inv_lambdas:
            ProblemParams(inv_lambda=invl, alpha=self.alpha)

    def tuples(self):
        for k in self.ks:
            for ih in self.inv_hs:
                for mu in self.mus:
                    for tau in self.taus:
                        for invl in self.inv_lambdas:
                            yield (k, ih, mu, tau, invl)


@dataclass
class BenchRow:
    problem: str
    k: int
    inv_h: int
    mu: float
    tau: float
    inv_lambda: float
    alpha: float
    seed: int
    iters: int
    converged: bool
    final_relres: float
    setup_ms: float
    solve_ms: float
    error: str = ""  # per-row failure capture; empty on success

    def csv_line(self) -> str:
        """One CSV record; the error text is quoted when it holds a comma,
        quote or line break, so the record may span several lines."""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(
            [
                self.problem,
                str(self.k),
                str(self.inv_h),
                _fnum(self.mu),
                _fnum(self.tau),
                _fnum(self.inv_lambda),
                _fnum(self.alpha),
                str(self.seed),
                str(self.iters),
                str(int(self.converged)),
                _fnum(self.final_relres),
                _fnum(self.setup_ms),
                _fnum(self.solve_ms),
                self.error,
            ]
        )
        return buf.getvalue()


def _fnum(x: float) -> str:
    return format(float(x), ".17g")


def parse_csv(text: str) -> list:
    """Inverse of the CSV emitter, for lossless roundtrip checks."""
    records = [f for f in csv.reader(io.StringIO(text)) if f]
    if not records or ",".join(records[0]) != CSV_HEADER:
        raise ValueError("missing or altered CSV header")
    rows = []
    for f in records[1:]:
        rows.append(
            BenchRow(
                problem=f[0],
                k=int(f[1]),
                inv_h=int(f[2]),
                mu=float(f[3]),
                tau=float(f[4]),
                inv_lambda=float(f[5]),
                alpha=float(f[6]),
                seed=int(f[7]),
                iters=int(f[8]),
                converged=bool(int(f[9])),
                final_relres=float(f[10]),
                setup_ms=float(f[11]),
                solve_ms=float(f[12]),
                error=f[13],
            )
        )
    return rows


def solve_one(grid: ExperimentGrid, structure, tup) -> BenchRow:
    """One row: ``structure`` is the (mesh, spaces, essential data, local
    stacks) of the row's (1/h, k), shared across the sweep."""
    k, inv_h, mu, tau, invl = tup
    mesh, spaces, ess, stacks = structure
    base = dict(
        problem=grid.problem,
        k=k,
        inv_h=inv_h,
        mu=mu,
        tau=tau,
        inv_lambda=invl,
        alpha=grid.alpha,
        seed=grid.seed,
    )
    t0 = time.perf_counter()
    try:
        params = ProblemParams(
            mu=mu, tau=tau, inv_lambda=invl, alpha=grid.alpha
        )
        block = assemble_saddle(mesh, spaces, params, ess, stacks=stacks)
        cond = eliminate_local(block)
        asp = build_asp(cond, smoother=grid.smoother)
        schur = build_schur(mesh, params, grid.schur_mode)
        n_u = cond.n_free

        def pinv(r):
            return np.concatenate([asp.apply(r[:n_u]), schur.apply(r[n_u:])])

        proj = (
            pressure_mean_projector(n_u, cond.n_pbar) if schur.deflate else None
        )
        rhs = np.concatenate([cond.F_g, cond.F_pbar])
        apply_k = operator_condensed(cond)
        setup_ms = (time.perf_counter() - t0) * 1e3
        _, rep = minres(
            apply_k,
            pinv,
            rhs,
            tol=grid.tol,
            maxit=grid.maxit,
            seed=grid.seed,
            project=proj,
        )
        return BenchRow(
            **base,
            iters=rep.iterations,
            converged=rep.converged,
            final_relres=rep.final_relres,
            setup_ms=setup_ms,
            solve_ms=rep.solve_ms,
        )
    except Exception as exc:  # captured in the row, the sweep continues
        return BenchRow(
            **base,
            iters=0,
            converged=False,
            final_relres=float("inf"),
            setup_ms=(time.perf_counter() - t0) * 1e3,
            solve_ms=0.0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _worker_count(n_jobs: int) -> int:
    env = os.environ.get("HDG_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"HDG_THREADS must be an integer, got {env!r}") from None
        return max(1, min(n, max(n_jobs, 1)))
    return max(1, min(os.cpu_count() or 1, max(n_jobs, 1)))


def run_grid(grid: ExperimentGrid) -> list:
    tuples = list(grid.tuples())
    if not tuples:
        return []
    # the parameter-independent structures of each (1/h, k) are built
    # serially, so workers only race on solves
    domain = step_domain if grid.problem == "step" else unit_square
    structures = {}
    for k, inv_h, _, _, _ in tuples:
        if (inv_h, k) not in structures:
            mesh = domain(inv_h)
            spaces = build_spaces(mesh, k)
            ess = interpolate_essential(mesh, spaces, grid.problem)
            stacks = assemble_local_stacks(mesh, spaces)
            structures[inv_h, k] = (mesh, spaces, ess, stacks)

    def row(t):
        return solve_one(grid, structures[t[1], t[0]], t)

    workers = _worker_count(len(tuples))
    if workers == 1:
        return [row(t) for t in tuples]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(row, tuples))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def emit(table: list, fmt: str = "csv") -> str:
    if fmt == "csv":
        return "\n".join([CSV_HEADER] + [r.csv_line() for r in table]) + "\n"
    if fmt in ("md", "markdown"):
        return _emit_markdown(table)
    raise ValueError(f"unknown format {fmt!r}")


def _plabel(axis: str, value: float) -> str:
    return f"{axis}={value:g}"


def _emit_markdown(table: list) -> str:
    """One markdown table per (problem, k): mesh sizes down the rows, one
    column per distinct parameter combination."""
    if not table:
        return "(empty table)\n"
    out = []
    blocks = []
    for r in table:
        key = (r.problem, r.k)
        if key not in blocks:
            blocks.append(key)
    for problem, k in blocks:
        rows = [r for r in table if (r.problem, r.k) == (problem, k)]
        mus = _ordered(rows, "mu")
        taus = _ordered(rows, "tau")
        invls = _ordered(rows, "inv_lambda")
        combos = []
        for r in rows:
            c = (r.mu, r.tau, r.inv_lambda)
            if c not in combos:
                combos.append(c)

        def label(c):
            parts = []
            if len(mus) > 1:
                parts.append(_plabel("mu", c[0]))
            if len(taus) > 1:
                parts.append(_plabel("tau", c[1]))
            if len(invls) > 1:
                parts.append(_plabel("1/lambda", c[2]))
            return " ".join(parts) or "iters"

        inv_hs = []
        for r in rows:
            if r.inv_h not in inv_hs:
                inv_hs.append(r.inv_h)
        cell = {
            (r.inv_h, (r.mu, r.tau, r.inv_lambda)): _cell(r) for r in rows
        }
        out.append(f"## {problem}, k={k}")
        out.append("")
        out.append("| 1/h | " + " | ".join(label(c) for c in combos) + " |")
        out.append("| --- |" + " --- |" * len(combos))
        for ih in inv_hs:
            vals = [cell.get((ih, c), "") for c in combos]
            out.append(f"| {ih} | " + " | ".join(vals) + " |")
        out.append("")
        failed = [r for r in rows if r.error]
        if failed:
            out.append("Failed rows:")
            out.append("")
            for r in failed:
                params = ", ".join(
                    _plabel(a, v)
                    for a, v in (("mu", r.mu), ("tau", r.tau), ("1/lambda", r.inv_lambda))
                )
                error = " ".join(r.error.splitlines())
                out.append(f"- 1/h={r.inv_h}, {params}: {error}")
            out.append("")
    return "\n".join(out)


def _ordered(rows, attr):
    seen = []
    for r in rows:
        v = getattr(r, attr)
        if v not in seen:
            seen.append(v)
    return seen


def _cell(r: BenchRow) -> str:
    if r.error:
        return "x"
    return str(r.iters) if r.converged else f"{r.iters}*"
