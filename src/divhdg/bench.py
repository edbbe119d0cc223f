"""Benchmark grid driver: assembles, condenses, preconditions, and solves one
saddle point problem per parameter tuple, and renders the iteration-count
tables as CSV or markdown.

Rows run one after another in grid order (degree, then mesh, then
viscosity, reaction, and compressibility parameters), and a failure inside
one row is captured in that row rather than aborting the sweep. Rows on the
same (1/h, k) share one ``Structure``, built once; a structure that fails to
build fails each of its rows, and the sweep goes on with the next one. A row
is composed in one place, ``Structure.row``, which ``solve_one`` and every
dense check of ``verify`` call.
"""

import csv
import io
import itertools
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .assembly import LocalStacks, ProblemParams, assemble_local_stacks, assemble_saddle, is_real
from .condense import CondensedStructure, condensed_structure, eliminate_local
from .krylov import solve_condensed
from .linalg import CapExceeded
from .mesh import Mesh, step_domain, unit_square
from .precond import (
    SMOOTHERS,
    AspStructure,
    SchurStructure,
    asp_structure,
    build_asp,
    build_schur,
    schur_structure,
)
from .spaces import EssentialData, Spaces, build_spaces, interpolate_essential

PROBLEMS = ("cavity", "step")

# per supported degree, the mesh size past which a run needs an explicit
# opt-in: beyond it runtimes leave desk scale
MAX_INV_H = {1: 64, 2: 64, 3: 32, 4: 32}


def _is_int(x) -> bool:  # a Python or numpy integer, not a bool
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


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
    # not a field: the one Schur formula, read only by perfbench/traced.py;
    # the benchmark change of ROADMAP item 7 deletes it
    schur_mode: ClassVar[str] = "exact"
    smoother: str = "patch-sgs"
    allow_large: bool = False

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.smoother not in SMOOTHERS:
            raise ValueError(f"unknown smoother {self.smoother!r}")
        if not _is_int(self.maxit):
            raise ValueError(f"maxit must be an integer, got {self.maxit}")
        if self.maxit < 0:
            raise ValueError(f"maxit must be >= 0, got {self.maxit}")
        if not _is_int(self.seed):  # a CSV record must parse back as an int
            raise ValueError(f"seed must be an integer, got {self.seed}")
        if not is_real(self.tol):
            raise ValueError(f"tol must be a real number, got {self.tol}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not self.tol < 1.0:  # MINRES meets tol >= 1 at its first iteration
            raise ValueError(f"tol must be finite and below 1, got {self.tol}")
        even = self.problem == "step"  # the re-entrant corner must be a vertex
        for ih in self.inv_hs:  # before the caps, which compare each 1/h with a number
            if not _is_int(ih) or ih < 1 or (even and ih % 2):
                kind = "a positive even" if even else "a positive"
                raise ValueError(f"1/h must be {kind} integer, got {ih}")
        for k in self.ks:
            if not _is_int(k) or k not in MAX_INV_H:
                raise ValueError(f"polynomial degree must be in 1..4, got {k}")
            cap = MAX_INV_H[k]
            for ih in self.inv_hs:
                if ih > cap and not self.allow_large:
                    raise CapExceeded(
                        f"1/h={ih} exceeds the desk-scale cap {cap} for k={k}; "
                        "pass allow_large (--allow-large) to run it anyway"
                    )
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
    smoother: str
    iters: int
    converged: bool
    final_relres: float
    setup_ms: float
    solve_ms: float
    error: str = ""  # per-row failure capture; empty on success

    def csv_line(self, names=None) -> str:
        """One CSV record of the fields ``names`` (default: all); the error
        text is quoted when it holds a comma, quote or line break, so the
        record may span several lines."""
        types = {f.name: f.type for f in fields(self)}
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(
            _CODECS[types[n]][0](getattr(self, n)) for n in names or types
        )
        return buf.getvalue()


# per field type, the (format, parse) pair of its CSV text; floats keep all
# 17 significant digits so a record roundtrips losslessly
_CODECS = {
    str: (str, str),
    int: (str, int),
    float: (lambda x: format(float(x), ".17g"), float),
    bool: (lambda b: str(int(b)), lambda s: bool(int(s))),
}

CSV_HEADER = ",".join(f.name for f in fields(BenchRow))

# the fields of the committed iteration table, tests/data/iterations.csv
TABLE_COLUMNS = ("problem", "k", "inv_h", "mu", "tau", "inv_lambda", "smoother", "iters",
                 "converged", "final_relres")


def parse_csv(text: str) -> list:
    """Inverse of the CSV emitter, for lossless roundtrip checks."""
    records = [f for f in csv.reader(io.StringIO(text)) if f]
    if not records or ",".join(records[0]) != CSV_HEADER:
        raise ValueError("missing or altered CSV header")
    schema = fields(BenchRow)
    rows = []
    for rec in records[1:]:
        if len(rec) != len(schema):
            raise ValueError(f"CSV record with {len(rec)} fields, expected {len(schema)}")
        rows.append(BenchRow(*(_CODECS[f.type][1](v) for f, v in zip(schema, rec))))
    return rows


@dataclass(frozen=True)
class Structure:
    """The parameter-independent data of one (1/h, k): built once and shared
    by every row on that mesh, it lives for the whole sweep over (mu, tau,
    1/lambda). It holds the mesh, spaces and essential data, the element
    forms as geometry coefficients, the pattern of A_g with B_g, the
    free-edge graph and the element-class tables of A_g's apply, and the
    preconditioners' patterns: the auxiliary space
    (free vertices, A0's pattern and band layout, the transfer Pi), the
    patches, their classes and colours (patch smoother only), and N with
    its band layout. ``row`` builds one row's systems on it, and does not
    assemble A_g: MINRES applies it by element class and one CSR of the
    other elements, and the patch smoother sums its blocks from the element
    blocks."""

    mesh: Mesh
    spaces: Spaces
    essential: EssentialData
    stacks: LocalStacks
    condensed: CondensedStructure
    asp: AspStructure
    schur: SchurStructure

    def row(self, params: ProblemParams):
        """One row's ``(cond, asp, schur)`` on this structure; the saddle
        system is ``cond.block``."""
        block = assemble_saddle(self.mesh, self.spaces, params, self.essential, stacks=self.stacks)
        cond = eliminate_local(block, self.condensed)
        asp = build_asp(cond, structure=self.asp)
        return cond, asp, build_schur(self.mesh, params, structure=self.schur)


def build_structure(problem: str, inv_h: int, k: int, smoother: str = "patch-sgs") -> Structure:
    """The ``Structure`` of one (1/h, k), built once per sweep. Only a
    patch-smoother structure holds patches: a Jacobi sweep builds none."""
    mesh = (step_domain if problem == "step" else unit_square)(inv_h)
    spaces = build_spaces(mesh, k)
    ess = interpolate_essential(mesh, spaces, problem)
    stacks = assemble_local_stacks(mesh, spaces)
    condensed = condensed_structure(spaces, ess, stacks.element_class)
    return Structure(
        mesh=mesh,
        spaces=spaces,
        essential=ess,
        stacks=stacks,
        condensed=condensed,
        asp=asp_structure(spaces, condensed, smoother),
        schur=schur_structure(mesh),
    )


def _row_fields(grid: ExperimentGrid, tup) -> dict:
    k, inv_h, mu, tau, invl = tup
    return dict(
        problem=grid.problem,
        k=k,
        inv_h=inv_h,
        mu=mu,
        tau=tau,
        inv_lambda=invl,
        alpha=grid.alpha,
        seed=grid.seed,
        smoother=grid.smoother,
    )


def _failed_row(grid: ExperimentGrid, tup, exc: Exception, setup_ms: float) -> BenchRow:
    return BenchRow(
        **_row_fields(grid, tup),
        iters=0,
        converged=False,
        final_relres=float("inf"),
        setup_ms=setup_ms,
        solve_ms=0.0,
        error=f"{type(exc).__name__}: {exc}",
    )


def solve_one(grid: ExperimentGrid, structure: Structure, tup) -> BenchRow:
    """One row on the shared ``structure`` of its (1/h, k). Everything the
    row builds (element matrices, A_g's values, the patch inverses and the
    banded factors) lives only until the row returns."""
    _, _, mu, tau, invl = tup
    t0 = time.perf_counter()
    try:
        params = ProblemParams(
            mu=mu, tau=tau, inv_lambda=invl, alpha=grid.alpha
        )
        cond, asp, schur = structure.row(params)
        setup_ms = (time.perf_counter() - t0) * 1e3
        _, rep = solve_condensed(
            cond, asp, schur, tol=grid.tol, maxit=grid.maxit, seed=grid.seed
        )
        return BenchRow(
            **_row_fields(grid, tup),
            iters=rep.iterations,
            converged=rep.converged,
            final_relres=rep.final_relres,
            setup_ms=setup_ms,
            solve_ms=rep.solve_ms,
        )
    except Exception as exc:  # captured in the row, the sweep continues
        return _failed_row(grid, tup, exc, (time.perf_counter() - t0) * 1e3)


def table_grids() -> list:
    """The grids of the committed iteration table: cavity k=1,2,3 and step
    k=2,3 on 1/h = 2, 4, 8, each at every (tau, 1/lambda) pair, then fixed
    grids on their own meshes, each for a path those do not reach."""
    full = dict(inv_hs=[2, 4, 8], taus=[0.0, 1.0, 100.0, 1e4], inv_lambdas=[0.0, 1e-4, 1.0])
    return [
        # at 1/h=2 no element class reaches _CLASS_MIN: every element is a class of one
        ExperimentGrid(problem="cavity", ks=[1, 2, 3], **full),
        ExperimentGrid(problem="step", ks=[2, 3], **full),
        # the smallest and the largest trace layout, 3 and 9 unknowns per edge
        ExperimentGrid(problem="step", ks=[1, 4], inv_hs=[2, 4]),
        # Pi with free outlet vertices through the Jacobi smoother alone
        ExperimentGrid(problem="step", ks=[1], inv_hs=[2, 4], smoother="jacobi"),
        # mixed element classes (40 at 1/h=6: vertex coordinates that are not
        # binary fractions), and several patch groups per colour at 1/h=16
        ExperimentGrid(problem="step", ks=[3], inv_hs=[6, 16]),
        # the three Schur paths with the Jacobi smoother: no inner solve at
        # tau=0, deflated at 1/lambda=0, plain at 1/lambda=1
        ExperimentGrid(ks=[2], inv_hs=[4], taus=[0.0, 1.0], inv_lambdas=[0.0, 1.0],
                       smoother="jacobi"),
        # the all-tail sweep at 1/h=12, where no patch class reaches
        # _CLASS_MIN patches, and the walls' classes of fewer than _CLASS_MIN
        # patches stacked at 1/h=16
        ExperimentGrid(ks=[2], inv_hs=[12, 16], taus=[0.0, 1.0, 100.0], inv_lambdas=[0.0, 1.0]),
        # mixed element classes at 1/h=10, thousands of patches per colour at 1/h=32
        ExperimentGrid(ks=[2], inv_hs=[10, 32], taus=[1.0], inv_lambdas=[1.0]),
        # 4608 elements: condensation streams them in nine chunks of 512
        ExperimentGrid(ks=[2], inv_hs=[48], taus=[1.0], inv_lambdas=[1.0], smoother="jacobi"),
    ]


def run_grid(grid: ExperimentGrid) -> list:
    # grid order keeps each (degree, mesh) contiguous: one structure at a time
    rows = []
    for (k, inv_h), tups in itertools.groupby(grid.tuples(), key=lambda t: t[:2]):
        t0 = time.perf_counter()
        try:
            structure = build_structure(grid.problem, inv_h, k, grid.smoother)
        except Exception as exc:  # every row of this structure fails
            setup_ms = (time.perf_counter() - t0) * 1e3
            rows += [_failed_row(grid, t, exc, setup_ms) for t in tups]
            continue
        rows += [solve_one(grid, structure, t) for t in tups]
    return rows


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def emit(table: list, fmt: str = "csv") -> str:
    """``table`` as CSV, as markdown ("md"), or as CSV of the iteration
    table's ``TABLE_COLUMNS`` ("table")."""
    if fmt in ("csv", "table"):
        names = TABLE_COLUMNS if fmt == "table" else None
        header = ",".join(names) if names else CSV_HEADER
        return "\n".join([header] + [r.csv_line(names) for r in table]) + "\n"
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
    for problem, k in dict.fromkeys((r.problem, r.k) for r in table):
        rows = [r for r in table if (r.problem, r.k) == (problem, k)]
        combos = list(dict.fromkeys((r.mu, r.tau, r.inv_lambda) for r in rows))
        mus, taus, invls = (dict.fromkeys(axis) for axis in zip(*combos))

        def label(c):
            parts = []
            if len(mus) > 1:
                parts.append(_plabel("mu", c[0]))
            if len(taus) > 1:
                parts.append(_plabel("tau", c[1]))
            if len(invls) > 1:
                parts.append(_plabel("1/lambda", c[2]))
            return " ".join(parts) or "iters"

        inv_hs = dict.fromkeys(r.inv_h for r in rows)
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


def _cell(r: BenchRow) -> str:
    if r.error:
        return "x"
    return str(r.iters) if r.converged else f"{r.iters}*"
