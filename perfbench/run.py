"""Solver benchmark: end-to-end sweep times, and a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cavity-sweep --seed 0 --seconds 30 --trace 0

Every measurement runs in a fresh child process with `src` on the path,
`HDG_THREADS=1` (rows one after another) and one BLAS thread. Untraced
repetitions (`sweep.py`: public `bench.run_grid`) repeat while the next one
is expected to end within `--seconds` (at least one), and each metric is the
median over them. With `--trace 1` each repetition is an untraced sweep
followed by a traced one (`traced.py`), and the per-layer metrics are
reported instead.

Correctness gate: a row fails if it raised, did not converge or stopped
above the tolerance; a traced row also fails if its true relative residual
exceeds TRUE_RELRES_BOUND or its iteration count differs from the untraced
row's; and every run first checks that a grid with alpha=0.01 returns its
NotSPD row and that the gate counts it. Any failure gives `"correct": false`
and exit code 1. The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import THREAD_VARS, TOL, WORKLOADS, row_failure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole run, children included
SETUP_SAMPLES = 3  # set-up times per untraced run, topped up by set-up-only sweeps

# The stop test is relative to the preconditioned residual of a random start
# vector, so ||b - K x|| / ||b|| sits orders of magnitude above TOL on fine
# meshes; this bound catches an x that does not solve the system.
TRUE_RELRES_BOUND = 1e-3


class BenchError(RuntimeError):
    """A child process or the self-check failed; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update((var, "1") for var in THREAD_VARS)
    return env


def run_child(script: str, args: list, deadline: float) -> dict:
    """Run one child to completion and return the JSON of its last line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{script}: no time left before the run deadline")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script)] + args,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script}: timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_rev() -> str:
    """The checkout's commit, read from `.git` without running git (which
    would search parent directories); "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def self_check(deadline: float) -> None:
    """A grid with alpha=0.01 must come back with its NotSPD row, counted."""
    rows = run_child("sweep.py", ["--selfcheck"], deadline)["rows"]
    failed = [r for r in rows if row_failure(r)]
    if len(rows) != 1 or len(failed) != 1 or not rows[0]["error"].startswith("NotSPD"):
        raise BenchError(f"self-check: alpha=0.01 row not captured and counted: {rows}")


def sweep_metrics(out: dict) -> dict:
    solve_s = sum(r["solve_ms"] for r in out["rows"]) / 1e3
    return dict(
        wall_s=out["wall_s"],
        setup_s=out["wall_s"] - solve_s,
        solve_s=solve_s,
        peak_rss_mb=out["peak_rss_mb"],
    )


def layer_metrics(traced: dict, untraced_wall_s: float) -> dict:
    """Per-layer totals over the traced rows and shared structures."""
    rows = [r for r in traced["rows"] if not r["error"]]
    ms, calls = {}, {}
    for spans in [traced["shared"]] + [r["spans"] for r in traced["rows"]]:
        for name, s in spans.items():
            ms[name] = ms.get(name, 0.0) + s["ms"]
            calls[name] = calls.get(name, 0) + s["calls"]

    def total(name):
        return ms.get(name, 0.0)

    def flop(key, span):
        return sum(r[key] * r["spans"].get(span, {}).get("calls", 0) for r in rows)

    smooth_calls = calls.get("precond.smooth", 0)
    k_calls = calls.get("krylov.k_apply", 0)
    smooth_flop = flop("smooth_flop", "precond.smooth")
    return {
        "mesh.build_ms": total("mesh.build"),
        "spaces.build_ms": total("spaces.build"),
        "spaces.essential_ms": total("spaces.essential"),
        "assembly.local_stacks_ms": total("assembly.local_stacks"),
        "assembly.local_stacks_mb": traced["local_stacks_bytes"] / 2**20,
        "assembly.saddle_ms": total("assembly.saddle"),
        "condense.eliminate_ms": total("condense.eliminate"),
        "condense.n_free": max((r["n_free"] for r in rows), default=0),
        "condense.a_g_nnz": max((r["a_g_nnz"] for r in rows), default=0),
        "precond.asp_setup_ms": total("precond.asp_setup"),
        "precond.n_patches": max((r["n_patches"] for r in rows), default=0),
        "precond.schur_setup_ms": total("precond.schur_setup"),
        "precond.schur_apply_ms": total("precond.schur_apply"),
        "precond.smooth_ms": total("precond.smooth"),
        "precond.smooth_calls": smooth_calls,
        "precond.smooth_ms_per_call": total("precond.smooth") / max(smooth_calls, 1),
        "precond.smooth_mflop": smooth_flop / max(smooth_calls, 1) / 1e6,
        "precond.smooth_mflops_rate": smooth_flop / max(total("precond.smooth"), 1e-9) / 1e3,
        "precond.coarse_ms": total("precond.coarse"),
        "krylov.iters": sum(r["iters"] for r in traced["rows"]),
        "krylov.minres_ms": total("krylov.minres"),
        "krylov.k_apply_ms": total("krylov.k_apply"),
        "krylov.k_apply_calls": k_calls,
        "krylov.k_apply_mflop": flop("k_apply_flop", "krylov.k_apply") / max(k_calls, 1) / 1e6,
        "krylov.minres_self_ms": total("krylov.minres")
        - total("krylov.k_apply")
        - total("precond.apply"),
        "krylov.true_relres": max((r["true_relres"] for r in rows), default=float("inf")),
        "trace.overhead_pct": 100.0 * (traced["wall_s"] / untraced_wall_s - 1.0),
    }


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def row_label(i: int, r: dict) -> str:
    return f"row {i} (tau={r['tau']:g}, 1/lambda={r['inv_lambda']:g})"


def traced_failures(traced: dict, untraced_rows: list) -> list:
    """Rows of the traced run that fail the gate, or whose iteration count
    differs from the untraced run's (both runs sweep the same grid)."""
    problems = []
    for i, (r, u) in enumerate(zip(traced["rows"], untraced_rows)):
        why = row_failure(r)
        if not why and not r["true_relres"] <= TRUE_RELRES_BOUND:
            why = f"true relres {r['true_relres']:.3e} > {TRUE_RELRES_BOUND:g}"
        if not why and r["iters"] != u["iters"]:
            why = f"traced iters {r['iters']} != untraced {u['iters']}"
        if why:
            problems.append(f"traced {row_label(i, r)}: {why}")
    return problems


@dataclass
class Measurement:
    reps: list = field(default_factory=list)  # metrics of each repetition
    setup_s: list = field(default_factory=list)  # every set-up time sample
    attempted: int = 0  # rows run, traced rows included
    failures: list = field(default_factory=list)
    iters: list = None  # iterations of each row
    env: dict = None  # reported by the sweep process


def measure(args, deadline: float) -> Measurement:
    """Repeat while the next repetition is expected to end within
    `--seconds`, at least once."""
    child_args = ["--workload", args.workload, "--seed", str(args.seed)]
    m = Measurement()
    t_start = time.monotonic()
    while True:
        t_rep = time.monotonic()
        out = run_child("sweep.py", child_args, deadline)
        rows = out["rows"]
        m.env = out["env"]
        m.attempted += len(rows)
        for i, r in enumerate(rows):
            why = row_failure(r)
            if not why and m.iters is not None and r["iters"] != m.iters[i]:
                why = f"{r['iters']} iterations, {m.iters[i]} in an earlier repetition"
            if why:
                m.failures.append(f"{row_label(i, r)}: {why}")
        m.iters = [r["iters"] for r in rows]
        if args.trace:
            traced = run_child("traced.py", child_args, deadline)
            m.attempted += len(traced["rows"])
            m.failures += traced_failures(traced, rows)
            m.reps.append(layer_metrics(traced, out["wall_s"]))
        else:
            m.reps.append(sweep_metrics(out))
            m.setup_s.append(m.reps[-1]["setup_s"])
        now = time.monotonic()
        if now + (now - t_rep) > t_start + args.seconds:
            break
    while not args.trace and len(m.setup_s) < SETUP_SAMPLES:
        out = run_child("sweep.py", child_args + ["--setup-only"], deadline)
        m.attempted += len(out["rows"])
        for i, r in enumerate(out["rows"]):
            if r["error"]:
                m.failures.append(f"set-up-only {row_label(i, r)}: {r['error']}")
        m.setup_s.append(sweep_metrics(out)["setup_s"])
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "divhdg" / "__init__.py").is_file():
        print(f"error: no divhdg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        units = declared_units(args.trace)
        self_check(deadline)
        m = measure(args, deadline)
        values = {name: [r[name] for r in m.reps] for name in units}
        if not args.trace:
            values["setup_s"] = m.setup_s
        metrics = {
            name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in units.items()
        }
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = dict(m.env, nproc=len(os.sched_getaffinity(0)), git_rev=git_rev())
    print("# env " + json.dumps(env))
    if env["have_numba"]:
        print("# WARNING: numba is active; the smoother runs a compiled kernel")
    print(f"# {len(m.reps)} repetitions; iterations {m.iters}")
    if m.setup_s:
        print(f"# setup_s samples {[round(s, 4) for s in m.setup_s]}")
    failed = len(m.failures)
    for f in m.failures:
        print(f"# FAILED {f}")
    print(f"# fail_frac {failed / m.attempted:.6g} ({failed} of {m.attempted} rows), tol {TOL:g}")
    for name, v in metrics.items():
        print(f"# {name} {v['value']:.6g} {v['unit']}")
    result = dict(correct=failed == 0, attempted=m.attempted, failed=failed, metrics=metrics)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
