import csv
import io
import re

import numpy as np
import pytest

from divhdg import bench, precond
from divhdg.assembly import ProblemParams, assemble_local_stacks, assemble_saddle
from divhdg.bench import (
    CSV_HEADER,
    BenchRow,
    ExperimentGrid,
    build_structure,
    emit,
    parse_csv,
    run_grid,
)
from divhdg.cli import build_parser, main
from divhdg.condense import eliminate_local
from divhdg.krylov import (
    minres,
    operator_condensed,
    pressure_mean_projector,
    solve_condensed,
)
from divhdg.linalg import CapExceeded
from divhdg.mesh import step_domain, unit_square
from divhdg.precond import SMOOTHERS, build_asp, build_schur
from divhdg.spaces import build_spaces, interpolate_essential


def _tiny_grid(**kw):
    base = dict(
        problem="cavity",
        ks=[2],
        inv_hs=[2],
        mus=[1.0],
        taus=[0.0],
        inv_lambdas=[0.0],
    )
    base.update(kw)
    return ExperimentGrid(**base)


def _strip_timing(text):
    """The CSV records without the setup_ms and solve_ms columns."""
    records = list(csv.reader(io.StringIO(text)))
    drop = {records[0].index("setup_ms"), records[0].index("solve_ms")}
    return [[c for i, c in enumerate(f) if i not in drop] for f in records]


class TestCsv:
    def test_header_text(self):
        assert (
            CSV_HEADER
            == "problem,k,inv_h,mu,tau,inv_lambda,alpha,seed,smoother,iters,"
            "converged,final_relres,setup_ms,solve_ms,error"
        )

    def test_empty_table_is_header_only(self):
        assert emit([], "csv").strip() == CSV_HEADER

    def test_row_roundtrip_lossless(self):
        row = BenchRow(
            problem="cavity",
            k=3,
            inv_h=16,
            mu=1.0 / 3.0,
            tau=np.pi,
            inv_lambda=1e-4,
            alpha=8.0,
            seed=7,
            smoother="jacobi",
            iters=41,
            converged=True,
            final_relres=3.14159e-9,
            setup_ms=12.5,
            solve_ms=0.1 + 0.2,
        )
        back = parse_csv(emit([row], "csv"))
        assert len(back) == 1
        b = back[0]
        for name in (
            "problem",
            "k",
            "inv_h",
            "mu",
            "tau",
            "inv_lambda",
            "alpha",
            "seed",
            "smoother",
            "iters",
            "converged",
            "final_relres",
            "setup_ms",
            "solve_ms",
        ):
            assert getattr(b, name) == getattr(row, name), name

    def test_failed_row_roundtrip_keeps_error(self):
        ok = BenchRow(
            "cavity", 2, 4, 1.0, 0.0, 0.0, 8.0, 0, "patch-sgs", 54, True, 1e-9, 1.0, 2.0
        )
        failed = BenchRow(
            "step", 3, 8, 1.0, 0.0, 0.0, 0.01, 0, "jacobi", 0, False, np.inf, 3.0, 0.0,
            error='NotSPD: pivot 3, value -1e-3\nat "row 7"',
        )
        text = emit([ok, failed], "csv")
        back = parse_csv(text)
        assert [r.error for r in back] == ["", failed.error]
        assert back[1].final_relres == np.inf
        assert not back[1].converged

    def test_bad_header_rejected(self):
        with pytest.raises(Exception):
            parse_csv("nope,nope\n1,2\n")

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_record_of_wrong_width_rejected(self, extra):
        fields = _row().csv_line().split(",")
        fields = fields[:extra] if extra < 0 else fields + ["x"]
        with pytest.raises(ValueError, match="expected 15"):
            parse_csv(CSV_HEADER + "\n" + ",".join(fields) + "\n")


class TestGridValidation:
    def test_desk_scale_caps(self):
        with pytest.raises(CapExceeded):
            _tiny_grid(inv_hs=[128])
        with pytest.raises(CapExceeded):
            _tiny_grid(ks=[3], inv_hs=[64])
        # caps lifted behind the flag
        _tiny_grid(inv_hs=[128], allow_large=True)
        _tiny_grid(ks=[3], inv_hs=[64], allow_large=True)

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            _tiny_grid(problem="channel")

    def test_unknown_smoother(self):
        # rejected when the grid is built, not by every row of the sweep
        with pytest.raises(ValueError, match="unknown smoother 'sgs'"):
            _tiny_grid(smoother="sgs")
        for smoother in SMOOTHERS:
            _tiny_grid(smoother=smoother)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            _tiny_grid(mus=[-1.0])
        with pytest.raises(ValueError):
            _tiny_grid(inv_lambdas=[-0.1])

    @pytest.mark.parametrize("inv_h", [1, 3, 0])
    def test_step_mesh_size_must_be_even(self, inv_h):
        # the re-entrant corner must be a grid vertex; rejected up front rather
        # than raised out of run_grid while the shared structures are built
        with pytest.raises(ValueError, match=f"got {inv_h}$"):
            _tiny_grid(problem="step", inv_hs=[2, inv_h])
        _tiny_grid(problem="step", inv_hs=[2, 4])

    @pytest.mark.parametrize("inv_h", [0, -2])
    def test_mesh_size_must_be_positive(self, inv_h):
        with pytest.raises(ValueError, match=f"got {inv_h}$"):
            _tiny_grid(inv_hs=[1, inv_h])
        _tiny_grid(inv_hs=[1, 3])

    def test_degree_maxit_tol_edges(self):
        # TestCliUsageErrors covers the rejected values; these are the edges
        # that must still pass, and a NaN tolerance
        _tiny_grid(ks=[1, 4], maxit=0, tol=1e-300)
        with pytest.raises(ValueError, match="got nan$"):
            _tiny_grid(tol=float("nan"))
        _tiny_grid(tol=0.999)

    @pytest.mark.parametrize(
        "kw,needle",
        [
            (dict(ks=[2.0]), "polynomial degree must be in 1..4, got 2.0"),
            (dict(ks=[True]), "polynomial degree must be in 1..4, got True"),
            (dict(inv_hs=[2.5]), "1/h must be a positive integer, got 2.5"),
            (dict(inv_hs=[4.0]), "1/h must be a positive integer, got 4.0"),
            (dict(inv_hs=[True]), "1/h must be a positive integer, got True"),
            (dict(inv_hs=["8"]), "1/h must be a positive integer, got 8"),
            (dict(inv_hs=[None]), "1/h must be a positive integer, got None"),
            (dict(problem="step", inv_hs=[2.0]), "1/h must be a positive even integer, got 2.0"),
            (dict(maxit=10.5), "maxit must be an integer, got 10.5"),
            (dict(maxit=False), "maxit must be an integer, got False"),
            (dict(seed=1.5), "seed must be an integer, got 1.5"),
            (dict(seed=True), "seed must be an integer, got True"),
            (dict(taus=["1"]), "tau must be a real number, got 1"),
            (dict(taus=[True]), "tau must be a real number, got True"),
            (dict(mus=[None]), "mu must be a real number, got None"),
            (dict(inv_lambdas=["0"]), "inv_lambda must be a real number, got 0"),
            (dict(inv_lambdas=[False]), "inv_lambda must be a real number, got False"),
            (dict(alpha="8"), "alpha must be a real number, got 8"),
            (dict(tol="1e-8"), "tol must be a real number, got 1e-8"),
            (dict(tol=True), "tol must be a real number, got True"),
        ],
    )
    def test_non_integer_degree_mesh_size_maxit_rejected(self, kw, needle):
        # each used to pass and then fail every row with a TypeError, or to
        # raise TypeError rather than ValueError (the parameters and tol), or
        # to run a bool as 0 or 1
        with pytest.raises(ValueError, match=f"^{re.escape(needle)}$"):
            _tiny_grid(**kw)

    def test_numpy_integers_accepted(self):
        g = _tiny_grid(
            ks=[np.int64(2)], inv_hs=[np.int32(2)], maxit=np.int64(1000), seed=np.int64(3)
        )
        rows = run_grid(g)
        assert [r.error for r in rows] == [""] and rows[0].converged
        assert parse_csv(emit(rows)) == rows

    @pytest.mark.parametrize("tol", [float("inf"), 1.0, 2.0])
    def test_tol_must_be_below_one(self, tol):
        with pytest.raises(ValueError, match=f"got {tol}$"):
            _tiny_grid(tol=tol)

    def test_tuple_order_k_major(self):
        g = _tiny_grid(ks=[1, 2], inv_hs=[2, 4], taus=[0.0, 1.0])
        tups = list(g.tuples())
        assert len(tups) == 8
        assert tups[0] == (1, 2, 1.0, 0.0, 0.0)
        assert tups[1] == (1, 2, 1.0, 1.0, 0.0)
        assert tups[-1] == (2, 4, 1.0, 1.0, 0.0)


class TestRunGrid:
    def test_rows_in_grid_order_and_converged(self):
        g = _tiny_grid(inv_hs=[2, 4], taus=[0.0, 1.0])
        rows = run_grid(g)
        assert [(r.inv_h, r.tau) for r in rows] == [
            (2, 0.0),
            (2, 1.0),
            (4, 0.0),
            (4, 1.0),
        ]
        assert all(r.converged for r in rows)
        assert all(r.final_relres <= 1e-8 for r in rows)
        assert all(r.error == "" for r in rows)

    def test_empty_grid(self):
        g = _tiny_grid(inv_hs=[])
        assert run_grid(g) == []

    def test_failures_recorded_not_raised(self):
        g = _tiny_grid(alpha=0.01)  # below the coercivity threshold
        rows = run_grid(g)
        assert len(rows) == 1
        assert not rows[0].converged
        assert rows[0].error != ""
        assert rows[0].smoother == "patch-sgs"  # a failed row keeps its smoother too

    @pytest.mark.parametrize("smoother", ["patch-sgs", "jacobi"])
    def test_single_element_mesh_has_empty_aux_space(self, smoother):
        # unit_square(1) has no interior vertex: the coarse correction is zero
        g = _tiny_grid(
            ks=[1, 2, 3],
            inv_hs=[1],
            taus=[0.0, 1.0],
            inv_lambdas=[0.0, 1.0],
            smoother=smoother,
        )
        rows = run_grid(g)
        assert len(rows) == 12
        assert [r.error for r in rows] == [""] * 12
        assert all(r.converged for r in rows)

    def test_deterministic_modulo_timings(self):
        g = _tiny_grid(inv_hs=[2, 4])
        a = emit(run_grid(g), "csv")
        b = emit(run_grid(g), "csv")
        assert _strip_timing(a) == _strip_timing(b)

    def test_failed_structure_fails_its_rows_and_the_sweep_goes_on(self, monkeypatch):
        real = bench.schur_structure

        def schur_structure(mesh):
            if mesh.num_triangles == unit_square(2).num_triangles:
                raise RuntimeError("no structure on this mesh")
            return real(mesh)

        monkeypatch.setattr(bench, "schur_structure", schur_structure)
        g = _tiny_grid(ks=[1, 2], inv_hs=[2, 4], taus=[0.0, 1.0])
        rows = run_grid(g)
        assert [(r.k, r.inv_h) for r in rows] == [(1, 2)] * 2 + [(1, 4)] * 2 + [
            (2, 2)
        ] * 2 + [(2, 4)] * 2
        for r in rows:
            if r.inv_h == 2:
                assert r.error == "RuntimeError: no structure on this mesh"
                assert not r.converged and r.iters == 0
            else:
                assert r.error == "" and r.converged
        assert "Failed rows:" in emit(rows, "md")

    def test_jacobi_sweep_builds_no_patches(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("patch structure built for a Jacobi sweep")

        monkeypatch.setattr(precond, "_colour_patches", refuse)
        g = _tiny_grid(inv_hs=[2, 4], taus=[0.0, 1.0], smoother="jacobi")
        rows = run_grid(g)
        assert [r.error for r in rows] == [""] * 4
        assert all(r.converged for r in rows)
        asp = build_structure("cavity", 4, 2, "jacobi").asp
        assert asp.groups is None


def _former_structure(problem, inv_h, k):
    # the former per-(1/h, k) structure of run_grid, kept verbatim as reference
    domain = step_domain if problem == "step" else unit_square
    mesh = domain(inv_h)
    spaces = build_spaces(mesh, k)
    ess = interpolate_essential(mesh, spaces, problem)
    stacks = assemble_local_stacks(mesh, spaces)
    return (mesh, spaces, ess, stacks)


def _former_solve(grid, structure, tup):
    """The former hand composition of the block-diagonal solve in
    ``solve_one``, kept verbatim as reference: (x, report, deflate)."""
    k, inv_h, mu, tau, invl = tup
    mesh, spaces, ess, stacks = structure
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
    x, rep = minres(
        apply_k,
        pinv,
        rhs,
        tol=grid.tol,
        maxit=grid.maxit,
        seed=grid.seed,
        project=proj,
    )
    return x, rep, schur.deflate


# cavity at 1/lambda = 0 deflates the constant pressure; the step outlet does not
SOLVE_GRIDS = [
    (dict(problem="cavity", ks=[2], inv_hs=[4], taus=[0.0, 1.0]), True),
    (dict(problem="step", ks=[3], inv_hs=[2], taus=[0.0, 1.0]), False),
]


class TestSolveCondensed:
    @pytest.mark.parametrize("kw,deflate", SOLVE_GRIDS, ids=["cavity", "step"])
    def test_run_grid_rows_equal_former_composition(self, kw, deflate):
        grid = _tiny_grid(**kw)
        rows = run_grid(grid)
        assert len(rows) == 2
        for row, tup in zip(rows, grid.tuples()):
            structure = _former_structure(grid.problem, tup[1], tup[0])
            _, rep, deflates = _former_solve(grid, structure, tup)
            assert deflates is deflate
            assert row.error == "" and row.converged
            assert row.iters == rep.iterations
            assert row.final_relres == rep.final_relres

    @pytest.mark.parametrize("kw", [kw for kw, _ in SOLVE_GRIDS], ids=["cavity", "step"])
    def test_iterate_bit_identical(self, kw):
        grid = _tiny_grid(**kw)
        tup = next(grid.tuples())
        k, inv_h, mu, tau, invl = tup
        s = build_structure(grid.problem, inv_h, k)
        x_ref, rep_ref, _ = _former_solve(grid, (s.mesh, s.spaces, s.essential, s.stacks), tup)
        params = ProblemParams(mu=mu, tau=tau, inv_lambda=invl, alpha=grid.alpha)
        cond, asp, schur = s.row(params)
        x, rep = solve_condensed(
            cond, asp, schur, tol=grid.tol, maxit=grid.maxit, seed=grid.seed
        )
        assert np.array_equal(x, x_ref)
        assert np.array_equal(rep.history, rep_ref.history)


# (problem, k, 1/h, smoother, (tau, 1/lambda) rows, deflates): the enclosed
# cavity deflates at 1/lambda = 0, the step outlet never does
SHARED_CASES = [
    ("cavity", 2, 4, "patch-sgs", [(0.0, 0.0), (1.0, 0.0), (100.0, 0.0)], True),
    ("step", 3, 2, "patch-sgs", [(0.0, 0.0), (1.0, 1.0), (1e4, 1e-4)], False),
    ("cavity", 2, 4, "jacobi", [(1.0, 1.0), (0.0, 1e-4), (1e4, 1.0)], False),
]


class TestSharedStructure:
    @pytest.mark.parametrize(
        "problem,k,inv_h,smoother,points,deflates",
        SHARED_CASES,
        ids=["deflated", "outlet", "jacobi"],
    )
    def test_rows_on_one_structure_equal_rows_built_alone(
        self, problem, k, inv_h, smoother, points, deflates
    ):
        s = build_structure(problem, inv_h, k, smoother)
        for tau, invl in points:
            params = ProblemParams(tau=tau, inv_lambda=invl)
            block = assemble_saddle(s.mesh, s.spaces, params, s.essential, stacks=s.stacks)
            cond = eliminate_local(block, s.condensed)
            asp = build_asp(cond, structure=s.asp)
            schur = build_schur(s.mesh, params, structure=s.schur)
            x, rep = solve_condensed(cond, asp, schur, tol=1e-8, maxit=1000, seed=4)
            # the same row through Structure.row
            x1, rep1 = solve_condensed(*s.row(params), tol=1e-8, maxit=1000, seed=4)

            # everything built again for this row alone
            mesh = (step_domain if problem == "step" else unit_square)(inv_h)
            spaces = build_spaces(mesh, k)
            ess = interpolate_essential(mesh, spaces, problem)
            cond0 = eliminate_local(assemble_saddle(mesh, spaces, params, ess))
            schur0 = build_schur(mesh, params)
            x0, rep0 = solve_condensed(
                cond0, build_asp(cond0, smoother=smoother), schur0, tol=1e-8, maxit=1000, seed=4
            )
            assert schur.deflate is schur0.deflate is (deflates and invl == 0.0)
            assert rep.converged and rep.iterations > 5
            assert np.array_equal(x, x0) and np.array_equal(x1, x0)
            assert np.array_equal(rep.history, rep0.history)
            assert np.array_equal(rep1.history, rep0.history)


class TestMarkdown:
    def test_one_column_per_tau(self):
        g = _tiny_grid(inv_hs=[2, 4], taus=[0.0, 1.0, 100.0])
        text = emit(run_grid(g), "md")
        header = next(
            ln for ln in text.splitlines() if ln.startswith("| 1/h")
        )
        assert header.count("|") == 5  # bars around the 1/h + three tau columns
        assert "tau=0" in header
        assert "tau=1" in header
        assert "tau=100" in header


class TestCli:
    def test_flags_exist_verbatim(self):
        parser = build_parser()
        text = parser.format_help()
        for flag in (
            "--problem",
            "--k",
            "--inv-h",
            "--mu",
            "--tau",
            "--inv-lambda",
            "--lambda",
            "--alpha",
            "--tol",
            "--maxit",
            "--seed",
            "--format",
            "--out",
            "--verify",
            "--smoother",
            "--allow-large",
        ):
            assert flag in text, flag
        assert "--schur-mode" not in text  # one Schur formula

    def test_problem_choices(self):
        parser = build_parser()
        args = parser.parse_args(["--problem", "step"])
        assert args.problem == "step"
        for bad in ("pipe", "elast-steady", "elast-unsteady"):
            with pytest.raises(SystemExit):
                parser.parse_args(["--problem", bad])

    def test_lambda_alias(self):
        parser = build_parser()
        args = parser.parse_args(["--lambda", "inf", "--lambda", "2"])
        from divhdg.cli import _inv_lambdas

        got = _inv_lambdas(args)
        assert got == [0.0, 0.5]

    def test_main_writes_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "--problem",
                "cavity",
                "--k",
                "2",
                "--inv-h",
                "2",
                "--tau",
                "0",
                "--inv-lambda",
                "0",
                "--smoother",
                "jacobi",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        rows = parse_csv(text)
        assert len(rows) == 1
        assert rows[0].converged and rows[0].smoother == "jacobi"

    @pytest.mark.parametrize(
        "k,want",
        [(1, [8, 16, 32, 64]), (2, [8, 16, 32, 64]), (3, [8, 16, 32]), (4, [8, 16, 32])],
    )
    def test_default_meshes_stop_at_degree_cap(self, k, want, monkeypatch, capsys):
        grids = []
        monkeypatch.setattr("divhdg.cli.run_grid", lambda g: grids.append(g) or [])
        assert main(["--k", str(k)]) == 0
        assert grids[0].inv_hs == want
        assert capsys.readouterr().out.strip() == CSV_HEADER

    def test_verify_small_exits_clean(self, tmp_path, capsys):
        report = tmp_path / "small.txt"
        assert main(["--verify", "small", "--out", str(report)]) == 0
        text = report.read_text()
        assert "[PASS]" in text and "[FAIL]" not in text
        assert text.splitlines()[-1].startswith("verification level=small: 0 failing")
        assert capsys.readouterr().out == ""


class TestCliUsageErrors:
    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["--k", "0"], "polynomial degree"),
            (["--problem", "step", "--inv-h", "3"], "even"),
            (["--mu", "-1"], "mu must be positive"),
            (["--lambda", "-1"], "--lambda must be positive"),
            (["--inv-h", "128"], "desk-scale cap"),
            (["--k", "5", "--inv-h", "2"], "polynomial degree must be in 1..4, got 5"),
            (["--maxit", "-1"], "maxit must be >= 0, got -1"),
            (["--tol", "-1"], "tol must be positive, got -1"),
            (["--mu", "nan"], "mu must be finite, got nan"),
            (["--mu", "inf"], "mu must be finite, got inf"),
            (["--tau", "nan"], "tau must be finite, got nan"),
            (["--tau", "inf"], "tau must be finite, got inf"),
            (["--alpha", "nan"], "alpha must be finite, got nan"),
            (["--inv-lambda", "nan"], "inv_lambda must be finite, got nan"),
            (["--lambda", "nan"], "--lambda must be positive"),
            (["--tol", "inf"], "tol must be finite and below 1, got inf"),
            (["--tol", "1"], "tol must be finite and below 1, got 1.0"),
            (["--k", "1", "--inv-h", "2", "--out", "/nonexistent/x.csv"], "cannot open --out"),
            (["--schur-mode", "approx"], "unrecognized arguments: --schur-mode approx"),
            (["--smoother", "sgs"], "invalid choice: 'sgs'"),
            (["--verify", "small", "--k", "3"], "--verify takes no sweep option, got --k"),
            (["--verify", "iterations", "--smoother", "jacobi"],
             "--verify takes no sweep option, got --smoother"),
            (["--verify", "small", "--lambda", "inf", "--format", "md", "--allow-large"],
             "--verify takes no sweep option, got --lambda, --format, --allow-large"),
        ],
    )
    def test_invalid_value_is_one_line_usage_error(self, argv, needle, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        lines = [ln for ln in err.splitlines() if "error:" in ln]
        assert len(lines) == 1 and needle in lines[0]
        assert "Traceback" not in err


class TestMarkdownFailures:
    def test_failed_rows_listed_under_table(self):
        rows = run_grid(_tiny_grid(alpha=0.01, inv_hs=[2, 4], taus=[0.0, 1.0]))
        assert all(r.error for r in rows)
        text = emit(rows, "md")
        assert "| 2 | x | x |" in text and "| 4 | x | x |" in text
        listed = [ln for ln in text.splitlines() if ln.startswith("- 1/h=")]
        assert len(listed) == len(rows)
        for r, ln in zip(rows, listed):
            assert ln.startswith(f"- 1/h={r.inv_h}, mu=1, tau={r.tau:g}, 1/lambda=0: ")
            assert ln.endswith(r.error)
        assert text.index("| 4 | x | x |") < text.index("Failed rows:")

    def test_multiline_error_stays_on_one_line(self):
        row = _row(inv_h=2, error="ValueError: first\nsecond")
        text = emit([row], "md")
        assert "- 1/h=2, mu=1, tau=0, 1/lambda=0: ValueError: first second" in text

    def test_table_without_failures_unchanged(self):
        rows = [
            _row(inv_h=2, tau=0.0, iters=12),
            _row(inv_h=2, tau=1.0, iters=13, converged=False),
            _row(inv_h=4, tau=0.0, iters=14),
        ]
        want = (
            "## cavity, k=2\n"
            "\n"
            "| 1/h | tau=0 | tau=1 |\n"
            "| --- | --- | --- |\n"
            "| 2 | 12 | 13* |\n"
            "| 4 | 14 |  |\n"
        )
        assert emit(rows, "md") == want


def _row(**kw):
    base = dict(
        problem="cavity",
        k=2,
        inv_h=2,
        mu=1.0,
        tau=0.0,
        inv_lambda=0.0,
        alpha=8.0,
        seed=0,
        smoother="patch-sgs",
        iters=0,
        converged=True,
        final_relres=1e-9,
        setup_ms=1.0,
        solve_ms=1.0,
    )
    base.update(kw)
    return BenchRow(**base)
