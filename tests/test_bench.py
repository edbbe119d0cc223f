import csv
import io
import os

import numpy as np
import pytest

from divhdg.bench import (
    CSV_HEADER,
    BenchRow,
    ExperimentGrid,
    _worker_count,
    emit,
    parse_csv,
    run_grid,
)
from divhdg.cli import build_parser, main
from divhdg.linalg import CapExceeded


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
            == "problem,dim,k,inv_h,mu,tau,inv_lambda,alpha,seed,iters,"
            "converged,final_relres,setup_ms,solve_ms,error"
        )

    def test_empty_table_is_header_only(self):
        assert emit([], "csv").strip() == CSV_HEADER

    def test_row_roundtrip_lossless(self):
        row = BenchRow(
            problem="cavity",
            dim=2,
            k=3,
            inv_h=16,
            mu=1.0 / 3.0,
            tau=np.pi,
            inv_lambda=1e-4,
            alpha=8.0,
            seed=7,
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
            "dim",
            "k",
            "inv_h",
            "mu",
            "tau",
            "inv_lambda",
            "alpha",
            "seed",
            "iters",
            "converged",
            "final_relres",
            "setup_ms",
            "solve_ms",
        ):
            assert getattr(b, name) == getattr(row, name), name

    def test_failed_row_roundtrip_keeps_error(self):
        ok = BenchRow(
            "cavity", 2, 2, 4, 1.0, 0.0, 0.0, 8.0, 0, 54, True, 1e-9, 1.0, 2.0
        )
        failed = BenchRow(
            "step", 2, 3, 8, 1.0, 0.0, 0.0, 0.01, 0, 0, False, np.inf, 3.0, 0.0,
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

    def test_bad_params(self):
        with pytest.raises(ValueError):
            _tiny_grid(mus=[-1.0])
        with pytest.raises(ValueError):
            _tiny_grid(inv_lambdas=[-0.1])

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

    def test_deterministic_modulo_timings(self):
        g = _tiny_grid(inv_hs=[2, 4])
        a = emit(run_grid(g), "csv")
        b = emit(run_grid(g), "csv")
        assert _strip_timing(a) == _strip_timing(b)

    def test_worker_count_invariant(self):
        g = _tiny_grid(inv_hs=[2, 4], taus=[0.0, 1.0])
        old = os.environ.get("HDG_THREADS")
        try:
            os.environ["HDG_THREADS"] = "1"
            serial = emit(run_grid(g), "csv")
            os.environ["HDG_THREADS"] = "4"
            pooled = emit(run_grid(g), "csv")
        finally:
            if old is None:
                os.environ.pop("HDG_THREADS", None)
            else:
                os.environ["HDG_THREADS"] = old
        assert _strip_timing(serial) == _strip_timing(pooled)

    def test_elasticity_runs_on_cavity_domain(self):
        g = _tiny_grid(problem="elast-steady", taus=[0.0], inv_lambdas=[1.0])
        rows = run_grid(g)
        assert rows[0].converged


class TestWorkerCount:
    def test_env_value_capped_by_jobs(self, monkeypatch):
        monkeypatch.setenv("HDG_THREADS", "2")
        assert _worker_count(4) == 2
        assert _worker_count(1) == 1
        monkeypatch.setenv("HDG_THREADS", "0")
        assert _worker_count(3) == 1

    def test_malformed_env_names_variable(self, monkeypatch):
        monkeypatch.setenv("HDG_THREADS", "two")
        with pytest.raises(ValueError, match="HDG_THREADS.*'two'"):
            _worker_count(3)


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
            "--schur-mode",
            "--smoother",
            "--allow-large",
        ):
            assert flag in text, flag

    def test_problem_choices(self):
        parser = build_parser()
        args = parser.parse_args(["--problem", "elast-unsteady"])
        assert args.problem == "elast-unsteady"
        with pytest.raises(SystemExit):
            parser.parse_args(["--problem", "pipe"])

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
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        rows = parse_csv(text)
        assert len(rows) == 1
        assert rows[0].converged

    def test_verify_small_exits_clean(self, capsys):
        assert main(["--verify", "small"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
