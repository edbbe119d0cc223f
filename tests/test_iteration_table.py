"""The MINRES iteration table as a committed contract.

``tests/data/iterations.csv`` holds the 207 rows of ``bench.table_grids()``:
the 180-row grid {cavity k=1,2,3; step k=2,3} x 1/h in {2,4,8} x tau in
{0,1,100,1e4} x 1/lambda in {0,1e-4,1}, and 27 rows of fixed grids, each on a
path that grid does not reach (k=1 and k=4, the Jacobi smoother, 1/h from 6
to 48). It is produced, from the repository root, by the one command

    OMP_NUM_THREADS=1 PYTHONPATH=src python -m divhdg.cli --verify iterations \\
        --out tests/data/iterations.csv

(``divhdg-bench --verify iterations ...`` once installed). The test below
reruns every row through the same command and asserts ``iters`` and
``converged`` exactly, naming each row that differs; ``final_relres`` is kept
as a record and moves with rounding. A change that moves a count regenerates
the file and names every changed row in CHANGES.md.
"""

import csv
from pathlib import Path

import pytest

from divhdg.bench import TABLE_COLUMNS, ExperimentGrid, table_grids
from divhdg.cli import main

COMMITTED = Path(__file__).parent / "data" / "iterations.csv"
KEY = ("problem", "k", "inv_h", "mu", "tau", "inv_lambda", "smoother")


def counts(path: Path) -> dict:
    """(iters, converged) per grid point of a table file; a point listed
    twice raises."""
    got = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        assert tuple(reader.fieldnames) == TABLE_COLUMNS
        for r in reader:
            key = tuple(r[c] for c in KEY)
            if key in got:
                raise ValueError(f"{path.name} lists {dict(zip(KEY, key))} twice")
            got[key] = (int(r["iters"]), r["converged"] == "1")
    return got


def changed_rows(got: dict, want: dict) -> list:
    return [(key, got.get(key), want.get(key)) for key in sorted(got.keys() | want.keys())
            if got.get(key) != want.get(key)]


def test_committed_table_covers_the_grid():
    points = [
        (g.problem, str(k), str(ih), format(mu, "g"), format(tau, "g"), format(invl, "g"),
         g.smoother)
        for g in table_grids()
        for k, ih, mu, tau, invl in g.tuples()
    ]
    with open(COMMITTED, newline="") as f:
        n_rows = sum(1 for _ in csv.DictReader(f))
    assert n_rows == len(counts(COMMITTED)) == len(points) == 207
    assert set(counts(COMMITTED)) == set(points)


def test_counts_equal_committed_table(tmp_path, capsys):
    fresh = tmp_path / "iterations.csv"
    code = main(["--verify", "iterations", "--out", str(fresh)])
    raised = capsys.readouterr().err
    changed = changed_rows(counts(fresh), counts(COMMITTED))
    if changed or code:
        pytest.fail(
            f"{len(changed)} row(s) differ from {COMMITTED.name}, exit {code}:\n" + "\n".join(
                f"{dict(zip(KEY, key))}: (iters, converged) {got}, committed {want}"
                for key, got, want in changed
            ) + "\n" + raised,
            pytrace=False,
        )


def test_raising_row_is_named_on_stderr(tmp_path, capsys, monkeypatch):
    """The table keeps no error column, so a row that raises (NotSPD at a
    penalty too small for coercivity) is named with its exception on stderr,
    one line per row, and the exit status is 1."""
    monkeypatch.setattr(
        "divhdg.cli.table_grids", lambda: [ExperimentGrid(ks=[2], inv_hs=[2], alpha=0.01)]
    )
    out = tmp_path / "iterations.csv"
    assert main(["--verify", "iterations", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("cavity k=2 1/h=2 mu=1 tau=0 1/lambda=0 patch-sgs raised: NotSPD: ")
    assert tuple(out.read_text().splitlines()[0].split(",")) == TABLE_COLUMNS


def test_repeated_row_raises(tmp_path):
    lines = COMMITTED.read_text().splitlines(keepends=True)
    twice = tmp_path / "iterations.csv"
    twice.write_text("".join(lines + lines[1:2]))
    with pytest.raises(ValueError, match="lists .* twice"):
        counts(twice)


def test_inv_h_with_verify_rejected_before_any_run(capsys, monkeypatch):
    monkeypatch.setattr("divhdg.cli.run_grid", lambda g: pytest.fail("a row ran"))
    with pytest.raises(SystemExit) as exc:
        main(["--verify", "iterations", "--inv-h", "2"])
    assert exc.value.code == 2
    assert "--verify takes no sweep option, got --inv-h" in capsys.readouterr().err
