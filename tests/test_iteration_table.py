"""The MINRES iteration table as a committed contract.

``tests/data/iterations.csv`` holds the 180-row grid {cavity k=1,2,3; step
k=2,3} x 1/h in {2,4,8} x tau in {0,1,100,1e4} x 1/lambda in {0,1e-4,1}. It
is produced, from the repository root, by the one command

    OMP_NUM_THREADS=1 PYTHONPATH=src python -m divhdg.cli --verify iterations \\
        --out tests/data/iterations.csv

(``divhdg-bench --verify iterations ...`` once installed). The test below
reruns the 120 rows with 1/h <= 4 through the same command and asserts
``iters`` and ``converged`` exactly; ``final_relres`` is kept as a record and
moves with rounding. A change that moves a count regenerates the file and
names every changed row in CHANGES.md.

Run as a script, ``python tests/test_iteration_table.py FRESH.csv`` compares
a regenerated full table with the committed one, prints every row whose count
differs, and exits 1 if there is one.
"""

import csv
import sys
from pathlib import Path

import pytest

from divhdg.bench import TABLE_COLUMNS, table_grids
from divhdg.cli import main

COMMITTED = Path(__file__).parent / "data" / "iterations.csv"
KEY = ("problem", "k", "inv_h", "mu", "tau", "inv_lambda")


def counts(path: Path, max_inv_h: int = None) -> dict:
    """(iters, converged) per grid point of a table file, on 1/h <= max_inv_h."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        assert tuple(reader.fieldnames) == TABLE_COLUMNS
        return {
            tuple(r[c] for c in KEY): (int(r["iters"]), r["converged"] == "1")
            for r in reader
            if max_inv_h is None or int(r["inv_h"]) <= max_inv_h
        }


def changed_rows(got: dict, want: dict) -> list:
    return [(key, got.get(key), want.get(key)) for key in sorted(got.keys() | want.keys())
            if got.get(key) != want.get(key)]


def test_committed_table_covers_the_grid():
    points = {
        (g.problem, str(k), str(ih), format(mu, "g"), format(tau, "g"), format(invl, "g"))
        for g in table_grids()
        for k, ih, mu, tau, invl in g.tuples()
    }
    assert len(points) == 180
    assert set(counts(COMMITTED)) == points


def test_counts_equal_committed_table(tmp_path):
    fresh = tmp_path / "iterations.csv"
    argv = ["--verify", "iterations", "--inv-h", "2", "--inv-h", "4", "--out", str(fresh)]
    assert main(argv) == 0
    want = counts(COMMITTED, max_inv_h=4)
    assert len(want) == 120
    assert changed_rows(counts(fresh), want) == []


def test_odd_mesh_rejected_before_any_run(capsys):
    # the step grids need an even 1/h: the parser rejects 3 before a sweep
    with pytest.raises(SystemExit) as exc:
        main(["--verify", "iterations", "--inv-h", "3"])
    assert exc.value.code == 2
    assert "even" in capsys.readouterr().err


if __name__ == "__main__":
    changed = changed_rows(counts(Path(sys.argv[1])), counts(COMMITTED))
    for key, got, want in changed:
        print(f"{dict(zip(KEY, key))}: (iters, converged) {got}, committed {want}")
    print(f"{len(changed)} row(s) differ from {COMMITTED.name}")
    sys.exit(1 if changed else 0)
