"""Smoke tests for the command line entry points."""

import numpy as np
import pytest

from igabem.cli import build_parser, main
from igabem.experiments import read_run_csv


def test_parser_rejects_unknown_problem(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--problem", "annulus"])
    assert "invalid choice" in capsys.readouterr().err


def test_run_writes_csv_and_rates_reads_it(tmp_path, capsys):
    out = tmp_path / "slit.csv"
    knots = tmp_path / "slit_knots.csv"
    code = main([
        "run", "--problem", "slit", "--estimator", "mu",
        "--max-dofs", "24", "--out", str(out), "--knots-out", str(knots),
        "--energy-cache", str(tmp_path / "ref.json"),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "error rate" in text
    cols = read_run_csv(out)
    assert np.all(np.diff(cols["N"]) > 0)
    assert knots.read_text(encoding="utf-8").startswith("t,multiplicity")

    code = main(["rates", str(out)])
    assert code == 0
    assert "err" in capsys.readouterr().out


def test_rates_fails_cleanly_on_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n", encoding="utf-8")
    assert main(["rates", str(bad)]) == 1
    assert "unexpected header" in capsys.readouterr().err


@pytest.mark.parametrize("argv, why", [
    (["--problem", "square", "--method", "collocation"], "supports methods"),
    (["--problem", "slit", "--theta", "1.5"], "theta must lie in (0, 1], got 1.5"),
    (["--problem", "slit", "--quad-order", "0"], "rule order must be >= 1, got 0"),
], ids=["square-collocation", "theta", "quad-order"])
def test_run_refuses_bad_input_in_one_line(tmp_path, capsys, argv, why):
    code = main(["run", *argv, "--max-dofs", "24",
                 "--energy-cache", str(tmp_path / "ref.json")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("igabem run: ") and why in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
