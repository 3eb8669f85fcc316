"""Smoke tests for the command line entry points."""

import numpy as np
import pytest

from igabem.cli import build_parser, main
from igabem.experiments import RUN_CSV_HEADER, read_run_csv


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


def test_run_of_one_iteration_reports_no_rate(tmp_path, capsys):
    # a run that stops after its first iteration is valid but has no slope:
    # it says so in one line instead of printing nan, exits 0 and still
    # writes its files
    out, knots = tmp_path / "one.csv", tmp_path / "one_knots.csv"
    code = main(["run", "--problem", "slit", "--max-dofs", "1", "--out", str(out),
                 "--knots-out", str(knots), "--energy-cache", str(tmp_path / "ref.json")])
    assert code == 0
    text = capsys.readouterr().out
    assert "nan" not in text
    assert "no error rate: a rate needs at least two iterations, the run made 1\n" in text
    assert len(read_run_csv(out)["N"]) == 1
    assert knots.read_text(encoding="utf-8").startswith("t,multiplicity")


def test_rates_fails_cleanly_on_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n", encoding="utf-8")
    assert main(["rates", str(bad)]) == 1
    assert "unexpected header" in capsys.readouterr().err


@pytest.mark.parametrize("cut", ["short", "long"])
def test_rates_refuses_a_row_of_the_wrong_length(tmp_path, capsys, cut):
    # a run CSV cut short in its last row, or with a field too many there,
    # is refused in one line naming the file and the line; the good file
    # given in the same call is still reported
    rows = ["%d,%d,%d,%r,%r,%r,1,1,5" % (i, n, n - 1, 1 / n, 2 / n, 1 / n ** 2)
            for i, n in enumerate((3, 5, 9, 17))]
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("\n".join([RUN_CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    last = rows[-1].rsplit(",", 3)[0] if cut == "short" else rows[-1] + ",7"
    bad.write_text("\n".join([RUN_CSV_HEADER, *rows[:-1], last]), encoding="utf-8")
    assert main(["rates", str(bad), str(good)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith(f"{bad}: ") and "line 5 " in captured.err
    assert str(good) in captured.out and "err" in captured.out
    assert str(bad) not in captured.out


@pytest.mark.parametrize("n_rows", [0, 1])
def test_rates_refuses_fewer_than_two_rows(tmp_path, capsys, n_rows):
    # a header-only file, or one row, has no slope: it is refused in one
    # line naming the file, and the good file of the same call is reported
    rows = ["%d,%d,%d,%r,%r,%r,1,1,5" % (i, n, n - 1, 1 / n, 2 / n, 1 / n ** 2)
            for i, n in enumerate((3, 5, 9, 17))]
    good, short = tmp_path / "good.csv", tmp_path / "short.csv"
    good.write_text("\n".join([RUN_CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    short.write_text("\n".join([RUN_CSV_HEADER, *rows[:n_rows]]) + "\n", encoding="utf-8")
    assert main(["rates", str(short), str(good)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith(f"{short}: ") and "at least two" in captured.err
    assert str(good) in captured.out and "err" in captured.out
    assert str(short) not in captured.out and "nan" not in captured.out


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
