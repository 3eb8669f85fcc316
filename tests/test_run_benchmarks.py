"""Smoke test of scripts/run_benchmarks.py, which runs the benchmark matrix
end to end."""

import importlib.util
import re
from pathlib import Path

from igabem.experiments import MATRIX, read_run_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmarks.py"


def test_quick_pass_writes_every_row(tmp_path, monkeypatch, capsys):
    # one adaptive and one uniform slit row: each writes a run CSV that
    # reads back, only the adaptive one writes its knots, one line per row,
    # then the matrix's total wall time
    spec = importlib.util.spec_from_file_location("run_benchmarks", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rows = {tag: MATRIX[tag] for tag in ("slit_galerkin_mu_adaptive",
                                         "slit_galerkin_mu_uniform")}
    monkeypatch.setattr(script, "MATRIX", rows)
    assert script.main(["--outdir", str(tmp_path), "--quick",
                        "--energy-cache", str(tmp_path / "ref.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out[:-2]] == list(rows)
    assert re.fullmatch(r"total wall time \d+\.\ds", out[-2])
    assert out[-1] == f"wrote CSVs to {tmp_path}"
    for tag in rows:
        cols = read_run_csv(tmp_path / f"{tag}.csv")
        assert cols["N"][-1] >= 120 and (cols["N"][:-1] < 120).all()
    assert (tmp_path / "slit_galerkin_mu_adaptive_knots.csv").exists()
    assert not (tmp_path / "slit_galerkin_mu_uniform_knots.csv").exists()
