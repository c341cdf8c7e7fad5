"""The experiment scripts under scripts/ run end to end at small sizes."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


@pytest.mark.parametrize(
    "name, args",
    [
        ("verify_theorems.py", ["--trials", "4"]),
        ("embedding_report.py", ["--trials", "1"]),
    ],
)
def test_script_runs(monkeypatch, capsys, name, args):
    _run(monkeypatch, name, *args)
    assert capsys.readouterr().out


def test_demo_sweep_writes_csv_and_svg(monkeypatch, capsys, tmp_path):
    _run(
        monkeypatch,
        "run_demo_sweep.py",
        "--cliques", "4", "--samples", "2", "--output-dir", str(tmp_path),
    )
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("model,knob,") and len(rows) > 1
    assert (tmp_path / "sweep.svg").read_text().startswith("<svg")
