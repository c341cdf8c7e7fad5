"""The demo script under scripts/ runs end to end at a small size."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_demo_sweep.py"


def test_demo_sweep_writes_csv_and_svg(monkeypatch, capsys, tmp_path):
    argv = ["--cliques", "4", "--samples", "2", "--output-dir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", [SCRIPT.name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exc.value.code == 0
    assert "(22/22 points ok)" in capsys.readouterr().out
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("model,knob,") and len(rows) == 23
    assert (tmp_path / "sweep.svg").read_text().startswith("<svg")
