"""The example script: what it prints when a measured drift is NaN."""

import math
import runpy
import sys
from pathlib import Path

import pytest

from cosphere import reeb

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, capsys, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit):
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_seam_flow_demo_prints_a_nan_drift(monkeypatch, capsys):
    # a NaN after a finite drift: the builtin max would print the finite one
    monkeypatch.setattr(reeb, "conservation_report",
                        lambda traj: {"finite": 0.0, "broken": math.nan})
    out = run_script("seam_flow_demo.py", monkeypatch, capsys, "--t-end", "0.05")
    drifts = [line for line in out.splitlines() if "worst drift" in line]
    assert drifts and all(line.endswith("worst drift nan") for line in drifts)

