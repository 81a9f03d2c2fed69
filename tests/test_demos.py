import runpy
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(p.name for p in DEMO_DIR.glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demos write CSVs into the working directory
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(DEMO_DIR / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


def test_verify_constructions_runs_the_fused_plan(monkeypatch, capsys):
    # The demo's last section takes one map step at FUSE_MIN_QUBITS through
    # the block plan and prints its deviation from the FFT form.
    from qbaker import gates, kernels

    calls = []

    def counted(*args, _fn=kernels.dense_block):
        calls.append(1)
        return _fn(*args)

    monkeypatch.setattr(kernels, "dense_block", counted)
    monkeypatch.setattr(sys, "argv", ["verify_constructions.py"])
    runpy.run_path(str(DEMO_DIR / "verify_constructions.py"), run_name="__main__")
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith(f"L = {gates.FUSE_MIN_QUBITS}: max abs deviation ")
    assert float(last.split()[-1]) <= 1e-12
    assert calls
