"""Smoke tests: each experiment script runs end to end on tiny arguments."""

import runpy
import sys
from pathlib import Path

from oramlab import ENGINE_NAMES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, args, monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    monkeypatch.setattr(sys, "argv", [name, *args])
    assert main() == 0
    return capsys.readouterr().out.splitlines()


def test_lower_bound_sweep(monkeypatch, capsys):
    out = _run_script("lower_bound_sweep.py", ["--sizes", "64", "256"], monkeypatch, capsys)
    assert out[-1].startswith("bound/n across sizes: [")
    assert out[-1].endswith("(strictly increasing)")


def test_distinguisher_experiment(monkeypatch, capsys):
    args = ["--n", "20", "--k", "2", "--trials", "5", "--distance-samples", "3"]
    out = _run_script("distinguisher_experiment.py", args, monkeypatch, capsys)
    assert out[0].startswith("n=20 k=2 trials=5")
    rows = {line.split()[0]: line.split()[1:] for line in out[2:]}
    assert list(rows) == list(ENGINE_NAMES)
    assert rows["linear-scan"][2] == "0.000"  # the oblivious engine's advantage
