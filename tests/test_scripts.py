"""Smoke tests: each script runs end to end on tiny arguments."""

import inspect
import runpy
import sys
from pathlib import Path

import pytest

from oramlab import ENGINE_NAMES, cli

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


def test_traffic_lines(tmp_path):
    tool = runpy.run_path(str(SCRIPTS / "traffic_lines.py"))
    trace, before = str(tmp_path / "t.trace"), sys.gettrace()
    hits = tool["run_traced"]([
        ["trace", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1", "--out", trace],
        ["analyze", "--trace", trace],
    ])
    assert sys.gettrace() is before
    report = tool["unexecuted"](hits)
    assert set(report) == {path.name for path in Path(cli.__file__).parent.glob("*.py")}
    counted, missed = report["cli.py"]
    assert 0 < len(missed) < counted
    first_line = {fn: inspect.getsourcelines(fn)[1] + 1 for fn in (cli._cmd_trace, cli._cmd_codec)}
    assert first_line[cli._cmd_trace] not in missed and first_line[cli._cmd_codec] in missed
    for name, (_, missed) in report.items():
        lines = (Path(cli.__file__).parent / name).read_text().splitlines()
        assert not [at for at in missed if lines[at - 1].lstrip().startswith("raise ")]
    with pytest.raises(RuntimeError, match="^oramlab nope exited 1: "):
        tool["run_traced"]([["nope"]])
    assert sys.gettrace() is before
