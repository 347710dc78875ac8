import argparse
import concurrent.futures
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oramlab import ENGINE_NAMES, TreeOram, adversary, cli, core, read_trace
from oramlab.cli import EXIT_IO, EXIT_MODEL, EXIT_OK, EXIT_USAGE, main
from oramlab.core import WORKLOAD_FAMILIES

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def run_cli(*argv):
    return main(list(argv))


def test_trace_passthrough_alt(tmp_path, capsys):
    out = tmp_path / "t.trace"
    assert run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=4",
                   "--seed", "1", "--out", str(out)) == EXIT_OK
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body == ["1", "1", "1", "1"]
    assert "#N=4" in out.read_text()


def test_trace_dummy_encoder_length(tmp_path):
    out = tmp_path / "t.trace"
    assert run_cli("trace", "--engine", "dummy-encoder", "--workload", "alt:n=4",
                   "--seed", "7", "--out", str(out)) == EXIT_OK
    header = dict(
        l[1:].split("=", 1) for l in out.read_text().splitlines() if l.startswith("#") and "=" in l
    )
    assert int(header["N"]) in (8, 9)


def test_trace_leaker_refuses_an_empty_workload(tmp_path, capsys):
    assert run_cli("trace", "--engine", "dummy-leaker", "--workload", "alt:n=0",
                   "--seed", "7", "--out", str(tmp_path / "t.trace")) == EXIT_MODEL
    assert "needs the workload length n >= 1" in capsys.readouterr().err


def test_trace_leaker_takes_n_from_the_workload(tmp_path):
    out = tmp_path / "t.trace"
    assert run_cli("trace", "--engine", "dummy-leaker", "--workload", "alt:n=4",
                   "--seed", "7", "--out", str(out)) == EXIT_OK
    header = dict(
        l[1:].split("=", 1) for l in out.read_text().splitlines() if l.startswith("#") and "=" in l
    )
    assert 4 + 1 <= int(header["N"]) <= 3 * 4  # n + 2i - 1 or n + 2i for some i in [1, n]
    assert run_cli("trace", "--engine", "dummy-leaker", "--workload", "alt:n=4", "--n", "4",
                   "--seed", "7", "--out", str(out)) == EXIT_USAGE  # the flag is gone


def test_trace_with_boundaries_annotates_ops(tmp_path):
    out = tmp_path / "t.trace"
    run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=4",
            "--seed", "1", "--out", str(out), "--with-boundaries")
    assert "#op 0" in out.read_text()


def test_model_violation_exit_code(tmp_path):
    # workload longer than the address range
    code = run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=8",
                   "--M", "4", "--seed", "1", "--out", str(tmp_path / "x"))
    assert code == EXIT_MODEL


def test_usage_error_exit_code():
    assert run_cli("trace", "--engine", "no-such-engine", "--workload", "alt:n=4",
                   "--seed", "1", "--out", "x") == EXIT_USAGE
    assert run_cli("frequency", "--engine", "passthrough", "--n", "40", "--k", "2",
                   "--trials", "5") == EXIT_USAGE  # no seed anywhere


def test_io_error_exit_code(tmp_path):
    assert run_cli("analyze", "--trace", str(tmp_path / "missing.trace")) == EXIT_IO


def test_env_seed_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ORAMLAB_SEED", "11")
    assert run_cli("frequency", "--engine", "passthrough", "--n", "40", "--k", "2",
                   "--trials", "5") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["frequency"] == 1.0


def test_analyze_emits_report_and_csv(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    run_cli("trace", "--engine", "passthrough", "--workload", "blocks:n=40,k=2,seed=3",
            "--seed", "3", "--out", str(trace))
    csv = tmp_path / "perk.csv"
    assert run_cli("analyze", "--trace", str(trace), "--ell", "8", "--k-max", "4",
                   "--json", "-", "--csv", str(csv)) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["certified_probe_bound"] <= report["measured_probes"]
    assert csv.read_text().splitlines()[0] == "k,ell_over_k,found,bound_cumulative"


def test_dash_writes_graph_export_and_csv_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("trace", "--engine", "passthrough", "--workload", "blocks:n=40,k=2,seed=3",
                   "--seed", "3", "--out", "t.trace") == EXIT_OK
    assert run_cli("graph-export", "--trace", "t.trace") == EXIT_OK
    edges = capsys.readouterr().out
    assert run_cli("graph-export", "--trace", "t.trace", "--out", "-") == EXIT_OK
    assert capsys.readouterr().out == edges != ""
    assert run_cli("analyze", "--trace", "t.trace", "--ell", "8", "--k-max", "4", "--json", "report.json",
                   "--csv", "-") == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "k,ell_over_k,found,bound_cumulative"
    assert not (tmp_path / "-").exists()


def test_build_parser_is_built_once_and_not_at_import():
    code = "import oramlab.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}  # the oramlab under test
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert got.stdout == "0\n"
    assert cli.build_parser() is cli.build_parser()


def test_main_carries_nothing_from_one_call_to_the_next(tmp_path, capsys):
    trace, report = tmp_path / "t.trace", tmp_path / "report.json"
    run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=8", "--seed", "1", "--out", str(trace))
    analyze = ("analyze", "--trace", str(trace), "--ell", "2")
    assert run_cli(*analyze, "--json", str(report)) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert run_cli(*analyze) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == json.loads(report.read_text())
    assert run_cli(*analyze, "--k-max", "0") == EXIT_USAGE
    assert run_cli("analyze", "--bogus") == EXIT_USAGE
    capsys.readouterr()
    assert run_cli(*analyze) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == json.loads(report.read_text())


def test_distinguish_report_fields(capsys):
    assert run_cli("distinguish", "--engine", "passthrough", "--y", "alt:n=40",
                   "--yprime", "blocks:n=40,k=2", "--trials", "50", "--seed", "5") == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == {"trials", "p1_on_y", "p1_on_yprime", "advantage", "half_width"}
    assert rep["advantage"] >= 0.3


def test_distinguish_jobs_merge_deterministically(capsys):
    args = ("distinguish", "--engine", "passthrough", "--y", "alt:n=40",
            "--yprime", "blocks:n=40,k=2", "--trials", "24", "--seed", "5")
    assert run_cli(*args, "--jobs", "1") == EXIT_OK
    one = capsys.readouterr().out
    assert run_cli(*args, "--jobs", "2") == EXIT_OK
    two = capsys.readouterr().out
    assert one == two


def test_codec_round_trip(capsys):
    assert run_cli("codec", "--engine", "passthrough", "--n", "8", "--k", "2", "--i", "1",
                   "--seed", "3") == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["round_trip"] is True
    assert rep["bit_length"] == 1 * 32 + 2 * 32 * rep["matched_probes"]


def test_report_runs_end_to_end(capsys):
    assert run_cli("report", "--engine", "tree", "--workload", "blocks:n=64,k=4,seed=2",
                   "--m", "2", "--seed", "2", "--json", "-") == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["certified_probe_bound"] <= rep["measured_probes"]
    assert rep["deviations"]


def test_boundary_annotations_do_not_change_analysis(tmp_path, capsys):
    plain = tmp_path / "plain.trace"
    debug = tmp_path / "debug.trace"
    base = ("trace", "--engine", "dummy-encoder", "--workload", "blocks:n=16,k=2,seed=4",
            "--seed", "4")
    run_cli(*base, "--out", str(plain))
    run_cli(*base, "--out", str(debug), "--with-boundaries")
    reports = []
    for path in (plain, debug):
        assert run_cli("analyze", "--trace", str(path), "--ell", "2", "--k-max", "4",
                       "--json", "-") == EXIT_OK
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]


def test_report_is_reproducible(capsys):
    args = ("report", "--engine", "tree", "--workload", "blocks:n=64,k=4,seed=2",
            "--m", "2", "--seed", "2", "--json", "-")
    assert run_cli(*args) == EXIT_OK
    first = capsys.readouterr().out
    assert run_cli(*args) == EXIT_OK
    assert capsys.readouterr().out == first


def test_graph_export_formats(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1",
            "--out", str(trace))
    assert run_cli("graph-export", "--trace", str(trace), "--format", "edges") == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["0 1", "1 2", "2 3"]
    assert run_cli("graph-export", "--trace", str(trace), "--format", "dot") == EXIT_OK
    dot = capsys.readouterr().out
    assert dot.startswith("digraph") and "0 -> 1;" in dot


# blake2b-64 of graph-export's edges and dot output for the trace of
# `trace --engine <engine> --workload <workload> --m 2 --seed 5`
GOLDEN_GRAPH_EXPORTS = {
    ("passthrough", "blocks:n=64,k=2,seed=1"): ("c8f24e800605b134", "68461def1f39df82"),
    ("passthrough", "blocks:n=256,k=4,seed=2"): ("84336c004221ce77", "2a2dd09c07e15e38"),
    ("linear-scan", "blocks:n=64,k=2,seed=1"): ("735b863823d9552f", "8fb2219d45a0390c"),
    ("linear-scan", "blocks:n=256,k=4,seed=2"): ("9a66ebf75ee9cebf", "30af22201e052feb"),
    ("tree", "blocks:n=64,k=2,seed=1"): ("1999ab54e3be73ac", "f7bb81af3addb942"),
    ("tree", "blocks:n=256,k=4,seed=2"): ("908067d272cb3dbb", "7782986c466a494d"),
    ("dummy-encoder", "blocks:n=64,k=2,seed=1"): ("556f37bf1884d345", "59cfb63c7f1357a2"),
    ("dummy-encoder", "blocks:n=256,k=4,seed=2"): ("e75cbeeb7f0b1672", "ec0ab405fd7d1993"),
    ("dummy-leaker", "blocks:n=64,k=2,seed=1"): ("8731ded7f55d3f6d", "42c4d0fafd93f4e3"),
    ("dummy-leaker", "blocks:n=256,k=4,seed=2"): ("237033cf6146abdc", "de3758b57d82bfe0"),
}


def _graph_exports(tmp_path, *run) -> tuple[bytes, bytes]:
    trace, out = tmp_path / "t.trace", tmp_path / "graph"
    assert run_cli("trace", *run, "--out", str(trace)) == EXIT_OK
    got = []
    for fmt in ("edges", "dot"):
        assert run_cli("graph-export", "--trace", str(trace), "--format", fmt, "--out", str(out)) == EXIT_OK
        got.append(out.read_bytes())
    return tuple(got)


@pytest.mark.parametrize("engine, workload", list(GOLDEN_GRAPH_EXPORTS))
def test_graph_exports_are_frozen(tmp_path, engine, workload):
    exports = _graph_exports(tmp_path, "--engine", engine, "--workload", workload, "--m", "2", "--seed", "5")
    got = tuple(hashlib.blake2b(raw, digest_size=8).hexdigest() for raw in exports)
    assert got == GOLDEN_GRAPH_EXPORTS[engine, workload]


def test_graph_export_of_a_trace_with_no_edges(tmp_path):
    exports = _graph_exports(tmp_path, "--engine", "passthrough", "--workload", "alt:n=0", "--seed", "1")
    assert exports == (b"\n", b"digraph access {\n}\n")


def test_stash_overflow_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(TreeOram, "STASH_LIMIT", -1)
    assert run_cli("report", "--engine", "tree", "--workload", "blocks:n=64,k=4,seed=2",
                   "--seed", "2", "--json", "-") == EXIT_MODEL
    assert "stash" in capsys.readouterr().err


def test_decode_failure_exit_code(monkeypatch, capsys):
    encode = cli.alice_encode

    def tampered(*args, **kwargs):
        msg = encode(*args, **kwargs)
        addr, content = msg.matched[0]
        return dataclasses.replace(msg, matched=msg.matched + ((addr, content ^ 1),))

    monkeypatch.setattr(cli, "alice_encode", tampered)
    assert run_cli("codec", "--engine", "passthrough", "--n", "8", "--k", "2", "--i", "1",
                   "--seed", "3") == EXIT_MODEL
    assert "two contents" in capsys.readouterr().err


def test_invalid_trace_is_a_usage_error(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1",
            "--out", str(trace))
    trace.write_text(trace.read_text().replace("\n1\n", "\n0\n", 1))
    assert run_cli("analyze", "--trace", str(trace)) == EXIT_USAGE
    assert "outside [1, 2^32]" in capsys.readouterr().err


@pytest.mark.parametrize("ell", ["1/0", "x", ""])
def test_unparsable_ell_is_a_usage_error(tmp_path, capsys, ell):
    trace = tmp_path / "t.trace"
    run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1",
            "--out", str(trace))
    assert run_cli("analyze", "--trace", str(trace), "--ell", ell) == EXIT_USAGE
    assert run_cli("report", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1",
                   "--ell", ell) == EXIT_USAGE
    assert capsys.readouterr().err.count("oramlab: usage error") == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("analyze", "--trace", "t.trace", "--ell", "-5"), "--ell"),
        (("report", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1", "--ell=-1/2"), "--ell"),
        (("frequency", "--engine", "passthrough", "--n", "8", "--k", "1", "--trials", "2", "--seed", "1",
          "--jobs", "0"), "--jobs"),
        (("distinguish", "--engine", "passthrough", "--y", "alt:n=8", "--yprime", "blocks:n=8,k=1",
          "--trials", "2", "--seed", "1", "--jobs", "-1"), "--jobs"),
        (("analyze", "--trace", "t.trace", "--k-max", "0"), "--k-max"),
        (("report", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1", "--k-max=-4"), "--k-max"),
        (("frequency", "--engine", "passthrough", "--n", "8", "--k", "1", "--trials", "0", "--seed", "1"),
         "--trials"),
        (("distinguish", "--engine", "passthrough", "--y", "alt:n=8", "--yprime", "blocks:n=8,k=1",
          "--trials=-3", "--seed", "1"), "--trials"),
        (("frequency", "--engine", "passthrough", "--n", "8", "--k", "0", "--trials", "2", "--seed", "1"), "--k"),
        (("frequency", "--engine", "passthrough", "--n", "8", "--k", "0", "--trials", "2", "--seed", "1",
          "--family", "alt", "--jobs", "2"), "--k"),
        (("frequency", "--engine", "passthrough", "--n", "8", "--k=-1", "--trials", "2", "--seed", "1",
          "--family", "alt"), "--k"),
        (("frequency", "--engine", "passthrough", "--n", "8", "--k=-1", "--trials", "2", "--seed", "1",
          "--family", "blocks", "--jobs", "2"), "--k"),
    ],
)
def test_out_of_range_ell_and_jobs_are_usage_errors(monkeypatch, capsys, argv, flag):
    def no_work(*args, **kwargs):
        raise AssertionError("a command ran before its flags were checked")

    for name in ("read_trace", "run_trace", "dense_partition_frequency", "estimate_advantage"):
        monkeypatch.setattr(cli, name, no_work)
    assert run_cli(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("oramlab: usage error: argument " + flag) and "must be at least" in err


def test_zero_ell_is_accepted(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1", "--out", str(trace))
    assert run_cli("analyze", "--trace", str(trace), "--ell", "0") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["certified_probe_bound"] == 0


def test_huge_k_max_at_zero_ell_tries_no_k_past_the_trace(capsys):
    """At ell 0, certify builds no witness for k past N, so a k_max of 10^18 costs 30 rows, not GBs."""
    assert run_cli("report", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1",
                   "--ell", "0", "--k-max", "1000000000000000000") == EXIT_OK
    per_k = json.loads(capsys.readouterr().out)["per_k"]
    assert [row["k"] for row in per_k] == [4**e for e in range(30)]
    assert [row["found"] for row in per_k] == [True, True] + [False] * 28  # N = 4


@pytest.mark.parametrize("where", ["header", "body"])
def test_op_index_beyond_int64_is_a_usage_error(tmp_path, capsys, where):
    trace = tmp_path / "t.trace"
    run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1",
            "--out", str(trace))
    mark = f"#op {10**20}\n"
    anchor = "#N=4\n" if where == "header" else "#N=4\n1\n"
    trace.write_text(trace.read_text().replace(anchor, anchor + mark, 1))
    assert run_cli("analyze", "--trace", str(trace)) == EXIT_USAGE
    assert "#op index outside int64" in capsys.readouterr().err


@pytest.mark.parametrize("first", ["1", " +1"])  # the first address parsed in bulk, or through int()
def test_header_line_after_the_first_address_is_a_usage_error(tmp_path, capsys, first):
    trace = tmp_path / "t.trace"
    run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1", "--out", str(trace))
    trace.write_text(trace.read_text().replace("#N=4\n1\n", f"#N=4\n{first}\n\t#engine=tree \n", 1))
    message = "trace header line '#engine=tree' after the first address"
    with pytest.raises(ValueError) as exc:
        read_trace(trace)
    assert str(exc.value) == message
    assert run_cli("analyze", "--trace", str(trace)) == EXIT_USAGE
    assert capsys.readouterr().err == f"oramlab: usage error: {message}\n"


def test_non_ascii_trace_byte_is_a_usage_error(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1", "--out", str(trace))
    trace.write_bytes(trace.read_bytes().replace(b"#N=4\n1\n", b"#N=4\n1\xe9\n", 1))
    assert run_cli("analyze", "--trace", str(trace)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("oramlab: usage error") and "Traceback" not in err


@pytest.mark.parametrize("M, code", [(-7, EXIT_USAGE), (0, EXIT_USAGE), (2**32 + 1, EXIT_USAGE), (2**32, EXIT_OK)])
def test_header_M_must_lie_in_the_address_range(tmp_path, capsys, M, code):
    trace = tmp_path / "t.trace"
    run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1", "--out", str(trace))
    text = trace.read_text()
    trace.write_text(text.replace("#M=4\n", f"#M={M}\n", 1))
    assert trace.read_text() != text
    assert run_cli("analyze", "--trace", str(trace)) == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        assert json.loads(out)["M"] == M
    else:
        assert err.startswith("oramlab: usage error") and f"M={M}" in err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("#w=32\n", "#w=64\n", "cell width w must be in [1, 63] bits"),
        ("#m=1\n", "#m=3\n", "m=3 exceeds sqrt(n) for n=4"),
        ("#n=4\n", "#n=8\n", "workload length n=8 exceeds address range M=4"),
    ],
    ids=["w-64", "m-squared-above-n", "n-above-M"],
)
def test_header_no_run_can_have_is_a_usage_error(tmp_path, capsys, old, new, message):
    trace = tmp_path / "t.trace"
    run_cli("trace", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1", "--out", str(trace))
    text = trace.read_text()
    trace.write_text(text.replace(old, new, 1))
    assert trace.read_text() != text
    assert run_cli("analyze", "--trace", str(trace)) == EXIT_USAGE
    assert capsys.readouterr().err == f"oramlab: usage error: trace header fits no run: {message}\n"


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _flag(option, required=False, default=None, choices=None, nargs=None):
    return option, required, default, choices, nargs


_RUN_FLAGS = {
    "engine": _flag("--engine", True, choices=("passthrough", "linear-scan", "tree", "dummy-encoder", "dummy-leaker")),
    "seed": _flag("--seed"),
    "m": _flag("--m", default=1),
    "M": _flag("--M"),
    "w": _flag("--w", default=32),
}
_JSON = {"json_out": _flag("--json")}
# Per subcommand, dest -> (option, required, default, choices, nargs);
# the required flags are in the order that usage errors list them.
_GRAMMAR = {
    "trace": {**_RUN_FLAGS, "workload": _flag("--workload", True), "out": _flag("--out", True),
              "with_boundaries": _flag("--with-boundaries", default=False, nargs=0)},
    "analyze": {"trace": _flag("--trace", True), "ell": _flag("--ell"), "k_max": _flag("--k-max"), **_JSON,
                "csv_out": _flag("--csv")},
    "distinguish": {**_RUN_FLAGS, "y": _flag("--y", True), "yprime": _flag("--yprime", True),
                    "trials": _flag("--trials", True), "jobs": _flag("--jobs", default=1), **_JSON},
    "frequency": {**_RUN_FLAGS, "n": _flag("--n", True), "k": _flag("--k", True), "trials": _flag("--trials", True),
                  "family": _flag("--family", default="blocks", choices=("alt", "blocks")),
                  "jobs": _flag("--jobs", default=1), **_JSON},
    "codec": {**_RUN_FLAGS, "n": _flag("--n", True), "k": _flag("--k", True), "i": _flag("--i", True), **_JSON},
    "report": {**_RUN_FLAGS, "workload": _flag("--workload", True), "ell": _flag("--ell"),
               "k_max": _flag("--k-max"), **_JSON},
    "graph-export": {"trace": _flag("--trace", True),
                     "format": _flag("--format", default="edges", choices=("dot", "edges")), "out": _flag("--out")},
}


def test_every_flag_of_every_subcommand_is_pinned():
    """Each subcommand's flags, one option string each, with their dest, required, default, choices and nargs."""
    subs = _subparsers(cli.build_parser())
    assert list(subs) == list(_GRAMMAR)
    for name, parser in subs.items():
        actions = [a for a in parser._actions if a.dest != "help"]
        got = {a.dest: (*a.option_strings, a.required, a.default, a.choices and tuple(a.choices), a.nargs)
               for a in actions}
        assert got == _GRAMMAR[name], name
        required = [a.option_strings[0] for a in actions if a.required]
        assert required == [flag[0] for flag in _GRAMMAR[name].values() if flag[1]], name


def test_frequency_family_choices_are_the_workload_families():
    family = next(a for a in _subparsers(cli.build_parser())["frequency"]._actions if a.dest == "family")
    assert tuple(family.choices) == WORKLOAD_FAMILIES


# per subcommand, the flags of a small run that writes every output once
_SMALL_RUNS = {
    "trace": ("--engine", "passthrough", "--workload", "blocks:n=16,k=2,seed=3", "--seed", "3"),
    "analyze": ("--trace", "t.trace", "--ell", "2", "--k-max", "4"),
    "distinguish": ("--engine", "passthrough", "--y", "alt:n=16", "--yprime", "blocks:n=16,k=2",
                    "--trials", "2", "--seed", "3"),
    "frequency": ("--engine", "passthrough", "--n", "16", "--k", "2", "--trials", "2", "--seed", "3"),
    "codec": ("--engine", "passthrough", "--n", "8", "--k", "2", "--i", "1", "--seed", "3"),
    "report": ("--engine", "passthrough", "--workload", "blocks:n=16,k=2,seed=3", "--seed", "3",
               "--ell", "2", "--k-max", "4"),
    "graph-export": ("--trace", "t.trace"),
}
_OUTPUT_FLAGS = [
    (name, action.option_strings[0])
    for name, parser in _subparsers(cli.build_parser()).items()
    for action in parser._actions
    if action.option_strings and action.option_strings[0] in ("--json", "--csv", "--out")
]


@pytest.mark.parametrize("command, flag", _OUTPUT_FLAGS, ids=["".join(pair) for pair in _OUTPUT_FLAGS])
def test_every_output_flag_reads_dash_and_empty_as_stdout(tmp_path, capsys, monkeypatch, command, flag):
    """`-` and '' print the bytes a path gets, after what the run prints anyway, and no file named `-` appears."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("trace", *_SMALL_RUNS["trace"], "--out", "t.trace") == EXIT_OK
    run = (command, *_SMALL_RUNS[command], flag)
    assert run_cli(*run, "out.txt") == EXIT_OK
    printed, written = capsys.readouterr().out.encode("ascii"), (tmp_path / "out.txt").read_bytes()
    assert written
    for stdout in ("-", ""):
        assert run_cli(*run, stdout) == EXIT_OK
        assert capsys.readouterr().out.encode("ascii") == printed + written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "t.trace"]


def test_output_flags_cover_every_subcommand():
    assert {name for name, _ in _OUTPUT_FLAGS} == set(_SMALL_RUNS) == set(_subparsers(cli.build_parser()))


def test_json_is_printed_before_csv(tmp_path, capsys):
    trace, report, csv = tmp_path / "t.trace", tmp_path / "report.json", tmp_path / "perk.csv"
    run_cli("trace", "--engine", "passthrough", "--workload", "blocks:n=40,k=2,seed=3",
            "--seed", "3", "--out", str(trace))
    analyze = ("analyze", "--trace", str(trace), "--ell", "8", "--k-max", "4")
    assert run_cli(*analyze, "--json", str(report), "--csv", str(csv)) == EXIT_OK
    assert run_cli(*analyze, "--json", "-", "--csv", "-") == EXIT_OK
    assert capsys.readouterr().out == report.read_text() + csv.read_text()


@functools.cache
def _documented_exit_codes() -> dict[int, str]:
    """code -> meaning (up to its first parenthesis) from the exit-code table of docs/formats.md."""
    table = FORMATS.read_text().split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\d+) \| ([^|]+?) \|$", table, re.M)
    return {int(code): meaning.split(" (")[0] for code, meaning in rows}


def test_exit_code_table_matches_the_cli():
    assert _documented_exit_codes() == {
        cli.EXIT_OK: "success",
        cli.EXIT_USAGE: "usage error",
        cli.EXIT_MODEL: "model violation",
        cli.EXIT_IO: "I/O or resource error",
    }
    assert sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_")) == sorted(_documented_exit_codes())


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (core, "gen_alternating_sequence",
         ("report", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1")),
        (core, "gen_write_read_blocks",
         ("frequency", "--engine", "passthrough", "--n", "8", "--k", "1", "--trials", "1", "--seed", "1")),
        (cli, "analyze_trace",
         ("report", "--engine", "passthrough", "--workload", "alt:n=4", "--seed", "1", "--ell", "0", "--k-max", "4")),
    ],
    ids=["report-workload", "frequency-workload", "report-partition"],
)
def test_out_of_memory_is_a_resource_error(monkeypatch, capsys, module, name, argv):
    """A MemoryError is raised where the allocation would fail, so nothing is allocated for real."""
    monkeypatch.setattr(module, name, _out_of_memory)
    assert run_cli(*argv) == EXIT_IO
    assert capsys.readouterr().err == "oramlab: resource error: out of memory\n"


class _RecordingPool:
    """A stand-in ``ProcessPoolExecutor`` that records its size and maps in this process, starting none."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, argses):
        argses = list(argses)
        self.sizes.append(len(argses))
        return map(fn, argses)


@pytest.mark.parametrize("cpus, jobs, trials, pool", [(2, 1000, 10, 2), (4, 3, 10, 3), (None, 5, 5, 1)])
def test_jobs_pool_is_capped_at_the_cpu_count(monkeypatch, cpus, jobs, trials, pool):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(adversary.os, "cpu_count", lambda: cpus)
    chunks = adversary._map_chunks(lambda args: args[-1], (), trials, jobs)
    parts = min(jobs, trials)
    assert _RecordingPool.sizes == [pool, parts]  # the pool's size, then the chunks it was given
    assert chunks == [range(trials * j // parts, trials * (j + 1) // parts) for j in range(parts)]


@pytest.mark.parametrize("command", ["frequency", "distinguish"])
def test_a_dead_worker_is_a_resource_error(monkeypatch, capsys, command):
    """A worker process that dies fails the pool's map with BrokenProcessPool; no process is started here."""
    def dead_worker(self, fn, argses):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "map", dead_worker)
    flags = {"frequency": ("--n", "8", "--k", "1"), "distinguish": ("--y", "alt:n=8", "--yprime", "blocks:n=8,k=1")}
    argv = (command, "--engine", "passthrough", *flags[command], "--trials", "2", "--jobs", "2", "--seed", "1")
    assert run_cli(*argv) == EXIT_IO
    assert capsys.readouterr().err == (
        "oramlab: i/o error: a worker process died: A process in the process pool was terminated abruptly\n"
    )
    assert _RecordingPool.sizes == [2]


_HUGE = str(10**30)


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--workload", f"alt:n={_HUGE}", "--out", "t.trace"),
        ("report", "--workload", f"alt:n={_HUGE}"),
        ("distinguish", "--y", f"alt:n={_HUGE}", "--yprime", f"blocks:n={_HUGE},k=1", "--trials", "1"),
        ("frequency", "--n", _HUGE, "--k", "1", "--trials", "1"),
        ("codec", "--n", _HUGE, "--k", "1", "--i", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_a_length_past_M_is_refused_before_any_workload_is_built(monkeypatch, capsys, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    for name in ("gen_alternating_sequence", "gen_write_read_blocks"):
        monkeypatch.setattr(core, name, lambda *args: pytest.fail("a workload was built"))
    assert run_cli(*argv, "--engine", "passthrough", "--M", "8", "--seed", "1") == EXIT_MODEL
    assert capsys.readouterr().err == f"oramlab: model violation: workload length n={_HUGE} exceeds address range M=8\n"
    assert not list(tmp_path.iterdir())


# -- fuzz guard: argv drawn from the parser's own grammar ---------------------

_N = st.sampled_from(["8", "16"])
_NOT_POSITIVE = st.one_of(st.integers(-(2**70), 0).map(str), st.sampled_from(["x", "", "1.5", "0x10"]))
_BAD_INT = st.one_of(_NOT_POSITIVE, st.just("9" * 30))  # odd, and past every bound, so refused before any allocation
_GOOD_SPEC = st.one_of(
    st.builds("alt:n={}".format, _N),
    st.builds("blocks:n={},k={}".format, _N, st.sampled_from(["1", "2", "4"])),
    st.builds("blocks:n={},k={},seed={}".format, _N, st.sampled_from(["1", "2", "4"]), st.integers(0, 9)),
)
_BAD_SPEC = st.one_of(
    st.builds("alt:n={}".format, st.integers(-2, 64)),
    st.builds("blocks:n={},k={}".format, st.integers(-2, 64), st.integers(-2, 64)),
    st.sampled_from(["", "alt", "alt:n=", "x:n=4", "blocks:n=8,k=2,k=2", "alt:n=4,k=1", "blocks:k=2", "alt:n=-4"]),
    st.text("abcklnt:=,0123456789-", max_size=16),
)
_TRACE_LINES = st.sampled_from([
    "", "x", "0", "-1", "1", "3", " +1", "1 2", "9" * 20, str(2**63), "#N=3", "#N=-1", "#M=0", "#w=64", "#m=3",
    "#n=8", "#op 3", "#op x", f"#op {10**20}", "#engine=tree", "#engine=nope", "#format=9", "#seed=x", "\xe9", "#",
])


def _flag_values(tmp: str) -> dict[str, tuple[st.SearchStrategy, st.SearchStrategy]]:
    """Per flag dest, a strategy of valid values, kept small, and one of invalid values."""
    out, bad_out = st.just(f"{tmp}/out"), st.sampled_from([f"{tmp}/missing/out", tmp])
    return {
        "engine": (st.sampled_from(ENGINE_NAMES), st.just("nope")),
        "workload": (_GOOD_SPEC, _BAD_SPEC), "y": (_GOOD_SPEC, _BAD_SPEC), "yprime": (_GOOD_SPEC, _BAD_SPEC),
        "m": (st.sampled_from(["1", "2"]), st.one_of(st.just("9"), _BAD_INT)),
        "M": (st.sampled_from(["16", "64"]), st.one_of(st.just("4"), _BAD_INT)),
        "w": (st.sampled_from(["8", "16", "63"]), st.one_of(st.sampled_from(["1", "3", "64"]), _BAD_INT)),
        "seed": (st.integers(-(2**70), 2**70).map(str), st.sampled_from(["x", "", "1.5"])),
        "n": (_N, st.one_of(st.sampled_from(["3", "64"]), _BAD_INT)),
        "k": (st.sampled_from(["1", "2", "4"]), st.one_of(st.sampled_from(["64", "0"]), _BAD_INT)),
        "i": (st.sampled_from(["1", "2"]), st.one_of(st.just("5"), _BAD_INT)),
        "trials": (st.sampled_from(["1", "2"]), st.sampled_from(["0", "-1", "x"])),
        "jobs": (st.just("1"), st.sampled_from(["0", "-3", "x"])),
        "k_max": (st.sampled_from(["1", "4", "64", "1000000000000000000"]), _NOT_POSITIVE),
        "ell": (st.sampled_from(["0", "1", "8", "3/2", "64/5"]),
                st.sampled_from(["-1", "1/0", "x", "", "nan", "1e400"])),
        "family": (st.sampled_from(WORKLOAD_FAMILIES), st.just("x")),
        "format": (st.sampled_from(["dot", "edges"]), st.just("x")),
        "trace": (st.just(f"{tmp}/t.trace"), st.sampled_from([f"{tmp}/missing.trace", tmp])),
        "out": (out, bad_out), "json_out": (st.sampled_from(["-", f"{tmp}/out"]), bad_out), "csv_out": (out, bad_out),
        "with_boundaries": (st.none(), st.none()),
    }


@st.composite
def _argv(draw, tmp: str) -> list[str]:
    """A subcommand and its flags from the parser; each flag's value is invalid with probability `bad`."""
    subs = _subparsers(cli.build_parser())
    command = draw(st.sampled_from([*subs, "nope"]))
    if command == "nope":
        return [command]
    values, argv = _flag_values(tmp), [command]
    bad = draw(st.sampled_from([0.0, 0.0, 0.1, 0.5]))
    for action in subs[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        assert action.dest in values, f"no fuzz values for {action.option_strings[0]}"
        if draw(st.floats(0, 1)) < (0.98 if action.required else 0.9 if action.dest == "seed" else 0.4):
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(draw(values[action.dest][draw(st.floats(0, 1)) < bad]))
    return argv


@functools.cache
def _good_trace() -> list[str]:
    """The lines of a small trace file with op boundaries, the seed of every mutated one."""
    with tempfile.TemporaryDirectory() as tmp:
        assert run_cli("trace", "--engine", "dummy-encoder", "--workload", "blocks:n=16,k=2,seed=1",
                       "--seed", "1", "--out", f"{tmp}/t.trace", "--with-boundaries") == EXIT_OK
        return Path(f"{tmp}/t.trace").read_text().splitlines()


@given(data=st.data(), edits=st.lists(st.tuples(st.integers(0, 63), _TRACE_LINES), max_size=2),
       cut=st.sampled_from([0, 0, 1, 5]))
@settings(max_examples=200, deadline=None)
def test_every_argv_exits_with_a_documented_code(data, edits, cut):
    """Any argv, with a trace file mutated from a good one, gives a documented exit code and no traceback."""
    lines = list(_good_trace())
    for at, line in edits:  # replace a line, or add one past the end
        at %= len(lines) + 1
        lines[at : at + 1] = [line]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("ORAMLAB_SEED", None)
        Path(f"{tmp}/t.trace").write_bytes("\n".join(lines[: len(lines) - cut]).encode("latin-1") + b"\n")
        argv = data.draw(_argv(tmp), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in _documented_exit_codes()
    assert "Traceback" not in err.getvalue()
    assert (code == EXIT_OK) == (err.getvalue() == ""), err.getvalue()
