import dataclasses
import json

import pytest

from oramlab import TreeOram, cli, read_trace
from oramlab.cli import EXIT_IO, EXIT_MODEL, EXIT_OK, EXIT_USAGE, main


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
