import dataclasses
import hashlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oramlab import (
    CertificateError,
    ExperimentReport,
    OramConfig,
    TraceFile,
    WorkloadSpec,
    analyze_trace,
    default_analysis_params,
    gen_write_read_blocks,
    instantiate_workload,
    parse_workload_spec,
    read_trace,
    run_sequence,
    write_trace,
)
from oramlab import traceio
from oramlab.traceio import graph_export, run_trace, write_output

from conftest import ALL_ENGINES, reference_read_trace


def _trace_file(with_boundaries=False, engine="passthrough", n=10, k=2, seed=3):
    cfg = OramConfig(m=1, M=max(n, 4), w=16)
    y, _ = gen_write_read_blocks(n, k, cfg.w, random.Random(seed))
    _, srv = run_sequence(engine, cfg, y, seed=seed)
    return TraceFile(
        engine=engine,
        workload=f"blocks:n={n},k={k},seed={seed}",
        n=n,
        m=cfg.m,
        M=cfg.M,
        w=cfg.w,
        seed=seed,
        addrs=srv.addr_column(),
        op_index=srv.op_column() if with_boundaries else None,
    )


@pytest.mark.parametrize("with_boundaries", [False, True])
def test_write_read_write_is_byte_identical(tmp_path, with_boundaries):
    tf = _trace_file(with_boundaries, engine="dummy-encoder")
    p1 = tmp_path / "a.trace"
    p2 = tmp_path / "b.trace"
    write_trace(tf, p1)
    back = read_trace(p1)
    write_trace(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.addrs, tf.addrs)
    if with_boundaries:
        assert np.array_equal(back.op_index, tf.op_index)
    else:
        assert back.op_index is None


# blake2b-64 of write_trace's file per seed 0-3, for run_trace on blocks:n,k
GOLDEN_TRACE_FILES = {
    ("passthrough", 64, 2, True): ("1142af7ab7b5b32f", "ddcec0b379fe7bc2", "603bc36c05b34c28", "f1bb8ed5dd5e33db"),
    ("passthrough", 64, 2, False): ("46b5962ae8817941", "34a0ccfd8a6d446e", "86813bf501a9fd15", "471d3658dcc61052"),
    ("passthrough", 256, 4, True): ("8d4365fee5bcd2f4", "ca80c1aab11f4507", "49854aafdee7bd14", "a3ffbbe97405e14d"),
    ("passthrough", 256, 4, False): ("3ee2036f1e30c739", "58bffb4c0e72e454", "3f79cce091aec135", "6bc3ec172a3906ea"),
    ("linear-scan", 64, 2, True): ("e457cd842106376f", "028db29962e3aef0", "6cd3876d80be6a18", "4696be7f5fdcd01b"),
    ("linear-scan", 64, 2, False): ("1b6ef2de4a61a2c9", "221b03f1d3d79231", "7267c6dc54aee8d8", "80d4c4a43da22dbe"),
    ("linear-scan", 256, 4, True): ("0c2631bc7fc4349a", "ac2bed21e7cc8d18", "db4d20d5d3e7a62e", "196dd969ab3464aa"),
    ("linear-scan", 256, 4, False): ("0dde5c0c60edef20", "c47127fca925a422", "1e19ff4fa5611fcb", "d7d0acfec093e42b"),
    ("tree", 64, 2, True): ("a1a5ba47aa3e4a6c", "4eef633e50820fe7", "d5736194fe15bad4", "0953afe31a275a29"),
    ("tree", 64, 2, False): ("e5563addedd1af47", "6512b33b60740a4f", "a27f916ac15f2062", "c1f2dcd7e5a350d3"),
    ("tree", 256, 4, True): ("9cad619115cb9873", "d9fbd7b6fed54612", "571ba9be3d5d96ab", "38a4767499a285f6"),
    ("tree", 256, 4, False): ("69ee9dbc7dcb5d4c", "d0de5071077718b3", "a4cf8891e23e90e8", "3c0c9fde19e6c3a7"),
    ("dummy-encoder", 64, 2, True): ("2b7b0655244c9129", "5daad2e6fb450f7d", "cba8fe797ab81f66", "281acadf80a657ae"),
    ("dummy-encoder", 64, 2, False): ("d5a32573177af2fb", "b3cd6ff59723543b", "4123f8796c8221d5", "b08b86c02b6ff45f"),
    ("dummy-encoder", 256, 4, True): ("49c8b8646974e08b", "d6fe819f493b05ee", "46729c225fe0f936", "c82997e04e72f323"),
    ("dummy-encoder", 256, 4, False): ("ef5b3ecd4cf3e741", "a8d41e3d5aad46d3", "51831cc4181361dd", "b1446fd79b4e185c"),
    ("dummy-leaker", 64, 2, True): ("036533ba755e555e", "dc7697afac7eeba8", "3440721cc008eb82", "c05eb74c0f3cecf4"),
    ("dummy-leaker", 64, 2, False): ("6f1b14484e48765e", "3e7700269636668b", "ef8b4c2e7e3186a5", "2d2a947d54ed9589"),
    ("dummy-leaker", 256, 4, True): ("d2df4e9ea6d77a5b", "fb287fc000797131", "069ac0932d05486a", "b192a65b19b8848f"),
    ("dummy-leaker", 256, 4, False): ("5ae4bad7341b6262", "c0175c67269d767f", "6211cbcd9a41883c", "5fc960d0fb269242"),
}


@pytest.mark.parametrize("engine, n, k, with_boundaries", list(GOLDEN_TRACE_FILES))
def test_trace_files_are_frozen(tmp_path, engine, n, k, with_boundaries):
    got = []
    for seed in range(4):
        cfg = OramConfig(m=2, M=n, w=16)
        p = tmp_path / f"{seed}.trace"
        write_trace(run_trace(engine, cfg, WorkloadSpec("blocks", n, k, seed), seed, with_boundaries), p)
        got.append(hashlib.blake2b(p.read_bytes(), digest_size=8).hexdigest())
    assert tuple(got) == GOLDEN_TRACE_FILES[engine, n, k, with_boundaries]


@pytest.mark.parametrize("text", ["blocks:n=16,k=2,seed=9", "blocks:n=16,k=2", "alt:n=16"])
def test_run_trace_runs_its_spec(text):
    """The trace is the run of the workload its spec names (a block spec without a seed takes
    the run's), and its header's workload is the spec's rendering."""
    cfg, spec = OramConfig(m=1, M=16, w=16), parse_workload_spec(text)
    tf = run_trace("tree", cfg, spec, 5, with_boundaries=True)
    y, _ = instantiate_workload(spec, cfg.w, default_seed=5)
    _, srv = run_sequence("tree", cfg, y, seed=5)
    assert (tf.workload, tf.n, tf.seed) == (text, 16, 5)
    assert np.array_equal(tf.addrs, srv.addr_column()) and np.array_equal(tf.op_index, srv.op_column())


def _same_trace(a: TraceFile, b: TraceFile) -> bool:
    for f in dataclasses.fields(TraceFile):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)):
                return False
            if x.dtype != y.dtype or not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


def _read_or_none(read, path):
    try:
        return read(path)
    except ValueError:
        return None


_HUGE = 2**70
_TOP = {4: 16, 16: 2**16, 63: 2**63 - 1}  # largest valid address, capped at int64
# (kind, value) edits applied at a drawn line; "insert" kinds add a line there
_EDITS = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(["", "  ", "\t", "\x1c", "\x0b\x0c", "#", "#x=1", "#op", "# op 1"])),
    st.tuples(
        st.just("insert"),
        (st.integers(-2, 3) | st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, _HUGE])).map(
            lambda o: f"#op {o}"
        ),
    ),
    st.tuples(st.just("insert"), st.sampled_from(["#op +3", "#op 1_0", "#op  4 ", "#op 0x1"])),
    st.tuples(st.just("replace"), st.sampled_from(["0", "-3", "0x10", "5.0", "1__0", "8", str(2**63), str(_HUGE)])),
    # the edges of the bulk parser: 18 digits and more, and int() reading past leading zeros
    st.tuples(st.just("replace"), st.sampled_from(
        ["9" * 18, "1" * 19, "9" * 19, "1" * 20, str(2**63 - 1), "0" * 20 + "7", "0" * 18]
    )),
    st.tuples(st.just("pad"), st.sampled_from([" ", "\t", "\x1c", "\x1f"])),
    st.tuples(st.just("plus"), st.none()),
    st.tuples(st.just("underscore"), st.none()),
    st.tuples(st.just("wrong-N"), st.sampled_from([-1, 1])),
)


@st.composite
def _mutated_trace_text(draw):
    w = draw(st.sampled_from([*sorted(_TOP), 64]))  # no run has w = 64
    addrs = draw(st.lists(st.integers(1, _TOP[min(w, 63)]), max_size=8))
    lines = ["#format=oramlab-trace/1", f"#engine={draw(st.sampled_from(ALL_ENGINES))}", "#workload=alt:n=2",
             "#n=2", "#m=1", "#M=4", f"#w={w}", "#seed=0", f"#N={len(addrs)}"]
    ops = draw(st.none() | st.lists(st.integers(-2, 2), min_size=len(addrs), max_size=len(addrs)))
    prev = None
    for i, a in enumerate(addrs):
        if ops is not None and ops[i] != prev:
            lines.append(f"#op {ops[i]}")
            prev = ops[i]
        lines.append(str(a))
    for kind, value in draw(st.lists(_EDITS, max_size=4)):
        at = draw(st.integers(0, len(lines)))
        line = lines[at % len(lines)]
        if kind == "insert":
            lines.insert(at, value)
        elif kind == "wrong-N":
            lines = [f"#N={len(addrs) + value}" if s == f"#N={len(addrs)}" else s for s in lines]
        elif line.startswith("#"):
            continue
        elif kind == "replace":
            lines[at % len(lines)] = value
        elif kind == "pad":
            lines[at % len(lines)] = value + line + value
        elif kind == "plus":
            lines[at % len(lines)] = "+" + line.strip()
        elif len(line) > 1:  # underscore
            lines[at % len(lines)] = line[:1] + "_" + line[1:]
    sep = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return sep.join(lines) + draw(st.sampled_from(["", sep, sep + sep]))


_HEADER_W63 = "#format=oramlab-trace/1\n#engine=tree\n#workload=alt:n=2\n#n=2\n#m=1\n#M=4\n#w=63\n#seed=0\n"


@given(text=_mutated_trace_text())
@example(text=_HEADER_W63 + "#N=2\n5\n7")  # a last line with no newline after it
@example(text=_HEADER_W63 + "#N=2\n#op 0\n" + "0" * 20 + "7\n" + "1" * 19)
@example(text=_HEADER_W63 + f"#N=3\n{'9' * 18}\n{2**63 - 1}\n{'0' * 17}1\n")  # all three accepted
@example(text=_HEADER_W63 + "#N=1\n 5\n#x=1\n")  # a header line after a first address read through int()
@example(text=_HEADER_W63 + "#N=1\n+5\n#x=1\n")
@example(text=_HEADER_W63 + "#N=1\n5\n#op 3")  # a last #op line with no newline after it
@example(text="\n\n\n")  # blank lines only
@example(text=_HEADER_W63.replace("\n", "\r") + "#N=2\r5\r7")  # \r line ends, none after the last address
@settings(max_examples=400, deadline=None)
def test_read_trace_matches_line_oracle(tmp_path_factory, text):
    """On mutated trace texts the reader and the line-by-line oracle return the
    same TraceFile, op_index included, or both raise ValueError."""
    p = tmp_path_factory.getbasetemp() / "mutated.trace"
    p.write_bytes(text.encode("ascii"))
    want = _read_or_none(reference_read_trace, p)
    got = _read_or_none(read_trace, p)
    if want is None:
        assert got is None
    else:
        assert got is not None and _same_trace(got, want)


_BLOCKS = [1, 2, 3, 7]  # bytes a block of the reader, values a block of the writers


def _read_or_message(path):
    """read_trace's TraceFile, or the message it refuses the file with."""
    try:
        return read_trace(path)
    except ValueError as exc:
        return str(exc)


@given(text=_mutated_trace_text(), block=st.sampled_from(_BLOCKS))
@example(text=_HEADER_W63.replace("\n", "\r\n") + "#N=2\r\n5\r\n7\r\n", block=3)  # CRLF line ends
@example(text=_HEADER_W63 + "#N=2\n" + "0" * 17 + "5\n7\n", block=7)  # a line longer than a block
@example(text=_HEADER_W63 + "#N=3\n5\n6\n#op 1\n7\n", block=7)  # an #op mark alone in its block
@example(text=_HEADER_W63 + "#N=2\n#op 4\n5\n#op -2\n7\n", block=1)  # every line a block of its own
@example(text=_HEADER_W63 + "#N=1\n5\n#x=1\n", block=2)  # a header line in the block after an address
@example(text=_HEADER_W63 + "#N=1\n#op 0\n5\n", block=7)  # the last header line and an #op mark, each a block
@example(text=_HEADER_W63 + "#N=0\n", block=7)  # an empty body
@settings(max_examples=300, deadline=None)
def test_read_trace_in_blocks_matches_line_oracle(tmp_path_factory, text, block):
    """Parsed a few bytes at a time, the reader accepts exactly what the line oracle accepts, returns
    what it returns, and refuses the rest with the message of a one-block read."""
    p = tmp_path_factory.getbasetemp() / "blocks.trace"
    p.write_bytes(text.encode("ascii"))
    one_block = _read_or_message(p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "_BLOCK", block)
        got = _read_or_message(p)
    want = _read_or_none(reference_read_trace, p)
    if want is None:
        assert isinstance(one_block, str) and got == one_block
    else:
        assert isinstance(got, TraceFile) and _same_trace(got, want)


def _writer_outputs(tf: TraceFile, path) -> list[bytes]:
    """The trace file of tf with and without its #op marks, and its graph's edges and dot exports."""
    got = []
    for op_index in (tf.op_index, None):
        write_trace(dataclasses.replace(tf, op_index=op_index), path)
        got.append(path.read_bytes())
    return got + [b"".join(graph_export(tf, fmt)) for fmt in ("edges", "dot")]


@pytest.mark.parametrize("block", _BLOCKS)
def test_writers_in_blocks_match_one_block(tmp_path, monkeypatch, block):
    """Formatting a few values at a time, write_trace (an op's probes running across block edges)
    and graph_export give the bytes of a one-block run, on edgeless and empty graphs too."""
    traces = [
        run_trace("tree", OramConfig(2, 64, 16), WorkloadSpec("blocks", 64, 2), 5, with_boundaries=True),
        _trace_file(True, engine="dummy-encoder"),
        dataclasses.replace(_trace_file(True), addrs=np.arange(1, 11), seed=4),  # no edge
        TraceFile(engine="tree", workload="alt:n=0", n=0, m=1, M=4, w=16, seed=0,
                  addrs=np.empty(0, dtype=np.int64), op_index=np.empty(0, dtype=np.int64)),
    ]
    p = tmp_path / "t.trace"
    one_block = [_writer_outputs(tf, p) for tf in traces]
    assert one_block[2][2:] == [b"\n", b"digraph access {\n}\n"] == one_block[3][2:]
    monkeypatch.setattr(traceio, "_BLOCK", block)
    assert [_writer_outputs(tf, p) for tf in traces] == one_block


@given(
    w=st.sampled_from(sorted(_TOP)),
    data=st.data(),
    with_boundaries=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_write_read_write_over_random_traces(tmp_path_factory, w, data, with_boundaries):
    """write_trace writes each address as str() does, with an ``#op`` line at each
    change of op, and write -> read -> write is byte-identical, empty traces included."""
    edges = st.sampled_from([v for v in (1, 9, 10, 99, 100, 10**18 - 1, 10**18, 2**63 - 1) if v <= _TOP[w]])
    addrs = data.draw(st.lists(st.integers(1, _TOP[w]) | edges, max_size=30))
    ops = None
    if with_boundaries:
        ops = data.draw(st.lists(st.integers(-2, 3) | st.integers(-(2**63), 2**63 - 1),
                                 min_size=len(addrs), max_size=len(addrs)))
    tf = TraceFile(
        engine="tree", workload="blocks:n=8,k=2", n=8, m=1, M=8, w=w, seed=5,
        addrs=np.array(addrs, dtype=np.int64), op_index=None if ops is None else np.array(ops, dtype=np.int64),
    )
    base = tmp_path_factory.getbasetemp()
    write_trace(tf, base / "a.trace")
    body, prev = [], None
    for i, a in enumerate(addrs):
        if ops is not None and ops[i] != prev:
            body.append(f"#op {ops[i]}\n")
            prev = ops[i]
        body.append(f"{a}\n")
    text = (base / "a.trace").read_text()
    assert text.endswith("".join(body)) and text.count("\n") == 9 + len(body)
    back = read_trace(base / "a.trace")
    write_trace(back, base / "b.trace")
    assert (base / "a.trace").read_bytes() == (base / "b.trace").read_bytes()
    assert np.array_equal(back.addrs, tf.addrs)
    if ops and addrs:
        assert np.array_equal(back.op_index, tf.op_index)
    else:
        assert back.op_index is None


def test_header_must_be_complete(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("#format=oramlab-trace/1\n#engine=passthrough\n1\n")
    with pytest.raises(ValueError):
        read_trace(p)


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("#engine=passthrough\n", "#engine=passthrough\n#bogus=1\n#engine=tree\n"),
        lambda text: text.replace("#engine=passthrough\n", "#engine=passthrough\n#engine=passthrough\n"),
        lambda text: text.replace("#m=1\n", "#m=1\n#bogus=1\n"),
        lambda text: text.replace("#n=10\n#m=1\n", "#m=1\n#n=10\n"),
        lambda text: text.replace("#N=10\n", "") + "#N=10\n",
    ],
    ids=["duplicate-and-unknown", "duplicate", "unknown", "swapped", "after-body"],
)
def test_header_keys_come_once_in_order(tmp_path, edit):
    p = tmp_path / "t.trace"
    write_trace(_trace_file(), p)
    text = p.read_text()
    p.write_text(edit(text))
    assert p.read_text() != text
    with pytest.raises(ValueError, match="header"):
        read_trace(p)


def test_body_length_must_match_header(tmp_path):
    tf = _trace_file()
    p = tmp_path / "t.trace"
    write_trace(tf, p)
    text = p.read_text().replace(f"#N={tf.N}", f"#N={tf.N + 1}")
    p.write_text(text)
    with pytest.raises(ValueError):
        read_trace(p)


def test_default_analysis_params():
    assert default_analysis_params(4096, 4) == (819, 10)
    assert default_analysis_params(1024, 4) == (204, 2)
    ell, k_max = default_analysis_params(10, 1)
    assert ell == 2 and k_max == 1  # clamped at one part


class TestAnalyze:
    def test_bound_never_exceeds_probes(self):
        for engine in ("passthrough", "linear-scan", "dummy-encoder"):
            tf = _trace_file(engine=engine, n=40, k=2)
            rep = analyze_trace(tf, ell=8, k_max=4)
            assert rep.certified_probe_bound <= rep.measured_probes
            assert rep.certified_probe_bound == rep.certified_edge_bound

    def test_block_trace_certifies_single_part(self):
        tf = _trace_file(engine="passthrough", n=40, k=2)
        rep = analyze_trace(tf, ell=8, k_max=4)
        found = {row["k"] for row in rep.per_k if row["found"]}
        assert 1 in found
        assert rep.certified_probe_bound >= 4

    def test_empty_trace_bounds_zero(self):
        tf = TraceFile(
            engine="passthrough", workload="alt:n=0", n=0, m=1, M=4, w=16, seed=0,
            addrs=np.empty(0, dtype=np.int64),
        )
        rep = analyze_trace(tf, ell=1, k_max=1)
        assert rep.certified_probe_bound == 0
        assert rep.overhead_ratio == 0.0

    def test_csv_rows_shape(self):
        tf = _trace_file(engine="passthrough", n=40, k=2)
        rep = analyze_trace(tf, ell=Fraction(8), k_max=4)
        rows = rep.csv_rows()
        assert rows[0] == "k,ell_over_k,found,bound_cumulative"
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "4"]

    def test_deviation_recorded_for_tree_engine(self):
        tf = _trace_file(engine="tree", n=10, k=2)
        rep = analyze_trace(tf, ell=2, k_max=1)
        assert any("position map" in d for d in rep.deviations)

    def test_reports_are_reproducible(self):
        r1 = analyze_trace(_trace_file(engine="dummy-encoder"), ell=2, k_max=4)
        r2 = analyze_trace(_trace_file(engine="dummy-encoder"), ell=2, k_max=4)
        assert r1.as_dict() == r2.as_dict()


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("#engine=passthrough", "#engine=x"),
        lambda text: text.replace("\n1\n", "\n-5\n", 1),
        lambda text: text.replace("\n1\n", "\n0\n", 1),
        lambda text: text.replace("\n1\n", f"\n{2**16 + 1}\n", 1),
        lambda text: text.replace("\n1\n", f"\n{2**70}\n", 1),
        lambda text: text.replace("#n=10\n", "#n=-5\n"),
        lambda text: text.replace("#m=1\n", "#m=0\n"),
        lambda text: text.replace("#m=1\n", "#m=-31\n"),
        lambda text: text[: text.index("#N=")].replace("#w=16\n", "#w=0\n") + "#N=0\n",  # no address to refuse
        lambda text: text.replace("#M=10\n", "#M=-7\n"),
        lambda text: text.replace("#M=10\n", "#M=0\n"),
        lambda text: text.replace("#M=10\n", f"#M={2**16 + 1}\n"),
    ],
    ids=["unknown-engine", "negative", "zero", "above-2^w", "beyond-int64", "n-negative", "m-zero", "m-negative",
         "w-zero", "M-negative", "M-zero", "M-above-2^w"],
)
def test_read_trace_rejects_invalid_content(tmp_path, edit):
    tf = _trace_file()  # w=16
    p = tmp_path / "t.trace"
    write_trace(tf, p)
    text = p.read_text()
    p.write_text(edit(text))
    with pytest.raises(ValueError):
        read_trace(p)


def test_read_trace_accepts_the_top_address(tmp_path):
    tf = _trace_file()  # w=16
    p = tmp_path / "t.trace"
    write_trace(tf, p)
    p.write_text(p.read_text().replace("\n1\n", f"\n{2**16}\n", 1))
    assert read_trace(p).addrs.max() == 2**16


def test_a_w63_trace_refuses_2_to_the_63_as_outside_what_an_int64_holds(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text(_HEADER_W63 + f"#N=1\n{2**63 - 1}\n")
    assert read_trace(p).addrs.tolist() == [2**63 - 1]
    p.write_text(_HEADER_W63 + f"#N=1\n{2**63}\n")
    with pytest.raises(ValueError, match=r"^trace has an address outside \[1, 2\^63 - 1\]$"):
        read_trace(p)


def _peak_bytes(fn):
    """fn's result, and the most bytes traced at once while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _random_trace(n: int) -> TraceFile:
    return TraceFile(engine="tree", workload="alt:n=2", n=2, m=1, M=4, w=16, seed=0,
                     addrs=np.random.default_rng(1).integers(1, 2**16 + 1, n))


@pytest.fixture(scope="module")
def tree_report_trace() -> TraceFile:
    """The benchmark's tree-report trace: blocks:n=8192,k=4 on the tree at m = 4, seed 9000."""
    n = 8192
    tf = run_trace("tree", OramConfig(m=4, M=n, w=32), WorkloadSpec("blocks", n, 4), 9000)
    assert tf.N == 917_504
    return tf


def test_write_trace_peaks_under_8_bytes_a_probe(tmp_path, tree_report_trace):
    """Formatting the body a block at a time holds about 3 bytes a probe here; a whole-body pass held 30."""
    _, peak = _peak_bytes(lambda: write_trace(tree_report_trace, tmp_path / "t.trace"))
    assert peak < 8 * tree_report_trace.N


def test_read_trace_peaks_under_28_bytes_a_line(tmp_path):
    """Reading a write_trace file holds the file's bytes and one int64 a line, the result's, besides
    one block's arrays (about 18 bytes a line here); a whole-file pass held 52."""
    n = 200_000
    tf = _random_trace(n)
    p = tmp_path / "t.trace"
    write_trace(tf, p)
    back, peak = _peak_bytes(lambda: read_trace(p))
    assert np.array_equal(back.addrs, tf.addrs)
    assert peak < 28 * n


@pytest.mark.parametrize("fmt", ["edges", "dot"])
def test_graph_export_peaks_under_40_bytes_a_probe(tmp_path, fmt):
    """Exporting a block of edges at a time holds pred, its sort and one block's text (about 26 bytes a
    probe for edges here); formatting every edge at once held 68 to 70."""
    n = 200_000
    tf = _random_trace(n)
    _, peak = _peak_bytes(lambda: write_output(graph_export(tf, fmt), tmp_path / "g"))
    assert peak < 40 * n


def test_analyze_trace_peaks_under_22_bytes_a_probe(tree_report_trace):
    """Certifying a tree trace holds its pred, one window's pred and the verify mask over targets
    (about 18 bytes a probe), and no whole-trace temporary of the pred build, which held 26."""
    report, peak = _peak_bytes(lambda: analyze_trace(tree_report_trace))
    assert report.certified_probe_bound > 0
    assert peak < 22 * tree_report_trace.N


def test_read_trace_accepts_M_up_to_2_to_the_w(tmp_path):
    tf = _trace_file()  # w=16, M=10
    p = tmp_path / "t.trace"
    write_trace(tf, p)
    p.write_text(p.read_text().replace("#M=10\n", f"#M={2**16}\n"))
    assert read_trace(p).M == reference_read_trace(p).M == 2**16


def test_report_refuses_a_bound_above_the_probe_count():
    with pytest.raises(CertificateError):
        ExperimentReport(
            engine="passthrough", workload="alt:n=2", n=2, m=1, M=2, w=32, seed=0,
            measured_probes=2, ell=Fraction(1), k_max=1, certified_probe_bound=3,
        )
