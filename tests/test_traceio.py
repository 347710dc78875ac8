import random
from fractions import Fraction

import numpy as np
import pytest

from oramlab import (
    CertificateError,
    ExperimentReport,
    OramConfig,
    TraceFile,
    analyze_trace,
    default_analysis_params,
    gen_write_read_blocks,
    read_trace,
    run_sequence,
    write_trace,
)


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
        assert r1.to_json() == r2.to_json()


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("#engine=passthrough", "#engine=x"),
        lambda text: text.replace("\n1\n", "\n-5\n", 1),
        lambda text: text.replace("\n1\n", "\n0\n", 1),
        lambda text: text.replace("\n1\n", f"\n{2**16 + 1}\n", 1),
        lambda text: text.replace("\n1\n", f"\n{2**70}\n", 1),
    ],
    ids=["unknown-engine", "negative", "zero", "above-2^w", "beyond-int64"],
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


def test_report_refuses_a_bound_above_the_probe_count():
    with pytest.raises(CertificateError):
        ExperimentReport(
            engine="passthrough", workload="alt:n=2", n=2, m=1, M=2, w=32, seed=0,
            measured_probes=2, ell=Fraction(1), k_max=1, certified_probe_bound=3,
        )
