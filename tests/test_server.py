import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oramlab import (
    READ,
    WRITE,
    AccessSequence,
    ModelViolationError,
    OramConfig,
    ServerState,
    adversary_view,
    gen_alternating_sequence,
    run_sequence,
)
from oramlab.adversary import trace_digest

CFG = OramConfig(m=1, M=16, w=8)


def test_write_then_read_returns_payload():
    srv = ServerState(CFG)
    srv.begin_op(0)
    assert srv.probe(WRITE, 5, 0xAB) == 0
    assert srv.probe(READ, 5) == 0xAB


def test_uninitialized_read_is_zero():
    srv = ServerState(CFG)
    srv.begin_op(0)
    assert srv.probe(READ, 7) == 0


def test_address_and_payload_range_checks():
    srv = ServerState(CFG)
    srv.begin_op(0)
    with pytest.raises(ModelViolationError):
        srv.probe(WRITE, 2**8 + 1, 0)
    with pytest.raises(ModelViolationError):
        srv.probe(WRITE, 1, 2**8)
    with pytest.raises(ModelViolationError):
        srv.probe("X", 1, 0)
    srv.probe(WRITE, 2**8, 0)  # top address is in range


def test_adversary_view_is_address_projection():
    srv = ServerState(CFG)
    srv.begin_op(0)
    srv.probe(WRITE, 3, 1)
    srv.probe(WRITE, 9, 2)
    srv.probe(READ, 3)
    assert list(adversary_view(srv)) == [3, 9, 3]
    assert adversary_view(ServerState(CFG)).N == 0


def test_records_and_columns_agree():
    srv = ServerState(CFG)
    srv.begin_op(4)
    srv.probe(WRITE, 2, 7)
    srv.begin_op(5)
    srv.probe(READ, 2)
    kinds = [(READ, WRITE)[k] for k in srv.kind_column().tolist()]
    cols = (srv.addr_column(), srv.data_column(), srv.op_column())
    assert list(zip(range(srv.probe_count), kinds, *(c.tolist() for c in cols))) == [
        (0, WRITE, 2, 7, 4),
        (1, READ, 2, 7, 5),
    ]
    assert srv.probe_count == 2
    ops, counts = np.unique(srv.op_column(), return_counts=True)
    assert dict(zip(ops.tolist(), counts.tolist())) == {4: 1, 5: 1}


@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(1, 8), st.integers(0, 255)), max_size=80
    )
)
@settings(max_examples=60)
def test_read_after_write_matches_dict_oracle(ops):
    srv = ServerState(CFG)
    srv.begin_op(0)
    oracle: dict[int, int] = {}
    for is_write, addr, data in ops:
        if is_write:
            srv.probe(WRITE, addr, data)
            oracle[addr] = data
        else:
            assert srv.probe(READ, addr) == oracle.get(addr, 0)
    assert srv.cells == oracle
    assert adversary_view(srv).N == len(ops)


def test_load_sets_cells_without_a_probe():
    srv = ServerState(CFG)
    srv.begin_op(0)
    srv.probe(WRITE, 2, 7)
    srv.load([(2, 9), (5, 4), (2, 11)])
    assert srv.probe_count == 1
    assert srv.contents(6).tolist() == [0, 11, 0, 0, 4, 0]
    assert srv.last_write_op == {2: 0}
    assert srv.probe(READ, 5) == 4
    assert srv.read_src_column().tolist() == [-1, -1]


@pytest.mark.parametrize("bad", [(0, 1), (2**8 + 1, 1), (3, 2**8), (3, -1)])
def test_load_refuses_what_a_write_probe_refuses_before_any_work(bad):
    srv = ServerState(CFG)
    srv.begin_op(0)
    srv.probe(WRITE, 2, 7)
    before = srv.contents(CFG.M).tolist(), srv.last_write_op, srv.probe_count
    with pytest.raises(ModelViolationError, match=rf"cannot load \({bad[0]}, {bad[1]}\)"):
        srv.load([(1, 5), bad])
    assert (srv.contents(CFG.M).tolist(), srv.last_write_op, srv.probe_count) == before
    with pytest.raises(ModelViolationError):
        srv.probe(WRITE, *bad)


def test_meta_free_log_keeps_addresses_only():
    srv = ServerState(CFG, record_meta=False)
    srv.begin_op(0)
    srv.probe(WRITE, 4, 1)
    srv.probe(READ, 4)
    assert list(adversary_view(srv)) == [4, 4]
    with pytest.raises(AttributeError):
        srv.kind_column()


def _server_state(srv):
    cols = [srv.addr_column()]
    if srv.record_meta:
        cols += [srv.kind_column(), srv.data_column(), srv.op_column(), srv.read_src_column()]
    return [c.tolist() for c in cols], srv.cells, srv.last_write_op


def _outcome(call):
    try:
        return call().tolist(), None
    except ModelViolationError as exc:
        return None, str(exc)


_PROBE = st.tuples(st.integers(0, 1), st.integers(1, 5), st.integers(0, 255))
_BAD_PROBES = [(1, 0, 0), (0, 2**8 + 1, 0), (1, 3, 2**8), (1, 3, -1), (2, 1, 0)]


@given(
    before=st.lists(_PROBE, max_size=8),
    batch=st.lists(_PROBE, max_size=24),
    bad=st.none() | st.tuples(st.sampled_from(_BAD_PROBES), st.integers(0, 24)),
    record_meta=st.booleans(),
)
@example(before=[], batch=[], bad=None, record_meta=True)
@example(before=[], batch=[(1, 2, 9), (0, 2, 0)], bad=None, record_meta=True)
@example(before=[(1, 2, 4)], batch=[(0, 2, 0), (1, 2, 9), (0, 2, 0)], bad=None, record_meta=True)
@example(before=[], batch=[(0, 2, 0), (1, 2, 5)], bad=None, record_meta=True)
@settings(max_examples=200, deadline=None)
def test_probe_batch_matches_probe_loop(before, batch, bad, record_meta):
    if bad is not None:
        batch = batch[: bad[1]] + [bad[0]] + batch[bad[1] :]
    loop, batched = ServerState(CFG, record_meta=record_meta), ServerState(CFG, record_meta=record_meta)
    for srv in (loop, batched):
        srv.begin_op(3)
        for k, a, d in before:
            srv.probe((READ, WRITE)[k], a, d)
        srv.begin_op(4)
    kinds, addrs, data = (np.array([p[i] for p in batch], dtype=np.int64) for i in range(3))
    want = _outcome(lambda: np.array([loop.probe({0: READ, 1: WRITE}.get(k, k), a, d) for k, a, d in batch]))
    got = _outcome(lambda: batched.probe_batch(kinds, addrs, data))
    assert got == want
    assert (bad is None) == (got[1] is None)
    assert _server_state(batched) == _server_state(loop)


def test_probe_batch_reads_see_earlier_writes_of_the_batch():
    srv = ServerState(CFG)
    srv.begin_op(0)
    srv.probe(WRITE, 3, 5)
    srv.begin_op(1)
    got = srv.probe_batch([0, 1, 0, 1, 0, 0], [3, 3, 3, 3, 3, 4], [0, 7, 0, 9, 0, 0])
    assert got.tolist() == [5, 0, 7, 0, 9, 0]
    assert srv.read_src_column().tolist() == [-1, 0, -1, 1, -1, 1, -1]
    assert srv.cells == {3: 9} and srv.last_write_op == {3: 1}


@given(
    period=st.lists(st.integers(1, 6), min_size=1, max_size=20),
    reps=st.integers(0, 30),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_repeating_sequence_matches_its_tile(period, reps, data):
    tiled = AccessSequence(np.tile(np.array(period, dtype=np.int64), reps))
    n = tiled.N
    b = data.draw(st.integers(0, n))
    e = data.draw(st.integers(b, n))
    seq = AccessSequence.repeating(period, reps)
    assert seq.N == len(seq) == n
    assert seq.window(b, e).tolist() == tiled.window(b, e).tolist() == tiled.addrs[b:e].tolist()
    assert np.array_equal(seq.addrs, tiled.addrs)
    assert seq.window(b, e).tolist() == tiled.addrs[b:e].tolist()  # now read off the cached array
    fresh = AccessSequence.repeating(period, reps)
    assert fresh.window(b, n + 7).tolist() == tiled.window(b, n + 7).tolist()  # clipped at N, as slices are
    assert fresh == tiled and tiled == AccessSequence.repeating(period, reps)
    assert list(AccessSequence.repeating(period, reps)) == list(tiled)
    assert trace_digest(AccessSequence.repeating(period, reps)) == trace_digest(tiled)


def test_repeating_scan_log_is_its_tile():
    cfg = OramConfig(m=1, M=6, w=8)
    tile = np.tile(np.repeat(np.arange(1, 7), 2), 6)
    servers = [run_sequence("linear-scan", cfg, gen_alternating_sequence(6), seed=0, record_meta=False)[1]
               for _ in range(2)]
    for srv in servers:
        view = adversary_view(srv)
        assert srv.probe_count == view.N == len(tile)
        assert view.window(5, 40).tolist() == tile[5:40].tolist()
    assert np.array_equal(servers[0].addr_column(), tile)
    assert adversary_view(servers[0]) == AccessSequence(tile)
    servers[1].probe(READ, 3)  # an append after the repeating run extends its array
    assert servers[1].probe_count == len(tile) + 1
    assert adversary_view(servers[1]).addrs.tolist() == tile.tolist() + [3]
    assert servers[1].addr_column().tolist() == tile.tolist() + [3]


_META_COLUMNS = ("kind_column", "data_column", "op_column", "read_src_column")


@given(probes=st.lists(_PROBE, max_size=16), mark=st.integers(0, 16), batched=st.booleans())
@example(probes=[(1, 2, 9), (0, 2, 0)], mark=1, batched=False)
@settings(max_examples=100, deadline=None)
def test_begin_meta_logs_metadata_from_the_mark(probes, mark, batched):
    mark = min(mark, len(probes))
    full, late = ServerState(CFG), ServerState(CFG, record_meta=False)

    def send(srv, part, op):
        srv.begin_op(op)
        if batched:
            srv.probe_batch(*(np.array([p[i] for p in part], dtype=np.int64) for i in range(3)))
        else:
            for k, a, d in part:
                srv.probe((READ, WRITE)[k], a, d)

    for srv in (full, late):
        send(srv, probes[:mark], 0)
    assert late.begin_meta() == mark == late.probe_count
    for srv in (full, late):
        send(srv, probes[mark:], 1)
    for col in _META_COLUMNS:
        got = getattr(late, col)()
        assert len(got) == late.probe_count - mark
        assert got.tolist() == getattr(full, col)()[mark:].tolist()
    assert late.addr_column().tolist() == full.addr_column().tolist()
    assert (late.cells, late.last_write_op) == (full.cells, full.last_write_op)
    # a second switch, or one on a server logging metadata from the start, is refused and changes nothing
    for srv in (late, full):
        before = _server_state(srv)
        with pytest.raises(ValueError):
            srv.begin_meta()
        assert _server_state(srv) == before
