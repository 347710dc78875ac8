import numpy as np
import pytest
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oramlab import (
    READ,
    WRITE,
    ModelViolationError,
    OramConfig,
    ServerState,
    adversary_view,
)

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
    recs = srv.records()
    assert [(r.t, r.kind, r.addr, r.data, r.op_index) for r in recs] == [
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
    return [c.tolist() for c in cols], srv.cells, srv.last_write_op, list(srv.read_overrides or ())


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
    overrides=st.none() | st.lists(st.tuples(st.integers(1, 5), st.integers(0, 255)), max_size=4),
    record_meta=st.booleans(),
)
@example(before=[], batch=[], bad=None, overrides=None, record_meta=True)
@example(before=[], batch=[(1, 2, 9), (0, 2, 0)], bad=None, overrides=None, record_meta=True)
@example(before=[(1, 2, 4)], batch=[(0, 2, 0), (1, 2, 9), (0, 2, 0)], bad=None, overrides=None, record_meta=True)
@example(before=[], batch=[(0, 2, 0), (1, 2, 5)], bad=None, overrides=[(2, 77)], record_meta=True)
@settings(max_examples=200, deadline=None)
def test_probe_batch_matches_probe_loop(before, batch, bad, overrides, record_meta):
    if bad is not None:
        batch = batch[: bad[1]] + [bad[0]] + batch[bad[1] :]
    loop, batched = ServerState(CFG, record_meta=record_meta), ServerState(CFG, record_meta=record_meta)
    for srv in (loop, batched):
        srv.begin_op(3)
        for k, a, d in before:
            srv.probe((READ, WRITE)[k], a, d)
        srv.begin_op(4)
        srv.read_overrides = None if overrides is None else deque(overrides)
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
